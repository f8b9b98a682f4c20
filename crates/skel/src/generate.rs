//! File-set generation from a model + templates.
//!
//! "Skel is then used to process the model by instantiating a set of
//! templates to produce the set of files that implements a concrete
//! workflow" (§V-A). A [`Generator`] couples named [`FileTemplate`]s
//! (whose output *paths* are themselves templated) with a model, producing
//! a [`GeneratedFileSet`] plus a manifest recording the model fingerprint
//! — "no debt accrues from code that can be efficiently deleted and
//! regenerated when needed" (§III).

use std::path::{Path, PathBuf};

use telemetry::json::ToJson;
use telemetry::jsonin::Value;

use crate::error::SkelError;
use crate::model::Model;
use crate::template::Template;

/// One template in a generator: a templated relative output path plus the
/// file-body template.
#[derive(Debug, Clone)]
pub struct FileTemplate {
    /// Template for the relative output path (may reference model values).
    pub path: Template,
    /// Template for the file contents.
    pub body: Template,
    /// Mark the generated file executable when written to disk.
    pub executable: bool,
}

impl FileTemplate {
    /// Parses a file template from path/body source text.
    pub fn parse(path: &str, body: &str) -> Result<Self, SkelError> {
        Ok(Self {
            path: Template::parse(path)?,
            body: Template::parse(body)?,
            executable: false,
        })
    }

    /// Parses a file template that should be marked executable.
    pub fn parse_executable(path: &str, body: &str) -> Result<Self, SkelError> {
        let mut t = Self::parse(path, body)?;
        t.executable = true;
        Ok(t)
    }
}

/// One generated file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedFile {
    /// Relative path of the file.
    pub path: PathBuf,
    /// Rendered contents.
    pub contents: String,
    /// Whether the file should carry the executable bit.
    pub executable: bool,
}

/// The result of one generation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedFileSet {
    /// Fingerprint of the model that produced this set.
    pub model_fingerprint: u64,
    /// Generated files, in template order.
    pub files: Vec<GeneratedFile>,
}

impl GeneratedFileSet {
    /// Looks a generated file up by relative path.
    pub fn file(&self, path: impl AsRef<Path>) -> Option<&GeneratedFile> {
        self.files.iter().find(|f| f.path == path.as_ref())
    }

    /// Writes the set under `dir`, creating directories as needed, plus a
    /// `skel-manifest.json` recording what was generated from which model.
    /// Returns the paths written (manifest last).
    pub fn write_to(&self, dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, SkelError> {
        let dir = dir.as_ref();
        let mut written = Vec::with_capacity(self.files.len() + 1);
        for f in &self.files {
            let full = dir.join(&f.path);
            if let Some(parent) = full.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&full, &f.contents)?;
            #[cfg(unix)]
            if f.executable {
                use std::os::unix::fs::PermissionsExt;
                std::fs::set_permissions(&full, std::fs::Permissions::from_mode(0o755))?;
            }
            written.push(full);
        }
        let files: Vec<String> = self
            .files
            .iter()
            .map(|f| f.path.display().to_string())
            .collect();
        let manifest = Value::object([
            ("generator", Value::from("skel")),
            (
                "model_fingerprint",
                Value::from(self.model_fingerprint.to_string()),
            ),
            ("files", files.to_value()),
        ]);
        let manifest_path = dir.join("skel-manifest.json");
        std::fs::create_dir_all(dir)?;
        std::fs::write(&manifest_path, manifest.to_json_pretty())?;
        written.push(manifest_path);
        Ok(written)
    }
}

/// A named collection of file templates.
#[derive(Debug, Clone, Default)]
pub struct Generator {
    templates: Vec<FileTemplate>,
}

impl Generator {
    /// Creates an empty generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a template.
    pub fn add(&mut self, template: FileTemplate) -> &mut Self {
        self.templates.push(template);
        self
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True when no templates are registered.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// All model paths referenced by any template — the generator's
    /// *declared degrees of freedom*, which is exactly what the Software
    /// Customizability gauge wants listed.
    pub fn referenced_paths(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .templates
            .iter()
            .flat_map(|t| {
                t.path
                    .referenced_paths()
                    .into_iter()
                    .chain(t.body.referenced_paths())
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Renders every template against `model`.
    pub fn generate(&self, model: &Model) -> Result<GeneratedFileSet, SkelError> {
        let mut files = Vec::with_capacity(self.templates.len());
        for t in &self.templates {
            let path = t.path.render(model)?;
            if path.trim().is_empty() {
                return Err(SkelError::Validation(
                    "template rendered an empty path".into(),
                ));
            }
            files.push(GeneratedFile {
                path: PathBuf::from(path.trim()),
                contents: t.body.render(model)?,
                executable: t.executable,
            });
        }
        Ok(GeneratedFileSet {
            model_fingerprint: model.fingerprint(),
            files,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> Generator {
        let mut g = Generator::new();
        g.add(
            FileTemplate::parse_executable(
                "run_{{ name }}.sh",
                "#!/bin/sh\necho running {{ name }} on {{ machine.nodes }} nodes\n",
            )
            .unwrap(),
        );
        g.add(
            FileTemplate::parse(
                "README.txt",
                "{% for s in steps %}step {{ s_index }}: {{ s }}\n{% endfor %}",
            )
            .unwrap(),
        );
        g
    }

    fn model() -> Model {
        Model::from_json(
            r#"{"name": "paste", "machine": {"nodes": 8}, "steps": ["split", "merge"]}"#,
        )
        .unwrap()
    }

    #[test]
    fn generate_renders_paths_and_bodies() {
        let set = generator().generate(&model()).unwrap();
        assert_eq!(set.files.len(), 2);
        let run = set.file("run_paste.sh").unwrap();
        assert!(run.executable);
        assert!(run.contents.contains("8 nodes"));
        let readme = set.file("README.txt").unwrap();
        assert_eq!(readme.contents, "step 0: split\nstep 1: merge\n");
    }

    #[test]
    fn regeneration_is_deterministic() {
        let a = generator().generate(&model()).unwrap();
        let b = generator().generate(&model()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.model_fingerprint, model().fingerprint());
    }

    #[test]
    fn referenced_paths_list_degrees_of_freedom() {
        assert_eq!(
            generator().referenced_paths(),
            vec!["machine.nodes", "name", "steps"]
        );
    }

    #[test]
    fn write_to_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("skel-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let set = generator().generate(&model()).unwrap();
        let written = set.write_to(&dir).unwrap();
        assert_eq!(written.len(), 3, "two files + manifest");
        let body = std::fs::read_to_string(dir.join("run_paste.sh")).unwrap();
        assert!(body.contains("echo running paste"));
        let manifest = telemetry::jsonin::parse(
            &std::fs::read_to_string(dir.join("skel-manifest.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(manifest["files"].as_arr().unwrap().len(), 2);
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let mode = std::fs::metadata(dir.join("run_paste.sh"))
                .unwrap()
                .permissions()
                .mode();
            assert_eq!(mode & 0o111, 0o111, "executable bit set");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_model_value_fails_generation() {
        let g = generator();
        let m = Model::from_json(r#"{"name": "x"}"#).unwrap();
        assert!(g.generate(&m).is_err());
    }

    #[test]
    fn empty_rendered_path_rejected() {
        let mut g = Generator::new();
        g.add(FileTemplate::parse("{{ p }}", "x").unwrap());
        let m = Model::from_json(r#"{"p": "  "}"#).unwrap();
        assert!(matches!(g.generate(&m), Err(SkelError::Validation(_))));
    }
}

//! Synthetic GWAS data and a GWAS-lite association scan.
//!
//! The paper's GWAS scenario (§II-A) needs genotype matrices (samples ×
//! SNPs, coded 0/1/2 minor-allele counts) and a phenotype. We generate
//! both with *planted* causal SNPs so the refactored pipeline can be
//! validated end-to-end: after splitting, pasting, and scanning, do the
//! causal SNPs surface as the top associations?

use hpcsim::seed::SplitMix64;

use exec::ThreadPool;

use crate::stats;
use crate::table::{Column, Table};

/// Configuration for synthetic GWAS data.
#[derive(Debug, Clone, PartialEq)]
pub struct GwasConfig {
    /// Number of individuals.
    pub samples: usize,
    /// Number of SNPs.
    pub snps: usize,
    /// Causal SNP indices with their effect sizes.
    pub causal: Vec<(usize, f64)>,
    /// Minor-allele-frequency range to draw per SNP.
    pub maf_range: (f64, f64),
    /// Phenotype noise standard deviation.
    pub noise_sd: f64,
    /// RNG seed.
    pub seed: u64,
}

impl GwasConfig {
    /// A small, fast default: 500 samples × 200 SNPs, 3 planted causal
    /// SNPs.
    pub fn small() -> Self {
        Self {
            samples: 500,
            snps: 200,
            causal: vec![(10, 0.9), (77, 0.7), (150, 1.1)],
            maf_range: (0.1, 0.4),
            noise_sd: 1.0,
            seed: 42,
        }
    }
}

/// A generated dataset: genotypes plus phenotype.
#[derive(Debug, Clone, PartialEq)]
pub struct GenotypeData {
    /// `samples × snps` minor-allele counts, row-major.
    pub genotypes: Vec<u8>,
    /// Number of individuals.
    pub samples: usize,
    /// Number of SNPs.
    pub snps: usize,
    /// Phenotype per individual.
    pub phenotype: Vec<f64>,
    /// The planted truth, for validation.
    pub causal: Vec<(usize, f64)>,
}

impl GenotypeData {
    /// Generates a dataset from `config`.
    pub fn generate(config: &GwasConfig) -> Self {
        assert!(config.samples > 0 && config.snps > 0);
        assert!(config.maf_range.0 > 0.0 && config.maf_range.1 < 1.0);
        assert!(
            config.causal.iter().all(|&(i, _)| i < config.snps),
            "causal index out of range"
        );
        let mut rng = SplitMix64::new(config.seed);
        let mafs: Vec<f64> = (0..config.snps)
            .map(|_| {
                let u = rng.next_f64();
                config.maf_range.0 + u * (config.maf_range.1 - config.maf_range.0)
            })
            .collect();
        let mut genotypes = vec![0u8; config.samples * config.snps];
        for s in 0..config.samples {
            for j in 0..config.snps {
                // two independent allele draws
                let a1 = (rng.next_f64() < mafs[j]) as u8;
                let a2 = (rng.next_f64() < mafs[j]) as u8;
                genotypes[s * config.snps + j] = a1 + a2;
            }
        }
        let phenotype: Vec<f64> = (0..config.samples)
            .map(|s| {
                let signal: f64 = config
                    .causal
                    .iter()
                    .map(|&(j, beta)| beta * genotypes[s * config.snps + j] as f64)
                    .sum();
                signal + config.noise_sd * hpcsim_free_normal(&mut rng)
            })
            .collect();
        Self {
            genotypes,
            samples: config.samples,
            snps: config.snps,
            phenotype,
            causal: config.causal.clone(),
        }
    }

    /// Genotype column for one SNP as floats.
    pub fn snp_column(&self, snp: usize) -> Vec<f64> {
        (0..self.samples)
            .map(|s| self.genotypes[s * self.snps + snp] as f64)
            .collect()
    }

    /// Splits the genotype matrix into `chunks` column-blocks as tables —
    /// the "large number of individual tabular files" the paste workflow
    /// merges back together. Each table has one column per SNP, named
    /// `snp{j}`.
    pub fn to_column_chunks(&self, chunks: usize) -> Vec<Table> {
        assert!(chunks > 0 && chunks <= self.snps);
        let per = self.snps.div_ceil(chunks);
        (0..self.snps)
            .step_by(per)
            .map(|start| {
                let end = (start + per).min(self.snps);
                let mut t = Table::new();
                for j in start..end {
                    t.push_column(
                        format!("snp{j}"),
                        Column::Int(
                            (0..self.samples)
                                .map(|s| self.genotypes[s * self.snps + j] as i64)
                                .collect(),
                        ),
                    );
                }
                t
            })
            .collect()
    }
}

fn hpcsim_free_normal(rng: &mut SplitMix64) -> f64 {
    // Local Box–Muller so tabular does not depend on hpcsim.
    let u1: f64 = loop {
        let u = rng.next_f64();
        if u > f64::EPSILON {
            break u;
        }
    };
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Per-SNP association result.
#[derive(Debug, Clone, PartialEq)]
pub struct AssocResult {
    /// SNP index.
    pub snp: usize,
    /// OLS effect size.
    pub beta: f64,
    /// t statistic.
    pub t: f64,
    /// Two-sided p-value (normal approximation).
    pub p: f64,
}

/// Runs the GWAS-lite scan: an independent simple regression of the
/// phenotype on each SNP, parallelized over SNPs.
pub fn association_scan(data: &GenotypeData, pool: &ThreadPool) -> Vec<AssocResult> {
    pool.map_index(data.snps, |j| {
        let x = data.snp_column(j);
        let (beta, _intercept, t) = stats::simple_ols(&x, &data.phenotype);
        AssocResult {
            snp: j,
            beta,
            t,
            p: stats::two_sided_p(t),
        }
    })
}

/// Runs the scan on a pasted genotype table (columns named `snp{j}`) —
/// the post-paste entry point the refactored workflow uses.
pub fn association_scan_table(
    genotypes: &Table,
    phenotype: &[f64],
    pool: &ThreadPool,
) -> Vec<AssocResult> {
    let n = genotypes.ncols();
    pool.map_index(n, |c| {
        let x = genotypes
            .column(c)
            .as_f64()
            .expect("genotype columns are numeric");
        let (beta, _i, t) = stats::simple_ols(&x, phenotype);
        let snp = genotypes.names()[c]
            .strip_prefix("snp")
            .and_then(|s| s.parse().ok())
            .unwrap_or(c);
        AssocResult {
            snp,
            beta,
            t,
            p: stats::two_sided_p(t),
        }
    })
}

/// Benjamini–Hochberg q-values for a scan, in result order. Genome-wide
/// scans test thousands of SNPs; FDR control is what separates the
/// planted hits from the multiple-testing noise floor.
pub fn q_values(results: &[AssocResult]) -> Vec<f64> {
    let p: Vec<f64> = results.iter().map(|r| r.p).collect();
    crate::stats::benjamini_hochberg(&p)
}

/// Results significant at FDR level `alpha`, strongest first.
pub fn significant_at_fdr(results: &[AssocResult], alpha: f64) -> Vec<AssocResult> {
    assert!((0.0..=1.0).contains(&alpha));
    let q = q_values(results);
    let mut hits: Vec<AssocResult> = results
        .iter()
        .zip(&q)
        .filter(|&(_, &qv)| qv <= alpha)
        .map(|(r, _)| r.clone())
        .collect();
    hits.sort_by(|a, b| a.p.partial_cmp(&b.p).unwrap_or(std::cmp::Ordering::Equal));
    hits
}

/// Returns the `k` most significant results, strongest first.
pub fn top_hits(mut results: Vec<AssocResult>, k: usize) -> Vec<AssocResult> {
    results.sort_by(|a, b| a.p.partial_cmp(&b.p).unwrap_or(std::cmp::Ordering::Equal));
    results.truncate(k);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_range() {
        let cfg = GwasConfig::small();
        let a = GenotypeData::generate(&cfg);
        let b = GenotypeData::generate(&cfg);
        assert_eq!(a, b);
        assert!(a.genotypes.iter().all(|&g| g <= 2));
        assert_eq!(a.genotypes.len(), 500 * 200);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = GwasConfig::small();
        let a = GenotypeData::generate(&cfg);
        cfg.seed = 43;
        let b = GenotypeData::generate(&cfg);
        assert_ne!(a.genotypes, b.genotypes);
    }

    #[test]
    fn scan_recovers_planted_causal_snps() {
        let cfg = GwasConfig::small();
        let data = GenotypeData::generate(&cfg);
        let pool = ThreadPool::new(4);
        let results = association_scan(&data, &pool);
        assert_eq!(results.len(), cfg.snps);
        let hits = top_hits(results, 3);
        let mut found: Vec<usize> = hits.iter().map(|h| h.snp).collect();
        found.sort_unstable();
        let mut planted: Vec<usize> = cfg.causal.iter().map(|&(j, _)| j).collect();
        planted.sort_unstable();
        assert_eq!(found, planted, "top hits should be the causal SNPs");
        assert!(hits.iter().all(|h| h.p < 1e-6));
    }

    #[test]
    fn effect_signs_match_planted_betas() {
        let mut cfg = GwasConfig::small();
        cfg.causal = vec![(5, 1.0), (6, -1.0)];
        let data = GenotypeData::generate(&cfg);
        let pool = ThreadPool::new(2);
        let results = association_scan(&data, &pool);
        assert!(results[5].beta > 0.0);
        assert!(results[6].beta < 0.0);
    }

    #[test]
    fn column_chunks_cover_all_snps() {
        let data = GenotypeData::generate(&GwasConfig::small());
        let chunks = data.to_column_chunks(7);
        let total: usize = chunks.iter().map(Table::ncols).sum();
        assert_eq!(total, data.snps);
        assert!(chunks.iter().all(|t| t.nrows() == data.samples));
        // first column of first chunk is snp0
        assert_eq!(chunks[0].names()[0], "snp0");
    }

    #[test]
    fn table_scan_agrees_with_matrix_scan() {
        let data = GenotypeData::generate(&GwasConfig::small());
        let pool = ThreadPool::new(4);
        // reassemble a table via chunk pasting, as the workflow would
        let mut merged = Table::new();
        for chunk in data.to_column_chunks(5) {
            merged.hpaste(chunk);
        }
        let from_table = association_scan_table(&merged, &data.phenotype, &pool);
        let from_matrix = association_scan(&data, &pool);
        for (a, b) in from_table.iter().zip(from_matrix.iter()) {
            assert_eq!(a.snp, b.snp);
            assert!((a.t - b.t).abs() < 1e-9);
        }
    }

    #[test]
    fn fdr_control_separates_planted_from_noise() {
        let cfg = GwasConfig::small();
        let data = GenotypeData::generate(&cfg);
        let pool = ThreadPool::new(4);
        let results = association_scan(&data, &pool);
        let hits = significant_at_fdr(&results, 0.05);
        let mut found: Vec<usize> = hits.iter().map(|h| h.snp).collect();
        found.sort_unstable();
        let mut planted: Vec<usize> = cfg.causal.iter().map(|&(j, _)| j).collect();
        planted.sort_unstable();
        // all planted SNPs significant; false discoveries within FDR slack
        for j in &planted {
            assert!(found.contains(j), "planted SNP {j} missed at 5% FDR");
        }
        assert!(
            found.len() <= planted.len() + 2,
            "too many discoveries: {found:?}"
        );
        // q-values ordered with p-values
        let q = q_values(&results);
        assert_eq!(q.len(), results.len());
        assert!(results.iter().zip(&q).all(|(r, q)| *q >= r.p));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn causal_index_validated() {
        let mut cfg = GwasConfig::small();
        cfg.causal = vec![(10_000, 1.0)];
        GenotypeData::generate(&cfg);
    }
}

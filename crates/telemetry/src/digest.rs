//! Deterministic, mergeable quantile digests.
//!
//! A [`Digest`] is a log-bucketed histogram over `u64` observations
//! (microsecond durations, counter deltas). Bucket boundaries are
//! **fixed** — pure bit arithmetic on the observed value, no adaptive
//! centroids — so merging shard digests is exact bucket-count addition:
//! associative, commutative, and byte-stable regardless of merge order
//! or sharding. That is the property the sharded campaign drivers need
//! for thread-count-invariant exports.
//!
//! ## Bucket layout
//!
//! With `SUB_BITS = 4` (16 sub-buckets per octave):
//!
//! * `0` has its own bucket,
//! * values `1..32` map to exact singleton buckets (index = value),
//! * values `>= 32` map octave-by-octave: each power-of-two range
//!   `[2^m, 2^{m+1})` splits into 16 equal-width buckets keyed by the
//!   four bits below the leading one.
//!
//! Bucket width over bucket lower bound is at most `1/16`, so any
//! in-bucket representative is within **6.25 % relative error** of the
//! true value — the documented rank-error guarantee: for any quantile,
//! the reported value `est` and the exact order statistic `v` satisfy
//! `|est - v| <= v / 16` (exact for `v < 32`).
//!
//! Exports use the `fair-telemetry-digest/1` schema via [`digest_json`].

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::sink::Snapshot;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;
/// Documented relative-error bound: `2^-SUB_BITS`.
pub const RELATIVE_ERROR: f64 = 1.0 / (1 << SUB_BITS) as f64;

/// Fixed bucket index of a non-zero value (monotone in `v`).
fn bucket_index(v: u64) -> u32 {
    debug_assert!(v > 0);
    let msb = 63 - v.leading_zeros(); // floor(log2 v)
    if msb <= SUB_BITS {
        // exact region: v < 2^(SUB_BITS+1) = 32
        v as u32
    } else {
        let sub = ((v >> (msb - SUB_BITS)) as u32) & ((1 << SUB_BITS) - 1);
        ((msb - SUB_BITS) << SUB_BITS) + (1 << SUB_BITS) + sub
    }
}

/// Inclusive `[lower, upper]` value range of a non-zero bucket.
fn bucket_bounds(index: u32) -> (u64, u64) {
    if index < (2 << SUB_BITS) {
        return (u64::from(index), u64::from(index));
    }
    let e = (index - (1 << SUB_BITS)) >> SUB_BITS; // msb - SUB_BITS
    let sub = u64::from((index - (1 << SUB_BITS)) & ((1 << SUB_BITS) - 1));
    let width = 1u64 << e;
    let lower = (1u64 << (e + SUB_BITS)) + sub * width;
    // `lower + width` is 2^64 for the top bucket, so subtract first.
    (lower, lower + (width - 1))
}

/// Deterministic representative of a bucket: the integer midpoint.
fn bucket_midpoint(index: u32) -> u64 {
    let (lo, hi) = bucket_bounds(index);
    lo + (hi - lo) / 2
}

/// A mergeable log-bucketed histogram over `u64` observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    /// Observations equal to zero (zero has no log bucket).
    zero: u64,
    /// Sparse non-zero buckets: fixed index → count.
    buckets: BTreeMap<u32, u64>,
    /// Total observation count.
    count: u64,
    /// Exact sum of all observations.
    sum: u128,
    /// Smallest observation (meaningless when `count == 0`).
    min: u64,
    /// Largest observation (meaningless when `count == 0`).
    max: u64,
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += u128::from(v);
        if v == 0 {
            self.zero += 1;
        } else {
            *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        }
    }

    /// Folds another digest into this one. Exact: merging is bucket-count
    /// addition, so the result is independent of merge order and of how
    /// observations were partitioned across shards.
    pub fn merge_from(&mut self, other: &Digest) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.zero += other.zero;
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += n;
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), within the
    /// documented [`RELATIVE_ERROR`] of the exact order statistic.
    ///
    /// Deterministic: the rank is `ceil(q * count)` (at least 1) and the
    /// representative is the integer midpoint of the selected bucket,
    /// clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zero;
        if seen >= rank {
            return Some(0);
        }
        for (&index, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(bucket_midpoint(index).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Sparse `(bucket index, count)` pairs, zero bucket first as index 0.
    fn sparse_buckets(&self) -> Vec<(u32, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len() + 1);
        if self.zero > 0 {
            out.push((0, self.zero));
        }
        out.extend(self.buckets.iter().map(|(&i, &n)| (i, n)));
        out
    }
}

/// A keyed family of digests: one per span category and counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestSet {
    digests: BTreeMap<String, Digest>,
}

impl DigestSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `v` under `key`, creating the digest on first use.
    pub fn observe(&mut self, key: &str, v: u64) {
        self.digests.entry(key.to_string()).or_default().observe(v);
    }

    /// Folds another set into this one (exact, order-independent).
    pub fn merge_from(&mut self, other: &DigestSet) {
        for (key, digest) in &other.digests {
            self.digests
                .entry(key.clone())
                .or_default()
                .merge_from(digest);
        }
    }

    /// The digest recorded under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Digest> {
        self.digests.get(key)
    }

    /// Iterates digests in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Digest)> {
        self.digests.iter().map(|(k, d)| (k.as_str(), d))
    }

    /// True when no digest has been recorded.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// Builds digests from shard snapshots: every span duration is one
    /// observation under `span_us.<category>`, and every per-part counter
    /// total is one *delta* observation under `counter.<name>`.
    ///
    /// Feeding each shard snapshot separately and merging yields exactly
    /// the same set as feeding all parts here — the byte-identity the
    /// sharded drivers rely on.
    pub fn from_parts(parts: &[&Snapshot]) -> Self {
        let mut set = DigestSet::new();
        for part in parts {
            for span in &part.spans {
                set.observe(&format!("span_us.{}", span.category), span.dur_us);
            }
            for (name, &value) in &part.counters {
                // counters in this workspace are counts and microsecond
                // totals; quantize to the nearest non-negative integer
                let v = if value >= 0.0 {
                    value.round() as u64
                } else {
                    0
                };
                set.observe(&format!("counter.{name}"), v);
            }
        }
        set
    }

    /// Builds digests from one (possibly pre-merged) snapshot.
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        Self::from_parts(&[snapshot])
    }
}

/// Renders a digest set as a `fair-telemetry-digest/1` JSON document
/// (trailing newline included). Keys sorted, buckets sparse; every
/// number is an integer except the schema-level error bound, so the
/// bytes are identical across serializers.
pub fn digest_json(set: &DigestSet) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"fair-telemetry-digest/1\",\n");
    out.push_str("  \"relative_error\": ");
    crate::json::write_f64(&mut out, RELATIVE_ERROR);
    out.push_str(",\n  \"digests\": {");
    let mut first = true;
    for (key, digest) in set.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        crate::json::write_str(&mut out, key);
        let _ = write!(
            out,
            ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}",
            digest.count(),
            digest.sum(),
            digest.min().unwrap_or(0),
            digest.max().unwrap_or(0)
        );
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            let _ = write!(out, ", \"{label}\": {}", digest.quantile(q).unwrap_or(0));
        }
        out.push_str(", \"buckets\": [");
        for (i, (index, n)) in digest.sparse_buckets().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{index},{n}]");
        }
        out.push_str("]}");
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_exact_below_32() {
        for v in 1..32u64 {
            assert_eq!(bucket_index(v), v as u32);
            assert_eq!(bucket_bounds(v as u32), (v, v));
        }
        let mut last = 0;
        for v in [
            1u64,
            2,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            last = i;
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
            // width/lower bounds the relative error
            assert!(hi - lo < lo.div_euclid(1 << SUB_BITS).max(1));
        }
    }

    #[test]
    fn quantiles_within_documented_error() {
        let mut d = Digest::new();
        let values: Vec<u64> = (0..500).map(|i| i * i * 7 + 3).collect();
        for &v in &values {
            d.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = d.quantile(q).expect("non-empty");
            assert!(
                est.abs_diff(exact) as f64 <= exact as f64 * RELATIVE_ERROR,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_matches_single_feed() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        let mut whole = Digest::new();
        for v in 0..100u64 {
            whole.observe(v * 31);
            if v % 2 == 0 {
                a.observe(v * 31);
            } else {
                b.observe(v * 31);
            }
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn digest_json_is_deterministic_and_carries_schema() {
        let mut set = DigestSet::new();
        set.observe("span_us.attempt", 120);
        set.observe("span_us.attempt", 0);
        set.observe("counter.allocations", 4);
        let a = digest_json(&set);
        assert_eq!(a, digest_json(&set));
        assert!(a.contains("\"schema\": \"fair-telemetry-digest/1\""));
        assert!(a.contains("\"span_us.attempt\""));
        assert!(a.contains("[0,1]"), "zero bucket exported: {a}");
        assert!(a.ends_with("}\n"));
        // empty set still renders a valid document
        assert!(digest_json(&DigestSet::new()).contains("\"digests\": {}"));
    }
}

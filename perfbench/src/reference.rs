//! A fixed reference kernel timed between batches, so host times can also
//! be given in units of it.
//!
//! The shared machine runs this process at speeds up to ~1.4x apart: the
//! speed switches every few seconds and drifts over minutes, and every host
//! time of a run moves with it, set-up included. Timing the same fixed
//! work between batches measures the speed the batches ran at, and a host
//! time divided by it keeps the program's cost while cancelling most of the
//! machine's drift. The kernel is the benchmark's own code, so a change to
//! the program cannot move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::{mean, quantile, Report};

/// Entries of the kernel's table: 16 MiB, beyond the private caches, like
/// the cache's slots and index.
const TABLE: usize = 1 << 21;
/// Distinct keys of the kernel's hash map: small enough for the private
/// caches, like a batch's dedup map.
const KEYS: u64 = 12_000;
/// Steps of each half of a run: ~1.7 ms in all on a 2 GHz Xeon.
const STEPS: usize = 20_000;

pub struct Reference {
    table: Vec<u64>,
    map: HashMap<u64, u64>,
    state: u64,
    /// Wall time of each run in ms.
    pub times_ms: Vec<f64>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            map: HashMap::with_capacity(2 * KEYS as usize),
            state: 1,
            times_ms: Vec::new(),
        }
    }

    /// Runs the kernel once and records its wall time. It has two halves,
    /// because the machine's neighbours slow memory-bound and
    /// compute-bound code by different amounts and the program is both:
    /// SplitMix64-addressed read-modify-writes over the table (the
    /// hash-then-probe pattern of the cache's lookups and fills), then
    /// counting the same kind of keys in a `HashMap` (a batch's dedup).
    /// Either half alone tracked one workload's host times but not the
    /// other's.
    pub fn run(&mut self) {
        let t = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let z = splitmix(&mut x);
            self.table[z as usize % TABLE] ^= z;
            acc = acc.wrapping_add(self.table[(z >> 7) as usize % TABLE]);
        }
        self.map.clear();
        for _ in 0..STEPS {
            let z = splitmix(&mut x);
            *self.map.entry(z % KEYS).or_insert(0) += z;
        }
        self.state = x ^ black_box(acc & 1) ^ black_box(self.map.len() as u64 & 1);
        self.times_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Report {
    /// The host metrics of a timed phase. `unit_ms` is the host wall of
    /// each batch (on `serve-open`, of each 1024 offered requests),
    /// `total_ms` their sum over `samples` samples, and `ref_ms` the
    /// reference kernel's times taken between them.
    pub fn host_metrics(&mut self, unit_ms: &[f64], total_ms: f64, samples: u64, ref_ms: &[f64]) {
        let samples = samples as f64;
        let (p50, p90) = (quantile(unit_ms, 0.5), quantile(unit_ms, 0.9));
        self.metric("host_samples_per_s", samples * 1e3 / total_ms, "1/s");
        self.metric("host_batch_p50_ms", p50, "ms");
        self.metric("host_batch_p90_ms", p90, "ms");
        self.metric("host_ref_ms", quantile(ref_ms, 0.5), "ms");
        self.metric(
            "host_samples_per_ref",
            samples * mean(ref_ms) / total_ms,
            "1/ref",
        );
        self.metric("host_batch_p50_ref", p50 / quantile(ref_ms, 0.5), "ref");
        self.metric("host_batch_p90_ref", p90 / quantile(ref_ms, 0.9), "ref");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_metrics_divide_by_the_matching_reference_statistic() {
        let mut r = Report::default();
        let unit: Vec<f64> = (1..=11).map(f64::from).collect();
        let refs = [0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0];
        r.host_metrics(&unit, 66.0, 11 * 1024, &refs);
        let get = |n: &str| r.get(n).map(|(v, _)| v).unwrap();
        assert_eq!(get("host_batch_p50_ref"), 6.0);
        assert_eq!(get("host_batch_p90_ref"), 5.0);
        assert_eq!(
            get("host_samples_per_ref"),
            11.0 * 1024.0 * mean(&refs) / 66.0
        );
    }

    #[test]
    fn the_kernel_records_one_time_per_run() {
        let mut k = Reference::new();
        k.run();
        k.run();
        assert_eq!(k.times_ms.len(), 2);
        assert!(k.times_ms.iter().all(|&t| t > 0.0));
    }
}

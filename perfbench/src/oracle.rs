//! Ground-truth check of every served row, run outside the timed region.
//!
//! A row is correct when it is bit-identical to a committed version of its
//! key: `embedding_value` for version 0, `versioned_embedding_value` after
//! trainer pushes. A row that matches no version up to the latest commit is
//! wrong (torn, corrupt or zero-filled); one older than a version already
//! served for the same key is a version regression.

use std::collections::HashMap;

use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::{embedding_value, versioned_embedding_value, CpuStore};
use fleche_workload::{spec, Batch, TraceGenerator};

/// Oracle results over some rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowCheck {
    pub rows: u64,
    /// Rows matching no committed version.
    pub wrong: u64,
    /// Rows older than a version already served for the key.
    pub regressed: u64,
    /// Rows of keys with at least one committed push, and the sum of
    /// (latest committed version - served version) over them.
    pub pushed_rows: u64,
    pub lag_sum: u64,
}

impl RowCheck {
    pub fn failed(&self) -> u64 {
        self.wrong + self.regressed
    }

    pub fn add(&mut self, o: &RowCheck) {
        self.rows += o.rows;
        self.wrong += o.wrong;
        self.regressed += o.regressed;
        self.pushed_rows += o.pushed_rows;
        self.lag_sum += o.lag_sum;
    }
}

#[derive(Default)]
pub struct RowOracle {
    last_served: HashMap<(u16, u64), u64>,
    scratch: Vec<f32>,
}

impl RowOracle {
    /// Checks `rows` (table-major, one per access) against `batch`.
    /// `versions` gives each key's latest committed version and, when
    /// known, the version it most likely carries; that one is tried
    /// right after the latest, before scanning the older ones.
    pub fn check(
        &mut self,
        batch: &Batch,
        rows: &[Vec<f32>],
        versions: impl Fn(u16, u64) -> (u64, Option<u64>),
    ) -> RowCheck {
        let mut c = RowCheck {
            rows: batch.total_ids() as u64,
            ..RowCheck::default()
        };
        if rows.len() != batch.total_ids() {
            c.wrong = c.rows;
            return c;
        }
        for ((t, id), row) in batch.iter_accesses().zip(rows) {
            let (newest, likely) = versions(t, id);
            let Some(v) = self.match_version(t, id, newest, likely, row) else {
                c.wrong += 1;
                continue;
            };
            // A key never pushed can only be served at version 0.
            if newest == 0 {
                continue;
            }
            c.pushed_rows += 1;
            c.lag_sum += newest - v;
            let prev = self.last_served.entry((t, id)).or_insert(v);
            if v < *prev {
                c.regressed += 1;
            } else {
                *prev = v;
            }
        }
        c
    }

    /// The committed version of `(table, id)` that `row` equals bit for
    /// bit: `latest` first, then `likely`, then the rest newest first.
    fn match_version(
        &mut self,
        table: u16,
        id: u64,
        latest: u64,
        likely: Option<u64>,
        row: &[f32],
    ) -> Option<u64> {
        self.scratch.resize(row.len(), 0.0);
        let likely = likely.filter(|&v| v < latest);
        let order = std::iter::once(latest)
            .chain(likely)
            .chain((0..latest).rev().filter(|&v| Some(v) != likely));
        for v in order {
            if v == 0 {
                embedding_value(table, id, &mut self.scratch);
            } else {
                versioned_embedding_value(table, id, v, &mut self.scratch);
            }
            if self
                .scratch
                .iter()
                .zip(row)
                .all(|(x, y)| x.to_bits() == y.to_bits())
            {
                return Some(v);
            }
        }
        None
    }
}

/// Serves one small batch, then shows that the oracle passes the served
/// rows and counts exactly one failure when one bit of one row copy is
/// flipped, for both frozen and pushed keys.
pub fn self_test() -> Result<(), String> {
    let ds = spec::synthetic(2, 64, 8, -1.2);
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.25));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::new(&ds);
    let batch = gen.next_batch(16);
    let rows = sys.query_batch(&mut gpu, &batch).rows;

    let frozen = |_: u16, _: u64| (0, None);
    let clean = RowOracle::default().check(&batch, &rows, frozen);
    if clean.rows != 32 || clean.failed() != 0 {
        return Err(format!("served rows failed the oracle: {clean:?}"));
    }
    let mut flipped = rows.clone();
    flipped[5][3] = f32::from_bits(flipped[5][3].to_bits() ^ 1);
    let caught = RowOracle::default().check(&batch, &flipped, frozen);
    if caught.failed() != 1 {
        return Err(format!("one flipped bit counted as {caught:?}"));
    }

    // Version 2 of the first key is committed: its row at version 2 passes
    // with lag 0, at version 1 passes with lag 1, and a flipped bit fails.
    let (t0, id0) = batch.iter_accesses().next().expect("non-empty batch");
    let latest = |t: u16, id: u64| (u64::from((t, id) == (t0, id0)) * 2, None);
    let mut pushed = rows.clone();
    for ((t, id), row) in batch.iter_accesses().zip(pushed.iter_mut()) {
        if (t, id) == (t0, id0) {
            versioned_embedding_value(t, id, 1, row);
        }
    }
    let lagged = RowOracle::default().check(&batch, &pushed, latest);
    if lagged.failed() != 0 || lagged.pushed_rows == 0 || lagged.lag_sum != lagged.pushed_rows {
        return Err(format!("version-1 rows misjudged: {lagged:?}"));
    }
    pushed[0][0] = f32::from_bits(pushed[0][0].to_bits() ^ (1 << 31));
    let torn = RowOracle::default().check(&batch, &pushed, latest);
    if torn.wrong != 1 {
        return Err(format!(
            "one flipped bit in a pushed row counted as {torn:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_bit_is_counted() {
        self_test().unwrap();
    }

    #[test]
    fn served_version_moving_back_is_a_regression() {
        let ds = spec::synthetic(1, 8, 4, -1.2);
        let batch = TraceGenerator::new(&ds).next_batch(1);
        let (t, id) = batch.iter_accesses().next().unwrap();
        let mut row = vec![0.0f32; 4];
        let mut oracle = RowOracle::default();
        versioned_embedding_value(t, id, 2, &mut row);
        let first = oracle.check(&batch, &[row.clone()], |_, _| (2, None));
        assert_eq!(first.failed(), 0);
        versioned_embedding_value(t, id, 1, &mut row);
        let second = oracle.check(&batch, &[row], |_, _| (2, Some(1)));
        assert_eq!(second.regressed, 1);
        assert_eq!(second.lag_sum, 1);
    }
}

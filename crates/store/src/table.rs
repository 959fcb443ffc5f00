//! The writer-side storage of one induced table: an append-oriented row
//! log with tombstones, a primary-key index, and periodic compaction.
//!
//! Every induced table (one per node/edge label, per `InferSDT`) is
//! mastered here.  Additions append to the log, removals tombstone in
//! place (O(1), no row is moved, so slot numbers stay stable within a
//! commit), and property updates patch the row in its slot.  The
//! **published** image of the table — what query snapshots see — is
//! always "the live rows of the log, in log order"; the commit path
//! derives each generation's image from the previous one by a
//! [`TableDelta`](graphiti_relational::TableDelta) rather than rescanning
//! the log.
//!
//! Tombstones accumulate until [`StoreTable::compact_if_needed`] rewrites
//! the log (dead slots dropped, live order preserved).  Compaction never
//! changes the published image — it only renumbers internal slots — so it
//! can run at any commit boundary.

use graphiti_common::{Error, Result, Value};
use graphiti_relational::{Row, Table};
use std::collections::HashMap;

/// Compaction triggers once at least this many tombstones exist...
pub(crate) const COMPACTION_MIN_DEAD: usize = 32;
/// ...and the dead slots are at least this fraction of the log.
pub(crate) const COMPACTION_DEAD_FRACTION: f64 = 0.5;

/// The append/tombstone/compact log backing one induced table.
#[derive(Debug, Clone)]
pub(crate) struct StoreTable {
    columns: Vec<String>,
    rows: Vec<Row>,
    dead: Vec<bool>,
    dead_count: usize,
    /// Primary-key value → live slot.  The primary key is always column 0
    /// (the label's default property key, per `InferSDT`).
    pk: HashMap<Value, usize>,
}

impl StoreTable {
    /// Masters an existing (freeze-produced) table image.  The table's
    /// rows must have unique, non-null values in column 0.
    pub(crate) fn from_table(table: &Table) -> StoreTable {
        let mut pk = HashMap::with_capacity(table.len());
        for (i, row) in table.rows.iter().enumerate() {
            let prev = pk.insert(row[0].clone(), i);
            debug_assert!(prev.is_none(), "duplicate primary key mastering `{}`", table.columns[0]);
        }
        StoreTable {
            columns: table.columns.clone(),
            rows: table.rows.clone(),
            dead: vec![false; table.len()],
            dead_count: 0,
            pk,
        }
    }

    /// Rebuilds a log from its checkpointed slots — every row (live
    /// **and** tombstoned), in log order — re-deriving the primary-key
    /// index.  Restoring tombstones too keeps slot numbering, and hence
    /// the published live-rows-in-log-order image, bit-identical to the
    /// pre-crash state.
    pub(crate) fn from_log_parts(
        columns: Vec<String>,
        slots: Vec<(bool, Row)>,
    ) -> Result<StoreTable> {
        let mut pk = HashMap::with_capacity(slots.len());
        let mut rows = Vec::with_capacity(slots.len());
        let mut dead = Vec::with_capacity(slots.len());
        let mut dead_count = 0;
        for (i, (is_dead, row)) in slots.into_iter().enumerate() {
            if row.len() != columns.len() {
                return Err(Error::instance(format!(
                    "checkpoint row arity {} does not match {} columns",
                    row.len(),
                    columns.len()
                )));
            }
            if is_dead {
                dead_count += 1;
            } else if pk.insert(row[0].clone(), i).is_some() {
                return Err(Error::instance(format!(
                    "checkpoint holds a duplicate live primary key {}",
                    row[0]
                )));
            }
            rows.push(row);
            dead.push(is_dead);
        }
        Ok(StoreTable { columns, rows, dead, dead_count, pk })
    }

    /// The tombstone flag of every log slot, and the values of the
    /// tombstoned rows, concatenated in log order: with the published
    /// image (the live rows in log order) they make up every slot, which
    /// is what a checkpoint stores.
    pub(crate) fn tombstones(&self) -> (Vec<bool>, Vec<Value>) {
        let mut values = Vec::with_capacity(self.dead_count * self.columns.len());
        for (row, _) in self.rows.iter().zip(&self.dead).filter(|(_, d)| **d) {
            values.extend_from_slice(row);
        }
        (self.dead.clone(), values)
    }

    /// Total log slots (live + tombstoned).
    pub(crate) fn log_len(&self) -> usize {
        self.rows.len()
    }

    /// Tombstoned slots.
    pub(crate) fn dead_count(&self) -> usize {
        self.dead_count
    }

    /// Live rows.
    pub(crate) fn live_len(&self) -> usize {
        self.rows.len() - self.dead_count
    }

    /// Whether a live row carries this primary-key value.
    pub(crate) fn contains_pk(&self, value: &Value) -> bool {
        self.pk.contains_key(value)
    }

    /// The live slot holding this primary-key value.
    pub(crate) fn slot_of(&self, value: &Value) -> Option<usize> {
        self.pk.get(value).copied()
    }

    /// The row at a slot (live or dead).
    pub(crate) fn row(&self, slot: usize) -> &Row {
        &self.rows[slot]
    }

    /// Whether a slot is tombstoned.
    pub(crate) fn is_dead(&self, slot: usize) -> bool {
        self.dead[slot]
    }

    /// Appends a row, returning its slot.
    pub(crate) fn append(&mut self, row: Row) -> usize {
        debug_assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        let slot = self.rows.len();
        let prev = self.pk.insert(row[0].clone(), slot);
        debug_assert!(prev.is_none(), "append with duplicate primary key");
        self.rows.push(row);
        self.dead.push(false);
        slot
    }

    /// Tombstones the live row carrying `pk`, returning its slot.
    pub(crate) fn tombstone(&mut self, pk: &Value) -> Option<usize> {
        let slot = self.pk.remove(pk)?;
        debug_assert!(!self.dead[slot]);
        self.dead[slot] = true;
        self.dead_count += 1;
        Some(slot)
    }

    /// Patches one cell of a live slot, re-keying the primary-key index
    /// when column 0 changes.
    pub(crate) fn patch(&mut self, slot: usize, col: usize, value: Value) {
        debug_assert!(!self.dead[slot], "patching a tombstoned slot");
        if col == 0 {
            let old = std::mem::replace(&mut self.rows[slot][0], value.clone());
            if old != value {
                self.pk.remove(&old);
                let prev = self.pk.insert(value, slot);
                debug_assert!(prev.is_none(), "pk patch collides with a live key");
                return;
            }
            return;
        }
        self.rows[slot][col] = value;
    }

    /// Rewrites the log without its tombstones when the compaction policy
    /// triggers (≥ [`COMPACTION_MIN_DEAD`] dead slots making up ≥
    /// [`COMPACTION_DEAD_FRACTION`] of the log), or unconditionally with
    /// `force`.  Live order is preserved, so the published image is
    /// untouched; only internal slot numbers change.  Returns whether a
    /// rewrite happened.
    pub(crate) fn compact(&mut self, force: bool) -> bool {
        let triggered = self.dead_count >= COMPACTION_MIN_DEAD
            && (self.dead_count as f64) >= COMPACTION_DEAD_FRACTION * (self.rows.len() as f64);
        if !(triggered || (force && self.dead_count > 0)) {
            return false;
        }
        let mut rows = Vec::with_capacity(self.live_len());
        let old = std::mem::take(&mut self.rows);
        for (i, row) in old.into_iter().enumerate() {
            if !self.dead[i] {
                rows.push(row);
            }
        }
        self.rows = rows;
        self.dead = vec![false; self.rows.len()];
        self.dead_count = 0;
        self.pk = self.rows.iter().enumerate().map(|(i, r)| (r[0].clone(), i)).collect();
        true
    }

    /// Materializes the published image — live rows in log order — from
    /// scratch.  This is the cold path (used when mastering and by
    /// consistency checks); commits derive images incrementally instead.
    pub(crate) fn snapshot_table(&self) -> Table {
        Table {
            columns: self.columns.clone(),
            rows: self
                .rows
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.dead[*i])
                .map(|(_, r)| r.clone())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn table() -> StoreTable {
        StoreTable::from_table(&Table::with_rows(
            ["id", "name"],
            vec![vec![v(1), Value::str("a")], vec![v(2), Value::str("b")]],
        ))
    }

    #[test]
    fn append_tombstone_patch_round_trip() {
        let mut t = table();
        assert_eq!(t.live_len(), 2);
        let s = t.append(vec![v(3), Value::str("c")]);
        assert_eq!(s, 2);
        assert!(t.contains_pk(&v(3)));
        assert_eq!(t.tombstone(&v(2)), Some(1));
        assert!(t.is_dead(1));
        assert_eq!(t.tombstone(&v(2)), None, "double tombstone is a no-op");
        t.patch(0, 1, Value::str("a2"));
        assert_eq!(
            t.snapshot_table().rows,
            vec![vec![v(1), Value::str("a2")], vec![v(3), Value::str("c")]]
        );
        // Re-keying the primary key.
        t.patch(0, 0, v(9));
        assert!(t.contains_pk(&v(9)) && !t.contains_pk(&v(1)));
        assert_eq!(t.slot_of(&v(9)), Some(0));
    }

    #[test]
    fn compaction_preserves_the_published_image() {
        let mut t = StoreTable::from_table(&Table::with_rows(
            ["id", "x"],
            (0..100).map(|i| vec![v(i), v(i * 10)]).collect::<Vec<_>>(),
        ));
        for i in 0..60 {
            t.tombstone(&v(i));
        }
        let before = t.snapshot_table();
        assert!(t.compact(false), "60% dead must trigger compaction");
        assert_eq!(t.snapshot_table(), before);
        assert_eq!(t.dead_count(), 0);
        assert_eq!(t.log_len(), 40);
        assert_eq!(t.slot_of(&v(60)), Some(0), "slots renumber after compaction");
        assert!(!t.compact(false), "nothing left to compact");
    }

    #[test]
    fn compaction_threshold_requires_both_count_and_fraction() {
        let mut t = StoreTable::from_table(&Table::with_rows(
            ["id"],
            (0..1000).map(|i| vec![v(i)]).collect::<Vec<_>>(),
        ));
        for i in 0..40 {
            t.tombstone(&v(i));
        }
        // 40 dead of 1000: count met, fraction not.
        assert!(!t.compact(false));
        assert!(t.compact(true), "force compaction always rewrites when dead rows exist");
        assert_eq!(t.log_len(), 960);
    }
}

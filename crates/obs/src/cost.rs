//! Attribution rows and the sharded, slot-keyed cost table.
//!
//! The broker attributes dispatch work to three kinds of key:
//! subscription-index entries, event themes and subscribers. Every key
//! gets one [`AttributionRow`]: a count column (labeled metrics) and
//! sampled-nanosecond columns (cost attribution), all relaxed atomics,
//! so a charge never locks the row or allocates. Themes and
//! subscribers keep their rows in [`crate::LabeledRows`]; this module
//! supplies the rows themselves and the table for index entries.
//!
//! Layout of [`CostTable`]: entries are keyed by a dense `u64` index
//! (the subscription index's entry slot). The index picks a shard
//! (`index % SHARDS`) and a row within it (`index / SHARDS`); each
//! shard is a `RwLock` over cells that hold a row plus a label
//! preformatted at registration time. The charge path takes the shard
//! **read** lock and adds to the row — writers (registration, growth)
//! are rare and confined to subscribe time, so readers essentially
//! never block and never allocate.
//!
//! Slots can be recycled (the subscription index free-lists entry
//! slots on unsubscribe), so every cell is stamped with the owning
//! entity's unique id (`uid`). A charge whose uid does not match the
//! cell's stamp is a charge against a departed entity racing a reuse;
//! it is dropped rather than misattributed. A new owner starts from a
//! zeroed row, and the old owner's totals move into the shard's
//! retired sums, so [`CostTable::totals`] never decreases.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Shard count; a power of two so `index % SHARDS` is a mask.
const SHARDS: usize = 8;

/// One attributed key's columns; see the module docs. Each column is
/// written only by the switch that owns it: `count` by labeled
/// metrics, the nanosecond columns and `samples` by cost attribution.
#[derive(Debug, Default)]
pub struct AttributionRow {
    count: AtomicU64,
    match_ns: AtomicU64,
    deliver_ns: AtomicU64,
    samples: AtomicU64,
}

impl AttributionRow {
    /// Adds `n` to the count column.
    pub fn add_count(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds sampled nanoseconds without counting a sample (a theme row
    /// is charged once per event, for all of its sampled dispatches).
    pub fn add_ns(&self, match_ns: u64, deliver_ns: u64) {
        self.match_ns.fetch_add(match_ns, Ordering::Relaxed);
        self.deliver_ns.fetch_add(deliver_ns, Ordering::Relaxed);
    }

    /// Charges one sampled dispatch.
    pub fn add_sample(&self, match_ns: u64, deliver_ns: u64) {
        self.add_ns(match_ns, deliver_ns);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// The row's current column values.
    pub fn read(&self) -> RowTotals {
        RowTotals {
            count: self.count.load(Ordering::Relaxed),
            match_ns: self.match_ns.load(Ordering::Relaxed),
            deliver_ns: self.deliver_ns.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
        }
    }
}

/// Column values of one row, or sums over many.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowTotals {
    /// The count column (match tests or notifications).
    pub count: u64,
    /// Sampled match nanoseconds.
    pub match_ns: u64,
    /// Sampled deliver nanoseconds.
    pub deliver_ns: u64,
    /// Sampled dispatches.
    pub samples: u64,
}

impl RowTotals {
    /// Adds `other` column by column.
    pub fn add(&mut self, other: RowTotals) {
        self.count += other.count;
        self.match_ns += other.match_ns;
        self.deliver_ns += other.deliver_ns;
        self.samples += other.samples;
    }

    /// The cost columns under `label`, as reported by `/costs`.
    pub fn cost_entry(self, label: String) -> CostEntry {
        CostEntry {
            label,
            match_ns: self.match_ns,
            deliver_ns: self.deliver_ns,
            samples: self.samples,
        }
    }
}

/// One entity's accumulated cost, as read by [`CostTable::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CostEntry {
    /// The label registered for the entity (e.g. `entry-3`, `sub-7`).
    pub label: String,
    /// Sampled match nanoseconds charged to the entity.
    pub match_ns: u64,
    /// Sampled deliver nanoseconds charged to the entity.
    pub deliver_ns: u64,
    /// Sampled dispatches charged (one per entry visit, not per ns).
    pub samples: u64,
}

impl CostEntry {
    /// Match plus deliver nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.match_ns + self.deliver_ns
    }
}

/// One entry's cell. `stamp` is the owner's uid plus one, so zero means
/// "vacant" without reserving a uid value.
#[derive(Debug, Default)]
struct CostCell {
    stamp: AtomicU64,
    row: AttributionRow,
    label: String,
}

/// One shard: its cells and the totals of owners whose slots were
/// recycled, both changed together under the shard's write lock.
#[derive(Debug, Default)]
struct Shard {
    cells: Vec<CostCell>,
    retired: RowTotals,
}

/// The sharded exact-totals table; see the module docs.
///
/// Shareable by reference across threads; all methods take `&self`.
#[derive(Debug, Default)]
pub struct CostTable {
    shards: [RwLock<Shard>; SHARDS],
}

impl CostTable {
    /// An empty table. Shards grow on demand in [`CostTable::ensure`].
    pub fn new() -> CostTable {
        CostTable::default()
    }

    fn locate(index: u64) -> (usize, usize) {
        ((index as usize) % SHARDS, (index / SHARDS as u64) as usize)
    }

    /// Registers (or re-registers) the entity at `index` with unique id
    /// `uid`, labelling its cell with `label()`. Called at subscribe
    /// time — takes the shard write lock and may grow the shard. When
    /// the slot changes owners, the old owner's totals move to the
    /// shard's retired sums and the row restarts from zero. Idempotent
    /// for an unchanged owner: counters are preserved.
    pub fn ensure(&self, index: u64, uid: u64, label: impl FnOnce() -> String) {
        let (shard, row) = Self::locate(index);
        let mut shard = self.shards[shard]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if shard.cells.len() <= row {
            shard.cells.resize_with(row + 1, CostCell::default);
        }
        let stamp = uid.wrapping_add(1).max(1);
        let cell = &mut shard.cells[row];
        if cell.stamp.load(Ordering::Relaxed) == stamp {
            return;
        }
        let replaced = std::mem::take(&mut cell.row).read();
        cell.stamp.store(stamp, Ordering::Relaxed);
        cell.label = label();
        shard.retired.add(replaced);
    }

    /// Charges one sampled dispatch to the entity at `index`, provided
    /// the cell is still stamped with `uid` (a mismatch means the slot
    /// was recycled and the charge is dropped). On success, calls
    /// `with_label` with the registered label borrowed under the shard
    /// read lock — the hook feeds heavy-hitter sketches without the
    /// caller owning or cloning the string. Returns whether the charge
    /// landed. Allocation-free.
    pub fn charge(
        &self,
        index: u64,
        uid: u64,
        match_ns: u64,
        deliver_ns: u64,
        with_label: impl FnOnce(&str),
    ) -> bool {
        let (shard, row) = Self::locate(index);
        let shard = self.shards[shard].read().unwrap_or_else(|e| e.into_inner());
        let Some(cell) = shard.cells.get(row) else {
            return false;
        };
        if cell.stamp.load(Ordering::Relaxed) != uid.wrapping_add(1).max(1) {
            return false;
        }
        cell.row.add_sample(match_ns, deliver_ns);
        with_label(&cell.label);
        true
    }

    /// Sums over every cell and every retired owner: monotone across
    /// slot recycling.
    pub fn totals(&self) -> RowTotals {
        let mut out = RowTotals::default();
        for shard in &self.shards {
            let shard = shard.read().unwrap_or_else(|e| e.into_inner());
            out.add(shard.retired);
            for cell in &shard.cells {
                out.add(cell.row.read());
            }
        }
        out
    }

    /// Every live entity's totals, most expensive (match + deliver)
    /// first; ties break by label. A cold-path read for `/costs` and
    /// tests — it allocates freely.
    pub fn snapshot(&self) -> Vec<CostEntry> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().unwrap_or_else(|e| e.into_inner());
            for cell in &shard.cells {
                if cell.stamp.load(Ordering::Relaxed) != 0 {
                    out.push(cell.row.read().cost_entry(cell.label.clone()));
                }
            }
        }
        sort_by_cost(&mut out);
        out
    }
}

/// Sorts rows most expensive (match + deliver) first, ties by label.
pub fn sort_by_cost(rows: &mut [CostEntry]) {
    rows.sort_by(|a, b| {
        b.total_ns()
            .cmp(&a.total_ns())
            .then_with(|| a.label.cmp(&b.label))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn charges_accumulate_per_entity() {
        let table = CostTable::new();
        table.ensure(0, 100, || "entry-0".into());
        table.ensure(9, 101, || "entry-9".into());
        assert!(table.charge(0, 100, 10, 20, |_| {}));
        assert!(table.charge(0, 100, 5, 0, |_| {}));
        assert!(table.charge(9, 101, 100, 300, |_| {}));
        let snap = table.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap[0],
            CostEntry {
                label: "entry-9".into(),
                match_ns: 100,
                deliver_ns: 300,
                samples: 1
            }
        );
        assert_eq!(
            snap[1],
            CostEntry {
                label: "entry-0".into(),
                match_ns: 15,
                deliver_ns: 20,
                samples: 2
            }
        );
        let totals = table.totals();
        assert_eq!(totals.match_ns, 115);
        assert_eq!(totals.deliver_ns, 320);
        assert_eq!(totals.samples, 3);
        assert_eq!(totals.count, 0, "entry rows carry no count");
    }

    #[test]
    fn charge_surfaces_the_registered_label() {
        let table = CostTable::new();
        table.ensure(3, 7, || "entry-3".into());
        let mut seen = String::new();
        table.charge(3, 7, 1, 1, |label| seen.push_str(label));
        assert_eq!(seen, "entry-3");
    }

    #[test]
    fn unknown_or_recycled_slots_drop_the_charge() {
        let table = CostTable::new();
        // Never registered: no charge, no panic.
        assert!(!table.charge(42, 1, 10, 10, |_| panic!("no label")));
        assert_eq!(table.totals(), RowTotals::default());
        // Registered, then recycled under a new uid: the stale charge
        // is dropped and the row restarts from zero, while the table
        // totals keep the departed owner's charges.
        table.ensure(1, 5, || "entry-1".into());
        table.charge(1, 5, 100, 100, |_| {});
        let before = table.totals();
        table.ensure(1, 6, || "entry-1b".into());
        assert_eq!(table.totals(), before, "recycling keeps the totals");
        assert!(!table.charge(1, 5, 7, 7, |_| panic!("stale uid")));
        assert_eq!(table.totals(), before, "a dropped charge adds nothing");
        assert!(table.charge(1, 6, 3, 4, |_| {}));
        let snap = table.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].label, "entry-1b");
        assert_eq!(snap[0].match_ns, 3);
        assert_eq!(snap[0].deliver_ns, 4);
        let totals = table.totals();
        assert_eq!((totals.match_ns, totals.deliver_ns), (103, 104));
        assert_eq!(totals.samples, 2);
    }

    #[test]
    fn ensure_is_idempotent_for_the_same_owner() {
        let table = CostTable::new();
        table.ensure(2, 9, || "entry-2".into());
        table.charge(2, 9, 50, 0, |_| {});
        // Re-registering the same (index, uid) must not wipe totals —
        // duplicate-key subscriptions join an existing entry.
        table.ensure(2, 9, || panic!("label must not be rebuilt"));
        assert_eq!(table.snapshot()[0].match_ns, 50);
    }

    #[test]
    fn concurrent_charges_reconcile_exactly() {
        let table = Arc::new(CostTable::new());
        for i in 0..16u64 {
            table.ensure(i, i, || format!("entry-{i}"));
        }
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    for round in 0..1_000u64 {
                        let idx = round % 16;
                        table.charge(idx, idx, 3, 5, |_| {});
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let totals = table.totals();
        assert_eq!(totals.samples, 4_000);
        assert_eq!(totals.match_ns, 12_000);
        assert_eq!(totals.deliver_ns, 20_000);
    }
}

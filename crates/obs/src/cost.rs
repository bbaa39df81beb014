//! Sharded exact cost-attribution table for sampled dispatch charging.
//!
//! The broker's cost-attribution subsystem charges a deterministic
//! 1-in-k sample of dispatches to the entities that caused the work:
//! subscription-index entries, themes, and subscribers. Heavy hitters
//! go through [`crate::topk::TopKSketch`]; this module supplies the
//! complement — **exact** per-entity nanosecond totals in a sharded,
//! slot-indexed table that the hot path can charge without allocating.
//!
//! Layout: entities are keyed by a dense `u64` index (the subscription
//! index's entry slot, or a subscriber id). The index picks a shard
//! (`index % SHARDS`) and a row within it (`index / SHARDS`); each
//! shard is a `RwLock<Vec<CostCell>>` whose cells hold relaxed atomics
//! plus a label preformatted at registration time. The charge path
//! takes the shard **read** lock and does three `fetch_add`s — writers
//! (registration, growth) are rare and confined to subscribe time, so
//! readers essentially never block and never allocate.
//!
//! Slots can be recycled (the subscription index free-lists entry
//! slots on unsubscribe), so every cell is stamped with the owning
//! entity's unique id (`uid`). A charge whose uid does not match the
//! cell's stamp is a charge against a departed entity racing a reuse;
//! it is dropped rather than misattributed.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Shard count; a power of two so `index % SHARDS` is a mask.
const SHARDS: usize = 8;

/// One entity's cost cell. `stamp` is the owner's uid plus one, so
/// zero means "vacant" without reserving a uid value.
#[derive(Debug)]
struct CostCell {
    stamp: AtomicU64,
    match_ns: AtomicU64,
    deliver_ns: AtomicU64,
    samples: AtomicU64,
    label: String,
}

impl CostCell {
    fn vacant() -> CostCell {
        CostCell {
            stamp: AtomicU64::new(0),
            match_ns: AtomicU64::new(0),
            deliver_ns: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            label: String::new(),
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

/// Whole-table totals (sums over every live cell).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostTotals {
    /// Sampled match nanoseconds across all entities.
    pub match_ns: u64,
    /// Sampled deliver nanoseconds across all entities.
    pub deliver_ns: u64,
    /// Sampled dispatches across all entities.
    pub samples: u64,
}

/// The sharded exact-totals table; see the module docs.
///
/// Shareable by reference across threads; all methods take `&self`.
#[derive(Debug)]
pub struct CostTable {
    shards: [RwLock<Vec<CostCell>>; SHARDS],
}

impl Default for CostTable {
    fn default() -> Self {
        CostTable::new()
    }
}

impl CostTable {
    /// An empty table. Shards grow on demand in [`CostTable::ensure`].
    pub fn new() -> CostTable {
        CostTable {
            shards: std::array::from_fn(|_| RwLock::new(Vec::new())),
        }
    }

    fn locate(index: u64) -> (usize, usize) {
        ((index as usize) % SHARDS, (index / SHARDS as u64) as usize)
    }

    /// Registers (or re-registers) the entity at `index` with unique id
    /// `uid`, labelling its cell with `label()`. Called at subscribe
    /// time — takes the shard write lock, may grow the shard, and
    /// resets the counters when the slot changed owners. Idempotent
    /// for an unchanged owner: counters are preserved.
    pub fn ensure(&self, index: u64, uid: u64, label: impl FnOnce() -> String) {
        let (shard, row) = Self::locate(index);
        let mut cells = self.shards[shard]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if cells.len() <= row {
            cells.resize_with(row + 1, CostCell::vacant);
        }
        let cell = &mut cells[row];
        let stamp = uid.wrapping_add(1).max(1);
        if cell.stamp.load(Ordering::Relaxed) == stamp {
            return;
        }
        cell.stamp.store(stamp, Ordering::Relaxed);
        cell.match_ns.store(0, Ordering::Relaxed);
        cell.deliver_ns.store(0, Ordering::Relaxed);
        cell.samples.store(0, Ordering::Relaxed);
        cell.label = label();
    }

    /// Charges sampled nanoseconds to the entity at `index`, provided
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
        let cells = self.shards[shard].read().unwrap_or_else(|e| e.into_inner());
        let Some(cell) = cells.get(row) else {
            return false;
        };
        if cell.stamp.load(Ordering::Relaxed) != uid.wrapping_add(1).max(1) {
            return false;
        }
        cell.match_ns.fetch_add(match_ns, Ordering::Relaxed);
        cell.deliver_ns.fetch_add(deliver_ns, Ordering::Relaxed);
        cell.samples.fetch_add(1, Ordering::Relaxed);
        with_label(&cell.label);
        true
    }

    /// Sums over every live cell.
    pub fn totals(&self) -> CostTotals {
        let mut out = CostTotals::default();
        for shard in &self.shards {
            let cells = shard.read().unwrap_or_else(|e| e.into_inner());
            for cell in cells.iter() {
                if cell.stamp.load(Ordering::Relaxed) == 0 {
                    continue;
                }
                out.match_ns += cell.match_ns.load(Ordering::Relaxed);
                out.deliver_ns += cell.deliver_ns.load(Ordering::Relaxed);
                out.samples += cell.samples.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Live entities currently registered.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let cells = shard.read().unwrap_or_else(|e| e.into_inner());
                cells
                    .iter()
                    .filter(|c| c.stamp.load(Ordering::Relaxed) != 0)
                    .count()
            })
            .sum()
    }

    /// Whether no entity is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live entity's totals, most expensive (match + deliver)
    /// first; ties break by label. A cold-path read for `/costs` and
    /// tests — it allocates freely.
    pub fn snapshot(&self) -> Vec<CostEntry> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let cells = shard.read().unwrap_or_else(|e| e.into_inner());
            for cell in cells.iter() {
                if cell.stamp.load(Ordering::Relaxed) == 0 {
                    continue;
                }
                out.push(CostEntry {
                    label: cell.label.clone(),
                    match_ns: cell.match_ns.load(Ordering::Relaxed),
                    deliver_ns: cell.deliver_ns.load(Ordering::Relaxed),
                    samples: cell.samples.load(Ordering::Relaxed),
                });
            }
        }
        out.sort_by(|a, b| {
            b.total_ns()
                .cmp(&a.total_ns())
                .then_with(|| a.label.cmp(&b.label))
        });
        out
    }
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
        assert_eq!(table.len(), 2);
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
        // Registered, then recycled under a new uid: the stale charge
        // is dropped and the counters restart from zero.
        table.ensure(1, 5, || "entry-1".into());
        table.charge(1, 5, 100, 100, |_| {});
        table.ensure(1, 6, || "entry-1b".into());
        assert!(!table.charge(1, 5, 7, 7, |_| panic!("stale uid")));
        assert!(table.charge(1, 6, 3, 4, |_| {}));
        let snap = table.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].label, "entry-1b");
        assert_eq!(snap[0].match_ns, 3);
        assert_eq!(snap[0].deliver_ns, 4);
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

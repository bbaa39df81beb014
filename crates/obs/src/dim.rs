//! Keyed attribution rows with a hard cardinality cap.
//!
//! A dimensional metric (per-theme, per-subscriber) maps a key to an
//! [`AttributionRow`]. Unbounded key sets are the classic way to melt a
//! metrics backend, so [`LabeledRows`] admits at most `cap` distinct
//! keys; every charge beyond that lands in a shared **overflow** row
//! (exported under the [`OVERFLOW_LABEL`] value) — totals stay exact,
//! only the per-key breakdown saturates.
//!
//! The hot path either holds an `Arc<AttributionRow>` resolved once
//! (a subscriber's row, at subscribe time) or charges a row under the
//! map's read lock without cloning it (a theme's row, once per event);
//! admitting a new key takes a short write lock, which is rare by
//! construction (key sets are small and stable).

use crate::cost::{AttributionRow, RowTotals};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// The label value under which capped-out charges are exported.
pub const OVERFLOW_LABEL: &str = "_overflow";

/// A capped map of attribution rows; see the module docs.
///
/// Shareable by reference across threads; all methods take `&self`.
pub struct LabeledRows<K> {
    rows: RwLock<BTreeMap<K, Arc<AttributionRow>>>,
    cap: usize,
    overflow: Arc<AttributionRow>,
}

impl<K> fmt::Debug for LabeledRows<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabeledRows")
            .field("cap", &self.cap)
            .field("overflow", &self.overflow.read())
            .finish_non_exhaustive()
    }
}

impl<K: Ord> LabeledRows<K> {
    /// An empty map admitting at most `cap` distinct keys (clamped to
    /// at least 1).
    pub fn new(cap: usize) -> LabeledRows<K> {
        LabeledRows {
            rows: RwLock::new(BTreeMap::new()),
            cap: cap.max(1),
            overflow: Arc::default(),
        }
    }

    /// Runs `f` on `key`'s row, admitting the key while the map is
    /// under its cap; at the cap, on the shared overflow row. A tracked
    /// key costs one read lock and no allocation; pass `Arc::clone` to
    /// keep a handle where the call site is hot.
    pub fn with_row<Q, R>(&self, key: &Q, f: impl FnOnce(&Arc<AttributionRow>) -> R) -> R
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(row) = self.rows.read().unwrap_or_else(|e| e.into_inner()).get(key) {
            return f(row);
        }
        let mut rows = self.rows.write().unwrap_or_else(|e| e.into_inner());
        if rows.len() >= self.cap && !rows.contains_key(key) {
            return f(&self.overflow);
        }
        f(rows.entry(key.to_owned()).or_default())
    }

    /// Sums over every admitted row and the overflow row.
    pub fn totals(&self) -> RowTotals {
        let mut out = self.overflow.read();
        let rows = self.rows.read().unwrap_or_else(|e| e.into_inner());
        for row in rows.values() {
            out.add(row.read());
        }
        out
    }

    /// Every admitted key's row in key order, and the overflow row. A
    /// cold-path read; it allocates freely.
    pub fn snapshot(&self) -> (Vec<(K, RowTotals)>, RowTotals)
    where
        K: Clone,
    {
        let rows = self.rows.read().unwrap_or_else(|e| e.into_inner());
        let admitted = rows
            .iter()
            .map(|(key, row)| (key.clone(), row.read()))
            .collect();
        (admitted, self.overflow.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(rows: &LabeledRows<String>) -> (Vec<(String, u64)>, u64) {
        let (admitted, overflow) = rows.snapshot();
        let admitted = admitted.into_iter().map(|(k, r)| (k, r.count)).collect();
        (admitted, overflow.count)
    }

    #[test]
    fn labels_count_independently() {
        let rows = LabeledRows::new(8);
        rows.with_row("sports", |r| r.add_count(3));
        rows.with_row("finance", |r| r.add_count(1));
        rows.with_row("sports", |r| r.add_count(2));
        assert_eq!(
            counts(&rows),
            (
                vec![("finance".to_string(), 1), ("sports".to_string(), 5)],
                0
            )
        );
    }

    #[test]
    fn cap_routes_excess_labels_to_overflow() {
        let rows = LabeledRows::new(2);
        rows.with_row("a", |r| r.add_count(1));
        rows.with_row("b", |r| r.add_count(1));
        rows.with_row("c", |r| r.add_count(10));
        rows.with_row("d", |r| r.add_count(5));
        rows.with_row("a", |r| r.add_count(1)); // admitted keys keep counting
        let (admitted, overflow) = counts(&rows);
        assert_eq!(
            admitted,
            vec![("a".to_string(), 2), ("b".to_string(), 1)],
            "cap admits exactly 2 keys"
        );
        assert_eq!(overflow, 15);
        // Total counts are preserved exactly.
        assert_eq!(admitted.iter().map(|(_, v)| v).sum::<u64>() + overflow, 18);
    }

    #[test]
    fn hot_path_handles_are_stable() {
        let rows: LabeledRows<u64> = LabeledRows::new(4);
        let h1 = rows.with_row(&1, Arc::clone);
        let h2 = rows.with_row(&1, Arc::clone);
        h1.add_count(7);
        h2.add_sample(10, 20);
        let (admitted, _) = rows.snapshot();
        assert_eq!(
            admitted,
            vec![(
                1,
                RowTotals {
                    count: 7,
                    match_ns: 10,
                    deliver_ns: 20,
                    samples: 1
                }
            )]
        );
        assert_eq!(rows.with_row(&1, |r| r.read().count), 7);
    }

    #[test]
    fn concurrent_increments_reconcile() {
        let rows = Arc::new(LabeledRows::new(4));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let rows = Arc::clone(&rows);
                std::thread::spawn(move || {
                    // Two admitted keys + contention past the cap.
                    for _ in 0..10_000 {
                        rows.with_row(if t % 2 == 0 { "even" } else { "odd" }, |r| r.add_count(1));
                        rows.with_row(format!("spill-{t}").as_str(), |r| r.add_count(1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (admitted, overflow) = counts(&rows);
        let total = admitted.iter().map(|(_, v)| v).sum::<u64>() + overflow;
        assert_eq!(
            total, 80_000,
            "no lost increments: {admitted:?} + {overflow}"
        );
    }
}

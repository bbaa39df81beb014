//! A concurrent space-saving sketch for top-k heavy hitters.
//!
//! Tracks the approximately-hottest string keys (themes, terms) in a
//! fixed slot table — memory is bounded by construction, never by the
//! key universe. The algorithm is the classic *space-saving* scheme
//! (Metwally et al.) adapted to concurrent relaxed atomics:
//!
//! * a slot is `(key hash, count)`, both `AtomicU64`;
//! * recording an already-tracked key is one relaxed `fetch_add` —
//!   wait-free, no locks, the steady-state hot path;
//! * an untracked key claims an empty slot with one CAS, or — when its
//!   bounded probe window is full — replaces the window's minimum-count
//!   slot, *inheriting* that count (the space-saving overestimate that
//!   preserves the "no heavy hitter is ever lost" property);
//! * a failed replacement CAS is **not** retried: the record is counted
//!   in [`TopKSketch::dropped`] and the caller moves on, keeping the
//!   operation bounded under contention.
//!
//! Hash→name resolution lives in a `RwLock` map written only on slot
//! claims (rare by design); reads never block writes on the count path.
//! Counts are approximate and may over-report after an eviction — fine
//! for "what is hot right now", which is all a monitoring surface needs.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Slots inspected per key; bounds the work of any single `record`.
const PROBE_WINDOW: usize = 8;

/// FNV-1a, remapping the (vanishing) zero hash to 1 so that 0 can mean
/// "empty slot".
fn key_hash(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h.max(1)
}

struct Slot {
    key: AtomicU64,
    count: AtomicU64,
}

/// The concurrent top-k sketch; see the module docs.
///
/// Shareable by reference across threads; all methods take `&self`.
pub struct TopKSketch {
    slots: Box<[Slot]>,
    names: RwLock<HashMap<u64, String>>,
    dropped: AtomicU64,
}

impl fmt::Debug for TopKSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TopKSketch")
            .field("capacity", &self.slots.len())
            .field("tracked", &self.tracked())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TopKSketch {
    /// A sketch with `capacity` slots (clamped to at least the 8-slot
    /// probe window). Size it at 2–4× the `k` you intend to query:
    /// space-saving's count error shrinks with spare slots.
    pub fn new(capacity: usize) -> TopKSketch {
        let capacity = capacity.max(PROBE_WINDOW);
        TopKSketch {
            slots: (0..capacity)
                .map(|_| Slot {
                    key: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                })
                .collect(),
            names: RwLock::new(HashMap::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one occurrence of `key`.
    pub fn record(&self, key: &str) {
        self.record_n(key, 1);
    }

    /// Records `n` occurrences of `key`.
    pub fn record_n(&self, key: &str, n: u64) {
        if n == 0 {
            return;
        }
        let hash = key_hash(key);
        let len = self.slots.len();
        let start = (hash as usize) % len;
        // Pass 1: already tracked, or an empty slot to claim.
        for i in 0..PROBE_WINDOW.min(len) {
            let slot = &self.slots[(start + i) % len];
            let current = slot.key.load(Ordering::Relaxed);
            if current == hash {
                slot.count.fetch_add(n, Ordering::Relaxed);
                return;
            }
            if current == 0
                && slot
                    .key
                    .compare_exchange(0, hash, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.set_name(hash, key);
                slot.count.fetch_add(n, Ordering::Relaxed);
                return;
            }
            // Someone else won the slot; if it was for our key, join it.
            if slot.key.load(Ordering::Relaxed) == hash {
                slot.count.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
        // Pass 2: window full — space-saving replacement of its minimum.
        let mut min: Option<(usize, u64, u64)> = None;
        for i in 0..PROBE_WINDOW.min(len) {
            let idx = (start + i) % len;
            let k = self.slots[idx].key.load(Ordering::Relaxed);
            let c = self.slots[idx].count.load(Ordering::Relaxed);
            if min.as_ref().is_none_or(|(_, _, mc)| c < *mc) {
                min = Some((idx, k, c));
            }
        }
        let Some((idx, old_key, _)) = min else { return };
        let slot = &self.slots[idx];
        if slot
            .key
            .compare_exchange(old_key, hash, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            // The new key inherits the evicted count (the documented
            // space-saving overestimate) plus its own increment.
            slot.count.fetch_add(n, Ordering::Relaxed);
            let mut names = self.names.write().unwrap_or_else(|e| e.into_inner());
            names.remove(&old_key);
            names.insert(hash, key.to_string());
        } else {
            // Contended replacement: drop rather than loop.
            self.dropped.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn set_name(&self, hash: u64, key: &str) {
        self.names
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(hash, key.to_string());
    }

    /// The `k` hottest keys as `(name, approximate count)`, hottest
    /// first. Ties break toward earlier slots; keys whose name was
    /// evicted mid-read are skipped.
    pub fn top(&self, k: usize) -> Vec<(String, u64)> {
        let names = self.names.read().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<(String, u64)> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let key = slot.key.load(Ordering::Relaxed);
                if key == 0 {
                    return None;
                }
                let count = slot.count.load(Ordering::Relaxed);
                names.get(&key).map(|name| (name.clone(), count))
            })
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries.truncate(k);
        entries
    }

    /// Visits the `k` hottest keys (hottest first, `k` capped at 16)
    /// without allocating: the selection runs over a fixed stack array
    /// and names are borrowed from the resolution map. Ties break by
    /// slot order rather than by name — use [`TopKSketch::top`] when a
    /// deterministic tie order matters more than staying off the heap
    /// (the flight recorder's frame tick is the opposite trade).
    pub fn for_each_top(&self, k: usize, mut emit: impl FnMut(&str, u64)) {
        const MAX: usize = 16;
        let k = k.min(MAX);
        if k == 0 {
            return;
        }
        let mut best = [(0u64, 0u64); MAX]; // (key hash, count), descending
        let mut len = 0usize;
        for slot in self.slots.iter() {
            let key = slot.key.load(Ordering::Relaxed);
            if key == 0 {
                continue;
            }
            let count = slot.count.load(Ordering::Relaxed);
            let mut insert_at = len;
            while insert_at > 0 && best[insert_at - 1].1 < count {
                insert_at -= 1;
            }
            if insert_at >= k {
                continue;
            }
            if len < k {
                len += 1;
            }
            for j in (insert_at + 1..len).rev() {
                best[j] = best[j - 1];
            }
            best[insert_at] = (key, count);
        }
        let names = self.names.read().unwrap_or_else(|e| e.into_inner());
        for &(key, count) in &best[..len] {
            if let Some(name) = names.get(&key) {
                emit(name, count);
            }
        }
    }

    /// Occupied slots (distinct keys currently tracked).
    pub fn tracked(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.key.load(Ordering::Relaxed) != 0)
            .count()
    }

    /// Records abandoned because a replacement CAS lost its race.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn heavy_hitters_surface_in_order() {
        let sketch = TopKSketch::new(64);
        for (key, n) in [("alpha", 50u64), ("beta", 30), ("gamma", 10), ("delta", 3)] {
            for _ in 0..n {
                sketch.record(key);
            }
        }
        let top = sketch.top(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], ("alpha".to_string(), 50));
        assert_eq!(top[1], ("beta".to_string(), 30));
        assert_eq!(top[2], ("gamma".to_string(), 10));
        assert_eq!(sketch.tracked(), 4);
        assert_eq!(sketch.dropped(), 0);
    }

    #[test]
    fn record_n_and_zero_are_handled() {
        let sketch = TopKSketch::new(16);
        sketch.record_n("bulk", 1_000);
        sketch.record_n("bulk", 0);
        assert_eq!(sketch.top(1), vec![("bulk".to_string(), 1_000)]);
    }

    #[test]
    fn eviction_keeps_true_heavy_hitters() {
        // Tiny sketch, many distinct cold keys, one hot key: the hot key
        // must survive the churn (space-saving's core guarantee) and its
        // count may only over-report, never under-report.
        let sketch = TopKSketch::new(PROBE_WINDOW);
        for round in 0..200 {
            sketch.record("hot");
            sketch.record(&format!("cold-{round}"));
        }
        let top = sketch.top(1);
        assert_eq!(top[0].0, "hot", "top slots: {:?}", sketch.top(8));
        assert!(
            top[0].1 >= 200,
            "space-saving counts over-report, never under: {}",
            top[0].1
        );
    }

    #[test]
    fn for_each_top_agrees_with_top() {
        let sketch = TopKSketch::new(64);
        for (key, n) in [
            ("alpha", 50u64),
            ("beta", 30),
            ("gamma", 10),
            ("delta", 3),
            ("epsilon", 1),
        ] {
            sketch.record_n(key, n);
        }
        let mut visited: Vec<(String, u64)> = Vec::new();
        sketch.for_each_top(3, |name, count| visited.push((name.to_string(), count)));
        assert_eq!(visited, sketch.top(3));
        // k = 0 visits nothing; k past the tracked set visits everything.
        sketch.for_each_top(0, |_, _| panic!("k = 0 must not emit"));
        let mut all = 0usize;
        sketch.for_each_top(16, |_, _| all += 1);
        assert_eq!(all, 5);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let sketch = Arc::new(TopKSketch::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let sketch = Arc::clone(&sketch);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        sketch.record("shared");
                        sketch.record(&format!("t{t}-{}", i % 20));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let top = sketch.top(1);
        assert_eq!(top[0].0, "shared");
        // 20k records of "shared"; eviction inheritance can only add.
        assert!(top[0].1 >= 20_000, "count {}", top[0].1);
    }
}

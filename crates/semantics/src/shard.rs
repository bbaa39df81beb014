//! N-way sharded, bounded memo caches with coarse LRU eviction.
//!
//! The PR-1 hot path funneled every broker worker through three global
//! `RwLock<HashMap>` tables — a single writer stalled every reader, and the
//! tables grew without bound. [`ShardedCache`] fixes both:
//!
//! * **Sharding**: keys are distributed over `N` (power-of-two) shards by
//!   key hash; each shard has its own lock, so concurrent lookups of
//!   different keys proceed in parallel and writer stalls are localized.
//! * **Bounding**: each shard keeps two *generations* (`hot` and
//!   `previous`). Inserts go to `hot`; when `hot` reaches the per-shard
//!   budget, it is rotated into `previous` and the old `previous` is
//!   dropped — a coarse LRU: anything untouched for a full generation is
//!   evicted, anything re-read is promoted back into `hot` first.
//! * **Pinning**: entries that must survive eviction (a subscription's
//!   precomputed projections, pinned for its lifetime) are refcounted in a
//!   separate per-shard map that rotation never touches.
//!
//! Hit / miss / eviction counters are relaxed atomics, cheap enough to
//! leave on permanently and surfaced through `BrokerStats`. Every miss
//! also bumps a plain thread-local tally ([`thread_miss_count`]), so a
//! thread can tell whether *its own* call missed without reading a
//! counter that other threads write.

use crate::fxhash::{fx_hash64, FxBuildHasher};
use parking_lot::RwLock;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Counter snapshot for one cache (or a sum over several — see
/// [`CacheStats::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Entries dropped by generation rotation.
    pub evictions: u64,
    /// Resident entries (hot + previous + pinned) at snapshot time.
    pub entries: u64,
    /// Pinned entries at snapshot time.
    pub pinned: u64,
}

impl CacheStats {
    /// Component-wise sum, for aggregating several caches into one report.
    pub fn merge(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            entries: self.entries + other.entries,
            pinned: self.pinned + other.pinned,
        }
    }

    /// Hits over total lookups; `0.0` before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Stripes in a [`StripedCounter`].
const STRIPES: usize = 16;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's stripe, drawn round-robin on its first count,
    /// so the first [`STRIPES`] counting threads never share one.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
    /// Misses taken by every [`ShardedCache`] on this thread.
    static THREAD_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// One counter stripe, alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe(AtomicU64);

/// A statistics counter striped per thread: each thread adds to its own
/// 64-byte-padded stripe, so concurrent writers never move a cache line
/// between cores, and [`StripedCounter::get`] sums the stripes. Totals are
/// exact (every add is an atomic add); only the layout is per thread.
#[derive(Debug, Default)]
pub(crate) struct StripedCounter {
    stripes: [Stripe; STRIPES],
}

impl StripedCounter {
    /// Adds one on the calling thread's stripe.
    pub(crate) fn incr(&self) {
        let stripe = STRIPE.with(|s| *s);
        self.stripes[stripe].0.fetch_add(1, Ordering::Relaxed);
    }

    /// The sum over all stripes.
    pub(crate) fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Semantic-cache misses taken **on the calling thread**, summed over
/// every [`ShardedCache`] in the process; monotone per thread.
///
/// This is what a thread samples around one of its own calls to learn
/// whether that call missed (the broker's cache-temperature stage label):
/// a plain thread-local read, so misses on other threads can neither
/// relabel the call nor make the probe touch a shared cache line. The
/// process-wide totals stay in [`ShardedCache::stats`].
pub fn thread_miss_count() -> u64 {
    THREAD_MISSES.with(Cell::get)
}

struct ShardInner<K, V> {
    hot: FxMap<K, V>,
    previous: FxMap<K, V>,
    /// key → (value, pin refcount); exempt from rotation.
    pinned: FxMap<K, (V, u32)>,
}

impl<K, V> Default for ShardInner<K, V> {
    fn default() -> ShardInner<K, V> {
        ShardInner {
            hot: FxMap::default(),
            previous: FxMap::default(),
            pinned: FxMap::default(),
        }
    }
}

/// A bounded concurrent memo cache; see the module docs for the design.
///
/// `V` is expected to be cheap to clone (`Arc<…>`, `f64`, small Copy
/// types) — every hit clones the value out so no lock is held by callers.
pub struct ShardedCache<K, V> {
    shards: Box<[RwLock<ShardInner<K, V>>]>,
    mask: u64,
    per_shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("per_shard_budget", &self.per_shard_budget)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// Creates a cache with `shards` shards (rounded up to a power of two)
    /// holding roughly `capacity` unpinned entries in total.
    pub fn new(shards: usize, capacity: usize) -> ShardedCache<K, V> {
        let shards = shards.max(1).next_power_of_two();
        // Two generations per shard share the budget, so a full cache holds
        // between capacity/2 and capacity unpinned entries.
        let per_shard_budget = (capacity / (2 * shards)).max(4);
        ShardedCache {
            shards: (0..shards)
                .map(|_| RwLock::new(ShardInner::default()))
                .collect(),
            mask: (shards - 1) as u64,
            per_shard_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        THREAD_MISSES.with(|m| m.set(m.get() + 1));
    }

    fn shard(&self, key: &K) -> &RwLock<ShardInner<K, V>> {
        // Select the shard from the *high* word: the shard's inner maps use
        // the same hash function and index buckets by the low bits, so
        // using the low bits here too would leave every map in shard `s`
        // holding only keys whose low bits equal `s` — clustering its
        // buckets 2^shards-fold.
        &self.shards[((fx_hash64(key) >> 32) & self.mask) as usize]
    }

    /// Looks up `key`, promoting previous-generation hits back into `hot`.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key);
        {
            let inner = shard.read();
            if let Some((v, _)) = inner.pinned.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(v.clone());
            }
            if let Some(v) = inner.hot.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(v.clone());
            }
            if !inner.previous.contains_key(key) {
                self.count_miss();
                return None;
            }
        }
        // Previous-generation hit: promote under the write lock.
        let mut inner = shard.write();
        if let Some(v) = inner.previous.remove(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.insert_hot(&mut inner, key.clone(), v.clone());
            return Some(v);
        }
        // Rotated away (or promoted by a racing reader) between the locks.
        drop(inner);
        match self.get_fast(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.count_miss();
                None
            }
        }
    }

    /// Read-only probe: returns the cached value if resident (pinned, hot,
    /// or previous generation) without promotion and **without touching the
    /// hit/miss counters** — a peek is not a demand signal. This is the
    /// primitive behind cache-warm-only lookups (a degraded broker asks
    /// "what do you already know?" and must not pollute the counters or
    /// the LRU ordering while doing so).
    pub fn peek(&self, key: &K) -> Option<V> {
        self.get_fast(key)
    }

    /// Read-only probe without promotion or counter updates.
    fn get_fast(&self, key: &K) -> Option<V> {
        let inner = self.shard(key).read();
        if let Some((v, _)) = inner.pinned.get(key) {
            return Some(v.clone());
        }
        inner
            .hot
            .get(key)
            .or_else(|| inner.previous.get(key))
            .cloned()
    }

    /// Returns the cached value for `key`, computing it with `compute` on a
    /// miss. `compute` runs without any shard lock held, so it may be
    /// expensive (and may itself use *other* caches); concurrent misses on
    /// the same key may compute twice, but only one value is retained.
    pub fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let value = compute();
        let mut inner = self.shard(key).write();
        if let Some((v, _)) = inner.pinned.get(key) {
            return v.clone();
        }
        if let Some(v) = inner.hot.get(key) {
            return v.clone();
        }
        if let Some(v) = inner.previous.remove(key) {
            self.insert_hot(&mut inner, key.clone(), v.clone());
            return v;
        }
        self.insert_hot(&mut inner, key.clone(), value.clone());
        value
    }

    /// Inserts into `hot`, rotating generations when the budget is hit.
    fn insert_hot(&self, inner: &mut ShardInner<K, V>, key: K, value: V) {
        if inner.hot.len() >= self.per_shard_budget {
            let dropped = std::mem::replace(&mut inner.previous, std::mem::take(&mut inner.hot));
            self.evictions
                .fetch_add(dropped.len() as u64, Ordering::Relaxed);
        }
        inner.hot.insert(key, value);
    }

    /// Pins `key` (computing it with `compute` if absent) so rotation never
    /// evicts it; pins are refcounted, so nested `pin` / [`Self::unpin`]
    /// pairs compose.
    pub fn pin_with(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        // Compute (or fetch) outside the write lock.
        let value = match self.get(key) {
            Some(v) => v,
            None => compute(),
        };
        let mut inner = self.shard(key).write();
        if let Some((v, refs)) = inner.pinned.get_mut(key) {
            *refs += 1;
            return v.clone();
        }
        // Migrate out of the generational maps so the entry lives once.
        inner.hot.remove(key);
        inner.previous.remove(key);
        inner.pinned.insert(key.clone(), (value.clone(), 1));
        value
    }

    /// Releases one pin on `key`; when the last pin drops, the value moves
    /// back into the `hot` generation (still cached, again evictable).
    /// Unpinning an unknown key is a no-op (the cache may have been cleared
    /// while pins were outstanding).
    pub fn unpin(&self, key: &K) {
        let mut inner = self.shard(key).write();
        let Some((_, refs)) = inner.pinned.get_mut(key) else {
            return;
        };
        *refs -= 1;
        if *refs == 0 {
            let (value, _) = inner.pinned.remove(key).expect("entry checked above");
            self.insert_hot(&mut inner, key.clone(), value);
        }
    }

    /// Resident entries across all shards (hot + previous + pinned).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.read();
                inner.hot.len() + inner.previous.len() + inner.pinned.len()
            })
            .sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pinned entries across all shards.
    pub fn pinned_len(&self) -> usize {
        self.shards.iter().map(|s| s.read().pinned.len()).sum()
    }

    /// Drops every entry, including pinned ones (outstanding pins become
    /// no-ops on [`Self::unpin`]). Counters are preserved.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut inner = shard.write();
            inner.hot.clear();
            inner.previous.clear();
            inner.pinned.clear();
        }
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
            pinned: self.pinned_len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn get_or_insert_computes_once_per_key() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(4, 64);
        let calls = AtomicUsize::new(0);
        for _ in 0..5 {
            let v = cache.get_or_insert_with(&7, || {
                calls.fetch_add(1, Ordering::SeqCst);
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn rotation_bounds_occupancy_and_counts_evictions() {
        // 1 shard, capacity 16 → per-shard budget 8 per generation.
        let cache: ShardedCache<u32, u32> = ShardedCache::new(1, 16);
        for k in 0..100 {
            cache.get_or_insert_with(&k, || k);
        }
        assert!(cache.len() <= 16, "occupancy {} exceeds bound", cache.len());
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        assert_eq!(stats.misses, 100);
    }

    #[test]
    fn recently_read_entries_survive_rotation() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(1, 16);
        cache.get_or_insert_with(&0, || 0);
        for k in 1..1000 {
            cache.get_or_insert_with(&k, || k);
            // Touch key 0 every insert: promotion must keep it resident.
            assert_eq!(cache.get(&0), Some(0), "hot key evicted at k={k}");
        }
    }

    #[test]
    fn pinned_entries_survive_rotation_and_unpin_releases() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(1, 8);
        assert_eq!(cache.pin_with(&99, || 1), 1);
        assert_eq!(cache.pin_with(&99, || 2), 1, "second pin sees first value");
        for k in 0..100 {
            cache.get_or_insert_with(&k, || k);
        }
        assert_eq!(cache.get(&99), Some(1), "pinned entry must survive");
        assert_eq!(cache.pinned_len(), 1);
        cache.unpin(&99);
        assert_eq!(cache.pinned_len(), 1, "refcounted: one pin remains");
        cache.unpin(&99);
        assert_eq!(cache.pinned_len(), 0);
        // Still cached (demoted to hot), and further unpins are no-ops.
        assert_eq!(cache.get(&99), Some(1));
        cache.unpin(&99);
    }

    #[test]
    fn clear_drops_everything_including_pins() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(2, 32);
        cache.pin_with(&1, || 10);
        cache.get_or_insert_with(&2, || 20);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        cache.unpin(&1); // must not panic after clear
        assert_eq!(cache.get(&1), None);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: Arc<ShardedCache<u32, u32>> = Arc::new(ShardedCache::new(8, 256));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    for round in 0..200u32 {
                        let k = round % 50;
                        let v = cache.get_or_insert_with(&k, || k * 3);
                        assert_eq!(v, k * 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 200);
    }

    #[test]
    fn concurrent_counters_reconcile_under_eviction_pressure() {
        // Disjoint per-thread key ranges: no two threads ever race on the
        // same key, so every miss inserts exactly one new resident entry
        // and entries leave residency only through rotation. At
        // quiescence the counters must reconcile exactly:
        //
        //   hits + misses == lookups
        //   misses        == resident entries + evictions
        //
        // The tiny capacity keeps every shard rotating while 8 threads
        // hammer it, so the equalities are checked *under* eviction
        // pressure, not on an idle cache.
        const THREADS: u32 = 8;
        const KEYS_PER_THREAD: u32 = 300;
        const PASSES: u32 = 3;
        let cache: Arc<ShardedCache<u32, u32>> = Arc::new(ShardedCache::new(4, 128));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    let base = t * KEYS_PER_THREAD;
                    for _ in 0..PASSES {
                        for k in base..base + KEYS_PER_THREAD {
                            assert_eq!(cache.get_or_insert_with(&k, || k * 3), k * 3);
                            // Re-touch the thread's base key every
                            // iteration: promotion keeps it resident, so
                            // the hit counter moves under rotation too.
                            assert_eq!(cache.get_or_insert_with(&base, || base * 3), base * 3);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        let lookups = (THREADS * KEYS_PER_THREAD * PASSES * 2) as u64;
        assert_eq!(stats.hits + stats.misses, lookups);
        assert_eq!(stats.misses, stats.entries + stats.evictions);
        assert!(stats.evictions > 0, "capacity 128 must rotate: {stats:?}");
        assert!(stats.hits > 0, "promoted entries must re-hit: {stats:?}");
    }

    #[test]
    fn thread_miss_count_sees_only_the_calling_threads_misses() {
        // The quiet thread samples its tally across a window in which
        // the other thread takes 100 misses on a cache both share: its
        // delta must stay zero, the missing thread's must be exactly 100,
        // and the shared totals must still count every miss.
        let cache: Arc<ShardedCache<u32, u32>> = Arc::new(ShardedCache::new(4, 1024));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let quiet = {
            let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
            thread::spawn(move || {
                assert_eq!(cache.get_or_insert_with(&u32::MAX, || 0), 0);
                let before = thread_miss_count();
                barrier.wait(); // the other thread misses now
                barrier.wait();
                assert_eq!(cache.get(&u32::MAX), Some(0), "a hit is not a miss");
                thread_miss_count() - before
            })
        };
        let missing = {
            let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
            thread::spawn(move || {
                barrier.wait();
                let before = thread_miss_count();
                for k in 0..100 {
                    cache.get_or_insert_with(&k, || k);
                }
                let delta = thread_miss_count() - before;
                barrier.wait();
                delta
            })
        };
        assert_eq!(quiet.join().unwrap(), 0);
        assert_eq!(missing.join().unwrap(), 100);
        assert_eq!(cache.stats().misses, 101);
    }

    #[test]
    fn striped_counter_totals_are_exact_across_threads() {
        const THREADS: u64 = 20; // more threads than stripes: some share
        const ADDS: u64 = 5_000;
        let counter = Arc::new(StripedCounter::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || (0..ADDS).for_each(|_| counter.incr()))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.get(), THREADS * ADDS);
        assert_eq!(std::mem::align_of::<Stripe>(), 64);
    }

    #[test]
    fn hit_rate_and_merge() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 2,
            entries: 4,
            pinned: 1,
        };
        assert!((a.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let b = a.merge(a);
        assert_eq!(b.hits, 6);
        assert_eq!(b.entries, 8);
    }
}

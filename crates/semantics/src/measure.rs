//! The semantic-measure abstraction and its implementations.

use crate::intern::{intern_term, intern_theme, resolve_term, resolve_theme, TermId, ThemeId};
use crate::pvsm::ParametricVectorSpace;
use crate::shard::{thread_miss_count, CacheStats, ShardedCache, StripedCounter};
use crate::space::DistributionalSpace;
use crate::theme::Theme;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A relatedness score together with the geometric evidence behind it,
/// for explainability: the raw distance the score was derived from (Eq.
/// 6) and the dimensionality of each side's vector before and after
/// theme projection.
///
/// `distance` is `None` when no distance was taken — equal terms
/// short-circuit to `1.0`, zero projections to `0.0`, and non-geometric
/// measures (e.g. [`PrecomputedMeasure`]) never take one. Dimensionality
/// fields are zero for measures without vector representations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RelatednessDetail {
    /// The relatedness score, identical to what
    /// [`SemanticMeasure::relatedness`] returns for the same arguments.
    pub score: f64,
    /// Euclidean distance between the (normalized, projected) vectors,
    /// when the geometric path was taken.
    pub distance: Option<f64>,
    /// Non-zero dimensions of the subscription term's full-space vector.
    pub dims_full_s: usize,
    /// Non-zero dimensions of the event term's full-space vector.
    pub dims_full_e: usize,
    /// Non-zero dimensions of the subscription term's projected vector.
    pub dims_projected_s: usize,
    /// Non-zero dimensions of the event term's projected vector.
    pub dims_projected_e: usize,
}

impl RelatednessDetail {
    /// A score-only detail (no geometry), for measures that don't keep
    /// vector representations.
    pub fn score_only(score: f64) -> RelatednessDetail {
        RelatednessDetail {
            score,
            ..RelatednessDetail::default()
        }
    }
}

/// The paper's semantic measure
/// `sm : T × 2^TH × T × 2^TH → [0, 1]` (§4.3): relatedness between a
/// subscription-side term and an event-side term, each contextualized by
/// its theme.
///
/// Implementations must be symmetric
/// (`sm(a, tha, b, thb) == sm(b, thb, a, tha)`) and return `1.0` for equal
/// term/theme pairs.
pub trait SemanticMeasure: Send + Sync + fmt::Debug {
    /// Semantic relatedness in `[0, 1]`.
    fn relatedness(&self, term_s: &str, theme_s: &Theme, term_e: &str, theme_e: &Theme) -> f64;

    /// Relatedness by **interned symbols** — the batched hot path. The
    /// matcher interns each side's terms and themes once per match test
    /// and probes per cell with copyable ids, so a warm cell costs one
    /// memo probe instead of four intern-table round-trips. The contract:
    /// bit-identical to [`Self::relatedness`] on the strings the ids were
    /// interned from. Default: resolve and delegate (correct for any
    /// measure; id-aware implementations override with a direct path).
    fn relatedness_ids(
        &self,
        term_s: TermId,
        theme_s: ThemeId,
        term_e: TermId,
        theme_e: ThemeId,
    ) -> f64 {
        let (ts, te) = (resolve_term(term_s), resolve_term(term_e));
        let (ths, the) = (resolve_theme(theme_s), resolve_theme(theme_e));
        self.relatedness(&ts, &ths, &te, &the)
    }

    /// The relatedness score plus the evidence behind it, for
    /// explainability. **Off the hot path** — implementations may
    /// recompute vectors; the contract is only that `explain(..).score`
    /// equals `relatedness(..)` for the same arguments. Default: score
    /// with no geometry.
    fn explain(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> RelatednessDetail {
        RelatednessDetail::score_only(self.relatedness(term_s, theme_s, term_e, theme_e))
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str {
        "measure"
    }

    /// Precomputes (and, where the implementation supports it, **pins**)
    /// the state needed to score `term` under `theme`, so long-lived
    /// consumers — a broker subscription's predicate terms — stay resident
    /// across cache eviction. Default: no-op.
    fn prepare_term(&self, _term: &str, _theme: &Theme) {}

    /// Releases one [`Self::prepare_term`] pin. Default: no-op.
    fn release_term(&self, _term: &str, _theme: &Theme) {}

    /// Aggregated hit/miss/eviction counters over every cache this measure
    /// consults (memo tables, projection caches, …). Default: zeros.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Semantic-cache misses taken **on the calling thread**, monotone:
    /// the delta across one call says whether that call computed
    /// anything, which is how the broker labels a match test cache-warm
    /// or cache-cold. Other threads' misses never move it, and reading it
    /// touches no shared memory ([`Self::cache_stats`] walks shard locks
    /// and is too heavy to call per match test). Measures backed by a
    /// [`ShardedCache`] return [`thread_miss_count`]. Default: 0 (no
    /// caches).
    fn cache_miss_count(&self) -> u64 {
        0
    }

    /// Cache-warm-only relatedness: answer from already-resident state
    /// (memo tables, pinned projections) **without computing anything
    /// expensive**, or return `None` when the answer is not warm. The
    /// contract: a `Some(score)` must equal what [`Self::relatedness`]
    /// would return for the same arguments, and the probe must not
    /// perturb cache counters or eviction order.
    ///
    /// This is the middle rung of the broker's degradation ladder (exact →
    /// cache-warm semantic → full semantic): under overload the broker
    /// keeps whatever semantic fidelity is already paid for and skips only
    /// the cold computations. Default: `None` (no warm state to consult).
    fn relatedness_warm(
        &self,
        _term_s: &str,
        _theme_s: &Theme,
        _term_e: &str,
        _theme_e: &Theme,
    ) -> Option<f64> {
        None
    }
}

impl<M: SemanticMeasure + ?Sized> SemanticMeasure for Arc<M> {
    fn relatedness(&self, term_s: &str, theme_s: &Theme, term_e: &str, theme_e: &Theme) -> f64 {
        (**self).relatedness(term_s, theme_s, term_e, theme_e)
    }
    fn relatedness_ids(
        &self,
        term_s: TermId,
        theme_s: ThemeId,
        term_e: TermId,
        theme_e: ThemeId,
    ) -> f64 {
        (**self).relatedness_ids(term_s, theme_s, term_e, theme_e)
    }
    fn explain(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> RelatednessDetail {
        (**self).explain(term_s, theme_s, term_e, theme_e)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn prepare_term(&self, term: &str, theme: &Theme) {
        (**self).prepare_term(term, theme)
    }
    fn release_term(&self, term: &str, theme: &Theme) {
        (**self).release_term(term, theme)
    }
    fn cache_stats(&self) -> CacheStats {
        (**self).cache_stats()
    }
    fn cache_miss_count(&self) -> u64 {
        (**self).cache_miss_count()
    }
    fn relatedness_warm(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> Option<f64> {
        (**self).relatedness_warm(term_s, theme_s, term_e, theme_e)
    }
}

/// The **non-thematic** ESA measure (paper's prior work \[16\], the §5.2.5
/// baseline): full-space distributional relatedness; themes are ignored.
#[derive(Debug, Clone)]
pub struct EsaMeasure {
    space: Arc<DistributionalSpace>,
}

impl EsaMeasure {
    /// Wraps a distributional space.
    pub fn new(space: Arc<DistributionalSpace>) -> EsaMeasure {
        EsaMeasure { space }
    }

    /// The wrapped space.
    pub fn space(&self) -> &DistributionalSpace {
        &self.space
    }
}

impl SemanticMeasure for EsaMeasure {
    fn relatedness(&self, term_s: &str, _ths: &Theme, term_e: &str, _the: &Theme) -> f64 {
        if term_s == term_e {
            return 1.0;
        }
        self.space.relatedness(term_s, term_e)
    }

    fn explain(&self, term_s: &str, _ths: &Theme, term_e: &str, _the: &Theme) -> RelatednessDetail {
        // Non-thematic: "projection" is the identity, so the projected
        // dimensionality equals the full-space one.
        let vs = self.space.term_vector_normalized(term_s);
        let ve = self.space.term_vector_normalized(term_e);
        let mut detail = RelatednessDetail {
            score: 0.0,
            distance: None,
            dims_full_s: vs.nnz(),
            dims_full_e: ve.nnz(),
            dims_projected_s: vs.nnz(),
            dims_projected_e: ve.nnz(),
        };
        // The same short-circuit order as `relatedness`, so the score is
        // bit-identical.
        if term_s == term_e {
            detail.score = 1.0;
        } else if !vs.is_zero() && !ve.is_zero() {
            let d = vs.euclidean_distance(&ve);
            detail.distance = Some(d);
            detail.score = crate::space::relatedness_from_distance(d);
        }
        detail
    }

    fn name(&self) -> &'static str {
        "esa"
    }

    fn prepare_term(&self, term: &str, _theme: &Theme) {
        self.space.pin_term(term);
    }

    fn release_term(&self, term: &str, _theme: &Theme) {
        self.space.unpin_term(term);
    }

    fn cache_stats(&self) -> CacheStats {
        self.space.cache_stats()
    }

    fn cache_miss_count(&self) -> u64 {
        thread_miss_count()
    }
}

/// The **thematic** measure: ESA over the [`ParametricVectorSpace`] —
/// vectors are projected by the respective themes before the distance is
/// taken (§4.2–4.3).
#[derive(Debug, Clone)]
pub struct ThematicEsaMeasure {
    pvsm: Arc<ParametricVectorSpace>,
}

impl ThematicEsaMeasure {
    /// Wraps a parametric vector space.
    pub fn new(pvsm: Arc<ParametricVectorSpace>) -> ThematicEsaMeasure {
        ThematicEsaMeasure { pvsm }
    }

    /// The wrapped parametric space.
    pub fn pvsm(&self) -> &ParametricVectorSpace {
        &self.pvsm
    }
}

impl SemanticMeasure for ThematicEsaMeasure {
    fn relatedness(&self, term_s: &str, theme_s: &Theme, term_e: &str, theme_e: &Theme) -> f64 {
        self.pvsm.relatedness(term_s, theme_s, term_e, theme_e)
    }

    fn relatedness_ids(
        &self,
        term_s: TermId,
        theme_s: ThemeId,
        term_e: TermId,
        theme_e: ThemeId,
    ) -> f64 {
        self.pvsm.relatedness_ids(term_s, theme_s, term_e, theme_e)
    }

    fn explain(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> RelatednessDetail {
        self.pvsm
            .explain_relatedness(term_s, theme_s, term_e, theme_e)
    }

    fn name(&self) -> &'static str {
        "thematic-esa"
    }

    fn prepare_term(&self, term: &str, theme: &Theme) {
        self.pvsm.pin_projection(term, theme);
    }

    fn release_term(&self, term: &str, theme: &Theme) {
        let (term_id, theme_id) = (intern_term(term), intern_theme(theme));
        self.pvsm.unpin_projection(term_id, theme_id);
    }

    fn cache_stats(&self) -> CacheStats {
        self.pvsm.cache_stats().total()
    }

    fn cache_miss_count(&self) -> u64 {
        thread_miss_count()
    }

    fn relatedness_warm(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> Option<f64> {
        self.pvsm.relatedness_warm(term_s, theme_s, term_e, theme_e)
    }
}

/// Fully canonicalized memo key: the two `(term, theme)` sides ordered by
/// interned symbol so both orientations of the symmetric measure — and, in
/// particular, **equal terms under different themes** — probe one entry.
type MeasureKey = (TermId, ThemeId, TermId, ThemeId);

fn canonical_key(ts: TermId, ths: ThemeId, te: TermId, the: ThemeId) -> MeasureKey {
    if (ts, ths) <= (te, the) {
        (ts, ths, te, the)
    } else {
        (te, the, ts, ths)
    }
}

/// Slots in each worker's L1 score cache (per thread, ~512 KiB). Sized so
/// a working vocabulary of a few thousand term-pair keys fits with a low
/// direct-mapped collision rate; the table is allocated lazily on first
/// use, so threads that never score pay nothing.
const L1_SLOTS: usize = 16384;

/// One direct-mapped L1 slot. `generation == 0` means empty; live slots
/// belong to whichever [`CachedMeasure`] generation last wrote them, so
/// distinct measure instances (and cleared caches) can never serve each
/// other's scores.
#[derive(Clone, Copy)]
struct L1Slot {
    generation: u32,
    key: MeasureKey,
    score: f64,
}

const EMPTY_L1_SLOT: L1Slot = L1Slot {
    generation: 0,
    key: (
        TermId::placeholder(),
        ThemeId::EMPTY,
        TermId::placeholder(),
        ThemeId::EMPTY,
    ),
    score: 0.0,
};

thread_local! {
    /// Per-worker L1 in front of the sharded memo: probed and filled with
    /// no locks, no shared-cache atomics, and (after the one-time table
    /// allocation) no heap traffic. Direct-mapped: a colliding key simply
    /// overwrites the slot, and the sharded L2 still backstops it.
    static MEASURE_L1: RefCell<Vec<L1Slot>> = const { RefCell::new(Vec::new()) };
}

/// Generation source for [`CachedMeasure`] instances. Starts at 1 so the
/// zeroed empty slot can never match a live measure.
static NEXT_GENERATION: AtomicU32 = AtomicU32::new(1);

#[inline]
fn l1_index(key: MeasureKey) -> usize {
    let k0 = ((key.0.as_u32() as u64) << 32) | key.1.as_u32() as u64;
    let k1 = ((key.2.as_u32() as u64) << 32) | key.3.as_u32() as u64;
    // Fibonacci-style mixer; the rotate keeps the two halves from
    // cancelling when the same term appears on both sides.
    let h = (k0 ^ k1.rotate_left(23)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - 14)) as usize // log2(L1_SLOTS) top bits
}

/// Memoizes another measure per `(term, theme, term, theme)` tuple.
///
/// Heterogeneous event workloads repeat the same attribute/value terms
/// across thousands of events, so the hit rate is high; this is the
/// "caching" optimization the paper lists under future throughput work
/// (§5.3.2). Keys are interned symbols (no allocation on a warm probe),
/// canonically ordered over *both* the term and the theme — the previous
/// key ordered by term only, so the symmetric pair `sm(t, A, t, B)` /
/// `sm(t, B, t, A)` occupied two entries — and the table is sharded and
/// bounded ([`ShardedCache`]) so long-running brokers don't grow it
/// without limit.
pub struct CachedMeasure<M> {
    inner: M,
    cache: ShardedCache<MeasureKey, f64>,
    /// Liveness tag for this instance's entries in the thread-local L1;
    /// re-drawn from [`NEXT_GENERATION`] on [`CachedMeasure::clear`] so
    /// stale L1 slots die without touching other threads.
    generation: AtomicU32,
    /// Probes answered by the thread-local L1 (they bypass the sharded
    /// cache's own hit counters). Striped per thread: a shared atomic
    /// here was written by every worker on every warm probe, and the
    /// cache-line traffic cost more than the probe itself.
    l1_hits: StripedCounter,
}

/// Bound on memoized score pairs.
const MEASURE_CAPACITY: usize = 1 << 18;

impl<M: SemanticMeasure> CachedMeasure<M> {
    /// Wraps `inner` with a bounded, sharded memo table.
    pub fn new(inner: M) -> CachedMeasure<M> {
        CachedMeasure {
            inner,
            cache: ShardedCache::new(16, MEASURE_CAPACITY),
            generation: AtomicU32::new(NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)),
            l1_hits: StripedCounter::default(),
        }
    }

    /// Number of memoized pairs.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the memo table is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Drops all memoized scores, including every thread's L1 entries
    /// (invalidated wholesale by retiring this instance's generation).
    pub fn clear(&self) {
        self.cache.clear();
        self.generation.store(
            NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// The wrapped measure.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Counters for the memo table alone (excluding the inner measure's
    /// caches; [`SemanticMeasure::cache_stats`] reports both merged).
    /// L1-answered probes count as hits.
    pub fn memo_stats(&self) -> CacheStats {
        let mut stats = self.cache.stats();
        stats.hits += self.l1_hits.get();
        stats
    }
}

impl<M: SemanticMeasure> fmt::Debug for CachedMeasure<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachedMeasure")
            .field("inner", &self.inner)
            .field("entries", &self.len())
            .finish()
    }
}

impl<M: SemanticMeasure> SemanticMeasure for CachedMeasure<M> {
    fn relatedness(&self, term_s: &str, theme_s: &Theme, term_e: &str, theme_e: &Theme) -> f64 {
        let key = canonical_key(
            intern_term(term_s),
            intern_theme(theme_s),
            intern_term(term_e),
            intern_theme(theme_e),
        );
        // The inner call keeps the caller's argument order: the measure is
        // symmetric by contract, and not reordering keeps the float path
        // bit-identical to the uncached measure.
        self.cache.get_or_insert_with(&key, || {
            self.inner.relatedness(term_s, theme_s, term_e, theme_e)
        })
    }

    fn relatedness_ids(
        &self,
        term_s: TermId,
        theme_s: ThemeId,
        term_e: TermId,
        theme_e: ThemeId,
    ) -> f64 {
        // The id-keyed fast path: an L1-warm probe is one direct-mapped
        // array compare on this thread — no locks, and its hit count
        // lands on this thread's counter stripe.
        // The canonical key orders by id, exactly as the string path does
        // after interning, so both paths share entries and stay
        // bit-identical; the L1 only ever holds scores the sharded cache
        // produced, so it cannot change a result either.
        let key = canonical_key(term_s, theme_s, term_e, theme_e);
        let generation = self.generation.load(Ordering::Relaxed);
        let index = l1_index(key);
        let l1_score = MEASURE_L1.with(|l1| {
            let l1 = l1.borrow();
            let slot = l1.get(index)?;
            (slot.generation == generation && slot.key == key).then_some(slot.score)
        });
        if let Some(score) = l1_score {
            self.l1_hits.incr();
            return score;
        }
        let score = self.cache.get_or_insert_with(&key, || {
            self.inner.relatedness_ids(term_s, theme_s, term_e, theme_e)
        });
        MEASURE_L1.with(|l1| {
            let mut l1 = l1.borrow_mut();
            if l1.is_empty() {
                l1.resize(L1_SLOTS, EMPTY_L1_SLOT);
            }
            l1[index] = L1Slot {
                generation,
                key,
                score,
            };
        });
        score
    }

    fn explain(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> RelatednessDetail {
        // Bypass the score memo: explanations need the geometry, which
        // the memo doesn't keep. The inner measure is deterministic, so
        // the score still matches what the memoized path returned.
        self.inner.explain(term_s, theme_s, term_e, theme_e)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare_term(&self, term: &str, theme: &Theme) {
        self.inner.prepare_term(term, theme);
    }

    fn release_term(&self, term: &str, theme: &Theme) {
        self.inner.release_term(term, theme);
    }

    fn cache_stats(&self) -> CacheStats {
        self.memo_stats().merge(self.inner.cache_stats())
    }

    fn cache_miss_count(&self) -> u64 {
        // The thread tally already covers the inner measure's caches.
        thread_miss_count()
    }

    fn relatedness_warm(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> Option<f64> {
        let key = canonical_key(
            intern_term(term_s),
            intern_theme(theme_s),
            intern_term(term_e),
            intern_theme(theme_e),
        );
        // Memoized score first (counter-free peek), then whatever warm
        // state the inner measure holds (e.g. pinned projections).
        self.cache.peek(&key).or_else(|| {
            self.inner
                .relatedness_warm(term_s, theme_s, term_e, theme_e)
        })
    }
}

/// A fully precomputed, theme-insensitive score table.
///
/// Models the paper's "approximate model based on precomputed esa scores"
/// configuration (§5.1), which reached ~91,000 events/sec: at matching
/// time a lookup replaces all vector arithmetic. Unknown pairs fall back
/// to `default_score`.
#[derive(Debug, Clone, Default)]
pub struct PrecomputedMeasure {
    /// Two-level map (`a → b → score`, stored in both directions) so the
    /// hot lookup path needs no key allocation.
    table: HashMap<String, HashMap<String, f64>>,
    default_score: f64,
}

impl PrecomputedMeasure {
    /// Creates an empty table with a fallback score for unknown pairs.
    pub fn new(default_score: f64) -> PrecomputedMeasure {
        PrecomputedMeasure {
            table: HashMap::new(),
            default_score,
        }
    }

    /// Inserts a score for an unordered term pair.
    pub fn insert(&mut self, a: &str, b: &str, score: f64) {
        let score = score.clamp(0.0, 1.0);
        self.table
            .entry(a.to_string())
            .or_default()
            .insert(b.to_string(), score);
        self.table
            .entry(b.to_string())
            .or_default()
            .insert(a.to_string(), score);
    }

    /// Precomputes scores for the cross product of `left × right` terms
    /// using `inner` with fixed themes.
    pub fn precompute<M: SemanticMeasure>(
        inner: &M,
        left: &[String],
        right: &[String],
        theme_s: &Theme,
        theme_e: &Theme,
        default_score: f64,
    ) -> PrecomputedMeasure {
        let mut out = PrecomputedMeasure::new(default_score);
        for a in left {
            for b in right {
                let score = inner.relatedness(a, theme_s, b, theme_e);
                out.insert(a, b, score);
            }
        }
        out
    }

    /// Number of stored unordered pairs.
    pub fn len(&self) -> usize {
        let directed: usize = self.table.values().map(HashMap::len).sum();
        // Each unordered pair is stored in both directions; self-pairs
        // (inserted as a==b) count once.
        let self_pairs = self
            .table
            .iter()
            .filter(|(a, inner)| inner.contains_key(*a))
            .count();
        (directed + self_pairs) / 2
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl SemanticMeasure for PrecomputedMeasure {
    fn relatedness(&self, term_s: &str, _ths: &Theme, term_e: &str, _the: &Theme) -> f64 {
        if term_s == term_e {
            return 1.0;
        }
        self.table
            .get(term_s)
            .and_then(|inner| inner.get(term_e))
            .copied()
            .unwrap_or(self.default_score)
    }

    fn name(&self) -> &'static str {
        "precomputed-esa"
    }

    fn relatedness_warm(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> Option<f64> {
        // The whole table is precomputed — every lookup is "warm".
        Some(self.relatedness(term_s, theme_s, term_e, theme_e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tep_corpus::{Corpus, CorpusConfig};
    use tep_index::InvertedIndex;

    fn space() -> Arc<DistributionalSpace> {
        let corpus = Corpus::generate(&CorpusConfig::small());
        Arc::new(DistributionalSpace::new(InvertedIndex::build(&corpus)))
    }

    #[test]
    fn esa_measure_ignores_themes() {
        let m = EsaMeasure::new(space());
        let a = Theme::new(["energy policy"]);
        let b = Theme::new(["land transport"]);
        let with = m.relatedness("parking", &a, "garage", &b);
        let without = m.relatedness("parking", &Theme::empty(), "garage", &Theme::empty());
        assert_eq!(with, without);
        assert_eq!(m.name(), "esa");
    }

    #[test]
    fn equal_terms_score_one() {
        let m = EsaMeasure::new(space());
        assert_eq!(
            m.relatedness("x y z", &Theme::empty(), "x y z", &Theme::empty()),
            1.0
        );
    }

    #[test]
    fn cached_measure_memoizes_symmetrically() {
        let m = CachedMeasure::new(EsaMeasure::new(space()));
        let e = Theme::empty();
        let ab = m.relatedness("parking", &e, "garage", &e);
        assert_eq!(m.len(), 1);
        let ba = m.relatedness("garage", &e, "parking", &e);
        assert_eq!(m.len(), 1, "symmetric pair must hit the same entry");
        assert_eq!(ab, ba);
        let stats = m.memo_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn cached_measure_canonicalizes_equal_terms_across_themes() {
        // Regression: the old key ordered by *term only*, so the symmetric
        // pair sm(t, A, t, B) / sm(t, B, t, A) occupied two entries.
        let m = CachedMeasure::new(EsaMeasure::new(space()));
        let a = Theme::new(["energy policy"]);
        let b = Theme::new(["land transport"]);
        let ab = m.relatedness("parking", &a, "parking", &b);
        assert_eq!(m.len(), 1);
        let ba = m.relatedness("parking", &b, "parking", &a);
        assert_eq!(m.len(), 1, "equal terms across themes must share one entry");
        assert_eq!(ab, ba);
        assert_eq!(m.memo_stats().hits, 1);
    }

    #[test]
    fn prepare_and_release_pin_through_the_stack() {
        let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
            InvertedIndex::build(&Corpus::generate(&CorpusConfig::small())),
        )));
        let m = CachedMeasure::new(ThematicEsaMeasure::new(Arc::clone(&pvsm)));
        let th = Theme::new(["energy policy"]);
        m.prepare_term("energy consumption", &th);
        assert_eq!(pvsm.cache_stats().normalized.pinned, 1);
        m.release_term("energy consumption", &th);
        assert_eq!(pvsm.cache_stats().normalized.pinned, 0);
        assert!(m.cache_stats().misses > 0, "pin warm-up registers traffic");
    }

    #[test]
    fn thematic_measure_uses_projection() {
        let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
            InvertedIndex::build(&Corpus::generate(&CorpusConfig::small())),
        )));
        let m = ThematicEsaMeasure::new(pvsm);
        let th = Theme::new(["energy policy", "energy metering"]);
        let syn = m.relatedness("energy consumption", &th, "electricity usage", &th);
        let far = m.relatedness("energy consumption", &th, "zebra crossing", &th);
        assert!(syn > far);
        assert_eq!(m.name(), "thematic-esa");
    }

    #[test]
    fn precomputed_lookup_and_fallback() {
        let mut m = PrecomputedMeasure::new(0.1);
        m.insert("laptop", "computer", 0.9);
        let e = Theme::empty();
        assert_eq!(m.relatedness("computer", &e, "laptop", &e), 0.9);
        assert_eq!(m.relatedness("laptop", &e, "laptop", &e), 1.0);
        assert_eq!(m.relatedness("laptop", &e, "banana", &e), 0.1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn precompute_from_inner_measure() {
        let inner = EsaMeasure::new(space());
        let left = vec!["parking".to_string()];
        let right = vec!["garage".to_string(), "ozone".to_string()];
        let e = Theme::empty();
        let pre = PrecomputedMeasure::precompute(&inner, &left, &right, &e, &e, 0.0);
        assert_eq!(pre.len(), 2);
        let from_table = pre.relatedness("parking", &e, "garage", &e);
        let direct = inner.relatedness("parking", &e, "garage", &e);
        assert!((from_table - direct).abs() < 1e-12);
    }

    #[test]
    fn explain_score_is_bit_identical_to_relatedness() {
        let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
            InvertedIndex::build(&Corpus::generate(&CorpusConfig::small())),
        )));
        let thematic = ThematicEsaMeasure::new(Arc::clone(&pvsm));
        let esa = EsaMeasure::new(Arc::new(DistributionalSpace::new(InvertedIndex::build(
            &Corpus::generate(&CorpusConfig::small()),
        ))));
        let th = Theme::new(["energy policy"]);
        let e = Theme::empty();
        let pairs = [
            ("energy consumption", "electricity usage"),
            ("parking", "garage"),
            ("energy consumption", "energy consumption"),
            ("no such term at all", "garage"),
        ];
        for (a, b) in pairs {
            for (ths, the) in [(&th, &th), (&e, &th), (&e, &e)] {
                let d = thematic.explain(a, ths, b, the);
                assert_eq!(
                    d.score.to_bits(),
                    thematic.relatedness(a, ths, b, the).to_bits(),
                    "thematic explain({a:?}, {b:?}) must reproduce the score"
                );
            }
            let d = esa.explain(a, &e, b, &e);
            assert_eq!(d.score.to_bits(), esa.relatedness(a, &e, b, &e).to_bits());
        }
    }

    #[test]
    fn explain_reports_distance_and_projection_dims() {
        let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
            InvertedIndex::build(&Corpus::generate(&CorpusConfig::small())),
        )));
        let m = ThematicEsaMeasure::new(pvsm);
        let th = Theme::new(["energy policy"]);
        let d = m.explain("energy consumption", &th, "electricity usage", &th);
        let dist = d.distance.expect("distinct known terms take a distance");
        assert!((d.score - 1.0 / (dist + 1.0)).abs() < 1e-12, "Eq. 6 holds");
        assert!(d.dims_full_s > 0 && d.dims_full_e > 0);
        assert!(
            d.dims_projected_s <= d.dims_full_s,
            "projection can only drop dimensions"
        );
        assert!(d.dims_projected_e <= d.dims_full_e);

        // Equal terms short-circuit: score 1.0, no distance taken.
        let eq = m.explain("energy consumption", &th, "energy consumption", &th);
        assert_eq!(eq.score, 1.0);
        assert_eq!(eq.distance, None);

        // Unknown terms project to zero: score 0.0, no distance taken.
        let unk = m.explain("zzz qqq xxx", &th, "electricity usage", &th);
        assert_eq!(unk.score, 0.0);
        assert_eq!(unk.distance, None);
        assert_eq!(unk.dims_projected_s, 0);
    }

    #[test]
    fn cached_and_precomputed_explain_fall_back_sensibly() {
        let cached = CachedMeasure::new(EsaMeasure::new(space()));
        let e = Theme::empty();
        // Warm the memo, then explain: scores agree through the cache.
        let hot = cached.relatedness("parking", &e, "garage", &e);
        let d = cached.explain("parking", &e, "garage", &e);
        assert_eq!(d.score.to_bits(), hot.to_bits());
        assert!(d.distance.is_some());

        // Precomputed has no geometry: default explain, score only.
        let mut pre = PrecomputedMeasure::new(0.1);
        pre.insert("laptop", "computer", 0.9);
        let d = pre.explain("laptop", &e, "computer", &e);
        assert_eq!(d.score, 0.9);
        assert_eq!(d.distance, None);
        assert_eq!((d.dims_full_s, d.dims_projected_s), (0, 0));
    }

    #[test]
    fn cached_measure_warm_path_uses_memo_then_inner() {
        let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
            InvertedIndex::build(&Corpus::generate(&CorpusConfig::small())),
        )));
        let m = CachedMeasure::new(ThematicEsaMeasure::new(Arc::clone(&pvsm)));
        let th = Theme::new(["energy policy"]);
        let (a, b) = ("energy consumption", "electricity usage");
        // Cold: neither the memo nor the projections know the pair.
        assert_eq!(m.relatedness_warm(a, &th, b, &th), None);
        // Full computation memoizes; the warm path then answers exactly.
        let full = m.relatedness(a, &th, b, &th);
        assert_eq!(m.relatedness_warm(a, &th, b, &th), Some(full));
        // Clearing the memo falls through to the inner measure's pinned /
        // resident projections, which the full call also warmed.
        m.clear();
        let via_inner = m
            .relatedness_warm(a, &th, b, &th)
            .expect("projections warm");
        assert_eq!(via_inner.to_bits(), full.to_bits());
    }

    #[test]
    fn relatedness_ids_is_bit_identical_and_shares_memo_entries() {
        let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
            InvertedIndex::build(&Corpus::generate(&CorpusConfig::small())),
        )));
        let m = CachedMeasure::new(ThematicEsaMeasure::new(pvsm));
        let th = Theme::new(["energy policy"]);
        let e = Theme::empty();
        let pairs = [
            ("energy consumption", "electricity usage"),
            ("parking", "garage"),
            ("parking", "parking"),
            ("no such term at all", "garage"),
        ];
        for (a, b) in pairs {
            for (ths, the) in [(&th, &th), (&e, &th), (&th, &e)] {
                let (ta, tb) = (intern_term(a), intern_term(b));
                let (ia, ib) = (intern_theme(ths), intern_theme(the));
                // Cold id path, then the string path must *hit* the same
                // memo entry and agree bitwise.
                let before = m.memo_stats().misses;
                let via_ids = m.relatedness_ids(ta, ia, tb, ib);
                let via_strings = m.relatedness(a, ths, b, the);
                assert_eq!(via_ids.to_bits(), via_strings.to_bits(), "{a:?} ~ {b:?}");
                let after = m.memo_stats();
                assert!(
                    after.misses <= before + 1,
                    "string path must share the id path's entry: {after:?}"
                );
            }
        }
    }

    #[test]
    fn concurrent_warm_probes_count_every_hit_exactly() {
        // N threads × K warm probes must raise the hit total by exactly
        // N·K, however the probes spread over the counter's stripes, and
        // take no miss.
        const THREADS: u64 = 4;
        const PROBES: u64 = 10_000;
        let mut table = PrecomputedMeasure::new(0.0);
        table.insert("laptop", "computer", 0.9);
        table.insert("parking", "garage", 0.7);
        let m = Arc::new(CachedMeasure::new(table));
        let e = intern_theme(&Theme::empty());
        let keys = [
            (intern_term("laptop"), intern_term("computer")),
            (intern_term("parking"), intern_term("garage")),
            (intern_term("garage"), intern_term("laptop")),
        ];
        for &(a, b) in &keys {
            m.relatedness_ids(a, e, b, e); // the only misses
        }
        let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize + 1));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (m, barrier) = (Arc::clone(&m), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    // Fill this thread's L1 from the shared memo.
                    for &(a, b) in &keys {
                        m.relatedness_ids(a, e, b, e);
                    }
                    barrier.wait();
                    barrier.wait(); // the main thread snapshots here
                    for i in 0..PROBES {
                        let (a, b) = keys[i as usize % keys.len()];
                        std::hint::black_box(m.relatedness_ids(a, e, b, e));
                    }
                })
            })
            .collect();
        barrier.wait();
        let before = m.memo_stats();
        barrier.wait();
        for h in handles {
            h.join().unwrap();
        }
        let after = m.memo_stats();
        assert_eq!(after.hits - before.hits, THREADS * PROBES);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.misses, keys.len() as u64);
    }

    #[test]
    fn default_relatedness_ids_resolves_and_delegates() {
        let m = EsaMeasure::new(space());
        let e = Theme::empty();
        let (a, b) = ("parking", "garage");
        let via_strings = m.relatedness(a, &e, b, &e);
        let via_ids = m.relatedness_ids(
            intern_term(a),
            intern_theme(&e),
            intern_term(b),
            intern_theme(&e),
        );
        assert_eq!(via_ids.to_bits(), via_strings.to_bits());
    }

    #[test]
    fn precomputed_measure_is_always_warm() {
        let mut m = PrecomputedMeasure::new(0.1);
        m.insert("laptop", "computer", 0.9);
        let e = Theme::empty();
        assert_eq!(m.relatedness_warm("laptop", &e, "computer", &e), Some(0.9));
        assert_eq!(m.relatedness_warm("laptop", &e, "banana", &e), Some(0.1));
    }

    #[test]
    fn warm_default_is_none() {
        let m = EsaMeasure::new(space());
        let e = Theme::empty();
        let _ = m.relatedness("parking", &e, "garage", &e);
        assert_eq!(m.relatedness_warm("parking", &e, "garage", &e), None);
    }

    #[test]
    fn scores_clamped_to_unit_interval() {
        let mut m = PrecomputedMeasure::new(0.0);
        m.insert("a", "b", 1.5);
        let e = Theme::empty();
        assert_eq!(m.relatedness("a", &e, "b", &e), 1.0);
    }
}

//! The Parametric Vector Space Model (paper §4) with memoization.

use crate::intern::{intern_term, intern_theme, resolve_term, resolve_theme, TermId, ThemeId};
use crate::measure::RelatednessDetail;
use crate::projection::ThemeBasis;
use crate::shard::{CacheStats, ShardedCache};
use crate::space::{relatedness_from_distance, DistributionalSpace};
use crate::sparse::SparseVector;
use crate::theme::Theme;
use std::sync::Arc;

/// Shard count for the PVSM caches; high enough that 2–8 broker workers
/// rarely collide on a shard lock.
const SHARDS: usize = 16;
/// Bound on cached theme bases (themes are workload vocabulary, not data).
const BASIS_CAPACITY: usize = 4_096;
/// Bound on cached projections per table (raw and normalized).
const PROJECTION_CAPACITY: usize = 1 << 17;

/// Per-cache counter snapshot for the PVSM; see
/// [`ParametricVectorSpace::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PvsmCacheStats {
    /// Theme-basis cache counters.
    pub basis: CacheStats,
    /// Raw-projection cache counters.
    pub projection: CacheStats,
    /// Normalized-projection cache counters.
    pub normalized: CacheStats,
}

impl PvsmCacheStats {
    /// Sum of the three caches, for flat reporting.
    pub fn total(&self) -> CacheStats {
        self.basis.merge(self.projection).merge(self.normalized)
    }
}

/// The paper's Parametric Vector Space Model: a distributional space whose
/// vectors are *projected into thematic dimensions passed as parameters
/// before being used* (§4).
///
/// Building the PVSM is identical to building the non-thematic space; the
/// parametrization happens at use time. Because the same themes and terms
/// recur across events, the PVSM memoizes:
///
/// * the **theme basis** per [`Theme`] (Fig. 5 step 3);
/// * the **projected vector** per `(term, theme)` pair (step 4 input),
///   both raw and unit-normalized.
///
/// All cache keys are interned `(ThemeId, TermId)` symbols (see
/// [`crate::intern`]), so a warm lookup allocates nothing, and all caches
/// are sharded and bounded ([`ShardedCache`]); a PVSM can be shared across
/// broker worker threads.
#[derive(Debug)]
pub struct ParametricVectorSpace {
    space: DistributionalSpace,
    basis_cache: ShardedCache<ThemeId, Arc<ThemeBasis>>,
    projection_cache: ShardedCache<(ThemeId, TermId), Arc<SparseVector>>,
    /// Unit-norm copies of the projections, used by the relatedness path.
    normalized_cache: ShardedCache<(ThemeId, TermId), Arc<SparseVector>>,
}

impl ParametricVectorSpace {
    /// Wraps a distributional space.
    pub fn new(space: DistributionalSpace) -> ParametricVectorSpace {
        ParametricVectorSpace {
            space,
            basis_cache: ShardedCache::new(SHARDS, BASIS_CAPACITY),
            projection_cache: ShardedCache::new(SHARDS, PROJECTION_CAPACITY),
            normalized_cache: ShardedCache::new(SHARDS, PROJECTION_CAPACITY),
        }
    }

    /// The underlying (non-thematic) space.
    pub fn space(&self) -> &DistributionalSpace {
        &self.space
    }

    /// The (memoized) basis of `theme`.
    pub fn basis(&self, theme: &Theme) -> Arc<ThemeBasis> {
        let id = intern_theme(theme);
        self.basis_cache
            .get_or_insert_with(&id, || Arc::new(ThemeBasis::compute(&self.space, theme)))
    }

    /// The (memoized) basis of an interned theme.
    pub fn basis_by_id(&self, theme: ThemeId) -> Arc<ThemeBasis> {
        self.basis_cache.get_or_insert_with(&theme, || {
            Arc::new(ThemeBasis::compute(&self.space, &resolve_theme(theme)))
        })
    }

    /// The (memoized) thematic projection of `term` given `theme`
    /// (Algorithm 1). The empty theme yields the full-space vector.
    pub fn project(&self, term: &str, theme: &Theme) -> Arc<SparseVector> {
        let key = (intern_theme(theme), intern_term(term));
        self.projection_cache
            .get_or_insert_with(&key, || self.compute_projection(term, theme))
    }

    /// Interned-key variant of [`Self::project`]; the hot path once both
    /// symbols are known — probing allocates nothing.
    pub fn project_ids(&self, term: TermId, theme: ThemeId) -> Arc<SparseVector> {
        self.projection_cache
            .get_or_insert_with(&(theme, term), || {
                self.compute_projection(&resolve_term(term), &resolve_theme(theme))
            })
    }

    fn compute_projection(&self, term: &str, theme: &Theme) -> Arc<SparseVector> {
        if theme.is_empty() {
            Arc::new(self.space.term_vector(term))
        } else {
            Arc::new(self.basis(theme).project_term(&self.space, term))
        }
    }

    /// The (memoized) unit-norm thematic projection of `term` given
    /// `theme`. The zero vector stays zero.
    pub fn project_normalized(&self, term: &str, theme: &Theme) -> Arc<SparseVector> {
        let key = (intern_theme(theme), intern_term(term));
        self.normalized_cache
            .get_or_insert_with(&key, || Arc::new(self.project(term, theme).normalized()))
    }

    /// Interned-key variant of [`Self::project_normalized`].
    pub fn project_normalized_ids(&self, term: TermId, theme: ThemeId) -> Arc<SparseVector> {
        self.normalized_cache
            .get_or_insert_with(&(theme, term), || {
                Arc::new(self.project_ids(term, theme).normalized())
            })
    }

    /// Precomputes and **pins** the normalized projection of
    /// `(term, theme)` (and the theme's basis) so cache rotation cannot
    /// evict it; used by the broker to keep live subscriptions' projections
    /// resident for their whole lifetime. Pins are refcounted; release with
    /// [`Self::unpin_projection`].
    pub fn pin_projection(&self, term: &str, theme: &Theme) -> (TermId, ThemeId) {
        let (term_id, theme_id) = (intern_term(term), intern_theme(theme));
        self.basis_cache.pin_with(&theme_id, || {
            Arc::new(ThemeBasis::compute(&self.space, theme))
        });
        self.normalized_cache.pin_with(&(theme_id, term_id), || {
            Arc::new(self.project_ids(term_id, theme_id).normalized())
        });
        (term_id, theme_id)
    }

    /// Releases one pin taken by [`Self::pin_projection`].
    pub fn unpin_projection(&self, term: TermId, theme: ThemeId) {
        self.normalized_cache.unpin(&(theme, term));
        self.basis_cache.unpin(&theme);
    }

    /// Euclidean distance between the raw thematic projections of two
    /// terms (Fig. 5 step 4; Eq. 5, verbatim).
    pub fn distance(&self, term_s: &str, theme_s: &Theme, term_e: &str, theme_e: &Theme) -> f64 {
        let vs = self.project(term_s, theme_s);
        let ve = self.project(term_e, theme_e);
        vs.euclidean_distance(&ve)
    }

    /// The thematic semantic measure
    /// `sm : T × 2^TH × T × 2^TH → [0, 1]`: Eq. 6 over **unit-normalized**
    /// projected vectors.
    ///
    /// Normalization makes the measure rank by vector *overlap* rather
    /// than by vector magnitude — standard practice for ESA spaces (the
    /// paper's §3.1 notes relatedness is "measured using cosine or
    /// Euclidean distance"; on unit vectors the two orderings coincide).
    ///
    /// Two special cases sit above the geometry:
    ///
    /// * **equal terms always score 1.0**, whatever the themes — string
    ///   identity is stronger evidence than any distributional estimate,
    ///   and without this rule two disjoint themes would push the *same
    ///   word* to the relatedness floor;
    /// * a term whose projection is **zero** (unknown to the corpus, or
    ///   filtered out entirely by its theme) carries no evidence and
    ///   scores `0.0` against any distinct term.
    pub fn relatedness(&self, term_s: &str, theme_s: &Theme, term_e: &str, theme_e: &Theme) -> f64 {
        if term_s == term_e {
            return 1.0;
        }
        let vs = self.project_normalized(term_s, theme_s);
        let ve = self.project_normalized(term_e, theme_e);
        if vs.is_zero() || ve.is_zero() {
            return 0.0;
        }
        relatedness_from_distance(vs.euclidean_distance(&ve))
    }

    /// Interned-symbol variant of [`Self::relatedness`]. Term interning is
    /// exact (no normalization), so `term_s == term_e` iff the ids are
    /// equal — the float path is identical to the string variant.
    pub fn relatedness_ids(
        &self,
        term_s: TermId,
        theme_s: ThemeId,
        term_e: TermId,
        theme_e: ThemeId,
    ) -> f64 {
        if term_s == term_e {
            return 1.0;
        }
        let vs = self.project_normalized_ids(term_s, theme_s);
        let ve = self.project_normalized_ids(term_e, theme_e);
        if vs.is_zero() || ve.is_zero() {
            return 0.0;
        }
        relatedness_from_distance(vs.euclidean_distance(&ve))
    }

    /// Cache-warm-only variant of [`Self::relatedness`]: answers **only**
    /// from already-resident normalized projections and never computes a
    /// basis or projection. Returns `None` when either side's projection is
    /// not resident; returns the exact same score as [`Self::relatedness`]
    /// when both are. Counter-free and promotion-free (see
    /// [`ShardedCache::peek`]), so a degraded broker probing warm state
    /// does not perturb cache statistics or LRU ordering.
    ///
    /// Subscription-side projections are pinned for the subscription's
    /// lifetime ([`Self::pin_projection`]), so under a warm workload this
    /// degrades only the cold event-term tail, not the whole measure.
    pub fn relatedness_warm(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> Option<f64> {
        if term_s == term_e {
            return Some(1.0);
        }
        let ks = (intern_theme(theme_s), intern_term(term_s));
        let ke = (intern_theme(theme_e), intern_term(term_e));
        let vs = self.normalized_cache.peek(&ks)?;
        let ve = self.normalized_cache.peek(&ke)?;
        if vs.is_zero() || ve.is_zero() {
            return Some(0.0);
        }
        Some(relatedness_from_distance(vs.euclidean_distance(&ve)))
    }

    /// [`Self::relatedness`] plus the evidence behind the score: the raw
    /// distance (when the geometric path was taken) and each side's
    /// dimensionality before and after theme projection.
    ///
    /// Off the hot path: the full-space vectors are recomputed rather
    /// than cached (only projections are memoized), but the score comes
    /// from the same normalized projections the hot path uses, so it is
    /// bit-identical to [`Self::relatedness`].
    pub fn explain_relatedness(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> RelatednessDetail {
        let vs = self.project_normalized(term_s, theme_s);
        let ve = self.project_normalized(term_e, theme_e);
        let mut detail = RelatednessDetail {
            score: 0.0,
            distance: None,
            dims_full_s: self.space.term_vector(term_s).nnz(),
            dims_full_e: self.space.term_vector(term_e).nnz(),
            dims_projected_s: vs.nnz(),
            dims_projected_e: ve.nnz(),
        };
        // Same short-circuit order as `relatedness`.
        if term_s == term_e {
            detail.score = 1.0;
        } else if !vs.is_zero() && !ve.is_zero() {
            let d = vs.euclidean_distance(&ve);
            detail.distance = Some(d);
            detail.score = relatedness_from_distance(d);
        }
        detail
    }

    /// Number of cached theme bases, raw projections, and normalized
    /// projections.
    pub fn cache_sizes(&self) -> (usize, usize, usize) {
        (
            self.basis_cache.len(),
            self.projection_cache.len(),
            self.normalized_cache.len(),
        )
    }

    /// Hit / miss / eviction counters for each PVSM cache.
    pub fn cache_stats(&self) -> PvsmCacheStats {
        PvsmCacheStats {
            basis: self.basis_cache.stats(),
            projection: self.projection_cache.stats(),
            normalized: self.normalized_cache.stats(),
        }
    }

    /// Drops all memoized bases and projections — including pinned entries
    /// (outstanding pins degrade to no-ops). Used by the timing harness to
    /// measure cold-start behaviour.
    pub fn clear_caches(&self) {
        self.basis_cache.clear();
        self.projection_cache.clear();
        self.normalized_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tep_corpus::{Corpus, CorpusConfig};
    use tep_index::InvertedIndex;

    fn pvsm() -> ParametricVectorSpace {
        let corpus = Corpus::generate(&CorpusConfig::small());
        ParametricVectorSpace::new(DistributionalSpace::new(InvertedIndex::build(&corpus)))
    }

    #[test]
    fn caches_fill_and_clear() {
        let p = pvsm();
        let th = Theme::new(["energy policy"]);
        let _ = p.relatedness("energy consumption", &th, "electricity usage", &th);
        let (bases, projections, normalized) = p.cache_sizes();
        assert_eq!(bases, 1);
        assert_eq!(projections, 2);
        assert_eq!(normalized, 2);
        p.clear_caches();
        assert_eq!(p.cache_sizes(), (0, 0, 0));
    }

    #[test]
    fn cache_stats_track_hits_and_misses() {
        let p = pvsm();
        let th = Theme::new(["energy policy"]);
        let a = p.project("energy consumption", &th);
        let b = p.project("energy consumption", &th);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = p.cache_stats();
        assert_eq!(stats.projection.hits, 1);
        assert_eq!(stats.projection.misses, 1);
        assert_eq!(stats.projection.entries, 1);
        assert_eq!(stats.total().entries, 2, "basis + projection resident");
    }

    #[test]
    fn cached_projection_is_stable() {
        let p = pvsm();
        let th = Theme::new(["energy policy"]);
        let a = p.project("energy consumption", &th);
        let b = p.project("energy consumption", &th);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *b);
    }

    #[test]
    fn id_and_string_paths_agree_exactly() {
        let p = pvsm();
        let ths = Theme::new(["energy policy"]);
        let the = Theme::new(["energy metering"]);
        let (ts, te) = (
            intern_term("energy consumption"),
            intern_term("electricity usage"),
        );
        let (ids, ide) = (intern_theme(&ths), intern_theme(&the));
        let via_strings = p.relatedness("energy consumption", &ths, "electricity usage", &the);
        let via_ids = p.relatedness_ids(ts, ids, te, ide);
        assert_eq!(
            via_strings.to_bits(),
            via_ids.to_bits(),
            "id path must be bit-identical"
        );
        assert_eq!(p.relatedness_ids(ts, ids, ts, ide), 1.0);
    }

    #[test]
    fn pinned_projection_survives_clear_of_unpinned_neighbours() {
        let p = pvsm();
        let th = Theme::new(["energy policy"]);
        let (tid, thid) = p.pin_projection("energy consumption", &th);
        let stats = p.cache_stats();
        assert_eq!(stats.normalized.pinned, 1);
        assert_eq!(stats.basis.pinned, 1);
        let pinned = p.project_normalized_ids(tid, thid);
        assert!((pinned.norm() - 1.0).abs() < 1e-4);
        p.unpin_projection(tid, thid);
        let stats = p.cache_stats();
        assert_eq!(stats.normalized.pinned, 0);
        // Still cached after unpin (demoted to the hot generation).
        let again = p.project_normalized_ids(tid, thid);
        assert!(Arc::ptr_eq(&pinned, &again));
    }

    #[test]
    fn empty_theme_equals_full_space_relatedness() {
        let p = pvsm();
        let e = Theme::empty();
        let thematic = p.relatedness("parking", &e, "garage", &e);
        let plain = p.space().relatedness("parking", "garage");
        assert!((thematic - plain).abs() < 1e-9);
    }

    #[test]
    fn thematic_projection_improves_synonym_contrast() {
        let p = pvsm();
        let ths = Theme::new(["energy policy", "energy metering"]);
        let the = Theme::new(["energy policy", "energy metering", "building energy"]);
        let syn = p.relatedness("energy consumption", &ths, "electricity usage", &the);
        let far = p.relatedness("energy consumption", &ths, "zebra crossing", &the);
        assert!(syn > far, "synonyms {syn} should beat cross-domain {far}");
    }

    #[test]
    fn identical_term_and_theme_is_perfectly_related() {
        let p = pvsm();
        let th = Theme::new(["energy policy"]);
        assert!((p.relatedness("energy meter", &th, "energy meter", &th) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_cache_is_coherent_after_clear() {
        let p = pvsm();
        let th = Theme::new(["energy policy"]);
        let before = p.relatedness("energy consumption", &th, "electricity usage", &th);
        p.clear_caches();
        let after = p.relatedness("energy consumption", &th, "electricity usage", &th);
        assert_eq!(before, after, "clearing caches must not change values");
        let v = p.project_normalized("energy consumption", &th);
        assert!((v.norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn equal_terms_score_one_under_any_theme_pair() {
        let p = pvsm();
        let a = Theme::new(["energy policy"]);
        let b = Theme::new(["land transport"]);
        assert_eq!(p.relatedness("device", &a, "device", &b), 1.0);
        assert_eq!(p.relatedness("zzz unknown", &a, "zzz unknown", &b), 1.0);
    }

    #[test]
    fn relatedness_warm_mirrors_full_path_only_when_resident() {
        let p = pvsm();
        let th = Theme::new(["energy policy"]);
        let (a, b) = ("energy consumption", "electricity usage");
        // Cold cache: no projections resident, no warm answer — but equal
        // terms short-circuit without any geometry.
        assert_eq!(p.relatedness_warm(a, &th, b, &th), None);
        assert_eq!(p.relatedness_warm(a, &th, a, &th), Some(1.0));
        // One side resident is not enough.
        p.project_normalized(a, &th);
        assert_eq!(p.relatedness_warm(a, &th, b, &th), None);
        // Both resident: bit-identical to the full path, and the probe
        // itself must not move the cache counters.
        let full = p.relatedness(a, &th, b, &th);
        let counters = p.cache_stats().total();
        let warm = p.relatedness_warm(a, &th, b, &th).expect("both warm");
        assert_eq!(warm.to_bits(), full.to_bits());
        assert_eq!(p.cache_stats().total(), counters, "peek is counter-free");
        // Eviction (clear) takes the warm answer away again.
        p.clear_caches();
        assert_eq!(p.relatedness_warm(a, &th, b, &th), None);
    }

    #[test]
    fn pinned_projections_stay_warm() {
        let p = pvsm();
        let th = Theme::new(["energy policy"]);
        let (a, b) = ("energy consumption", "electricity usage");
        p.pin_projection(a, &th);
        p.pin_projection(b, &th);
        let warm = p.relatedness_warm(a, &th, b, &th).expect("pinned is warm");
        assert_eq!(warm.to_bits(), p.relatedness(a, &th, b, &th).to_bits());
    }

    #[test]
    fn measure_is_within_unit_interval() {
        let p = pvsm();
        let a = Theme::new(["land transport"]);
        let b = Theme::new(["air quality"]);
        for (x, y) in [
            ("parking", "ozone"),
            ("bus", "rainfall"),
            ("noise", "noise"),
        ] {
            let r = p.relatedness(x, &a, y, &b);
            assert!((0.0..=1.0).contains(&r), "relatedness {r} out of range");
        }
    }
}

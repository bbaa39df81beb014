//! The matcher trait and the approximate probabilistic matcher.

use crate::assignment::{self, CostMatrix};
use crate::config::{MatchMode, MatcherConfig};
use crate::explain::{MatchDetail, PredicateExplanation};
use crate::mapping::{Correspondence, Mapping, MatchResult};
use crate::similarity::SimilarityMatrix;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use tep_events::{ComparisonOp, Event, Subscription};
use tep_semantics::{resolve_theme, theme_for_tags, CacheStats, SemanticMeasure, Theme};

thread_local! {
    /// Per-worker similarity/cost matrix scratch, recycled across match
    /// tests: together with the solver's own scratch this makes a
    /// rejected match test allocation-free in steady state.
    static MATRIX_SCRATCH: RefCell<(SimilarityMatrix, CostMatrix)> =
        const { RefCell::new((SimilarityMatrix::empty(), CostMatrix::empty())) };
}

/// How much semantic fidelity a matcher should spend on one match test —
/// the degradation ladder an overloaded broker descends (S-ToPSS frames
/// semantic matching as exactly this layered exact → synonym → semantic
/// stack; here the rungs are priced by what they compute).
///
/// The ordering is by fidelity: `Full > CacheOnly > ExactOnly`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DegradedMatching {
    /// Full semantic matching: compute whatever the measure needs.
    #[default]
    Full,
    /// Cache-warm-only semantics: consult memoized scores and resident
    /// (pinned) projections via [`SemanticMeasure::relatedness_warm`], but
    /// never compute a cold projection or basis. Term pairs that are not
    /// warm score `0.0`.
    CacheOnly,
    /// Exact term identity only: equal terms score `1.0`, everything else
    /// `0.0` — no semantic work at all.
    ExactOnly,
}

impl DegradedMatching {
    /// Stable lowercase label for metrics and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradedMatching::Full => "full",
            DegradedMatching::CacheOnly => "cache_only",
            DegradedMatching::ExactOnly => "exact_only",
        }
    }
}

/// A single-event matcher `M` deciding the semantic relevance between a
/// subscription and an event (paper §3.5).
pub trait Matcher: Send + Sync {
    /// Matches one event against one subscription.
    fn match_event(&self, subscription: &Subscription, event: &Event) -> MatchResult;

    /// Matches under a fidelity budget. Matchers that can cheapen their
    /// work under load (semantic matchers) honour `mode`; everything else
    /// falls back to [`Self::match_event`] — exact matchers are already at
    /// the bottom of the ladder. `Full` must behave exactly like
    /// [`Self::match_event`].
    fn match_event_degraded(
        &self,
        subscription: &Subscription,
        event: &Event,
        mode: DegradedMatching,
    ) -> MatchResult {
        let _ = mode;
        self.match_event(subscription, event)
    }

    /// Announces that the calling thread is about to run a sweep of match
    /// tests for **one** event — the broker calls this once per dequeued
    /// event, before the first candidate subscription is tested. Matchers
    /// that keep per-event scratch (interned event-side symbols) use the
    /// signal to reuse it across the whole sweep; the default is a no-op.
    /// Correctness never depends on the call: the scratch is bound to
    /// this event's [`Event::identity`], so tests of other events made
    /// while the scope is open set up afresh, and callers that skip the
    /// call simply pay the per-test setup cost again.
    fn begin_event(&self, _event: &Event) {}

    /// A short name for reports ("thematic", "non-thematic", "exact", …).
    fn name(&self) -> &'static str {
        "matcher"
    }

    /// Explains a result previously produced by
    /// [`Self::match_event`] for the same pair: per-predicate pairings,
    /// similarities, and (for semantic matchers) the distances and
    /// projection dimensionalities behind them. **Off the hot path** —
    /// called only when explanations are requested; the match itself is
    /// never re-run. Default: pairings from the result, no geometry.
    fn explain_match(
        &self,
        subscription: &Subscription,
        event: &Event,
        result: &MatchResult,
    ) -> MatchDetail {
        MatchDetail::from_result(self.name(), subscription, event, result)
    }

    /// Called when `subscription` registers with a broker: lets the
    /// matcher precompute and **pin** per-subscription state — the
    /// normalized thematic projections of every approximate predicate
    /// term — so they stay resident for the subscription's lifetime.
    /// Default: no-op.
    fn prepare_subscription(&self, _subscription: &Subscription) {}

    /// Releases the state pinned by [`Self::prepare_subscription`].
    /// Default: no-op.
    fn release_subscription(&self, _subscription: &Subscription) {}

    /// Aggregated semantic-cache counters behind this matcher (zeros when
    /// it keeps no caches).
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Semantic-cache misses taken **on the calling thread**, monotone
    /// (see [`SemanticMeasure::cache_miss_count`]). The broker samples it
    /// around an individual match test to attribute the latency to the
    /// cache-warm or cache-cold histogram; other workers' misses never
    /// move it ([`Self::cache_stats`] counts resident entries under shard
    /// locks and is too heavy for that). Matchers without caches return
    /// 0.
    fn cache_miss_count(&self) -> u64 {
        0
    }

    /// Whether this matcher's verdicts are safe to prune by predicate-set
    /// covering (Shi et al.; S-ToPSS layering). A matcher may return
    /// `true` only if it is **purely conjunctive and theme-independent**:
    /// every predicate must independently require support in the event,
    /// so that for predicate sets `B ⊆ A` a miss on `B` implies a miss on
    /// `A`, and two subscriptions with equal predicate multisets always
    /// produce equal results. Approximate/semantic matchers score whole
    /// mappings and must keep the default `false` — covering-pruning
    /// their sweeps would change delivered sets.
    fn covering_safe(&self) -> bool {
        false
    }
}

impl<T: Matcher + ?Sized> Matcher for std::sync::Arc<T> {
    fn match_event(&self, subscription: &Subscription, event: &Event) -> MatchResult {
        (**self).match_event(subscription, event)
    }
    fn match_event_degraded(
        &self,
        subscription: &Subscription,
        event: &Event,
        mode: DegradedMatching,
    ) -> MatchResult {
        (**self).match_event_degraded(subscription, event, mode)
    }
    fn begin_event(&self, event: &Event) {
        (**self).begin_event(event)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn explain_match(
        &self,
        subscription: &Subscription,
        event: &Event,
        result: &MatchResult,
    ) -> MatchDetail {
        (**self).explain_match(subscription, event, result)
    }
    fn prepare_subscription(&self, subscription: &Subscription) {
        (**self).prepare_subscription(subscription)
    }
    fn release_subscription(&self, subscription: &Subscription) {
        (**self).release_subscription(subscription)
    }
    fn cache_stats(&self) -> CacheStats {
        (**self).cache_stats()
    }
    fn cache_miss_count(&self) -> u64 {
        (**self).cache_miss_count()
    }
    fn covering_safe(&self) -> bool {
        (**self).covering_safe()
    }
}

/// The paper's approximate probabilistic semantic matcher.
///
/// Pipeline (Fig. 4): build the combined attributes–values
/// [`SimilarityMatrix`] under the configured [`SemanticMeasure`], then
/// find the top-1 (Hungarian) or top-k (Murty) maximum-product mappings of
/// predicates to tuples, exposing both probability spaces (`Pσ` per
/// correspondence, `P` over mappings).
///
/// * with a [`tep_semantics::ThematicEsaMeasure`] this is the **thematic
///   matcher** of the paper;
/// * with a [`tep_semantics::EsaMeasure`] it is the **non-thematic
///   approximate** baseline \[16\];
/// * with a [`tep_semantics::PrecomputedMeasure`] it is the §5.1
///   precomputed-scores configuration.
pub struct ProbabilisticMatcher<M> {
    measure: M,
    config: MatcherConfig,
    display_name: &'static str,
}

impl<M: SemanticMeasure> ProbabilisticMatcher<M> {
    /// Creates a matcher over `measure`.
    pub fn new(measure: M, config: MatcherConfig) -> ProbabilisticMatcher<M> {
        ProbabilisticMatcher {
            display_name: measure_display_name(measure.name()),
            measure,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MatcherConfig {
        &self.config
    }

    /// The underlying measure.
    pub fn measure(&self) -> &M {
        &self.measure
    }

    /// Builds the similarity matrix for a pair (exposed for diagnostics
    /// and the benchmark harness).
    pub fn similarity_matrix(
        &self,
        subscription: &Subscription,
        event: &Event,
    ) -> SimilarityMatrix {
        SimilarityMatrix::build(subscription, event, &self.measure, self.config.combiner)
    }

    /// The full matching pipeline (Fig. 4) under an arbitrary measure —
    /// the one implementation behind both [`Matcher::match_event`] (the
    /// configured measure) and [`Matcher::match_event_degraded`] (the same
    /// measure behind a fidelity-limiting adapter).
    fn match_with_measure<S: SemanticMeasure + ?Sized>(
        &self,
        subscription: &Subscription,
        event: &Event,
        measure: &S,
    ) -> MatchResult {
        let n = subscription.predicates().len();
        let m = event.tuples().len();
        if n == 0 || n > m {
            // A valid mapping needs one distinct tuple per predicate.
            return MatchResult::no_match();
        }
        MATRIX_SCRATCH.with(|scratch| {
            let (matrix, cost) = &mut *scratch.borrow_mut();
            // Row-wise construction bails out on the first predicate with
            // no feasible tuple — the common case on heterogeneous
            // workloads.
            if !matrix.rebuild_pruned(
                subscription,
                event,
                measure,
                self.config.combiner,
                self.config.score_floor,
            ) {
                return MatchResult::no_match();
            }

            // Cost = -ln(similarity); cells under the floor become
            // forbidden edges so a zero-similarity correspondence can
            // never appear in a reported mapping.
            cost.refill(n, m, 0.0);
            for i in 0..n {
                for j in 0..m {
                    let s = matrix.get(i, j);
                    if s < self.config.score_floor {
                        cost.forbid(i, j);
                    } else {
                        cost.set(i, j, -s.ln());
                    }
                }
            }

            let solutions = match self.config.mode {
                MatchMode::Top1 => assignment::solve(cost).into_iter().collect::<Vec<_>>(),
                MatchMode::TopK(k) => assignment::solve_top_k(cost, k),
            };
            if solutions.is_empty() {
                return MatchResult::no_match();
            }

            let mappings: Vec<Mapping> = solutions
                .into_iter()
                .map(|sol| {
                    let correspondences = sol
                        .assignment
                        .iter()
                        .enumerate()
                        .map(|(i, &j)| Correspondence {
                            predicate: i,
                            tuple: j,
                            similarity: matrix.get(i, j),
                            probability: matrix.correspondence_probability(i, j),
                        })
                        .collect();
                    Mapping::new(correspondences)
                })
                .collect();
            MatchResult::from_mappings(mappings)
        })
    }
}

/// Fidelity-limiting adapter: scores through the wrapped measure's warm
/// state only (or through term identity alone), never computing cold
/// semantic work. Backs [`Matcher::match_event_degraded`] for
/// [`ProbabilisticMatcher`].
#[derive(Debug)]
struct DegradedMeasure<'a, M: SemanticMeasure> {
    inner: &'a M,
    exact_only: bool,
}

impl<M: SemanticMeasure> SemanticMeasure for DegradedMeasure<'_, M> {
    fn relatedness(&self, term_s: &str, theme_s: &Theme, term_e: &str, theme_e: &Theme) -> f64 {
        if term_s == term_e {
            return 1.0;
        }
        if self.exact_only {
            return 0.0;
        }
        self.inner
            .relatedness_warm(term_s, theme_s, term_e, theme_e)
            .unwrap_or(0.0)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<M: SemanticMeasure> fmt::Debug for ProbabilisticMatcher<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbabilisticMatcher")
            .field("measure", &self.measure)
            .field("config", &self.config)
            .finish()
    }
}

impl<M: SemanticMeasure> Matcher for ProbabilisticMatcher<M> {
    fn match_event(&self, subscription: &Subscription, event: &Event) -> MatchResult {
        self.match_with_measure(subscription, event, &self.measure)
    }

    fn begin_event(&self, event: &Event) {
        crate::similarity::begin_event_scope(event);
    }

    fn match_event_degraded(
        &self,
        subscription: &Subscription,
        event: &Event,
        mode: DegradedMatching,
    ) -> MatchResult {
        match mode {
            DegradedMatching::Full => self.match_event(subscription, event),
            DegradedMatching::CacheOnly => self.match_with_measure(
                subscription,
                event,
                &DegradedMeasure {
                    inner: &self.measure,
                    exact_only: false,
                },
            ),
            DegradedMatching::ExactOnly => self.match_with_measure(
                subscription,
                event,
                &DegradedMeasure {
                    inner: &self.measure,
                    exact_only: true,
                },
            ),
        }
    }

    fn name(&self) -> &'static str {
        self.display_name
    }

    fn explain_match(
        &self,
        subscription: &Subscription,
        event: &Event,
        result: &MatchResult,
    ) -> MatchDetail {
        if subscription.predicates().is_empty() || event.tuples().is_empty() {
            return MatchDetail::from_result(self.display_name, subscription, event, result);
        }
        // Rebuild the full (unpruned) matrix: for accepted results this
        // replays cache-warm cells; for rejected ones it fills in the
        // rows the pruned hot-path build skipped, so rejections explain
        // every predicate too.
        let matrix = self.similarity_matrix(subscription, event);
        let ths = resolve_theme(theme_for_tags(subscription.theme_tags()));
        let the = resolve_theme(theme_for_tags(event.theme_tags()));
        let (ths, the) = (ths.as_ref(), the.as_ref());
        let best = result.best();
        let predicates = subscription
            .predicates()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                // Pair with the best mapping's tuple; for rejected pairs,
                // with the row's most similar tuple.
                let j = best.and_then(|m| m.tuple_of(i)).unwrap_or_else(|| {
                    (0..matrix.cols())
                        .max_by(|&a, &b| {
                            matrix
                                .get(i, a)
                                .partial_cmp(&matrix.get(i, b))
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .unwrap_or(0)
                });
                let t = &event.tuples()[j];
                let attribute_detail = p
                    .is_attribute_approx()
                    .then(|| self.measure.explain(p.attribute(), ths, t.attribute(), the));
                // Mirror the similarity-matrix semantics: the value side
                // is semantic only for approximate `=` predicates.
                let value_detail = (p.is_value_approx() && p.op() == ComparisonOp::Eq)
                    .then(|| self.measure.explain(p.value(), ths, t.value(), the));
                PredicateExplanation {
                    predicate: i,
                    attribute: p.attribute().to_string(),
                    value: p.value().to_string(),
                    tuple: Some(j),
                    tuple_attribute: Some(t.attribute().to_string()),
                    tuple_value: Some(t.value().to_string()),
                    similarity: matrix.get(i, j),
                    attribute_detail,
                    value_detail,
                }
            })
            .collect();
        MatchDetail {
            matcher: self.display_name,
            score: result.score(),
            mapped: !result.is_empty(),
            predicates,
        }
    }

    fn prepare_subscription(&self, subscription: &Subscription) {
        let theme = resolve_theme(theme_for_tags(subscription.theme_tags()));
        for_each_approx_term(subscription, |term| {
            self.measure.prepare_term(term, &theme);
        });
    }

    fn release_subscription(&self, subscription: &Subscription) {
        let theme = resolve_theme(theme_for_tags(subscription.theme_tags()));
        for_each_approx_term(subscription, |term| {
            self.measure.release_term(term, &theme);
        });
    }

    fn cache_stats(&self) -> CacheStats {
        self.measure.cache_stats()
    }

    fn cache_miss_count(&self) -> u64 {
        self.measure.cache_miss_count()
    }
}

/// The predicate terms the measure will be asked about: approximate
/// attributes always, approximate values only under `=` (relational
/// operators compare numerically, never semantically).
fn for_each_approx_term(subscription: &Subscription, mut f: impl FnMut(&str)) {
    for p in subscription.predicates() {
        if p.is_attribute_approx() {
            f(p.attribute());
        }
        if p.is_value_approx() && p.op() == tep_events::ComparisonOp::Eq {
            f(p.value());
        }
    }
}

fn measure_display_name(measure_name: &str) -> &'static str {
    match measure_name {
        "thematic-esa" => "thematic",
        "esa" => "non-thematic",
        "precomputed-esa" => "precomputed",
        _ => "probabilistic",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Combiner;
    use std::collections::HashMap;
    use tep_semantics::Theme;

    #[derive(Debug, Default)]
    struct StubMeasure {
        scores: HashMap<(String, String), f64>,
    }

    impl StubMeasure {
        fn with(mut self, a: &str, b: &str, s: f64) -> StubMeasure {
            self.scores.insert((a.into(), b.into()), s);
            self.scores.insert((b.into(), a.into()), s);
            self
        }
    }

    impl SemanticMeasure for StubMeasure {
        fn relatedness(&self, a: &str, _: &Theme, b: &str, _: &Theme) -> f64 {
            if a == b {
                1.0
            } else {
                self.scores
                    .get(&(a.to_string(), b.to_string()))
                    .copied()
                    .unwrap_or(0.0)
            }
        }
    }

    fn paper_event() -> Event {
        Event::builder()
            .tuple("type", "increased energy consumption event")
            .tuple("measurement unit", "kilowatt hour")
            .tuple("device", "computer")
            .tuple("office", "room 112")
            .build()
            .unwrap()
    }

    fn paper_subscription() -> Subscription {
        Subscription::builder()
            .predicate_approx_value("type", "increased energy usage event")
            .predicate_full_approx("device", "laptop")
            .predicate_exact("office", "room 112")
            .build()
            .unwrap()
    }

    fn stub() -> StubMeasure {
        StubMeasure::default()
            .with(
                "increased energy usage event",
                "increased energy consumption event",
                0.9,
            )
            .with("laptop", "computer", 0.8)
    }

    #[test]
    fn recovers_the_paper_top1_mapping() {
        // §3: σ* maps type↔type, device~↔device, office↔office.
        let m = ProbabilisticMatcher::new(stub(), MatcherConfig::top1());
        let r = m.match_event(&paper_subscription(), &paper_event());
        let best = r.best().expect("must match");
        assert_eq!(best.tuple_of(0), Some(0)); // type ↔ type
        assert_eq!(best.tuple_of(1), Some(2)); // device ↔ device
        assert_eq!(best.tuple_of(2), Some(3)); // office ↔ office
        assert!((best.score() - 0.9 * 0.8 * 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_match_when_fewer_tuples_than_predicates() {
        let e = Event::builder().tuple("type", "x").build().unwrap();
        let m = ProbabilisticMatcher::new(stub(), MatcherConfig::top1());
        assert!(m.match_event(&paper_subscription(), &e).is_empty());
    }

    #[test]
    fn no_match_when_exact_predicate_fails() {
        let s = Subscription::builder()
            .predicate_exact("office", "room 999")
            .build()
            .unwrap();
        let m = ProbabilisticMatcher::new(stub(), MatcherConfig::top1());
        assert!(m.match_event(&s, &paper_event()).is_empty());
    }

    #[test]
    fn top_k_yields_ranked_alternatives() {
        // Two plausible targets for one predicate.
        let stub = StubMeasure::default()
            .with("laptop", "computer", 0.8)
            .with("device", "measurement unit", 0.5)
            .with("laptop", "kilowatt hour", 0.3);
        let s = Subscription::builder()
            .predicate_full_approx("device", "laptop")
            .build()
            .unwrap();
        let m = ProbabilisticMatcher::new(stub, MatcherConfig::top_k(3));
        let r = m.match_event(&s, &paper_event());
        assert!(r.mappings().len() >= 2);
        assert!(r.mappings()[0].score() >= r.mappings()[1].score());
        // Probabilities over the enumerated mappings sum to 1.
        let total: f64 = r.mappings().iter().map(Mapping::probability).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exact_subscription_on_exact_event_scores_one() {
        let s = Subscription::builder()
            .predicate_exact("device", "computer")
            .predicate_exact("office", "room 112")
            .build()
            .unwrap();
        let m = ProbabilisticMatcher::new(StubMeasure::default(), MatcherConfig::top1());
        let r = m.match_event(&s, &paper_event());
        assert_eq!(r.score(), 1.0);
        assert!(r.is_match(1.0));
    }

    #[test]
    fn injective_mapping_no_tuple_reused() {
        // Both predicates are drawn to the same tuple; the mapping must
        // still be injective.
        let stub = StubMeasure::default()
            .with("a1", "x", 0.9)
            .with("a2", "x", 0.8)
            .with("v1", "1", 0.9)
            .with("v2", "1", 0.8)
            .with("a1", "y", 0.2)
            .with("a2", "y", 0.2)
            .with("v1", "2", 0.2)
            .with("v2", "2", 0.2);
        let s = Subscription::builder()
            .predicate_full_approx("a1", "v1")
            .predicate_full_approx("a2", "v2")
            .build()
            .unwrap();
        let e = Event::builder()
            .tuple("x", "1")
            .tuple("y", "2")
            .build()
            .unwrap();
        let m = ProbabilisticMatcher::new(stub, MatcherConfig::top1());
        let best = m.match_event(&s, &e);
        let best = best.best().unwrap();
        let t0 = best.tuple_of(0).unwrap();
        let t1 = best.tuple_of(1).unwrap();
        assert_ne!(t0, t1);
        // Optimal: p0↔x (0.81), p1↔y (0.04) beats p0↔y (0.04), p1↔x (0.64).
        assert_eq!(t0, 0);
        assert_eq!(t1, 1);
    }

    #[test]
    fn explain_matches_the_accepted_mapping() {
        let m = ProbabilisticMatcher::new(stub(), MatcherConfig::top1());
        let sub = paper_subscription();
        let event = paper_event();
        let r = m.match_event(&sub, &event);
        let d = m.explain_match(&sub, &event, &r);
        assert!(d.mapped);
        assert_eq!(d.matcher, "probabilistic");
        assert!((d.score - r.score()).abs() < 1e-12);
        assert_eq!(d.predicates.len(), 3);
        // Pairings mirror the best mapping.
        assert_eq!(d.predicates[0].tuple, Some(0));
        assert_eq!(d.predicates[1].tuple, Some(2));
        assert_eq!(d.predicates[2].tuple, Some(3));
        // Per-predicate similarities multiply back into the score.
        let product: f64 = d.predicates.iter().map(|p| p.similarity).product();
        assert!((product - r.score()).abs() < 1e-9);
        // Predicate 0 (`type` approx value) has value geometry only;
        // predicate 1 (full approx) has both; predicate 2 (exact) none.
        assert!(d.predicates[0].attribute_detail.is_none());
        assert!(d.predicates[0].value_detail.is_some());
        assert!(d.predicates[1].attribute_detail.is_some());
        assert!(d.predicates[1].value_detail.is_some());
        assert!(d.predicates[2].attribute_detail.is_none());
        assert!(d.predicates[2].value_detail.is_none());
        assert_eq!(
            d.predicates[1].tuple_attribute.as_deref(),
            Some("device"),
            "paired tuple text is carried along"
        );
        // StubMeasure uses the default explain: score only, no distance.
        let vd = d.predicates[0].value_detail.unwrap();
        assert!((vd.score - 0.9).abs() < 1e-12);
        assert_eq!(vd.distance, None);
    }

    #[test]
    fn explain_covers_rejections_with_best_rows() {
        // The exact predicate fails → no mapping; the explanation still
        // pairs every predicate with its most similar tuple.
        let s = Subscription::builder()
            .predicate_approx_value("type", "increased energy usage event")
            .predicate_exact("office", "room 999")
            .build()
            .unwrap();
        let m = ProbabilisticMatcher::new(stub(), MatcherConfig::top1());
        let event = paper_event();
        let r = m.match_event(&s, &event);
        assert!(r.is_empty());
        let d = m.explain_match(&s, &event, &r);
        assert!(!d.mapped);
        assert_eq!(d.score, 0.0);
        assert_eq!(d.predicates.len(), 2);
        // Row argmax: the type predicate's best tuple is tuple 0 (0.9).
        assert_eq!(d.predicates[0].tuple, Some(0));
        assert!((d.predicates[0].similarity - 0.9).abs() < 1e-12);
        // The failed exact row reports a zero similarity.
        assert_eq!(d.predicates[1].similarity, 0.0);
    }

    #[test]
    fn default_explain_reports_pairings_without_geometry() {
        use crate::baselines::ExactMatcher;
        let m = ExactMatcher::new();
        let s = Subscription::builder()
            .predicate_exact("office", "room 112")
            .build()
            .unwrap();
        let event = paper_event();
        let r = m.match_event(&s, &event);
        assert!(!r.is_empty());
        let d = m.explain_match(&s, &event, &r);
        assert!(d.mapped);
        assert_eq!(d.predicates.len(), 1);
        assert_eq!(d.predicates[0].tuple, Some(3), "office ↔ office");
        assert_eq!(d.predicates[0].similarity, 1.0);
        assert!(d.predicates[0].attribute_detail.is_none());
        assert!(d.predicates[0].value_detail.is_none());

        // A rejected pair through the default path: no pairing is known.
        let miss = Subscription::builder()
            .predicate_exact("office", "room 999")
            .build()
            .unwrap();
        let r = m.match_event(&miss, &event);
        let d = m.explain_match(&miss, &event, &r);
        assert!(!d.mapped);
        assert_eq!(d.predicates[0].tuple, None);
        assert_eq!(d.predicates[0].similarity, 0.0);
    }

    /// A measure whose full path knows every pair but whose warm path only
    /// knows an allowlisted subset — models a half-warm cache exactly.
    #[derive(Debug, Default)]
    struct HalfWarmMeasure {
        full: StubMeasure,
        warm: HashMap<(String, String), f64>,
    }

    impl HalfWarmMeasure {
        fn warm(mut self, a: &str, b: &str, s: f64) -> HalfWarmMeasure {
            self.warm.insert((a.into(), b.into()), s);
            self.warm.insert((b.into(), a.into()), s);
            self
        }
    }

    impl SemanticMeasure for HalfWarmMeasure {
        fn relatedness(&self, a: &str, ths: &Theme, b: &str, the: &Theme) -> f64 {
            self.full.relatedness(a, ths, b, the)
        }
        fn relatedness_warm(&self, a: &str, _: &Theme, b: &str, _: &Theme) -> Option<f64> {
            if a == b {
                return Some(1.0);
            }
            self.warm.get(&(a.to_string(), b.to_string())).copied()
        }
    }

    #[test]
    fn degraded_full_is_identical_to_match_event() {
        let m = ProbabilisticMatcher::new(stub(), MatcherConfig::top1());
        let sub = paper_subscription();
        let event = paper_event();
        let full = m.match_event(&sub, &event);
        let degraded = m.match_event_degraded(&sub, &event, DegradedMatching::Full);
        assert_eq!(full.score().to_bits(), degraded.score().to_bits());
        assert_eq!(full.is_empty(), degraded.is_empty());
    }

    #[test]
    fn cache_only_uses_warm_scores_and_drops_cold_pairs() {
        // Warm path knows the type synonym but not laptop↔computer: the
        // full-approx device predicate loses its only feasible tuple, so
        // the cache-only rung rejects what the full rung accepts.
        let measure = HalfWarmMeasure {
            full: stub(),
            warm: HashMap::new(),
        }
        .warm(
            "increased energy usage event",
            "increased energy consumption event",
            0.9,
        );
        let m = ProbabilisticMatcher::new(measure, MatcherConfig::top1());
        let sub = paper_subscription();
        let event = paper_event();
        assert!(!m.match_event(&sub, &event).is_empty(), "full path matches");
        assert!(
            m.match_event_degraded(&sub, &event, DegradedMatching::CacheOnly)
                .is_empty(),
            "cold device pair must sink the cache-only mapping"
        );
        // Fully warm: cache-only reproduces the full result exactly.
        let warm_measure = HalfWarmMeasure {
            full: stub(),
            warm: HashMap::new(),
        }
        .warm(
            "increased energy usage event",
            "increased energy consumption event",
            0.9,
        )
        .warm("laptop", "computer", 0.8);
        let m = ProbabilisticMatcher::new(warm_measure, MatcherConfig::top1());
        let full = m.match_event(&sub, &event);
        let warm = m.match_event_degraded(&sub, &event, DegradedMatching::CacheOnly);
        assert_eq!(full.score().to_bits(), warm.score().to_bits());
    }

    #[test]
    fn exact_only_keeps_term_identity_and_nothing_else() {
        let m = ProbabilisticMatcher::new(stub(), MatcherConfig::top1());
        // The paper subscription needs semantics (device~laptop): gone.
        assert!(m
            .match_event_degraded(
                &paper_subscription(),
                &paper_event(),
                DegradedMatching::ExactOnly
            )
            .is_empty());
        // A literally identical approximate predicate still matches.
        let s = Subscription::builder()
            .predicate_full_approx("device", "computer")
            .build()
            .unwrap();
        let r = m.match_event_degraded(&s, &paper_event(), DegradedMatching::ExactOnly);
        assert!(!r.is_empty());
        assert_eq!(r.score(), 1.0);
    }

    #[test]
    fn default_degraded_falls_back_to_match_event() {
        use crate::baselines::ExactMatcher;
        let m = ExactMatcher::new();
        let s = Subscription::builder()
            .predicate_exact("office", "room 112")
            .build()
            .unwrap();
        for mode in [
            DegradedMatching::Full,
            DegradedMatching::CacheOnly,
            DegradedMatching::ExactOnly,
        ] {
            assert!(!m.match_event_degraded(&s, &paper_event(), mode).is_empty());
        }
        assert_eq!(DegradedMatching::CacheOnly.as_str(), "cache_only");
    }

    #[test]
    fn names_follow_measure() {
        let m = ProbabilisticMatcher::new(StubMeasure::default(), MatcherConfig::top1());
        assert_eq!(m.name(), "probabilistic");
        assert_eq!(m.config().combiner, Combiner::Product);
    }
}

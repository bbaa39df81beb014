//! Tracing wrappers around the matcher and the semantic measure.
//!
//! The traced run wraps the [`Matcher`] and [`SemanticMeasure`] the broker
//! uses in these types. They forward every trait method unchanged, so the
//! broker takes the same paths (covering, `begin_event` scopes, the
//! interned-id fast path) as in the untraced run, count every call, and
//! time samples. Of every [`SAMPLE_EVERY`] match tests a thread runs, one
//! is timed as a whole and, in another, every measure call is timed; the
//! two samples are kept apart so that neither carries the other's clock
//! reads. Their difference is the matcher's own time.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tep::matcher::{DegradedMatching, MatchDetail, MatchResult, Matcher};
use tep::prelude::{CacheStats, Event, RelatednessDetail, SemanticMeasure, Subscription, Theme};
use tep::semantics::{TermId, ThemeId};

/// Per thread, one match test (and `begin_event` call) in this many is
/// timed whole, and in one other its measure calls are timed.
pub const SAMPLE_EVERY: u64 = 16;

const SHARDS: usize = 16;

/// A statistic counter sharded per thread, so workers never contend on
/// one cache line.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [Padded; SHARDS],
}

#[derive(Debug, Default)]
#[repr(align(64))]
struct Padded(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    /// Calls seen by this thread, for the sampling decisions.
    static TICK: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread times the measure calls of its current match.
    static TIMING: Cell<bool> = const { Cell::new(false) };
}

impl Counter {
    /// Adds `n` (a statistic; publishes no other data, hence `Relaxed`).
    pub fn add(&self, n: u64) {
        let shard = SHARD.with(|s| *s);
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The sum over all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Every counter the wrappers keep.
#[derive(Debug, Default)]
pub struct Probes {
    /// `match_event` / `match_event_degraded` calls.
    pub match_calls: Counter,
    /// Calls whose result carried a mapping.
    pub match_hits: Counter,
    /// Match calls timed whole, and their total nanoseconds.
    pub match_timed: Counter,
    pub match_ns: Counter,
    /// `begin_event` calls, timed calls and their nanoseconds.
    pub begin_calls: Counter,
    pub begin_timed: Counter,
    pub begin_ns: Counter,
    /// Relatedness calls (string and interned-id paths), and the timed
    /// ones with their nanoseconds.
    pub relatedness_calls: Counter,
    pub relatedness_timed: Counter,
    pub relatedness_ns: Counter,
}

/// A snapshot of [`Probes`], for deltas between two points of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    pub match_calls: u64,
    pub match_hits: u64,
    pub match_timed: u64,
    pub match_ns: u64,
    pub begin_calls: u64,
    pub begin_timed: u64,
    pub begin_ns: u64,
    pub relatedness_calls: u64,
    pub relatedness_timed: u64,
    pub relatedness_ns: u64,
}

impl Probes {
    pub fn counts(&self) -> ProbeCounts {
        ProbeCounts {
            match_calls: self.match_calls.get(),
            match_hits: self.match_hits.get(),
            match_timed: self.match_timed.get(),
            match_ns: self.match_ns.get(),
            begin_calls: self.begin_calls.get(),
            begin_timed: self.begin_timed.get(),
            begin_ns: self.begin_ns.get(),
            relatedness_calls: self.relatedness_calls.get(),
            relatedness_timed: self.relatedness_timed.get(),
            relatedness_ns: self.relatedness_ns.get(),
        }
    }
}

impl ProbeCounts {
    pub fn since(&self, earlier: &ProbeCounts) -> ProbeCounts {
        ProbeCounts {
            match_calls: self.match_calls - earlier.match_calls,
            match_hits: self.match_hits - earlier.match_hits,
            match_timed: self.match_timed - earlier.match_timed,
            match_ns: self.match_ns - earlier.match_ns,
            begin_calls: self.begin_calls - earlier.begin_calls,
            begin_timed: self.begin_timed - earlier.begin_timed,
            begin_ns: self.begin_ns - earlier.begin_ns,
            relatedness_calls: self.relatedness_calls - earlier.relatedness_calls,
            relatedness_timed: self.relatedness_timed - earlier.relatedness_timed,
            relatedness_ns: self.relatedness_ns - earlier.relatedness_ns,
        }
    }
}

/// This thread's call count modulo [`SAMPLE_EVERY`], after counting one.
fn tick() -> u64 {
    TICK.with(|t| {
        let n = t.get().wrapping_add(1);
        t.set(n);
        n % SAMPLE_EVERY
    })
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Mean nanoseconds one clock read adds to a timed interval, measured
/// back to back; the per-layer times subtract it once per timed call.
pub fn clock_cost_ns() -> f64 {
    const READS: u32 = 200_000;
    let mut total = 0u64;
    for _ in 0..READS {
        total += nanos_since(Instant::now());
    }
    total as f64 / f64::from(READS)
}

/// A [`Matcher`] that counts and samples the calls into the one it wraps.
pub struct TracedMatcher<M> {
    inner: M,
    probes: Arc<Probes>,
}

impl<M> TracedMatcher<M> {
    pub fn new(inner: M, probes: Arc<Probes>) -> TracedMatcher<M> {
        TracedMatcher { inner, probes }
    }

    fn observe(&self, run: impl FnOnce() -> MatchResult) -> MatchResult {
        let p = &self.probes;
        p.match_calls.add(1);
        let result = match tick() {
            0 => {
                let start = Instant::now();
                let result = run();
                p.match_ns.add(nanos_since(start));
                p.match_timed.add(1);
                result
            }
            n if n == SAMPLE_EVERY / 2 => {
                TIMING.with(|t| t.set(true));
                let result = run();
                TIMING.with(|t| t.set(false));
                result
            }
            _ => run(),
        };
        if !result.is_empty() {
            p.match_hits.add(1);
        }
        result
    }
}

impl<M: Matcher> Matcher for TracedMatcher<M> {
    fn match_event(&self, subscription: &Subscription, event: &Event) -> MatchResult {
        self.observe(|| self.inner.match_event(subscription, event))
    }

    fn match_event_degraded(
        &self,
        subscription: &Subscription,
        event: &Event,
        mode: DegradedMatching,
    ) -> MatchResult {
        self.observe(|| self.inner.match_event_degraded(subscription, event, mode))
    }

    fn begin_event(&self, event: &Event) {
        let p = &self.probes;
        p.begin_calls.add(1);
        if tick() == 0 {
            let start = Instant::now();
            self.inner.begin_event(event);
            p.begin_ns.add(nanos_since(start));
            p.begin_timed.add(1);
        } else {
            self.inner.begin_event(event);
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn explain_match(
        &self,
        subscription: &Subscription,
        event: &Event,
        result: &MatchResult,
    ) -> MatchDetail {
        self.inner.explain_match(subscription, event, result)
    }

    fn prepare_subscription(&self, subscription: &Subscription) {
        self.inner.prepare_subscription(subscription)
    }

    fn release_subscription(&self, subscription: &Subscription) {
        self.inner.release_subscription(subscription)
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn cache_miss_count(&self) -> u64 {
        self.inner.cache_miss_count()
    }

    fn covering_safe(&self) -> bool {
        self.inner.covering_safe()
    }
}

/// A [`SemanticMeasure`] that counts the relatedness calls into the one it
/// wraps, and times those of the match tests sampled for it.
#[derive(Debug)]
pub struct TracedMeasure<S> {
    inner: S,
    probes: Arc<Probes>,
}

impl<S> TracedMeasure<S> {
    pub fn new(inner: S, probes: Arc<Probes>) -> TracedMeasure<S> {
        TracedMeasure { inner, probes }
    }

    fn observe(&self, run: impl FnOnce() -> f64) -> f64 {
        let p = &self.probes;
        p.relatedness_calls.add(1);
        if !TIMING.with(Cell::get) {
            return run();
        }
        let start = Instant::now();
        let score = run();
        p.relatedness_ns.add(nanos_since(start));
        p.relatedness_timed.add(1);
        score
    }
}

impl<S: SemanticMeasure> SemanticMeasure for TracedMeasure<S> {
    fn relatedness(&self, term_s: &str, theme_s: &Theme, term_e: &str, theme_e: &Theme) -> f64 {
        self.observe(|| self.inner.relatedness(term_s, theme_s, term_e, theme_e))
    }

    fn relatedness_ids(
        &self,
        term_s: TermId,
        theme_s: ThemeId,
        term_e: TermId,
        theme_e: ThemeId,
    ) -> f64 {
        self.observe(|| self.inner.relatedness_ids(term_s, theme_s, term_e, theme_e))
    }

    fn explain(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> RelatednessDetail {
        self.inner.explain(term_s, theme_s, term_e, theme_e)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare_term(&self, term: &str, theme: &Theme) {
        self.inner.prepare_term(term, theme)
    }

    fn release_term(&self, term: &str, theme: &Theme) {
        self.inner.release_term(term, theme)
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn cache_miss_count(&self) -> u64 {
        self.inner.cache_miss_count()
    }

    fn relatedness_warm(
        &self,
        term_s: &str,
        theme_s: &Theme,
        term_e: &str,
        theme_e: &Theme,
    ) -> Option<f64> {
        self.inner
            .relatedness_warm(term_s, theme_s, term_e, theme_e)
    }
}

//! The shadow quality evaluator: live precision/recall/F1 estimation.
//!
//! The paper's headline claim is a quality/throughput tradeoff, yet a
//! running broker normally has no quality signal at all — it knows how
//! *fast* it matches, not how *well*. This module closes that gap with
//! deterministic 1-in-k shadow sampling: every k-th subscription × event
//! match test (selected by a hash of the sequence number and the
//! subscription id, so the sample is unbiased across rounds and thread
//! interleavings) is replayed against a [`QualityOracle`] that knows the
//! ground truth. The broker's own decision — delivered or not at the
//! configured threshold — is scored as a true/false positive/negative,
//! and rolling precision/recall/F1 estimates with Wilson confidence
//! bounds are available from [`crate::Broker::quality`] and the
//! `/quality` scrape endpoint.
//!
//! A bounded buffer of the most recent samples additionally powers
//! **drift alerts**: when the recent half of the buffer disagrees with
//! the older half on F1, mean match score, or semantic-cache hit rate
//! beyond fixed thresholds, the report carries a [`DriftAlert`] — the
//! operator's cue that matching quality moved even while cumulative
//! averages still look healthy.
//!
//! Cost model: unsampled tests pay one `OnceLock` load, one hash, and
//! one modulo; with sampling disabled entirely (no oracle installed)
//! the hot path pays a single branch.

use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tep_events::{Event, Subscription};
use tep_obs::json_document;

/// Ground truth for shadow quality sampling.
///
/// `judge` returns whether `event` is truly relevant to `subscription`,
/// or `None` when the oracle cannot say (unknown pairs are counted but
/// excluded from precision/recall). Implementations live outside the
/// broker — `tep-eval` builds one from its generated workloads — so the
/// broker stays free of dataset dependencies.
pub trait QualityOracle: Send + Sync {
    /// Whether `event` is relevant to `subscription`, if known.
    fn judge(&self, subscription: &Subscription, event: &Event) -> Option<bool>;
}

impl fmt::Debug for dyn QualityOracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QualityOracle").finish_non_exhaustive()
    }
}

/// Most recent samples retained for drift detection.
const SAMPLE_BUFFER: usize = 1024;
/// Minimum samples per buffer half before drift is evaluated.
const DRIFT_MIN_HALF: usize = 32;
/// Absolute F1 shift between buffer halves that raises an alert.
const DRIFT_F1_THRESHOLD: f64 = 0.15;
/// Absolute mean-score shift between buffer halves that raises an alert.
const DRIFT_SCORE_THRESHOLD: f64 = 0.15;
/// Absolute cache-hit-rate shift between buffer halves that raises one.
const DRIFT_CACHE_THRESHOLD: f64 = 0.25;

/// One judged shadow sample.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// The broker's decision at the delivery threshold.
    predicted: bool,
    /// The oracle's verdict (`None` = unknown pair).
    actual: Option<bool>,
    /// The match score the broker computed.
    score: f64,
    /// Semantic-cache hit rate at sample time.
    cache_hit_rate: f64,
}

/// Shared state of the shadow evaluator, installed by
/// [`crate::Broker::with_quality_sampling`].
pub(crate) struct QualityState {
    every: u64,
    oracle: Box<dyn QualityOracle>,
    true_positives: AtomicU64,
    false_positives: AtomicU64,
    false_negatives: AtomicU64,
    true_negatives: AtomicU64,
    unknown: AtomicU64,
    samples: Mutex<VecDeque<Sample>>,
}

impl fmt::Debug for QualityState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QualityState")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

/// splitmix64 finalizer: decorrelates `(seq, subscription)` pairs so
/// `% every` samples uniformly even when the per-round pair count
/// divides `every` (a plain `seq % k` would test the *same* pairs every
/// round on a cyclic workload).
pub(crate) fn mix(seq: u64, subscription: u64) -> u64 {
    let mut z = seq
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(subscription);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl QualityState {
    pub(crate) fn new(every: u64, oracle: Box<dyn QualityOracle>) -> QualityState {
        QualityState {
            every: every.max(1),
            oracle,
            true_positives: AtomicU64::new(0),
            false_positives: AtomicU64::new(0),
            false_negatives: AtomicU64::new(0),
            true_negatives: AtomicU64::new(0),
            unknown: AtomicU64::new(0),
            samples: Mutex::new(VecDeque::new()),
        }
    }

    /// Deterministic 1-in-`every` sampling decision for one match test.
    pub(crate) fn should_sample(&self, seq: u64, subscription: u64) -> bool {
        mix(seq, subscription).is_multiple_of(self.every)
    }

    /// Judges one sampled test against the oracle and folds it into the
    /// rolling state. `predicted` is the broker's delivery decision.
    pub(crate) fn record(
        &self,
        subscription: &Subscription,
        event: &Event,
        predicted: bool,
        score: f64,
        cache_hit_rate: f64,
    ) {
        let actual = self.oracle.judge(subscription, event);
        let counter = match (predicted, actual) {
            (_, None) => &self.unknown,
            (true, Some(true)) => &self.true_positives,
            (true, Some(false)) => &self.false_positives,
            (false, Some(true)) => &self.false_negatives,
            (false, Some(false)) => &self.true_negatives,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let mut samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        if samples.len() == SAMPLE_BUFFER {
            samples.pop_front();
        }
        samples.push_back(Sample {
            predicted,
            actual,
            score,
            cache_hit_rate,
        });
    }

    /// The current rolling quality report.
    pub(crate) fn report(&self) -> QualityReport {
        let tp = self.true_positives.load(Ordering::Relaxed);
        let fp = self.false_positives.load(Ordering::Relaxed);
        let fn_ = self.false_negatives.load(Ordering::Relaxed);
        let tn = self.true_negatives.load(Ordering::Relaxed);
        let unknown = self.unknown.load(Ordering::Relaxed);
        let precision = ratio(tp, tp + fp);
        let recall = ratio(tp, tp + fn_);
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        // F1 is estimated over every sample that enters it (tp+fp+fn);
        // the normal-approximation interval on that effective count is
        // the agreement band the bench gate uses against offline F1.
        let f1_n = tp + fp + fn_;
        let f1_ci = if f1_n == 0 {
            (0.0, 1.0)
        } else {
            let half = 1.96 * (f1 * (1.0 - f1) / f1_n as f64).sqrt();
            ((f1 - half).max(0.0), (f1 + half).min(1.0))
        };
        let drift = self.drift_alerts();
        QualityReport {
            sample_every: self.every,
            true_positives: tp,
            false_positives: fp,
            false_negatives: fn_,
            true_negatives: tn,
            unknown,
            precision,
            precision_ci: wilson(tp, tp + fp),
            recall,
            recall_ci: wilson(tp, tp + fn_),
            f1,
            f1_ci,
            drift,
        }
    }

    /// Compares the recent half of the sample buffer against the older
    /// half on F1, mean score, and cache hit rate.
    fn drift_alerts(&self) -> Vec<DriftAlert> {
        let samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        let half = samples.len() / 2;
        if half < DRIFT_MIN_HALF {
            return Vec::new();
        }
        let older: Vec<Sample> = samples.iter().take(half).copied().collect();
        let recent: Vec<Sample> = samples.iter().skip(half).copied().collect();
        drop(samples);
        let mut alerts = Vec::new();
        let checks = [
            (
                DriftKind::F1,
                window_f1(&older),
                window_f1(&recent),
                DRIFT_F1_THRESHOLD,
            ),
            (
                DriftKind::MeanScore,
                mean(older.iter().map(|s| s.score)),
                mean(recent.iter().map(|s| s.score)),
                DRIFT_SCORE_THRESHOLD,
            ),
            (
                DriftKind::CacheHitRate,
                mean(older.iter().map(|s| s.cache_hit_rate)),
                mean(recent.iter().map(|s| s.cache_hit_rate)),
                DRIFT_CACHE_THRESHOLD,
            ),
        ];
        for (kind, older_value, recent_value, threshold) in checks {
            if (recent_value - older_value).abs() > threshold {
                alerts.push(DriftAlert {
                    kind,
                    older: older_value,
                    recent: recent_value,
                });
            }
        }
        alerts
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// F1 over one buffer half, unknown-verdict samples excluded.
fn window_f1(samples: &[Sample]) -> f64 {
    let mut tp = 0u64;
    let mut fp = 0u64;
    let mut fn_ = 0u64;
    for s in samples {
        match (s.predicted, s.actual) {
            (true, Some(true)) => tp += 1,
            (true, Some(false)) => fp += 1,
            (false, Some(true)) => fn_ += 1,
            _ => {}
        }
    }
    let p = ratio(tp, tp + fp);
    let r = ratio(tp, tp + fn_);
    if p + r > 0.0 {
        2.0 * p * r / (p + r)
    } else {
        0.0
    }
}

/// The 95% Wilson score interval for `successes / total` — well-behaved
/// at small counts and at proportions near 0 or 1, unlike the naive
/// normal interval.
fn wilson(successes: u64, total: u64) -> (f64, f64) {
    if total == 0 {
        return (0.0, 1.0);
    }
    let n = total as f64;
    let p = successes as f64 / n;
    let z = 1.96f64;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Which rolling statistic shifted beyond its drift threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// F1 over the recent samples moved against the older ones.
    F1,
    /// The mean match score shifted (score-distribution drift).
    MeanScore,
    /// The semantic-cache hit rate shifted (working-set drift).
    CacheHitRate,
}

impl DriftKind {
    /// Stable lowercase name for JSON/labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            DriftKind::F1 => "f1",
            DriftKind::MeanScore => "mean_score",
            DriftKind::CacheHitRate => "cache_hit_rate",
        }
    }
}

/// One detected shift between the older and recent halves of the
/// rolling sample buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAlert {
    /// The statistic that shifted.
    pub kind: DriftKind,
    /// Its value over the older half.
    pub older: f64,
    /// Its value over the recent half.
    pub recent: f64,
}

/// One readable line, e.g. `MeanScore: 0.9000 -> 0.1000`.
impl fmt::Display for DriftAlert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}: {:.4} -> {:.4}",
            self.kind, self.older, self.recent
        )
    }
}

/// A point-in-time report from the shadow quality evaluator
/// ([`crate::Broker::quality`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// The configured 1-in-k sampling rate.
    pub sample_every: u64,
    /// Delivered and truly relevant.
    pub true_positives: u64,
    /// Delivered but not relevant.
    pub false_positives: u64,
    /// Relevant but not delivered.
    pub false_negatives: u64,
    /// Correctly not delivered.
    pub true_negatives: u64,
    /// Sampled pairs the oracle could not judge.
    pub unknown: u64,
    /// tp / (tp + fp); 0 when undefined.
    pub precision: f64,
    /// 95% Wilson interval for the precision.
    pub precision_ci: (f64, f64),
    /// tp / (tp + fn); 0 when undefined.
    pub recall: f64,
    /// 95% Wilson interval for the recall.
    pub recall_ci: (f64, f64),
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// 95% normal-approximation interval for the F1 estimate over its
    /// effective sample count (tp + fp + fn).
    pub f1_ci: (f64, f64),
    /// Rolling drift alerts; empty when quality is stable (or there are
    /// not yet enough samples to compare halves).
    pub drift: Vec<DriftAlert>,
}

impl QualityReport {
    /// Total judged samples (unknown excluded).
    pub fn judged(&self) -> u64 {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }

    /// Half-width of the F1 confidence interval.
    pub fn f1_ci_half_width(&self) -> f64 {
        (self.f1_ci.1 - self.f1_ci.0) / 2.0
    }
}

/// Renders a [`QualityReport`] as the `/quality` JSON document.
pub fn render_quality_json(report: &QualityReport) -> String {
    json_document(&QualityJson {
        sample_every: report.sample_every,
        true_positives: report.true_positives,
        false_positives: report.false_positives,
        false_negatives: report.false_negatives,
        true_negatives: report.true_negatives,
        unknown: report.unknown,
        judged: report.judged(),
        precision: report.precision,
        precision_ci: report.precision_ci,
        recall: report.recall,
        recall_ci: report.recall_ci,
        f1: report.f1,
        f1_ci: report.f1_ci,
        drift: report
            .drift
            .iter()
            .map(|alert| DriftJson {
                kind: alert.kind.as_str(),
                older: alert.older,
                recent: alert.recent,
            })
            .collect(),
    })
}

/// The `/quality` document: the report plus its `judged` total, with
/// drift kinds as their stable names.
#[derive(Serialize)]
struct QualityJson {
    sample_every: u64,
    true_positives: u64,
    false_positives: u64,
    false_negatives: u64,
    true_negatives: u64,
    unknown: u64,
    judged: u64,
    precision: f64,
    precision_ci: (f64, f64),
    recall: f64,
    recall_ci: (f64, f64),
    f1: f64,
    f1_ci: (f64, f64),
    drift: Vec<DriftJson>,
}

#[derive(Serialize)]
struct DriftJson {
    kind: &'static str,
    older: f64,
    recent: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tep_events::{parse_event, parse_subscription};

    /// An oracle driven by a fixed answer.
    struct FixedOracle(Option<bool>);

    impl QualityOracle for FixedOracle {
        fn judge(&self, _s: &Subscription, _e: &Event) -> Option<bool> {
            self.0
        }
    }

    fn sub() -> Subscription {
        parse_subscription("{a= 1}").unwrap()
    }

    fn event() -> Event {
        parse_event("{a: 1}").unwrap()
    }

    #[test]
    fn sampling_is_deterministic_and_close_to_rate() {
        let q = QualityState::new(100, Box::new(FixedOracle(Some(true))));
        let first: Vec<bool> = (0..10_000).map(|seq| q.should_sample(seq, 3)).collect();
        let second: Vec<bool> = (0..10_000).map(|seq| q.should_sample(seq, 3)).collect();
        assert_eq!(first, second, "sampling must be deterministic");
        let hits = first.iter().filter(|s| **s).count();
        assert!(
            (50..=200).contains(&hits),
            "1-in-100 over 10k draws should land near 100, got {hits}"
        );
        // Different subscriptions sample different sequences.
        let other_hits = (0..10_000u64).filter(|s| q.should_sample(*s, 4)).count();
        assert!(other_hits > 0);
        let overlap = (0..10_000u64)
            .filter(|s| q.should_sample(*s, 3) && q.should_sample(*s, 4))
            .count();
        assert!(overlap < hits, "subscriptions must not sample in lockstep");
    }

    #[test]
    fn confusion_counts_and_f1() {
        let state = QualityState::new(1, Box::new(FixedOracle(Some(true))));
        // 3 true positives, 1 false negative against an always-true oracle.
        for predicted in [true, true, true, false] {
            state.record(&sub(), &event(), predicted, 0.8, 0.5);
        }
        let r = state.report();
        assert_eq!(r.true_positives, 3);
        assert_eq!(r.false_negatives, 1);
        assert_eq!(r.judged(), 4);
        assert!((r.precision - 1.0).abs() < 1e-12);
        assert!((r.recall - 0.75).abs() < 1e-12);
        let expected_f1 = 2.0 * 1.0 * 0.75 / 1.75;
        assert!((r.f1 - expected_f1).abs() < 1e-12);
        assert!(r.precision_ci.0 <= r.precision && r.precision <= r.precision_ci.1);
        assert!(r.recall_ci.0 <= r.recall && r.recall <= r.recall_ci.1);
        assert!(r.f1_ci.0 <= r.f1 && r.f1 <= r.f1_ci.1);
        assert!(
            r.f1_ci_half_width() > 0.0,
            "4 samples leave real uncertainty"
        );
    }

    #[test]
    fn unknown_pairs_are_counted_but_excluded() {
        let state = QualityState::new(1, Box::new(FixedOracle(None)));
        state.record(&sub(), &event(), true, 0.9, 0.0);
        let r = state.report();
        assert_eq!(r.unknown, 1);
        assert_eq!(r.judged(), 0);
        assert_eq!(r.precision, 0.0);
        assert_eq!(r.f1_ci, (0.0, 1.0), "no information, no interval");
    }

    #[test]
    fn drift_alert_fires_on_a_score_shift() {
        let state = QualityState::new(1, Box::new(FixedOracle(Some(true))));
        // Older half: high scores; recent half: collapsed scores.
        for _ in 0..DRIFT_MIN_HALF * 2 {
            state.record(&sub(), &event(), true, 0.9, 0.8);
        }
        for _ in 0..DRIFT_MIN_HALF * 2 {
            state.record(&sub(), &event(), false, 0.1, 0.8);
        }
        let r = state.report();
        let kinds: Vec<DriftKind> = r.drift.iter().map(|a| a.kind).collect();
        assert!(
            kinds.contains(&DriftKind::MeanScore),
            "drift: {:?}",
            r.drift
        );
        assert!(
            kinds.contains(&DriftKind::F1),
            "recall collapse must alert on F1: {:?}",
            r.drift
        );
        assert!(!kinds.contains(&DriftKind::CacheHitRate));
    }

    #[test]
    fn stable_stream_raises_no_drift() {
        let state = QualityState::new(1, Box::new(FixedOracle(Some(true))));
        for _ in 0..DRIFT_MIN_HALF * 4 {
            state.record(&sub(), &event(), true, 0.8, 0.6);
        }
        assert!(state.report().drift.is_empty());
    }

    #[test]
    fn quality_json_is_balanced_and_complete() {
        let state = QualityState::new(7, Box::new(FixedOracle(Some(false))));
        state.record(&sub(), &event(), true, 0.5, 0.5);
        let json = render_quality_json(&state.report());
        for key in [
            "sample_every",
            "true_positives",
            "false_positives",
            "precision_ci",
            "recall_ci",
            "f1_ci",
            "drift",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        assert_eq!(
            json.matches(['{', '[']).count(),
            json.matches(['}', ']']).count()
        );
    }

    #[test]
    fn wilson_interval_sanity() {
        assert_eq!(wilson(0, 0), (0.0, 1.0));
        let (lo, hi) = wilson(85, 100);
        assert!(lo > 0.75 && lo < 0.85, "lo {lo}");
        assert!(hi > 0.85 && hi < 0.95, "hi {hi}");
        let (lo, hi) = wilson(100, 100);
        assert!(
            lo > 0.94 && hi > 0.99 && hi <= 1.0,
            "extremes stay well-behaved: {lo} {hi}"
        );
    }
}

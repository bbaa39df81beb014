//! Live-vs-offline matching-quality scenarios with machine-readable
//! output.
//!
//! `probe bench` runs these and writes `BENCH_quality.json`: each
//! scenario publishes a workload slice through a broker whose shadow
//! quality sampler (1-in-k, judged by a [`GroundTruthOracle`]) tracks
//! live precision/recall/F1, then replays the *same* subscription ×
//! event pairs through the *same* matcher offline and pools the judged
//! decisions into the population confusion matrix. The live sampled F1
//! is an unbiased estimator of the offline F1, so the two must agree
//! within the live estimate's confidence interval — at 1-in-1 sampling
//! they are exactly equal. `ci/perf_gate.sh` holds the gate
//! ([`crate::gate::compare_quality`]) to that property.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;
use tep::broker::json_document;
use tep::prelude::*;
use tep_eval::metrics::thresholded_effectiveness;
use tep_eval::{EvalConfig, GroundTruthOracle, MatcherStack, Workload};

use crate::throughput::ScenarioObserver;

/// Same generous drain deadline as the throughput scenarios.
const FLUSH_DEADLINE: Duration = Duration::from_secs(120);

/// One scenario's live (sampled) and offline (exhaustive) quality
/// numbers, as reported in `BENCH_quality.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityScenario {
    /// Scenario name (stable identifier, used as the JSON key).
    pub name: String,
    /// The 1-in-k sampling rate the live broker ran with.
    pub sample_every: u64,
    /// Live samples the oracle judged (unknowns excluded).
    pub samples: u64,
    /// Live samples the oracle could not judge.
    pub unknown: u64,
    /// Live sampled precision.
    pub live_precision: f64,
    /// Live sampled recall.
    pub live_recall: f64,
    /// Live sampled F1 — the headline estimate.
    pub live_f1: f64,
    /// Lower bound of the live F1's 95% confidence interval.
    pub live_f1_ci_lo: f64,
    /// Upper bound of the live F1's 95% confidence interval.
    pub live_f1_ci_hi: f64,
    /// Offline precision over every judged pair.
    pub offline_precision: f64,
    /// Offline recall over every judged pair.
    pub offline_recall: f64,
    /// Offline F1 — the population quantity the live F1 estimates.
    pub offline_f1: f64,
    /// `|live_f1 - offline_f1|`.
    pub f1_gap: f64,
    /// Whether the gap fits inside the live CI's half-width (the
    /// agreement property the quality gate enforces).
    pub within_ci: bool,
    /// Drift alerts raised by the live sampler during the run.
    pub drift_alerts: u64,
}

impl QualityScenario {
    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} 1-in-{:<4} live F1={:.3} [{:.3},{:.3}] offline F1={:.3} gap={:.4} ({} samples{})",
            self.name,
            self.sample_every,
            self.live_f1,
            self.live_f1_ci_lo,
            self.live_f1_ci_hi,
            self.offline_f1,
            self.f1_gap,
            self.samples,
            if self.within_ci { "" } else { ", OUTSIDE CI" },
        )
    }
}

/// Renders the scenario list as the `BENCH_quality.json` document.
pub fn render_json(results: &[QualityScenario]) -> String {
    json_document(&QualityJson {
        scenarios: results.to_vec(),
    })
}

/// The `BENCH_quality.json` document.
#[derive(Serialize)]
struct QualityJson {
    scenarios: Vec<QualityScenario>,
}

/// Publishes `events` through a quality-sampled broker `rounds` times,
/// reads the live report, then replays the same pairs offline through
/// the same matcher and oracle.
///
/// With `force_state` set, the broker runs with overload control enabled
/// and pinned to that load state, so the live side matches at the state's
/// degraded fidelity while the offline replay stays at full fidelity —
/// `f1_gap` then *is* the measured live-F1 cost of that degradation rung
/// (and `within_ci` is expected to be false for lossy rungs). Degraded
/// scenarios are reported in `BENCH_quality.json` but deliberately kept
/// out of `ci/quality_baseline.json`, so the gate never holds them to the
/// estimator-agreement bar.
#[allow(clippy::too_many_arguments)]
fn run_quality_scenario<M>(
    name: &str,
    matcher: Arc<M>,
    config: BrokerConfig,
    oracle: &GroundTruthOracle,
    subscriptions: &[Subscription],
    events: &[Event],
    every: u64,
    rounds: usize,
    force_state: Option<LoadState>,
    observer: &ScenarioObserver,
) -> QualityScenario
where
    M: Matcher + Send + Sync + 'static,
{
    let config = if force_state.is_some() {
        config.with_overload_control(OverloadConfig::default())
    } else {
        config
    };
    let threshold = config.delivery_threshold;
    let broker = Arc::new(
        Broker::start(Arc::clone(&matcher), config)
            .with_quality_sampling(every, Box::new(oracle.clone())),
    );
    let receivers: Vec<_> = subscriptions
        .iter()
        .map(|s| broker.subscribe(s.clone()).expect("subscribe").1)
        .collect();
    if let Some(state) = force_state {
        // Warm every pair's semantic caches at full fidelity first — the
        // shared Arc means the broker's workers see the same caches — so
        // `CacheOnly` measures the warm-cache rung, not a cold start.
        for sub in subscriptions {
            for event in events {
                let _ = matcher.match_event(sub, event);
            }
        }
        broker.force_load_state(Some(state));
    }
    observer(name, &broker);
    for _ in 0..rounds {
        for e in events {
            broker.publish(e.clone()).expect("publish");
        }
    }
    broker.flush_timeout(FLUSH_DEADLINE).expect("flush");
    let report = broker.quality().expect("quality sampling is installed");
    for rx in &receivers {
        while rx.try_recv().is_ok() {}
    }
    broker.close();

    // Offline: the exact population the live sampler drew from — every
    // subscription × event pair the oracle can judge, decided by the
    // same matcher at the same delivery threshold.
    let offline = thresholded_effectiveness(subscriptions.iter().flat_map(|sub| {
        let matcher = &matcher;
        events.iter().filter_map(move |event| {
            let relevant = oracle.judge(sub, event)?;
            let result = matcher.match_event(sub, event);
            let predicted = !result.is_empty() && result.is_match(threshold);
            Some((predicted, relevant))
        })
    }));

    let f1_gap = (report.f1 - offline.f1).abs();
    // The half-width floor keeps exact agreement (gap 0, degenerate CI)
    // from reading as a violation.
    let within_ci = f1_gap <= report.f1_ci_half_width().max(1e-9);
    QualityScenario {
        name: name.to_string(),
        sample_every: report.sample_every,
        samples: report.judged(),
        unknown: report.unknown,
        live_precision: report.precision,
        live_recall: report.recall,
        live_f1: report.f1,
        live_f1_ci_lo: report.f1_ci.0,
        live_f1_ci_hi: report.f1_ci.1,
        offline_precision: offline.precision,
        offline_recall: offline.recall,
        offline_f1: offline.f1,
        f1_gap,
        within_ci,
        drift_alerts: report.drift.len() as u64,
    }
}

/// Runs the standard quality scenarios at the seed bench's scale:
///
/// * `quality_exact_k1` — exact matcher, every match test sampled: the
///   live confusion matrix is a whole-number multiple of the offline
///   one, so live and offline F1 must be *identical*;
/// * `quality_exact_k100` — the production-shaped configuration
///   (1-in-100 sampling over enough rounds for ~200 samples): live F1
///   must agree with offline within its confidence interval;
/// * `quality_thematic_k1` — the thematic matcher with themed traffic,
///   exercising approximate scores and the cache-temperature path;
/// * `quality_degraded_cache_only` / `quality_degraded_exact_only` — the
///   thematic matcher (memo-cached) with the broker pinned to
///   `Overloaded` / `Critical`, measuring the live-F1 cost of each
///   degraded matching rung against the full-fidelity offline replay
///   (`f1_gap`). Not part of `ci/quality_baseline.json`.
pub fn run_quality_scenarios() -> Vec<QualityScenario> {
    run_quality_scenarios_observed(&|_, _| {})
}

/// [`run_quality_scenarios`] with an observer that receives each
/// scenario's live broker before its first publish (how `probe bench
/// --serve` points `/quality` and `/top` at the running scenario).
pub fn run_quality_scenarios_observed(observer: &ScenarioObserver) -> Vec<QualityScenario> {
    let cfg = EvalConfig::tiny();
    let stack = MatcherStack::build(&cfg);
    let workload = Workload::generate(&cfg);
    let oracle = GroundTruthOracle::from_workload(&workload);
    let th = Thesaurus::eurovoc_like();
    let domain_tags: Vec<String> = Domain::ALL
        .iter()
        .map(|d| th.top_terms(*d)[0].as_str().to_string())
        .collect();

    let base_events: Vec<Event> = workload.events().iter().take(128).cloned().collect();
    let base_subs: Vec<Subscription> = workload.subscriptions().iter().take(8).cloned().collect();
    let themed_events: Vec<Event> = base_events
        .iter()
        .map(|e| e.with_theme_tags(domain_tags.clone()))
        .collect();
    let themed_subs: Vec<Subscription> = base_subs
        .iter()
        .map(|s| s.with_theme_tags(domain_tags.clone()))
        .collect();

    vec![
        run_quality_scenario(
            "quality_exact_k1",
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default().with_workers(2),
            &oracle,
            &base_subs,
            &base_events,
            1,
            2,
            None,
            observer,
        ),
        run_quality_scenario(
            "quality_exact_k100",
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default().with_workers(2),
            &oracle,
            &base_subs,
            &base_events,
            100,
            24,
            None,
            observer,
        ),
        run_quality_scenario(
            "quality_thematic_k1",
            Arc::new(stack.thematic()),
            BrokerConfig::default().with_workers(2),
            &oracle,
            &themed_subs,
            &themed_events,
            1,
            1,
            None,
            observer,
        ),
        run_quality_scenario(
            "quality_degraded_cache_only",
            Arc::new(stack.thematic_cached()),
            BrokerConfig::default().with_workers(2),
            &oracle,
            &themed_subs,
            &themed_events,
            1,
            1,
            Some(LoadState::Overloaded),
            observer,
        ),
        run_quality_scenario(
            "quality_degraded_exact_only",
            Arc::new(stack.thematic_cached()),
            BrokerConfig::default().with_workers(2),
            &oracle,
            &themed_subs,
            &themed_events,
            1,
            1,
            Some(LoadState::Critical),
            observer,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(within_ci: bool) -> QualityScenario {
        QualityScenario {
            name: "s".into(),
            sample_every: 100,
            samples: 210,
            unknown: 3,
            live_precision: 0.9,
            live_recall: 0.8,
            live_f1: 0.847,
            live_f1_ci_lo: 0.78,
            live_f1_ci_hi: 0.91,
            offline_precision: 0.88,
            offline_recall: 0.81,
            offline_f1: 0.843,
            f1_gap: 0.004,
            within_ci,
            drift_alerts: 0,
        }
    }

    #[test]
    fn json_is_well_formed_and_machine_readable() {
        let doc = render_json(&[sample(true), sample(false)]);
        let parsed: serde_json::JsonValue = serde_json::from_str(&doc).expect("valid JSON");
        let root = parsed.as_map().expect("object root");
        let scenarios = serde::value_get(root, "scenarios")
            .and_then(|v| v.as_seq())
            .expect("scenario array");
        assert_eq!(scenarios.len(), 2);
        let first = scenarios[0].as_map().expect("scenario object");
        let field = |k: &str| serde::value_get(first, k).expect(k);
        assert_eq!(field("name").as_str(), Some("s"));
        assert_eq!(field("sample_every").as_u64(), Some(100));
        assert_eq!(field("samples").as_u64(), Some(210));
        assert_eq!(field("live_f1").as_f64(), Some(0.847));
        assert_eq!(field("offline_f1").as_f64(), Some(0.843));
        assert_eq!(field("within_ci").as_bool(), Some(true));
        let second = scenarios[1].as_map().expect("scenario object");
        assert_eq!(
            serde::value_get(second, "within_ci").and_then(|v| v.as_bool()),
            Some(false)
        );
    }

    #[test]
    fn summary_flags_ci_violations() {
        assert!(!sample(true).summary().contains("OUTSIDE CI"));
        assert!(sample(false).summary().contains("OUTSIDE CI"));
        assert!(sample(true).summary().contains("1-in-100"));
    }

    #[test]
    fn exact_k1_live_equals_offline_exactly() {
        // The fundamental estimator property at 1-in-1 sampling: live
        // and offline pool the same decisions, so the F1s are equal to
        // the last bit, not merely within CI.
        let cfg = EvalConfig::tiny();
        let workload = Workload::generate(&cfg);
        let oracle = GroundTruthOracle::from_workload(&workload);
        let subs: Vec<Subscription> = workload.subscriptions().iter().take(4).cloned().collect();
        let events: Vec<Event> = workload.events().iter().take(48).cloned().collect();
        let s = run_quality_scenario(
            "test_exact_k1",
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default().with_workers(2),
            &oracle,
            &subs,
            &events,
            1,
            1,
            None,
            &|_, _| {},
        );
        assert!(s.samples > 0, "every match test is sampled");
        assert_eq!(s.live_f1, s.offline_f1, "{s:?}");
        assert_eq!(s.live_precision, s.offline_precision);
        assert_eq!(s.live_recall, s.offline_recall);
        assert_eq!(s.f1_gap, 0.0);
        assert!(s.within_ci);
    }
}

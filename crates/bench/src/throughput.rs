//! End-to-end broker throughput scenarios with machine-readable output.
//!
//! `probe bench` runs these and writes `BENCH_throughput.json`, the file
//! CI's bench smoke step regenerates so throughput regressions show up as
//! a diff. Each scenario reports events/sec **and** the semantic cache
//! counters sampled from the matcher, so cache-efficiency regressions are
//! visible alongside raw throughput.

use std::sync::Arc;
use std::time::Instant;
use tep::prelude::*;
use tep_eval::{EvalConfig, MatcherStack, Workload};

use crate::harness::{bench_workers, domain_tags, publish_paced, publish_round, FLUSH_DEADLINE};

/// Percentile summary of one pipeline stage's latency histogram
/// (nanosecond units), as reported in `BENCH_throughput.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePercentiles {
    /// Stage name (`queue_wait`, `match`, `match_exact`,
    /// `match_thematic`, `match_cached`, or `deliver`).
    pub stage: String,
    /// Samples recorded into the stage histogram.
    pub count: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// Largest recorded latency in nanoseconds.
    pub max_ns: u64,
}

impl StagePercentiles {
    fn from_snapshot(stage: &str, snap: &HistogramSnapshot) -> StagePercentiles {
        StagePercentiles {
            stage: stage.to_string(),
            count: snap.count(),
            p50_ns: snap.p50().as_nanos() as u64,
            p95_ns: snap.p95().as_nanos() as u64,
            p99_ns: snap.p99().as_nanos() as u64,
            max_ns: snap.max().as_nanos() as u64,
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"stage\":\"{}\",\"count\":{},\"p50_ns\":{},",
                "\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}"
            ),
            self.stage, self.count, self.p50_ns, self.p95_ns, self.p99_ns, self.max_ns,
        )
    }

    /// One human-readable line (microsecond units for legibility).
    pub fn summary(&self) -> String {
        format!(
            "  stage {:<14} n={:<7} p50={:>9.1}µs p95={:>9.1}µs p99={:>9.1}µs max={:>9.1}µs",
            self.stage,
            self.count,
            self.p50_ns as f64 / 1e3,
            self.p95_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.max_ns as f64 / 1e3,
        )
    }
}

/// Builds the standard per-stage percentile list from a broker's stage
/// latency snapshot: queue wait, combined match, the three match
/// classes, and deliver.
pub fn stage_percentiles(stages: &StageLatencies) -> Vec<StagePercentiles> {
    vec![
        StagePercentiles::from_snapshot("queue_wait", &stages.queue_wait),
        StagePercentiles::from_snapshot("match", &stages.match_combined()),
        StagePercentiles::from_snapshot("match_exact", &stages.match_exact),
        StagePercentiles::from_snapshot("match_thematic", &stages.match_thematic),
        StagePercentiles::from_snapshot("match_cached", &stages.match_cached),
        StagePercentiles::from_snapshot("deliver", &stages.deliver),
    ]
}

/// The measured outcome of one broker scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioThroughput {
    /// Scenario name (stable identifier, used as the JSON key).
    pub name: String,
    /// Events published (and fully processed).
    pub events: u64,
    /// Wall-clock seconds from first publish to drained queue.
    pub elapsed_secs: f64,
    /// `events / elapsed_secs`.
    pub events_per_sec: f64,
    /// Subscription × event match tests actually executed.
    pub match_tests: u64,
    /// Notifications delivered.
    pub notifications: u64,
    /// Pairs skipped by theme-overlap routing (0 under broadcast).
    pub routing_skipped: u64,
    /// Heap allocations recorded during the publish+drain window.
    /// Non-zero only under a binary that registers the counting
    /// allocator (`probe` does; see `tep_bench::alloc`).
    pub allocations: u64,
    /// `allocations / events` — the per-event heap cost of the scenario.
    pub allocs_per_event: f64,
    /// Semantic cache counters sampled after the run.
    pub cache: CacheStats,
    /// Per-stage latency percentiles sampled after the run.
    pub stages: Vec<StagePercentiles>,
    /// The scenario broker's full Prometheus-text metrics export, taken
    /// after the drain (kept out of the JSON document; `probe bench`
    /// writes one scenario's export to `BENCH_metrics.prom`).
    pub prometheus: String,
}

impl ScenarioThroughput {
    /// One JSON object (no trailing newline).
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"events\":{},\"elapsed_secs\":{:.6},",
                "\"events_per_sec\":{:.1},\"match_tests\":{},\"notifications\":{},",
                "\"routing_skipped\":{},\"allocations\":{},\"allocs_per_event\":{:.2},",
                "\"cache_hits\":{},\"cache_misses\":{},",
                "\"cache_evictions\":{},\"cache_hit_rate\":{:.4},\"stages\":[{}]}}"
            ),
            self.name,
            self.events,
            self.elapsed_secs,
            self.events_per_sec,
            self.match_tests,
            self.notifications,
            self.routing_skipped,
            self.allocations,
            self.allocs_per_event,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.hit_rate(),
            self.stages
                .iter()
                .map(StagePercentiles::to_json)
                .collect::<Vec<_>>()
                .join(","),
        )
    }

    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{:<26} {:>8.0} ev/s  ({} events, {:.2}s)  tests={} skipped={} \
             allocs/ev={:.1} cache-hit={:.1}%",
            self.name,
            self.events_per_sec,
            self.events,
            self.elapsed_secs,
            self.match_tests,
            self.routing_skipped,
            self.allocs_per_event,
            self.cache.hit_rate() * 100.0,
        )
    }
}

/// Renders the scenario list as the `BENCH_throughput.json` document.
pub fn render_json(results: &[ScenarioThroughput]) -> String {
    let mut out = String::from("{\n  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&r.to_json());
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the per-scenario allocation report (`BENCH_alloc.json`, the CI
/// artifact behind the zero-alloc guarantee): heap allocations recorded
/// over each scenario's publish+drain window and the per-event ratio.
pub fn render_alloc_json(results: &[ScenarioThroughput]) -> String {
    let mut out = String::from("{\n  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\":\"{}\",\"events\":{},\"allocations\":{},\"allocs_per_event\":{:.2}}}",
            r.name, r.events, r.allocations, r.allocs_per_event,
        ));
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Hook invoked with each scenario's broker right after the subscriptions
/// register and before the first publish — how the probe's `--serve` mode
/// points the live scrape endpoints at whichever broker is currently
/// benching. The no-op observer costs nothing.
pub type ScenarioObserver = dyn Fn(&str, &Arc<Broker>) + Sync;

/// Publishes `events` through a fresh broker `rounds` times and measures
/// the drain.
fn run_scenario<M>(
    name: &str,
    matcher: Arc<M>,
    config: BrokerConfig,
    subscriptions: &[Subscription],
    events: &[Event],
    rounds: usize,
    observer: &ScenarioObserver,
) -> ScenarioThroughput
where
    M: Matcher + Send + Sync + 'static,
{
    let broker = Arc::new(Broker::start(matcher, config));
    let receivers: Vec<_> = subscriptions
        .iter()
        .map(|s| broker.subscribe(s.clone()).expect("subscribe").1)
        .collect();
    // Wrap once outside the timed region; each round then shares the same
    // `Arc<Event>` allocations instead of deep-cloning per publish.
    let arc_events: Vec<Arc<Event>> = events.iter().cloned().map(Arc::new).collect();
    observer(name, &broker);
    // One untimed warm-up round: the scenarios measure the steady-state
    // hot path (warm semantic caches, grown scratch buffers). Cold-start
    // behaviour is a separate eval experiment, not a throughput headline;
    // folding it into the timed window would also queue every timed event
    // behind the slow cold tests at the head of the backlog.
    publish_round(&broker, &arc_events);
    let warmup_stages = broker.stage_latencies();
    let mut elapsed = 0.0;
    let allocations = crate::alloc::count_window(
        || (),
        |_| {
            let start = Instant::now();
            publish_paced(&broker, &arc_events, rounds);
            elapsed = start.elapsed().as_secs_f64().max(1e-9);
        },
    );
    let stats = broker.stats();
    let stages = stage_percentiles(&broker.stage_latencies().delta_since(&warmup_stages));
    let prometheus = broker.metrics().render_prometheus();
    for rx in &receivers {
        // Drain so the channel teardown is uniform across scenarios.
        while rx.try_recv().is_ok() {}
    }
    // An observer may still hold a clone (the scrape server keeps serving
    // the last scenario's counters); close the intake here and let the
    // final `Arc` drop join the threads.
    broker.close();
    let events_total = (events.len() * rounds) as u64;
    ScenarioThroughput {
        name: name.to_string(),
        events: events_total,
        elapsed_secs: elapsed,
        events_per_sec: events_total as f64 / elapsed,
        match_tests: stats.match_tests,
        notifications: stats.notifications,
        routing_skipped: stats.routing_skipped,
        allocations,
        allocs_per_event: allocations as f64 / events_total.max(1) as f64,
        cache: stats.semantic_cache,
        stages,
        prometheus,
    }
}

/// Runs the standard broker scenarios at the seed bench's scale:
///
/// * `seed_exact_broadcast` — exact matcher, pure middleware overhead;
/// * `seed_thematic_broadcast` — the thematic matcher against every
///   subscription (the paper's configuration, and the PR-over-PR
///   throughput headline);
/// * `thematic_theme_routed` — the same thematic matcher with
///   single-domain themes and `RoutingPolicy::ThemeOverlap`, showing what
///   theme-indexed routing saves;
/// * `faulty_exact_1pct` — the supervised-runtime overhead scenario: ~1%
///   of events panic in the matcher.
pub fn run_broker_scenarios() -> Vec<ScenarioThroughput> {
    run_broker_scenarios_observed(&|_, _| {})
}

/// [`run_broker_scenarios`] with an observer that receives each
/// scenario's live broker before its first publish.
pub fn run_broker_scenarios_observed(observer: &ScenarioObserver) -> Vec<ScenarioThroughput> {
    let workers = bench_workers();
    let cfg = EvalConfig::tiny();
    let stack = MatcherStack::build(&cfg);
    let workload = Workload::generate(&cfg);
    let domain_tags = domain_tags();

    let base_events: Vec<Event> = workload.events().iter().take(128).cloned().collect();
    let base_subs: Vec<Subscription> = workload.subscriptions().iter().take(8).cloned().collect();

    // Seed scenario theming: every event and subscription carries the
    // one-tag-per-domain set, exactly like the criterion broker bench.
    let themed_events: Vec<Event> = base_events
        .iter()
        .map(|e| e.with_theme_tags(domain_tags.clone()))
        .collect();
    let themed_subs: Vec<Subscription> = base_subs
        .iter()
        .map(|s| s.with_theme_tags(domain_tags.clone()))
        .collect();

    // Routed scenario theming: one domain per side, round-robin, so an
    // event overlaps ~1/6 of the subscriptions and routing has something
    // to skip.
    let routed_events: Vec<Event> = base_events
        .iter()
        .enumerate()
        .map(|(i, e)| e.with_theme_tags([domain_tags[i % domain_tags.len()].clone()]))
        .collect();
    let routed_subs: Vec<Subscription> = base_subs
        .iter()
        .enumerate()
        .map(|(i, s)| s.with_theme_tags([domain_tags[i % domain_tags.len()].clone()]))
        .collect();

    vec![
        run_scenario(
            "seed_exact_broadcast",
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default().with_workers(workers),
            &base_subs,
            &base_events,
            16,
            observer,
        ),
        run_scenario(
            "seed_thematic_broadcast",
            // The broker's production thematic configuration: score memo +
            // per-worker L1 in front of the PVSM. The uncached variant
            // recomputes a sparse euclidean distance per warm cell, which
            // is an eval configuration, not the deployed hot path.
            Arc::new(stack.thematic_cached()),
            BrokerConfig::default().with_workers(workers),
            &themed_subs,
            &themed_events,
            4,
            observer,
        ),
        run_scenario(
            "thematic_theme_routed",
            Arc::new(stack.thematic_cached()),
            BrokerConfig::default()
                .with_workers(workers)
                .with_routing_policy(RoutingPolicy::ThemeOverlap),
            &routed_subs,
            &routed_events,
            4,
            observer,
        ),
        run_scenario(
            "faulty_exact_1pct",
            Arc::new(FaultInjectingMatcher::new(
                ExactMatcher::new(),
                FaultConfig::none(0xBE7C).with_panic_rate(0.01),
            )),
            BrokerConfig::default()
                .with_workers(workers)
                .with_max_match_attempts(1),
            &base_subs,
            &base_events,
            16,
            observer,
        ),
    ]
}

/// Runs a small fully instrumented thematic broker (explanation ring on,
/// 1-in-4 span sampling) and returns the `(explanations, spans)` JSON
/// documents — the `BENCH_explain.json` / `BENCH_spans.json` artifacts.
///
/// Deliberately separate from the throughput scenarios: those run with
/// observability off so the committed perf baseline measures the
/// unobserved hot path.
pub fn instrumented_dump(observer: &ScenarioObserver) -> (String, String) {
    let cfg = EvalConfig::tiny();
    let stack = MatcherStack::build(&cfg);
    let workload = Workload::generate(&cfg);
    let domain_tags = domain_tags();
    let events: Vec<Event> = workload
        .events()
        .iter()
        .take(32)
        .map(|e| e.with_theme_tags(domain_tags.clone()))
        .collect();
    let subs: Vec<Subscription> = workload
        .subscriptions()
        .iter()
        .take(4)
        .map(|s| s.with_theme_tags(domain_tags.clone()))
        .collect();
    let config = BrokerConfig::default()
        .with_workers(2)
        .with_explain_capacity(256)
        .with_span_sampling(4);
    let broker = Arc::new(Broker::start(Arc::new(stack.thematic()), config));
    let receivers: Vec<_> = subs
        .iter()
        .map(|s| broker.subscribe(s.clone()).expect("subscribe").1)
        .collect();
    observer("instrumented_dump", &broker);
    for e in &events {
        broker.publish(e.clone()).expect("publish");
    }
    broker.flush_timeout(FLUSH_DEADLINE).expect("flush");
    let explanations = render_explanations_json(&broker.explain_last(256));
    let spans = render_spans_json(&broker.spans());
    for rx in &receivers {
        while rx.try_recv().is_ok() {}
    }
    broker.close();
    (explanations, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioThroughput {
        ScenarioThroughput {
            name: "s".into(),
            events: 10,
            elapsed_secs: 0.5,
            events_per_sec: 20.0,
            match_tests: 80,
            notifications: 3,
            routing_skipped: 2,
            allocations: 40,
            allocs_per_event: 4.0,
            cache: CacheStats {
                hits: 3,
                misses: 1,
                evictions: 0,
                entries: 4,
                pinned: 0,
            },
            stages: vec![StagePercentiles {
                stage: "queue_wait".into(),
                count: 10,
                p50_ns: 1_000,
                p95_ns: 5_000,
                p99_ns: 9_000,
                max_ns: 12_000,
            }],
            prometheus: String::new(),
        }
    }

    #[test]
    fn json_is_well_formed_and_machine_readable() {
        let doc = render_json(&[sample(), sample()]);
        let parsed: serde_json::JsonValue = serde_json::from_str(&doc).expect("valid JSON");
        let root = parsed.as_map().expect("object root");
        let scenarios = serde::value_get(root, "scenarios")
            .and_then(|v| v.as_seq())
            .expect("scenario array");
        assert_eq!(scenarios.len(), 2);
        let first = scenarios[0].as_map().expect("scenario object");
        let field = |k: &str| serde::value_get(first, k).expect(k);
        assert_eq!(field("name").as_str(), Some("s"));
        assert_eq!(field("events_per_sec").as_f64(), Some(20.0));
        assert_eq!(field("cache_hits").as_u64(), Some(3));
        assert_eq!(field("cache_hit_rate").as_f64(), Some(0.75));
        assert_eq!(field("allocations").as_u64(), Some(40));
        assert_eq!(field("allocs_per_event").as_f64(), Some(4.0));
        let stages = field("stages").as_seq().expect("stage array");
        assert_eq!(stages.len(), 1);
        let stage = stages[0].as_map().expect("stage object");
        let sfield = |k: &str| serde::value_get(stage, k).expect(k);
        assert_eq!(sfield("stage").as_str(), Some("queue_wait"));
        assert_eq!(sfield("p95_ns").as_u64(), Some(5_000));
        assert_eq!(sfield("max_ns").as_u64(), Some(12_000));
    }

    #[test]
    fn alloc_report_is_valid_json_with_per_event_ratio() {
        let doc = render_alloc_json(&[sample()]);
        let parsed: serde_json::JsonValue = serde_json::from_str(&doc).expect("valid JSON");
        let root = parsed.as_map().expect("object root");
        let scenarios = serde::value_get(root, "scenarios")
            .and_then(|v| v.as_seq())
            .expect("scenario array");
        let first = scenarios[0].as_map().expect("scenario object");
        let field = |k: &str| serde::value_get(first, k).expect(k);
        assert_eq!(field("allocations").as_u64(), Some(40));
        assert_eq!(field("allocs_per_event").as_f64(), Some(4.0));
    }

    #[test]
    fn stage_summary_is_microsecond_scaled() {
        let line = sample().stages[0].summary();
        assert!(line.contains("queue_wait"));
        assert!(line.contains("p95=      5.0µs"));
    }

    #[test]
    fn summary_mentions_throughput_and_hit_rate() {
        let line = sample().summary();
        assert!(line.contains("ev/s"));
        assert!(line.contains("cache-hit=75.0%"));
    }
}

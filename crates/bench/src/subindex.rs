//! Million-subscriber aggregation benchmark → `BENCH_subindex.json`.
//!
//! The subscription index hash-conses duplicate subscriptions onto shared
//! entries, so dispatch cost scales with **distinct** subscriptions, not
//! registered ones. This scenario demonstrates exactly that: a fixed pool
//! of distinct predicate sets (half of them exact-subset covering pairs)
//! is cycled over the subscriber count, and the same event stream is
//! dispatched at 1 000 and at 1 000 000 subscribers. Both populations
//! collapse to the same index entries, so match tests per event — and,
//! to within delivery fan-out on the rare hits, events/sec — should be
//! nearly identical. The paired runs make the claim machine-checkable:
//! `ratio_vs_small < 1` quantifies the residual large-population cost and
//! `ci/perf_gate.sh` holds the floor at 0.5×.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tep::broker::json_document;
use tep::prelude::*;

/// Distinct predicate sets in the pool: `POOL_BASES` single-predicate
/// sets plus one two-predicate superset of each (the covering pairs).
const POOL_BASES: usize = 256;

/// Theme tags cycled across the pool (with a theme-less stride mixed in)
/// so the index carries themed and broadcast entries alike.
const THEME_POOL: [&str; 8] = [
    "power",
    "transport",
    "water",
    "networking",
    "lighting",
    "parking",
    "waste",
    "safety",
];

/// Timed events per measured run.
const EVENTS: usize = 2_048;

/// Events per publish burst (same pacing rationale as the throughput
/// scenarios; see DESIGN.md §15).
const BURST: usize = 128;

/// Every `HIT_STRIDE`-th event matches exactly one single-predicate pool
/// entry; everything else misses the entire index. Low on purpose: the
/// scenario measures match-test scaling, and a hit at 10⁶ subscribers
/// fans out to ~2 000 deliveries on its own.
const HIT_STRIDE: usize = 64;

/// Backlog drain deadline; generous for slow CI machines.
const FLUSH_DEADLINE: Duration = Duration::from_secs(300);

/// One subscriber-scale measurement of the aggregation scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubindexRun {
    /// Registered subscriptions.
    pub subscribers: u64,
    /// Hash-consed index entries actually serving dispatch.
    pub index_entries: u64,
    /// Distinct predicate sets among the subscribers.
    pub distinct_subscriptions: u64,
    /// Events published in the timed window.
    pub events: u64,
    /// Wall-clock seconds for the timed window.
    pub elapsed_secs: f64,
    /// `events / elapsed_secs`.
    pub events_per_sec: f64,
    /// Match tests executed in the timed window.
    pub match_tests: u64,
    /// `match_tests / events` — must track `index_entries`, not
    /// `subscribers`, or aggregation is broken.
    pub match_tests_per_event: f64,
    /// Candidate entries skipped by covering edges in the timed window.
    pub covered_skips: u64,
    /// Notifications delivered in the timed window.
    pub notifications: u64,
}

impl SubindexRun {
    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "subscribers_{:<9} {:>8.0} ev/s  entries={} tests/ev={:.1} \
             covered={} notifications={}",
            self.subscribers,
            self.events_per_sec,
            self.index_entries,
            self.match_tests_per_event,
            self.covered_skips,
            self.notifications,
        )
    }
}

/// The paired small/large measurement written to `BENCH_subindex.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubindexReport {
    /// The small-population reference run (1 000 subscribers).
    pub small: SubindexRun,
    /// The large-population run (1 000 000 subscribers by default;
    /// `TEP_SUBINDEX_SUBSCRIBERS` overrides for quick local iteration).
    pub large: SubindexRun,
}

impl SubindexReport {
    /// `large.events_per_sec / small.events_per_sec` — 1.0 means the
    /// extra 999 000 subscribers were free, the gate floor is 0.5.
    pub fn ratio_vs_small(&self) -> f64 {
        if self.small.events_per_sec <= 0.0 {
            return 0.0;
        }
        self.large.events_per_sec / self.small.events_per_sec
    }

    /// Renders the `BENCH_subindex.json` document.
    pub fn render_json(&self) -> String {
        json_document(&SubindexJson {
            small: self.small.clone(),
            large: self.large.clone(),
            ratio_vs_small: self.ratio_vs_small(),
        })
    }
}

/// The `BENCH_subindex.json` document.
#[derive(Serialize)]
struct SubindexJson {
    small: SubindexRun,
    large: SubindexRun,
    ratio_vs_small: f64,
}

/// The distinct subscription pool, built once and shared by reference
/// (`Arc`) across every registration that reuses an element — a million
/// registrations hold `2 × POOL_BASES` subscription allocations.
fn subscription_pool() -> Vec<Arc<Subscription>> {
    let mut pool = Vec::with_capacity(POOL_BASES * 2);
    for i in 0..POOL_BASES {
        // Every third base is theme-less (stays in the broadcast set);
        // the rest cycle the theme pool.
        let mut base = Subscription::builder();
        let mut cover = Subscription::builder();
        if i % 3 != 0 {
            let tag = THEME_POOL[i % THEME_POOL.len()];
            base = base.theme_tag(tag);
            cover = cover.theme_tag(tag);
        }
        let attr = format!("sensor{i}");
        pool.push(Arc::new(
            base.predicate_exact(&attr, "alert")
                .build()
                .expect("pool subscription"),
        ));
        // The exact superset: same predicate plus one more, same theme —
        // a live covering edge from the base entry.
        pool.push(Arc::new(
            cover
                .predicate_exact(&attr, "alert")
                .predicate_exact(&format!("zone{i}"), "north")
                .build()
                .expect("pool subscription"),
        ));
    }
    pool
}

/// The event stream: `1/HIT_STRIDE` of events match one single-predicate
/// entry, the rest miss every entry in the index.
fn event_stream() -> Vec<Arc<Event>> {
    (0..EVENTS)
        .map(|i| {
            let mut b = Event::builder()
                .theme_tag(THEME_POOL[i % THEME_POOL.len()])
                .tuple("seq", &format!("n{i}"));
            if i % HIT_STRIDE == 0 {
                let hit = (i / HIT_STRIDE) % POOL_BASES;
                b = b.tuple(&format!("sensor{hit}"), "alert");
            } else {
                b = b.tuple("sensor-none", "quiet");
            }
            Arc::new(b.build().expect("bench event"))
        })
        .collect()
}

/// Runs one population size: registers `subscribers` by cycling the
/// pool, warms the caches and scratch buffers, then times the stream.
fn run_population(subscribers: usize, events: &[Arc<Event>]) -> SubindexRun {
    // A bounded crossbeam channel preallocates its ring: at 10⁶
    // subscribers the default 4096-slot capacity would be hundreds of
    // gigabytes. The scenario drains receivers after the run, and the
    // default drop-oldest subscriber policy keeps full channels cheap.
    let config = BrokerConfig {
        notification_capacity: 8,
        ..BrokerConfig::default()
    };
    let broker = Arc::new(Broker::start(Arc::new(ExactMatcher::new()), config));
    let pool = subscription_pool();
    let receivers: Vec<_> = (0..subscribers)
        .map(|i| {
            broker
                .subscribe_arc(Arc::clone(&pool[i % pool.len()]))
                .expect("subscribe")
                .1
        })
        .collect();

    // Untimed warm-up: grows the per-worker dispatch scratch to the
    // index high-water mark and seeds the theme front cache.
    for e in events.iter().take(BURST) {
        broker.publish_arc(Arc::clone(e)).expect("publish");
    }
    broker.flush_timeout(FLUSH_DEADLINE).expect("warmup flush");

    let before = broker.stats();
    let start = Instant::now();
    for burst in events.chunks(BURST) {
        for e in burst {
            broker.publish_arc(Arc::clone(e)).expect("publish");
        }
        broker.flush_timeout(FLUSH_DEADLINE).expect("flush");
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let stats = broker.stats();
    for rx in &receivers {
        while rx.try_recv().is_ok() {}
    }
    broker.close();

    let events_total = events.len() as u64;
    let match_tests = stats.match_tests - before.match_tests;
    SubindexRun {
        subscribers: subscribers as u64,
        index_entries: stats.index_entries,
        distinct_subscriptions: stats.distinct_subscriptions,
        events: events_total,
        elapsed_secs: elapsed,
        events_per_sec: events_total as f64 / elapsed,
        match_tests,
        match_tests_per_event: match_tests as f64 / events_total.max(1) as f64,
        covered_skips: stats.covered_skips - before.covered_skips,
        notifications: stats.notifications - before.notifications,
    }
}

/// Large-population subscriber count: 1 000 000, or the
/// `TEP_SUBINDEX_SUBSCRIBERS` override (for quick local iteration).
pub fn large_population() -> usize {
    std::env::var("TEP_SUBINDEX_SUBSCRIBERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1_000_000)
}

/// Runs the paired 1k / 1M measurement.
pub fn run_subindex_scenarios() -> SubindexReport {
    let events = event_stream();
    let small = run_population(1_000, &events);
    let large = run_population(large_population(), &events);
    SubindexReport { small, large }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_distinct_and_paired() {
        let pool = subscription_pool();
        assert_eq!(pool.len(), POOL_BASES * 2);
        for pair in pool.chunks(2) {
            assert_eq!(pair[0].predicates().len(), 1);
            assert_eq!(pair[1].predicates().len(), 2);
            // The superset shares the base predicate and the theme, so
            // the index links them with a covering edge.
            assert_eq!(
                pair[0].predicates()[0].attribute(),
                pair[1].predicates()[0].attribute()
            );
            assert_eq!(pair[0].theme_tags(), pair[1].theme_tags());
        }
    }

    #[test]
    fn tiny_population_pair_holds_the_aggregation_invariants() {
        // A miniature of the real scenario (fast enough for tier-1): the
        // same stream at 100 and at 2 000 subscribers must collapse to
        // the identical entry set and match-test count.
        let events: Vec<Arc<Event>> = event_stream().into_iter().take(256).collect();
        let small = run_population(100, &events);
        let large = run_population(2_000, &events);
        assert_eq!(small.index_entries, 100);
        assert_eq!(large.index_entries, POOL_BASES as u64 * 2);
        assert_eq!(large.distinct_subscriptions, POOL_BASES as u64 * 2);
        assert!(
            large.match_tests_per_event <= large.index_entries as f64,
            "tests per event ({}) must be bounded by entries ({})",
            large.match_tests_per_event,
            large.index_entries
        );
        // Covering fires: every miss on a base entry prunes its superset.
        assert!(large.covered_skips > 0, "covering edges never fired");
    }
}

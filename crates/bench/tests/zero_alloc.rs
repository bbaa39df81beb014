//! Steady-state zero-allocation guarantee for the exact-match and warm
//! thematic hot paths.
//!
//! Registers the counting global allocator (the same `#[path]` include
//! the `probe` binary uses), warms a broker until every reusable buffer
//! has reached its high-water mark, then asserts that a sustained
//! publish→dequeue→match→drain run performs **zero** heap allocations:
//! the `Arc<Event>` is wrapped once by the caller, the channel ring and
//! worker batch/inflight/candidate scratches are pre-sized, stat shards
//! and histograms are wait-free fixed arrays, `ExactMatcher`'s no-match
//! verdict never touches the heap, and the thematic matcher's interning
//! fronts and score L1 allocate only on a thread's first sighting.
//!
//! The counter is process-global and the harness runs tests on parallel
//! threads, so every test measures through
//! `tep_bench::alloc::count_window`, which runs one window at a time.

#[path = "../src/counting_alloc.rs"]
mod counting_alloc;

use std::sync::Arc;
use std::time::Duration;
use tep::prelude::*;
use tep_eval::{EvalConfig, MatcherStack};

const FLUSH: Duration = Duration::from_secs(60);

/// Publishes 2048 copies of `event` and waits for the broker to drain —
/// the counted window of both tests.
fn publish_steady_state((broker, event): &(Broker, Arc<Event>)) {
    for _ in 0..2048 {
        broker.publish_arc(Arc::clone(event)).expect("publish");
    }
    broker.flush_timeout(FLUSH).expect("flush");
}

#[test]
fn exact_no_match_steady_state_allocates_nothing() {
    let allocated = tep_bench::alloc::count_window(
        || {
            let broker = Broker::start(
                Arc::new(ExactMatcher::new()),
                BrokerConfig::default().with_workers(1),
            );
            // A subscription that never matches: the steady state under
            // test is the dominant publish→match→miss path, which must
            // stay off the heap.
            let never = Subscription::builder()
                .predicate_exact("device", "never-present")
                .build()
                .expect("subscription");
            let (_id, _rx) = broker.subscribe(never).expect("subscribe");
            let event = Arc::new(
                Event::builder()
                    .tuple("device", "computer")
                    .tuple("office", "room 112")
                    .build()
                    .expect("event"),
            );

            // Warmup: first-touch growth (worker candidate scratch,
            // OS-level lazy init in mutexes/condvars) happens here,
            // outside the window.
            for _ in 0..512 {
                broker.publish_arc(Arc::clone(&event)).expect("publish");
            }
            broker.flush_timeout(FLUSH).expect("warmup flush");
            (broker, event)
        },
        publish_steady_state,
    );

    assert_eq!(
        allocated, 0,
        "steady-state exact no-match path performed {allocated} heap allocations \
         over 2048 events; the hot path must be allocation-free"
    );
}

/// A theme-routed broker on `config` plus the themed event of the
/// routed tests, warmed past every first-touch growth and one plan
/// rebuild.
fn theme_routed_rig(config: BrokerConfig) -> (Broker, Arc<Event>) {
    let broker = Broker::start(
        Arc::new(ExactMatcher::new()),
        config
            .with_workers(1)
            .with_routing_policy(RoutingPolicy::ThemeOverlap),
    );
    // A mixed population exercising every candidate source: two
    // themed subscriptions sharing a tag with the event (one a
    // predicate subset of the other, so a covering edge is live),
    // one disjoint theme that must be skipped without a test, and
    // one theme-less broadcast entry.
    let subs = [
        Subscription::builder()
            .theme_tag("power")
            .predicate_exact("device", "never-present")
            .build()
            .expect("subscription"),
        Subscription::builder()
            .theme_tag("power")
            .predicate_exact("device", "never-present")
            .predicate_exact("office", "nowhere")
            .build()
            .expect("subscription"),
        Subscription::builder()
            .theme_tag("transport")
            .predicate_exact("device", "never-present")
            .build()
            .expect("subscription"),
        Subscription::builder()
            .predicate_exact("office", "never-present")
            .build()
            .expect("subscription"),
    ];
    for sub in subs {
        let (_id, _rx) = broker.subscribe(sub).expect("subscribe");
    }
    let event = Arc::new(
        Event::builder()
            .theme_tag("power")
            .theme_tag("grid")
            .tuple("device", "computer")
            .tuple("office", "room 112")
            .build()
            .expect("event"),
    );

    // Warmup grows the dispatch scratch to the index high-water
    // mark and seeds the interner's theme front cache for this
    // tag list.
    for _ in 0..512 {
        broker.publish_arc(Arc::clone(&event)).expect("publish");
    }
    broker.flush_timeout(FLUSH).expect("warmup flush");
    // A write after warm-up stales the worker's cached candidate
    // plan; the next event rebuilds it. The window must then run on
    // the rebuilt plan without allocating.
    let late = Subscription::builder()
        .theme_tag("grid")
        .predicate_exact("office", "nowhere")
        .predicate_exact("device", "never-present")
        .build()
        .expect("subscription");
    let (_id, _rx) = broker.subscribe(late).expect("subscribe");
    broker.publish_arc(Arc::clone(&event)).expect("publish");
    broker.flush_timeout(FLUSH).expect("rebuild flush");
    // The late entry covers the first one, so the rebuilt plan
    // prunes it: two tests and now two covered skips per event.
    let stats = broker.stats();
    assert_eq!((stats.match_tests, stats.covered_skips), (513 * 2, 512 + 2));
    (broker, event)
}

#[test]
fn theme_routed_steady_state_allocates_nothing() {
    // The regression under test: the old routing table built a fresh
    // candidate `Vec` (plus a dedup set) per event on the ThemeOverlap
    // path. The subscription index serves candidates from the worker's
    // reusable scratch, so the routed path must now hold the same
    // zero-allocation guarantee as the broadcast path above — also after
    // a subscription write has forced a candidate plan rebuild.
    let allocated = tep_bench::alloc::count_window(
        || theme_routed_rig(BrokerConfig::default()),
        publish_steady_state,
    );

    assert_eq!(
        allocated, 0,
        "steady-state theme-routed no-match path performed {allocated} heap \
         allocations over 2048 events; candidate collection must reuse the \
         worker scratch"
    );
}

#[test]
fn attributed_theme_routed_steady_state_allocates_nothing() {
    // Labeled counts and cost attribution at k = 1 on the routed path:
    // every dispatch charges its entry and every event charges its two
    // theme rows, counts and sampled nanoseconds alike, and feeds the
    // theme and term sketches, all without allocating.
    let allocated = tep_bench::alloc::count_window(
        || {
            theme_routed_rig(
                BrokerConfig::default()
                    .with_labeled_metrics(true)
                    .with_cost_attribution(1),
            )
        },
        publish_steady_state,
    );

    assert_eq!(
        allocated, 0,
        "steady-state attributed theme-routed path performed {allocated} \
         heap allocations over 2048 events; attribution rows must be \
         charged in place"
    );
}

#[test]
fn thematic_rejected_steady_state_allocates_nothing() {
    // The warm semantic path: a themed, attribute-approximate
    // subscription makes every test intern through the worker's fronts
    // and probe the measure's score L1, then fail on the exact value
    // side. Warm-up fills the fronts, the L1, the event scope and the
    // matrix scratch; after that a rejected test must stay off the heap.
    let allocated = tep_bench::alloc::count_window(
        || {
            let stack = MatcherStack::build(&EvalConfig::tiny());
            let matcher = Arc::new(stack.thematic_cached());
            let broker = Broker::start(
                Arc::clone(&matcher),
                BrokerConfig::default().with_workers(1),
            );
            let never = Subscription::builder()
                .theme_tag("energy policy")
                .predicate_approx_attribute("device", "never-present")
                .predicate_approx_attribute("office", "never-present")
                .build()
                .expect("subscription");
            let (_id, rx) = broker.subscribe(never).expect("subscribe");
            let event = Arc::new(
                Event::builder()
                    .theme_tag("energy policy")
                    .tuple("device", "computer")
                    .tuple("office", "room 112")
                    .build()
                    .expect("event"),
            );

            for _ in 0..512 {
                broker.publish_arc(Arc::clone(&event)).expect("publish");
            }
            broker.flush_timeout(FLUSH).expect("warmup flush");
            assert!(rx.try_recv().is_err(), "the subscription must never match");
            assert_eq!(broker.stats().notifications, 0);
            assert!(
                matcher.measure().memo_stats().hits >= 512,
                "warm-up must exercise the semantic measure"
            );
            (broker, event)
        },
        publish_steady_state,
    );

    assert_eq!(
        allocated, 0,
        "steady-state thematic rejected path performed {allocated} heap \
         allocations over 2048 events; interning fronts and the score L1 \
         may allocate only on a thread's first sighting"
    );
}

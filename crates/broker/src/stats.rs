//! Broker runtime counters and per-stage latency instrumentation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tep_matcher::CacheStats;
use tep_obs::{HistogramSnapshot, LatencyHistogram};

/// Monotonic broker counters, cheap to read concurrently.
///
/// `live_workers` is the one gauge (it can go down); everything else only
/// ever increases. A counter a worker bumps per event or per match test
/// lives only in the per-worker [`WorkerShard`]s (no cross-core
/// cache-line ping-pong) and reads as `Σ shards`. The counters here are
/// written off the dispatch path (the supervisor, publish, quarantine,
/// reaping); `processed` and `worker_panics` have writers on both sides
/// and read as `base + Σ shards`.
#[derive(Debug)]
pub(crate) struct StatsInner {
    pub published: AtomicU64,
    pub processed: AtomicU64,
    pub worker_panics: AtomicU64,
    pub workers_respawned: AtomicU64,
    pub quarantined: AtomicU64,
    pub rejected_publishes: AtomicU64,
    pub disconnected_subscribers: AtomicU64,
    pub live_workers: AtomicU64,
    /// One shard per configured worker, selected by `index % len`. Never
    /// empty (the default layout has one shard).
    shards: Box<[WorkerShard]>,
}

impl Default for StatsInner {
    fn default() -> StatsInner {
        StatsInner::new(1)
    }
}

/// Hot-path counters and stage timers owned by a single worker.
///
/// Workers are the only writers of their own shard, so these atomics are
/// uncontended in steady state; readers merge all shards on demand.
/// Cache-line aligned so neighbouring shards never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct WorkerShard {
    pub processed: AtomicU64,
    pub match_tests: AtomicU64,
    pub notifications: AtomicU64,
    pub dropped_full: AtomicU64,
    pub dropped_disconnected: AtomicU64,
    pub worker_panics: AtomicU64,
    pub shed_deadline: AtomicU64,
    pub shed_load: AtomicU64,
    pub breaker_open: AtomicU64,
    pub breaker_trips: AtomicU64,
    pub routing_skipped: AtomicU64,
    pub routed_broadcast: AtomicU64,
    pub routed_theme_overlap: AtomicU64,
    pub covered_skips: AtomicU64,
    /// Per-stage latency histograms, recorded wait-free on the hot path.
    pub stage: StageTimers,
}

/// Lock-free per-stage latency histograms of the event pipeline. Workers
/// record into these concurrently; [`STAGES`] declares how each one is
/// read and exported.
#[derive(Debug, Default)]
pub(crate) struct StageTimers {
    /// Publish → dequeue: time an accepted event sat on the ingress queue.
    pub queue_wait: LatencyHistogram,
    /// Match tests that consulted no semantic measure.
    pub match_exact: LatencyHistogram,
    /// Match tests that consulted a measure and missed at least one
    /// semantic cache (paid a projection / vector computation).
    pub match_thematic: LatencyHistogram,
    /// Match tests that consulted a measure served entirely from warm
    /// semantic caches.
    pub match_cached: LatencyHistogram,
    /// Match decision → notification handed to the subscriber channel.
    pub deliver: LatencyHistogram,
}

/// A point-in-time snapshot of the broker's per-stage latency
/// distributions ([`crate::Broker::stage_latencies`]).
///
/// Match latency is split three ways at record time, by what the test
/// did on the worker's own thread: a test that consulted no semantic
/// measure (an exact-only subscription, or a matcher such as
/// `ExactMatcher` that ignores `~`) lands in
/// [`StageLatencies::match_exact`]; one that did is
/// [`StageLatencies::match_thematic`] when it paid at least one
/// semantic-cache miss and [`StageLatencies::match_cached`] when it was
/// served warm. Both signals are per-thread tallies
/// ([`tep_matcher::thread_measured_tests`] and the matcher's
/// `cache_miss_count`), so another worker's tests never move them.
/// Measures without caches report every measured test as cached; use
/// [`StageLatencies::match_combined`] when the split does not matter.
#[derive(Debug, Clone, Default)]
pub struct StageLatencies {
    /// Publish → dequeue queue-wait distribution.
    pub queue_wait: HistogramSnapshot,
    /// Latency of match tests that consulted no semantic measure.
    pub match_exact: HistogramSnapshot,
    /// Latency of measured match tests that missed a semantic cache.
    pub match_thematic: HistogramSnapshot,
    /// Latency of measured match tests served from warm caches.
    pub match_cached: HistogramSnapshot,
    /// Match decision → subscriber-channel hand-off latency.
    pub deliver: HistogramSnapshot,
}

impl StageLatencies {
    /// All match tests merged into one distribution, regardless of
    /// exact/thematic/cache classification.
    pub fn match_combined(&self) -> HistogramSnapshot {
        self.match_exact
            .merged(&self.match_thematic)
            .merged(&self.match_cached)
    }

    /// Per-stage counts recorded since `earlier` was snapshotted from the
    /// same broker — how the bench isolates steady-state stage latencies
    /// from warm-up traffic (see [`HistogramSnapshot::delta_since`] for
    /// the delta's `max` semantics).
    pub fn delta_since(&self, earlier: &StageLatencies) -> StageLatencies {
        StageLatencies {
            queue_wait: self.queue_wait.delta_since(&earlier.queue_wait),
            match_exact: self.match_exact.delta_since(&earlier.match_exact),
            match_thematic: self.match_thematic.delta_since(&earlier.match_thematic),
            match_cached: self.match_cached.delta_since(&earlier.match_cached),
            deliver: self.deliver.delta_since(&earlier.deliver),
        }
    }
}

/// Nanoseconds between two [`Instant`]s, saturating at zero; `u64` holds
/// ~584 years, so the cast cannot truncate a real measurement.
pub(crate) fn nanos_between(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos() as u64
}

/// A point-in-time snapshot of the broker's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerStats {
    /// Events accepted by [`crate::Broker::publish`].
    pub published: u64,
    /// Events a worker finished with: matched (whatever became of their
    /// notifications), shed at dequeue, or quarantined. Every accepted
    /// event ends up here exactly once.
    pub processed: u64,
    /// Individual subscription × event match tests executed.
    pub match_tests: u64,
    /// Notifications delivered to subscriber channels.
    pub notifications: u64,
    /// Notifications dropped because a subscriber channel was full.
    pub dropped_full: u64,
    /// Notifications dropped because the subscriber hung up.
    pub dropped_disconnected: u64,
    /// Matcher panics caught by worker isolation, plus worker threads
    /// that died to an uncaught panic.
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor after a panic death.
    pub workers_respawned: u64,
    /// Events moved to the dead-letter queue after exhausting their match
    /// attempts.
    pub quarantined: u64,
    /// Publishes refused by the ingress overload policy (queue full or
    /// publish timeout).
    pub rejected_publishes: u64,
    /// Subscriber registrations reaped (hung-up receiver, or the
    /// `DisconnectAfter` policy tripping).
    pub disconnected_subscribers: u64,
    /// Worker threads currently alive (a gauge, not a counter).
    pub live_workers: u64,
    /// Subscription × event pairs skipped without a match test by
    /// [`crate::RoutingPolicy::ThemeOverlap`] because the themes did not
    /// overlap. Always 0 under [`crate::RoutingPolicy::Broadcast`].
    pub routing_skipped: u64,
    /// Events whose candidate set was selected by full broadcast
    /// (either [`crate::RoutingPolicy::Broadcast`], or per-event
    /// fallbacks under theme routing).
    pub routed_broadcast: u64,
    /// Events whose candidate set was selected by the theme-overlap
    /// index under [`crate::RoutingPolicy::ThemeOverlap`].
    pub routed_theme_overlap: u64,
    /// Candidate index entries skipped without a match test by the
    /// covering relation: either pruned because a covered subset entry
    /// missed, or short-circuited because an equal-set twin hit.
    pub covered_skips: u64,
    /// Distinct canonical predicate multisets currently subscribed,
    /// irrespective of theme (a gauge, not a counter). This is what match
    /// cost scales with under subscription aggregation.
    pub distinct_subscriptions: u64,
    /// Live hash-consed index entries (distinct predicate multiset ×
    /// theme; a gauge, not a counter).
    pub index_entries: u64,
    /// Events shed at dequeue because their publish deadline had already
    /// expired (overload control, `Overloaded` and worse). Distinct from
    /// [`BrokerStats::dropped_full`]: shed events never reached matching.
    pub shed_deadline: u64,
    /// Events shed at dequeue because their priority fell below the
    /// configured floor (overload control, `Critical` only).
    pub shed_load: u64,
    /// Notifications dropped because the subscriber's circuit breaker was
    /// open — the subscriber queue was never probed for them.
    pub breaker_open: u64,
    /// Circuit-breaker Closed/Half-Open → Open transitions.
    pub breaker_trips: u64,
    /// Semantic-layer cache counters (projection and measure-memo
    /// caches), sampled from the matcher when the snapshot is taken. All
    /// zeros for matchers without caches.
    pub semantic_cache: CacheStats,
}

impl BrokerStats {
    /// Total notifications that could not be delivered, whatever the
    /// reason — the sum of [`BrokerStats::dropped_full`],
    /// [`BrokerStats::dropped_disconnected`], and
    /// [`BrokerStats::breaker_open`].
    pub fn delivery_failures(&self) -> u64 {
        self.dropped_full + self.dropped_disconnected + self.breaker_open
    }

    /// Events shed at dequeue by overload control, whatever the reason —
    /// the sum of [`BrokerStats::shed_deadline`] and
    /// [`BrokerStats::shed_load`]. These never reached a match test.
    pub fn shed_total(&self) -> u64 {
        self.shed_deadline + self.shed_load
    }
}

/// One [`BrokerStats`] counter or gauge: the one declaration `/metrics`,
/// `/metrics.json`, the flight-recorder frames and the windowed rates
/// render from.
#[derive(Debug)]
pub(crate) struct CounterRow {
    pub(crate) name: &'static str,
    /// Fixed label pairs (e.g. `reason="full"`).
    pub(crate) labels: &'static [(&'static str, &'static str)],
    pub(crate) help: &'static str,
    /// A gauge can go down; every other row is a counter.
    pub(crate) gauge: bool,
    pub(crate) read: fn(&BrokerStats) -> u64,
    /// Frame name; `None` keeps the row out of frames.
    pub(crate) frame: Option<&'static str>,
    /// Whether the frame counter also exports a windowed `_rate` gauge.
    pub(crate) rate: bool,
    /// Exported to `/metrics` only with overload control on (frames always).
    pub(crate) overload_only: bool,
}

impl CounterRow {
    const fn counter(
        name: &'static str,
        help: &'static str,
        read: fn(&BrokerStats) -> u64,
    ) -> Self {
        CounterRow {
            name,
            labels: &[],
            help,
            gauge: false,
            read,
            frame: None,
            rate: false,
            overload_only: false,
        }
    }

    const fn gauge(name: &'static str, help: &'static str, read: fn(&BrokerStats) -> u64) -> Self {
        let mut row = CounterRow::counter(name, help, read);
        row.gauge = true;
        row
    }

    const fn labeled(mut self, labels: &'static [(&'static str, &'static str)]) -> Self {
        self.labels = labels;
        self
    }

    const fn frame(mut self, frame: &'static str) -> Self {
        self.frame = Some(frame);
        self
    }

    /// A frame row with a windowed rate.
    const fn windowed(mut self, frame: &'static str) -> Self {
        self.rate = true;
        self.frame(frame)
    }

    const fn overload_only(mut self) -> Self {
        self.overload_only = true;
        self
    }
}

const DROPPED: &str = "Notifications dropped, by reason";
const SHED: &str = "Events shed at dequeue by overload control, by reason";
const ROUTED: &str = "Events whose candidate set was selected, by routing policy";

/// Every exported [`BrokerStats`] counter and gauge, in export and frame
/// order. A new counter is one field and one row here.
pub(crate) const COUNTERS: &[CounterRow] = &[
    CounterRow::counter("tep_published_total", "Events accepted by publish", |s| {
        s.published
    })
    .windowed("published"),
    CounterRow::counter(
        "tep_processed_total",
        "Events whose matching pass finished",
        |s| s.processed,
    )
    .windowed("processed"),
    CounterRow::counter(
        "tep_match_tests_total",
        "Subscription x event match tests executed",
        |s| s.match_tests,
    )
    .windowed("match_tests"),
    CounterRow::counter(
        "tep_notifications_total",
        "Notifications delivered to subscriber channels",
        |s| s.notifications,
    )
    .windowed("notifications"),
    CounterRow::counter(
        "tep_routing_skipped_total",
        "Match tests skipped by theme routing",
        |s| s.routing_skipped,
    )
    .windowed("routing_skipped"),
    CounterRow::counter("tep_routing_decisions_total", ROUTED, |s| {
        s.routed_broadcast
    })
    .labeled(&[("policy", "broadcast")]),
    CounterRow::counter("tep_routing_decisions_total", ROUTED, |s| {
        s.routed_theme_overlap
    })
    .labeled(&[("policy", "theme_overlap")]),
    CounterRow::counter(
        "tep_covered_skips_total",
        "Candidate index entries skipped by covering (subset miss or twin hit)",
        |s| s.covered_skips,
    ),
    CounterRow::counter(
        "tep_quarantined_total",
        "Events moved to the dead-letter queue",
        |s| s.quarantined,
    )
    .frame("quarantined"),
    CounterRow::counter(
        "tep_rejected_publishes_total",
        "Publishes refused by the ingress overload policy",
        |s| s.rejected_publishes,
    )
    .frame("rejected_publishes"),
    CounterRow::counter(
        "tep_dropped_full_total",
        "Notifications dropped on a full subscriber channel",
        |s| s.dropped_full,
    )
    .frame("dropped_full"),
    CounterRow::counter(
        "tep_dropped_disconnected_total",
        "Notifications dropped on a hung-up subscriber",
        |s| s.dropped_disconnected,
    )
    .frame("dropped_disconnected"),
    CounterRow::counter(
        "tep_worker_panics_total",
        "Matcher panics caught or fatal to a worker",
        |s| s.worker_panics,
    )
    .frame("worker_panics"),
    CounterRow::counter(
        "tep_workers_respawned_total",
        "Workers respawned by the supervisor",
        |s| s.workers_respawned,
    ),
    CounterRow::counter(
        "tep_disconnected_subscribers_total",
        "Subscriber registrations reaped",
        |s| s.disconnected_subscribers,
    ),
    CounterRow::counter("tep_shed_total", SHED, |s| s.shed_deadline)
        .labeled(&[("reason", "deadline")])
        .frame("shed_deadline")
        .overload_only(),
    CounterRow::counter("tep_shed_total", SHED, |s| s.shed_load)
        .labeled(&[("reason", "load")])
        .frame("shed_load")
        .overload_only(),
    CounterRow::counter("tep_dropped_total", DROPPED, |s| s.dropped_full)
        .labeled(&[("reason", "full")]),
    CounterRow::counter("tep_dropped_total", DROPPED, |s| s.dropped_disconnected)
        .labeled(&[("reason", "disconnected")]),
    CounterRow::counter("tep_dropped_total", DROPPED, |s| s.breaker_open)
        .labeled(&[("reason", "breaker_open")])
        .frame("breaker_open_drops")
        .overload_only(),
    CounterRow::counter(
        "tep_breaker_trips_total",
        "Subscriber circuit-breaker trips (transitions to Open)",
        |s| s.breaker_trips,
    )
    .frame("breaker_trips")
    .overload_only(),
    CounterRow::counter(
        "tep_semantic_cache_hits_total",
        "Semantic cache hits across the matcher's caches",
        |s| s.semantic_cache.hits,
    ),
    CounterRow::counter(
        "tep_semantic_cache_misses_total",
        "Semantic cache misses across the matcher's caches",
        |s| s.semantic_cache.misses,
    ),
    CounterRow::counter(
        "tep_semantic_cache_evictions_total",
        "Semantic cache entries dropped by rotation",
        |s| s.semantic_cache.evictions,
    ),
    CounterRow::gauge("tep_live_workers", "Worker threads currently alive", |s| {
        s.live_workers
    })
    .frame("live_workers"),
    CounterRow::gauge(
        "tep_semantic_cache_entries",
        "Resident semantic cache entries",
        |s| s.semantic_cache.entries,
    ),
    CounterRow::gauge(
        "tep_distinct_subscriptions",
        "Distinct canonical predicate multisets currently subscribed",
        |s| s.distinct_subscriptions,
    ),
    CounterRow::gauge(
        "tep_index_entries",
        "Live hash-consed subscription index entries",
        |s| s.index_entries,
    ),
];

/// Reads one stage's histogram out of a worker shard's timers.
pub(crate) type StageTimer = fn(&StageTimers) -> &LatencyHistogram;

/// One pipeline stage: the one declaration its `tep_stage_{name}_seconds`
/// histogram, `tep_stage_{name}_summary_seconds` summary (HELP plus
/// " (quantile summary)"), frame stage and windowed slice render from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageRow {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) timer: StageTimer,
}

/// Every pipeline stage, in export and frame order.
pub(crate) const STAGES: [StageRow; 5] = [
    StageRow {
        name: "queue_wait",
        help: "Publish to dequeue queue wait",
        timer: |t| &t.queue_wait,
    },
    StageRow {
        name: "match_exact",
        help: "Match-test latency, tests that consulted no semantic measure",
        timer: |t| &t.match_exact,
    },
    StageRow {
        name: "match_thematic",
        help: "Match-test latency, measured tests with at least one semantic-cache miss",
        timer: |t| &t.match_thematic,
    },
    StageRow {
        name: "match_cached",
        help: "Match-test latency, measured tests served from warm caches",
        timer: |t| &t.match_cached,
    },
    StageRow {
        name: "deliver",
        help: "Match decision to subscriber-channel hand-off",
        timer: |t| &t.deliver,
    },
];

impl StatsInner {
    /// A stats block with one [`WorkerShard`] per configured worker
    /// (at least one).
    pub(crate) fn new(workers: usize) -> StatsInner {
        StatsInner {
            published: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            rejected_publishes: AtomicU64::new(0),
            disconnected_subscribers: AtomicU64::new(0),
            live_workers: AtomicU64::new(0),
            shards: (0..workers.max(1))
                .map(|_| WorkerShard::default())
                .collect(),
        }
    }

    /// The shard worker `index` records into. Respawned workers carry
    /// monotonically growing indices, hence the modulo.
    pub(crate) fn shard(&self, index: usize) -> &WorkerShard {
        &self.shards[index % self.shards.len()]
    }

    /// `Σ shards` for a counter workers bump on the dispatch path.
    /// Alloc-free: `snapshot` runs inside the broker's 100µs flush poll.
    fn summed(&self, pick: impl Fn(&WorkerShard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| pick(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Stage latency distributions merged across every worker shard.
    pub(crate) fn stage_snapshot(&self) -> StageLatencies {
        StageLatencies {
            queue_wait: self.stage(|t| &t.queue_wait),
            match_exact: self.stage(|t| &t.match_exact),
            match_thematic: self.stage(|t| &t.match_thematic),
            match_cached: self.stage(|t| &t.match_cached),
            deliver: self.stage(|t| &t.deliver),
        }
    }

    /// One stage's histogram merged across every worker shard.
    pub(crate) fn stage(&self, timer: StageTimer) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        self.accumulate_stage(timer, &mut out);
        out
    }

    /// Accumulates one stage's histogram across every worker shard into
    /// a reused snapshot buffer without allocating — the flight
    /// recorder's frame-tick counterpart of [`StatsInner::stage`].
    pub(crate) fn accumulate_stage(&self, timer: StageTimer, out: &mut HistogramSnapshot) {
        for shard in self.shards.iter() {
            timer(&shard.stage).accumulate_into(out);
        }
    }

    pub(crate) fn snapshot(self: &Arc<Self>) -> BrokerStats {
        BrokerStats {
            published: self.published.load(Ordering::Relaxed),
            processed: self.processed.load(Ordering::Relaxed) + self.summed(|s| &s.processed),
            match_tests: self.summed(|s| &s.match_tests),
            notifications: self.summed(|s| &s.notifications),
            dropped_full: self.summed(|s| &s.dropped_full),
            dropped_disconnected: self.summed(|s| &s.dropped_disconnected),
            worker_panics: self.worker_panics.load(Ordering::Relaxed)
                + self.summed(|s| &s.worker_panics),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            rejected_publishes: self.rejected_publishes.load(Ordering::Relaxed),
            disconnected_subscribers: self.disconnected_subscribers.load(Ordering::Relaxed),
            live_workers: self.live_workers.load(Ordering::Relaxed),
            routing_skipped: self.summed(|s| &s.routing_skipped),
            routed_broadcast: self.summed(|s| &s.routed_broadcast),
            routed_theme_overlap: self.summed(|s| &s.routed_theme_overlap),
            covered_skips: self.summed(|s| &s.covered_skips),
            // Filled in by `Broker::stats`, which can reach the index.
            distinct_subscriptions: 0,
            index_entries: 0,
            shed_deadline: self.summed(|s| &s.shed_deadline),
            shed_load: self.summed(|s| &s.shed_load),
            breaker_open: self.summed(|s| &s.breaker_open),
            breaker_trips: self.summed(|s| &s.breaker_trips),
            // Filled in by `Broker::stats`, which can reach the matcher.
            semantic_cache: CacheStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let inner = Arc::new(StatsInner::default());
        inner.published.fetch_add(3, Ordering::Relaxed);
        inner.shard(0).notifications.fetch_add(2, Ordering::Relaxed);
        inner.worker_panics.fetch_add(1, Ordering::Relaxed);
        let snap = inner.snapshot();
        assert_eq!(snap.published, 3);
        assert_eq!(snap.notifications, 2);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.processed, 0);
    }

    #[test]
    fn snapshot_merges_worker_shards_with_base_counters() {
        let inner = Arc::new(StatsInner::new(3));
        inner.processed.fetch_add(1, Ordering::Relaxed);
        inner.shard(0).processed.fetch_add(2, Ordering::Relaxed);
        inner.shard(1).processed.fetch_add(3, Ordering::Relaxed);
        // A respawned worker's index wraps onto an existing shard.
        inner.shard(5).processed.fetch_add(4, Ordering::Relaxed);
        inner.shard(2).notifications.fetch_add(7, Ordering::Relaxed);
        let snap = inner.snapshot();
        assert_eq!(snap.processed, 10, "base + all shards");
        assert_eq!(snap.notifications, 7);

        inner.shard(1).stage.queue_wait.record_nanos(1_000);
        inner.shard(0).stage.queue_wait.record_nanos(2_000);
        inner.shard(2).stage.queue_wait.record_nanos(3_000);
        assert_eq!(inner.stage_snapshot().queue_wait.count(), 3);
    }

    #[test]
    fn delivery_failures_is_the_sum_of_drop_reasons() {
        let inner = Arc::new(StatsInner::new(2));
        inner.shard(0).dropped_full.fetch_add(4, Ordering::Relaxed);
        inner
            .shard(1)
            .dropped_disconnected
            .fetch_add(3, Ordering::Relaxed);
        inner.shard(0).breaker_open.fetch_add(2, Ordering::Relaxed);
        assert_eq!(inner.snapshot().delivery_failures(), 9);
    }

    #[test]
    fn shed_counters_are_distinct_from_drop_counters() {
        let inner = Arc::new(StatsInner::default());
        inner.shard(0).shed_deadline.fetch_add(5, Ordering::Relaxed);
        inner.shard(0).shed_load.fetch_add(2, Ordering::Relaxed);
        inner.shard(0).breaker_trips.fetch_add(1, Ordering::Relaxed);
        let snap = inner.snapshot();
        assert_eq!(snap.shed_total(), 7);
        assert_eq!(snap.shed_deadline, 5);
        assert_eq!(snap.shed_load, 2);
        assert_eq!(snap.breaker_trips, 1);
        assert_eq!(
            snap.delivery_failures(),
            0,
            "shedding is admission control, not delivery failure"
        );
    }
}

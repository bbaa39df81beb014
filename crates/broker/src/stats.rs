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
/// record into these concurrently; [`StageTimers::snapshot`] produces the
/// public [`StageLatencies`] view.
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

impl StageTimers {
    pub(crate) fn snapshot(&self) -> StageLatencies {
        StageLatencies {
            queue_wait: self.queue_wait.snapshot(),
            match_exact: self.match_exact.snapshot(),
            match_thematic: self.match_thematic.snapshot(),
            match_cached: self.match_cached.snapshot(),
            deliver: self.deliver.snapshot(),
        }
    }
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
    /// Events whose matching pass finished (delivered, dropped, or
    /// quarantined — every accepted event ends up here exactly once).
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
        let mut out = StageLatencies::default();
        for shard in self.shards.iter() {
            let s = shard.stage.snapshot();
            out.queue_wait = out.queue_wait.merged(&s.queue_wait);
            out.match_exact = out.match_exact.merged(&s.match_exact);
            out.match_thematic = out.match_thematic.merged(&s.match_thematic);
            out.match_cached = out.match_cached.merged(&s.match_cached);
            out.deliver = out.deliver.merged(&s.deliver);
        }
        out
    }

    /// Accumulates one stage's histogram across every worker shard into
    /// a reused snapshot buffer without allocating — the flight
    /// recorder's frame-tick counterpart of
    /// [`StatsInner::stage_snapshot`].
    pub(crate) fn accumulate_stage(
        &self,
        pick: impl Fn(&StageTimers) -> &LatencyHistogram,
        out: &mut HistogramSnapshot,
    ) {
        for shard in self.shards.iter() {
            pick(&shard.stage).accumulate_into(out);
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

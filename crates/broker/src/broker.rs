//! The broker runtime.

use crate::config::{BrokerConfig, PublishPolicy};
use crate::explain::MatchExplanation;
use crate::notification::Notification;
use crate::overload::{BreakerState, LoadState, OverloadController};
use crate::quality::{QualityOracle, QualityReport, QualityState};
use crate::stats::{BrokerStats, StageLatencies, StatsInner};
use crate::subindex::SubscriptionIndex;
use crate::supervisor::{supervisor_loop, DeadLetter, DeadLetterQueue, Job};
use crossbeam::channel::{bounded, Receiver, SendTimeoutError, Sender, TrySendError};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tep_events::{Event, Subscription};
use tep_matcher::{CacheStats, Matcher};
use tep_obs::{
    escape_json, render_spans_json, span_tree, BoundedRing, CostEntry, CostTable, CounterFamily,
    FlightRecorder, FrameWriter, MetricsRegistry, RecorderConfig, SpanCollector, SpanNode,
    SpanRecord, TopKSketch, WindowedDelta,
};

/// Default deadline for the bare [`Broker::flush`] convenience wrapper.
const DEFAULT_FLUSH_DEADLINE: Duration = Duration::from_secs(60);

/// The tuned default 1-in-k cost-attribution sampling rate
/// ([`BrokerConfig::with_cost_attribution`]): the rate the cost gate
/// certifies at ≤1% throughput overhead. At k = 64 a steady workload
/// still lands hundreds of samples per second per hot entry, so the
/// scaled estimate (`sampled × k`) converges quickly.
pub const DEFAULT_COST_SAMPLE_EVERY: u64 = 64;

/// Identifier handed out by [`Broker::subscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(pub u64);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Errors returned by broker operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BrokerError {
    /// The broker has been shut down.
    Closed,
    /// The ingress queue was full and the publish policy is
    /// [`PublishPolicy::Reject`].
    QueueFull,
    /// The ingress queue stayed full past the [`PublishPolicy::Timeout`]
    /// deadline.
    PublishTimeout,
    /// [`Broker::flush_timeout`] reached its deadline with events still in
    /// flight.
    FlushTimeout,
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::Closed => write!(f, "broker is shut down"),
            BrokerError::QueueFull => write!(f, "ingress queue is full"),
            BrokerError::PublishTimeout => write!(f, "publish timed out on a full ingress queue"),
            BrokerError::FlushTimeout => write!(f, "flush deadline passed with events in flight"),
        }
    }
}

impl Error for BrokerError {}

/// One subscriber's registry entry.
pub(crate) struct Registration {
    pub(crate) subscription: Arc<Subscription>,
    pub(crate) sender: Sender<Notification>,
    /// Kept only under [`crate::SubscriberPolicy::DropOldest`], where the
    /// broker itself evicts queued notifications.
    pub(crate) receiver: Option<Receiver<Notification>>,
    /// Consecutive full-channel drops, for
    /// [`crate::SubscriberPolicy::DisconnectAfter`].
    pub(crate) consecutive_full: AtomicU64,
    /// Whether this subscriber opted into per-notification explanations
    /// ([`SubscribeOptions::explain`]).
    pub(crate) explain: bool,
    /// Pre-resolved handle into the per-subscriber notification counter
    /// family, so the delivery hot path pays one `fetch_add` instead of a
    /// label lookup. `None` when labeled metrics are off.
    pub(crate) notif_counter: Option<Arc<AtomicU64>>,
    /// This subscriber's circuit breaker; `None` unless overload control
    /// is on ([`BrokerConfig::with_overload_control`]), so the disabled
    /// delivery path pays a single branch.
    pub(crate) breaker: Option<parking_lot::Mutex<BreakerState>>,
}

/// Per-subscription options for [`Broker::subscribe_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct SubscribeOptions {
    /// Attach a [`MatchExplanation`] to every notification delivered to
    /// this subscriber, regardless of
    /// [`BrokerConfig::explain_capacity`]. Off by default: explanations
    /// rebuild the similarity matrix per delivery (cache-warm, but not
    /// free).
    pub explain: bool,
}

impl SubscribeOptions {
    /// Options with per-notification explanations enabled.
    pub fn explained() -> SubscribeOptions {
        SubscribeOptions { explain: true }
    }
}

/// Per-event options for [`Broker::publish_with`].
///
/// Both fields are advisory until overload control is enabled
/// ([`BrokerConfig::with_overload_control`]): a broker without it matches
/// every accepted event regardless of deadline or priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct PublishOptions {
    /// Absolute wall-clock point after which matching this event is
    /// pointless. Under `Overloaded` or worse, events whose deadline has
    /// already expired are shed at dequeue
    /// ([`crate::BrokerStats::shed_deadline`]) instead of matched.
    pub deadline: Option<Instant>,
    /// Scheduling priority (`0` lowest, `255` highest; default `100`).
    /// Under `Critical`, events **below**
    /// [`crate::OverloadConfig::shed_priority_floor`] are shed
    /// ([`crate::BrokerStats::shed_load`]).
    pub priority: u8,
}

impl Default for PublishOptions {
    fn default() -> PublishOptions {
        PublishOptions {
            deadline: None,
            priority: 100,
        }
    }
}

impl PublishOptions {
    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> PublishOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `ttl` from now.
    pub fn with_ttl(self, ttl: Duration) -> PublishOptions {
        self.with_deadline(Instant::now() + ttl)
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: u8) -> PublishOptions {
        self.priority = priority;
        self
    }
}

/// Type-erased handles into the matcher for the subscription lifecycle.
///
/// The matcher itself moves into the supervisor thread at start-up and the
/// broker handle is not generic over it, so the subscribe/unsubscribe path
/// reaches it through these boxed closures instead.
pub(crate) struct MatcherHooks {
    /// Called once per [`Broker::subscribe`]: lets the matcher precompute
    /// and pin the subscription's projections before any event arrives.
    pub(crate) prepare: Box<dyn Fn(&Subscription) + Send + Sync>,
    /// Called once when a subscription leaves the registry (unsubscribe or
    /// reap): releases whatever `prepare` pinned.
    pub(crate) release: Box<dyn Fn(&Subscription) + Send + Sync>,
    /// Samples the matcher's semantic cache counters.
    pub(crate) cache_stats: Box<dyn Fn() -> CacheStats + Send + Sync>,
}

/// State shared between the broker handle, its workers, and the
/// supervisor.
pub(crate) struct Shared {
    pub(crate) registry: RwLock<HashMap<SubscriptionId, Arc<Registration>>>,
    pub(crate) index: SubscriptionIndex,
    pub(crate) hooks: MatcherHooks,
    pub(crate) stats: Arc<StatsInner>,
    pub(crate) config: BrokerConfig,
    /// The ingress sender, used directly by `publish` — no lock, no
    /// per-publish clone. [`Broker::close`] closes the channel itself
    /// ([`Sender::close`]): later sends fail, and workers exit once the
    /// queue has drained.
    pub(crate) ingress: Sender<Job>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) dead_letters: DeadLetterQueue,
    /// Bounded per-match-test explanations; capacity 0 (the default)
    /// disables the ring.
    pub(crate) explain: BoundedRing<MatchExplanation>,
    /// Sampled causal spans; disabled unless
    /// [`BrokerConfig::span_sample_every`] is non-zero.
    pub(crate) spans: SpanCollector,
    /// Labeled metric families; `None` unless
    /// [`BrokerConfig::labeled_metrics`] is on, so the disabled hot path
    /// pays one branch per event.
    pub(crate) dim: Option<DimMetrics>,
    /// The shadow quality evaluator; empty unless
    /// [`Broker::with_quality_sampling`] installed an oracle.
    pub(crate) quality: OnceLock<Arc<QualityState>>,
    /// The adaptive overload controller; `None` unless
    /// [`BrokerConfig::with_overload_control`] enabled it, so the hot
    /// path pays a single branch when it is off.
    pub(crate) overload: Option<OverloadController>,
    /// The flight recorder, whose frame ring also backs the windowed
    /// (`{window="..."}`) series; `None` unless
    /// [`BrokerConfig::with_flight_recorder`] enabled it. Only the
    /// supervisor's poll loop ticks it, so the dispatch path never
    /// touches it.
    pub(crate) recorder: Option<FlightRecorder>,
    /// The sampling cost-attribution tables; `None` unless
    /// [`BrokerConfig::with_cost_attribution`] enabled them, so the
    /// dispatch hot path pays a single branch when they are off.
    pub(crate) cost: Option<CostState>,
    /// Broker start time, backing the `tep_uptime_seconds` gauge.
    pub(crate) started: Instant,
}

/// Labeled (dimensional) metric families, built once at start-up when
/// [`BrokerConfig::labeled_metrics`] is on. Theme and subscriber
/// families are capped at [`BrokerConfig::label_cardinality`] series;
/// excess labels fold into the `_overflow` bucket.
pub(crate) struct DimMetrics {
    /// Match tests attributed to each event theme tag (an event with two
    /// tags counts its tests under both, so the family's sum can exceed
    /// the bare `tep_match_tests_total`).
    pub(crate) match_by_theme: CounterFamily,
    /// Match tests per cache temperature (`exact` / `thematic` /
    /// `cached`).
    pub(crate) match_by_temp: CounterFamily,
    /// Notifications admitted per subscriber id.
    pub(crate) notif_by_sub: CounterFamily,
    /// Space-saving sketch of the hottest event theme tags.
    pub(crate) hot_themes: TopKSketch,
    /// Space-saving sketch of the hottest event terms (tuple attributes
    /// and values).
    pub(crate) hot_terms: TopKSketch,
}

impl DimMetrics {
    fn new(cardinality: usize) -> DimMetrics {
        DimMetrics {
            match_by_theme: CounterFamily::new(cardinality),
            // Temperature is a closed three-value set; no cap pressure.
            match_by_temp: CounterFamily::new(4),
            notif_by_sub: CounterFamily::new(cardinality),
            hot_themes: TopKSketch::new(cardinality.max(16)),
            hot_terms: TopKSketch::new(cardinality.max(16)),
        }
    }
}

/// Sampling cost-attribution state, built once at start-up when
/// [`BrokerConfig::with_cost_attribution`] is on. A deterministic 1-in-k
/// sample of dispatches charges measured match and deliver nanoseconds to
/// the owning subscription-index entry, the event's theme tags, and the
/// delivered subscribers; scaling any sampled figure by `every`
/// estimates the true total (exact when `every == 1`).
pub(crate) struct CostState {
    /// The 1-in-k sampling rate; always ≥ 1 when the state exists.
    pub(crate) every: u64,
    /// Exact per-index-entry totals, keyed by the entry's dense slot and
    /// stamped with its uid so recycled slots never inherit charges.
    pub(crate) entries: CostTable,
    /// Exact per-subscriber totals, keyed by subscription id.
    pub(crate) subscribers: CostTable,
    /// Sampled match nanoseconds per event theme tag, capped at
    /// [`BrokerConfig::label_cardinality`] series.
    pub(crate) theme_match_ns: CounterFamily,
    /// Sampled deliver nanoseconds per event theme tag.
    pub(crate) theme_deliver_ns: CounterFamily,
    /// Space-saving sketch of the most expensive index entries
    /// (by sampled match + deliver nanoseconds).
    pub(crate) hot_entries: TopKSketch,
    /// Space-saving sketch of the most expensive theme tags.
    pub(crate) hot_themes: TopKSketch,
    /// Space-saving sketch of the most expensive subscribers.
    pub(crate) hot_subscribers: TopKSketch,
    /// Global sampled match nanoseconds, reconciled against the match
    /// stage histograms (sampled × every ≈ histogram sum).
    pub(crate) match_ns: AtomicU64,
    /// Global sampled deliver nanoseconds.
    pub(crate) deliver_ns: AtomicU64,
    /// Sampled dispatches charged so far.
    pub(crate) samples: AtomicU64,
}

impl CostState {
    fn new(every: u64, cardinality: usize) -> CostState {
        CostState {
            every: every.max(1),
            entries: CostTable::new(),
            subscribers: CostTable::new(),
            theme_match_ns: CounterFamily::new(cardinality),
            theme_deliver_ns: CounterFamily::new(cardinality),
            hot_entries: TopKSketch::new(cardinality.max(16)),
            hot_themes: TopKSketch::new(cardinality.max(16)),
            hot_subscribers: TopKSketch::new(cardinality.max(16)),
            match_ns: AtomicU64::new(0),
            deliver_ns: AtomicU64::new(0),
            samples: AtomicU64::new(0),
        }
    }

    /// Whether the dispatch of event `seq` against index entry `uid` is
    /// in the deterministic sample — the same splitmix64 decision the
    /// quality sampler uses, so the choice is reproducible across runs
    /// and uncorrelated with publish order.
    #[inline]
    pub(crate) fn should_sample(&self, seq: u64, uid: u64) -> bool {
        crate::quality::mix(seq, uid).is_multiple_of(self.every)
    }

    /// Charges one sampled dispatch to its index entry and the global
    /// sampled totals. Allocation-free: the entry label was preformatted
    /// at subscribe time and the sketch increments tracked keys in place.
    pub(crate) fn charge_entry(&self, slot: u32, uid: u64, match_ns: u64, deliver_ns: u64) {
        self.entries
            .charge(u64::from(slot), uid, match_ns, deliver_ns, |label| {
                self.hot_entries.record_n(label, match_ns + deliver_ns);
            });
        self.match_ns.fetch_add(match_ns, Ordering::Relaxed);
        self.deliver_ns.fetch_add(deliver_ns, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Charges a delivered subscriber its share of a sampled dispatch.
    pub(crate) fn charge_subscriber(&self, id: u64, match_ns: u64, deliver_ns: u64) {
        self.subscribers
            .charge(id, id, match_ns, deliver_ns, |label| {
                self.hot_subscribers.record_n(label, match_ns + deliver_ns);
            });
    }

    /// Charges one of the event's theme tags the full sampled cost (an
    /// event with two tags charges both, like `match_by_theme`).
    pub(crate) fn charge_theme(&self, tag: &str, match_ns: u64, deliver_ns: u64) {
        self.theme_match_ns.add(tag, match_ns);
        self.theme_deliver_ns.add(tag, deliver_ns);
        self.hot_themes.record_n(tag, match_ns + deliver_ns);
    }

    /// The per-theme cost table as sorted [`CostEntry`] rows. Theme rows carry no per-row sample
    /// count — a dispatch charges every tag of its event — so `samples`
    /// is 0 on each row.
    pub(crate) fn theme_entries(&self) -> Vec<CostEntry> {
        use std::collections::BTreeMap;
        let mut themes: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (label, ns) in self.theme_match_ns.snapshot() {
            themes.entry(label).or_default().0 = ns;
        }
        for (label, ns) in self.theme_deliver_ns.snapshot() {
            themes.entry(label).or_default().1 = ns;
        }
        let mut rows: Vec<CostEntry> = themes
            .into_iter()
            .map(|(label, (match_ns, deliver_ns))| CostEntry {
                label,
                match_ns,
                deliver_ns,
                samples: 0,
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.label.cmp(&b.label)));
        rows
    }
}

/// A point-in-time cost-attribution report ([`Broker::costs`]).
///
/// All nanosecond figures are **sampled** sums: every 1-in-`sample_every`
/// dispatch contributes its full measured cost, so multiplying a sampled
/// figure by `sample_every` estimates the true total (exact at
/// `sample_every == 1`). `entries` / `subscribers` / `themes` are sorted
/// most-expensive first; the `hot_*` lists are the amortized top-k
/// sketches feeding the flight recorder (approximate, but allocation-free
/// to maintain).
#[derive(Debug, Clone, Default)]
pub struct CostReport {
    /// Whether cost attribution is on
    /// ([`BrokerConfig::with_cost_attribution`]).
    pub enabled: bool,
    /// The 1-in-k sampling rate (0 when disabled).
    pub sample_every: u64,
    /// Dispatches charged so far.
    pub samples: u64,
    /// Sampled match nanoseconds across all charged dispatches.
    pub sampled_match_ns: u64,
    /// Sampled deliver nanoseconds across all charged dispatches.
    pub sampled_deliver_ns: u64,
    /// Exact sampled totals per subscription-index entry.
    pub entries: Vec<CostEntry>,
    /// Exact sampled totals per subscriber.
    pub subscribers: Vec<CostEntry>,
    /// Sampled totals per event theme tag (`samples` is 0 on these rows:
    /// a dispatch charges every tag of its event, so no row owns it).
    pub themes: Vec<CostEntry>,
    /// Approximate `(label, sampled ns)` of the most expensive entries.
    pub hot_entries: Vec<(String, u64)>,
    /// Approximate `(label, sampled ns)` of the most expensive themes.
    pub hot_themes: Vec<(String, u64)>,
    /// Approximate `(label, sampled ns)` of the most expensive
    /// subscribers.
    pub hot_subscribers: Vec<(String, u64)>,
}

impl CostReport {
    /// Estimated true match nanoseconds (`sampled × sample_every`).
    pub fn estimated_match_ns(&self) -> u64 {
        self.sampled_match_ns.saturating_mul(self.sample_every)
    }

    /// Estimated true deliver nanoseconds (`sampled × sample_every`).
    pub fn estimated_deliver_ns(&self) -> u64 {
        self.sampled_deliver_ns.saturating_mul(self.sample_every)
    }

    /// Estimated true match + deliver nanoseconds.
    pub fn estimated_total_ns(&self) -> u64 {
        self.estimated_match_ns()
            .saturating_add(self.estimated_deliver_ns())
    }
}

/// Frame counters exported as `{window="..."}` rate gauges, with the
/// series each renders as (the rate of the matching `_total` counter).
const WINDOWED_RATES: [(&str, &str); 5] = [
    ("published", "tep_published_rate"),
    ("processed", "tep_processed_rate"),
    ("match_tests", "tep_match_tests_rate"),
    ("notifications", "tep_notifications_rate"),
    ("routing_skipped", "tep_routing_skipped_rate"),
];

impl Shared {
    /// Writes one flight-recorder diagnostic frame: counters, queue and
    /// breaker gauges, load state, cumulative stage histograms, and the
    /// hottest themes. Allocation-free in steady state — counters come
    /// from a flat atomic snapshot, stages accumulate into the slot's
    /// reused histograms, and gauges walk the registry without
    /// collecting.
    pub(crate) fn fill_frame(&self, w: &mut FrameWriter<'_>) {
        let stats = self.stats.snapshot();
        w.counter("published", stats.published);
        w.counter("processed", stats.processed);
        w.counter("match_tests", stats.match_tests);
        w.counter("notifications", stats.notifications);
        w.counter("routing_skipped", stats.routing_skipped);
        w.counter("quarantined", stats.quarantined);
        w.counter("rejected_publishes", stats.rejected_publishes);
        w.counter("dropped_full", stats.dropped_full);
        w.counter("dropped_disconnected", stats.dropped_disconnected);
        w.counter("worker_panics", stats.worker_panics);
        w.counter("shed_deadline", stats.shed_deadline);
        w.counter("shed_load", stats.shed_load);
        w.counter("breaker_open_drops", stats.breaker_open);
        w.counter("breaker_trips", stats.breaker_trips);
        w.gauge("live_workers", stats.live_workers as f64);
        w.gauge("publish_queue_depth", self.ingress.len() as f64);
        w.gauge("dead_letters", self.dead_letters.len() as f64);
        // One registry pass for the subscriber-side gauges.
        let mut depth_sum = 0usize;
        let mut depth_max = 0usize;
        let mut open_breakers = 0usize;
        for reg in self.registry.read().values() {
            let depth = reg.sender.len();
            depth_sum += depth;
            depth_max = depth_max.max(depth);
            if reg
                .breaker
                .as_ref()
                .is_some_and(|breaker| breaker.lock().is_open())
            {
                open_breakers += 1;
            }
        }
        w.gauge("subscriber_queue_depth_sum", depth_sum as f64);
        w.gauge("subscriber_queue_depth_max", depth_max as f64);
        w.gauge("open_breakers", open_breakers as f64);
        match &self.overload {
            Some(overload) => {
                w.label("load_state", overload.current().as_str());
                w.gauge("ewma_queue_wait_ms", overload.ewma_wait_ms());
            }
            None => w.label("load_state", "off"),
        }
        w.stage("queue_wait", |snap| {
            self.stats.accumulate_stage(|t| &t.queue_wait, snap);
        });
        w.stage("match_exact", |snap| {
            self.stats.accumulate_stage(|t| &t.match_exact, snap);
        });
        w.stage("match_thematic", |snap| {
            self.stats.accumulate_stage(|t| &t.match_thematic, snap);
        });
        w.stage("match_cached", |snap| {
            self.stats.accumulate_stage(|t| &t.match_cached, snap);
        });
        w.stage("deliver", |snap| {
            self.stats.accumulate_stage(|t| &t.deliver, snap);
        });
        if let Some(dim) = &self.dim {
            dim.hot_themes
                .for_each_top(8, |name, count| w.theme(name, count));
        }
        if let Some(cost) = &self.cost {
            cost.hot_entries
                .for_each_top(8, |name, ns| w.cost(name, ns));
        }
    }

    /// Fires a diagnostic trigger if the recorder is on and the kind is
    /// out of cooldown; `detail` is built lazily so hot paths pay nothing
    /// for a suppressed trigger. Returns the bundle sequence number when
    /// a bundle was assembled.
    pub(crate) fn fire_trigger(
        &self,
        kind: &'static str,
        detail: impl FnOnce() -> String,
    ) -> Option<u64> {
        let recorder = self.recorder.as_ref()?;
        if !recorder.trigger_armed(kind) {
            return None;
        }
        let context = self.diagnostic_context_json();
        recorder.trigger(kind, &detail(), &context)
    }

    /// The bundle's `context` object: config fingerprint, headline
    /// counters, overload state, and the span / explanation ring tails.
    /// Runs only at trigger time, so it allocates freely.
    fn diagnostic_context_json(&self) -> String {
        use std::fmt::Write;
        let stats = self.stats.snapshot();
        let fingerprint = config_fingerprint(&self.config);
        let mut out = String::with_capacity(2048);
        let _ = write!(
            out,
            "{{\n    \"config_fingerprint\": \"{}\",\n    \"config\": \"{}\",\n",
            fingerprint.1,
            escape_json(&fingerprint.0)
        );
        let _ = writeln!(
            out,
            "    \"stats\": {{\"published\": {}, \"processed\": {}, \"notifications\": {}, \
             \"quarantined\": {}, \"worker_panics\": {}, \"live_workers\": {}, \
             \"dead_letters\": {}}},",
            stats.published,
            stats.processed,
            stats.notifications,
            stats.quarantined,
            stats.worker_panics,
            stats.live_workers,
            self.dead_letters.len(),
        );
        match &self.overload {
            Some(overload) => {
                let state = overload.current();
                let _ = writeln!(
                    out,
                    "    \"overload\": {{\"state\": \"{}\", \"severity\": {}, \
                     \"forced\": {}, \"ewma_queue_wait_ms\": {:.6}, \"transitions\": {}}},",
                    escape_json(state.as_str()),
                    state.severity(),
                    overload.forced().is_some(),
                    overload.ewma_wait_ms(),
                    overload.transitions(),
                );
            }
            None => out.push_str("    \"overload\": {\"enabled\": false},\n"),
        }
        if let Some(quality) = self.quality.get() {
            let report = report_drift_json(&quality.report());
            let _ = writeln!(out, "    \"quality_drift\": {report},");
        }
        let spans = render_spans_json(&self.spans.snapshot());
        let _ = writeln!(out, "    \"spans\": {},", spans.trim_end());
        let explanations = crate::explain::render_explanations_json(&self.explain.snapshot());
        let _ = write!(
            out,
            "    \"explanations\": {}\n  }}",
            explanations.trim_end()
        );
        out
    }
}

/// Renders a quality report's drift alerts as a JSON string array.
fn report_drift_json(report: &crate::quality::QualityReport) -> String {
    let mut out = String::from("[");
    for (i, alert) in report.drift.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let line = format!(
            "{:?}: {:.4} -> {:.4}",
            alert.kind, alert.older, alert.recent
        );
        out.push('"');
        out.push_str(&escape_json(&line));
        out.push('"');
    }
    out.push(']');
    out
}

/// A stable human-readable summary of the load-bearing config knobs plus
/// its FNV-1a hash — enough for an operator reading a bundle to tell
/// "which configuration was this broker running" without shipping the
/// whole config (tep-broker renders JSON by hand; serde_json is only a
/// dev-dependency).
fn config_fingerprint(config: &BrokerConfig) -> (String, String) {
    let summary = format!(
        "workers={} threshold={} queue={} notif={} policy={:?}/{:?} routing={:?} \
         isolate={} attempts={} batch={} overload={} recorder={} cost={}",
        config.workers,
        config.delivery_threshold,
        config.queue_capacity,
        config.notification_capacity,
        config.publish_policy,
        config.subscriber_policy,
        config.routing_policy,
        config.isolate_matcher_panics,
        config.max_match_attempts,
        config.dequeue_batch,
        config.overload.is_some(),
        config.recorder.is_some(),
        config.cost_sample_every,
    );
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in summary.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (summary, format!("{hash:016x}"))
}

/// A thread-pool publish/subscribe broker around any [`Matcher`].
///
/// Events published while subscribers exist are matched on worker threads
/// against every registered subscription; matches at or above the
/// configured delivery threshold are sent to the subscriber's channel.
/// Ordering across workers is not guaranteed (synchronization decoupling).
///
/// The worker pool is **supervised**: matcher panics are isolated per
/// match test (or, with isolation disabled, crash the worker and the
/// supervisor respawns it), repeatedly-failing events are quarantined to a
/// bounded dead-letter queue, and overload at both the ingress queue and
/// the subscriber channels is governed by explicit policies
/// ([`PublishPolicy`], [`crate::SubscriberPolicy`]). See the crate docs
/// for the full failure model.
pub struct Broker {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
    next_id: AtomicU64,
    /// Publish-order sequence numbers; key span sampling.
    next_seq: AtomicU64,
}

impl Broker {
    /// Starts the broker with `config.workers` matching threads plus one
    /// supervisor thread.
    pub fn start<M>(matcher: Arc<M>, config: BrokerConfig) -> Broker
    where
        M: Matcher + Send + Sync + 'static + ?Sized,
    {
        let (tx, rx) = bounded::<Job>(config.queue_capacity.max(1));
        let worker_count = config.workers.max(1);
        let hooks = MatcherHooks {
            prepare: {
                let m = Arc::clone(&matcher);
                Box::new(move |s| m.prepare_subscription(s))
            },
            release: {
                let m = Arc::clone(&matcher);
                Box::new(move |s| m.release_subscription(s))
            },
            cache_stats: {
                let m = Arc::clone(&matcher);
                Box::new(move || m.cache_stats())
            },
        };
        let recorder = config.recorder.as_ref().map(|settings| {
            let settings = settings.normalized();
            FlightRecorder::new(RecorderConfig {
                frame_capacity: settings.frame_capacity,
                tick_interval: Duration::from_millis(settings.tick_ms.max(1)),
                spool_dir: settings.spool_dir.as_ref().map(Into::into),
                spool_capacity: settings.spool_capacity,
                trigger_cooldown: Duration::from_millis(settings.trigger_cooldown_ms),
            })
        });
        let shared = Arc::new(Shared {
            registry: RwLock::new(HashMap::new()),
            index: SubscriptionIndex::new(),
            hooks,
            stats: Arc::new(StatsInner::new(worker_count)),
            dead_letters: DeadLetterQueue::new(config.dead_letter_capacity),
            explain: BoundedRing::new(config.explain_capacity),
            spans: SpanCollector::new(config.span_capacity, config.span_sample_every),
            dim: config
                .labeled_metrics
                .then(|| DimMetrics::new(config.label_cardinality)),
            quality: OnceLock::new(),
            overload: config.overload.clone().map(OverloadController::new),
            recorder,
            cost: (config.cost_sample_every > 0)
                .then(|| CostState::new(config.cost_sample_every, config.label_cardinality)),
            started: Instant::now(),
            config,
            ingress: tx,
            shutdown: AtomicBool::new(false),
        });
        if let Some(recorder) = &shared.recorder {
            // Warm every ring slot's buffers once, so the steady-state
            // tick path never allocates, then take the start-up frame:
            // the base of the first windowed delta, and the one frame a
            // trigger fired before the supervisor's first tick can carry.
            recorder.warm(|w| shared.fill_frame(w));
            recorder.force_tick(|w| shared.fill_frame(w));
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tep-broker-supervisor".into())
                .spawn(move || supervisor_loop(shared, matcher, rx, worker_count))
                .expect("spawn broker supervisor")
        };
        Broker {
            shared,
            supervisor: Some(supervisor),
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Registers a subscription and returns its id plus the notification
    /// channel.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Closed`] after [`Broker::shutdown`] or
    /// [`Broker::close`].
    pub fn subscribe(
        &self,
        subscription: Subscription,
    ) -> Result<(SubscriptionId, Receiver<Notification>), BrokerError> {
        self.subscribe_with(subscription, SubscribeOptions::default())
    }

    /// Registers a subscription with per-subscription [`SubscribeOptions`]
    /// (e.g. [`SubscribeOptions::explain`] to attach a
    /// [`MatchExplanation`] to every delivered notification).
    ///
    /// # Errors
    ///
    /// [`BrokerError::Closed`] after [`Broker::shutdown`] or
    /// [`Broker::close`].
    pub fn subscribe_with(
        &self,
        subscription: Subscription,
        options: SubscribeOptions,
    ) -> Result<(SubscriptionId, Receiver<Notification>), BrokerError> {
        self.subscribe_arc_with(Arc::new(subscription), options)
    }

    /// Like [`Broker::subscribe`], but takes the subscription behind an
    /// `Arc` so callers registering many duplicate subscribers (the
    /// million-subscriber bench) can share one allocation across all of
    /// them — the index hash-conses duplicates onto one entry either way.
    pub fn subscribe_arc(
        &self,
        subscription: Arc<Subscription>,
    ) -> Result<(SubscriptionId, Receiver<Notification>), BrokerError> {
        self.subscribe_arc_with(subscription, SubscribeOptions::default())
    }

    /// [`Broker::subscribe_arc`] with per-subscription options.
    pub fn subscribe_arc_with(
        &self,
        subscription: Arc<Subscription>,
        options: SubscribeOptions,
    ) -> Result<(SubscriptionId, Receiver<Notification>), BrokerError> {
        if self.is_closed() {
            return Err(BrokerError::Closed);
        }
        let id = SubscriptionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = bounded(self.shared.config.notification_capacity.max(1));
        let keep_receiver = matches!(
            self.shared.config.subscriber_policy,
            crate::config::SubscriberPolicy::DropOldest
        );
        // Warm the matcher's caches (and pin the subscription's
        // projections) before the subscription can receive traffic.
        (self.shared.hooks.prepare)(&subscription);
        // Resolve the labeled-counter handle once, here, so deliveries
        // never pay a label lookup.
        let notif_counter = self
            .shared
            .dim
            .as_ref()
            .map(|dim| dim.notif_by_sub.handle(&id.to_string()));
        let registration = Arc::new(Registration {
            subscription,
            sender: tx,
            receiver: keep_receiver.then(|| rx.clone()),
            consecutive_full: AtomicU64::new(0),
            explain: options.explain,
            notif_counter,
            breaker: self
                .shared
                .overload
                .as_ref()
                .map(|_| parking_lot::Mutex::new(BreakerState::new(id.0))),
        });
        // Index before the registry insert: the index *is* the dispatch
        // path now (it fans out to registrations directly), so an indexed
        // registration is immediately matchable, while the registry entry
        // only backs bookkeeping (counts, queue gauges, reaping).
        let (slot, uid) = self.shared.index.insert(id, &registration);
        if let Some(cost) = &self.shared.cost {
            // Preformat the cost labels here so sampled dispatches never
            // allocate: the table owns the strings, charges borrow them.
            cost.entries
                .ensure(u64::from(slot), uid, || format!("entry-{slot}"));
            cost.subscribers
                .ensure(id.0, id.0, || format!("sub-{}", id.0));
        }
        self.shared.registry.write().insert(id, registration);
        Ok((id, rx))
    }

    /// Removes a subscription; returns whether it existed.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        let Some(reg) = self.shared.registry.write().remove(&id) else {
            return false;
        };
        self.shared.index.remove(id, &reg.subscription);
        (self.shared.hooks.release)(&reg.subscription);
        true
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.shared.registry.read().len()
    }

    /// Publishes an event under the configured [`PublishPolicy`].
    ///
    /// # Errors
    ///
    /// * [`BrokerError::Closed`] after shutdown;
    /// * [`BrokerError::QueueFull`] under [`PublishPolicy::Reject`] when
    ///   the ingress queue is full;
    /// * [`BrokerError::PublishTimeout`] under [`PublishPolicy::Timeout`]
    ///   when the queue stays full past the deadline.
    ///
    /// Rejected and timed-out publishes are counted in
    /// [`BrokerStats::rejected_publishes`]; `published` counts only
    /// accepted events.
    pub fn publish(&self, event: Event) -> Result<(), BrokerError> {
        self.publish_arc_with(Arc::new(event), PublishOptions::default())
    }

    /// Publishes an event with per-event [`PublishOptions`] (deadline and
    /// priority, consumed by the overload controller's shedding
    /// decisions).
    ///
    /// # Errors
    ///
    /// Same as [`Broker::publish`].
    pub fn publish_with(&self, event: Event, options: PublishOptions) -> Result<(), BrokerError> {
        self.publish_arc_with(Arc::new(event), options)
    }

    /// Publishes an already-shared event without copying it: the broker
    /// takes a reference to the caller's `Arc<Event>`, and that same
    /// allocation flows through matching, notifications, traces, and the
    /// dead-letter queue. This is the zero-copy fast path for callers
    /// that publish one event to several brokers, retain it after
    /// publishing, or pre-build their event set (benchmarks).
    ///
    /// # Errors
    ///
    /// Same as [`Broker::publish`].
    pub fn publish_arc(&self, event: Arc<Event>) -> Result<(), BrokerError> {
        self.publish_arc_with(event, PublishOptions::default())
    }

    /// [`Broker::publish_arc`] with per-event [`PublishOptions`].
    ///
    /// All other publish methods funnel here; in steady state the path is
    /// lock-free and allocation-free — the ingress sender is used in
    /// place (no `RwLock` read, no sender clone) and the job is a flat
    /// value around the caller's `Arc`.
    ///
    /// # Errors
    ///
    /// Same as [`Broker::publish`].
    pub fn publish_arc_with(
        &self,
        event: Arc<Event>,
        options: PublishOptions,
    ) -> Result<(), BrokerError> {
        let tx = &self.shared.ingress;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        // Sampled events reserve their root span id up front so every
        // downstream span of this event can parent to it; unsampled
        // traffic pays one modulo and a branch.
        let span = self
            .shared
            .spans
            .sampled(seq)
            .then(|| (self.shared.spans.start_span(), Instant::now()));
        let job = Job::new(event, seq, span.map(|(id, _)| id), options);
        let result = match self.shared.config.publish_policy {
            PublishPolicy::Block => tx.send(job).map_err(|_| BrokerError::Closed),
            // A zero timeout is exactly `Reject` with a different error:
            // one queue-full check and no parked-thread wakeup dance
            // (`send_timeout(0)` could park and lose the race even with a
            // free slot).
            PublishPolicy::Timeout(deadline) if deadline.is_zero() => {
                tx.try_send(job).map_err(|e| match e {
                    TrySendError::Full(_) => BrokerError::PublishTimeout,
                    TrySendError::Disconnected(_) => BrokerError::Closed,
                })
            }
            PublishPolicy::Timeout(deadline) => {
                tx.send_timeout(job, deadline).map_err(|e| match e {
                    SendTimeoutError::Timeout(_) => BrokerError::PublishTimeout,
                    SendTimeoutError::Disconnected(_) => BrokerError::Closed,
                })
            }
            PublishPolicy::Reject => tx.try_send(job).map_err(|e| match e {
                TrySendError::Full(_) => BrokerError::QueueFull,
                TrySendError::Disconnected(_) => BrokerError::Closed,
            }),
        };
        match result {
            Ok(()) => {
                self.shared.stats.published.fetch_add(1, Ordering::Relaxed);
                if let Some((id, start)) = span {
                    // The publish span covers policy wait + enqueue.
                    self.shared.spans.record(
                        id,
                        None,
                        seq,
                        "publish",
                        start,
                        Instant::now(),
                        vec![],
                    );
                }
                Ok(())
            }
            Err(e) => {
                if matches!(e, BrokerError::QueueFull | BrokerError::PublishTimeout) {
                    self.shared
                        .stats
                        .rejected_publishes
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// Blocks until every accepted event has finished its matching pass
    /// (delivered, dropped, or quarantined), or until `timeout` passes.
    ///
    /// # Errors
    ///
    /// [`BrokerError::FlushTimeout`] when events are still in flight at
    /// the deadline — e.g. the queue is deeper than the deadline allows,
    /// or a matcher is wedged.
    #[must_use = "flush can time out; check the result before reading counters"]
    pub fn flush_timeout(&self, timeout: Duration) -> Result<(), BrokerError> {
        let deadline = Instant::now() + timeout;
        loop {
            // Raw counter snapshot: the poll loop doesn't need the cache
            // stats `Broker::stats` samples from the matcher.
            let s = self.shared.stats.snapshot();
            if s.processed >= s.published {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(BrokerError::FlushTimeout);
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Blocks until every accepted event has been matched, with a
    /// generous default deadline (60 s).
    ///
    /// Convenience wrapper over [`Broker::flush_timeout`] for tests,
    /// examples, and benchmarks.
    ///
    /// # Errors
    ///
    /// [`BrokerError::FlushTimeout`] if the default deadline passes — at
    /// that point the broker is effectively wedged, and the caller
    /// decides whether that is fatal.
    #[must_use = "flush can time out; check the result before reading counters"]
    pub fn flush(&self) -> Result<(), BrokerError> {
        self.flush_timeout(DEFAULT_FLUSH_DEADLINE)
    }

    /// A snapshot of the broker's counters, including the matcher's
    /// semantic cache counters.
    pub fn stats(&self) -> BrokerStats {
        let mut stats = self.shared.stats.snapshot();
        stats.semantic_cache = (self.shared.hooks.cache_stats)();
        stats.distinct_subscriptions = self.shared.index.distinct_subscriptions() as u64;
        stats.index_entries = self.shared.index.entry_count() as u64;
        stats
    }

    /// A snapshot of the per-stage latency histograms: ingress queue
    /// wait, match tests (split exact / thematic-cold / cache-warm), and
    /// notification delivery.
    pub fn stage_latencies(&self) -> StageLatencies {
        self.shared.stats.stage_snapshot()
    }

    /// The newest `n` match explanations, oldest first. Empty unless
    /// [`BrokerConfig::explain_capacity`] is non-zero.
    pub fn explain_last(&self, n: usize) -> Vec<MatchExplanation> {
        let mut all = self.shared.explain.snapshot();
        let keep_from = all.len().saturating_sub(n);
        all.drain(..keep_from);
        all
    }

    /// The retained causal spans across all sampled events, oldest first.
    /// Empty unless [`BrokerConfig::span_sample_every`] is non-zero.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.shared.spans.snapshot()
    }

    /// The causal span tree(s) for the event with sequence number `seq`:
    /// publish → route → match tests → deliveries, reconstructed from the
    /// span ring. Empty for unsampled events; spans whose parents were
    /// evicted surface as extra roots.
    pub fn span_tree(&self, seq: u64) -> Vec<SpanNode> {
        span_tree(&self.shared.spans.snapshot(), seq)
    }

    /// Installs the shadow quality evaluator: deterministically samples
    /// one in `every` candidate subscription × event pairs (including
    /// pairs served by a shared test or by covering), replays each
    /// sampled pair against `oracle`, and maintains rolling
    /// precision/recall/F1 with confidence bounds and drift alerts
    /// (read with [`Broker::quality`]).
    ///
    /// A consuming builder so the evaluator is wired before traffic
    /// flows; the first installation wins — later calls on the same
    /// broker are ignored.
    pub fn with_quality_sampling(self, every: u64, oracle: Box<dyn QualityOracle>) -> Broker {
        let _ = self
            .shared
            .quality
            .set(Arc::new(QualityState::new(every, oracle)));
        self
    }

    /// The current rolling quality report, or `None` when no oracle was
    /// installed via [`Broker::with_quality_sampling`].
    pub fn quality(&self) -> Option<QualityReport> {
        self.shared.quality.get().map(|q| q.report())
    }

    /// The overload controller's current load state, or `None` when
    /// overload control is off.
    pub fn load_state(&self) -> Option<LoadState> {
        self.shared.overload.as_ref().map(|o| o.current())
    }

    /// Pins the load state to `state` (or releases the pin with `None`) —
    /// for overload drills, benches, and the quality harness measuring
    /// the F1 cost of a degraded matching rung. The organic state machine
    /// keeps evaluating underneath and resumes control on release. A
    /// no-op when overload control is off.
    pub fn force_load_state(&self, state: Option<LoadState>) {
        if let Some(overload) = &self.shared.overload {
            overload.force(state);
            // Forcing bypasses the organic state machine (no transition
            // event fires), so raise the flight-recorder trigger directly
            // — a drill should produce the same evidence as the real
            // thing.
            if state == Some(LoadState::Critical) {
                self.shared.fire_trigger("load_critical", || {
                    "load state forced to critical".to_string()
                });
            }
        }
    }

    /// Subscribers whose circuit breaker is currently open (0 when
    /// overload control is off).
    pub fn open_breakers(&self) -> usize {
        if self.shared.overload.is_none() {
            return 0;
        }
        self.shared
            .registry
            .read()
            .values()
            .filter(|reg| {
                reg.breaker
                    .as_ref()
                    .is_some_and(|breaker| breaker.lock().is_open())
            })
            .count()
    }

    /// The `/overload` endpoint body: load state, queue-wait EWMA, shed
    /// and breaker counters as JSON. `{"enabled": false}` when overload
    /// control is off.
    pub fn overload_json(&self) -> String {
        let Some(overload) = &self.shared.overload else {
            return "{\n  \"enabled\": false\n}\n".to_string();
        };
        let stats = self.shared.stats.snapshot();
        let state = overload.current();
        format!(
            concat!(
                "{{\n",
                "  \"enabled\": true,\n",
                "  \"state\": \"{state}\",\n",
                "  \"severity\": {severity},\n",
                "  \"forced\": {forced},\n",
                "  \"degraded_matching\": \"{mode}\",\n",
                "  \"ewma_queue_wait_ms\": {wait:.6},\n",
                "  \"transitions\": {transitions},\n",
                "  \"state_age_secs\": {age:.3},\n",
                "  \"shed_deadline\": {shed_deadline},\n",
                "  \"shed_load\": {shed_load},\n",
                "  \"breaker_trips\": {breaker_trips},\n",
                "  \"breaker_open_drops\": {breaker_open},\n",
                "  \"open_breakers\": {open_breakers}\n",
                "}}\n",
            ),
            state = escape_json(state.as_str()),
            severity = state.severity(),
            forced = overload.forced().is_some(),
            mode = escape_json(overload.degraded_mode().as_str()),
            wait = overload.ewma_wait_ms(),
            transitions = overload.transitions(),
            age = overload.state_age_secs(),
            shed_deadline = stats.shed_deadline,
            shed_load = stats.shed_load,
            breaker_trips = stats.breaker_trips,
            breaker_open = stats.breaker_open,
            open_breakers = self.open_breakers(),
        )
    }

    /// The current cost-attribution report. `enabled` is `false` (and
    /// every table empty) unless the broker was started with
    /// [`BrokerConfig::with_cost_attribution`].
    pub fn costs(&self) -> CostReport {
        let Some(cost) = &self.shared.cost else {
            return CostReport::default();
        };
        CostReport {
            enabled: true,
            sample_every: cost.every,
            samples: cost.samples.load(Ordering::Relaxed),
            sampled_match_ns: cost.match_ns.load(Ordering::Relaxed),
            sampled_deliver_ns: cost.deliver_ns.load(Ordering::Relaxed),
            entries: cost.entries.snapshot(),
            subscribers: cost.subscribers.snapshot(),
            themes: cost.theme_entries(),
            hot_entries: cost.hot_entries.top(16),
            hot_themes: cost.hot_themes.top(16),
            hot_subscribers: cost.hot_subscribers.top(16),
        }
    }

    /// The `/costs` endpoint body: the [`Broker::costs`] report as JSON.
    /// `{"enabled": false}` when cost attribution is off. Per-entity
    /// sections are capped at 64 rows (most expensive first) with a
    /// `*_truncated` count so a million-subscriber broker still scrapes
    /// cheaply.
    pub fn costs_json(&self) -> String {
        use std::fmt::Write;
        let report = self.costs();
        if !report.enabled {
            return "{\n  \"enabled\": false\n}\n".to_string();
        }
        fn section(out: &mut String, name: &str, rows: &[CostEntry]) {
            use std::fmt::Write;
            const CAP: usize = 64;
            let shown = rows.len().min(CAP);
            let _ = write!(out, "  \"{name}\": [");
            for (i, row) in rows[..shown].iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"label\": \"{}\", \"match_ns\": {}, \"deliver_ns\": {}, \
                     \"samples\": {}}}",
                    escape_json(&row.label),
                    row.match_ns,
                    row.deliver_ns,
                    row.samples,
                );
            }
            let _ = writeln!(out, "],\n  \"{name}_truncated\": {},", rows.len() - shown);
        }
        fn hot(out: &mut String, name: &str, rows: &[(String, u64)], last: bool) {
            use std::fmt::Write;
            let _ = write!(out, "    \"{name}\": [");
            for (i, (label, ns)) in rows.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"label\": \"{}\", \"sampled_ns\": {ns}}}",
                    escape_json(label)
                );
            }
            out.push(']');
            out.push_str(if last { "\n" } else { ",\n" });
        }
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\n  \"enabled\": true,\n  \"sample_every\": {},\n  \"samples\": {},\n  \
             \"sampled_match_ns\": {},\n  \"sampled_deliver_ns\": {},\n  \
             \"estimated_match_ns\": {},\n  \"estimated_deliver_ns\": {},\n  \
             \"estimated_total_ns\": {},\n",
            report.sample_every,
            report.samples,
            report.sampled_match_ns,
            report.sampled_deliver_ns,
            report.estimated_match_ns(),
            report.estimated_deliver_ns(),
            report.estimated_total_ns(),
        );
        section(&mut out, "entries", &report.entries);
        section(&mut out, "subscribers", &report.subscribers);
        section(&mut out, "themes", &report.themes);
        out.push_str("  \"top\": {\n");
        hot(&mut out, "entries", &report.hot_entries, false);
        hot(&mut out, "themes", &report.hot_themes, false);
        hot(&mut out, "subscribers", &report.hot_subscribers, true);
        out.push_str("  }\n}\n");
        out
    }

    /// Fires the manual flight-recorder trigger (the `POST
    /// /debug/trigger` handler): freezes the frame ring into a
    /// diagnostic bundle with `detail` as the cause. Returns the bundle
    /// sequence number, or `None` when the recorder is off or the manual
    /// trigger kind is still cooling down.
    pub fn trigger_diagnostic(&self, detail: &str) -> Option<u64> {
        self.shared.fire_trigger("manual", || detail.to_string())
    }

    /// The newest diagnostic bundle JSON (the `GET /debug/bundle` body),
    /// or `None` when the recorder is off or no trigger has fired yet.
    pub fn latest_bundle_json(&self) -> Option<Arc<String>> {
        self.shared.recorder.as_ref()?.latest_bundle()
    }

    /// Records one flight-recorder frame immediately, regardless of the
    /// tick interval. A no-op when the recorder is off. For tests and
    /// embedders that want deterministic frame boundaries (the recorder
    /// otherwise ticks only from the supervisor's poll loop).
    pub fn record_diagnostic_frame(&self) {
        if let Some(recorder) = &self.shared.recorder {
            recorder.force_tick(|w| self.shared.fill_frame(w));
        }
    }

    /// Diagnostic bundles assembled so far (0 when the recorder is off).
    pub fn diagnostic_bundles(&self) -> u64 {
        self.shared
            .recorder
            .as_ref()
            .map_or(0, |r| r.bundles_assembled())
    }

    /// The `/readyz` endpoint body: `(ready, JSON)`. Liveness
    /// (`/healthz`) answers "is the process up"; readiness answers
    /// "should a front tier route new load here" — `false` once the
    /// broker is shut down or its load state reaches `Overloaded`, so an
    /// overloaded shard is drained instead of restarted.
    pub fn readiness(&self) -> (bool, String) {
        let state = self.load_state();
        let overloaded = state.is_some_and(|s| s.severity() >= LoadState::Overloaded.severity());
        let ready = !self.is_closed() && !overloaded;
        let body = format!(
            "{{\"ready\": {ready}, \"load_state\": \"{}\", \"open_breakers\": {}, \
             \"quarantined\": {}, \"closed\": {}}}\n",
            escape_json(state.map_or("off", |s| s.as_str())),
            self.open_breakers(),
            self.dead_letter_count(),
            self.is_closed(),
        );
        (ready, body)
    }

    /// Windowed deltas over roughly the last `span`, read from the
    /// flight recorder's frame ring: counter growth and rates by frame
    /// counter name (`"published"`, `"match_tests"`, …) and per-stage
    /// histogram slices by stage name (`"match_exact"`, …). `None` when
    /// the recorder is off or holds fewer than two frames.
    pub fn window(&self, span: Duration) -> Option<WindowedDelta> {
        self.shared.recorder.as_ref()?.window(span)
    }

    /// The `k` hottest event theme tags by estimated frequency,
    /// descending. Empty unless [`BrokerConfig::labeled_metrics`] is on.
    pub fn top_themes(&self, k: usize) -> Vec<(String, u64)> {
        self.shared
            .dim
            .as_ref()
            .map(|dim| dim.hot_themes.top(k))
            .unwrap_or_default()
    }

    /// The `k` hottest event terms (tuple attributes and values) by
    /// estimated frequency, descending. Empty unless
    /// [`BrokerConfig::labeled_metrics`] is on.
    pub fn top_terms(&self, k: usize) -> Vec<(String, u64)> {
        self.shared
            .dim
            .as_ref()
            .map(|dim| dim.hot_terms.top(k))
            .unwrap_or_default()
    }

    /// The `/top` endpoint body: top-`k` themes and terms as JSON.
    pub fn top_json(&self, k: usize) -> String {
        fn entries(items: &[(String, u64)]) -> String {
            let mut out = String::new();
            for (i, (name, count)) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"name\": \"{}\", \"count\": {count}}}",
                    escape_json(name)
                ));
            }
            out
        }
        format!(
            "{{\n  \"themes\": [{}],\n  \"terms\": [{}]\n}}\n",
            entries(&self.top_themes(k)),
            entries(&self.top_terms(k))
        )
    }

    /// Events currently waiting on the ingress queue (drains to 0 after
    /// close).
    pub fn publish_queue_depth(&self) -> usize {
        self.shared.ingress.len()
    }

    /// Every broker counter and stage histogram bundled into a
    /// [`MetricsRegistry`], ready for
    /// [`MetricsRegistry::render_prometheus`] or
    /// [`MetricsRegistry::render_json`].
    ///
    /// Beyond the cumulative series, the registry carries:
    ///
    /// * per-policy routing decisions
    ///   (`tep_routing_decisions_total{policy="..."}`),
    /// * queue-depth gauges for the ingress queue and the subscriber
    ///   channels, so overload policies are observable before they trip,
    /// * windowed (`{window="10s"|"60s"}`) rates and stage histograms
    ///   when the flight recorder is on (see [`Broker::window`]),
    /// * labeled families and quality gauges when
    ///   [`BrokerConfig::labeled_metrics`] / quality sampling are on.
    pub fn metrics(&self) -> MetricsRegistry {
        let stats = self.stats();
        let stages = self.stage_latencies();
        let mut reg = MetricsRegistry::new();
        reg.counter(
            "tep_published_total",
            "Events accepted by publish",
            stats.published,
        )
        .counter(
            "tep_processed_total",
            "Events whose matching pass finished",
            stats.processed,
        )
        .counter(
            "tep_match_tests_total",
            "Subscription x event match tests executed",
            stats.match_tests,
        )
        .counter(
            "tep_notifications_total",
            "Notifications delivered to subscriber channels",
            stats.notifications,
        )
        .counter(
            "tep_dropped_full_total",
            "Notifications dropped on a full subscriber channel",
            stats.dropped_full,
        )
        .counter(
            "tep_dropped_disconnected_total",
            "Notifications dropped on a hung-up subscriber",
            stats.dropped_disconnected,
        )
        .counter_with(
            "tep_dropped_total",
            "Notifications dropped, by reason",
            &[("reason", "full")],
            stats.dropped_full,
        )
        .counter_with(
            "tep_dropped_total",
            "Notifications dropped, by reason",
            &[("reason", "disconnected")],
            stats.dropped_disconnected,
        )
        .counter(
            "tep_worker_panics_total",
            "Matcher panics caught or fatal to a worker",
            stats.worker_panics,
        )
        .counter(
            "tep_workers_respawned_total",
            "Workers respawned by the supervisor",
            stats.workers_respawned,
        )
        .counter(
            "tep_quarantined_total",
            "Events moved to the dead-letter queue",
            stats.quarantined,
        )
        .counter(
            "tep_rejected_publishes_total",
            "Publishes refused by the ingress overload policy",
            stats.rejected_publishes,
        )
        .counter(
            "tep_disconnected_subscribers_total",
            "Subscriber registrations reaped",
            stats.disconnected_subscribers,
        )
        .counter(
            "tep_routing_skipped_total",
            "Match tests skipped by theme routing",
            stats.routing_skipped,
        )
        .counter(
            "tep_covered_skips_total",
            "Candidate index entries skipped by covering (subset miss or twin hit)",
            stats.covered_skips,
        )
        .counter(
            "tep_semantic_cache_hits_total",
            "Semantic cache hits across the matcher's caches",
            stats.semantic_cache.hits,
        )
        .counter(
            "tep_semantic_cache_misses_total",
            "Semantic cache misses across the matcher's caches",
            stats.semantic_cache.misses,
        )
        .counter(
            "tep_semantic_cache_evictions_total",
            "Semantic cache entries dropped by rotation",
            stats.semantic_cache.evictions,
        )
        .gauge(
            "tep_live_workers",
            "Worker threads currently alive",
            stats.live_workers as f64,
        )
        .gauge(
            "tep_semantic_cache_entries",
            "Resident semantic cache entries",
            stats.semantic_cache.entries as f64,
        )
        .gauge(
            "tep_dead_letters",
            "Events currently quarantined",
            self.dead_letter_count() as f64,
        )
        .gauge(
            "tep_distinct_subscriptions",
            "Distinct canonical predicate multisets currently subscribed",
            stats.distinct_subscriptions as f64,
        )
        .gauge(
            "tep_index_entries",
            "Live hash-consed subscription index entries",
            stats.index_entries as f64,
        )
        .summary(
            "tep_stage_queue_wait_summary_seconds",
            "Publish to dequeue queue wait (quantile summary)",
            stages.queue_wait.clone(),
        )
        .summary(
            "tep_stage_match_exact_summary_seconds",
            "Match-test latency, exact-only subscriptions (quantile summary)",
            stages.match_exact.clone(),
        )
        .summary(
            "tep_stage_match_thematic_summary_seconds",
            "Match-test latency, approximate cache-miss subscriptions (quantile summary)",
            stages.match_thematic.clone(),
        )
        .summary(
            "tep_stage_match_cached_summary_seconds",
            "Match-test latency, warm-cache subscriptions (quantile summary)",
            stages.match_cached.clone(),
        )
        .summary(
            "tep_stage_deliver_summary_seconds",
            "Match decision to subscriber-channel hand-off (quantile summary)",
            stages.deliver.clone(),
        )
        .histogram(
            "tep_stage_queue_wait_seconds",
            "Publish to dequeue queue wait",
            stages.queue_wait,
        )
        .histogram(
            "tep_stage_match_exact_seconds",
            "Match-test latency, exact-only subscriptions",
            stages.match_exact,
        )
        .histogram(
            "tep_stage_match_thematic_seconds",
            "Match-test latency, approximate subscriptions with a cache miss",
            stages.match_thematic,
        )
        .histogram(
            "tep_stage_match_cached_seconds",
            "Match-test latency, approximate subscriptions served from warm caches",
            stages.match_cached,
        )
        .histogram(
            "tep_stage_deliver_seconds",
            "Match decision to subscriber-channel hand-off",
            stages.deliver,
        )
        .counter_with(
            "tep_routing_decisions_total",
            "Events whose candidate set was selected, by routing policy",
            &[("policy", "broadcast")],
            stats.routed_broadcast,
        )
        .counter_with(
            "tep_routing_decisions_total",
            "Events whose candidate set was selected, by routing policy",
            &[("policy", "theme_overlap")],
            stats.routed_theme_overlap,
        )
        .gauge(
            "tep_publish_queue_depth",
            "Events waiting on the ingress queue",
            self.publish_queue_depth() as f64,
        )
        .gauge_with(
            "tep_build_info",
            "Build metadata as an info gauge; constant 1",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("git", option_env!("GIT_SHA").unwrap_or("unknown")),
            ],
            1.0,
        )
        .gauge(
            "tep_uptime_seconds",
            "Seconds since the broker started",
            self.shared.started.elapsed().as_secs_f64(),
        );
        self.subscriber_queue_metrics(&mut reg);
        self.windowed_metrics(&mut reg);
        self.labeled_metrics(&mut reg);
        self.quality_metrics(&mut reg);
        self.overload_metrics(&mut reg);
        self.cost_metrics(&mut reg);
        reg
    }

    /// Load-state, shed, and circuit-breaker series; no-ops when overload
    /// control is off.
    fn overload_metrics(&self, reg: &mut MetricsRegistry) {
        let Some(overload) = &self.shared.overload else {
            return;
        };
        let stats = self.shared.stats.snapshot();
        reg.gauge(
            "tep_load_state",
            "Broker load state (0=healthy 1=elevated 2=overloaded 3=critical)",
            overload.current().severity() as f64,
        )
        .gauge(
            "tep_load_ewma_queue_wait_ms",
            "EWMA ingress queue wait driving the load-state machine",
            overload.ewma_wait_ms(),
        )
        .counter(
            "tep_load_transitions_total",
            "Load-state machine transitions",
            overload.transitions(),
        )
        .counter_with(
            "tep_shed_total",
            "Events shed at dequeue by overload control, by reason",
            &[("reason", "deadline")],
            stats.shed_deadline,
        )
        .counter_with(
            "tep_shed_total",
            "Events shed at dequeue by overload control, by reason",
            &[("reason", "load")],
            stats.shed_load,
        )
        .counter_with(
            "tep_dropped_total",
            "Notifications dropped, by reason",
            &[("reason", "breaker_open")],
            stats.breaker_open,
        )
        .counter(
            "tep_breaker_trips_total",
            "Subscriber circuit-breaker trips (transitions to Open)",
            stats.breaker_trips,
        )
        .gauge(
            "tep_breakers_open",
            "Subscribers whose circuit breaker is currently open",
            self.open_breakers() as f64,
        );
    }

    /// Queue-depth gauges over the subscriber channels: the sum and max
    /// across all registrations, plus per-subscriber labeled gauges when
    /// labeled metrics are on (capped at the label cardinality).
    fn subscriber_queue_metrics(&self, reg: &mut MetricsRegistry) {
        let mut depths: Vec<(SubscriptionId, usize)> = self
            .shared
            .registry
            .read()
            .iter()
            .map(|(id, r)| (*id, r.sender.len()))
            .collect();
        let sum: usize = depths.iter().map(|(_, d)| d).sum();
        let max = depths.iter().map(|(_, d)| *d).max().unwrap_or(0);
        reg.gauge(
            "tep_subscriber_queue_depth_sum",
            "Notifications waiting across all subscriber channels",
            sum as f64,
        )
        .gauge(
            "tep_subscriber_queue_depth_max",
            "Deepest subscriber channel backlog",
            max as f64,
        );
        if self.shared.dim.is_none() {
            return;
        }
        // Deterministic export order; the cardinality cap bounds the
        // series count, mirroring the counter families.
        depths.sort_by_key(|(id, _)| *id);
        depths.truncate(self.shared.config.label_cardinality);
        for (id, depth) in depths {
            reg.gauge_with(
                "tep_subscriber_queue_depth",
                "Notifications waiting per subscriber channel",
                &[("subscriber", &id.to_string())],
                depth as f64,
            );
        }
    }

    /// Windowed rates and stage-histogram slices for the last ~10s and
    /// ~60s, labeled `{window="..."}` next to their cumulative series.
    /// A window is exported only when the recorder's ring can span it
    /// ([`FlightRecorder::horizon`]): at the default 64 × 250 ms that is
    /// the 10s window alone.
    fn windowed_metrics(&self, reg: &mut MetricsRegistry) {
        let Some(recorder) = &self.shared.recorder else {
            return;
        };
        for (label, span) in [
            ("10s", Duration::from_secs(10)),
            ("60s", Duration::from_secs(60)),
        ] {
            if recorder.horizon() < span {
                continue;
            }
            let Some(delta) = recorder.window(span) else {
                continue;
            };
            for (counter, series) in WINDOWED_RATES {
                if let Some(rate) = delta.rate(counter) {
                    reg.gauge_with(
                        series,
                        "Windowed per-second rate of the matching counter",
                        &[("window", label)],
                        rate,
                    );
                }
            }
            for (stage, snap) in delta.histograms() {
                reg.histogram_with(
                    &format!("tep_stage_{stage}_seconds"),
                    "Windowed slice of the matching stage histogram",
                    &[("window", label)],
                    snap.clone(),
                );
            }
        }
    }

    /// Labeled counter families and top-k tracking gauges; no-ops when
    /// [`BrokerConfig::labeled_metrics`] is off.
    fn labeled_metrics(&self, reg: &mut MetricsRegistry) {
        let Some(dim) = &self.shared.dim else {
            return;
        };
        for (theme, count) in dim.match_by_theme.snapshot() {
            reg.counter_with(
                "tep_theme_match_tests_total",
                "Match tests attributed to each event theme tag",
                &[("theme", &theme)],
                count,
            );
        }
        for (temperature, count) in dim.match_by_temp.snapshot() {
            reg.counter_with(
                "tep_match_temperature_total",
                "Match tests by cache temperature",
                &[("temperature", &temperature)],
                count,
            );
        }
        for (subscriber, count) in dim.notif_by_sub.snapshot() {
            reg.counter_with(
                "tep_subscriber_notifications_total",
                "Notifications admitted per subscriber channel",
                &[("subscriber", &subscriber)],
                count,
            );
        }
        reg.gauge(
            "tep_topk_themes_tracked",
            "Theme slots occupied in the top-k sketch",
            dim.hot_themes.tracked() as f64,
        )
        .gauge(
            "tep_topk_terms_tracked",
            "Term slots occupied in the top-k sketch",
            dim.hot_terms.tracked() as f64,
        );
    }

    /// Live-quality gauges from the shadow evaluator; no-ops until
    /// [`Broker::with_quality_sampling`] installed an oracle.
    fn quality_metrics(&self, reg: &mut MetricsRegistry) {
        let Some(report) = self.quality() else {
            return;
        };
        reg.gauge(
            "tep_quality_precision",
            "Live sampled precision against the ground-truth oracle",
            report.precision,
        )
        .gauge(
            "tep_quality_recall",
            "Live sampled recall against the ground-truth oracle",
            report.recall,
        )
        .gauge(
            "tep_quality_f1",
            "Live sampled F1 against the ground-truth oracle",
            report.f1,
        )
        .counter(
            "tep_quality_samples_total",
            "Match tests judged by the quality oracle",
            report.judged(),
        )
        .counter(
            "tep_quality_unknown_total",
            "Sampled pairs the oracle could not judge",
            report.unknown,
        )
        .gauge(
            "tep_quality_drift_alerts",
            "Rolling drift alerts currently raised",
            report.drift.len() as f64,
        );
    }

    /// Sampled cost-attribution series; no-ops when cost attribution is
    /// off ([`BrokerConfig::with_cost_attribution`]).
    fn cost_metrics(&self, reg: &mut MetricsRegistry) {
        let Some(cost) = &self.shared.cost else {
            return;
        };
        const HELP: &str = "Sampled cost nanoseconds charged, by entity class and stage kind";
        let entries = cost.entries.totals();
        let subscribers = cost.subscribers.totals();
        let theme_match: u64 = cost.theme_match_ns.snapshot().iter().map(|(_, n)| *n).sum();
        let theme_deliver: u64 = cost
            .theme_deliver_ns
            .snapshot()
            .iter()
            .map(|(_, n)| *n)
            .sum();
        reg.counter_with(
            "tep_cost_ns_total",
            HELP,
            &[("entity", "entry"), ("kind", "match")],
            entries.match_ns,
        )
        .counter_with(
            "tep_cost_ns_total",
            HELP,
            &[("entity", "entry"), ("kind", "deliver")],
            entries.deliver_ns,
        )
        .counter_with(
            "tep_cost_ns_total",
            HELP,
            &[("entity", "subscriber"), ("kind", "match")],
            subscribers.match_ns,
        )
        .counter_with(
            "tep_cost_ns_total",
            HELP,
            &[("entity", "subscriber"), ("kind", "deliver")],
            subscribers.deliver_ns,
        )
        .counter_with(
            "tep_cost_ns_total",
            HELP,
            &[("entity", "theme"), ("kind", "match")],
            theme_match,
        )
        .counter_with(
            "tep_cost_ns_total",
            HELP,
            &[("entity", "theme"), ("kind", "deliver")],
            theme_deliver,
        )
        .counter(
            "tep_cost_samples_total",
            "Dispatches charged by the cost sampler",
            cost.samples.load(Ordering::Relaxed),
        )
        .gauge(
            "tep_cost_sample_every",
            "Cost-attribution 1-in-k sampling rate",
            cost.every as f64,
        );
    }

    /// The quarantined events currently in the dead-letter queue, oldest
    /// first (bounded; the oldest entries may have been evicted).
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.shared.dead_letters.snapshot()
    }

    /// Removes and returns everything in the dead-letter queue.
    pub fn drain_dead_letters(&self) -> Vec<DeadLetter> {
        self.shared.dead_letters.drain()
    }

    /// Number of events currently quarantined.
    pub fn dead_letter_count(&self) -> usize {
        self.shared.dead_letters.len()
    }

    /// Whether [`Broker::close`] or [`Broker::shutdown`] has run.
    pub fn is_closed(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Stops accepting events without consuming the broker: subsequent
    /// [`Broker::publish`] / [`Broker::subscribe`] calls return
    /// [`BrokerError::Closed`], while queued events still drain and
    /// stats/dead letters remain readable. Safe to call from any thread,
    /// any number of times.
    pub fn close(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Closing the channel fails in-flight and future sends and wakes
        // blocked publishers; workers exit after draining what's queued.
        self.shared.ingress.close();
    }

    /// Stops accepting events, drains the queue, and joins the workers
    /// and the supervisor.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.close();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

impl fmt::Debug for Broker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("subscriptions", &self.subscription_count())
            .field("closed", &self.is_closed())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RoutingPolicy, SubscriberPolicy};
    use tep_events::{parse_event, parse_subscription};
    use tep_matcher::{ExactMatcher, FaultConfig, FaultInjectingMatcher, MatchResult};

    fn broker() -> Broker {
        Broker::start(
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default().with_workers(2),
        )
    }

    /// Keeps injected panics from spamming test output: installs a hook
    /// that silences panics whose payload is the injected-fault marker.
    fn silence_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("injected"))
                    || info
                        .payload()
                        .downcast_ref::<String>()
                        .is_some_and(|m| m.contains("injected"));
                if !injected {
                    default_hook(info);
                }
            }));
        });
    }

    /// A matcher that panics on every event whose `k` value is `boom`.
    #[derive(Debug)]
    struct BoomMatcher;

    impl Matcher for BoomMatcher {
        fn match_event(&self, subscription: &Subscription, event: &Event) -> MatchResult {
            if event.value_of("k") == Some("boom") {
                panic!("injected test fault");
            }
            ExactMatcher::new().match_event(subscription, event)
        }
    }

    #[test]
    fn delivers_matching_events() {
        let b = broker();
        let (id, rx) = b
            .subscribe(parse_subscription("{device= computer}").unwrap())
            .unwrap();
        b.publish(parse_event("{device: computer}").unwrap())
            .unwrap();
        b.publish(parse_event("{device: laptop}").unwrap()).unwrap();
        b.flush().unwrap();
        let n = rx.try_recv().expect("one delivery");
        assert_eq!(n.subscription, id);
        assert_eq!(n.score(), 1.0);
        assert!(
            rx.try_recv().is_err(),
            "non-matching event must not deliver"
        );
        let stats = b.stats();
        assert_eq!(stats.published, 2);
        assert_eq!(stats.processed, 2);
        assert_eq!(stats.notifications, 1);
        b.shutdown();
    }

    #[test]
    fn multiple_subscribers_fan_out() {
        let b = broker();
        let (_, rx1) = b.subscribe(parse_subscription("{a= 1}").unwrap()).unwrap();
        let (_, rx2) = b.subscribe(parse_subscription("{a= 1}").unwrap()).unwrap();
        assert_eq!(b.subscription_count(), 2);
        b.publish(parse_event("{a: 1}").unwrap()).unwrap();
        b.flush().unwrap();
        assert!(rx1.try_recv().is_ok());
        assert!(rx2.try_recv().is_ok());
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let b = broker();
        let (id, rx) = b.subscribe(parse_subscription("{a= 1}").unwrap()).unwrap();
        assert!(b.unsubscribe(id));
        assert!(!b.unsubscribe(id));
        b.publish(parse_event("{a: 1}").unwrap()).unwrap();
        b.flush().unwrap();
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn dropped_receiver_counts_and_reaps_the_registration() {
        let b = broker();
        let (_, rx) = b.subscribe(parse_subscription("{a= 1}").unwrap()).unwrap();
        drop(rx);
        b.publish(parse_event("{a: 1}").unwrap()).unwrap();
        b.flush().unwrap();
        let stats = b.stats();
        assert_eq!(stats.dropped_disconnected, 1);
        assert_eq!(stats.delivery_failures(), 1);
        assert_eq!(stats.notifications, 0);
        assert_eq!(stats.disconnected_subscribers, 1);
        assert_eq!(
            b.subscription_count(),
            0,
            "dead registration must be reaped, not leaked"
        );
        // Later events no longer pay a match test for the dead subscriber.
        b.publish(parse_event("{a: 1}").unwrap()).unwrap();
        b.flush().unwrap();
        assert_eq!(b.stats().dropped_disconnected, 1);
    }

    #[test]
    fn operations_after_shutdown_error() {
        let mut b = broker();
        b.shutdown_in_place();
        assert_eq!(
            b.publish(parse_event("{a: 1}").unwrap()).unwrap_err(),
            BrokerError::Closed
        );
        assert!(b.subscribe(parse_subscription("{a= 1}").unwrap()).is_err());
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_loss() {
        // A 1-slot queue forces publish() to block until workers drain;
        // nothing may be dropped.
        let config = BrokerConfig {
            workers: 1,
            queue_capacity: 1,
            ..BrokerConfig::default()
        };
        let b = Broker::start(Arc::new(ExactMatcher::new()), config);
        let (_, rx) = b
            .subscribe(parse_subscription("{k= hit}").unwrap())
            .unwrap();
        for i in 0..64 {
            b.publish(parse_event(&format!("{{k: hit, i: n{i}}}")).unwrap())
                .unwrap();
        }
        b.flush().unwrap();
        assert_eq!(b.stats().processed, 64);
        assert_eq!(rx.try_iter().count(), 64);
    }

    #[test]
    fn many_events_all_processed() {
        let b = broker();
        let (_, rx) = b
            .subscribe(parse_subscription("{kind= wanted}").unwrap())
            .unwrap();
        for i in 0..200 {
            let kind = if i % 4 == 0 { "wanted" } else { "other" };
            b.publish(parse_event(&format!("{{kind: {kind}, seq: n{i}}}")).unwrap())
                .unwrap();
        }
        b.flush().unwrap();
        let delivered = rx.try_iter().count();
        assert_eq!(delivered, 50);
        assert_eq!(b.stats().processed, 200);
        assert_eq!(b.stats().match_tests, 200);
    }

    #[test]
    fn reject_policy_fails_fast_on_full_queue() {
        silence_injected_panics();
        // No workers can drain while the single worker sleeps on a slow
        // matcher, so the 1-slot queue fills immediately.
        let slow = FaultInjectingMatcher::new(
            ExactMatcher::new(),
            FaultConfig::none(1).with_latency(1.0, Duration::from_millis(50)),
        );
        let config = BrokerConfig {
            workers: 1,
            queue_capacity: 1,
            publish_policy: PublishPolicy::Reject,
            ..BrokerConfig::default()
        };
        let b = Broker::start(Arc::new(slow), config);
        let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        let mut rejected = 0;
        for i in 0..16 {
            if b.publish(parse_event(&format!("{{k: v{i}}}")).unwrap())
                == Err(BrokerError::QueueFull)
            {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "a 1-slot queue must reject under burst");
        let stats = b.stats();
        assert_eq!(stats.rejected_publishes, rejected);
        b.flush().unwrap();
        let stats = b.stats();
        assert_eq!(
            stats.processed, stats.published,
            "accepted events all process"
        );
    }

    #[test]
    fn timeout_policy_gives_up_after_deadline() {
        silence_injected_panics();
        let slow = FaultInjectingMatcher::new(
            ExactMatcher::new(),
            FaultConfig::none(1).with_latency(1.0, Duration::from_millis(100)),
        );
        let config = BrokerConfig {
            workers: 1,
            queue_capacity: 1,
            publish_policy: PublishPolicy::Timeout(Duration::from_millis(5)),
            ..BrokerConfig::default()
        };
        let b = Broker::start(Arc::new(slow), config);
        let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        let mut saw_timeout = false;
        for i in 0..8 {
            if b.publish(parse_event(&format!("{{k: v{i}}}")).unwrap())
                == Err(BrokerError::PublishTimeout)
            {
                saw_timeout = true;
                break;
            }
        }
        assert!(saw_timeout, "publish must time out against a wedged queue");
        assert!(b.stats().rejected_publishes >= 1);
    }

    #[test]
    fn zero_duration_timeout_behaves_like_reject() {
        silence_injected_panics();
        // Same wedged-queue setup as the Reject test: the single worker
        // sleeps on every match, so the 1-slot queue fills immediately.
        let slow = FaultInjectingMatcher::new(
            ExactMatcher::new(),
            FaultConfig::none(1).with_latency(1.0, Duration::from_millis(50)),
        );
        let config = BrokerConfig {
            workers: 1,
            queue_capacity: 1,
            publish_policy: PublishPolicy::Timeout(Duration::ZERO),
            ..BrokerConfig::default()
        };
        let b = Broker::start(Arc::new(slow), config);
        let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        let mut timed_out = 0u64;
        let burst_start = Instant::now();
        for i in 0..16 {
            match b.publish(parse_event(&format!("{{k: v{i}}}")).unwrap()) {
                Ok(()) => {}
                Err(BrokerError::PublishTimeout) => timed_out += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // One queue-full check, no sleep: the whole burst must come back
        // immediately (far under the 16 × 50ms a blocking send would
        // take), and failures surface as PublishTimeout, never QueueFull.
        assert!(timed_out > 0, "a 1-slot queue must fail fast under burst");
        assert!(
            burst_start.elapsed() < Duration::from_millis(200),
            "zero timeout must not park the publisher"
        );
        assert_eq!(b.stats().rejected_publishes, timed_out);
        b.flush().unwrap();
        let stats = b.stats();
        assert_eq!(stats.processed, stats.published);
    }

    #[test]
    fn overload_control_is_inert_for_default_traffic() {
        // Overload control on, default-priority events, no deadlines: the
        // broker must behave exactly as if the subsystem were off.
        let b = Broker::start(
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default()
                .with_workers(2)
                .with_overload_control(crate::OverloadConfig::default()),
        );
        assert_eq!(b.load_state(), Some(crate::LoadState::Healthy));
        let (_, rx) = b.subscribe(parse_subscription("{a= 1}").unwrap()).unwrap();
        for _ in 0..50 {
            b.publish(parse_event("{a: 1}").unwrap()).unwrap();
        }
        b.flush().unwrap();
        let stats = b.stats();
        assert_eq!(stats.notifications, 50);
        assert_eq!(stats.shed_total(), 0);
        assert_eq!(rx.try_iter().count(), 50);
        let json = b.overload_json();
        assert!(json.contains("\"enabled\": true"), "overload json: {json}");
    }

    #[test]
    fn overload_json_reports_disabled_without_config() {
        let b = broker();
        assert_eq!(b.load_state(), None);
        assert!(b.overload_json().contains("\"enabled\": false"));
        // Forcing is a documented no-op when the subsystem is off.
        b.force_load_state(Some(crate::LoadState::Critical));
        assert_eq!(b.load_state(), None);
    }

    #[test]
    fn isolated_panic_poisons_neither_worker_nor_other_events() {
        silence_injected_panics();
        let config = BrokerConfig::default()
            .with_workers(2)
            .with_max_match_attempts(1);
        let b = Broker::start(Arc::new(BoomMatcher), config);
        let (_, rx) = b.subscribe(parse_subscription("{k= ok}").unwrap()).unwrap();
        for i in 0..20 {
            let k = if i % 5 == 0 { "boom" } else { "ok" };
            b.publish(parse_event(&format!("{{k: {k}, seq: n{i}}}")).unwrap())
                .unwrap();
        }
        b.flush_timeout(Duration::from_secs(10)).unwrap();
        let stats = b.stats();
        assert_eq!(
            stats.processed, 20,
            "faulty events still count as processed"
        );
        assert_eq!(stats.worker_panics, 4);
        assert_eq!(stats.quarantined, 4);
        assert_eq!(
            stats.workers_respawned, 0,
            "isolation must not kill workers"
        );
        assert_eq!(stats.live_workers, 2);
        assert_eq!(rx.try_iter().count(), 16, "clean events all deliver");
        assert_eq!(b.dead_letter_count(), 4);
        assert!(b
            .dead_letters()
            .iter()
            .all(|d| d.event.value_of("k") == Some("boom") && d.attempts == 1));
    }

    #[test]
    fn unisolated_panic_kills_worker_and_supervisor_respawns_it() {
        silence_injected_panics();
        let config = BrokerConfig::default()
            .with_workers(2)
            .with_panic_isolation(false)
            .with_max_match_attempts(1);
        let b = Broker::start(Arc::new(BoomMatcher), config);
        let (_, rx) = b.subscribe(parse_subscription("{k= ok}").unwrap()).unwrap();
        for i in 0..20 {
            let k = if i % 5 == 0 { "boom" } else { "ok" };
            b.publish(parse_event(&format!("{{k: {k}, seq: n{i}}}")).unwrap())
                .unwrap();
        }
        b.flush_timeout(Duration::from_secs(10)).unwrap();
        // `flush` returns when the last boom is quarantined, which the
        // supervisor does *before* finishing the matching respawn — give
        // the bookkeeping a moment to settle before asserting on it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let s = b.stats();
            if s.workers_respawned == 4 && s.live_workers == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = b.stats();
        assert_eq!(stats.processed, 20);
        assert_eq!(stats.worker_panics, 4, "each boom kills one worker");
        assert_eq!(stats.workers_respawned, 4);
        assert_eq!(stats.quarantined, 4);
        assert_eq!(stats.live_workers, 2, "the pool must be back to strength");
        assert_eq!(rx.try_iter().count(), 16);
        b.shutdown();
    }

    #[test]
    fn retry_budget_is_spent_before_quarantine() {
        silence_injected_panics();
        let config = BrokerConfig::default()
            .with_workers(1)
            .with_max_match_attempts(3);
        let b = Broker::start(Arc::new(BoomMatcher), config);
        let (_, _rx) = b.subscribe(parse_subscription("{k= ok}").unwrap()).unwrap();
        b.publish(parse_event("{k: boom}").unwrap()).unwrap();
        b.flush_timeout(Duration::from_secs(10)).unwrap();
        let stats = b.stats();
        assert_eq!(stats.worker_panics, 3, "all three attempts panic");
        assert_eq!(stats.quarantined, 1);
        let letters = b.dead_letters();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].attempts, 3);
    }

    #[test]
    fn dead_letter_queue_is_bounded() {
        silence_injected_panics();
        let config = BrokerConfig {
            workers: 1,
            max_match_attempts: 1,
            dead_letter_capacity: 4,
            ..BrokerConfig::default()
        };
        let b = Broker::start(Arc::new(BoomMatcher), config);
        let (_, _rx) = b.subscribe(parse_subscription("{k= ok}").unwrap()).unwrap();
        for i in 0..10 {
            b.publish(parse_event(&format!("{{k: boom, seq: n{i}}}")).unwrap())
                .unwrap();
        }
        b.flush_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(
            b.stats().quarantined,
            10,
            "the counter keeps the full total"
        );
        assert_eq!(b.dead_letter_count(), 4, "the queue keeps only the newest");
        let drained = b.drain_dead_letters();
        assert_eq!(drained.len(), 4);
        assert_eq!(b.dead_letter_count(), 0);
    }

    #[test]
    fn drop_oldest_policy_keeps_the_newest_notifications() {
        let config = BrokerConfig {
            workers: 1,
            notification_capacity: 4,
            subscriber_policy: SubscriberPolicy::DropOldest,
            ..BrokerConfig::default()
        };
        let b = Broker::start(Arc::new(ExactMatcher::new()), config);
        let (_, rx) = b
            .subscribe(parse_subscription("{k= hit}").unwrap())
            .unwrap();
        for i in 0..12 {
            b.publish(parse_event(&format!("{{k: hit, seq: n{i}}}")).unwrap())
                .unwrap();
        }
        b.flush().unwrap();
        let received: Vec<String> = rx
            .try_iter()
            .map(|n| n.event.value_of("seq").unwrap_or_default().to_string())
            .collect();
        assert_eq!(received.len(), 4, "channel keeps exactly its capacity");
        assert!(
            received.contains(&"n11".to_string()),
            "newest must survive, got {received:?}"
        );
        let stats = b.stats();
        assert_eq!(stats.dropped_full, 8);
        assert_eq!(
            stats.notifications, 12,
            "every notification was admitted once"
        );
    }

    #[test]
    fn disconnect_after_policy_reaps_slow_subscribers() {
        let config = BrokerConfig {
            workers: 1,
            notification_capacity: 2,
            subscriber_policy: SubscriberPolicy::DisconnectAfter(3),
            ..BrokerConfig::default()
        };
        let b = Broker::start(Arc::new(ExactMatcher::new()), config);
        // `slow` never drains its 2-slot channel; `healthy` is drained
        // after every event (flushing per publish keeps this deterministic).
        let (_, _slow_rx) = b
            .subscribe(parse_subscription("{k= hit}").unwrap())
            .unwrap();
        let (_, healthy_rx) = b
            .subscribe(parse_subscription("{k= hit}").unwrap())
            .unwrap();
        for i in 0..10 {
            b.publish(parse_event(&format!("{{k: hit, seq: n{i}}}")).unwrap())
                .unwrap();
            b.flush().unwrap();
            while healthy_rx.try_recv().is_ok() {}
        }
        let stats = b.stats();
        assert_eq!(
            b.subscription_count(),
            1,
            "the wedged subscriber must be reaped after 3 consecutive drops"
        );
        assert_eq!(stats.disconnected_subscribers, 1);
        // 2 delivered before wedging + 3 consecutive drops; then reaped.
        assert_eq!(stats.dropped_full, 3);
        b.shutdown();
    }

    #[test]
    fn flush_timeout_reports_wedged_queues() {
        silence_injected_panics();
        let slow = FaultInjectingMatcher::new(
            ExactMatcher::new(),
            FaultConfig::none(1).with_latency(1.0, Duration::from_millis(200)),
        );
        let b = Broker::start(Arc::new(slow), BrokerConfig::default().with_workers(1));
        let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        for i in 0..4 {
            b.publish(parse_event(&format!("{{k: v{i}}}")).unwrap())
                .unwrap();
        }
        assert_eq!(
            b.flush_timeout(Duration::from_millis(10)),
            Err(BrokerError::FlushTimeout)
        );
        // The generous deadline succeeds once the backlog drains.
        b.flush_timeout(Duration::from_secs(10)).unwrap();
    }

    #[test]
    fn theme_overlap_routes_by_shared_tags() {
        let config = BrokerConfig::default()
            .with_workers(2)
            .with_routing_policy(RoutingPolicy::ThemeOverlap);
        let b = Broker::start(Arc::new(ExactMatcher::new()), config);
        let (_, power_rx) = b
            .subscribe(parse_subscription("({power}, {k= v})").unwrap())
            .unwrap();
        let (_, transport_rx) = b
            .subscribe(parse_subscription("({transport}, {k= v})").unwrap())
            .unwrap();
        let (_, bare_rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();

        b.publish(parse_event("({power, grid}, {k: v})").unwrap())
            .unwrap();
        b.flush().unwrap();
        assert_eq!(power_rx.try_iter().count(), 1, "shared tag delivers");
        assert_eq!(bare_rx.try_iter().count(), 1, "theme-less stays broadcast");
        assert_eq!(
            transport_rx.try_iter().count(),
            0,
            "disjoint themes must not deliver under ThemeOverlap"
        );
        let stats = b.stats();
        // The two candidates ({power} and the theme-less entry) carry
        // equal predicate multisets, so they are twins: one test serves
        // both and the second is a covered skip. The disjoint
        // {transport} pair is never even a candidate.
        assert_eq!(stats.match_tests, 1, "one test serves the twin pair");
        assert_eq!(stats.covered_skips, 1);
        assert_eq!(stats.routing_skipped, 1);

        // A theme-less event reaches only the broadcast set.
        b.publish(parse_event("{k: v}").unwrap()).unwrap();
        b.flush().unwrap();
        assert_eq!(bare_rx.try_iter().count(), 1);
        assert_eq!(power_rx.try_iter().count(), 0);
        assert_eq!(transport_rx.try_iter().count(), 0);
        let stats = b.stats();
        assert_eq!(stats.match_tests, 2);
        assert_eq!(stats.covered_skips, 1, "a lone candidate has no twin");
        assert_eq!(stats.routing_skipped, 3);
        b.shutdown();
    }

    #[test]
    fn broadcast_policy_still_delivers_across_disjoint_themes() {
        // The default policy must keep the historical semantics: a
        // theme-agnostic matcher delivers regardless of theme overlap.
        let b = broker();
        let (_, rx) = b
            .subscribe(parse_subscription("({transport}, {k= v})").unwrap())
            .unwrap();
        b.publish(parse_event("({power}, {k: v})").unwrap())
            .unwrap();
        b.flush().unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(b.stats().routing_skipped, 0);
    }

    #[test]
    fn unsubscribe_and_reap_maintain_the_routing_table() {
        let config = BrokerConfig::default()
            .with_workers(1)
            .with_routing_policy(RoutingPolicy::ThemeOverlap);
        let b = Broker::start(Arc::new(ExactMatcher::new()), config);
        let (id, _rx) = b
            .subscribe(parse_subscription("({power}, {k= v})").unwrap())
            .unwrap();
        assert!(b.unsubscribe(id));
        b.publish(parse_event("({power}, {k: v})").unwrap())
            .unwrap();
        b.flush().unwrap();
        let stats = b.stats();
        assert_eq!(stats.match_tests, 0);
        assert_eq!(
            stats.routing_skipped, 0,
            "unsubscribe must clear the routing entry with the registration"
        );

        // A hung-up subscriber is reaped from the routing table too.
        let (_, dead_rx) = b
            .subscribe(parse_subscription("({power}, {k= v})").unwrap())
            .unwrap();
        drop(dead_rx);
        b.publish(parse_event("({power}, {k: v})").unwrap())
            .unwrap();
        b.flush().unwrap();
        assert_eq!(b.stats().disconnected_subscribers, 1);
        assert_eq!(b.subscription_count(), 0);
        b.publish(parse_event("({power}, {k: v})").unwrap())
            .unwrap();
        b.flush().unwrap();
        let stats = b.stats();
        assert_eq!(stats.match_tests, 1, "reaped subscribers cost nothing");
        assert_eq!(
            stats.routing_skipped, 0,
            "reap must clear the routing entry, not just the registry"
        );
        b.shutdown();
    }

    #[test]
    fn subscription_lifecycle_reaches_matcher_caches() {
        use tep_corpus::{Corpus, CorpusConfig};
        use tep_index::InvertedIndex;
        use tep_matcher::{MatcherConfig, ProbabilisticMatcher};
        use tep_semantics::{DistributionalSpace, ParametricVectorSpace, ThematicEsaMeasure};
        let corpus = Corpus::generate(&CorpusConfig::small());
        let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
            InvertedIndex::build(&corpus),
        )));
        let matcher =
            ProbabilisticMatcher::new(ThematicEsaMeasure::new(pvsm), MatcherConfig::top1());
        let b = Broker::start(Arc::new(matcher), BrokerConfig::default().with_workers(1));
        let (id, _rx) = b
            .subscribe(parse_subscription("({energy policy}, {type~= energy usage~})").unwrap())
            .unwrap();
        assert!(
            b.stats().semantic_cache.pinned > 0,
            "subscribe must pin the subscription's projections"
        );
        assert!(b.unsubscribe(id));
        assert_eq!(
            b.stats().semantic_cache.pinned,
            0,
            "unsubscribe must release the pins"
        );
        b.shutdown();
    }

    #[test]
    fn explain_ring_captures_accepts_and_rejects() {
        let config = BrokerConfig::default()
            .with_workers(1)
            .with_explain_capacity(16);
        let b = Broker::start(Arc::new(ExactMatcher::new()), config);
        let (id, _rx) = b
            .subscribe(parse_subscription("{device= computer}").unwrap())
            .unwrap();
        b.publish(parse_event("{device: computer}").unwrap())
            .unwrap();
        b.publish(parse_event("{device: laptop}").unwrap()).unwrap();
        b.flush().unwrap();
        let explanations = b.explain_last(10);
        assert_eq!(explanations.len(), 2, "accepted AND rejected tests");
        let accepted = explanations
            .iter()
            .find(|e| e.outcome == crate::MatchOutcome::Delivered)
            .expect("one delivered explanation");
        assert_eq!(accepted.subscription, id);
        assert_eq!(accepted.score, 1.0);
        assert_eq!(accepted.threshold, 0.25);
        assert_eq!(accepted.temperature, crate::CacheTemperature::Exact);
        let detail = accepted.detail.as_ref().expect("delivered tests explain");
        assert_eq!(detail.predicates.len(), 1);
        assert_eq!(detail.predicates[0].similarity, 1.0);
        let rejected = explanations
            .iter()
            .find(|e| e.outcome == crate::MatchOutcome::NoMapping)
            .expect("one rejected explanation");
        assert_eq!(rejected.score, 0.0);
        // explain_last(n) keeps only the newest n.
        assert_eq!(b.explain_last(1).len(), 1);
        assert_eq!(b.explain_last(0).len(), 0);
        b.shutdown();
    }

    #[test]
    fn explanations_are_off_by_default() {
        let b = broker();
        let (_, rx) = b.subscribe(parse_subscription("{a= 1}").unwrap()).unwrap();
        b.publish(parse_event("{a: 1}").unwrap()).unwrap();
        b.flush().unwrap();
        assert!(b.explain_last(100).is_empty());
        assert!(rx.try_recv().unwrap().explanation.is_none());
        assert!(b.spans().is_empty());
    }

    #[test]
    fn subscribe_with_attaches_explanations_to_notifications() {
        let b = broker();
        let (_, rx) = b
            .subscribe_with(
                parse_subscription("{a= 1}").unwrap(),
                SubscribeOptions::explained(),
            )
            .unwrap();
        b.publish(parse_event("{a: 1}").unwrap()).unwrap();
        b.flush().unwrap();
        let n = rx.try_recv().unwrap();
        let e = n.explanation.expect("opt-in attaches the explanation");
        assert_eq!(e.outcome, crate::MatchOutcome::Delivered);
        assert_eq!(e.score, 1.0);
        assert!(e.detail.is_some());
        // The broker-wide ring stays off: attachment is per-subscriber.
        assert!(b.explain_last(10).is_empty());
        b.shutdown();
    }

    #[test]
    fn sampled_events_reconstruct_a_span_tree() {
        let config = BrokerConfig::default()
            .with_workers(1)
            .with_span_sampling(2);
        let b = Broker::start(Arc::new(ExactMatcher::new()), config);
        let (_, _rx) = b.subscribe(parse_subscription("{a= 1}").unwrap()).unwrap();
        for _ in 0..4 {
            b.publish(parse_event("{a: 1}").unwrap()).unwrap();
        }
        b.flush().unwrap();
        // 1-in-2 sampling: seqs 0 and 2 traced, 1 and 3 not.
        assert!(b.span_tree(1).is_empty());
        assert!(b.span_tree(3).is_empty());
        let tree = b.span_tree(0);
        assert_eq!(tree.len(), 1, "one root per event");
        let root = &tree[0];
        assert_eq!(root.record.name, "publish");
        assert_eq!(root.children.len(), 1);
        let route = &root.children[0];
        assert_eq!(route.record.name, "route");
        assert_eq!(route.children.len(), 1);
        let m = &route.children[0];
        assert_eq!(m.record.name, "match");
        assert_eq!(m.children.len(), 1);
        assert_eq!(m.children[0].record.name, "deliver");
        assert_eq!(root.size(), 4, "publish → route → match → deliver");
        b.shutdown();
    }

    #[test]
    fn quarantined_events_explain_the_panic_and_span_the_quarantine() {
        silence_injected_panics();
        let config = BrokerConfig::default()
            .with_workers(1)
            .with_max_match_attempts(1)
            .with_explain_capacity(8)
            .with_span_sampling(1);
        let b = Broker::start(Arc::new(BoomMatcher), config);
        let (_, _rx) = b.subscribe(parse_subscription("{k= ok}").unwrap()).unwrap();
        b.publish(parse_event("{k: boom}").unwrap()).unwrap();
        b.flush_timeout(Duration::from_secs(10)).unwrap();
        let explanations = b.explain_last(8);
        assert_eq!(explanations.len(), 1);
        match &explanations[0].outcome {
            crate::MatchOutcome::Panicked { reason } => {
                assert_eq!(reason, "injected test fault");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(explanations[0].detail.is_none());
        let tree = b.span_tree(0);
        assert_eq!(tree.len(), 1);
        let route = &tree[0].children[0];
        let names: Vec<&str> = route.children.iter().map(|c| c.record.name).collect();
        assert!(names.contains(&"match"));
        assert!(names.contains(&"quarantine"));
        b.shutdown();
    }

    #[test]
    fn close_is_idempotent_and_usable_from_shared_references() {
        let b = broker();
        b.publish(parse_event("{a: 1}").unwrap()).unwrap();
        b.close();
        b.close();
        assert!(b.is_closed());
        assert_eq!(
            b.publish(parse_event("{a: 2}").unwrap()).unwrap_err(),
            BrokerError::Closed
        );
        // Already-accepted events still drain after close.
        b.flush_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(b.stats().processed, 1);
        b.shutdown();
    }

    #[test]
    fn routing_decision_counters_split_by_policy() {
        let b = broker();
        let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        b.publish(parse_event("{k: v}").unwrap()).unwrap();
        b.flush().unwrap();
        let stats = b.stats();
        assert_eq!(stats.routed_broadcast, 1);
        assert_eq!(stats.routed_theme_overlap, 0);
        let prom = b.metrics().render_prometheus();
        assert!(prom.contains("tep_routing_decisions_total{policy=\"broadcast\"} 1"));
        assert!(prom.contains("tep_routing_decisions_total{policy=\"theme_overlap\"} 0"));
        b.shutdown();

        let config = BrokerConfig::default()
            .with_workers(1)
            .with_routing_policy(RoutingPolicy::ThemeOverlap);
        let b = Broker::start(Arc::new(ExactMatcher::new()), config);
        b.publish(parse_event("({power}, {k: v})").unwrap())
            .unwrap();
        b.flush().unwrap();
        let stats = b.stats();
        assert_eq!(stats.routed_broadcast, 0);
        assert_eq!(stats.routed_theme_overlap, 1);
        b.shutdown();
    }

    #[test]
    fn queue_depth_gauges_are_exported() {
        let b = broker();
        let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        b.publish(parse_event("{k: v}").unwrap()).unwrap();
        b.flush().unwrap();
        let prom = b.metrics().render_prometheus();
        assert!(prom.contains("# TYPE tep_publish_queue_depth gauge"));
        // Drained broker: nothing queued anywhere, one notification held.
        assert!(prom.contains("tep_publish_queue_depth 0"));
        assert!(prom.contains("tep_subscriber_queue_depth_sum 1"));
        assert!(prom.contains("tep_subscriber_queue_depth_max 1"));
        b.shutdown();
    }

    #[test]
    fn labeled_metrics_export_families_and_topk() {
        let config = BrokerConfig::default()
            .with_workers(1)
            .with_labeled_metrics(true);
        let b = Broker::start(Arc::new(ExactMatcher::new()), config);
        let (id, rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        for _ in 0..3 {
            b.publish(parse_event("({power, grid}, {k: v})").unwrap())
                .unwrap();
        }
        b.flush().unwrap();
        assert_eq!(rx.try_iter().count(), 3);

        let prom = b.metrics().render_prometheus();
        assert!(
            prom.contains("tep_theme_match_tests_total{theme=\"power\"} 3"),
            "per-theme attribution missing:\n{prom}"
        );
        assert!(prom.contains("tep_theme_match_tests_total{theme=\"grid\"} 3"));
        assert!(prom.contains("tep_match_temperature_total{temperature=\"exact\"} 3"));
        let sub_series = format!("tep_subscriber_notifications_total{{subscriber=\"{id}\"}} 3");
        assert!(prom.contains(&sub_series), "missing {sub_series}:\n{prom}");
        assert!(prom.contains(&format!(
            "tep_subscriber_queue_depth{{subscriber=\"{id}\"}}"
        )));

        let themes = b.top_themes(4);
        assert_eq!(themes.len(), 2);
        assert!(themes.iter().all(|(_, count)| *count == 3));
        let terms = b.top_terms(8);
        assert!(terms.iter().any(|(name, _)| name == "k"));
        assert!(terms.iter().any(|(name, _)| name == "v"));
        let top = b.top_json(4);
        assert!(top.contains("\"themes\""));
        assert!(top.contains("\"count\": 3"));
        assert_eq!(
            top.matches(['{', '[']).count(),
            top.matches(['}', ']']).count()
        );
        b.shutdown();
    }

    #[test]
    fn disabled_labeled_metrics_stay_inert() {
        let b = broker();
        let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        b.publish(parse_event("({power}, {k: v})").unwrap())
            .unwrap();
        b.flush().unwrap();
        assert!(b.top_themes(4).is_empty());
        assert!(b.top_terms(4).is_empty());
        let prom = b.metrics().render_prometheus();
        assert!(!prom.contains("tep_theme_match_tests_total"));
        assert!(!prom.contains("tep_subscriber_notifications_total"));
        b.shutdown();
    }

    fn recorder_broker(settings: crate::RecorderSettings) -> Broker {
        Broker::start(
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default()
                .with_workers(2)
                .with_flight_recorder(settings),
        )
    }

    #[test]
    fn windowed_series_appear_after_ticks() {
        assert!(
            broker().window(Duration::from_secs(10)).is_none(),
            "recorder off"
        );
        let b = recorder_broker(crate::RecorderSettings::default());
        let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        for _ in 0..5 {
            b.publish(parse_event("{k: v}").unwrap()).unwrap();
        }
        b.flush().unwrap();
        b.record_diagnostic_frame();
        // The base is the start-up frame: the ring is far younger than 10s.
        let delta = b.window(Duration::from_secs(10)).expect("two frames");
        assert_eq!(delta.counter_delta("published"), Some(5));
        assert_eq!(delta.counter_delta("match_tests"), Some(5));
        assert!(delta.rate("published").unwrap() > 0.0);
        let match_window = delta
            .histogram("match_exact")
            .expect("stage histogram in frame");
        assert_eq!(match_window.count(), 5);

        let prom = b.metrics().render_prometheus();
        assert!(
            prom.contains("tep_published_rate{window=\"10s\"}"),
            "windowed rate missing:\n{prom}"
        );
        assert!(prom.contains(
            "# HELP tep_published_rate Windowed per-second rate of the matching counter"
        ));
        assert!(prom.contains("tep_stage_match_exact_seconds_count{window=\"10s\"} 5"));
        // Cumulative series keep their bare names alongside.
        assert!(prom.contains("tep_published_total 5"));
        b.shutdown();
    }

    #[test]
    fn only_windows_the_ring_spans_are_exported() {
        // 64 frames × 250 ms = 16 s: the 10s window only.
        let b = recorder_broker(crate::RecorderSettings::default());
        b.record_diagnostic_frame();
        let prom = b.metrics().render_prometheus();
        assert!(
            prom.contains("tep_published_rate{window=\"10s\"}"),
            "{prom}"
        );
        assert!(!prom.contains("window=\"60s\""), "{prom}");
        b.shutdown();
        // 256 frames × 250 ms = 64 s: both windows.
        let b = recorder_broker(crate::RecorderSettings {
            frame_capacity: 256,
            ..crate::RecorderSettings::default()
        });
        b.record_diagnostic_frame();
        let prom = b.metrics().render_prometheus();
        for window in ["10s", "60s"] {
            assert!(
                prom.contains(&format!("tep_published_rate{{window=\"{window}\"}}")),
                "{window} missing:\n{prom}"
            );
            assert!(prom.contains(&format!(
                "tep_stage_deliver_seconds_count{{window=\"{window}\"}}"
            )));
        }
        b.shutdown();
    }

    #[test]
    fn quality_sampling_tracks_live_f1() {
        /// Ground truth: an event is relevant iff its `k` tuple is `v`.
        struct KvOracle;
        impl crate::QualityOracle for KvOracle {
            fn judge(&self, _s: &Subscription, e: &Event) -> Option<bool> {
                Some(e.value_of("k") == Some("v"))
            }
        }
        let b = Broker::start(
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default().with_workers(1),
        )
        .with_quality_sampling(1, Box::new(KvOracle));
        assert!(b.quality().is_some(), "oracle installed");
        let (_, rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        for i in 0..8 {
            let event = if i % 2 == 0 { "{k: v}" } else { "{k: w}" };
            b.publish(parse_event(event).unwrap()).unwrap();
        }
        b.flush().unwrap();
        assert_eq!(rx.try_iter().count(), 4);
        let report = b.quality().unwrap();
        // The exact matcher agrees with the oracle perfectly.
        assert_eq!(report.true_positives, 4);
        assert_eq!(report.true_negatives, 4);
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.false_negatives, 0);
        assert!((report.f1 - 1.0).abs() < 1e-12);
        let prom = b.metrics().render_prometheus();
        assert!(prom.contains("tep_quality_f1 1"));
        assert!(prom.contains("tep_quality_samples_total 8"));
        b.shutdown();
    }

    #[test]
    fn quality_disabled_reports_none_and_exports_nothing() {
        let b = broker();
        let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        b.publish(parse_event("{k: v}").unwrap()).unwrap();
        b.flush().unwrap();
        assert!(b.quality().is_none());
        assert!(!b.metrics().render_prometheus().contains("tep_quality_"));
        b.shutdown();
    }

    #[test]
    fn cost_attribution_disabled_is_inert() {
        let b = broker();
        let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        b.publish(parse_event("{k: v}").unwrap()).unwrap();
        b.flush().unwrap();
        let report = b.costs();
        assert!(!report.enabled);
        assert_eq!(report.samples, 0);
        assert!(report.entries.is_empty());
        assert_eq!(b.costs_json(), "{\n  \"enabled\": false\n}\n");
        assert!(!b.metrics().render_prometheus().contains("tep_cost_"));
        b.shutdown();
    }

    #[test]
    fn cost_attribution_reconciles_exactly_at_k_one() {
        let b = Broker::start(
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default()
                .with_workers(2)
                .with_cost_attribution(1),
        );
        let (_, rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        let (_, _other) = b
            .subscribe(parse_subscription("{other= thing}").unwrap())
            .unwrap();
        for _ in 0..32 {
            b.publish(parse_event("{k: v}").unwrap()).unwrap();
        }
        b.flush().unwrap();
        assert_eq!(rx.try_iter().count(), 32);
        let report = b.costs();
        assert!(report.enabled);
        assert_eq!(report.sample_every, 1);
        assert!(report.samples >= 32, "every dispatch is sampled at k=1");
        // The invariant the sampler is built around: at k=1 each charged
        // nanosecond figure is the very value the stage histograms
        // recorded, so attributed totals equal the histogram sums.
        let stages = b.stage_latencies();
        let match_ns = stages.match_exact.sum().as_nanos() as u64
            + stages.match_thematic.sum().as_nanos() as u64
            + stages.match_cached.sum().as_nanos() as u64;
        let deliver_ns = stages.deliver.sum().as_nanos() as u64;
        assert_eq!(report.sampled_match_ns, match_ns);
        assert_eq!(report.sampled_deliver_ns, deliver_ns);
        assert_eq!(report.estimated_total_ns(), match_ns + deliver_ns);
        // The exact per-entry table carries the same totals.
        let entry_match: u64 = report.entries.iter().map(|e| e.match_ns).sum();
        let entry_deliver: u64 = report.entries.iter().map(|e| e.deliver_ns).sum();
        assert_eq!(entry_match, match_ns);
        assert_eq!(entry_deliver, deliver_ns);
        // Labels were preformatted at subscribe time.
        assert!(report.entries.iter().all(|e| e.label.starts_with("entry-")));
        assert!(report
            .subscribers
            .iter()
            .all(|e| e.label.starts_with("sub-")));
        // Untagged events still land in the per-theme table.
        assert!(report.themes.iter().any(|t| t.label == "untagged"));
        assert!(!report.hot_entries.is_empty());
        // JSON and Prometheus surfaces agree it is on.
        let json = b.costs_json();
        assert!(json.contains("\"enabled\": true"));
        assert!(json.contains("\"sample_every\": 1"));
        assert!(json.contains("\"entries\": [{\"label\": \"entry-"));
        let prom = b.metrics().render_prometheus();
        assert!(prom.contains("tep_cost_ns_total"));
        assert!(prom.contains("entity=\"entry\""));
        assert!(prom.contains("tep_cost_samples_total"));
        assert!(prom.contains("tep_cost_sample_every 1"));
        b.shutdown();
    }

    #[test]
    fn cost_sampling_is_deterministic_across_runs() {
        let run = || {
            let b = Broker::start(
                Arc::new(ExactMatcher::new()),
                BrokerConfig::default()
                    .with_workers(1)
                    .with_cost_attribution(4),
            );
            let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
            for _ in 0..64 {
                b.publish(parse_event("{k: v}").unwrap()).unwrap();
            }
            b.flush().unwrap();
            let samples = b.costs().samples;
            b.shutdown();
            samples
        };
        let first = run();
        assert!(first > 0, "k=4 over 64 events lands some samples");
        assert!(first < 64, "k=4 samples a strict subset of dispatches");
        assert_eq!(first, run(), "the sample set is a pure (seq, uid) hash");
    }

    #[test]
    fn build_info_and_uptime_are_exported() {
        let b = broker();
        let prom = b.metrics().render_prometheus();
        assert!(prom.contains("tep_build_info{"));
        assert!(prom.contains(concat!("version=\"", env!("CARGO_PKG_VERSION"), "\"")));
        assert!(prom.contains("tep_uptime_seconds"));
        b.shutdown();
    }
}

//! The broker runtime.

use crate::config::{BrokerConfig, PublishPolicy};
use crate::explain::{ExplanationJson, MatchExplanation};
use crate::notification::Notification;
use crate::overload::{BreakerState, LoadState, OverloadController};
use crate::quality::{QualityOracle, QualityReport, QualityState};
use crate::stats::{BrokerStats, StageLatencies, StageRow, StatsInner, COUNTERS, STAGES};
use crate::subindex::SubscriptionIndex;
use crate::supervisor::{supervisor_loop, DeadLetter, DeadLetterQueue, Job};
use crossbeam::channel::{bounded, Receiver, SendTimeoutError, Sender, TrySendError};
use parking_lot::RwLock;
use serde::Serialize;
use serde_json::JsonValue;
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
    json_document, sort_by_cost, span_tree, AttributionRow, BoundedRing, CostEntry, CostTable,
    FlightRecorder, FrameWriter, HistogramSnapshot, LabeledRows, MetricsRegistry, RecorderConfig,
    SpanCollector, SpanJson, SpanNode, SpanRecord, TopKSketch, WindowedDelta, OVERFLOW_LABEL,
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
    /// This subscriber's attribution row, resolved at subscribe time so
    /// a delivery charges it with no lock and no lookup. `None` when
    /// attribution is off.
    pub(crate) attribution: Option<Arc<AttributionRow>>,
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
    /// Theme, subscriber and entry attribution; `None` unless
    /// [`BrokerConfig::labeled_metrics`] or cost attribution is on, so
    /// the disabled dispatch path pays a single branch.
    pub(crate) attribution: Option<Attribution>,
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
    /// Broker start time, backing the `tep_uptime_seconds` gauge.
    pub(crate) started: Instant,
}

/// Dispatch work attributed to index entries, event themes and
/// subscribers, built once at start-up when either switch is on: one
/// row per key, whose count column is written only with
/// [`BrokerConfig::labeled_metrics`] on and whose sampled-nanosecond
/// columns only with [`BrokerConfig::cost_sample_every`] non-zero. A
/// deterministic 1-in-k sample of dispatches is charged; scaling a
/// sampled figure by `every` estimates the true total (exact when
/// `every == 1`).
pub(crate) struct Attribution {
    /// Whether the count columns are written (labeled metrics).
    pub(crate) counts: bool,
    /// The 1-in-k sampling rate; 0 when cost attribution is off.
    pub(crate) every: u64,
    /// Per index entry, keyed by the entry's dense slot and stamped with
    /// its uid so recycled slots never inherit charges.
    pub(crate) entries: CostTable,
    /// Per event theme tag: the event's match tests and the sampled
    /// nanoseconds of its dispatches (an event with two tags charges
    /// both, so the rows' sums can exceed the bare totals). Capped at
    /// [`BrokerConfig::label_cardinality`] tags; the rest fold into the
    /// overflow row.
    pub(crate) themes: LabeledRows<String>,
    /// Per subscriber id: admitted notifications and the subscriber's
    /// share of sampled dispatches. Every registration holds its row.
    pub(crate) subscribers: LabeledRows<u64>,
    /// Space-saving sketch of the hottest event theme tags by frequency.
    pub(crate) hot_themes: TopKSketch,
    /// Space-saving sketch of the hottest event terms (tuple attributes
    /// and values).
    pub(crate) hot_terms: TopKSketch,
    /// Space-saving sketch of the most expensive index entries (by
    /// sampled match + deliver nanoseconds), read by recorder frames.
    pub(crate) hot_entries: TopKSketch,
    /// Every sampled dispatch, reconciled against the stage histograms
    /// (sampled × every ≈ histogram sum).
    pub(crate) sampled: AttributionRow,
}

/// The theme row charged by sampled dispatches of untagged events.
const UNTAGGED: &str = "untagged";

impl Attribution {
    fn new(config: &BrokerConfig) -> Option<Attribution> {
        let cardinality = config.label_cardinality;
        (config.labeled_metrics || config.cost_sample_every > 0).then(|| Attribution {
            counts: config.labeled_metrics,
            every: config.cost_sample_every,
            entries: CostTable::new(),
            themes: LabeledRows::new(cardinality),
            subscribers: LabeledRows::new(usize::MAX),
            hot_themes: TopKSketch::new(cardinality.max(16)),
            hot_terms: TopKSketch::new(cardinality.max(16)),
            hot_entries: TopKSketch::new(cardinality.max(16)),
            sampled: AttributionRow::default(),
        })
    }

    /// Whether the dispatch of event `seq` against index entry `uid` is
    /// in the deterministic sample — the same splitmix64 decision the
    /// quality sampler uses, so the choice is reproducible across runs
    /// and uncorrelated with publish order.
    #[inline]
    pub(crate) fn should_sample(&self, seq: u64, uid: u64) -> bool {
        self.every != 0 && crate::quality::mix(seq, uid).is_multiple_of(self.every)
    }

    /// Charges one sampled dispatch to its index entry and the global
    /// sampled totals. Allocation-free: the entry label was preformatted
    /// at subscribe time and the sketch increments tracked keys in place.
    pub(crate) fn charge_entry(&self, slot: u32, uid: u64, match_ns: u64, deliver_ns: u64) {
        self.entries
            .charge(u64::from(slot), uid, match_ns, deliver_ns, |label| {
                self.hot_entries.record_n(label, match_ns + deliver_ns);
            });
        self.sampled.add_sample(match_ns, deliver_ns);
    }

    /// Charges one event to its theme rows, once per tag: its match
    /// `tests` and the summed nanoseconds of its sampled dispatches
    /// (`None` when none was sampled; an untagged event's go to the
    /// `untagged` row). Feeds the theme and term sketches.
    pub(crate) fn charge_event(&self, event: &Event, tests: u64, sampled: Option<(u64, u64)>) {
        let tests = if self.counts { tests } else { 0 };
        let tags = event.theme_tags();
        if let (true, Some((match_ns, deliver_ns))) = (tags.is_empty(), sampled) {
            self.themes
                .with_row(UNTAGGED, |row| row.add_ns(match_ns, deliver_ns));
        }
        for tag in tags {
            if tests > 0 || sampled.is_some() {
                self.themes.with_row(tag.as_str(), |row| {
                    if tests > 0 {
                        row.add_count(tests);
                    }
                    if let Some((match_ns, deliver_ns)) = sampled {
                        row.add_ns(match_ns, deliver_ns);
                    }
                });
            }
            if self.counts {
                self.hot_themes.record(tag);
            }
        }
        if self.counts {
            for tuple in event.tuples() {
                self.hot_terms.record(tuple.attribute());
                self.hot_terms.record(tuple.value());
            }
        }
    }
}

/// A point-in-time cost-attribution report ([`Broker::costs`]).
///
/// All nanosecond figures are **sampled** sums: every 1-in-`sample_every`
/// dispatch contributes its full measured cost, so multiplying a sampled
/// figure by `sample_every` estimates the true total (exact at
/// `sample_every == 1`). `entries` / `subscribers` / `themes` are sorted
/// most-expensive first. `hot_entries` is the amortized top-k sketch
/// feeding the flight recorder (approximate, but allocation-free to
/// maintain); `hot_themes` and `hot_subscribers` are the first 16 exact
/// rows.
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
    /// `(label, sampled ns)` of the 16 most expensive themes.
    pub hot_themes: Vec<(String, u64)>,
    /// `(label, sampled ns)` of the 16 most expensive subscribers.
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

/// Subscriber-channel backlog and open circuit breakers, summed in one
/// allocation-free registry pass ([`Shared::subscriber_gauges`]).
#[derive(Debug, Default)]
pub(crate) struct SubscriberGauges {
    depth_sum: usize,
    depth_max: usize,
    open_breakers: usize,
}

impl Shared {
    /// Removes a registration with everything derived from it: the
    /// registry entry, its index fan-out slot (an entry whose fan-out
    /// empties is dropped with its leaves) and whatever the matcher
    /// pinned for it. Index and matcher cleanup run outside the registry
    /// lock. Returns whether the registration existed. Both
    /// [`Broker::unsubscribe`] and the reaping of dead subscribers call
    /// this.
    pub(crate) fn remove_subscription(&self, id: SubscriptionId) -> bool {
        let Some(reg) = self.registry.write().remove(&id) else {
            return false;
        };
        self.index.remove(id, &reg.subscription);
        (self.hooks.release)(&reg.subscription);
        true
    }

    /// The subscriber-side gauges frames and `/metrics` share.
    pub(crate) fn subscriber_gauges(&self) -> SubscriberGauges {
        let mut out = SubscriberGauges::default();
        for reg in self.registry.read().values() {
            let depth = reg.sender.len();
            out.depth_sum += depth;
            out.depth_max = out.depth_max.max(depth);
            if reg
                .breaker
                .as_ref()
                .is_some_and(|breaker| breaker.lock().is_open())
            {
                out.open_breakers += 1;
            }
        }
        out
    }

    /// Writes one flight-recorder diagnostic frame: the frame rows of
    /// [`COUNTERS`], queue and breaker gauges, load state, every stage of
    /// [`STAGES`] as a cumulative histogram, and the hottest themes.
    /// Allocation-free in steady state — counters come from a flat
    /// atomic snapshot, stages accumulate into the slot's reused
    /// histograms, and gauges walk the registry without collecting.
    pub(crate) fn fill_frame(&self, w: &mut FrameWriter<'_>) {
        let stats = self.stats.snapshot();
        for row in COUNTERS {
            let Some(frame) = row.frame else { continue };
            let value = (row.read)(&stats);
            if row.gauge {
                w.gauge(frame, value as f64);
            } else {
                w.counter(frame, value);
            }
        }
        w.gauge("publish_queue_depth", self.ingress.len() as f64);
        w.gauge("dead_letters", self.dead_letters.len() as f64);
        let subscribers = self.subscriber_gauges();
        w.gauge("subscriber_queue_depth_sum", subscribers.depth_sum as f64);
        w.gauge("subscriber_queue_depth_max", subscribers.depth_max as f64);
        w.gauge("open_breakers", subscribers.open_breakers as f64);
        match &self.overload {
            Some(overload) => {
                w.label("load_state", overload.current().as_str());
                w.gauge("ewma_queue_wait_ms", overload.ewma_wait_ms());
            }
            None => w.label("load_state", "off"),
        }
        for stage in &STAGES {
            w.stage(stage.name, |snap| {
                self.stats.accumulate_stage(stage.timer, snap);
            });
        }
        if let Some(attr) = &self.attribution {
            attr.hot_themes
                .for_each_top(8, |name, count| w.theme(name, count));
            attr.hot_entries
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
        recorder.trigger(kind, &detail(), context)
    }

    /// The bundle's `context` object: the full config and its
    /// fingerprint, headline counters, overload state, quality drift,
    /// and the span / explanation ring tails. Runs only at trigger time,
    /// so it allocates freely.
    fn diagnostic_context_json(&self) -> JsonValue {
        let stats = self.stats.snapshot();
        let overload = match &self.overload {
            Some(overload) => {
                let state = overload.current();
                let view = OverloadContextJson {
                    state: state.as_str(),
                    severity: state.severity(),
                    forced: overload.forced().is_some(),
                    ewma_queue_wait_ms: overload.ewma_wait_ms(),
                    transitions: overload.transitions(),
                };
                serde_json::to_value(&view).expect("plain data always serializes")
            }
            None => disabled(),
        };
        let context = DiagnosticContextJson {
            config_fingerprint: config_fingerprint(&self.config),
            config: self.config.clone(),
            stats: StatsContextJson {
                published: stats.published,
                processed: stats.processed,
                notifications: stats.notifications,
                quarantined: stats.quarantined,
                worker_panics: stats.worker_panics,
                live_workers: stats.live_workers,
                dead_letters: self.dead_letters.len(),
            },
            overload,
            quality_drift: self.quality.get().map(|quality| {
                let drift = quality.report().drift;
                drift.iter().map(ToString::to_string).collect()
            }),
            spans: self.spans.snapshot().iter().map(SpanJson::from).collect(),
            explanations: self
                .explain
                .snapshot()
                .iter()
                .map(ExplanationJson::from)
                .collect(),
        };
        serde_json::to_value(&context).expect("plain data always serializes")
    }
}

/// A diagnostic bundle's `context` object.
#[derive(Serialize)]
struct DiagnosticContextJson {
    config_fingerprint: String,
    config: BrokerConfig,
    stats: StatsContextJson,
    overload: JsonValue,
    /// Present only when quality sampling is installed.
    #[serde(skip_serializing_if = "Option::is_none")]
    quality_drift: Option<Vec<String>>,
    spans: Vec<SpanJson>,
    explanations: Vec<ExplanationJson>,
}

#[derive(Serialize)]
struct StatsContextJson {
    published: u64,
    processed: u64,
    notifications: u64,
    quarantined: u64,
    worker_panics: u64,
    live_workers: u64,
    dead_letters: usize,
}

#[derive(Serialize)]
struct OverloadContextJson {
    state: &'static str,
    severity: u8,
    forced: bool,
    ewma_queue_wait_ms: f64,
    transitions: u64,
}

/// The `{"enabled": false}` object of a subsystem that is off.
fn disabled() -> JsonValue {
    [("enabled", false)].into_iter().collect()
}

/// The [`Broker::overload_json`] document.
#[derive(Serialize)]
struct OverloadJson {
    enabled: bool,
    state: &'static str,
    severity: u8,
    forced: bool,
    degraded_matching: &'static str,
    ewma_queue_wait_ms: f64,
    transitions: u64,
    state_age_secs: f64,
    shed_deadline: u64,
    shed_load: u64,
    breaker_trips: u64,
    breaker_open_drops: u64,
    open_breakers: usize,
}

/// The [`Broker::costs_json`] document: each per-entity section is
/// followed by the count of rows cut from it.
#[derive(Serialize)]
struct CostsJson {
    enabled: bool,
    sample_every: u64,
    samples: u64,
    sampled_match_ns: u64,
    sampled_deliver_ns: u64,
    estimated_match_ns: u64,
    estimated_deliver_ns: u64,
    estimated_total_ns: u64,
    entries: Vec<CostEntry>,
    entries_truncated: usize,
    subscribers: Vec<CostEntry>,
    subscribers_truncated: usize,
    themes: Vec<CostEntry>,
    themes_truncated: usize,
    top: HotCostsJson,
}

#[derive(Serialize)]
struct HotCostsJson {
    entries: Vec<HotCostJson>,
    themes: Vec<HotCostJson>,
    subscribers: Vec<HotCostJson>,
}

#[derive(Serialize)]
struct HotCostJson {
    label: String,
    sampled_ns: u64,
}

/// The [`Broker::readiness`] body.
#[derive(Serialize)]
struct ReadinessJson {
    ready: bool,
    load_state: &'static str,
    open_breakers: usize,
    quarantined: usize,
    closed: bool,
}

/// The [`Broker::top_json`] document.
#[derive(Serialize)]
struct TopThemesJson {
    themes: Vec<TopJson>,
    terms: Vec<TopJson>,
}

#[derive(Serialize)]
struct TopJson {
    name: String,
    count: u64,
}

/// FNV-1a over the config's compact JSON: equal configs share a
/// fingerprint and any changed setting changes it, so diffing it across
/// bundles rules config drift in or out.
fn config_fingerprint(config: &BrokerConfig) -> String {
    let text = serde_json::to_string(config).expect("plain data always serializes");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
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
            attribution: Attribution::new(&config),
            quality: OnceLock::new(),
            overload: config.overload.clone().map(OverloadController::new),
            recorder,
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
        let attribution = self
            .shared
            .attribution
            .as_ref()
            .map(|attr| attr.subscribers.with_row(&id.0, Arc::clone));
        let registration = Arc::new(Registration {
            subscription,
            sender: tx,
            receiver: keep_receiver.then(|| rx.clone()),
            consecutive_full: AtomicU64::new(0),
            explain: options.explain,
            attribution,
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
        if let Some(attr) = self.shared.attribution.as_ref().filter(|a| a.every > 0) {
            // Preformat the entry label here so sampled dispatches never
            // allocate: the table owns the string, charges borrow it.
            attr.entries
                .ensure(u64::from(slot), uid, || format!("entry-{slot}"));
        }
        self.shared.registry.write().insert(id, registration);
        Ok((id, rx))
    }

    /// Removes a subscription; returns whether it existed.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        self.shared.remove_subscription(id)
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
        self.shared.subscriber_gauges().open_breakers
    }

    /// The `/overload` endpoint body: load state, queue-wait EWMA, shed
    /// and breaker counters as JSON. `{"enabled": false}` when overload
    /// control is off.
    pub fn overload_json(&self) -> String {
        let Some(overload) = &self.shared.overload else {
            return json_document(&disabled());
        };
        let stats = self.shared.stats.snapshot();
        let state = overload.current();
        json_document(&OverloadJson {
            enabled: true,
            state: state.as_str(),
            severity: state.severity(),
            forced: overload.forced().is_some(),
            degraded_matching: overload.degraded_mode().as_str(),
            ewma_queue_wait_ms: overload.ewma_wait_ms(),
            transitions: overload.transitions(),
            state_age_secs: overload.state_age_secs(),
            shed_deadline: stats.shed_deadline,
            shed_load: stats.shed_load,
            breaker_trips: stats.breaker_trips,
            breaker_open_drops: stats.breaker_open,
            open_breakers: self.open_breakers(),
        })
    }

    /// The current cost-attribution report. `enabled` is `false` (and
    /// every table empty) unless the broker was started with
    /// [`BrokerConfig::with_cost_attribution`].
    pub fn costs(&self) -> CostReport {
        let Some(attr) = self.shared.attribution.as_ref().filter(|a| a.every > 0) else {
            return CostReport::default();
        };
        let (rows, overflow) = attr.themes.snapshot();
        let mut themes: Vec<CostEntry> = rows
            .into_iter()
            .chain([(OVERFLOW_LABEL.to_string(), overflow)])
            .map(|(tag, row)| row.cost_entry(tag))
            .filter(|row| row.total_ns() > 0)
            .collect();
        sort_by_cost(&mut themes);
        let mut subscribers: Vec<CostEntry> = (attr.subscribers.snapshot().0)
            .into_iter()
            .map(|(id, row)| row.cost_entry(format!("sub-{id}")))
            .collect();
        sort_by_cost(&mut subscribers);
        let top = |rows: &[CostEntry]| {
            rows.iter()
                .take(16)
                .map(|row| (row.label.clone(), row.total_ns()))
                .collect()
        };
        let sampled = attr.sampled.read();
        CostReport {
            enabled: true,
            sample_every: attr.every,
            samples: sampled.samples,
            sampled_match_ns: sampled.match_ns,
            sampled_deliver_ns: sampled.deliver_ns,
            entries: attr.entries.snapshot(),
            hot_entries: attr.hot_entries.top(16),
            hot_themes: top(&themes),
            hot_subscribers: top(&subscribers),
            themes,
            subscribers,
        }
    }

    /// The `/costs` endpoint body: the [`Broker::costs`] report as JSON.
    /// `{"enabled": false}` when cost attribution is off. Per-entity
    /// sections are capped at 64 rows (most expensive first) with a
    /// `*_truncated` count so a million-subscriber broker still scrapes
    /// cheaply.
    pub fn costs_json(&self) -> String {
        const CAP: usize = 64;
        /// Keeps the first `CAP` rows; returns how many were cut.
        fn cap(rows: &mut Vec<CostEntry>) -> usize {
            let cut = rows.len().saturating_sub(CAP);
            rows.truncate(CAP);
            cut
        }
        fn hot(rows: Vec<(String, u64)>) -> Vec<HotCostJson> {
            rows.into_iter()
                .map(|(label, sampled_ns)| HotCostJson { label, sampled_ns })
                .collect()
        }
        let mut report = self.costs();
        if !report.enabled {
            return json_document(&disabled());
        }
        json_document(&CostsJson {
            enabled: true,
            sample_every: report.sample_every,
            samples: report.samples,
            sampled_match_ns: report.sampled_match_ns,
            sampled_deliver_ns: report.sampled_deliver_ns,
            estimated_match_ns: report.estimated_match_ns(),
            estimated_deliver_ns: report.estimated_deliver_ns(),
            estimated_total_ns: report.estimated_total_ns(),
            entries_truncated: cap(&mut report.entries),
            entries: report.entries,
            subscribers_truncated: cap(&mut report.subscribers),
            subscribers: report.subscribers,
            themes_truncated: cap(&mut report.themes),
            themes: report.themes,
            top: HotCostsJson {
                entries: hot(report.hot_entries),
                themes: hot(report.hot_themes),
                subscribers: hot(report.hot_subscribers),
            },
        })
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
        let body = json_document(&ReadinessJson {
            ready,
            load_state: state.map_or("off", LoadState::as_str),
            open_breakers: self.open_breakers(),
            quarantined: self.dead_letter_count(),
            closed: self.is_closed(),
        });
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
            .attribution
            .as_ref()
            .map(|attr| attr.hot_themes.top(k))
            .unwrap_or_default()
    }

    /// The `k` hottest event terms (tuple attributes and values) by
    /// estimated frequency, descending. Empty unless
    /// [`BrokerConfig::labeled_metrics`] is on.
    pub fn top_terms(&self, k: usize) -> Vec<(String, u64)> {
        self.shared
            .attribution
            .as_ref()
            .map(|attr| attr.hot_terms.top(k))
            .unwrap_or_default()
    }

    /// The `/top` endpoint body: top-`k` themes and terms as JSON.
    pub fn top_json(&self, k: usize) -> String {
        fn entries(items: Vec<(String, u64)>) -> Vec<TopJson> {
            items
                .into_iter()
                .map(|(name, count)| TopJson { name, count })
                .collect()
        }
        json_document(&TopThemesJson {
            themes: entries(self.top_themes(k)),
            terms: entries(self.top_terms(k)),
        })
    }

    /// Events currently waiting on the ingress queue (drains to 0 after
    /// close).
    pub fn publish_queue_depth(&self) -> usize {
        self.shared.ingress.len()
    }

    /// Every broker counter and stage histogram bundled into a
    /// [`MetricsRegistry`], ready for
    /// [`MetricsRegistry::render_prometheus`] or
    /// [`MetricsRegistry::render_json`]. Every [`BrokerStats`] series is
    /// read from one snapshot.
    ///
    /// Beyond the cumulative series, the registry carries:
    ///
    /// * queue-depth gauges for the ingress queue and the subscriber
    ///   channels, so overload policies are observable before they trip,
    /// * windowed (`{window="10s"|"60s"}`) rates and stage histograms
    ///   when the flight recorder is on (see [`Broker::window`]),
    /// * labeled families and quality gauges when
    ///   [`BrokerConfig::labeled_metrics`] / quality sampling are on.
    pub fn metrics(&self) -> MetricsRegistry {
        let stats = self.stats();
        let subscribers = self.shared.subscriber_gauges();
        let stages = STAGES.map(|stage| (stage, self.shared.stats.stage(stage.timer)));
        let overload = self.shared.overload.is_some();
        let mut reg = MetricsRegistry::new();
        for row in COUNTERS.iter().filter(|row| overload || !row.overload_only) {
            let value = (row.read)(&stats);
            if row.gauge {
                reg.gauge_with(row.name, row.help, row.labels, value as f64);
            } else {
                reg.counter_with(row.name, row.help, row.labels, value);
            }
        }
        for (stage, snap) in &stages {
            reg.histogram(
                &format!("tep_stage_{}_seconds", stage.name),
                stage.help,
                snap.clone(),
            )
            .summary(
                &format!("tep_stage_{}_summary_seconds", stage.name),
                &format!("{} (quantile summary)", stage.help),
                snap.clone(),
            );
        }
        reg.gauge(
            "tep_dead_letters",
            "Events currently quarantined",
            self.dead_letter_count() as f64,
        )
        .gauge(
            "tep_publish_queue_depth",
            "Events waiting on the ingress queue",
            self.publish_queue_depth() as f64,
        )
        .gauge(
            "tep_subscriber_queue_depth_sum",
            "Notifications waiting across all subscriber channels",
            subscribers.depth_sum as f64,
        )
        .gauge(
            "tep_subscriber_queue_depth_max",
            "Deepest subscriber channel backlog",
            subscribers.depth_max as f64,
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
        self.windowed_metrics(&mut reg);
        self.labeled_metrics(&mut reg, &stages);
        self.quality_metrics(&mut reg);
        self.overload_metrics(&mut reg, subscribers.open_breakers);
        self.cost_metrics(&mut reg);
        reg
    }

    /// Load-state and open-breaker series; no-ops when overload control
    /// is off. Its shed and breaker counters are [`COUNTERS`] rows.
    fn overload_metrics(&self, reg: &mut MetricsRegistry, open_breakers: usize) {
        let Some(overload) = &self.shared.overload else {
            return;
        };
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
        .gauge(
            "tep_breakers_open",
            "Subscribers whose circuit breaker is currently open",
            open_breakers as f64,
        );
    }

    /// Windowed rates of the [`COUNTERS`] rows marked for them and
    /// slices of every [`STAGES`] histogram for the last ~10s and ~60s,
    /// labeled `{window="..."}` next to their cumulative series.
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
            for row in COUNTERS.iter().filter(|row| row.rate) {
                if let Some(rate) = row.frame.and_then(|frame| delta.rate(frame)) {
                    reg.gauge_with(
                        &format!("{}_rate", row.name.trim_end_matches("_total")),
                        "Windowed per-second rate of the matching counter",
                        &[("window", label)],
                        rate,
                    );
                }
            }
            for stage in &STAGES {
                if let Some(snap) = delta.histogram(stage.name) {
                    reg.histogram_with(
                        &format!("tep_stage_{}_seconds", stage.name),
                        stage.help,
                        &[("window", label)],
                        snap.clone(),
                    );
                }
            }
        }
    }

    /// The attribution rows' count columns as labeled families (capped
    /// at the label cardinality, the rest under `_overflow`),
    /// per-subscriber queue-depth gauges and top-k tracking gauges;
    /// no-ops when [`BrokerConfig::labeled_metrics`] is off.
    fn labeled_metrics(&self, reg: &mut MetricsRegistry, stages: &[(StageRow, HistogramSnapshot)]) {
        let Some(attr) = self.shared.attribution.as_ref().filter(|a| a.counts) else {
            return;
        };
        let cap = self.shared.config.label_cardinality;
        let mut depths: Vec<(SubscriptionId, usize)> = self
            .shared
            .registry
            .read()
            .iter()
            .map(|(id, r)| (*id, r.sender.len()))
            .collect();
        // Deterministic export order under the same cap as the
        // notification series: the lowest ids get a series.
        depths.sort_by_key(|(id, _)| *id);
        depths.truncate(cap);
        for (id, depth) in depths {
            reg.gauge_with(
                "tep_subscriber_queue_depth",
                "Notifications waiting per subscriber channel",
                &[("subscriber", &id.to_string())],
                depth as f64,
            );
        }
        let (themes, overflow) = attr.themes.snapshot();
        for (theme, row) in themes
            .into_iter()
            .chain([(OVERFLOW_LABEL.to_string(), overflow)])
        {
            if row.count > 0 {
                reg.counter_with(
                    "tep_theme_match_tests_total",
                    "Match tests attributed to each event theme tag",
                    &[("theme", &theme)],
                    row.count,
                );
            }
        }
        // Each match stage histogram holds exactly one sample per test,
        // so the temperature family is read from their counts.
        for (stage, snap) in stages {
            let Some(temperature) = stage.name.strip_prefix("match_") else {
                continue;
            };
            if snap.count() > 0 {
                reg.counter_with(
                    "tep_match_temperature_total",
                    "Match tests by cache temperature",
                    &[("temperature", temperature)],
                    snap.count(),
                );
            }
        }
        let (subscribers, _) = attr.subscribers.snapshot();
        let overflowed: u64 = subscribers.iter().skip(cap).map(|(_, row)| row.count).sum();
        let series = subscribers
            .iter()
            .take(cap)
            .map(|(id, row)| (SubscriptionId(*id).to_string(), row.count))
            .chain((overflowed > 0).then(|| (OVERFLOW_LABEL.to_string(), overflowed)));
        for (subscriber, count) in series {
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
            attr.hot_themes.tracked() as f64,
        )
        .gauge(
            "tep_topk_terms_tracked",
            "Term slots occupied in the top-k sketch",
            attr.hot_terms.tracked() as f64,
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

    /// The attribution rows' nanosecond columns summed per entity
    /// class; no-ops when cost attribution is off
    /// ([`BrokerConfig::with_cost_attribution`]).
    fn cost_metrics(&self, reg: &mut MetricsRegistry) {
        let Some(attr) = self.shared.attribution.as_ref().filter(|a| a.every > 0) else {
            return;
        };
        for (entity, totals) in [
            ("entry", attr.entries.totals()),
            ("subscriber", attr.subscribers.totals()),
            ("theme", attr.themes.totals()),
        ] {
            for (kind, ns) in [("match", totals.match_ns), ("deliver", totals.deliver_ns)] {
                reg.counter_with(
                    "tep_cost_ns_total",
                    "Sampled cost nanoseconds charged, by entity class and stage kind",
                    &[("entity", entity), ("kind", kind)],
                    ns,
                );
            }
        }
        reg.counter(
            "tep_cost_samples_total",
            "Dispatches charged by the cost sampler",
            attr.sampled.read().samples,
        )
        .gauge(
            "tep_cost_sample_every",
            "Cost-attribution 1-in-k sampling rate",
            attr.every as f64,
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
    fn fan_out_shares_one_result_across_identity_members() {
        let b = broker();
        let subscribe = |text: &str| {
            let subscription = parse_subscription(text).unwrap();
            let (_, rx) = b.subscribe(subscription.clone()).unwrap();
            (subscription, rx)
        };
        // Three verbatim clones and one twin declaring its predicates in
        // the other order: one index entry, one match test.
        let identity: Vec<_> = (0..3).map(|_| subscribe("{a= 1, b= 2}").1).collect();
        let (permuted_sub, permuted_rx) = subscribe("{b= 2, a= 1}");
        let event = parse_event("{b: 2, a: 1}").unwrap();
        b.publish(event.clone()).unwrap();
        b.flush().unwrap();
        assert_eq!(b.stats().match_tests, 1, "one test serves the entry");

        let results: Vec<_> = identity
            .iter()
            .map(|rx| rx.try_recv().expect("delivered").result)
            .collect();
        assert!(Arc::ptr_eq(&results[0], &results[1]));
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        let permuted = permuted_rx.try_recv().expect("delivered").result;
        assert!(!Arc::ptr_eq(&results[0], &permuted));
        // Per mapping, the (predicate, tuple) pairs in predicate order.
        let correspondences = |r: &MatchResult| -> Vec<Vec<(usize, usize)>> {
            r.mappings()
                .iter()
                .map(|m| {
                    let mut pairs: Vec<_> = m
                        .correspondences()
                        .iter()
                        .map(|c| (c.predicate, c.tuple))
                        .collect();
                    pairs.sort_unstable();
                    pairs
                })
                .collect()
        };
        let direct = ExactMatcher::new().match_event(&permuted_sub, &event);
        assert_eq!(correspondences(&permuted), correspondences(&direct));
        assert_ne!(
            correspondences(&permuted),
            correspondences(&results[0]),
            "the twin's result is remapped into its own predicate order"
        );
        b.shutdown();
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

    /// The value of the exported sample line `series` (name plus
    /// labels), if present.
    fn sample(prom: &str, series: &str) -> Option<u64> {
        prom.lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .map(|value| value.parse().expect("integer sample"))
    }

    #[test]
    fn cost_attribution_reconciles_exactly_at_k_one() {
        let b = Broker::start(
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default()
                .with_workers(2)
                .with_labeled_metrics(true)
                .with_cost_attribution(1),
        );
        let (_, rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        let (_, _other) = b
            .subscribe(parse_subscription("{other= thing}").unwrap())
            .unwrap();
        for i in 0..32 {
            let tag = if i % 2 == 0 { "power" } else { "grid" };
            let event = format!("({{{tag}}}, {{k: v}})");
            b.publish(parse_event(&event).unwrap()).unwrap();
        }
        b.flush().unwrap();
        assert_eq!(rx.try_iter().count(), 32);
        let stats = b.stats();
        assert_eq!(stats.dropped_full + stats.dropped_disconnected, 0);
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
        assert!(!report.hot_entries.is_empty());
        // The labeled counts and the cost columns describe the same
        // dispatches. Every delivery to a drained subscriber is one
        // sample and one admitted notification.
        let prom = b.metrics().render_prometheus();
        for row in &report.subscribers {
            let id = row.label.strip_prefix("sub-").expect("subscriber label");
            let series = format!("tep_subscriber_notifications_total{{subscriber=\"s{id}\"}}");
            assert_eq!(sample(&prom, &series), Some(row.samples), "{series}");
        }
        // Each event carries one tag, so the theme rows split the entry
        // totals without double counting, and the per-theme test counts
        // sum to the bare counter.
        let theme_match: u64 = report.themes.iter().map(|t| t.match_ns).sum();
        let theme_deliver: u64 = report.themes.iter().map(|t| t.deliver_ns).sum();
        assert_eq!(theme_match, entry_match);
        assert_eq!(theme_deliver, entry_deliver);
        let theme_tests: u64 = ["power", "grid"]
            .iter()
            .map(|tag| {
                let series = format!("tep_theme_match_tests_total{{theme=\"{tag}\"}}");
                sample(&prom, &series).unwrap_or(0)
            })
            .sum();
        assert_eq!(theme_tests, b.stats().match_tests);
        // JSON and Prometheus surfaces agree it is on.
        let json = b.costs_json();
        assert!(json.contains("\"enabled\": true"));
        assert!(json.contains("\"sample_every\": 1"));
        let parsed: JsonValue = serde_json::from_str(&json).expect("costs body is JSON");
        let first = parsed
            .get("entries")
            .and_then(JsonValue::as_seq)
            .and_then(|rows| rows.first());
        let label = first
            .and_then(|row| row.get("label"))
            .and_then(JsonValue::as_str);
        assert!(label.is_some_and(|l| l.starts_with("entry-")), "{json}");
        assert!(prom.contains("tep_cost_ns_total"));
        assert!(prom.contains("entity=\"entry\""));
        assert!(prom.contains("tep_cost_samples_total"));
        assert!(prom.contains("tep_cost_sample_every 1"));
        // Untagged events land in the per-theme cost table but add no
        // labeled test series.
        b.publish(parse_event("{k: v}").unwrap()).unwrap();
        b.flush().unwrap();
        assert!(b.costs().themes.iter().any(|t| t.label == "untagged"));
        let prom = b.metrics().render_prometheus();
        assert!(!prom.contains("tep_theme_match_tests_total{theme=\"untagged\"}"));
        b.shutdown();
    }

    #[test]
    fn entry_cost_totals_stay_monotone_across_slot_recycling() {
        let b = Broker::start(
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default()
                .with_workers(1)
                .with_cost_attribution(1),
        );
        // The exported entry totals, checked against the global sampled
        // totals they must equal at k = 1.
        let entry_totals = || {
            let prom = b.metrics().render_prometheus();
            let read = |kind: &str| {
                let series = format!("tep_cost_ns_total{{entity=\"entry\",kind=\"{kind}\"}}");
                sample(&prom, &series).expect("entry series")
            };
            let totals = (read("match"), read("deliver"));
            let report = b.costs();
            assert_eq!(totals, (report.sampled_match_ns, report.sampled_deliver_ns));
            totals
        };
        let publish = |event: &str| {
            for _ in 0..8 {
                b.publish(parse_event(event).unwrap()).unwrap();
            }
            b.flush().unwrap();
        };
        let (id, rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
        publish("{k: v}");
        let first = entry_totals();
        assert!(first.0 > 0 && first.1 > 0, "tested and delivered");
        let labels = |b: &Broker| -> Vec<String> {
            b.costs().entries.into_iter().map(|e| e.label).collect()
        };
        let first_labels = labels(&b);
        assert!(b.unsubscribe(id));
        drop(rx);
        // A different subscription takes the freed slot.
        let (_, rx) = b.subscribe(parse_subscription("{k= w}").unwrap()).unwrap();
        assert_eq!(labels(&b), first_labels, "the slot was recycled");
        assert_eq!(entry_totals(), first, "recycling keeps the totals");
        publish("{k: w}");
        let last = entry_totals();
        assert!(
            last.0 > first.0 && last.1 > first.1,
            "{last:?} after {first:?}"
        );
        assert_eq!(rx.try_iter().count(), 8);
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

//! Broker configuration.

use crate::overload::OverloadConfig;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// What [`crate::Broker::publish`] does when the ingress queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PublishPolicy {
    /// Block the publisher until a slot frees up (back-pressure; the
    /// historical behavior).
    Block,
    /// Block up to the given deadline, then fail with
    /// [`crate::BrokerError::PublishTimeout`].
    Timeout(Duration),
    /// Fail immediately with [`crate::BrokerError::QueueFull`].
    Reject,
}

/// What a matching worker does when a subscriber's notification channel
/// is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubscriberPolicy {
    /// Drop the new notification (the historical behavior).
    DropNewest,
    /// Evict the oldest queued notification to make room for the new one.
    ///
    /// The broker keeps a receiver clone per registration to implement the
    /// eviction, so in this mode a subscriber dropping its receiver is
    /// *not* detected as a disconnect — lag is traded for liveness.
    DropOldest,
    /// Drop the new notification, and after this many *consecutive*
    /// full-channel drops reap the registration entirely (the subscriber
    /// is treated as dead-slow and disconnected).
    DisconnectAfter(u64),
}

/// How the broker selects which subscriptions an event is matched
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Run a match test against every registered subscription (the
    /// historical behavior, and the default).
    Broadcast,
    /// Theme-indexed routing: an event is only tested against
    /// subscriptions sharing at least one theme tag with it, plus every
    /// theme-less subscription (those opt out of routing and stay
    /// broadcast).
    ///
    /// This is a **delivery semantic**, not a pure optimization: a
    /// theme-agnostic matcher (e.g. exact matching) delivers across
    /// disjoint themes under [`RoutingPolicy::Broadcast`] but not under
    /// this policy. Thematic matchers already score disjoint-theme pairs
    /// near zero, so for them the observable difference is throughput —
    /// skipped pairs are counted in
    /// [`crate::BrokerStats::routing_skipped`].
    ThemeOverlap,
}

/// Tuning for the always-on flight recorder
/// ([`crate::BrokerConfig::recorder`]): the bounded ring of periodic
/// diagnostic frames that freezes into a JSON bundle when a trigger
/// (worker panic, breaker trip, `Critical` load state, quality drift, or
/// a manual request) fires. See `tep_obs::FlightRecorder` for the
/// mechanism.
/// In serialized form every numeric field treats `0` (or a missing key)
/// as "use the built-in default" — see [`RecorderSettings::normalized`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecorderSettings {
    /// Ring capacity in frames (clamped to at least 2 at broker start).
    #[serde(default)]
    pub frame_capacity: usize,
    /// Frame tick period in milliseconds (clamped to at least 1). At the
    /// defaults (64 frames × 250 ms) the ring covers the last ~16 s.
    #[serde(default)]
    pub tick_ms: u64,
    /// Directory for the on-disk bundle spool (`tep-diag-<seq>.json`,
    /// oldest-evicted). `None` (the default) keeps bundles in memory
    /// only, still served via `GET /debug/bundle`.
    #[serde(default)]
    pub spool_dir: Option<String>,
    /// Bundle files kept on disk before the oldest is evicted.
    #[serde(default)]
    pub spool_capacity: usize,
    /// Per-trigger-kind cooldown in milliseconds, so a flapping breaker
    /// or a panic loop cannot produce a bundle storm.
    #[serde(default)]
    pub trigger_cooldown_ms: u64,
}

impl Default for RecorderSettings {
    fn default() -> RecorderSettings {
        RecorderSettings {
            frame_capacity: 64,
            tick_ms: 250,
            spool_dir: None,
            spool_capacity: 8,
            trigger_cooldown_ms: 5_000,
        }
    }
}

impl RecorderSettings {
    /// Replaces zero-valued numeric fields (the deserialization default
    /// for a missing key) with the built-in defaults, so a partial
    /// `{"tick_ms": 50}` config behaves like
    /// `RecorderSettings { tick_ms: 50, ..Default::default() }`.
    pub fn normalized(&self) -> RecorderSettings {
        let defaults = RecorderSettings::default();
        RecorderSettings {
            frame_capacity: match self.frame_capacity {
                0 => defaults.frame_capacity,
                n => n,
            },
            tick_ms: match self.tick_ms {
                0 => defaults.tick_ms,
                n => n,
            },
            spool_dir: self.spool_dir.clone(),
            spool_capacity: match self.spool_capacity {
                0 => defaults.spool_capacity,
                n => n,
            },
            trigger_cooldown_ms: match self.trigger_cooldown_ms {
                0 => defaults.trigger_cooldown_ms,
                n => n,
            },
        }
    }
}

/// Configuration of the [`crate::Broker`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokerConfig {
    /// Number of matcher worker threads.
    pub workers: usize,
    /// Minimum best-mapping score for an event to be delivered to a
    /// subscriber. The approximate matcher is probabilistic, so delivery
    /// is thresholded rather than boolean.
    pub delivery_threshold: f64,
    /// Capacity of the ingress event queue; what happens when it is full
    /// is decided by [`BrokerConfig::publish_policy`].
    pub queue_capacity: usize,
    /// Capacity of each subscriber's notification channel; what happens
    /// when it is full is decided by [`BrokerConfig::subscriber_policy`].
    pub notification_capacity: usize,
    /// Ingress overload policy.
    pub publish_policy: PublishPolicy,
    /// Subscriber overload policy.
    pub subscriber_policy: SubscriberPolicy,
    /// Whether each subscription × event match test runs under
    /// `catch_unwind`, so a panicking matcher poisons neither the worker
    /// thread nor the other subscriptions of the event. When disabled, a
    /// matcher panic kills the worker; the supervisor respawns it and
    /// recovers the in-flight event (at-least-once: already-delivered
    /// notifications for that event may repeat).
    pub isolate_matcher_panics: bool,
    /// How many times an event's panicking match tests are attempted
    /// before the event is quarantined to the dead-letter queue.
    pub max_match_attempts: u32,
    /// Capacity of the dead-letter queue; when full, the oldest quarantined
    /// event is evicted to admit the newest.
    pub dead_letter_capacity: usize,
    /// How events are routed to subscriptions for match testing.
    pub routing_policy: RoutingPolicy,
    /// Capacity of the match-explanation ring
    /// ([`crate::Broker::explain_last`]): the broker keeps the last
    /// `explain_capacity` [`crate::MatchExplanation`] records. `0` (the
    /// default) disables the ring; subscribers can still opt in per
    /// subscription via [`crate::SubscribeOptions::explain`].
    #[serde(default)]
    pub explain_capacity: usize,
    /// Deterministic 1-in-k causal span sampling: every k-th published
    /// event (by sequence number) records a publish → route → match →
    /// deliver span tree ([`crate::Broker::span_tree`]). `0` (the
    /// default) disables span tracing entirely.
    #[serde(default)]
    pub span_sample_every: u64,
    /// Capacity of the span ring: the broker keeps the newest
    /// `span_capacity` [`crate::SpanRecord`]s across all sampled events.
    #[serde(default = "default_span_capacity")]
    pub span_capacity: usize,
    /// Whether the broker writes the count column of its attribution
    /// rows: match tests per event theme tag and admitted notifications
    /// per subscriber, exported as labeled families next to the
    /// per-temperature match counters, plus the top-k hottest-theme/term
    /// sketches behind [`crate::Broker::top_themes`]. The rows are the
    /// ones cost attribution ([`BrokerConfig::cost_sample_every`])
    /// charges nanoseconds to; each switch writes only its own columns.
    /// `false` (the default), with cost attribution off too, keeps the
    /// dispatch path at one branch.
    #[serde(default)]
    pub labeled_metrics: bool,
    /// Hard cap on distinct label values per labeled metric family:
    /// theme tags past the cap share the `_overflow` row, and
    /// subscribers past the lowest `label_cardinality` ids export under
    /// the `_overflow` series, so total counts stay exact while
    /// cardinality stays bounded.
    #[serde(default = "default_label_cardinality")]
    pub label_cardinality: usize,
    /// Adaptive overload control ([`crate::LoadState`] machine, deadline /
    /// priority shedding, per-subscriber circuit breakers, and graceful
    /// matching degradation). `None` (the default) disables the whole
    /// subsystem — the hot path then pays one branch per event for it.
    #[serde(default)]
    pub overload: Option<OverloadConfig>,
    /// Always-on flight recorder: periodic diagnostic frames in a
    /// bounded ring, frozen into a JSON bundle when a trigger fires. The
    /// same frames back the `{window="10s"|"60s"}` series in
    /// [`crate::Broker::metrics`]. `None` (the default) disables the
    /// whole subsystem; the dispatch path never touches it either way.
    #[serde(default)]
    pub recorder: Option<RecorderSettings>,
    /// Deterministic 1-in-k cost attribution: every sampled dispatch
    /// (hashed from event sequence and index-entry id, like the quality
    /// sampler) charges its measured match/deliver nanoseconds to the
    /// nanosecond columns of the owning subscription-index entry's row,
    /// its delivered subscribers' rows and, once per event, its theme
    /// rows ([`crate::Broker::costs`]). `0` (the default) writes no
    /// nanosecond column; with [`BrokerConfig::labeled_metrics`] off
    /// too, the dispatch path pays one branch for attribution.
    #[serde(default)]
    pub cost_sample_every: u64,
}

fn default_span_capacity() -> usize {
    1024
}

fn default_label_cardinality() -> usize {
    32
}

impl BrokerConfig {
    /// A config with one worker per available CPU (at least one).
    pub fn auto_workers() -> BrokerConfig {
        BrokerConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            ..BrokerConfig::default()
        }
    }

    /// Replaces the worker count.
    pub fn with_workers(mut self, workers: usize) -> BrokerConfig {
        self.workers = workers.max(1);
        self
    }

    /// Replaces the delivery threshold.
    pub fn with_delivery_threshold(mut self, threshold: f64) -> BrokerConfig {
        self.delivery_threshold = threshold;
        self
    }

    /// Replaces the ingress overload policy.
    pub fn with_publish_policy(mut self, policy: PublishPolicy) -> BrokerConfig {
        self.publish_policy = policy;
        self
    }

    /// Replaces the subscriber overload policy.
    pub fn with_subscriber_policy(mut self, policy: SubscriberPolicy) -> BrokerConfig {
        self.subscriber_policy = policy;
        self
    }

    /// Replaces the per-event match attempt budget (clamped to at least 1).
    pub fn with_max_match_attempts(mut self, attempts: u32) -> BrokerConfig {
        self.max_match_attempts = attempts.max(1);
        self
    }

    /// Enables or disables per-match panic isolation.
    pub fn with_panic_isolation(mut self, isolate: bool) -> BrokerConfig {
        self.isolate_matcher_panics = isolate;
        self
    }

    /// Replaces the routing policy.
    pub fn with_routing_policy(mut self, policy: RoutingPolicy) -> BrokerConfig {
        self.routing_policy = policy;
        self
    }

    /// Replaces the match-explanation ring capacity (`0` disables the
    /// ring).
    pub fn with_explain_capacity(mut self, capacity: usize) -> BrokerConfig {
        self.explain_capacity = capacity;
        self
    }

    /// Enables deterministic 1-in-`k` causal span sampling (`0` disables
    /// span tracing).
    pub fn with_span_sampling(mut self, k: u64) -> BrokerConfig {
        self.span_sample_every = k;
        self
    }

    /// Replaces the span-ring capacity.
    pub fn with_span_capacity(mut self, capacity: usize) -> BrokerConfig {
        self.span_capacity = capacity;
        self
    }

    /// Enables or disables dimensional (labeled) metrics.
    pub fn with_labeled_metrics(mut self, enabled: bool) -> BrokerConfig {
        self.labeled_metrics = enabled;
        self
    }

    /// Replaces the per-family label cardinality cap (clamped to at
    /// least 1).
    pub fn with_label_cardinality(mut self, cap: usize) -> BrokerConfig {
        self.label_cardinality = cap.max(1);
        self
    }

    /// Enables adaptive overload control with the given tuning. See
    /// [`OverloadConfig`] for the knobs and [`crate::LoadState`] for the
    /// state machine it drives.
    pub fn with_overload_control(mut self, overload: OverloadConfig) -> BrokerConfig {
        self.overload = Some(overload);
        self
    }

    /// Enables the always-on flight recorder with the given tuning. See
    /// [`RecorderSettings`] for the knobs.
    pub fn with_flight_recorder(mut self, settings: RecorderSettings) -> BrokerConfig {
        self.recorder = Some(settings);
        self
    }

    /// Enables deterministic 1-in-`k` cost attribution (`0` disables
    /// it). [`crate::DEFAULT_COST_SAMPLE_EVERY`] is the tuned default
    /// rate the cost gate certifies.
    pub fn with_cost_attribution(mut self, k: u64) -> BrokerConfig {
        self.cost_sample_every = k;
        self
    }
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            workers: 2,
            delivery_threshold: 0.25,
            queue_capacity: 1024,
            notification_capacity: 4096,
            publish_policy: PublishPolicy::Block,
            subscriber_policy: SubscriberPolicy::DropNewest,
            isolate_matcher_panics: true,
            max_match_attempts: 2,
            dead_letter_capacity: 64,
            routing_policy: RoutingPolicy::Broadcast,
            explain_capacity: 0,
            span_sample_every: 0,
            span_capacity: default_span_capacity(),
            labeled_metrics: false,
            label_cardinality: default_label_cardinality(),
            overload: None,
            recorder: None,
            cost_sample_every: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = BrokerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_capacity > 0);
        assert!((0.0..=1.0).contains(&c.delivery_threshold));
        assert!(c.isolate_matcher_panics);
        assert!(c.max_match_attempts >= 1);
        assert!(c.dead_letter_capacity > 0);
        assert_eq!(c.publish_policy, PublishPolicy::Block);
        assert_eq!(c.subscriber_policy, SubscriberPolicy::DropNewest);
        assert_eq!(c.routing_policy, RoutingPolicy::Broadcast);
        assert_eq!(c.explain_capacity, 0, "explanations are opt-in");
        assert_eq!(c.span_sample_every, 0, "span sampling is opt-in");
        assert_eq!(c.span_capacity, 1024);
        assert!(!c.labeled_metrics, "labeled metrics are opt-in");
        assert_eq!(c.label_cardinality, 32);
        assert!(c.overload.is_none(), "overload control is opt-in");
        assert!(c.recorder.is_none(), "the flight recorder is opt-in");
        assert_eq!(c.cost_sample_every, 0, "cost attribution is opt-in");
    }

    #[test]
    fn builders() {
        let c = BrokerConfig::default()
            .with_workers(0)
            .with_delivery_threshold(0.5)
            .with_publish_policy(PublishPolicy::Reject)
            .with_subscriber_policy(SubscriberPolicy::DisconnectAfter(3))
            .with_max_match_attempts(0)
            .with_panic_isolation(false)
            .with_routing_policy(RoutingPolicy::ThemeOverlap)
            .with_explain_capacity(64)
            .with_span_sampling(10)
            .with_span_capacity(256)
            .with_labeled_metrics(true)
            .with_label_cardinality(0)
            .with_cost_attribution(64);
        assert_eq!(c.workers, 1, "worker count is clamped to at least 1");
        assert_eq!(c.delivery_threshold, 0.5);
        assert_eq!(c.publish_policy, PublishPolicy::Reject);
        assert_eq!(c.subscriber_policy, SubscriberPolicy::DisconnectAfter(3));
        assert_eq!(
            c.max_match_attempts, 1,
            "attempt budget is clamped to at least 1"
        );
        assert!(!c.isolate_matcher_panics);
        assert_eq!(c.routing_policy, RoutingPolicy::ThemeOverlap);
        assert_eq!(c.explain_capacity, 64);
        assert_eq!(c.span_sample_every, 10);
        assert_eq!(c.span_capacity, 256);
        assert!(c.labeled_metrics);
        assert_eq!(c.label_cardinality, 1, "cardinality cap clamps to 1");
        assert_eq!(c.cost_sample_every, 64);
    }

    #[test]
    fn auto_workers_positive() {
        assert!(BrokerConfig::auto_workers().workers >= 1);
    }

    #[test]
    fn config_round_trips_through_json() {
        let c = BrokerConfig::default()
            .with_publish_policy(PublishPolicy::Timeout(Duration::from_millis(250)))
            .with_subscriber_policy(SubscriberPolicy::DropOldest)
            .with_routing_policy(RoutingPolicy::ThemeOverlap);
        let json = serde_json::to_string(&c).unwrap();
        let back: BrokerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn observability_round_trips_through_json() {
        let c = BrokerConfig::default()
            .with_explain_capacity(32)
            .with_span_sampling(4)
            .with_span_capacity(512)
            .with_labeled_metrics(true)
            .with_label_cardinality(16)
            .with_cost_attribution(32);
        let json = serde_json::to_string(&c).unwrap();
        let back: BrokerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        // A pre-cost-attribution config (no `cost_sample_every` key)
        // still deserializes, defaulting to off.
        let stripped = json.replace(",\"cost_sample_every\":32", "");
        assert_ne!(stripped, json, "cost key should strip");
        let legacy: BrokerConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(legacy.cost_sample_every, 0);
    }

    #[test]
    fn saved_config_with_a_trace_capacity_still_loads() {
        // Configs saved while the per-event trace ring existed carry a
        // `trace_capacity` key; it is ignored, everything else loads.
        let c = BrokerConfig::default().with_explain_capacity(16);
        let json = serde_json::to_string(&c).unwrap();
        let saved = json.replacen('{', "{\"trace_capacity\":8,", 1);
        assert!(saved.contains("\"trace_capacity\":8"));
        let back: BrokerConfig = serde_json::from_str(&saved).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn saved_config_with_window_keys_still_loads() {
        // Configs saved while windowed metrics had their own frame ring
        // carry `window_tick_ms` and `window_capacity`, and configs saved
        // while the dequeue batch was a setting carry `dequeue_batch`;
        // all are ignored (the flight recorder's ring backs the windows
        // now, and the batch is a constant).
        let c = BrokerConfig::default().with_flight_recorder(RecorderSettings::default());
        let json = serde_json::to_string(&c).unwrap();
        let saved = json.replacen(
            '{',
            "{\"window_tick_ms\":1000,\"window_capacity\":128,\"dequeue_batch\":32,",
            1,
        );
        assert!(saved.contains("\"window_tick_ms\":1000"));
        assert!(saved.contains("\"window_capacity\":128"));
        assert!(saved.contains("\"dequeue_batch\":32"));
        let back: BrokerConfig = serde_json::from_str(&saved).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn overload_config_round_trips_through_json() {
        let c = BrokerConfig::default().with_overload_control(OverloadConfig {
            shed_priority_floor: 42,
            ..OverloadConfig::sensitive()
        });
        let json = serde_json::to_string(&c).unwrap();
        let back: BrokerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        // A pre-overload config (no `overload` key) still deserializes.
        let legacy: BrokerConfig =
            serde_json::from_str(&serde_json::to_string(&BrokerConfig::default()).unwrap())
                .unwrap();
        assert!(legacy.overload.is_none());
    }

    #[test]
    fn recorder_config_round_trips_through_json() {
        let c = BrokerConfig::default().with_flight_recorder(RecorderSettings {
            frame_capacity: 16,
            tick_ms: 50,
            spool_dir: Some("/tmp/tep-diag".to_string()),
            spool_capacity: 4,
            trigger_cooldown_ms: 100,
        });
        let json = serde_json::to_string(&c).unwrap();
        let back: BrokerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        // A pre-recorder config (no `recorder` key) still deserializes,
        // and a bare `{}` settings object fills every default.
        let default_json = serde_json::to_string(&BrokerConfig::default()).unwrap();
        let legacy_json = default_json.replace(",\"recorder\":null", "");
        assert_ne!(legacy_json, default_json, "recorder key should strip");
        let legacy: BrokerConfig = serde_json::from_str(&legacy_json).unwrap();
        assert!(legacy.recorder.is_none());
        let bare: RecorderSettings = serde_json::from_str("{}").unwrap();
        assert_eq!(bare.normalized(), RecorderSettings::default());
        let partial: RecorderSettings = serde_json::from_str("{\"tick_ms\": 50}").unwrap();
        assert_eq!(partial.normalized().tick_ms, 50);
        assert_eq!(
            partial.normalized().frame_capacity,
            RecorderSettings::default().frame_capacity
        );
    }
}

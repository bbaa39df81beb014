//! # tep-broker
//!
//! A publish/subscribe **broker middleware** that runs a
//! [`tep_matcher::Matcher`] over a pool of worker threads — the
//! event-based middleware context the paper targets (§1: "there is a need
//! for middleware to abstract application developers from underlying
//! technologies").
//!
//! The broker preserves the classic decoupling dimensions (Fig. 1):
//!
//! * **space** — publishers never see subscribers; they only call
//!   [`Broker::publish`];
//! * **time/synchronization** — publishing is non-blocking; matching and
//!   delivery happen on worker threads and notifications arrive on
//!   per-subscriber channels;
//! * **semantics** — the loosened fourth dimension: with a thematic
//!   matcher plugged in, subscribers receive events whose vocabulary they
//!   never agreed on.
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use tep_broker::{Broker, BrokerConfig};
//! use tep_matcher::ExactMatcher;
//! use tep_events::{parse_event, parse_subscription};
//!
//! let broker = Broker::start(Arc::new(ExactMatcher::new()), BrokerConfig::default());
//! let (_id, rx) = broker.subscribe(parse_subscription("{device= computer}")?)?;
//! broker.publish(parse_event("{device: computer, office: room 112}")?)?;
//! broker.flush_timeout(Duration::from_secs(30))?;
//! let n = rx.try_recv().expect("notification delivered");
//! assert_eq!(n.result.score(), 1.0);
//! broker.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Failure model
//!
//! The worker pool is **supervised** (see `DESIGN.md` at the repo root
//! for the full rationale):
//!
//! * matcher panics are caught per subscription × event match test
//!   ([`BrokerConfig::isolate_matcher_panics`], on by default), so one
//!   poisonous event cannot take down a worker or starve other
//!   subscriptions;
//! * events whose match tests keep panicking past
//!   [`BrokerConfig::max_match_attempts`] are quarantined into a bounded
//!   dead-letter queue ([`Broker::dead_letters`]);
//! * with isolation off, a panic kills the worker and the supervisor
//!   respawns it, recovering the in-flight event (at-least-once);
//! * ingress overload is governed by [`PublishPolicy`]
//!   (block / timeout / reject) and subscriber overload by
//!   [`SubscriberPolicy`] (drop-newest / drop-oldest / disconnect);
//! * with [`BrokerConfig::with_overload_control`], an adaptive load-state
//!   machine ([`LoadState`]) additionally sheds expired-deadline or
//!   low-priority events at dequeue, degrades matching fidelity
//!   ([`DegradedMatching`]), and wraps each subscriber in a circuit
//!   breaker ([`BreakerConfig`]) instead of a hard disconnect cliff;
//! * [`Broker::flush_timeout`] bounds how long a caller waits on the
//!   liveness invariant: every accepted event is eventually counted in
//!   [`BrokerStats::processed`] — delivered, dropped, or quarantined.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod broker;
mod config;
mod explain;
mod notification;
mod overload;
mod quality;
mod stats;
mod subindex;
mod supervisor;

pub use broker::{
    Broker, BrokerError, CostReport, PublishOptions, SubscribeOptions, SubscriptionId,
    DEFAULT_COST_SAMPLE_EVERY,
};
pub use config::{BrokerConfig, PublishPolicy, RecorderSettings, RoutingPolicy, SubscriberPolicy};
pub use explain::{render_explanations_json, CacheTemperature, MatchExplanation, MatchOutcome};
pub use notification::Notification;
pub use overload::{BreakerConfig, LoadState, OverloadConfig, ShedReason};
pub use quality::{render_quality_json, DriftAlert, DriftKind, QualityOracle, QualityReport};
pub use stats::{BrokerStats, StageLatencies};
pub use supervisor::DeadLetter;
// Re-exported so downstream code can consume [`Broker::metrics`],
// [`Broker::stage_latencies`], [`Broker::span_tree`], and the scrape
// server without depending on `tep-obs` or `tep-matcher` directly.
pub use tep_matcher::{DegradedMatching, MatchDetail, PredicateExplanation, RelatednessDetail};
pub use tep_obs::{
    render_spans_json, serve, span_tree, CostEntry, DiagnosticFrame, FlightRecorder,
    HistogramSnapshot, MetricsRegistry, RecorderConfig, ScrapeHandlers, ScrapeServer, SpanNode,
    SpanRecord, WindowedDelta,
};

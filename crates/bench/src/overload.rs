//! Adversarial overload-storm scenario with machine-readable output.
//!
//! `probe bench` runs this after the throughput scenarios and writes
//! `BENCH_overload.json`: a broker with overload control enabled is
//! driven into `Critical` by a uniformly slow matcher, a deliberately
//! tiny ingress queue, and never-drained subscribers; the document
//! records how far the load-state machine escalated, what the admission
//! controller shed, how the subscriber circuit breakers reacted, and how
//! long the broker took to walk back to `Healthy` once the storm
//! stopped. The recovery clock is the headline: an overload controller
//! that degrades but never recovers is just a slower outage.

use serde::Serialize;
use serde_json::JsonValue;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tep::broker::json_document;
use tep::prelude::*;

use crate::throughput::ScenarioObserver;

/// Deadline for draining the storm backlog (most of it is shed, so this
/// is generous headroom, not an expected wait).
const FLUSH_DEADLINE: Duration = Duration::from_secs(120);

/// How long the post-storm poll waits for the state machine to walk back
/// to `Healthy` before declaring recovery failed.
const RECOVERY_DEADLINE: Duration = Duration::from_secs(30);

/// One observed load-state change, stamped relative to the first publish.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StateSample {
    /// Milliseconds since the storm's first publish.
    pub at_ms: f64,
    /// The state observed at that instant.
    pub state: String,
}

/// The measured outcome of the overload storm, in `BENCH_overload.json`
/// key order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverloadStormResult {
    /// Scenario name (stable identifier, used as the JSON key).
    pub name: String,
    /// Events published during the storm.
    pub events_published: u64,
    /// Wall-clock seconds of the publish phase.
    pub storm_secs: f64,
    /// The most severe state the machine reached.
    pub peak_state: String,
    /// Whether the storm drove the machine all the way to `Critical`.
    pub reached_critical: bool,
    /// State transitions counted by the controller itself.
    pub transitions: u64,
    /// Events shed because their publish deadline had expired.
    pub shed_deadline: u64,
    /// Events shed below the priority floor under `Critical`.
    pub shed_load: u64,
    /// Breaker trips (Closed → Open) across all subscribers.
    pub breaker_trips: u64,
    /// Notifications dropped at an open breaker.
    pub breaker_open_drops: u64,
    /// Notifications dropped on full subscriber channels.
    pub dropped_full: u64,
    /// Events fully processed (matched or shed).
    pub processed: u64,
    /// Notifications actually delivered despite the storm.
    pub notifications: u64,
    /// Whether the broker returned to `Healthy` within the deadline.
    pub recovered: bool,
    /// Milliseconds from the last publish to the first `Healthy` poll.
    pub recovery_ms: f64,
    /// The state observed when polling stopped.
    pub final_state: String,
    /// Load-state changes observed while polling (storm + recovery).
    pub timeline: Vec<StateSample>,
}

impl OverloadStormResult {
    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{:<26} peak={} shed={}+{} trips={} open-drops={} recovered={} in {:.0}ms",
            self.name,
            self.peak_state,
            self.shed_deadline,
            self.shed_load,
            self.breaker_trips,
            self.breaker_open_drops,
            self.recovered,
            self.recovery_ms,
        )
    }
}

/// Renders the storm result as the `BENCH_overload.json` document.
pub fn render_json(result: &OverloadStormResult) -> String {
    json_document(&OverloadJson {
        storm: result.clone(),
    })
}

/// The `BENCH_overload.json` document.
#[derive(Serialize)]
struct OverloadJson {
    storm: OverloadStormResult,
}

/// Runs the adversarial overload storm and measures escalation, shedding,
/// breaker behavior, and recovery.
///
/// The broker is rigged so every overload reaction has to fire:
///
/// * every match call sleeps (latency fault at rate 1.0), so queue wait
///   blows through the `sensitive()` thresholds;
/// * the ingress queue is tiny, so fill hits 1.0 and back-pressure keeps
///   it there for the whole storm;
/// * most storm events carry a 2 ms TTL (shed by the deadline rule) or a
///   priority below the floor with no deadline (shed by the load rule),
///   so both shed counters move once the machine escalates;
/// * every eighth event is high-priority with no deadline and matches all
///   four subscribers, whose 4-slot channels are never drained during the
///   storm — consecutive delivery failures trip their breakers.
///
/// After the last publish the backlog is flushed (mostly by shedding),
/// the subscribers start draining again, and the load state is polled
/// until `Healthy`.
pub fn run_overload_storm(observer: &ScenarioObserver) -> OverloadStormResult {
    let deliverable = parse_event("{storm: on, kind: deliverable}").expect("event");
    let sheddable = parse_event("{storm: on, kind: sheddable}").expect("event");
    let subscription = parse_subscription("{storm= on}").expect("subscription");

    let overload = OverloadConfig {
        shed_priority_floor: 50,
        ..OverloadConfig::sensitive()
    };
    let mut config = BrokerConfig::default()
        .with_workers(2)
        .with_overload_control(overload);
    config.queue_capacity = 32;
    config.notification_capacity = 4;

    let matcher = Arc::new(FaultInjectingMatcher::new(
        ExactMatcher::new(),
        FaultConfig::none(0x570A).with_latency(1.0, Duration::from_micros(500)),
    ));
    let broker = Arc::new(Broker::start(matcher, config));
    // Held but not drained during the storm: the point is to fill the
    // 4-slot channels and keep them full so the breakers see consecutive
    // failures.
    let receivers: Vec<_> = (0..4)
        .map(|_| broker.subscribe(subscription.clone()).expect("subscribe").1)
        .collect();
    observer("overload_storm", &broker);

    let mut timeline: Vec<StateSample> = Vec::new();
    let mut peak = LoadState::Healthy;
    let start = Instant::now();
    let sample = |broker: &Broker, timeline: &mut Vec<StateSample>, peak: &mut LoadState| {
        let state = broker.load_state().unwrap_or(LoadState::Healthy);
        if state > *peak {
            *peak = state;
        }
        if timeline.last().map(|s| s.state.as_str()) != Some(state.as_str()) {
            timeline.push(StateSample {
                at_ms: start.elapsed().as_secs_f64() * 1e3,
                state: state.as_str().to_string(),
            });
        }
        state
    };
    sample(&broker, &mut timeline, &mut peak);

    const EVENTS: usize = 1536;
    for i in 0..EVENTS {
        let (event, options) = if i % 8 == 0 {
            // Survives admission control; its four deliveries hammer the
            // full subscriber channels and feed the breakers.
            (
                deliverable.clone(),
                PublishOptions::default().with_priority(200),
            )
        } else if i % 8 == 4 {
            // No deadline, but below the priority floor: shed under
            // `Critical` by the load rule rather than the deadline rule.
            (
                sheddable.clone(),
                PublishOptions::default().with_priority(10),
            )
        } else {
            // Expired-deadline / below-floor fodder for the shed counters.
            (
                sheddable.clone(),
                PublishOptions::default()
                    .with_ttl(Duration::from_millis(2))
                    .with_priority(10),
            )
        };
        broker.publish_with(event, options).expect("publish");
        sample(&broker, &mut timeline, &mut peak);
    }
    let storm_secs = start.elapsed().as_secs_f64();

    // Storm over: drain the backlog (the shed path counts toward
    // `processed`, so this terminates fast even though matching is slow).
    broker.flush_timeout(FLUSH_DEADLINE).expect("flush");

    // Recovery: subscribers resume draining, so channel fill and the
    // queue-wait EWMA can both decay back to the healthy band.
    let recovery_start = Instant::now();
    let mut recovered = false;
    while recovery_start.elapsed() < RECOVERY_DEADLINE {
        for rx in &receivers {
            while rx.try_recv().is_ok() {}
        }
        if sample(&broker, &mut timeline, &mut peak) == LoadState::Healthy {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let recovery_ms = recovery_start.elapsed().as_secs_f64() * 1e3;
    let final_state = sample(&broker, &mut timeline, &mut peak);

    let stats = broker.stats();
    let overload: JsonValue =
        serde_json::from_str(&broker.overload_json()).expect("the /overload body is JSON");
    let transitions = overload.get("transitions").and_then(JsonValue::as_u64);
    drop(receivers);
    broker.close();

    OverloadStormResult {
        name: "overload_storm".to_string(),
        events_published: EVENTS as u64,
        storm_secs,
        peak_state: peak.as_str().to_string(),
        reached_critical: peak == LoadState::Critical,
        timeline,
        transitions: transitions.unwrap_or(0),
        shed_deadline: stats.shed_deadline,
        shed_load: stats.shed_load,
        breaker_trips: stats.breaker_trips,
        breaker_open_drops: stats.breaker_open,
        dropped_full: stats.dropped_full,
        processed: stats.processed,
        notifications: stats.notifications,
        recovered,
        recovery_ms,
        final_state: final_state.as_str().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OverloadStormResult {
        OverloadStormResult {
            name: "overload_storm".into(),
            events_published: 1536,
            storm_secs: 1.25,
            peak_state: "critical".into(),
            reached_critical: true,
            timeline: vec![
                StateSample {
                    at_ms: 0.0,
                    state: "healthy".into(),
                },
                StateSample {
                    at_ms: 12.5,
                    state: "critical".into(),
                },
            ],
            transitions: 4,
            shed_deadline: 900,
            shed_load: 200,
            breaker_trips: 3,
            breaker_open_drops: 40,
            dropped_full: 60,
            processed: 1536,
            notifications: 16,
            recovered: true,
            recovery_ms: 8.0,
            final_state: "healthy".into(),
        }
    }

    #[test]
    fn json_is_well_formed_and_machine_readable() {
        let doc = render_json(&sample());
        let parsed: serde_json::JsonValue = serde_json::from_str(&doc).expect("valid JSON");
        let root = parsed.as_map().expect("object root");
        let storm = serde::value_get(root, "storm")
            .and_then(|v| v.as_map())
            .expect("storm object");
        let field = |k: &str| serde::value_get(storm, k).expect(k);
        assert_eq!(field("peak_state").as_str(), Some("critical"));
        assert_eq!(field("reached_critical").as_bool(), Some(true));
        assert_eq!(field("shed_deadline").as_u64(), Some(900));
        assert_eq!(field("recovered").as_bool(), Some(true));
        let timeline = field("timeline").as_seq().expect("timeline array");
        assert_eq!(timeline.len(), 2);
        let entry = timeline[1].as_map().expect("sample object");
        assert_eq!(
            serde::value_get(entry, "state").and_then(|v| v.as_str()),
            Some("critical")
        );
    }

    #[test]
    fn summary_mentions_peak_and_recovery() {
        let line = sample().summary();
        assert!(line.contains("peak=critical"));
        assert!(line.contains("recovered=true"));
    }

    #[test]
    fn storm_reaches_critical_sheds_and_recovers() {
        let r = run_overload_storm(&|_, _| {});
        assert!(
            r.reached_critical,
            "storm must drive the machine to critical: {r:?}"
        );
        assert!(
            r.shed_deadline > 0 && r.shed_load > 0,
            "storm must exercise both shed rules: {r:?}"
        );
        assert!(r.breaker_trips > 0, "storm must trip breakers: {r:?}");
        assert!(r.recovered, "broker must walk back to healthy: {r:?}");
        assert_eq!(r.final_state, "healthy");
        assert_eq!(
            r.processed, r.events_published,
            "every accepted event is processed exactly once"
        );
    }
}

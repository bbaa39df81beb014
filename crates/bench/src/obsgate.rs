//! Observability gate (`probe obs-gate`): proves the flight recorder is
//! effectively free and actually fires.
//!
//! Three checks, one verdict:
//!
//! * **throughput** — the `seed_exact_broadcast` scenario, and its
//!   thematic twin on a `thematic_cached` matcher, each run interleaved
//!   with the recorder off and on at the production-default settings,
//!   with trials long enough that several real frame ticks land inside
//!   every timed window; best-of-N on each side must agree within
//!   [`ObsGateConfig::max_overhead`] (default 1%) on both matchers;
//! * **steady-state allocation** — after warm-up, a tight loop of forced
//!   frame ticks on a live broker must allocate nothing: every frame
//!   buffer, theme slot, and stage histogram is reused;
//! * **chaos** — an injected worker panic (isolation off) and a forced
//!   `Critical` load state must each freeze a well-formed diagnostic
//!   bundle whose cause names the trigger and which carries at least one
//!   pre-trigger frame (the broker's start-up frame or a supervisor
//!   tick; warm-up copies are rewound away).
//!
//! The A/B and allocation loops come from [`crate::harness`]. The result
//! renders as `BENCH_obsgate.json`; the panic bundle itself is the
//! `BENCH_diag_bundle.json` CI artifact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{value_get, Serialize};
use serde_json::JsonValue;
use tep::prelude::{
    parse_event, Broker, BrokerConfig, Event, ExactMatcher, LoadState, MatchResult, Matcher,
    OverloadConfig, RecorderSettings, Subscription,
};
use tep_eval::{EvalConfig, MatcherStack};

use crate::harness::{
    bench_workers, gate_workload, interleaved_ab, measure_throughput, publish_round, steady_allocs,
    thematic_gate_workload, AbResult, FLUSH_DEADLINE,
};

/// Forced frame ticks in the steady-state allocation loop.
const STEADY_TICKS: u64 = 256;

/// Publish rounds per thematic trial (events = rounds × 128). A
/// thematic event costs several times an exact one; at ~100k ev/s this
/// is ~1.3 s per trial, long enough that scheduling noise on a two-core
/// runner stays under the 1% ceiling.
const THEMATIC_ROUNDS: usize = 1024;

/// Thresholds for [`run_obs_gate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObsGateConfig {
    /// Maximum tolerated fractional throughput overhead of the recorder
    /// (0.01 = recorder-on must stay within 1% of recorder-off).
    pub max_overhead: f64,
    /// Maximum tolerated allocations across the whole steady-state
    /// forced-tick loop (not per tick).
    pub max_steady_allocs: u64,
    /// Interleaved measurement trials per side; each side keeps its best.
    pub trials: usize,
    /// Publish rounds per exact trial (events = rounds × 128).
    pub rounds: usize,
}

impl Default for ObsGateConfig {
    fn default() -> ObsGateConfig {
        ObsGateConfig {
            max_overhead: 0.01,
            max_steady_allocs: 0,
            trials: 3,
            rounds: 2048,
        }
    }
}

/// The outcome of one obs-gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsGateResult {
    /// Best recorder-off throughput (events/sec).
    pub baseline_events_per_sec: f64,
    /// Best recorder-on throughput (events/sec).
    pub recorder_events_per_sec: f64,
    /// `1 - on/off`; negative when the recorder side happened to win.
    pub overhead: f64,
    /// The same A/B on a `thematic_cached` matcher.
    pub thematic: AbResult,
    /// Forced frame ticks in the allocation loop.
    pub steady_ticks: u64,
    /// Allocations observed across the whole allocation loop.
    pub steady_allocs: u64,
    /// Frames carried by the bundle frozen after the allocation loop.
    pub frames_in_bundle: u64,
    /// The worker-panic chaos bundle, when one was produced.
    pub panic_bundle: Option<String>,
    /// The forced-`Critical` chaos bundle, when one was produced.
    pub critical_bundle: Option<String>,
    /// Everything that failed; empty means the gate passed.
    pub violations: Vec<String>,
}

impl ObsGateResult {
    /// Whether every check cleared its threshold.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One human-readable line per side of the verdict.
    pub fn summary(&self) -> String {
        format!(
            "obs gate {}: recorder-off {:.0} ev/s, recorder-on {:.0} ev/s \
             (overhead {:+.2}%), thematic {:.0} vs {:.0} ev/s ({:+.2}%), \
             {} allocs / {} forced ticks, panic bundle {}, critical bundle {}",
            if self.passed() { "PASSED" } else { "FAILED" },
            self.baseline_events_per_sec,
            self.recorder_events_per_sec,
            self.overhead * 100.0,
            self.thematic.off,
            self.thematic.on,
            self.thematic.overhead * 100.0,
            self.steady_allocs,
            self.steady_ticks,
            if self.panic_bundle.is_some() {
                "ok"
            } else {
                "MISSING"
            },
            if self.critical_bundle.is_some() {
                "ok"
            } else {
                "MISSING"
            },
        )
    }

    /// The machine-readable `BENCH_obsgate.json` document.
    pub fn render_json(&self) -> String {
        let report = ObsGateReport {
            baseline_events_per_sec: self.baseline_events_per_sec,
            recorder_events_per_sec: self.recorder_events_per_sec,
            overhead: self.overhead,
            thematic_baseline_events_per_sec: self.thematic.off,
            thematic_recorder_events_per_sec: self.thematic.on,
            thematic_overhead: self.thematic.overhead,
            steady_ticks: self.steady_ticks,
            steady_allocs: self.steady_allocs,
            frames_in_bundle: self.frames_in_bundle,
            panic_bundle_produced: self.panic_bundle.is_some(),
            critical_bundle_produced: self.critical_bundle.is_some(),
            violations: self.violations.clone(),
            passed: self.passed(),
        };
        serde_json::to_string_pretty(&report).expect("obs-gate figures are finite") + "\n"
    }
}

/// The `BENCH_obsgate.json` document: the result with the bundles
/// reduced to whether each was produced.
#[derive(Serialize)]
struct ObsGateReport {
    baseline_events_per_sec: f64,
    recorder_events_per_sec: f64,
    overhead: f64,
    thematic_baseline_events_per_sec: f64,
    thematic_recorder_events_per_sec: f64,
    thematic_overhead: f64,
    steady_ticks: u64,
    steady_allocs: u64,
    frames_in_bundle: u64,
    panic_bundle_produced: bool,
    critical_bundle_produced: bool,
    violations: Vec<String>,
    passed: bool,
}

/// A matcher that panics on events carrying `k: boom` and otherwise
/// behaves exactly — the chaos fault injector for the panic-bundle check.
struct PanicOnBoom(ExactMatcher);

impl Matcher for PanicOnBoom {
    fn match_event(&self, subscription: &Subscription, event: &Event) -> MatchResult {
        if event.value_of("k") == Some("boom") {
            panic!("injected obs-gate fault");
        }
        self.0.match_event(subscription, event)
    }
}

/// A recorder tuned so frames genuinely record inside a tens-of-ms timed
/// window: the 250 ms production default would never fire.
fn fast_recorder() -> RecorderSettings {
    RecorderSettings {
        tick_ms: 2,
        ..RecorderSettings::default()
    }
}

/// Forced-tick allocation loop; returns `(allocations, frames_in_bundle)`.
fn measure_steady_allocs(subs: &[Subscription], events: &[Arc<Event>]) -> (u64, u64) {
    let config = BrokerConfig::default()
        .with_workers(bench_workers())
        .with_flight_recorder(RecorderSettings::default());
    let (allocs, rig) = steady_allocs(
        config,
        subs,
        // Real traffic first so every stage histogram has buckets to
        // merge, then a few forced ticks so the frame buffers and the
        // shared histogram scratch have grown to their steady-state
        // footprint.
        |rig| {
            publish_round(&rig.broker, events);
            for _ in 0..4 {
                rig.broker.record_diagnostic_frame();
            }
        },
        |rig| {
            for _ in 0..STEADY_TICKS {
                rig.broker.record_diagnostic_frame();
            }
        },
    );
    let frames = rig
        .broker
        .trigger_diagnostic("obs-gate steady-state check")
        .and_then(|_| rig.broker.latest_bundle_json())
        .and_then(|bundle| frames_in_bundle(&bundle))
        .unwrap_or(0);
    (allocs, frames)
}

/// Publishes a poisoned event through a non-isolating broker and returns
/// the worker-panic bundle the supervisor froze.
fn chaos_panic_bundle() -> Option<String> {
    let config = BrokerConfig::default()
        .with_workers(1)
        .with_panic_isolation(false)
        .with_max_match_attempts(2)
        .with_flight_recorder(fast_recorder());
    let broker = Broker::start(Arc::new(PanicOnBoom(ExactMatcher::new())), config);
    let (_, rx) = broker
        .subscribe(tep::prelude::parse_subscription("{k= ok}").ok()?)
        .ok()?;
    for i in 0..8 {
        let k = if i == 4 { "boom" } else { "ok" };
        broker
            .publish(parse_event(&format!("{{k: {k}, seq: n{i}}}")).ok()?)
            .ok()?;
    }
    broker.flush_timeout(FLUSH_DEADLINE).ok()?;
    // The trigger fires on the supervisor thread while it respawns the
    // dead worker; flush only proves the events drained, so give the
    // bundle itself a bounded moment to appear.
    let deadline = Instant::now() + Duration::from_secs(5);
    let bundle = loop {
        if let Some(bundle) = broker.latest_bundle_json() {
            break Some((*bundle).clone());
        }
        if Instant::now() >= deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    while rx.try_recv().is_ok() {}
    broker.close();
    bundle
}

/// Forces the load state to `Critical` on an overload-controlled broker
/// and returns the drill's bundle.
fn chaos_critical_bundle() -> Option<String> {
    let config = BrokerConfig::default()
        .with_workers(1)
        .with_overload_control(OverloadConfig::default())
        .with_flight_recorder(fast_recorder());
    let broker = Broker::start(Arc::new(ExactMatcher::new()), config);
    broker.force_load_state(Some(LoadState::Critical));
    let bundle = broker.latest_bundle_json().map(|b| (*b).clone());
    broker.force_load_state(None);
    broker.close();
    bundle
}

fn frames_in_bundle(bundle: &str) -> Option<u64> {
    let parsed: JsonValue = serde_json::from_str(bundle).ok()?;
    let entries = parsed.as_map()?;
    Some(value_get(entries, "frames")?.as_seq()?.len() as u64)
}

/// Validates one chaos bundle: top-level shape, the expected trigger
/// kind, and at least one pre-trigger frame. Violations go to `out`.
fn check_bundle(label: &str, kind: &str, bundle: &Option<String>, out: &mut Vec<String>) {
    let Some(bundle) = bundle else {
        out.push(format!("{label}: no diagnostic bundle was produced"));
        return;
    };
    let parsed: JsonValue = match serde_json::from_str(bundle) {
        Ok(v) => v,
        Err(e) => {
            out.push(format!("{label}: bundle is not valid JSON: {e:?}"));
            return;
        }
    };
    let Some(entries) = parsed.as_map() else {
        out.push(format!("{label}: bundle is not a JSON object"));
        return;
    };
    if value_get(entries, "bundle_seq")
        .and_then(JsonValue::as_u64)
        .is_none()
    {
        out.push(format!("{label}: bundle has no numeric bundle_seq"));
    }
    match value_get(entries, "cause").and_then(JsonValue::as_map) {
        None => out.push(format!("{label}: bundle has no cause object")),
        Some(cause) => {
            let got = value_get(cause, "kind").and_then(JsonValue::as_str);
            if got != Some(kind) {
                out.push(format!("{label}: cause kind is {got:?}, expected {kind:?}"));
            }
        }
    }
    match value_get(entries, "frames").and_then(JsonValue::as_seq) {
        None => out.push(format!("{label}: bundle has no frames array")),
        Some([]) => out.push(format!("{label}: bundle carries zero pre-trigger frames")),
        Some(_) => {}
    }
    if value_get(entries, "context")
        .and_then(JsonValue::as_map)
        .is_none()
    {
        out.push(format!("{label}: bundle has no context object"));
    }
}

/// Runs the full observability gate; see the module docs for the checks.
pub fn run_obs_gate(cfg: &ObsGateConfig) -> ObsGateResult {
    // The production-default recorder: the gate's claim is about the
    // configuration operators actually run. At ~0.7 s per trial the
    // 250 ms tick still fires several times inside every timed window.
    let config = |on: bool| {
        let config = BrokerConfig::default().with_workers(bench_workers());
        if on {
            config.with_flight_recorder(RecorderSettings::default())
        } else {
            config
        }
    };
    let (subs, events) = gate_workload();
    let exact = Arc::new(ExactMatcher::new());
    let ab = interleaved_ab(cfg.trials, cfg.max_overhead, |on| {
        measure_throughput(Arc::clone(&exact), config(on), &subs, &events, cfg.rounds)
    });
    // One matcher for every thematic trial, so both sides run on the
    // same warm relatedness caches.
    let thematic = Arc::new(MatcherStack::build(&EvalConfig::tiny()).thematic_cached());
    let (themed_subs, themed_events) = thematic_gate_workload();
    let thematic_ab = interleaved_ab(cfg.trials, cfg.max_overhead, |on| {
        measure_throughput(
            Arc::clone(&thematic),
            config(on),
            &themed_subs,
            &themed_events,
            THEMATIC_ROUNDS,
        )
    });

    let (steady_allocs, frames_in_bundle) = measure_steady_allocs(&subs, &events);
    let panic_bundle = chaos_panic_bundle();
    let critical_bundle = chaos_critical_bundle();

    let mut violations = Vec::new();
    for (matcher, ab) in [("exact", &ab), ("thematic", &thematic_ab)] {
        if ab.overhead > cfg.max_overhead {
            violations.push(format!(
                "{matcher} recorder overhead {:.2}% exceeds the {:.2}% ceiling \
                 ({:.0} ev/s on vs {:.0} ev/s off)",
                ab.overhead * 100.0,
                cfg.max_overhead * 100.0,
                ab.on,
                ab.off,
            ));
        }
    }
    if steady_allocs > cfg.max_steady_allocs {
        violations.push(format!(
            "steady-state recorder ticks allocated {steady_allocs} times \
             over {STEADY_TICKS} forced frames (max {})",
            cfg.max_steady_allocs,
        ));
    }
    if frames_in_bundle == 0 {
        violations.push(String::from(
            "steady-state bundle carried zero frames; the tick path never recorded",
        ));
    }
    check_bundle(
        "worker panic",
        "worker_panic",
        &panic_bundle,
        &mut violations,
    );
    check_bundle(
        "forced critical",
        "load_critical",
        &critical_bundle,
        &mut violations,
    );

    ObsGateResult {
        baseline_events_per_sec: ab.off,
        recorder_events_per_sec: ab.on,
        overhead: ab.overhead,
        thematic: thematic_ab,
        steady_ticks: STEADY_TICKS,
        steady_allocs,
        frames_in_bundle,
        panic_bundle,
        critical_bundle,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_json_is_parseable_and_escapes_violations() {
        let result = ObsGateResult {
            baseline_events_per_sec: 100_000.0,
            recorder_events_per_sec: 99_500.0,
            overhead: 0.005,
            thematic: AbResult {
                off: 60_000.0,
                on: 59_700.0,
                overhead: 0.005,
            },
            steady_ticks: STEADY_TICKS,
            steady_allocs: 0,
            frames_in_bundle: 8,
            panic_bundle: Some(String::from("{}")),
            critical_bundle: None,
            violations: vec![String::from("cause kind is \"manual\"")],
        };
        let parsed: JsonValue = serde_json::from_str(&result.render_json()).expect("valid JSON");
        let entries = parsed.as_map().expect("object");
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "baseline_events_per_sec",
                "recorder_events_per_sec",
                "overhead",
                "thematic_baseline_events_per_sec",
                "thematic_recorder_events_per_sec",
                "thematic_overhead",
                "steady_ticks",
                "steady_allocs",
                "frames_in_bundle",
                "panic_bundle_produced",
                "critical_bundle_produced",
                "violations",
                "passed",
            ]
        );
        assert_eq!(
            value_get(entries, "passed").and_then(JsonValue::as_bool),
            Some(false)
        );
        assert_eq!(
            value_get(entries, "critical_bundle_produced").and_then(JsonValue::as_bool),
            Some(false)
        );
        let violations = value_get(entries, "violations")
            .and_then(JsonValue::as_seq)
            .expect("violations array");
        assert_eq!(violations.len(), 1);
        assert!(violations[0].as_str().unwrap().contains("manual"));
    }

    #[test]
    fn check_bundle_accepts_a_well_formed_bundle() {
        let bundle = String::from(
            "{\"bundle_seq\": 1, \"cause\": {\"kind\": \"worker_panic\", \
             \"detail\": \"d\", \"at_ms\": 1.0}, \"frames\": [{\"seq\": 0}], \
             \"context\": {}}",
        );
        let mut violations = Vec::new();
        check_bundle("test", "worker_panic", &Some(bundle), &mut violations);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn check_bundle_flags_missing_pieces() {
        let mut violations = Vec::new();
        check_bundle("test", "worker_panic", &None, &mut violations);
        check_bundle(
            "test",
            "worker_panic",
            &Some(String::from(
                "{\"cause\": {\"kind\": \"manual\"}, \"frames\": []}",
            )),
            &mut violations,
        );
        assert!(violations
            .iter()
            .any(|v| v.contains("no diagnostic bundle")));
        assert!(violations
            .iter()
            .any(|v| v.contains("expected \"worker_panic\"")));
        assert!(violations
            .iter()
            .any(|v| v.contains("zero pre-trigger frames")));
        assert!(violations.iter().any(|v| v.contains("bundle_seq")));
    }
}

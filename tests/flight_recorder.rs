//! Integration tests for the flight recorder: diagnostic bundles frozen
//! by chaos (a worker panic, a forced `Critical` load state) and by the
//! manual trigger, the bundle's JSON schema, the bounded on-disk spool,
//! and the liveness/readiness split.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tep::prelude::*;

use serde_json::JsonValue;

fn get<'a>(entries: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A recorder ticking fast enough that real frames land between publish
/// and trigger even in a short test.
fn recorder_settings() -> RecorderSettings {
    RecorderSettings {
        tick_ms: 1,
        ..RecorderSettings::default()
    }
}

fn recorder_broker(config: BrokerConfig) -> Broker {
    Broker::start(
        Arc::new(ExactMatcher::new()),
        config.with_flight_recorder(recorder_settings()),
    )
}

/// Replaces the default panic hook with one that stays quiet about
/// panics whose message contains "injected" — the chaos tests below
/// murder workers on purpose and should not spray backtraces.
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

struct BoomMatcher;

impl Matcher for BoomMatcher {
    fn match_event(&self, subscription: &Subscription, event: &Event) -> MatchResult {
        if event.value_of("k") == Some("boom") {
            panic!("injected recorder fault");
        }
        ExactMatcher::new().match_event(subscription, event)
    }
}

/// Parses a bundle and asserts the full top-level schema: a numeric
/// `bundle_seq`, a `cause` object naming the trigger, a non-empty
/// `frames` array whose frames carry the per-frame sections, and a
/// `context` object with the config fingerprint. Returns the cause
/// detail for kind-specific checks.
fn assert_bundle_schema(bundle: &str, expected_kind: &str) -> String {
    let parsed: JsonValue = serde_json::from_str(bundle).expect("bundle is valid JSON");
    let entries = parsed.as_map().expect("bundle is a JSON object");
    get(entries, "bundle_seq")
        .and_then(JsonValue::as_u64)
        .expect("numeric bundle_seq");
    let cause = get(entries, "cause")
        .and_then(JsonValue::as_map)
        .expect("cause object");
    assert_eq!(
        get(cause, "kind").and_then(JsonValue::as_str),
        Some(expected_kind),
        "trigger kind"
    );
    get(cause, "at_ms")
        .and_then(JsonValue::as_f64)
        .expect("cause timestamp");
    let frames = get(entries, "frames")
        .and_then(JsonValue::as_seq)
        .expect("frames array");
    assert!(
        !frames.is_empty(),
        "the start-up frame precedes every trigger"
    );
    for frame in frames {
        let frame = frame.as_map().expect("frame object");
        get(frame, "seq")
            .and_then(JsonValue::as_u64)
            .expect("frame seq");
        get(frame, "at_ms")
            .and_then(JsonValue::as_f64)
            .expect("frame at_ms");
        let counters = get(frame, "counters")
            .and_then(JsonValue::as_map)
            .expect("frame counters");
        assert!(get(counters, "published").is_some());
        assert!(get(counters, "worker_panics").is_some());
        let gauges = get(frame, "gauges")
            .and_then(JsonValue::as_map)
            .expect("frame gauges");
        assert!(get(gauges, "live_workers").is_some());
        let stages = get(frame, "stages")
            .and_then(JsonValue::as_seq)
            .expect("frame stages");
        assert!(!stages.is_empty(), "stage snapshots present");
    }
    let context = get(entries, "context")
        .and_then(JsonValue::as_map)
        .expect("context object");
    get(context, "config_fingerprint")
        .and_then(JsonValue::as_str)
        .expect("config fingerprint");
    get(context, "stats")
        .and_then(JsonValue::as_map)
        .expect("stats snapshot in context");
    get(cause, "detail")
        .and_then(JsonValue::as_str)
        .expect("cause detail")
        .to_string()
}

/// Polls for the next bundle: triggers fire on supervisor/worker threads,
/// so `flush` alone does not prove assembly finished.
fn wait_for_bundle(b: &Broker) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(bundle) = b.latest_bundle_json() {
            return (*bundle).clone();
        }
        assert!(Instant::now() < deadline, "no bundle within the deadline");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn manual_trigger_freezes_a_schema_valid_bundle() {
    let b = recorder_broker(BrokerConfig::default().with_workers(2));
    let (_, rx) = b
        .subscribe(parse_subscription("{kind= wanted}").unwrap())
        .unwrap();
    for i in 0..64 {
        b.publish(parse_event(&format!("{{kind: wanted, n: v{i}}}")).unwrap())
            .unwrap();
    }
    b.flush_timeout(Duration::from_secs(30)).unwrap();
    let seq = b
        .trigger_diagnostic("operator drill")
        .expect("manual trigger produces a bundle");
    assert_eq!(b.diagnostic_bundles(), 1);
    let bundle = b.latest_bundle_json().expect("bundle retained in memory");
    let detail = assert_bundle_schema(&bundle, "manual");
    assert!(detail.contains("operator drill"), "detail: {detail}");
    // The bundle must carry the traffic the frames observed.
    assert!(bundle.contains("\"published\""));
    let parsed: JsonValue = serde_json::from_str(&bundle).unwrap();
    let entries = parsed.as_map().unwrap();
    assert_eq!(
        get(entries, "bundle_seq").and_then(JsonValue::as_u64),
        Some(seq)
    );
    while rx.try_recv().is_ok() {}
    b.shutdown();
}

#[test]
fn worker_panic_freezes_a_bundle_naming_the_cause() {
    silence_injected_panics();
    let config = BrokerConfig::default()
        .with_workers(1)
        .with_panic_isolation(false)
        .with_max_match_attempts(2)
        .with_flight_recorder(recorder_settings());
    let b = Broker::start(Arc::new(BoomMatcher), config);
    let (_, rx) = b.subscribe(parse_subscription("{k= ok}").unwrap()).unwrap();
    for i in 0..10 {
        let k = if i == 5 { "boom" } else { "ok" };
        b.publish(parse_event(&format!("{{k: {k}, seq: n{i}}}")).unwrap())
            .unwrap();
    }
    b.flush_timeout(Duration::from_secs(30)).unwrap();
    let bundle = wait_for_bundle(&b);
    let detail = assert_bundle_schema(&bundle, "worker_panic");
    assert!(detail.contains("worker"), "detail: {detail}");
    assert!(b.stats().worker_panics >= 1);
    while rx.try_recv().is_ok() {}
    b.shutdown();
}

#[test]
fn forced_critical_load_state_fires_the_drill_trigger() {
    let b = Broker::start(
        Arc::new(ExactMatcher::new()),
        BrokerConfig::default()
            .with_workers(1)
            .with_overload_control(OverloadConfig::default())
            .with_flight_recorder(recorder_settings()),
    );
    assert!(
        b.latest_bundle_json().is_none(),
        "no bundle before any trigger"
    );
    b.force_load_state(Some(LoadState::Critical));
    let bundle = wait_for_bundle(&b);
    let detail = assert_bundle_schema(&bundle, "load_critical");
    assert!(detail.contains("critical"), "detail: {detail}");
    b.force_load_state(None);
    b.shutdown();
}

#[test]
fn trigger_cooldown_suppresses_a_bundle_storm() {
    let b = recorder_broker(BrokerConfig::default().with_workers(1));
    assert!(b.trigger_diagnostic("first").is_some());
    // Default cooldown is 5 s per kind; an immediate second manual
    // trigger must be swallowed.
    assert!(b.trigger_diagnostic("second").is_none());
    assert_eq!(b.diagnostic_bundles(), 1);
    b.shutdown();
}

#[test]
fn spool_keeps_only_the_newest_bundles() {
    let dir = std::env::temp_dir().join(format!("tep-recorder-itest-{}-spool", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let b = Broker::start(
        Arc::new(ExactMatcher::new()),
        BrokerConfig::default()
            .with_workers(1)
            .with_flight_recorder(RecorderSettings {
                tick_ms: 1,
                spool_dir: Some(dir.to_string_lossy().into_owned()),
                spool_capacity: 2,
                // The shortest cooldown normalization allows; the test
                // sleeps past it between triggers.
                trigger_cooldown_ms: 1,
                ..RecorderSettings::default()
            }),
    );
    for i in 0..4 {
        std::thread::sleep(Duration::from_millis(5));
        b.trigger_diagnostic(&format!("drill {i}"))
            .expect("cooldown elapsed");
    }
    assert_eq!(b.diagnostic_bundles(), 4);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("spool dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec!["tep-diag-2.json".to_string(), "tep-diag-3.json".to_string()],
        "oldest bundles evicted"
    );
    // Every surviving spool file is itself a complete, parseable bundle.
    for name in &names {
        let doc = std::fs::read_to_string(dir.join(name)).unwrap();
        assert_bundle_schema(&doc, "manual");
    }
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readiness_splits_from_liveness() {
    let b = Broker::start(
        Arc::new(ExactMatcher::new()),
        BrokerConfig::default()
            .with_workers(1)
            .with_overload_control(OverloadConfig::default()),
    );
    let (ready, body) = b.readiness();
    assert!(ready, "fresh broker is ready: {body}");
    let parsed: JsonValue = serde_json::from_str(&body).expect("readiness body is JSON");
    let entries = parsed.as_map().unwrap();
    assert_eq!(
        get(entries, "ready").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert!(get(entries, "load_state")
        .and_then(JsonValue::as_str)
        .is_some());
    assert!(get(entries, "open_breakers")
        .and_then(JsonValue::as_u64)
        .is_some());
    assert!(get(entries, "quarantined")
        .and_then(JsonValue::as_u64)
        .is_some());
    // Overloaded-or-worse load states flip readiness while the broker
    // stays alive (liveness would still answer).
    b.force_load_state(Some(LoadState::Critical));
    let (ready, body) = b.readiness();
    assert!(!ready, "critical broker is not ready: {body}");
    b.force_load_state(None);
    let (ready, _) = b.readiness();
    assert!(ready, "released broker is ready again");
    b.close();
    let (ready, body) = b.readiness();
    assert!(!ready, "closed broker is not ready: {body}");
    b.shutdown();
}

//! Integration tests for the matching-quality observability layer: the
//! shadow quality sampler judged by the eval crate's ground-truth
//! oracle, its agreement with the offline population F1, and the
//! inertness of every dimensional/windowed/quality feature when left
//! disabled.
//!
//! Registered under `tep-bench` (not `tep`) because the live side needs
//! the broker and the offline side needs `tep-eval` — this test is
//! exactly the cross-crate seam the quality gate relies on.

use std::sync::Arc;
use std::time::Duration;
use tep::prelude::*;
use tep_eval::metrics::thresholded_effectiveness;
use tep_eval::{EvalConfig, GroundTruthOracle, Workload};

const FLUSH: Duration = Duration::from_secs(60);

fn workload_slice(subs: usize, events: usize) -> (Workload, Vec<Subscription>, Vec<Event>) {
    let workload = Workload::generate(&EvalConfig::tiny());
    let s = workload
        .subscriptions()
        .iter()
        .take(subs)
        .cloned()
        .collect();
    let e = workload.events().iter().take(events).cloned().collect();
    (workload, s, e)
}

/// Publishes every event `rounds` times through a quality-sampled exact
/// broker and returns its live report.
fn live_report(
    oracle: &GroundTruthOracle,
    subs: &[Subscription],
    events: &[Event],
    every: u64,
    rounds: usize,
) -> QualityReport {
    let broker = Broker::start(
        Arc::new(ExactMatcher::new()),
        BrokerConfig::default().with_workers(2),
    )
    .with_quality_sampling(every, Box::new(oracle.clone()));
    let receivers: Vec<_> = subs
        .iter()
        .map(|s| broker.subscribe(s.clone()).expect("subscribe").1)
        .collect();
    for _ in 0..rounds {
        for e in events {
            broker.publish(e.clone()).expect("publish");
        }
    }
    broker.flush_timeout(FLUSH).expect("flush");
    let report = broker.quality().expect("sampling installed");
    for rx in &receivers {
        while rx.try_recv().is_ok() {}
    }
    report
}

/// The offline population quantity the live sampler estimates: every
/// judgeable pair, decided by the same matcher at the same threshold.
fn offline_f1(oracle: &GroundTruthOracle, subs: &[Subscription], events: &[Event]) -> f64 {
    let matcher = ExactMatcher::new();
    let threshold = BrokerConfig::default().delivery_threshold;
    thresholded_effectiveness(subs.iter().flat_map(|sub| {
        let matcher = &matcher;
        events.iter().filter_map(move |event| {
            let relevant = oracle.judge(sub, event)?;
            let result = matcher.match_event(sub, event);
            Some((!result.is_empty() && result.is_match(threshold), relevant))
        })
    }))
    .f1
}

#[test]
fn live_sampled_f1_agrees_with_offline_eval_f1() {
    let (workload, subs, events) = workload_slice(6, 96);
    let oracle = GroundTruthOracle::from_workload(&workload);
    let offline = offline_f1(&oracle, &subs, &events);

    // 1-in-1 sampling: the live confusion matrix pools exactly the
    // offline decisions (times `rounds`), so the F1s are bit-identical.
    let full = live_report(&oracle, &subs, &events, 1, 2);
    assert!(full.judged() > 0);
    assert_eq!(full.f1, offline, "k=1 live F1 must equal offline F1");

    // The same slice subscribed twice: each duplicate shares its twin's
    // index entry and match test, yet the sampler still judges every
    // subscriber × event pair, so the judged count doubles and the F1 of
    // the doubled confusion matrix is unchanged.
    let twice: Vec<Subscription> = subs.iter().chain(&subs).cloned().collect();
    let doubled = live_report(&oracle, &twice, &events, 1, 2);
    assert_eq!(doubled.judged(), 2 * full.judged());
    assert_eq!(
        doubled.f1, offline,
        "duplicates leave the k=1 live F1 exact"
    );

    // 1-in-7 sampling: the live F1 is an unbiased estimate and must land
    // within its own reported confidence interval of the population F1.
    // Sampling is a deterministic hash of (sequence, subscription), so
    // this holds reproducibly, not just in expectation.
    let sampled = live_report(&oracle, &subs, &events, 7, 10);
    assert!(
        sampled.judged() >= 100,
        "expected >=100 judged samples, got {}",
        sampled.judged()
    );
    let gap = (sampled.f1 - offline).abs();
    assert!(
        gap <= sampled.f1_ci_half_width().max(1e-9),
        "sampled F1 {:.4} vs offline {:.4}: gap {:.4} exceeds CI half-width {:.4}",
        sampled.f1,
        offline,
        gap,
        sampled.f1_ci_half_width(),
    );
}

#[test]
fn quality_report_surfaces_in_metrics_and_json() {
    let (workload, subs, events) = workload_slice(4, 64);
    let oracle = GroundTruthOracle::from_workload(&workload);
    let broker = Broker::start(
        Arc::new(ExactMatcher::new()),
        BrokerConfig::default().with_workers(2),
    )
    .with_quality_sampling(1, Box::new(oracle));
    let _receivers: Vec<_> = subs
        .iter()
        .map(|s| broker.subscribe(s.clone()).expect("subscribe").1)
        .collect();
    for e in &events {
        broker.publish(e.clone()).expect("publish");
    }
    broker.flush_timeout(FLUSH).expect("flush");

    let prom = broker.metrics().render_prometheus();
    assert!(prom.contains("tep_quality_f1"), "missing F1 gauge:\n{prom}");
    assert!(prom.contains("tep_quality_samples_total"));
    let report = broker.quality().expect("sampling installed");
    let json = render_quality_json(&report);
    for key in ["\"f1\":", "\"precision\":", "\"recall\":", "\"drift\":"] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
}

#[test]
fn disabled_quality_and_dimensions_stay_inert() {
    let (_, subs, events) = workload_slice(4, 64);
    // Default config: no oracle, no labeled metrics, no recorder —
    // the observability tentpole must cost nothing and export nothing
    // unless asked for.
    let broker = Broker::start(
        Arc::new(ExactMatcher::new()),
        BrokerConfig::default().with_workers(2),
    );
    let receivers: Vec<_> = subs
        .iter()
        .map(|s| broker.subscribe(s.clone()).expect("subscribe").1)
        .collect();
    for e in &events {
        broker.publish(e.clone()).expect("publish");
    }
    broker.flush_timeout(FLUSH).expect("flush");

    assert!(broker.quality().is_none(), "no oracle was installed");
    assert!(broker.top_themes(5).is_empty(), "top-k sketch is off");
    assert!(
        broker.window(Duration::from_secs(10)).is_none(),
        "no recorder"
    );
    let prom = broker.metrics().render_prometheus();
    for series in [
        "tep_quality_",
        "tep_theme_match_tests_total",
        "tep_match_temperature_total",
        "tep_subscriber_notifications_total",
        "tep_published_rate",
    ] {
        assert!(!prom.contains(series), "{series} leaked into:\n{prom}");
    }
    // The pipeline itself still works: the exact matcher delivered
    // something for at least one subscription across the slice.
    let delivered: usize = receivers
        .iter()
        .map(|rx| std::iter::from_fn(|| rx.try_recv().ok()).count())
        .sum();
    assert_eq!(broker.stats().notifications as usize, delivered);
}

#[test]
fn enabled_dimensions_export_labeled_windowed_and_queue_series() {
    let (workload, subs, events) = workload_slice(4, 64);
    let oracle = GroundTruthOracle::from_workload(&workload);
    let tags = ["power".to_string(), "grid".to_string()];
    let broker = Broker::start(
        Arc::new(ExactMatcher::new()),
        BrokerConfig::default()
            .with_workers(2)
            .with_labeled_metrics(true)
            .with_label_cardinality(8)
            .with_flight_recorder(RecorderSettings::default()),
    )
    .with_quality_sampling(1, Box::new(oracle));
    let _receivers: Vec<_> = subs
        .iter()
        .map(|s| broker.subscribe(s.clone()).expect("subscribe").1)
        .collect();
    for e in &events {
        broker
            .publish(e.clone().with_theme_tags(tags.clone()))
            .expect("publish");
    }
    broker.flush_timeout(FLUSH).expect("flush");
    broker.record_diagnostic_frame();

    // The base is the broker's start-up frame.
    let window = broker.window(Duration::from_secs(10)).expect("two frames");
    assert_eq!(window.counter_delta("published"), Some(events.len() as u64));
    let top = broker.top_themes(5);
    assert!(
        top.iter().any(|(name, _)| name == "power"),
        "hot themes missing 'power': {top:?}"
    );
    let prom = broker.metrics().render_prometheus();
    for series in [
        "tep_theme_match_tests_total{theme=\"power\"}",
        "tep_published_rate{window=\"10s\"}",
        "tep_publish_queue_depth",
        "tep_subscriber_queue_depth_sum",
        "tep_quality_f1",
    ] {
        assert!(prom.contains(series), "{series} missing from:\n{prom}");
    }
}

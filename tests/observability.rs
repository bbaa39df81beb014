//! Integration tests for the pipeline observability layer: stage latency
//! histograms, the metrics registry export, match explanations, causal
//! span trees, and the scrape endpoints.

use serde_json::JsonValue;
use std::sync::Arc;
use std::time::Duration;
use tep::prelude::*;

fn exact_broker(config: BrokerConfig) -> Broker {
    Broker::start(Arc::new(ExactMatcher::new()), config)
}

fn thematic_broker(config: BrokerConfig) -> Broker {
    let corpus = Corpus::generate(&CorpusConfig::small().with_num_docs(900));
    let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
        InvertedIndex::build(&corpus),
    )));
    Broker::start(
        Arc::new(ProbabilisticMatcher::new(
            ThematicEsaMeasure::new(pvsm),
            MatcherConfig::top1(),
        )),
        config,
    )
}

/// Under no-fault, no-overload conditions the stage histogram counts are
/// exact functions of the broker counters: one queue-wait sample per
/// processed event, one match sample per match test, one deliver sample
/// per notification.
#[test]
fn stage_latency_counts_reconcile_with_broker_counters() {
    let b = exact_broker(BrokerConfig::default().with_workers(2));
    let (_, rx) = b
        .subscribe(parse_subscription("{kind= wanted}").unwrap())
        .unwrap();
    let (_, _other) = b
        .subscribe(parse_subscription("{kind= other}").unwrap())
        .unwrap();
    for i in 0..500 {
        let kind = if i % 5 == 0 { "wanted" } else { "other" };
        b.publish(parse_event(&format!("{{kind: {kind}, seq: n{i}}}")).unwrap())
            .unwrap();
    }
    b.flush().unwrap();

    let stats = b.stats();
    let stages = b.stage_latencies();
    assert_eq!(stats.processed, 500);
    assert_eq!(
        stages.queue_wait.count(),
        stats.processed,
        "one queue-wait sample per processed event"
    );
    assert_eq!(
        stages.match_combined().count(),
        stats.match_tests,
        "one match sample per match test"
    );
    assert_eq!(
        stages.match_exact.count(),
        stats.match_tests,
        "exact-only subscriptions must all land in the exact bucket"
    );
    assert_eq!(stages.match_thematic.count(), 0);
    assert_eq!(stages.match_cached.count(), 0);
    assert_eq!(
        stages.deliver.count(),
        stats.notifications,
        "one deliver sample per admitted notification"
    );
    // `rx` sees only the "wanted" fifth; the rest went to `_other`.
    assert_eq!(rx.try_iter().count(), 100);
    assert_eq!(stats.notifications, 500);

    // Percentiles are monotone and bounded by the recorded max.
    for h in [&stages.queue_wait, &stages.match_exact, &stages.deliver] {
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.max());
        assert!(h.sum() >= h.max(), "sum of samples is at least the max");
    }
    b.shutdown();
}

/// A thematic matcher's approximate subscriptions are classified by
/// cache temperature: the first pass over unseen event vocabulary pays
/// semantic-cache misses (thematic-cold), repeats are served warm.
#[test]
fn thematic_match_tests_split_by_cache_temperature() {
    let corpus = Corpus::generate(&CorpusConfig::small());
    let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
        InvertedIndex::build(&corpus),
    )));
    let matcher = ProbabilisticMatcher::new(ThematicEsaMeasure::new(pvsm), MatcherConfig::top1());
    // A single worker keeps the miss-delta sampling free of concurrent
    // misses from other match tests.
    let b = Broker::start(Arc::new(matcher), BrokerConfig::default().with_workers(1));
    let (_, _rx) = b
        .subscribe(
            parse_subscription("({energy policy}, {type~= increased energy usage event~})")
                .unwrap(),
        )
        .unwrap();
    let event = parse_event(
        "({energy policy}, {type: increased energy consumption event, device: computer})",
    )
    .unwrap();
    b.publish(event.clone()).unwrap();
    b.flush().unwrap();
    let cold = b.stage_latencies();
    assert_eq!(
        cold.match_exact.count(),
        0,
        "an approximate subscription never lands in the exact bucket"
    );
    assert!(
        cold.match_thematic.count() >= 1,
        "first sight of the event vocabulary must pay a cache miss"
    );

    for _ in 0..5 {
        b.publish(event.clone()).unwrap();
    }
    b.flush().unwrap();
    let warm = b.stage_latencies();
    let stats = b.stats();
    assert_eq!(warm.match_combined().count(), stats.match_tests);
    assert!(
        warm.match_cached.count() >= 1,
        "repeat events must be served from warm caches"
    );
    b.shutdown();
}

/// Every match-stage label can be forced and counted exactly. A test
/// that consults no semantic measure is `Exact` — an exact-only
/// subscription under any matcher, and *every* test under the exact
/// matcher, `~` markers or not; an approximate subscription's first
/// sighting of the event vocabulary misses the semantic caches
/// (`ThematicCold`); the same event again is served warm (`CacheWarm`).
/// With one worker and both signals sampled per thread, every count is
/// exact.
#[test]
fn each_stage_label_is_forced_exactly() {
    let corpus = Corpus::generate(&CorpusConfig::small());
    let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(
        InvertedIndex::build(&corpus),
    )));
    let thematic = ProbabilisticMatcher::new(
        tep::semantics::CachedMeasure::new(ThematicEsaMeasure::new(pvsm)),
        MatcherConfig::top1(),
    );
    let event = parse_event(
        "({energy policy}, {type: increased energy consumption event, device: computer})",
    )
    .unwrap();
    let counts = |b: &Broker| {
        let s = b.stage_latencies();
        (
            s.match_exact.count(),
            s.match_thematic.count(),
            s.match_cached.count(),
        )
    };
    // One exact-only and one approximate subscription; the receivers
    // must outlive the publishes.
    let subscribe = |b: &Broker| {
        [
            "({energy policy}, {device= computer})",
            "({energy policy}, {type~= increased energy usage event~})",
        ]
        .map(|text| b.subscribe(parse_subscription(text).unwrap()).unwrap())
    };
    let publish = |b: &Broker, times: usize| {
        for _ in 0..times {
            b.publish(event.clone()).unwrap();
        }
        b.flush().unwrap();
    };

    let b = Broker::start(Arc::new(thematic), BrokerConfig::default().with_workers(1));
    let _subs = subscribe(&b);
    publish(&b, 1);
    assert_eq!(counts(&b), (1, 1, 0), "first sighting: exact + cold");
    publish(&b, 3);
    assert_eq!(counts(&b), (4, 1, 3), "repeats: exact + warm");
    assert_eq!(b.stats().match_tests, 8);
    b.shutdown();

    let b = exact_broker(BrokerConfig::default().with_workers(1));
    let _subs = subscribe(&b);
    publish(&b, 4);
    assert_eq!(
        counts(&b),
        (8, 0, 0),
        "the exact matcher consults no measure"
    );
    assert_eq!(b.stats().match_tests, 8);
    b.shutdown();
}

/// The Prometheus text export carries every broker counter plus the
/// cumulative stage histograms; the JSON export parses and reports the
/// same counts.
#[test]
fn metrics_export_prometheus_and_json() {
    let b = exact_broker(BrokerConfig::default().with_workers(1));
    let (_, rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
    for i in 0..8 {
        b.publish(parse_event(&format!("{{k: v, i: n{i}}}")).unwrap())
            .unwrap();
    }
    b.flush().unwrap();
    drop(rx);

    let text = b.metrics().render_prometheus();
    assert!(text.contains("# TYPE tep_published_total counter"));
    assert!(text.contains("tep_published_total 8"));
    assert!(text.contains("tep_match_tests_total 8"));
    assert!(text.contains("tep_notifications_total 8"));
    assert!(text.contains("# TYPE tep_live_workers gauge"));
    assert!(text.contains("tep_live_workers 1"));
    assert!(text.contains("# TYPE tep_stage_queue_wait_seconds histogram"));
    assert!(text.contains("tep_stage_queue_wait_seconds_bucket{le=\"+Inf\"} 8"));
    assert!(text.contains("tep_stage_queue_wait_seconds_count 8"));
    assert!(text.contains("tep_stage_queue_wait_seconds_sum "));
    assert!(text.contains("tep_stage_match_exact_seconds_count 8"));
    assert!(text.contains("tep_stage_deliver_seconds_count 8"));

    let json = b.metrics().render_json();
    assert!(json.contains("\"tep_published_total\": 8"));
    let parsed: JsonValue = serde_json::from_str(&json).expect("metrics JSON parses");
    let queue_wait = parsed
        .get("histograms")
        .and_then(|h| h.get("tep_stage_queue_wait_seconds"));
    assert_eq!(
        queue_wait
            .and_then(|q| q.get("count"))
            .and_then(JsonValue::as_u64),
        Some(8)
    );
    assert!(json.contains("\"p99_ns\""));
    // Braces balance (cheap well-formedness check without a JSON parser).
    assert_eq!(
        json.matches(['{', '[']).count(),
        json.matches(['}', ']']).count()
    );
    b.shutdown();
}

/// With theme routing and span sampling on, a routed event's route span
/// shows the candidate set after the skip and the skip itself, and the
/// broker counters move by exactly that event's work.
#[test]
fn routing_skips_show_in_stats_and_the_route_span() {
    let config = BrokerConfig::default()
        .with_workers(1)
        .with_routing_policy(RoutingPolicy::ThemeOverlap)
        .with_span_sampling(1);
    let b = exact_broker(config);
    let (_, power_rx) = b
        .subscribe(parse_subscription("({power}, {k= v})").unwrap())
        .unwrap();
    let (_, _transport_rx) = b
        .subscribe(parse_subscription("({transport}, {k= v})").unwrap())
        .unwrap();

    let before = b.stats();
    b.publish(parse_event("({power}, {k: v})").unwrap())
        .unwrap();
    b.flush().unwrap();
    let after = b.stats();
    assert_eq!(
        after.routing_skipped - before.routing_skipped,
        1,
        "the transport subscription is skipped"
    );
    assert_eq!(
        after.match_tests - before.match_tests,
        1,
        "only the power subscription is tested"
    );
    assert_eq!(after.notifications - before.notifications, 1);
    assert_eq!(after.quarantined, before.quarantined);
    assert_eq!(power_rx.try_iter().count(), 1);

    let route = b
        .spans()
        .into_iter()
        .find(|s| s.seq == 0 && s.name == "route")
        .expect("the sampled event has a route span");
    let attr = |key: &str| {
        route
            .attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(attr("candidates").as_deref(), Some("1"));
    assert_eq!(attr("routing_skipped").as_deref(), Some("1"));
    b.shutdown();
}

/// A quarantined event is counted as quarantined, with its retried match
/// tests counted and nothing delivered.
#[test]
fn quarantined_events_show_in_stats() {
    /// Panics on every `k: boom` event.
    #[derive(Debug)]
    struct BoomMatcher;
    impl Matcher for BoomMatcher {
        fn match_event(&self, subscription: &Subscription, event: &Event) -> MatchResult {
            if event.value_of("k") == Some("boom") {
                panic!("injected observability fault");
            }
            ExactMatcher::new().match_event(subscription, event)
        }
    }
    // Silence the injected panic in test output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected observability fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let config = BrokerConfig::default()
        .with_workers(1)
        .with_max_match_attempts(2);
    let b = Broker::start(Arc::new(BoomMatcher), config);
    let (_, _rx) = b.subscribe(parse_subscription("{k= ok}").unwrap()).unwrap();
    let before = b.stats();
    b.publish(parse_event("{k: boom}").unwrap()).unwrap();
    b.flush_timeout(Duration::from_secs(10)).unwrap();
    let after = b.stats();
    assert_eq!(after.quarantined - before.quarantined, 1);
    assert_eq!(
        after.match_tests - before.match_tests,
        2,
        "both retry attempts are counted"
    );
    assert_eq!(after.notifications - before.notifications, 0);
    let _ = std::panic::take_hook();
    b.shutdown();
}

/// With the explain ring enabled, every match test — accepted or
/// rejected — leaves a full explanation: score vs. threshold, themes,
/// cache temperature, and per-predicate distances with the PVSM
/// projection dimensionalities.
#[test]
fn explain_last_reports_accepted_and_rejected_tests() {
    let b = thematic_broker(
        BrokerConfig::default()
            .with_workers(1)
            .with_explain_capacity(64),
    );
    let (hit, _hit_rx) = b
        .subscribe(
            parse_subscription(
                "({energy policy, building energy}, {type~= increased energy usage event~})",
            )
            .unwrap(),
        )
        .unwrap();
    let (miss, _miss_rx) = b
        .subscribe(parse_subscription("{kind= other}").unwrap())
        .unwrap();
    let event = parse_event(
        "({energy policy, building energy}, \
         {type: increased energy consumption event, device: kettle})",
    )
    .unwrap();
    b.publish(event.clone()).unwrap();
    b.flush().unwrap();

    let explanations = b.explain_last(16);
    assert_eq!(explanations.len(), 2, "one explanation per match test");

    let accepted = explanations.iter().find(|e| e.subscription == hit).unwrap();
    assert!(accepted.is_accepted());
    assert_eq!(accepted.outcome, MatchOutcome::Delivered);
    assert!(
        (accepted.threshold - 0.25).abs() < 1e-9,
        "the default delivery threshold is recorded"
    );
    assert!(accepted.score >= accepted.threshold);
    assert_eq!(
        accepted.temperature,
        CacheTemperature::ThematicCold,
        "first sight of the event vocabulary pays cache misses"
    );
    assert!(accepted
        .subscription_themes
        .iter()
        .any(|t| t == "energy policy"));
    assert!(accepted.event_themes.iter().any(|t| t == "building energy"));
    let detail = accepted
        .detail
        .as_ref()
        .expect("ring explanations carry full per-predicate detail");
    assert!(detail.mapped);
    let p = detail
        .predicates
        .iter()
        .find(|p| p.attribute == "type")
        .expect("the type predicate is explained");
    let vd = p
        .value_detail
        .as_ref()
        .expect("an approximate predicate explains its value relatedness");
    assert!(
        vd.distance.is_some(),
        "the raw distance behind 1/(1+d) is exposed"
    );
    assert!(
        vd.dims_projected_s <= vd.dims_full_s,
        "thematic projection may only shrink the PVSM dimensionality"
    );

    let rejected = explanations
        .iter()
        .find(|e| e.subscription == miss)
        .unwrap();
    assert!(!rejected.is_accepted());
    assert_eq!(
        rejected.temperature,
        CacheTemperature::Exact,
        "an exact-only subscription never touches the semantic caches"
    );

    // Re-publishing the same event serves the vocabulary from warm
    // caches, and the explanation says so.
    for _ in 0..5 {
        b.publish(event.clone()).unwrap();
    }
    b.flush().unwrap();
    let warm = b.explain_last(4);
    let last = warm.iter().rfind(|e| e.subscription == hit).unwrap();
    assert_eq!(last.temperature, CacheTemperature::CacheWarm);
    b.shutdown();
}

/// Explanations attach to notifications only for subscribers that opted
/// in via [`SubscribeOptions::explained`]; the ring stays independent.
#[test]
fn subscribe_with_attaches_explanations_only_when_opted_in() {
    let b = exact_broker(BrokerConfig::default().with_workers(1));
    let (_, plain_rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
    let (_, rich_rx) = b
        .subscribe_with(
            parse_subscription("{k= v}").unwrap(),
            SubscribeOptions::explained(),
        )
        .unwrap();
    b.publish(parse_event("{k: v}").unwrap()).unwrap();
    b.flush().unwrap();

    let plain = plain_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(plain.explanation.is_none(), "explanations are opt-in");
    let rich = rich_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    let e = rich
        .explanation
        .expect("the opted-in subscriber gets the explanation");
    assert_eq!(e.outcome, MatchOutcome::Delivered);
    assert_eq!(e.temperature, CacheTemperature::Exact);
    assert!(e.detail.is_some());
    assert!(
        b.explain_last(8).is_empty(),
        "notification explanations do not require the ring"
    );
    b.shutdown();
}

/// An aggregated fan-out times its deliveries back to back: four
/// duplicate subscribers share one match span, and its four deliver
/// spans follow one another instead of each restarting at the match end.
#[test]
fn fanout_deliver_spans_do_not_overlap() {
    let b = exact_broker(
        BrokerConfig::default()
            .with_workers(1)
            .with_span_sampling(1)
            .with_span_capacity(64),
    );
    let _receivers: Vec<_> = (0..4)
        .map(|_| {
            b.subscribe(parse_subscription("{k= v}").unwrap())
                .unwrap()
                .1
        })
        .collect();
    b.publish(parse_event("{k: v}").unwrap()).unwrap();
    b.flush().unwrap();

    let spans = b.spans();
    let matches: Vec<_> = spans.iter().filter(|s| s.name == "match").collect();
    assert_eq!(matches.len(), 1, "one test serves the four duplicates");
    let mut delivers: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "deliver" && s.parent == Some(matches[0].id))
        .collect();
    assert_eq!(delivers.len(), 4, "one deliver span per subscriber");
    delivers.sort_by_key(|s| s.start_ns);
    for pair in delivers.windows(2) {
        assert!(
            pair[1].start_ns >= pair[0].start_ns + pair[0].duration_ns,
            "deliver spans overlap: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
    b.shutdown();
}

/// A sampled event's journey reconstructs as a causal tree:
/// publish → route → match → deliver.
#[test]
fn span_tree_reconstructs_an_event_journey() {
    let b = exact_broker(
        BrokerConfig::default()
            .with_workers(1)
            .with_span_sampling(1)
            .with_span_capacity(64),
    );
    let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
    b.publish(parse_event("{k: v}").unwrap()).unwrap();
    b.flush().unwrap();

    let tree = b.span_tree(0);
    assert_eq!(tree.len(), 1, "one root: the publish span");
    let publish = &tree[0];
    assert_eq!(publish.record.name, "publish");
    assert_eq!(publish.record.seq, 0);
    assert_eq!(publish.size(), 4, "publish → route → match → deliver");
    assert_eq!(publish.children.len(), 1);
    let route = &publish.children[0];
    assert_eq!(route.record.name, "route");
    let match_span = route
        .children
        .iter()
        .find(|n| n.record.name == "match")
        .expect("the match test is spanned");
    assert_eq!(match_span.children.len(), 1);
    assert_eq!(match_span.children[0].record.name, "deliver");
    b.shutdown();
}

/// `with_span_sampling(k)` samples exactly the events whose sequence
/// number is a multiple of k — deterministic, not probabilistic.
#[test]
fn span_sampling_is_deterministic_one_in_k() {
    let b = exact_broker(
        BrokerConfig::default()
            .with_workers(1)
            .with_span_sampling(3)
            .with_span_capacity(256),
    );
    let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
    for i in 0..9 {
        b.publish(parse_event(&format!("{{k: v, i: n{i}}}")).unwrap())
            .unwrap();
    }
    b.flush().unwrap();

    let mut sampled: Vec<u64> = b.spans().iter().map(|s| s.seq).collect();
    sampled.sort_unstable();
    sampled.dedup();
    assert_eq!(sampled, vec![0, 3, 6]);
    for seq in [0, 3, 6] {
        assert_eq!(
            b.span_tree(seq).len(),
            1,
            "each sampled event has a complete tree"
        );
    }
    for seq in [1, 2, 4, 5, 7, 8] {
        assert!(b.span_tree(seq).is_empty());
    }
    b.shutdown();
}

/// A quarantined event's explanations carry the panic reason, and its
/// span tree ends in a quarantine leaf.
#[test]
fn quarantined_explanations_carry_the_panic_reason() {
    /// Panics on every event.
    #[derive(Debug)]
    struct BoomMatcher;
    impl Matcher for BoomMatcher {
        fn match_event(&self, _subscription: &Subscription, _event: &Event) -> MatchResult {
            panic!("injected observability fault");
        }
    }
    // Silence the injected panic in test output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected observability fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let config = BrokerConfig::default()
        .with_workers(1)
        .with_max_match_attempts(2)
        .with_explain_capacity(16)
        .with_span_sampling(1);
    let b = Broker::start(Arc::new(BoomMatcher), config);
    let (_, _rx) = b.subscribe(parse_subscription("{k= ok}").unwrap()).unwrap();
    b.publish(parse_event("{k: boom}").unwrap()).unwrap();
    b.flush_timeout(Duration::from_secs(10)).unwrap();

    let explanations = b.explain_last(16);
    assert_eq!(
        explanations.len(),
        1,
        "the whole retry budget collapses into one explanation"
    );
    let e = &explanations[0];
    match &e.outcome {
        MatchOutcome::Panicked { reason } => {
            assert!(reason.contains("injected observability fault"))
        }
        other => panic!("expected a panicked outcome, got {other:?}"),
    }
    assert!(
        e.detail.is_none(),
        "a panicked test has no result to explain"
    );
    assert!(!e.is_accepted());
    assert_eq!(b.stats().match_tests, 2, "both attempts were counted");

    fn names<'a>(nodes: &'a [SpanNode], out: &mut Vec<&'a str>) {
        for n in nodes {
            out.push(n.record.name);
            names(&n.children, out);
        }
    }
    let tree = b.span_tree(0);
    assert_eq!(tree.len(), 1, "one publish root despite the retries");
    let mut all = Vec::new();
    names(&tree, &mut all);
    assert_eq!(
        all.iter().filter(|n| **n == "match").count(),
        1,
        "one match span covers the whole retry budget"
    );
    assert!(
        all.contains(&"quarantine"),
        "the dead-letter move is spanned"
    );
    let _ = std::panic::take_hook();
    b.shutdown();
}

/// The explain ring reconciles exactly with the broker counters: one
/// explanation per match test, none for routing-skipped candidates, and
/// delivered outcomes equal to the notification count.
#[test]
fn explanation_counts_reconcile_with_match_counters() {
    let config = BrokerConfig::default()
        .with_workers(1)
        .with_routing_policy(RoutingPolicy::ThemeOverlap)
        .with_explain_capacity(1024)
        .with_overload_control(OverloadConfig::default());
    let b = exact_broker(config);
    let (_, _power_rx) = b
        .subscribe(parse_subscription("({power}, {k= v})").unwrap())
        .unwrap();
    let (_, _transport_rx) = b
        .subscribe(parse_subscription("({transport}, {k= v})").unwrap())
        .unwrap();
    for i in 0..40 {
        let theme = if i % 2 == 0 { "power" } else { "transport" };
        b.publish(parse_event(&format!("({{{theme}}}, {{k: v, i: n{i}}})")).unwrap())
            .unwrap();
    }
    b.flush().unwrap();

    let stats = b.stats();
    let explanations = b.explain_last(1024);
    assert_eq!(
        explanations.len() as u64,
        stats.match_tests,
        "every match test leaves exactly one explanation"
    );
    assert_eq!(stats.match_tests, 40, "theme routing halves the candidates");
    assert_eq!(
        stats.routing_skipped, 40,
        "skipped candidates leave no explanation"
    );
    let delivered = explanations
        .iter()
        .filter(|e| e.outcome == MatchOutcome::Delivered)
        .count() as u64;
    assert_eq!(delivered, stats.notifications);

    // Shed events are admission-controlled away *before* matching, so
    // they move `processed` and the shed counters but leave no
    // explanation and no match test behind.
    b.force_load_state(Some(LoadState::Overloaded));
    let expired = std::time::Instant::now() - Duration::from_millis(50);
    for i in 0..4 {
        b.publish_with(
            parse_event(&format!("({{power}}, {{k: v, i: shed{i}}})")).unwrap(),
            PublishOptions::default().with_deadline(expired),
        )
        .unwrap();
    }
    // Keep the forced state until every event is dequeued: shedding is
    // decided at dequeue time, so lifting it before the flush races the
    // worker (shed events still count as processed, so flush terminates).
    b.flush().unwrap();
    b.force_load_state(None);

    let stats = b.stats();
    assert_eq!(stats.processed, 44, "shed events still count as processed");
    assert_eq!(stats.shed_deadline, 4);
    assert_eq!(stats.shed_total(), 4);
    assert_eq!(stats.match_tests, 40, "shed events never reach the matcher");
    assert_eq!(
        b.explain_last(1024).len() as u64,
        stats.match_tests,
        "shed events leave no explanation"
    );
    b.shutdown();

    // A population where one test serves several subscribers: duplicate
    // subscriptions share an entry, a themed twin of that entry is served
    // by its twin's hit, and a superset of a missing subset is pruned
    // (the exact matcher is covering-safe). The ring still records one
    // explanation per candidate subscriber × event pair, while the
    // matcher runs fewer tests than there are pairs. A two-slot channel
    // that is never drained makes some deliveries fail.
    let mut config = BrokerConfig::default()
        .with_workers(1)
        .with_explain_capacity(1024);
    config.notification_capacity = 2;
    let b = exact_broker(config);
    let subscriptions = [
        "{k= v}",
        "{k= v}",
        "{k= v, j= w}",
        "({power}, {k= v})",
        "{m= z}",
        "{m= z, k= v}",
    ];
    let _receivers: Vec<_> = subscriptions
        .iter()
        .map(|s| b.subscribe(parse_subscription(s).unwrap()).unwrap().1)
        .collect();
    let events = 10u64;
    for i in 0..events {
        let extra = if i % 2 == 0 { ", j: w" } else { "" };
        b.publish(parse_event(&format!("{{k: v{extra}, i: n{i}}}")).unwrap())
            .unwrap();
    }
    b.flush().unwrap();

    let stats = b.stats();
    let pairs = subscriptions.len() as u64 * events;
    assert!(stats.covered_skips > 0, "covering served some pairs");
    assert!(stats.match_tests < pairs, "one test served several pairs");
    let explanations = b.explain_last(1024);
    assert_eq!(
        explanations.len() as u64,
        pairs,
        "one explanation per candidate pair, tested or not"
    );
    let outcome = |o: MatchOutcome| explanations.iter().filter(|e| e.outcome == o).count() as u64;
    assert_eq!(outcome(MatchOutcome::Delivered), stats.notifications);
    assert!(
        stats.delivery_failures() > 0,
        "the full channels dropped some"
    );
    assert_eq!(
        outcome(MatchOutcome::DeliveryDropped),
        stats.delivery_failures()
    );
    b.shutdown();
}

/// The split drop accounting reconciles with explanation outcomes: every
/// above-threshold match is either `Delivered` (== `notifications`) or
/// `DeliveryDropped` (== full-channel drops + open-breaker drops +
/// disconnect drops, i.e. `delivery_failures()`), and the breaker-open
/// share is counted separately from the policy drops.
#[test]
fn drop_accounting_reconciles_with_delivery_outcomes() {
    let overload = OverloadConfig {
        breaker: BreakerConfig {
            failure_threshold: 3,
            open_backoff_ms: 60_000,
            max_backoff_ms: 60_000,
            half_open_probes: 1,
            reap_after_cycles: 1_000,
            jitter_seed: 7,
        },
        ..OverloadConfig::default()
    };
    let mut config = BrokerConfig::default()
        .with_workers(1)
        .with_explain_capacity(1024)
        .with_overload_control(overload);
    config.notification_capacity = 2;
    let b = exact_broker(config);
    let (_, rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
    for i in 0..10 {
        b.publish(parse_event(&format!("{{k: v, i: n{i}}}")).unwrap())
            .unwrap();
    }
    b.flush().unwrap();

    let stats = b.stats();
    assert_eq!(stats.notifications, 2, "the channel holds two");
    assert_eq!(stats.dropped_full, 3, "three failures close the breaker");
    assert_eq!(stats.breaker_trips, 1);
    assert_eq!(stats.breaker_open, 5, "the rest die at the open breaker");
    assert_eq!(stats.dropped_disconnected, 0);
    assert_eq!(stats.delivery_failures(), 8);

    let explanations = b.explain_last(1024);
    let outcome = |o: MatchOutcome| explanations.iter().filter(|e| e.outcome == o).count() as u64;
    assert_eq!(outcome(MatchOutcome::Delivered), stats.notifications);
    assert_eq!(
        outcome(MatchOutcome::DeliveryDropped),
        stats.delivery_failures(),
        "every non-delivery is one of the split drop counters"
    );
    assert_eq!(rx.try_iter().count(), 2);
    b.shutdown();
}

/// The scrape server answers `/metrics`, `/healthz`, and `/explain` with
/// live broker state over plain HTTP.
#[test]
fn scrape_endpoints_serve_metrics_health_and_explanations() {
    use std::io::{Read, Write};
    let b = Arc::new(exact_broker(
        BrokerConfig::default()
            .with_workers(1)
            .with_explain_capacity(32)
            .with_flight_recorder(RecorderSettings::default()),
    ));
    let (_, _rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
    for i in 0..4 {
        b.publish(parse_event(&format!("{{k: v, i: n{i}}}")).unwrap())
            .unwrap();
    }
    b.flush().unwrap();

    let (mb, hb, eb) = (Arc::clone(&b), Arc::clone(&b), Arc::clone(&b));
    let (rb, bb, tb) = (Arc::clone(&b), Arc::clone(&b), Arc::clone(&b));
    let server = serve(
        "127.0.0.1:0",
        ScrapeHandlers::new(
            move || mb.metrics().render_prometheus(),
            move || {
                format!(
                    "{{\"status\":\"ok\",\"quarantined\":{}}}\n",
                    hb.stats().quarantined
                )
            },
            move || render_explanations_json(&eb.explain_last(32)),
        )
        .with_readyz(move || rb.readiness())
        .with_bundle(move || bb.latest_bundle_json().map(|bundle| (*bundle).clone()))
        .with_trigger(move || match tb.trigger_diagnostic("scrape test trigger") {
            Some(seq) => format!("{{\"triggered\":true,\"bundle_seq\":{seq}}}\n"),
            None => String::from("{\"triggered\":false}\n"),
        }),
    )
    .expect("bind on an ephemeral port");
    let addr = server.local_addr();
    let get = |path: &str| {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        s.flush().unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };

    let metrics = get("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    assert!(metrics.contains("text/plain"));
    assert!(metrics.contains("tep_published_total 4"));
    let health = get("/healthz");
    assert!(health.contains("\"status\":\"ok\""));
    assert!(health.contains("\"quarantined\":0"));
    let explain = get("/explain");
    assert!(explain.contains("application/json"));
    assert!(explain.contains("\"outcome\": \"delivered\""));
    let ready = get("/readyz");
    assert!(ready.starts_with("HTTP/1.1 200 OK"), "{ready}");
    assert!(ready.contains("\"ready\": true"), "{ready}");
    // No trigger has fired yet, so there is no bundle to serve …
    assert!(get("/debug/bundle").starts_with("HTTP/1.1 404"));
    // … until a manual POST freezes one.
    let post = |path: &str| {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        write!(
            s,
            "POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        s.flush().unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };
    let triggered = post("/debug/trigger");
    assert!(triggered.starts_with("HTTP/1.1 200 OK"), "{triggered}");
    assert!(triggered.contains("\"triggered\":true"), "{triggered}");
    let bundle = get("/debug/bundle");
    assert!(bundle.starts_with("HTTP/1.1 200 OK"), "{bundle}");
    assert!(bundle.contains("\"kind\": \"manual\""), "{bundle}");
    assert!(get("/nope").starts_with("HTTP/1.1 404"));
    server.shutdown();
    // The handlers hold broker clones, so tear down via `close` (any
    // thread) rather than the by-value `shutdown`.
    b.close();
}

/// Windowed series are ticked by the supervisor alone, so they stay
/// current with no scrape at all: after traffic stops and an idle gap,
/// a short window shows no traffic while a long one still covers it.
#[test]
fn windowed_rates_go_quiet_after_an_idle_gap_without_any_scrape() {
    let b = exact_broker(
        BrokerConfig::default()
            .with_workers(1)
            .with_flight_recorder(RecorderSettings {
                tick_ms: 5,
                ..RecorderSettings::default()
            }),
    );
    let (_, rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
    for i in 0..5 {
        b.publish(parse_event(&format!("{{k: v, i: n{i}}}")).unwrap())
            .unwrap();
    }
    b.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let quiet = b
        .window(Duration::from_millis(50))
        .expect("supervisor frames");
    assert!(quiet.span() >= Duration::from_millis(50), "{quiet:?}");
    assert_eq!(quiet.counter_delta("published"), Some(0), "{quiet:?}");
    let busy = b.window(Duration::from_secs(10)).expect("start-up frame");
    assert_eq!(busy.counter_delta("published"), Some(5), "{busy:?}");
    assert_eq!(rx.try_iter().count(), 5);
    b.shutdown();
}

/// Satellite check: every installed scrape endpoint survives a storm of
/// concurrent scrapers racing live publish traffic — no handler panics,
/// no torn responses (each body matches its Content-Length), and every
/// JSON endpoint keeps returning parseable documents throughout.
#[test]
fn concurrent_scrapes_of_all_endpoints_under_publish_load() {
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Ground truth for the quality sampler: relevant iff `k` is `v`.
    struct KvOracle;
    impl tep::broker::QualityOracle for KvOracle {
        fn judge(&self, _s: &Subscription, e: &Event) -> Option<bool> {
            Some(e.value_of("k") == Some("v"))
        }
    }

    let b = Arc::new(
        exact_broker(
            BrokerConfig::default()
                .with_workers(2)
                .with_explain_capacity(32)
                .with_labeled_metrics(true)
                .with_overload_control(OverloadConfig::default())
                .with_flight_recorder(RecorderSettings::default())
                .with_cost_attribution(1),
        )
        .with_quality_sampling(4, Box::new(KvOracle)),
    );
    let (_, rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();

    let handlers = {
        let (mb, hb, eb) = (Arc::clone(&b), Arc::clone(&b), Arc::clone(&b));
        let (qb, tb, ob) = (Arc::clone(&b), Arc::clone(&b), Arc::clone(&b));
        let (cb, rb, db) = (Arc::clone(&b), Arc::clone(&b), Arc::clone(&b));
        ScrapeHandlers::new(
            move || mb.metrics().render_prometheus(),
            move || {
                format!(
                    "{{\"status\":\"ok\",\"processed\":{}}}\n",
                    hb.stats().processed
                )
            },
            move || render_explanations_json(&eb.explain_last(32)),
        )
        .with_quality(move || match qb.quality() {
            Some(report) => render_quality_json(&report),
            None => String::from("{\"status\":\"no quality sampling installed\"}\n"),
        })
        .with_top(move || tb.top_json(10))
        .with_overload(move || ob.overload_json())
        .with_costs(move || cb.costs_json())
        .with_readyz(move || rb.readiness())
        .with_bundle(move || db.latest_bundle_json().map(|bundle| (*bundle).clone()))
    };
    let server = serve("127.0.0.1:0", handlers).expect("bind on an ephemeral port");
    let addr = server.local_addr();

    // Publish load for the whole scrape storm: a background writer keeps
    // the cost tables, stage histograms, and windowed rates moving while
    // the scrapers read them. It drains the subscriber as it goes: the
    // storm lasts as long as the scrapes take, and an undrained channel
    // would cross the overload controller's fill threshold after ~9k
    // events and turn `/readyz` into a (correct) 503.
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let (b, stop) = (Arc::clone(&b), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut i = 0u64;
            let mut delivered = 0;
            while !stop.load(Ordering::Relaxed) {
                let k = if i.is_multiple_of(3) { "v" } else { "w" };
                b.publish(parse_event(&format!("{{k: {k}, i: n{i}}}")).unwrap())
                    .unwrap();
                i += 1;
                if i.is_multiple_of(64) {
                    let _ = b.flush();
                    delivered += rx.try_iter().count();
                }
            }
            let _ = b.flush();
            delivered + rx.try_iter().count()
        })
    };

    const ENDPOINTS: [&str; 7] = [
        "/metrics",
        "/costs",
        "/quality",
        "/top",
        "/overload",
        "/readyz",
        "/debug/bundle",
    ];
    let scrapers: Vec<_> = (0..4)
        .map(|worker| {
            std::thread::spawn(move || {
                for round in 0..8 {
                    for path in ENDPOINTS {
                        let mut s = std::net::TcpStream::connect(addr).unwrap();
                        write!(
                            s,
                            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
                        )
                        .unwrap();
                        s.flush().unwrap();
                        let mut response = String::new();
                        s.read_to_string(&mut response).unwrap();
                        let tag = format!("worker {worker} round {round} {path}");
                        // /debug/bundle is 404 until a trigger fires; every
                        // other endpoint must answer 200 under load.
                        if path == "/debug/bundle" {
                            assert!(
                                response.starts_with("HTTP/1.1 200 OK")
                                    || response.starts_with("HTTP/1.1 404"),
                                "{tag}: {response}"
                            );
                        } else {
                            assert!(response.starts_with("HTTP/1.1 200 OK"), "{tag}: {response}");
                        }
                        // An untorn response carries exactly Content-Length
                        // body bytes after the blank line.
                        let length: usize = response
                            .lines()
                            .find_map(|l| l.strip_prefix("Content-Length: "))
                            .unwrap_or_else(|| panic!("{tag}: no Content-Length"))
                            .trim()
                            .parse()
                            .unwrap();
                        let body = response
                            .split_once("\r\n\r\n")
                            .unwrap_or_else(|| panic!("{tag}: no header/body split"))
                            .1;
                        assert_eq!(body.len(), length, "{tag}: torn body");
                        if path != "/metrics" {
                            serde_json::from_str::<JsonValue>(body)
                                .unwrap_or_else(|e| panic!("{tag}: torn JSON {e:?} in {body}"));
                        }
                    }
                }
            })
        })
        .collect();
    for s in scrapers {
        s.join().expect("a scraper thread panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let delivered = publisher.join().expect("the publisher thread panicked");

    // The storm really ran against live state: traffic flowed and the
    // cost table attributed it.
    assert!(delivered > 0, "publish load delivered");
    let costs = b.costs();
    assert!(costs.enabled && costs.samples > 0, "cost attribution ran");
    server.shutdown();
    b.close();
}

/// One escaping rule on every JSON surface: a hostile theme tag (quote,
/// backslash, newline, a control character, non-ASCII) reaches
/// `/explain`, `/top`, `/costs` and the metrics JSON, and a hostile
/// manual-trigger detail reaches `/debug/bundle`. Every body parses and
/// each string comes back unchanged.
#[test]
fn hostile_strings_round_trip_through_every_json_surface() {
    const TAG: &str = "tag \"q\" \\ back\nslash \u{1} \u{fc}ber";
    const DETAIL: &str = "detail \"q\" \\ back\nslash \u{1} \u{1f980}";
    let b = exact_broker(
        BrokerConfig::default()
            .with_workers(1)
            .with_labeled_metrics(true)
            .with_cost_attribution(1)
            .with_explain_capacity(32)
            .with_flight_recorder(RecorderSettings::default()),
    );
    let (_, rx) = b.subscribe(parse_subscription("{k= v}").unwrap()).unwrap();
    // Events decoded from JSON keep their tags verbatim; the builder
    // would fold the newline into a space.
    let template = Event::builder()
        .theme_tag("placeholder")
        .tuple("k", "v")
        .build()
        .unwrap();
    let raw = serde_json::to_string(&template)
        .unwrap()
        .replace("\"placeholder\"", &serde_json::to_string(TAG).unwrap());
    let event: Event = serde_json::from_str(&raw).unwrap();
    assert_eq!(event.theme_tags(), [TAG]);
    for _ in 0..4 {
        b.publish(event.clone()).unwrap();
    }
    b.flush().unwrap();
    b.trigger_diagnostic(DETAIL).expect("manual bundle");
    let parse = |surface: &str, body: &str| -> JsonValue {
        serde_json::from_str(body).unwrap_or_else(|e| panic!("{surface}: {e}\n{body}"))
    };
    let str_field =
        |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).map(String::from);
    let seq = |v: &JsonValue| v.as_seq().map(<[JsonValue]>::to_vec).unwrap_or_default();

    let explain = parse("/explain", &render_explanations_json(&b.explain_last(32)));
    assert!(!seq(&explain).is_empty());
    for e in seq(&explain) {
        let themes = e.get("event_themes").map(seq).unwrap_or_default();
        assert_eq!(themes, [JsonValue::Str(TAG.to_string())], "/explain");
    }

    let top = parse("/top", &b.top_json(10));
    let names: Vec<_> = top.get("themes").map(seq).unwrap_or_default();
    assert!(
        names
            .iter()
            .any(|t| str_field(t, "name").as_deref() == Some(TAG)),
        "/top: {top:?}"
    );

    let costs = parse("/costs", &b.costs_json());
    let rows = costs.get("themes").map(seq).unwrap_or_default();
    assert!(
        rows.iter()
            .any(|t| str_field(t, "label").as_deref() == Some(TAG)),
        "/costs: {costs:?}"
    );

    // The metrics JSON keys series by their Prometheus spelling, whose
    // label value carries the exposition format's own escapes.
    let metrics = parse("/metrics.json", &b.metrics().render_json());
    let prom_value = TAG
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    let key = format!("tep_theme_match_tests_total{{theme=\"{prom_value}\"}}");
    let count = metrics.get("counters").and_then(|c| c.get(&key));
    assert_eq!(count.and_then(JsonValue::as_u64), Some(4), "/metrics.json");

    let bundle = b.latest_bundle_json().expect("bundle");
    let bundle = parse("/debug/bundle", &bundle);
    let cause = bundle.get("cause").expect("cause");
    assert_eq!(str_field(cause, "detail").as_deref(), Some(DETAIL));
    drop(rx);
    b.shutdown();
}

/// `(family, TYPE, label keys, HELP)` rows of a Prometheus exposition,
/// one per distinct label-key set of a family, sorted. `le` and
/// `quantile` belong to the histogram and summary encodings, not to the
/// family's labels.
fn exported_schema(text: &str) -> Vec<String> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut help = BTreeMap::new();
    let mut kind = BTreeMap::new();
    let mut label_sets = BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, text) = rest.split_once(' ').expect("HELP line");
            help.insert(name, text);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind_name) = rest.split_once(' ').expect("TYPE line");
            kind.insert(name, kind_name);
        } else {
            let (name, labels) = match line.split_once('{') {
                Some((name, rest)) => (name, rest.split_once('}').expect("closed labels").0),
                None => (line.split_once(' ').expect("sample line").0, ""),
            };
            let family = if kind.contains_key(name) {
                name
            } else {
                ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|suffix| name.strip_suffix(suffix))
                    .filter(|family| kind.contains_key(family))
                    .unwrap_or_else(|| panic!("sample {line:?} has no TYPE"))
            };
            let keys: Vec<&str> = labels
                .split(',')
                .filter_map(|pair| pair.split_once('=').map(|(key, _)| key))
                .filter(|key| *key != "le" && *key != "quantile")
                .collect();
            label_sets.insert((family, keys.join(",")));
        }
    }
    let mut rows: Vec<String> = label_sets
        .into_iter()
        .map(|(family, keys)| format!("{family} {} {{{keys}}} {}", kind[family], help[family]))
        .collect();
    rows.sort_unstable();
    rows
}

/// Asserts that each family's samples form one block right under its
/// one `# TYPE` line.
fn assert_contiguous_families(text: &str) {
    let mut seen = std::collections::BTreeSet::new();
    let mut current = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_once(' ').expect("TYPE line").0;
            assert!(seen.insert(name), "{name} has two TYPE lines:\n{text}");
            current = Some(name);
        } else if !line.starts_with('#') {
            let name = line.split(['{', ' ']).next().expect("sample name");
            let inside = current.is_some_and(|family| {
                ["", "_bucket", "_sum", "_count"]
                    .iter()
                    .any(|suffix| name.strip_suffix(suffix) == Some(family))
            });
            assert!(inside, "{line:?} is outside its family's block:\n{text}");
        }
    }
}

/// The exported schema is pinned: the families, types, HELP texts and
/// label keys of `/metrics`, and the flight-recorder frame counters the
/// windowed series read, for a broker with every optional section on and
/// for one with every section off.
#[test]
fn exported_metric_schema_is_pinned() {
    struct KvOracle;
    impl tep::broker::QualityOracle for KvOracle {
        fn judge(&self, _s: &Subscription, e: &Event) -> Option<bool> {
            Some(e.value_of("k") == Some("v"))
        }
    }
    let publish_some = |b: &Broker| {
        for value in ["v", "v", "w"] {
            let event = Event::builder()
                .theme_tag("city")
                .tuple("k", value)
                .build()
                .unwrap();
            b.publish(event).unwrap();
        }
        b.flush().unwrap();
    };

    let base = exact_broker(BrokerConfig::default().with_workers(1));
    let (_, base_rx) = base
        .subscribe(parse_subscription("{k= v}").unwrap())
        .unwrap();
    publish_some(&base);
    let base_text = base.metrics().render_prometheus();
    assert_contiguous_families(&base_text);
    let base_schema = exported_schema(&base_text);
    assert_eq!(base_schema, BASE_SCHEMA, "{base_schema:#?}");
    drop(base_rx);
    base.shutdown();

    let full = exact_broker(
        BrokerConfig::default()
            .with_workers(2)
            .with_explain_capacity(32)
            .with_labeled_metrics(true)
            .with_overload_control(OverloadConfig::default())
            .with_flight_recorder(RecorderSettings::default())
            .with_cost_attribution(1),
    )
    .with_quality_sampling(4, Box::new(KvOracle));
    let (_, full_rx) = full
        .subscribe(parse_subscription("{k= v}").unwrap())
        .unwrap();
    publish_some(&full);
    full.record_diagnostic_frame();
    full.record_diagnostic_frame();
    let full_text = full.metrics().render_prometheus();
    assert_contiguous_families(&full_text);
    let full_schema = exported_schema(&full_text);
    let mut expected: Vec<&str> = BASE_SCHEMA.iter().chain(SECTION_SCHEMA).copied().collect();
    expected.sort_unstable();
    assert_eq!(full_schema, expected, "{full_schema:#?}");

    let window = full.window(Duration::from_secs(10)).expect("two frames");
    let counters: Vec<&str> = window.counters().map(|(name, _)| name).collect();
    assert_eq!(counters, FRAME_COUNTERS, "{counters:?}");
    drop(full_rx);
    full.shutdown();
}

/// Families every broker exports.
const BASE_SCHEMA: &[&str] = &[
    "tep_build_info gauge {version,git} Build metadata as an info gauge; constant 1",
    "tep_covered_skips_total counter {} Candidate index entries skipped by covering (subset miss or twin hit)",
    "tep_dead_letters gauge {} Events currently quarantined",
    "tep_disconnected_subscribers_total counter {} Subscriber registrations reaped",
    "tep_distinct_subscriptions gauge {} Distinct canonical predicate multisets currently subscribed",
    "tep_dropped_disconnected_total counter {} Notifications dropped on a hung-up subscriber",
    "tep_dropped_full_total counter {} Notifications dropped on a full subscriber channel",
    "tep_dropped_total counter {reason} Notifications dropped, by reason",
    "tep_index_entries gauge {} Live hash-consed subscription index entries",
    "tep_live_workers gauge {} Worker threads currently alive",
    "tep_match_tests_total counter {} Subscription x event match tests executed",
    "tep_notifications_total counter {} Notifications delivered to subscriber channels",
    "tep_processed_total counter {} Events whose matching pass finished",
    "tep_publish_queue_depth gauge {} Events waiting on the ingress queue",
    "tep_published_total counter {} Events accepted by publish",
    "tep_quarantined_total counter {} Events moved to the dead-letter queue",
    "tep_rejected_publishes_total counter {} Publishes refused by the ingress overload policy",
    "tep_routing_decisions_total counter {policy} Events whose candidate set was selected, by routing policy",
    "tep_routing_skipped_total counter {} Match tests skipped by theme routing",
    "tep_semantic_cache_entries gauge {} Resident semantic cache entries",
    "tep_semantic_cache_evictions_total counter {} Semantic cache entries dropped by rotation",
    "tep_semantic_cache_hits_total counter {} Semantic cache hits across the matcher's caches",
    "tep_semantic_cache_misses_total counter {} Semantic cache misses across the matcher's caches",
    "tep_stage_deliver_seconds histogram {} Match decision to subscriber-channel hand-off",
    "tep_stage_deliver_summary_seconds summary {} Match decision to subscriber-channel hand-off (quantile summary)",
    "tep_stage_match_cached_seconds histogram {} Match-test latency, measured tests served from warm caches",
    "tep_stage_match_cached_summary_seconds summary {} Match-test latency, measured tests served from warm caches (quantile summary)",
    "tep_stage_match_exact_seconds histogram {} Match-test latency, tests that consulted no semantic measure",
    "tep_stage_match_exact_summary_seconds summary {} Match-test latency, tests that consulted no semantic measure (quantile summary)",
    "tep_stage_match_thematic_seconds histogram {} Match-test latency, measured tests with at least one semantic-cache miss",
    "tep_stage_match_thematic_summary_seconds summary {} Match-test latency, measured tests with at least one semantic-cache miss (quantile summary)",
    "tep_stage_queue_wait_seconds histogram {} Publish to dequeue queue wait",
    "tep_stage_queue_wait_summary_seconds summary {} Publish to dequeue queue wait (quantile summary)",
    "tep_subscriber_queue_depth_max gauge {} Deepest subscriber channel backlog",
    "tep_subscriber_queue_depth_sum gauge {} Notifications waiting across all subscriber channels",
    "tep_uptime_seconds gauge {} Seconds since the broker started",
    "tep_worker_panics_total counter {} Matcher panics caught or fatal to a worker",
    "tep_workers_respawned_total counter {} Workers respawned by the supervisor",
];

/// Families added by labeled metrics, overload control, the flight
/// recorder, cost attribution and quality sampling.
const SECTION_SCHEMA: &[&str] = &[
    "tep_breaker_trips_total counter {} Subscriber circuit-breaker trips (transitions to Open)",
    "tep_breakers_open gauge {} Subscribers whose circuit breaker is currently open",
    "tep_cost_ns_total counter {entity,kind} Sampled cost nanoseconds charged, by entity class and stage kind",
    "tep_cost_sample_every gauge {} Cost-attribution 1-in-k sampling rate",
    "tep_cost_samples_total counter {} Dispatches charged by the cost sampler",
    "tep_load_ewma_queue_wait_ms gauge {} EWMA ingress queue wait driving the load-state machine",
    "tep_load_state gauge {} Broker load state (0=healthy 1=elevated 2=overloaded 3=critical)",
    "tep_load_transitions_total counter {} Load-state machine transitions",
    "tep_match_temperature_total counter {temperature} Match tests by cache temperature",
    "tep_match_tests_rate gauge {window} Windowed per-second rate of the matching counter",
    "tep_notifications_rate gauge {window} Windowed per-second rate of the matching counter",
    "tep_processed_rate gauge {window} Windowed per-second rate of the matching counter",
    "tep_published_rate gauge {window} Windowed per-second rate of the matching counter",
    "tep_quality_drift_alerts gauge {} Rolling drift alerts currently raised",
    "tep_quality_f1 gauge {} Live sampled F1 against the ground-truth oracle",
    "tep_quality_precision gauge {} Live sampled precision against the ground-truth oracle",
    "tep_quality_recall gauge {} Live sampled recall against the ground-truth oracle",
    "tep_quality_samples_total counter {} Match tests judged by the quality oracle",
    "tep_quality_unknown_total counter {} Sampled pairs the oracle could not judge",
    "tep_routing_skipped_rate gauge {window} Windowed per-second rate of the matching counter",
    "tep_shed_total counter {reason} Events shed at dequeue by overload control, by reason",
    "tep_stage_deliver_seconds histogram {window} Match decision to subscriber-channel hand-off",
    "tep_stage_match_cached_seconds histogram {window} Match-test latency, measured tests served from warm caches",
    "tep_stage_match_exact_seconds histogram {window} Match-test latency, tests that consulted no semantic measure",
    "tep_stage_match_thematic_seconds histogram {window} Match-test latency, measured tests with at least one semantic-cache miss",
    "tep_stage_queue_wait_seconds histogram {window} Publish to dequeue queue wait",
    "tep_subscriber_notifications_total counter {subscriber} Notifications admitted per subscriber channel",
    "tep_subscriber_queue_depth gauge {subscriber} Notifications waiting per subscriber channel",
    "tep_theme_match_tests_total counter {theme} Match tests attributed to each event theme tag",
    "tep_topk_terms_tracked gauge {} Term slots occupied in the top-k sketch",
    "tep_topk_themes_tracked gauge {} Theme slots occupied in the top-k sketch",
];

/// Flight-recorder frame counters, in frame order.
const FRAME_COUNTERS: &[&str] = &[
    "published",
    "processed",
    "match_tests",
    "notifications",
    "routing_skipped",
    "quarantined",
    "rejected_publishes",
    "dropped_full",
    "dropped_disconnected",
    "worker_panics",
    "shed_deadline",
    "shed_load",
    "breaker_open_drops",
    "breaker_trips",
];

//! Property test for theme-indexed routing: under
//! `RoutingPolicy::ThemeOverlap`, dispatch through the broker's routing
//! table must deliver exactly the notification set of brute-force
//! dispatch applying the same theme-overlap gate — routing may skip work,
//! never a match. Theme-less subscriptions opt out of routing and must
//! stay broadcast.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use tep::prelude::*;

const TAG_POOL: [&str; 4] = ["power", "transport", "water", "networking"];

/// The attribute/value pools for the aggregation property: deliberately
/// tiny so random populations are full of duplicate predicate sets,
/// permuted orders, and exact-subset (covering) pairs. Attributes are
/// unique per subscription/event (the builders enforce it); a value
/// mismatch on a shared attribute is a miss.
const ATTR_POOL: [&str; 3] = ["a", "b", "c"];
const VALUE_POOL: [&str; 2] = ["x", "y"];

/// A random subset of the tag pool (possibly empty = theme-less side).
fn tag_set() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::btree_set(0usize..TAG_POOL.len(), 0..=3)
        .prop_map(|s| s.into_iter().map(|i| TAG_POOL[i].to_string()).collect())
}

/// A random non-empty attribute→value assignment over the pools, in
/// either ascending or descending attribute order so duplicate sets also
/// exercise the per-member predicate-order permutations.
fn pair_set(min: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    (
        proptest::collection::btree_set(0usize..ATTR_POOL.len(), min..=3),
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(attrs, value_bits, rev)| {
            let mut v: Vec<(usize, usize)> = attrs
                .into_iter()
                .map(|a| (a, usize::from(value_bits >> a & 1) % VALUE_POOL.len()))
                .collect();
            if rev {
                v.reverse();
            }
            v
        })
}

/// A subscription over the pools: `preds` are (attribute, value) indices.
fn subscription_of(tags: &[String], preds: &[(usize, usize)]) -> Subscription {
    let mut b = Subscription::builder().theme_tags(tags.iter().map(String::as_str));
    for &(a, v) in preds {
        b = b.predicate_exact(ATTR_POOL[a], VALUE_POOL[v]);
    }
    b.build().unwrap()
}

/// Event `i` over the pools, carrying its index in a `seq` tuple.
fn event_of(i: usize, tags: &[String], tuples: &[(usize, usize)]) -> Event {
    let mut b = Event::builder()
        .theme_tags(tags.iter().map(String::as_str))
        .tuple("seq", &format!("n{i}"));
    for &(a, v) in tuples {
        b = b.tuple(ATTR_POOL[a], VALUE_POOL[v]);
    }
    b.build().unwrap()
}

/// Quality ground truth that judges every pair, so the sampler's
/// judged count is the number of pairs it saw.
struct EveryPairJudged;

impl QualityOracle for EveryPairJudged {
    fn judge(&self, _subscription: &Subscription, _event: &Event) -> Option<bool> {
        Some(true)
    }
}

/// One generated subscription or event: theme tags plus (attribute,
/// value) pool indices.
type Spec = (Vec<String>, Vec<(usize, usize)>);

/// A delivered result's correspondences, as (predicate, tuple) per
/// mapping.
type Correspondences = Vec<Vec<(usize, usize)>>;

/// What one broker run over a population tested and delivered.
struct DispatchRun {
    /// (subscription position, event index, correspondences) for every
    /// notification.
    delivered: BTreeSet<(usize, usize, Correspondences)>,
    match_tests: u64,
    covered_skips: u64,
    routing_skipped: u64,
    explanations: usize,
    judged: u64,
}

/// Dispatches every event to every subscription of a population, with
/// every observer off or every observer on: the explain ring, quality
/// sampling at k=1, span sampling at 1, cost attribution at 1, and the
/// first subscriber opted into per-notification explanations.
fn dispatch(
    sub_specs: &[Spec],
    event_specs: &[Spec],
    policy: RoutingPolicy,
    observed: bool,
) -> DispatchRun {
    let mut config = BrokerConfig::default()
        .with_workers(1)
        .with_routing_policy(policy);
    if observed {
        config = config
            .with_explain_capacity(1024)
            .with_span_sampling(1)
            .with_span_capacity(4096)
            .with_cost_attribution(1);
    }
    let mut broker = Broker::start(Arc::new(ExactMatcher::new()), config);
    if observed {
        broker = broker.with_quality_sampling(1, Box::new(EveryPairJudged));
    }
    let mut receivers = Vec::new();
    for (pos, (tags, preds)) in sub_specs.iter().enumerate() {
        let options = if observed && pos == 0 {
            SubscribeOptions::explained()
        } else {
            SubscribeOptions::default()
        };
        let (_, rx) = broker
            .subscribe_with(subscription_of(tags, preds), options)
            .unwrap();
        receivers.push(rx);
    }
    for (i, (tags, tuples)) in event_specs.iter().enumerate() {
        broker.publish(event_of(i, tags, tuples)).unwrap();
    }
    broker.flush().unwrap();

    let mut delivered = BTreeSet::new();
    for (pos, rx) in receivers.iter().enumerate() {
        while let Ok(n) = rx.try_recv() {
            let seq = n.event.value_of("seq").expect("seq tuple");
            let i: usize = seq[1..].parse().expect("seq number");
            let correspondences = n
                .result
                .mappings()
                .iter()
                .map(|m| {
                    m.correspondences()
                        .iter()
                        .map(|c| (c.predicate, c.tuple))
                        .collect()
                })
                .collect();
            delivered.insert((pos, i, correspondences));
        }
    }
    let stats = broker.stats();
    let run = DispatchRun {
        delivered,
        match_tests: stats.match_tests,
        covered_skips: stats.covered_skips,
        routing_skipped: stats.routing_skipped,
        explanations: broker.explain_last(1024).len(),
        judged: broker.quality().map_or(0, |q| q.judged()),
    };
    broker.shutdown();
    run
}

proptest! {
    #[test]
    fn theme_routing_equals_brute_force_dispatch(
        sub_tags in proptest::collection::vec(tag_set(), 1..6),
        event_tags in proptest::collection::vec(tag_set(), 1..8),
    ) {
        // Every subscription's predicate matches every event, so which
        // notifications arrive is decided purely by the routing gate.
        let broker = Broker::start(
            Arc::new(ExactMatcher::new()),
            BrokerConfig::default()
                .with_workers(1)
                .with_routing_policy(RoutingPolicy::ThemeOverlap),
        );
        let mut subs = Vec::new();
        for tags in &sub_tags {
            let s = Subscription::builder()
                .theme_tags(tags.iter().map(String::as_str))
                .predicate_exact("k", "v")
                .build()
                .unwrap();
            let (id, rx) = broker.subscribe(s.clone()).unwrap();
            subs.push((id, s, rx));
        }
        let mut events = Vec::new();
        for (i, tags) in event_tags.iter().enumerate() {
            let e = Event::builder()
                .theme_tags(tags.iter().map(String::as_str))
                .tuple("k", "v")
                .tuple("seq", &format!("n{i}"))
                .build()
                .unwrap();
            broker.publish(e.clone()).unwrap();
            events.push(e);
        }
        broker.flush().unwrap();

        // Brute force over all pairs: theme-less subscriptions receive
        // everything (broadcast opt-out); themed ones need a shared tag.
        let mut expected = BTreeSet::new();
        for (id, s, _) in &subs {
            for (i, e) in events.iter().enumerate() {
                if s.theme_tags().is_empty() || s.shares_theme_with(e) {
                    expected.insert((id.0, i));
                }
            }
        }

        let mut delivered = BTreeSet::new();
        for (id, _, rx) in &subs {
            while let Ok(n) = rx.try_recv() {
                let seq = n.event.value_of("seq").expect("seq tuple");
                let i: usize = seq[1..].parse().expect("seq number");
                delivered.insert((id.0, i));
            }
        }
        prop_assert_eq!(
            &delivered,
            &expected,
            "routed dispatch must deliver exactly the brute-force gate's set"
        );
        broker.shutdown();
    }

    /// The subscription index aggregates duplicate subscriptions onto
    /// shared entries and prunes/short-circuits through covering edges;
    /// none of that may change *what* is delivered. This drives a
    /// randomized population over a deliberately tiny predicate pool —
    /// so duplicate subscriptions, permuted predicate orders, and
    /// exact-subset (covering) pairs all occur constantly — and checks
    /// index dispatch against brute force over all pairs under both
    /// routing policies.
    #[test]
    fn index_dispatch_equals_brute_force_over_duplicates_and_subsets(
        sub_specs in proptest::collection::vec((tag_set(), pair_set(1)), 1..12),
        event_specs in proptest::collection::vec((tag_set(), pair_set(0)), 1..8),
    ) {
        for policy in [RoutingPolicy::Broadcast, RoutingPolicy::ThemeOverlap] {
            let broker = Broker::start(
                Arc::new(ExactMatcher::new()),
                BrokerConfig::default()
                    .with_workers(1)
                    .with_routing_policy(policy),
            );
            let mut subs = Vec::new();
            for (tags, preds) in &sub_specs {
                let s = subscription_of(tags, preds);
                let (id, rx) = broker.subscribe(s.clone()).unwrap();
                subs.push((id, s, rx));
            }
            let mut events = Vec::new();
            for (i, (tags, tuples)) in event_specs.iter().enumerate() {
                let e = event_of(i, tags, tuples);
                broker.publish(e.clone()).unwrap();
                events.push(e);
            }
            broker.flush().unwrap();

            // Brute force over all pairs: the routing gate (policy-
            // dependent), then exact conjunctive matching — every
            // predicate pair present among the event tuples.
            let mut expected = BTreeSet::new();
            for (id, s, _) in &subs {
                for (i, e) in events.iter().enumerate() {
                    let routed = match policy {
                        RoutingPolicy::Broadcast => true,
                        RoutingPolicy::ThemeOverlap => {
                            s.theme_tags().is_empty() || s.shares_theme_with(e)
                        }
                    };
                    let matched = s.predicates().iter().all(|p| {
                        e.tuples()
                            .iter()
                            .any(|t| t.attribute() == p.attribute() && t.value() == p.value())
                    });
                    if routed && matched {
                        expected.insert((id.0, i));
                    }
                }
            }

            let mut delivered = BTreeSet::new();
            for (id, _, rx) in &subs {
                while let Ok(n) = rx.try_recv() {
                    let seq = n.event.value_of("seq").expect("seq tuple");
                    let i: usize = seq[1..].parse().expect("seq number");
                    // Every delivered result indexes predicates in *this*
                    // subscriber's declaration order: with exact matching
                    // each correspondence's predicate pair must be among
                    // the event tuples, whatever entry representative
                    // actually ran the test.
                    let sub = &subs.iter().find(|(i2, _, _)| i2 == id).unwrap().1;
                    for m in n.result.mappings() {
                        for c in m.correspondences() {
                            let p = &sub.predicates()[c.predicate];
                            prop_assert!(
                                events[i].tuples().iter().any(|t| {
                                    t.attribute() == p.attribute() && t.value() == p.value()
                                }),
                                "correspondence points at a predicate the event cannot satisfy"
                            );
                        }
                    }
                    delivered.insert((id.0, i));
                }
            }
            prop_assert_eq!(
                &delivered,
                &expected,
                "index dispatch under {:?} must deliver exactly the brute-force set",
                policy
            );

            // Aggregation bookkeeping: hash-consing never reports more
            // entries (distinct predicate-set × theme combinations) or
            // distinct predicate sets than registered subscriptions, and
            // splitting a predicate set across themes only adds entries.
            let stats = broker.stats();
            prop_assert!(stats.index_entries <= sub_specs.len() as u64);
            prop_assert!(stats.distinct_subscriptions <= sub_specs.len() as u64);
            prop_assert!(stats.index_entries >= stats.distinct_subscriptions);
            broker.shutdown();
        }
    }

    /// Observers watch the one entry sweep; they never switch dispatch
    /// to another path. Over the same duplicate/permuted/covering
    /// populations as above, a broker with every observer installed
    /// tests and delivers exactly what an unobserved broker does —
    /// correspondences included — while the explain ring and the
    /// quality sampler each record one entry per candidate pair.
    #[test]
    fn observers_never_change_what_is_tested_or_delivered(
        sub_specs in proptest::collection::vec((tag_set(), pair_set(1)), 1..12),
        event_specs in proptest::collection::vec((tag_set(), pair_set(0)), 1..8),
    ) {
        for policy in [RoutingPolicy::Broadcast, RoutingPolicy::ThemeOverlap] {
            let off = dispatch(&sub_specs, &event_specs, policy, false);
            let on = dispatch(&sub_specs, &event_specs, policy, true);
            prop_assert_eq!(&on.delivered, &off.delivered, "delivered under {:?}", policy);
            prop_assert_eq!(on.match_tests, off.match_tests, "match_tests under {:?}", policy);
            prop_assert_eq!(on.covered_skips, off.covered_skips);
            prop_assert_eq!(on.routing_skipped, off.routing_skipped);
            let pairs = (sub_specs.len() * event_specs.len()) as u64 - on.routing_skipped;
            prop_assert_eq!(on.explanations as u64, pairs, "one explanation per candidate pair");
            prop_assert_eq!(on.judged, pairs, "one quality sample per candidate pair");
        }
    }
}

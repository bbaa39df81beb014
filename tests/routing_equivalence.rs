//! Property test for theme-indexed routing: under
//! `RoutingPolicy::ThemeOverlap`, dispatch through the broker's routing
//! table must deliver exactly the notification set of brute-force
//! dispatch applying the same theme-overlap gate — routing may skip work,
//! never a match. Theme-less subscriptions opt out of routing and must
//! stay broadcast.

use crossbeam::channel::Receiver;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use tep::broker::SubscriptionId;
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
            delivered.insert((pos, i, correspondences(&n.result)));
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

/// One step of an interleaved write/publish history. Derived
/// subscriptions are built from a live one, so histories keep producing
/// duplicate joins, permuted twins and covering pairs as entries come and
/// go (and freed index slots are recycled).
#[derive(Debug, Clone)]
enum Step {
    /// Subscribe a fresh specification.
    Subscribe(Spec),
    /// Subscribe a variant of the live subscription `pick % live`: a
    /// verbatim duplicate, its predicates reversed, its predicates under
    /// `tags`, its predicates minus the last (a covering subset), or plus
    /// an attribute it lacks (a covering superset), by `kind % 5`.
    Derive {
        pick: usize,
        kind: u8,
        tags: Vec<String>,
    },
    /// Unsubscribe the live subscription `pick % live`.
    Unsubscribe(usize),
    /// Publish an event and flush.
    Publish(Spec),
}

fn step() -> impl Strategy<Value = Step> {
    (
        0u8..10,
        any::<usize>(),
        (tag_set(), pair_set(1)),
        (tag_set(), pair_set(0)),
    )
        .prop_map(|(op, pick, sub, event)| match op {
            0..=2 => Step::Subscribe(sub),
            3..=4 => Step::Derive {
                pick,
                kind: (pick >> 8) as u8,
                tags: sub.0,
            },
            5..=6 => Step::Unsubscribe(pick),
            _ => Step::Publish(event),
        })
}

/// The variant `Step::Derive` subscribes for the live `(tags, preds)`.
fn derived(kind: u8, tags: &[String], preds: &[(usize, usize)], other: Vec<String>) -> Spec {
    let mut preds = preds.to_vec();
    let tags = match kind % 5 {
        0 => tags.to_vec(),
        1 => {
            preds.reverse();
            tags.to_vec()
        }
        2 => other,
        3 => {
            if preds.len() > 1 {
                preds.pop();
            }
            tags.to_vec()
        }
        _ => {
            if let Some(a) = (0..ATTR_POOL.len()).find(|a| preds.iter().all(|p| p.0 != *a)) {
                preds.push((a, a % VALUE_POOL.len()));
            }
            tags.to_vec()
        }
    };
    (tags, preds)
}

/// What one published event cost and delivered: the dispatch counter
/// deltas and (subscriber, correspondences) per notification.
#[derive(Debug, PartialEq)]
struct EventOutcome {
    match_tests: u64,
    covered_skips: u64,
    routing_skipped: u64,
    delivered: BTreeSet<(usize, Correspondences)>,
}

/// A result's correspondences as (predicate, tuple) per mapping.
fn correspondences(result: &MatchResult) -> Correspondences {
    result
        .mappings()
        .iter()
        .map(|m| {
            m.correspondences()
                .iter()
                .map(|c| (c.predicate, c.tuple))
                .collect()
        })
        .collect()
}

/// A broker plus the receivers of its subscriptions, keyed by the
/// history's subscribe order.
struct Live {
    broker: Broker,
    workers: usize,
    subs: Vec<(usize, SubscriptionId, Receiver<Notification>)>,
}

impl Live {
    fn start(policy: RoutingPolicy, workers: usize) -> Live {
        let config = BrokerConfig::default()
            .with_workers(workers)
            .with_routing_policy(policy);
        Live {
            broker: Broker::start(Arc::new(ExactMatcher::new()), config),
            workers,
            subs: Vec::new(),
        }
    }

    fn subscribe(&mut self, key: usize, sub: Subscription) {
        let (id, rx) = self.broker.subscribe(sub).unwrap();
        self.subs.push((key, id, rx));
    }

    fn unsubscribe(&mut self, pick: usize) {
        if !self.subs.is_empty() {
            let (_, id, _) = self.subs.remove(pick % self.subs.len());
            assert!(self.broker.unsubscribe(id));
        }
    }

    /// Publishes `event`, flushes, and reports the event's outcome.
    fn publish(&self, event: &Event) -> EventOutcome {
        let before = self.broker.stats();
        self.broker.publish(event.clone()).unwrap();
        self.broker.flush().unwrap();
        let after = self.broker.stats();
        let mut delivered = BTreeSet::new();
        for (key, _, rx) in &self.subs {
            while let Ok(n) = rx.try_recv() {
                delivered.insert((*key, correspondences(&n.result)));
            }
        }
        EventOutcome {
            match_tests: after.match_tests - before.match_tests,
            covered_skips: after.covered_skips - before.covered_skips,
            routing_skipped: after.routing_skipped - before.routing_skipped,
            delivered,
        }
    }
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
    /// Candidate plans are cached per worker and stamped with the index
    /// version, so every subscription write between publishes must reach
    /// the next event's dispatch. Over random histories of subscribes
    /// (new entries, duplicate joins, permuted twins, covering subsets
    /// and supersets), unsubscribes (recycling freed slots) and flushed
    /// publishes, under both routing policies with one and two workers
    /// (each worker caches its own plans), every event delivers exactly
    /// what direct matching against the live subscriptions delivers, and
    /// costs exactly the tests, covered skips and routing skips it costs
    /// a freshly started broker holding only those subscriptions.
    #[test]
    fn writes_between_publishes_never_leave_a_stale_plan(
        steps in proptest::collection::vec(step(), 1..24),
    ) {
        let matcher = ExactMatcher::new();
        for policy in [RoutingPolicy::Broadcast, RoutingPolicy::ThemeOverlap] {
            let mut brokers = [Live::start(policy, 1), Live::start(policy, 2)];
            // The live specifications, keyed by subscribe order.
            let mut live: Vec<(usize, Spec)> = Vec::new();
            let mut next_key = 0;
            for (i, step) in steps.iter().enumerate() {
                let spec = match step {
                    Step::Subscribe(spec) => Some(spec.clone()),
                    Step::Derive { pick, kind, tags } if !live.is_empty() => {
                        let (_, (t, p)) = &live[pick % live.len()];
                        Some(derived(*kind, t, p, tags.clone()))
                    }
                    Step::Derive { .. } => None,
                    Step::Unsubscribe(pick) => {
                        if !live.is_empty() {
                            live.remove(pick % live.len());
                        }
                        for b in &mut brokers {
                            b.unsubscribe(*pick);
                        }
                        None
                    }
                    Step::Publish((tags, tuples)) => {
                        let event = event_of(i, tags, tuples);
                        let mut fresh = Live::start(policy, 1);
                        let mut expected = BTreeSet::new();
                        for (key, (t, p)) in &live {
                            let sub = subscription_of(t, p);
                            let routed = policy == RoutingPolicy::Broadcast
                                || sub.theme_tags().is_empty()
                                || sub.shares_theme_with(&event);
                            let result = matcher.match_event(&sub, &event);
                            if routed && result.is_match(1.0) {
                                expected.insert((*key, correspondences(&result)));
                            }
                            fresh.subscribe(*key, sub);
                        }
                        let reference = fresh.publish(&event);
                        fresh.broker.shutdown();
                        prop_assert_eq!(
                            &reference.delivered,
                            &expected,
                            "fresh broker under {:?} at step {}",
                            policy,
                            i
                        );
                        for b in &brokers {
                            prop_assert_eq!(
                                &b.publish(&event),
                                &reference,
                                "{:?} with {} worker(s) at step {}: {:?}",
                                policy,
                                b.workers,
                                i,
                                &steps[..=i]
                            );
                        }
                        None
                    }
                };
                if let Some(spec) = spec {
                    for b in &mut brokers {
                        b.subscribe(next_key, subscription_of(&spec.0, &spec.1));
                    }
                    live.push((next_key, spec));
                    next_key += 1;
                }
            }
            for b in brokers {
                b.broker.shutdown();
            }
        }
    }
}

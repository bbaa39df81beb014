//! The three benchmark workloads.
//!
//! Each is built from the paper's quick-scale evaluation workload
//! (`EvalConfig::quick()`: 1,500 expanded events, 24 paper
//! subscriptions), so the events, subscriptions, ground truth and `f1` are
//! constants of the code. The command-line seed draws what varies from
//! run to run: the order events are published in and, on `theme_churn`,
//! the fresh themes of the churning subscriptions. The broker only ever
//! sees the events and subscriptions built here; ground truth stays on
//! the benchmark side.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;
use tep::prelude::{Domain, Event, RoutingPolicy, Subscription, Thesaurus};
use tep_eval::{EvalConfig, ThemeCombination, ThemeSampler, Workload};

/// Workload names, as `--workload` accepts them.
pub const NAMES: [&str; 3] = ["thematic_broadcast", "exact_fanout", "theme_churn"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's configuration: thematic matcher, broadcast routing.
    ThematicBroadcast,
    /// Exact matcher, ~1k subscribers on ≤256 distinct subscriptions.
    ExactFanout,
    /// Thematic matcher, sampled themes, subscription churn.
    ThemeChurn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "thematic_broadcast" => Some(Kind::ThematicBroadcast),
            "exact_fanout" => Some(Kind::ExactFanout),
            "theme_churn" => Some(Kind::ThemeChurn),
            _ => None,
        }
    }

    pub fn thematic(self) -> bool {
        self != Kind::ExactFanout
    }

    /// Open-loop rate of the fixed-rate phase, events per second: about a
    /// quarter of the broker's CPU on two cores, so nothing queues for
    /// long, no operation fails, and a slower spell of a shared machine
    /// does not tip the phase into queueing.
    pub fn fixed_rate(self) -> f64 {
        match self {
            Kind::ThematicBroadcast => 2_500.0,
            Kind::ExactFanout => 5_000.0,
            Kind::ThemeChurn => 1_500.0,
        }
    }

    pub fn routing(self) -> RoutingPolicy {
        match self {
            Kind::ThematicBroadcast => RoutingPolicy::Broadcast,
            Kind::ExactFanout | Kind::ThemeChurn => RoutingPolicy::ThemeOverlap,
        }
    }

    /// Per-subscriber notification channel capacity: deep enough that the
    /// collector never falls a channel's worth behind, small enough that
    /// ~1k channels stay cheap.
    pub fn notification_capacity(self) -> usize {
        match self {
            Kind::ExactFanout => 512,
            Kind::ThematicBroadcast | Kind::ThemeChurn => 8192,
        }
    }
}

/// Distinct subscriptions and subscribers of `exact_fanout`.
const FANOUT_DISTINCT: usize = 256;
const FANOUT_SUBSCRIBERS: usize = 1024;
/// `theme_churn`: tags per event and per subscription theme.
const CHURN_THEME_SIZE: usize = 3;
/// `theme_churn`, correctness passes: one subscription is replaced every
/// this many events, at a drained barrier.
pub const CHURN_EVERY: u64 = 16;

/// `theme_churn`, timed phases: one subscription is replaced every this
/// long (100 a second), whatever the event rate, so that a run makes the
/// same number of churn steps however fast the broker is.
pub const CHURN_PERIOD: Duration = Duration::from_millis(10);

/// A subscription's sorted `(attribute, value)` predicates and its theme.
type DistinctKey = (Vec<(String, String)>, Vec<String>);

/// Distinct `(predicate multiset, theme)` subscriptions, in first-seen
/// order, up to [`FANOUT_DISTINCT`].
#[derive(Default)]
struct Distinct {
    seen: BTreeSet<DistinctKey>,
    list: Vec<(Arc<Subscription>, Option<usize>)>,
}

impl Distinct {
    fn add(&mut self, sub: Subscription, truth: Option<usize>) {
        let mut key: Vec<(String, String)> = sub
            .predicates()
            .iter()
            .map(|p| (p.attribute().to_string(), p.value().to_string()))
            .collect();
        key.sort();
        if self.list.len() < FANOUT_DISTINCT && self.seen.insert((key, sub.theme_tags().to_vec())) {
            self.list.push((Arc::new(sub), truth));
        }
    }
}

/// One subscribe call of the workload.
#[derive(Debug, Clone)]
pub struct Subscriber {
    pub subscription: Arc<Subscription>,
    /// Index into the eval workload's subscriptions whose ground truth
    /// scores this subscriber, when it counts towards `f1`.
    pub truth: Option<usize>,
    /// Whether the generator unsubscribes and resubscribes it.
    pub churns: bool,
}

/// Everything one run publishes and subscribes, plus its ground truth.
#[derive(Debug)]
pub struct Inputs {
    pub kind: Kind,
    pub corpus: tep::prelude::Corpus,
    pub workload: Workload,
    /// Events as published, indexed like the eval workload's events.
    pub events: Vec<Event>,
    /// The seeded order one round publishes the events in.
    pub order: Vec<usize>,
    pub subscribers: Vec<Subscriber>,
    /// Fresh theme tags for successive churn steps (`theme_churn`).
    pub churn_themes: Vec<Vec<String>>,
    /// The theme combination every event and subscription carries, when
    /// one does (`thematic_broadcast`): the direct-runner cross-check.
    pub combination: Option<ThemeCombination>,
}

fn domain_tags(th: &Thesaurus) -> Vec<String> {
    Domain::ALL
        .iter()
        .map(|d| th.top_terms(*d)[0].as_str().to_string())
        .collect()
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let th = Thesaurus::eurovoc_like();
        let mut cfg = EvalConfig::quick();
        if kind == Kind::ExactFanout {
            cfg.min_predicates = 1;
            cfg.max_predicates = 3;
        }
        let corpus = tep::prelude::CorpusGenerator::new(&th, cfg.corpus.clone()).generate();
        let workload = Workload::generate_with(&th, &cfg);
        let mut order: Vec<usize> = (0..workload.events().len()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut inputs = Inputs {
            kind,
            corpus,
            order,
            events: Vec::new(),
            subscribers: Vec::new(),
            churn_themes: Vec::new(),
            combination: None,
            workload,
        };
        match kind {
            Kind::ThematicBroadcast => inputs.thematic_broadcast(&th),
            Kind::ExactFanout => inputs.exact_fanout(&th, cfg.seed),
            Kind::ThemeChurn => inputs.theme_churn(&th, cfg.seed, seed),
        }
        inputs
    }

    /// One tag per domain on both sides, every subscription tested
    /// against every event.
    fn thematic_broadcast(&mut self, th: &Thesaurus) {
        let tags = domain_tags(th);
        self.events = self
            .workload
            .events()
            .iter()
            .map(|e| e.with_theme_tags(&tags))
            .collect();
        self.subscribers = self
            .workload
            .subscriptions()
            .iter()
            .enumerate()
            .map(|(i, s)| Subscriber {
                subscription: Arc::new(s.with_theme_tags(&tags)),
                truth: Some(i),
                churns: false,
            })
            .collect();
        self.combination = Some(ThemeCombination {
            event_tags: tags.clone(),
            subscription_tags: tags,
        });
    }

    /// Exact subscriptions of one to three predicates, hash-consed: the
    /// workload's own exact subscriptions plus nested families
    /// `{t1} ⊂ {t1,t2} ⊂ {t1,t2,t3}` over rare event tuples, so covering
    /// has subsets to prune by. Each side carries the one domain tag of
    /// its seed template (seeds rotate over five templates), so theme
    /// routing never separates a subscription from its relevant events.
    fn exact_fanout(&mut self, th: &Thesaurus, seed: u64) {
        let tags = domain_tags(th);
        let tag_of_seed = |seed_idx: usize| tags[seed_idx % 5].clone();
        let provenance = self.workload.provenance().to_vec();
        self.events = self
            .workload
            .events()
            .iter()
            .zip(&provenance)
            .map(|(e, &p)| e.with_theme_tags([tag_of_seed(p)]))
            .collect();

        let mut distinct = Distinct::default();
        let seeds = self.workload.seeds().len();
        for (i, s) in self.workload.exact_subscriptions().iter().enumerate() {
            distinct.add(s.with_theme_tags([tag_of_seed(i % seeds)]), Some(i));
        }

        // Tuple frequencies: family roots must be rare, or one
        // single-predicate subscription would match most events.
        let mut freq: HashMap<(&str, &str), usize> = HashMap::new();
        for e in self.workload.events() {
            for t in e.tuples() {
                *freq.entry((t.attribute(), t.value())).or_default() += 1;
            }
        }
        let rare_limit = self.workload.events().len() / 50;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA40_0175);
        let mut attempts = 0;
        while distinct.list.len() < FANOUT_DISTINCT && attempts < 100_000 {
            attempts += 1;
            let e = rng.gen_range(0..self.workload.events().len());
            let event = &self.workload.events()[e];
            let tuples = event.tuples();
            let root = rng.gen_range(0..tuples.len());
            let t = &tuples[root];
            if freq[&(t.attribute(), t.value())] > rare_limit {
                continue;
            }
            let mut picked = vec![root];
            while picked.len() < 3.min(tuples.len()) {
                let j = rng.gen_range(0..tuples.len());
                if !picked.contains(&j) {
                    picked.push(j);
                }
            }
            let tag = tag_of_seed(provenance[e]);
            for len in 1..=picked.len() {
                let mut b = Subscription::builder().theme_tag(&tag);
                for &j in &picked[..len] {
                    b = b.predicate_exact(tuples[j].attribute(), tuples[j].value());
                }
                distinct.add(
                    b.build()
                        .expect("tuples from an event are valid predicates"),
                    None,
                );
            }
        }

        let distinct = distinct.list;
        self.subscribers = (0..FANOUT_SUBSCRIBERS)
            .map(|i| {
                let (subscription, truth) = &distinct[i % distinct.len()];
                Subscriber {
                    subscription: Arc::clone(subscription),
                    // The first subscriber of each paper subscription
                    // scores it; its duplicates receive the same events.
                    truth: if i < distinct.len() { *truth } else { None },
                    churns: false,
                }
            })
            .collect();
    }

    /// Per-event and per-subscription themes sampled as in §5.2.4; every
    /// other subscription churns to fresh themes, drawn from the run
    /// seed, while events flow.
    fn theme_churn(&mut self, th: &Thesaurus, workload_seed: u64, run_seed: u64) {
        let sampler = |seed| {
            let mut sampler = ThemeSampler::new(th, seed);
            move || {
                sampler
                    .sample_free(CHURN_THEME_SIZE, CHURN_THEME_SIZE)
                    .event_tags
            }
        };
        let mut draw = sampler(workload_seed);
        self.events = self
            .workload
            .events()
            .iter()
            .map(|e| e.with_theme_tags(draw()))
            .collect();
        self.subscribers = self
            .workload
            .subscriptions()
            .iter()
            .enumerate()
            .map(|(i, s)| Subscriber {
                subscription: Arc::new(s.with_theme_tags(draw())),
                truth: Some(i),
                churns: i % 2 == 1,
            })
            .collect();
        let mut fresh = sampler(run_seed ^ 0xC4_0125);
        self.churn_themes = (0..4096).map(|_| fresh()).collect();
    }

    /// Subscriber slots that churn, in churn order.
    pub fn churn_slots(&self) -> Vec<usize> {
        (0..self.subscribers.len())
            .filter(|&i| self.subscribers[i].churns)
            .collect()
    }
}

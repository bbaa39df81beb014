//! Cross-matcher behavioural contracts: the four Table 1 approaches must
//! relate to each other the way §1.2 describes.

use std::sync::Arc;
use tep::prelude::*;

struct Stack {
    exact: ExactMatcher,
    rewriting: RewritingMatcher,
    non_thematic: ProbabilisticMatcher<EsaMeasure>,
    thematic: ProbabilisticMatcher<ThematicEsaMeasure>,
}

fn stack() -> Stack {
    let corpus = Corpus::generate(&CorpusConfig::small().with_num_docs(900));
    let space = Arc::new(DistributionalSpace::new(InvertedIndex::build(&corpus)));
    let pvsm = Arc::new(ParametricVectorSpace::new((*space).clone()));
    Stack {
        exact: ExactMatcher::new(),
        rewriting: RewritingMatcher::new(Arc::new(Thesaurus::eurovoc_like())),
        non_thematic: ProbabilisticMatcher::new(EsaMeasure::new(space), MatcherConfig::top1()),
        thematic: ProbabilisticMatcher::new(ThematicEsaMeasure::new(pvsm), MatcherConfig::top1()),
    }
}

#[test]
fn every_matcher_accepts_a_verbatim_match() {
    let s = stack();
    let event = parse_event("{type: increased energy consumption event, device: laptop}").unwrap();
    let subscription =
        parse_subscription("{type~= increased energy consumption event~, device~= laptop~}")
            .unwrap();
    for (name, score) in [
        ("exact", 1.0),
        ("rewriting", 1.0),
        ("non-thematic", 1.0),
        ("thematic", 1.0),
    ] {
        let got = match name {
            "exact" => {
                // The exact matcher ignores ~, so verbatim equality holds.
                s.exact.match_event(&subscription, &event).score()
            }
            "rewriting" => s.rewriting.match_event(&subscription, &event).score(),
            "non-thematic" => s.non_thematic.match_event(&subscription, &event).score(),
            _ => s.thematic.match_event(&subscription, &event).score(),
        };
        assert!(
            (got - score).abs() < 1e-9,
            "{name}: verbatim match scored {got}"
        );
    }
}

#[test]
fn recall_strictly_widens_from_exact_to_approximate() {
    // §1.2: content-based < concept-based < approximate in what they can
    // match. A synonym inside the knowledge base is caught by rewriting
    // and approximate but not exact; a paraphrase outside the knowledge
    // base is caught only by the approximate matchers.
    let s = stack();
    let subscription = parse_subscription("{device~= laptop~}").unwrap();

    // In-thesaurus synonym: 'notebook' is an alternate of 'laptop'.
    let synonym = parse_event("{device: notebook}").unwrap();
    assert_eq!(s.exact.match_event(&subscription, &synonym).score(), 0.0);
    assert_eq!(
        s.rewriting.match_event(&subscription, &synonym).score(),
        1.0
    );
    assert!(s.non_thematic.match_event(&subscription, &synonym).score() > 0.0);

    // Out-of-thesaurus but distributionally related: 'computer' is not in
    // laptop's synonym ring (only a related concept's preferred term is),
    // so pick a term with no direct link at all: 'workstation' is an
    // alternate of computer, reachable distributionally.
    let related = parse_event("{device: workstation}").unwrap();
    assert_eq!(s.exact.match_event(&subscription, &related).score(), 0.0);
    let approx = s.non_thematic.match_event(&subscription, &related).score();
    assert!(approx > 0.0, "distributional matcher must see the relation");
}

#[test]
fn approximate_scores_rank_by_semantic_closeness() {
    let s = stack();
    let subscription = parse_subscription("{device~= laptop~}").unwrap();
    let synonym = parse_event("{device: notebook}").unwrap();
    let cousin = parse_event("{device: refrigerator}").unwrap();
    let syn = s.non_thematic.match_event(&subscription, &synonym).score();
    let far = s.non_thematic.match_event(&subscription, &cousin).score();
    assert!(
        syn > far,
        "synonym {syn} must outrank a same-domain non-synonym {far}"
    );
}

#[test]
fn thematic_and_non_thematic_agree_without_themes() {
    // With empty themes the PVSM is the identity, so both probabilistic
    // matchers must produce identical scores.
    let s = stack();
    let subscription =
        parse_subscription("{type~= increased energy usage event~, device~= laptop~}").unwrap();
    let event = parse_event(
        "{type: increased energy consumption event, device: computer, office: room 112}",
    )
    .unwrap();
    let a = s.non_thematic.match_event(&subscription, &event).score();
    let b = s.thematic.match_event(&subscription, &event).score();
    assert!(
        (a - b).abs() < 1e-6,
        "non-thematic {a} vs thematic-empty {b}"
    );
}

#[test]
fn mappings_are_injective_for_all_probabilistic_matchers() {
    let s = stack();
    let subscription = parse_subscription("{device~= laptop~, machine~= computer~}").unwrap();
    let event = parse_event("{device: notebook, machine: workstation, extra: desk 101a}").unwrap();
    for result in [
        s.non_thematic.match_event(&subscription, &event),
        s.thematic.match_event(&subscription, &event),
    ] {
        if let Some(m) = result.best() {
            let t0 = m.tuple_of(0).unwrap();
            let t1 = m.tuple_of(1).unwrap();
            assert_ne!(t0, t1, "mapping must not reuse a tuple");
        }
    }
}

/// An open event scope binds the matcher's event-side scratch to the
/// event it was opened for. Tests of other events while it is open —
/// plain `match_event` calls, and events rebuilt in a loop into one
/// stack slot, so at the scope event's address — must return exactly the
/// scope-free verdicts.
#[test]
fn an_open_event_scope_never_replays_another_events_terms() {
    let config = tep_eval::EvalConfig::tiny();
    let stack = tep_eval::MatcherStack::build(&config);
    let workload = tep_eval::Workload::generate(&config);
    let matcher = stack.thematic_cached();
    let themes = ["energy policy", "electrical industry"];
    let events: Vec<Event> = workload
        .events()
        .iter()
        .take(40)
        .map(|e| e.with_theme_tags(themes))
        .collect();
    let subscriptions: Vec<Subscription> = workload
        .subscriptions()
        .iter()
        .map(|s| s.with_theme_tags(themes))
        .collect();
    assert_eq!((events.len(), subscriptions.len()), (40, 8));
    let sweep = |event: &Event| -> Vec<MatchResult> {
        subscriptions
            .iter()
            .map(|s| matcher.match_event(s, event))
            .collect()
    };
    // The reference runs on a thread that never opened a scope (the
    // scratch is per thread).
    let reference: Vec<Vec<MatchResult>> =
        std::thread::scope(|t| t.spawn(|| events.iter().map(&sweep).collect()).join())
            .expect("reference thread");
    assert!(
        reference.iter().flatten().any(|r| r.is_match(0.0)),
        "the population must exercise the semantic path"
    );

    let differing = |got: &[MatchResult], want: &[MatchResult]| {
        got.iter().zip(want).filter(|(g, w)| g != w).count()
    };

    matcher.begin_event(&events[0]);
    let replayed: usize = events
        .iter()
        .zip(&reference)
        .map(|(e, want)| differing(&sweep(e), want))
        .sum();
    assert_eq!(replayed, 0, "results differing under another event's scope");

    let mut slot = events[0].clone();
    matcher.begin_event(&slot);
    let mut replayed = 0;
    for (event, want) in events.iter().zip(&reference) {
        slot = event.with_theme_tags(themes);
        replayed += differing(&sweep(&slot), want);
    }
    assert_eq!(
        replayed, 0,
        "results differing for events rebuilt in the scope event's slot"
    );
}

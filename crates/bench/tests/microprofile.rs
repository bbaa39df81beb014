//! Manual micro-profiling aid for the seed_thematic_broadcast hot path.
//!
//! Ignored by default; run with
//! `cargo test --release -p tep-bench --test microprofile -- --ignored --nocapture`
//! to print a per-component cost breakdown of one thematic match test,
//! the cost of a warm test when one and two threads share a matcher, and
//! the cost of one channel round trip with no parked peer.

use std::sync::{Arc, Barrier};
use std::time::Instant;
use tep::prelude::*;
use tep::semantics::{intern_term, theme_for_tags};
use tep_eval::{EvalConfig, MatcherStack, Workload};

/// The tiny workload's first `n_events` events and `n_subs`
/// subscriptions, all tagged with every domain's top term.
fn themed_workload(
    cfg: &EvalConfig,
    n_events: usize,
    n_subs: usize,
) -> (Vec<Event>, Vec<Subscription>) {
    let workload = Workload::generate(cfg);
    let th = Thesaurus::eurovoc_like();
    let domain_tags: Vec<String> = Domain::ALL
        .iter()
        .map(|d| th.top_terms(*d)[0].as_str().to_string())
        .collect();
    let events = workload
        .events()
        .iter()
        .take(n_events)
        .map(|e| e.with_theme_tags(domain_tags.clone()))
        .collect();
    let subs = workload
        .subscriptions()
        .iter()
        .take(n_subs)
        .map(|s| s.with_theme_tags(domain_tags.clone()))
        .collect();
    (events, subs)
}

#[test]
#[ignore = "manual profiling aid, run with --ignored --nocapture"]
fn thematic_match_cost_breakdown() {
    let cfg = EvalConfig::tiny();
    let stack = MatcherStack::build(&cfg);
    let (events, subs) = themed_workload(&cfg, 128, 8);
    let matcher = stack.thematic_cached();

    // Warm every cache exactly like a bench round does.
    for s in &subs {
        matcher.prepare_subscription(s);
        for e in &events {
            let _ = matcher.match_event(s, e);
        }
    }

    let tests = subs.len() * events.len();
    let rounds = 8;

    let start = Instant::now();
    let mut matched = 0usize;
    for _ in 0..rounds {
        for s in &subs {
            for e in &events {
                if !matcher.match_event(s, e).is_empty() {
                    matched += 1;
                }
            }
        }
    }
    let full = start.elapsed();
    println!(
        "match_event       {:>8.0} ns/test   ({} tests, {} matched)",
        full.as_nanos() as f64 / (tests * rounds) as f64,
        tests * rounds,
        matched
    );

    let (n, m) = (subs[0].predicates().len(), events[0].tuples().len());
    println!("shape             {n} predicates x {m} tuples");
    let mut pred_terms = std::collections::HashSet::new();
    let mut tuple_terms = std::collections::HashSet::new();
    for s in &subs {
        for p in s.predicates() {
            pred_terms.insert(p.attribute().to_string());
            pred_terms.insert(p.value().to_string());
        }
    }
    for e in &events {
        for t in e.tuples() {
            tuple_terms.insert(t.attribute().to_string());
            tuple_terms.insert(t.value().to_string());
        }
    }
    println!(
        "vocab             {} pred terms x {} tuple terms (≤ {} measure keys)",
        pred_terms.len(),
        tuple_terms.len(),
        pred_terms.len() * tuple_terms.len()
    );

    let start = Instant::now();
    for _ in 0..rounds {
        for s in &subs {
            for e in &events {
                std::hint::black_box(matcher.similarity_matrix(s, e));
            }
        }
    }
    let matrix = start.elapsed();
    println!(
        "similarity_matrix {:>8.0} ns/test   (allocating unpruned build)",
        matrix.as_nanos() as f64 / (tests * rounds) as f64
    );

    {
        use tep::semantics::SemanticMeasure;
        let measure = matcher.measure();
        let ths = theme_for_tags(subs[0].theme_tags());
        let the = theme_for_tags(events[0].theme_tags());
        let pred_ids: Vec<_> = pred_terms.iter().map(|t| intern_term(t)).collect();
        let tuple_ids: Vec<_> = tuple_terms.iter().map(|t| intern_term(t)).collect();
        let probes = pred_ids.len() * tuple_ids.len();
        for &p in &pred_ids {
            for &t in &tuple_ids {
                std::hint::black_box(measure.relatedness_ids(p, ths, t, the));
            }
        }
        let start = Instant::now();
        let mut acc = 0.0;
        for _ in 0..4 {
            for &p in &pred_ids {
                for &t in &tuple_ids {
                    acc += measure.relatedness_ids(p, ths, t, the);
                }
            }
        }
        let rel = start.elapsed();
        println!(
            "relatedness_ids   {:>8.0} ns/call   ({} probes, acc={acc:.1})",
            rel.as_nanos() as f64 / (probes * 4) as f64,
            probes * 4
        );
    }

    let start = Instant::now();
    for _ in 0..rounds {
        for s in &subs {
            for e in &events {
                std::hint::black_box(theme_for_tags(s.theme_tags()));
                std::hint::black_box(theme_for_tags(e.theme_tags()));
            }
        }
    }
    let themes = start.elapsed();
    println!(
        "theme_for_tags x2 {:>8.0} ns/test",
        themes.as_nanos() as f64 / (tests * rounds) as f64
    );

    let start = Instant::now();
    for _ in 0..rounds {
        for s in &subs {
            for e in &events {
                for p in s.predicates() {
                    std::hint::black_box(intern_term(p.attribute()));
                    std::hint::black_box(intern_term(p.value()));
                }
                for t in e.tuples() {
                    std::hint::black_box(intern_term(t.attribute()));
                    std::hint::black_box(intern_term(t.value()));
                }
            }
        }
    }
    let interning = start.elapsed();
    println!(
        "interning         {:>8.0} ns/test",
        interning.as_nanos() as f64 / (tests * rounds) as f64
    );

    let start = Instant::now();
    for _ in 0..rounds {
        for s in &subs {
            for e in &events {
                std::hint::black_box(matcher.cache_miss_count());
                let _ = (s, e);
            }
        }
    }
    let miss = start.elapsed();
    println!(
        "cache_miss_count  {:>8.0} ns/test",
        miss.as_nanos() as f64 / (tests * rounds) as f64
    );
}

/// ns per warm match test when `threads` threads sweep the whole
/// workload at once through one shared matcher, each the way a broker
/// worker does: `begin_event`, then every subscription. Every thread
/// first takes one untimed pass, so its thread-local state (score L1,
/// interning fronts, event scope) is warm before the clock starts.
fn warm_ns_per_test<M: Matcher + 'static>(
    matcher: &Arc<M>,
    events: &Arc<Vec<Event>>,
    subs: &Arc<Vec<Subscription>>,
    threads: usize,
    rounds: usize,
) -> f64 {
    fn sweep<M: Matcher>(matcher: &M, events: &[Event], subs: &[Subscription]) -> usize {
        let mut matched = 0;
        for e in events {
            matcher.begin_event(e);
            for s in subs {
                matched += usize::from(!matcher.match_event(s, e).is_empty());
            }
        }
        matched
    }
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let (matcher, events, subs) =
                (Arc::clone(matcher), Arc::clone(events), Arc::clone(subs));
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                sweep(&*matcher, &events, &subs);
                barrier.wait();
                let start = Instant::now();
                for _ in 0..rounds {
                    std::hint::black_box(sweep(&*matcher, &events, &subs));
                }
                start.elapsed().as_nanos() as f64 / (rounds * events.len() * subs.len()) as f64
            })
        })
        .collect();
    let per_thread: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    per_thread.iter().sum::<f64>() / threads as f64
}

#[test]
#[ignore = "manual profiling aid, run with --ignored --nocapture"]
fn thematic_two_thread_contention() {
    // One shared matcher, swept by one thread and then by two at once.
    // Each thread does the same work, so on two free cores any rise in
    // ns/test is time spent on memory the threads share: cache lines
    // that both write (counters, lock words, refcounts) move between
    // the cores on every write.
    let cfg = EvalConfig::tiny();
    let stack = MatcherStack::build(&cfg);
    let (events, subs) = themed_workload(&cfg, 128, 24);
    let matcher = Arc::new(stack.thematic_cached());
    for s in &subs {
        matcher.prepare_subscription(s);
    }
    let (events, subs) = (Arc::new(events), Arc::new(subs));
    // ~0.2 s per sweep; the best of five trials filters out the moments
    // a shared machine lends the cores elsewhere.
    let rounds = 64;
    let best = |threads| {
        (0..5)
            .map(|_| warm_ns_per_test(&matcher, &events, &subs, threads, rounds))
            .fold(f64::INFINITY, f64::min)
    };
    let (one, two) = (best(1), best(2));
    println!(
        "warm match test   {one:>8.0} ns/test at 1 thread, {two:>8.0} ns/test at 2 threads \
         (ratio {:.2}, {} tests per thread)",
        two / one,
        rounds * events.len() * subs.len()
    );
    let memo = matcher.measure().memo_stats();
    println!(
        "memo              {} hits, {} misses",
        memo.hits, memo.misses
    );
}

#[test]
#[ignore = "manual profiling aid, run with --ignored --nocapture"]
fn channel_wake_cost() {
    // One `try_send` + `drain_into` round with no thread parked on either
    // side: the path every delivered notification takes. The traced
    // ledger folds this cost into `broker.deliver_ns_p50`; here it stands
    // alone, so a wake call that reaches no one shows as a jump in ns.
    let (tx, rx) = crossbeam::channel::bounded::<u64>(256);
    let mut buf = Vec::with_capacity(1);
    let rounds = 1_000_000u64;
    let best = (0..5)
        .map(|_| {
            let start = Instant::now();
            for i in 0..rounds {
                tx.try_send(i).unwrap();
                std::hint::black_box(rx.drain_into(&mut buf, 1).unwrap());
                buf.clear();
            }
            start.elapsed().as_nanos() as f64 / rounds as f64
        })
        .fold(f64::INFINITY, f64::min);
    println!("channel round     {best:>8.1} ns per try_send + drain_into, no parked peer");
}

//! The measurement harness shared by the overhead gates (`obs-gate`,
//! `cost-gate`) and the throughput scenarios.
//!
//! * **Publishing** — one untimed warm-up round, then a paced producer
//!   that publishes [`PUBLISH_BURST`] events and waits for the drain.
//! * **Off/on A/B** — [`interleaved_ab`] alternates a diagnostic's off
//!   and on sides, keeps each side's best of N, and re-measures a pass
//!   that lands over the ceiling, keeping the lowest overhead seen.
//! * **Steady-state allocations** — [`steady_allocs`] counts one window
//!   on a warmed broker through [`crate::alloc::count_window`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use tep::prelude::{
    Broker, BrokerConfig, Domain, Event, ExactMatcher, Matcher, Notification, Subscription,
    Thesaurus,
};
use tep_eval::{EvalConfig, Workload};

/// Deadline for draining a backlog; generous because CI machines can be
/// slow and a missed flush would abort the run.
pub const FLUSH_DEADLINE: Duration = Duration::from_secs(120);

/// Events published per burst before the producer waits for the drain.
///
/// Large enough that the workers' batch dequeue (`recv_batch`) stays
/// saturated, small enough that an event's queue wait is bounded by a
/// burst's drain time rather than the whole round's (§15 of DESIGN.md
/// covers the tuning).
pub const PUBLISH_BURST: usize = 128;

/// Most passes a noisy comparison gets before its best pass stands.
const MAX_PASSES: usize = 3;

/// Matching workers for every bench broker: the seed scenarios ran 2;
/// keep that on multi-core machines but never oversubscribe a smaller
/// one, where a second worker only adds context switches.
pub fn bench_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(2)
}

/// The gates' `seed_exact_broadcast`-shaped inputs: the first 8
/// subscriptions and 128 events of the tiny eval workload.
pub fn gate_workload() -> (Vec<Subscription>, Vec<Arc<Event>>) {
    let workload = Workload::generate(&EvalConfig::tiny());
    let subs = workload.subscriptions().iter().take(8).cloned().collect();
    let events = workload
        .events()
        .iter()
        .take(128)
        .cloned()
        .map(Arc::new)
        .collect();
    (subs, events)
}

/// One theme tag per thesaurus domain (each domain's first top term):
/// the theming of the `seed_thematic_broadcast` scenario.
pub fn domain_tags() -> Vec<String> {
    let th = Thesaurus::eurovoc_like();
    Domain::ALL
        .iter()
        .map(|d| th.top_terms(*d)[0].as_str().to_string())
        .collect()
}

/// [`gate_workload`] with every subscription and event carrying
/// [`domain_tags`], so a thematic matcher tests each pair under the
/// `seed_thematic_broadcast` theme.
pub fn thematic_gate_workload() -> (Vec<Subscription>, Vec<Arc<Event>>) {
    let tags = domain_tags();
    let (subs, events) = gate_workload();
    let subs = subs
        .iter()
        .map(|s| s.with_theme_tags(tags.clone()))
        .collect();
    let events = events
        .iter()
        .map(|e| Arc::new(e.with_theme_tags(tags.clone())))
        .collect();
    (subs, events)
}

/// Publishes every event once, unpaced, and waits for the drain: the
/// untimed warm-up round that grows semantic caches and scratch buffers
/// before any timed window.
pub fn publish_round(broker: &Broker, events: &[Arc<Event>]) {
    for e in events {
        broker.publish_arc(Arc::clone(e)).expect("publish");
    }
    broker.flush_timeout(FLUSH_DEADLINE).expect("flush");
}

/// Publishes `events` `rounds` times as a paced producer. Queue wait
/// under one unbounded burst is ~half the whole backlog's drain time, so
/// a mega-burst would measure the burst size instead of the pipeline;
/// bounded bursts keep the dequeue batching exercised while the wait
/// histogram reflects per-event latency (see DESIGN.md §15).
pub fn publish_paced(broker: &Broker, events: &[Arc<Event>], rounds: usize) {
    for _ in 0..rounds {
        for burst in events.chunks(PUBLISH_BURST) {
            for e in burst {
                broker.publish_arc(Arc::clone(e)).expect("publish");
            }
            broker.flush_timeout(FLUSH_DEADLINE).expect("flush");
        }
    }
}

/// A broker with a gate's subscriptions registered. Dropping it drains
/// every subscriber channel and closes the broker.
pub struct Rig {
    /// The broker under measurement.
    pub broker: Broker,
    receivers: Vec<Receiver<Notification>>,
}

impl Rig {
    /// Starts a broker on `matcher` and subscribes `subs`.
    pub fn start<M>(matcher: Arc<M>, config: BrokerConfig, subs: &[Subscription]) -> Rig
    where
        M: Matcher + Send + Sync + 'static + ?Sized,
    {
        let broker = Broker::start(matcher, config);
        let receivers = subs
            .iter()
            .map(|s| broker.subscribe(s.clone()).expect("subscribe").1)
            .collect();
        Rig { broker, receivers }
    }

    /// Discards every queued notification.
    pub fn drain(&self) {
        for rx in &self.receivers {
            while rx.try_recv().is_ok() {}
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.drain();
        self.broker.close();
    }
}

/// One warmed, paced throughput measurement on a fresh [`Rig`] over
/// `matcher`; returns events/sec over the `rounds` timed rounds.
pub fn measure_throughput<M>(
    matcher: Arc<M>,
    config: BrokerConfig,
    subs: &[Subscription],
    events: &[Arc<Event>],
    rounds: usize,
) -> f64
where
    M: Matcher + Send + Sync + 'static + ?Sized,
{
    let rig = Rig::start(matcher, config, subs);
    publish_round(&rig.broker, events);
    let start = Instant::now();
    publish_paced(&rig.broker, events, rounds);
    (events.len() * rounds) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Runs `pass` up to three times and keeps the pass with the lowest
/// score, stopping at the first score within `ceiling`. A gate bounds a
/// true cost from above, so any clean window suffices and one noisy
/// window cannot fail the run.
pub fn lowest_of_passes<T>(ceiling: f64, mut pass: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut best = pass();
    for _ in 1..MAX_PASSES {
        if best.0 <= ceiling {
            break;
        }
        let next = pass();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

/// The kept pass of an [`interleaved_ab`] comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbResult {
    /// Best off-side throughput of the kept pass (events/sec).
    pub off: f64,
    /// Best on-side throughput of the kept pass (events/sec).
    pub on: f64,
    /// `1 - on/off`; negative when the on side happened to win.
    pub overhead: f64,
}

/// Interleaved off/on comparison: each pass alternates `measure(false)`
/// and `measure(true)` `trials` times, so drift (thermal, competing
/// load) hits both sides equally, and keeps each side's best as the
/// stable point estimate. Passes over `max_overhead` are re-measured
/// through [`lowest_of_passes`].
pub fn interleaved_ab(
    trials: usize,
    max_overhead: f64,
    mut measure: impl FnMut(bool) -> f64,
) -> AbResult {
    let (overhead, (off, on)) = lowest_of_passes(max_overhead, || {
        let (mut off, mut on) = (0.0f64, 0.0f64);
        for _ in 0..trials.max(1) {
            off = off.max(measure(false));
            on = on.max(measure(true));
        }
        (1.0 - on / off.max(1e-9), (off, on))
    });
    AbResult { off, on, overhead }
}

/// Counts the allocations `window` performs on a fresh exact-matcher
/// [`Rig`] that `warm` has grown to its steady-state footprint. Start-up
/// and warm-up run inside [`crate::alloc::count_window`]'s lock but
/// before its count; the rig is handed back so the caller can inspect
/// what the window did.
pub fn steady_allocs(
    config: BrokerConfig,
    subs: &[Subscription],
    warm: impl FnOnce(&Rig),
    window: impl FnOnce(&Rig),
) -> (u64, Arc<Rig>) {
    let mut kept = None;
    let allocs = crate::alloc::count_window(
        || {
            let rig = Arc::new(Rig::start(Arc::new(ExactMatcher::new()), config, subs));
            warm(&rig);
            kept = Some(Arc::clone(&rig));
            rig
        },
        |rig| window(rig),
    );
    (allocs, kept.expect("count_window runs its setup"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs [`interleaved_ab`] against a scripted measurement that hands
    /// out `script` in call order; returns the result and which side
    /// each call measured.
    fn scripted_ab(script: &[f64], trials: usize, ceiling: f64) -> (AbResult, Vec<bool>) {
        let mut calls = Vec::new();
        let result = interleaved_ab(trials, ceiling, |on| {
            calls.push(on);
            script[calls.len() - 1]
        });
        (result, calls)
    }

    #[test]
    fn each_side_keeps_its_best_of_n() {
        let (result, calls) = scripted_ab(&[90.0, 99.0, 100.0, 97.0, 95.0, 98.0], 3, 0.02);
        assert_eq!(calls, [false, true, false, true, false, true]);
        assert_eq!(result.off, 100.0);
        assert_eq!(result.on, 99.0);
        assert!((result.overhead - 0.01).abs() < 1e-12);
    }

    #[test]
    fn stops_after_the_first_pass_under_the_ceiling() {
        // Pass 1: 10% over a 5% ceiling; pass 2: 2%, so no third pass.
        let script = [100.0, 90.0, 100.0, 98.0, 100.0, 100.0];
        let (result, calls) = scripted_ab(&script, 1, 0.05);
        assert_eq!(calls.len(), 4, "two passes of one trial per side");
        assert_eq!((result.off, result.on), (100.0, 98.0));
    }

    #[test]
    fn runs_at_most_three_passes_and_keeps_the_lowest_overhead() {
        // Every pass is over a 1% ceiling: 10%, 5%, 20%.
        let script = [100.0, 90.0, 100.0, 95.0, 100.0, 80.0, 100.0, 100.0];
        let (result, calls) = scripted_ab(&script, 1, 0.01);
        assert_eq!(calls.len(), 6, "three passes, then the best stands");
        assert_eq!((result.off, result.on), (100.0, 95.0));
        assert!((result.overhead - 0.05).abs() < 1e-12);
    }
}

//! Building the broker stack and driving it from one load thread that
//! publishes and collects notifications.

use crate::procfs;
use crate::trace::{ProbeCounts, Probes, TracedMatcher, TracedMeasure};
use crate::workload::{Inputs, Kind, CHURN_EVERY, CHURN_PERIOD};
use crossbeam::channel::TryRecvError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tep::broker::SubscriptionId;
use tep::prelude::{
    Broker, BrokerConfig, BrokerStats, CacheStats, DistributionalSpace, Event, ExactMatcher,
    InvertedIndex, Matcher, MatcherConfig, Notification, ParametricVectorSpace,
    ProbabilisticMatcher, StageLatencies, Subscription, ThematicEsaMeasure,
};
use tep::semantics::CachedMeasure;

type Receiver = crossbeam::channel::Receiver<Notification>;

/// Copies of each event in the publish ring. A notification names its
/// event by the address of the `Arc<Event>` it carries, so each publish
/// of an event within this many rounds uses its own allocation.
const COPIES: usize = 4;

/// Deadline for draining the broker after a phase.
const FLUSH_DEADLINE: Duration = Duration::from_secs(60);

/// Phases report rates and latencies per window of this length, so that
/// one stall on a shared machine moves one window, not the phase.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Publishes between two sweeps of the subscriber channels when the load
/// thread does not wait for a due time. Far fewer than a channel holds,
/// so no channel fills up between sweeps.
const SWEEP_EVERY: u64 = 64;

/// Matching workers: one per core, at most two.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A count that a Poisson process with this mean stays below but for a
/// chance of about one in a billion. Vectors sized by it never double
/// while they fill, so their size does not swing the peak RSS.
pub fn poisson_bound(mean: f64) -> usize {
    (mean + 6.0 * mean.sqrt()) as usize + 16
}

/// Wall time of each set-up part, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub index_s: f64,
    pub space_s: f64,
    pub broker_s: f64,
}

/// A running broker with its subscribers.
pub struct Stack {
    pub pvsm: Arc<ParametricVectorSpace>,
    pub broker: Broker,
    pub ids: Vec<SubscriptionId>,
    pub receivers: Vec<Receiver>,
    pub probes: Option<Arc<Probes>>,
    pub setup: SetupTimes,
    /// Subscribe and unsubscribe call durations, nanoseconds.
    pub subscribe_ns: Vec<u64>,
    pub unsubscribe_ns: Vec<u64>,
    /// Subscribe/unsubscribe calls made and those that failed.
    pub writes: u64,
    pub failed_writes: u64,
    /// Publish calls that returned an error.
    pub failed_publishes: u64,
    churn_cursor: usize,
    churn_slot: usize,
}

fn seconds(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Builds the stack from the generated corpus up to a broker holding
/// every subscription: index, distributional space and PVSM, matcher,
/// `Broker::start` and all `subscribe` calls.
pub fn build(inputs: &Inputs, traced: bool) -> Stack {
    let t0 = Instant::now();
    let index = InvertedIndex::build(&inputs.corpus);
    let t1 = Instant::now();
    let pvsm = Arc::new(ParametricVectorSpace::new(DistributionalSpace::new(index)));
    let t2 = Instant::now();
    let probes = traced.then(|| Arc::new(Probes::default()));
    let matcher = make_matcher(inputs.kind, &pvsm, probes.clone());
    let config = BrokerConfig::default()
        .with_workers(worker_count())
        .with_delivery_threshold(0.0)
        .with_routing_policy(inputs.kind.routing());
    let config = BrokerConfig {
        notification_capacity: inputs.kind.notification_capacity(),
        ..config
    };
    let broker = Broker::start(matcher, config);
    let mut stack = Stack {
        pvsm,
        broker,
        ids: Vec::with_capacity(inputs.subscribers.len()),
        receivers: Vec::with_capacity(inputs.subscribers.len()),
        probes,
        setup: SetupTimes::default(),
        subscribe_ns: Vec::with_capacity(inputs.subscribers.len()),
        unsubscribe_ns: Vec::new(),
        writes: 0,
        failed_writes: 0,
        failed_publishes: 0,
        churn_cursor: 0,
        churn_slot: 0,
    };
    for s in &inputs.subscribers {
        let (id, rx) = stack
            .subscribe(Arc::clone(&s.subscription))
            .expect("subscribe on a fresh broker");
        stack.ids.push(id);
        stack.receivers.push(rx);
    }
    let t3 = Instant::now();
    stack.setup = SetupTimes {
        total_s: seconds(t0, t3),
        index_s: seconds(t0, t1),
        space_s: seconds(t1, t2),
        broker_s: seconds(t2, t3),
    };
    stack
}

/// The broker's matcher for `kind`; under tracing, the same matcher with
/// the wrappers of [`crate::trace`] around it and its measure.
fn make_matcher(
    kind: Kind,
    pvsm: &Arc<ParametricVectorSpace>,
    probes: Option<Arc<Probes>>,
) -> Arc<dyn Matcher> {
    let measure = || CachedMeasure::new(ThematicEsaMeasure::new(Arc::clone(pvsm)));
    match (kind.thematic(), probes) {
        (true, None) => Arc::new(ProbabilisticMatcher::new(measure(), MatcherConfig::top1())),
        (true, Some(p)) => Arc::new(TracedMatcher::new(
            ProbabilisticMatcher::new(
                TracedMeasure::new(measure(), Arc::clone(&p)),
                MatcherConfig::top1(),
            ),
            p,
        )),
        (false, None) => Arc::new(ExactMatcher::new()),
        (false, Some(p)) => Arc::new(TracedMatcher::new(ExactMatcher::new(), p)),
    }
}

impl Stack {
    fn subscribe(&mut self, s: Arc<Subscription>) -> Option<(SubscriptionId, Receiver)> {
        let start = Instant::now();
        let result = self.broker.subscribe_arc(s);
        self.subscribe_ns.push(nanos(start.elapsed()));
        self.writes += 1;
        if result.is_err() {
            self.failed_writes += 1;
        }
        result.ok()
    }

    fn unsubscribe(&mut self, id: SubscriptionId) {
        let start = Instant::now();
        let existed = self.broker.unsubscribe(id);
        self.unsubscribe_ns.push(nanos(start.elapsed()));
        self.writes += 1;
        if !existed {
            self.failed_writes += 1;
        }
    }

    /// Replaces the next churning subscriber by the same predicates under
    /// fresh theme tags; returns its slot and new channel.
    fn churn_step(&mut self, inputs: &Inputs, churn_slots: &[usize]) -> Option<(usize, Receiver)> {
        let slot = churn_slots[self.churn_slot % churn_slots.len()];
        self.churn_slot += 1;
        let tags = &inputs.churn_themes[self.churn_cursor % inputs.churn_themes.len()];
        self.churn_cursor += 1;
        self.unsubscribe(self.ids[slot]);
        let fresh = inputs.subscribers[slot].subscription.with_theme_tags(tags);
        let (id, rx) = self.subscribe(Arc::new(fresh))?;
        self.ids[slot] = id;
        Some((slot, rx))
    }

    fn publish(&mut self, ring: &Ring, slot: usize) {
        if self
            .broker
            .publish_arc(Arc::clone(&ring.copies[slot]))
            .is_err()
        {
            self.failed_publishes += 1;
        }
    }

    /// Unsubscribes everyone, timed like churn unsubscribes.
    pub fn unsubscribe_all(&mut self) {
        for id in std::mem::take(&mut self.ids) {
            self.unsubscribe(id);
        }
    }
}

/// What the collector does with each notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Keep `(slot, event, score)` for the correctness checks.
    Record,
    /// Keep the latency from the publish's due time.
    Latency,
    /// Count only.
    Count,
}

/// What the collector gathered in one phase.
#[derive(Debug, Default)]
pub struct Collected {
    pub records: Vec<(u32, u32, f64)>,
    /// Latency of each notification in nanoseconds, by the [`WINDOW`]
    /// its event was due in. Many small vectors rather than one large
    /// one, so that growing them does not swing the peak RSS.
    pub latencies_ns: BTreeMap<u64, Vec<u32>>,
    pub received: u64,
    pub cpu_ns: u64,
    pub wall_ns: u64,
}

/// The publish ring: `COPIES` allocations per event, their addresses, and
/// the due time of each copy's latest publish.
pub struct Ring {
    copies: Vec<Arc<Event>>,
    slot_of: HashMap<usize, u32>,
    due_ns: Vec<AtomicU64>,
    order: Vec<usize>,
}

impl Ring {
    pub fn new(events: &[Event], order: &[usize]) -> Ring {
        let copies: Vec<Arc<Event>> = events
            .iter()
            .flat_map(|e| (0..COPIES).map(move |_| Arc::new(e.clone())))
            .collect();
        let slot_of = copies
            .iter()
            .enumerate()
            .map(|(i, a)| (Arc::as_ptr(a) as usize, i as u32))
            .collect();
        let due_ns = (0..copies.len()).map(|_| AtomicU64::new(0)).collect();
        Ring {
            copies,
            slot_of,
            due_ns,
            order: order.to_vec(),
        }
    }

    /// The copy to use for the `k`-th publish of a phase: events in the
    /// seeded order, each round on the next copy.
    fn slot(&self, k: u64) -> usize {
        let n = self.order.len() as u64;
        let event = self.order[(k % n) as usize];
        let round = ((k / n) % COPIES as u64) as usize;
        event * COPIES + round
    }
}

/// Events processed and broker CPU spent in one [`WINDOW`] of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall_s: f64,
    pub processed: u64,
    pub broker_cpu_ns: u64,
}

/// Marks window boundaries from the load thread.
struct Windows {
    next: Duration,
    at: Instant,
    processed: u64,
    cpu: HashMap<u64, (String, u64)>,
    done: Vec<Window>,
}

impl Windows {
    fn start(broker: &Broker, origin: Instant) -> Windows {
        Windows {
            next: WINDOW,
            at: origin,
            processed: broker.stats().processed,
            cpu: procfs::thread_cpu_ns("tep-broker"),
            done: Vec::new(),
        }
    }

    /// Closes the current window if `elapsed` passed its end.
    fn tick(&mut self, broker: &Broker, elapsed: Duration) {
        if elapsed < self.next {
            return;
        }
        self.next = elapsed + WINDOW;
        let now = Instant::now();
        let processed = broker.stats().processed;
        let cpu = procfs::thread_cpu_ns("tep-broker");
        self.done.push(Window {
            wall_s: seconds(self.at, now),
            processed: processed - self.processed,
            broker_cpu_ns: procfs::cpu_delta_ns(&self.cpu, &cpu, |_| true),
        });
        (self.at, self.processed, self.cpu) = (now, processed, cpu);
    }
}

/// Counters of one phase, as deltas.
#[derive(Debug, Default)]
pub struct Phase {
    pub wall_s: f64,
    /// Full windows of the publishing part of the phase.
    pub windows: Vec<Window>,
    pub published: u64,
    pub stats: BrokerStats,
    pub cache: CacheStats,
    pub pvsm_misses: u64,
    pub stages: StageLatencies,
    pub worker_cpu_ns: u64,
    pub collected: Collected,
    pub gen_lag_ns: Vec<u64>,
    pub publish_ns: Vec<u64>,
    pub probes: ProbeCounts,
    /// Whether `published == processed` held after the drain.
    pub drained: bool,
}

/// How the publisher paces one phase.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Every event once, with churn only at drained barriers, so the
    /// delivered set is deterministic.
    OnePass,
    /// Closed loop for this long: `publish` blocks on a full queue.
    Saturate(Duration),
    /// Open loop at `rate` events/s for this long, arrival times drawn
    /// from the seed.
    Fixed(f64, Duration, u64),
}

fn stats_delta(after: &BrokerStats, before: &BrokerStats) -> BrokerStats {
    BrokerStats {
        published: after.published - before.published,
        processed: after.processed - before.processed,
        match_tests: after.match_tests - before.match_tests,
        notifications: after.notifications - before.notifications,
        dropped_full: after.dropped_full - before.dropped_full,
        dropped_disconnected: after.dropped_disconnected - before.dropped_disconnected,
        quarantined: after.quarantined - before.quarantined,
        rejected_publishes: after.rejected_publishes - before.rejected_publishes,
        routing_skipped: after.routing_skipped - before.routing_skipped,
        covered_skips: after.covered_skips - before.covered_skips,
        shed_deadline: after.shed_deadline - before.shed_deadline,
        shed_load: after.shed_load - before.shed_load,
        breaker_open: after.breaker_open - before.breaker_open,
        ..*after
    }
}

fn cache_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        ..*after
    }
}

/// Runs one phase. This thread is the whole load side: it publishes and,
/// between publishes, sweeps the subscriber channels. At a fixed rate it
/// sweeps instead of sleeping until the next event is due, so neither a
/// timer nor a second load thread sits between a due time and its
/// publish, or between a delivery and its receipt.
pub fn run_phase(stack: &mut Stack, inputs: &Inputs, ring: &Ring, pace: Pace, mode: Mode) -> Phase {
    let churn_slots = inputs.churn_slots();
    let churning = !churn_slots.is_empty();
    // Phase time of the next churn step of a timed phase.
    let mut next_churn = if churning {
        CHURN_PERIOD
    } else {
        Duration::MAX
    };
    let stats0 = stack.broker.stats();
    let stages0 = stack.broker.stage_latencies();
    let pvsm0 = stack.pvsm.cache_stats().total().misses;
    let probes0 = stack
        .probes
        .as_ref()
        .map(|p| p.counts())
        .unwrap_or_default();
    let cpu0 = procfs::thread_cpu_ns("tep-broker");
    let origin = Instant::now();
    let mut receivers = std::mem::take(&mut stack.receivers);
    let mut collector = Collector::new(&mut receivers, mode, ring, origin);
    let mut gen_lag_ns = Vec::new();
    let mut publish_ns = Vec::new();
    let mut windows = Windows::start(&stack.broker, origin);
    let mut k = 0u64;
    match pace {
        Pace::OnePass => {
            while k < ring.order.len() as u64 {
                if churning && k > 0 && k.is_multiple_of(CHURN_EVERY) {
                    drain(stack, &mut collector);
                    churn(stack, inputs, &churn_slots, &mut collector);
                }
                stack.publish(ring, ring.slot(k));
                k += 1;
                if k.is_multiple_of(SWEEP_EVERY) {
                    collector.sweep();
                }
            }
        }
        Pace::Saturate(length) => {
            let end = origin + length;
            loop {
                if k.is_multiple_of(SWEEP_EVERY) {
                    let now = Instant::now();
                    windows.tick(&stack.broker, now - origin);
                    if now >= end {
                        break;
                    }
                    collector.sweep();
                    let at = now - origin;
                    churn_until(
                        at,
                        &mut next_churn,
                        stack,
                        inputs,
                        &churn_slots,
                        &mut collector,
                    );
                }
                stack.publish(ring, ring.slot(k));
                k += 1;
            }
        }
        Pace::Fixed(rate, length, seed) => {
            let expected = poisson_bound(rate * length.as_secs_f64());
            gen_lag_ns.reserve(expected);
            publish_ns.reserve(expected);
            // Independent publishers: Poisson arrivals, exponential
            // gaps drawn from the phase's seed.
            let mut gaps = SmallRng::seed_from_u64(seed);
            let mut due_s = 0.0;
            loop {
                due_s += -(1.0 - gaps.gen::<f64>()).ln() / rate;
                let due = Duration::from_secs_f64(due_s);
                if due >= length {
                    break;
                }
                idle_until(
                    due,
                    origin,
                    &mut next_churn,
                    stack,
                    inputs,
                    &churn_slots,
                    &mut collector,
                );
                let slot = ring.slot(k);
                ring.due_ns[slot].store(nanos(due), Ordering::Relaxed);
                let start = origin.elapsed();
                stack.publish(ring, slot);
                let end = origin.elapsed();
                gen_lag_ns.push(nanos(start.saturating_sub(due)));
                publish_ns.push(nanos(end - start));
                windows.tick(&stack.broker, end);
                k += 1;
            }
            // The phase lasts `length`, and its last window closes then.
            idle_until(
                length,
                origin,
                &mut next_churn,
                stack,
                inputs,
                &churn_slots,
                &mut collector,
            );
            windows.tick(&stack.broker, origin.elapsed());
        }
    }
    drain(stack, &mut collector);
    let collected = collector.finish();
    let wall_s = origin.elapsed().as_secs_f64();
    stack.receivers = receivers;

    let cpu1 = procfs::thread_cpu_ns("tep-broker");
    let stats1 = stack.broker.stats();
    let stats = stats_delta(&stats1, &stats0);
    Phase {
        wall_s,
        windows: windows.done,
        published: k,
        cache: cache_delta(&stats1.semantic_cache, &stats0.semantic_cache),
        pvsm_misses: stack.pvsm.cache_stats().total().misses - pvsm0,
        stages: stack.broker.stage_latencies().delta_since(&stages0),
        worker_cpu_ns: procfs::cpu_delta_ns(&cpu0, &cpu1, procfs::is_broker_worker),
        collected,
        gen_lag_ns,
        publish_ns,
        probes: stack
            .probes
            .as_ref()
            .map(|p| p.counts().since(&probes0))
            .unwrap_or_default(),
        drained: stats1.published == stats1.processed && stats.published == k,
        stats,
    }
}

/// Waits until the broker has processed every accepted event, sweeping
/// meanwhile so that no channel fills up, then takes what is left.
fn drain(stack: &Stack, collector: &mut Collector<'_>) {
    let deadline = Instant::now() + FLUSH_DEADLINE;
    loop {
        if collector.sweep() == 0 {
            let s = stack.broker.stats();
            if s.processed >= s.published || Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
    }
    stack.broker.flush_timeout(FLUSH_DEADLINE).expect("drain");
    while collector.sweep() > 0 {}
}

/// Sweeps, and churns when a step is due, until phase time `until`.
fn idle_until(
    until: Duration,
    origin: Instant,
    next_churn: &mut Duration,
    stack: &mut Stack,
    inputs: &Inputs,
    churn_slots: &[usize],
    collector: &mut Collector<'_>,
) {
    loop {
        let at = origin.elapsed();
        if at >= until {
            return;
        }
        churn_until(at, next_churn, stack, inputs, churn_slots, collector);
        if collector.sweep() == 0 {
            std::thread::yield_now();
        }
    }
}

/// Churns once for each [`CHURN_PERIOD`] of the phase up to `at` not yet
/// churned for.
fn churn_until(
    at: Duration,
    next: &mut Duration,
    stack: &mut Stack,
    inputs: &Inputs,
    churn_slots: &[usize],
    collector: &mut Collector<'_>,
) {
    while at >= *next {
        churn(stack, inputs, churn_slots, collector);
        *next += CHURN_PERIOD;
    }
}

/// Churns the next churning subscriber; the collector sweeps its old
/// channel until the broker lets go of it.
fn churn(stack: &mut Stack, inputs: &Inputs, churn_slots: &[usize], collector: &mut Collector<'_>) {
    if let Some((slot, rx)) = stack.churn_step(inputs, churn_slots) {
        collector.replace(slot, rx);
    }
}

/// Takes notifications off the subscriber channels, one sweep at a time.
struct Collector<'a> {
    receivers: &'a mut [Receiver],
    /// Channels replaced by churn, swept until their sender is gone.
    retiring: Vec<(usize, Receiver)>,
    buf: Vec<Notification>,
    mode: Mode,
    ring: &'a Ring,
    origin: Instant,
    cpu0: u64,
    out: Collected,
}

impl<'a> Collector<'a> {
    fn new(
        receivers: &'a mut [Receiver],
        mode: Mode,
        ring: &'a Ring,
        origin: Instant,
    ) -> Collector<'a> {
        Collector {
            receivers,
            retiring: Vec::new(),
            buf: Vec::with_capacity(256),
            mode,
            ring,
            origin,
            cpu0: procfs::own_cpu_ns(),
            out: Collected::default(),
        }
    }

    fn replace(&mut self, slot: usize, rx: Receiver) {
        let old = std::mem::replace(&mut self.receivers[slot], rx);
        self.retiring.push((slot, old));
    }

    /// One pass over every channel; returns the notifications it took.
    fn sweep(&mut self) -> usize {
        let mut got = 0usize;
        let (buf, out) = (&mut self.buf, &mut self.out);
        let (mode, ring, origin) = (self.mode, self.ring, self.origin);
        for (slot, rx) in self.receivers.iter().enumerate() {
            if rx.drain_into(buf, 256).is_ok() {
                got += buf.len();
                handle(slot, buf, out, mode, ring, origin);
            }
        }
        self.retiring
            .retain(|(slot, rx)| match rx.drain_into(buf, 256) {
                Ok(n) => {
                    got += n;
                    handle(*slot, buf, out, mode, ring, origin);
                    true
                }
                Err(TryRecvError::Empty) => true,
                Err(_) => false,
            });
        got
    }

    fn finish(mut self) -> Collected {
        self.out.cpu_ns = procfs::own_cpu_ns().saturating_sub(self.cpu0);
        self.out.wall_ns = nanos(self.origin.elapsed());
        self.out
    }
}

/// Records the notifications in `buf`, taken from subscriber `slot`.
fn handle(
    slot: usize,
    buf: &mut Vec<Notification>,
    out: &mut Collected,
    mode: Mode,
    ring: &Ring,
    origin: Instant,
) {
    out.received += buf.len() as u64;
    match mode {
        Mode::Count => {}
        Mode::Record => {
            for n in buf.iter() {
                let copy = ring.slot_of[&(Arc::as_ptr(&n.event) as usize)];
                let event = copy / COPIES as u32;
                out.records.push((slot as u32, event, n.score()));
            }
        }
        Mode::Latency => {
            let now = nanos(origin.elapsed());
            let window_ns = nanos(WINDOW);
            for n in buf.iter() {
                let copy = ring.slot_of[&(Arc::as_ptr(&n.event) as usize)];
                let due = ring.due_ns[copy as usize].load(Ordering::Relaxed);
                let latency = u32::try_from(now.saturating_sub(due)).unwrap_or(u32::MAX);
                out.latencies_ns
                    .entry(due / window_ns)
                    .or_default()
                    .push(latency);
            }
        }
    }
    buf.clear();
}

//! Worker threads, panic isolation, and the supervisor that respawns them.
//!
//! The failure model:
//!
//! * With [`crate::BrokerConfig::isolate_matcher_panics`] **on** (the
//!   default), every subscription × event match test runs under
//!   `catch_unwind`. A panicking matcher poisons neither the worker
//!   thread nor the event's other subscriptions; the panicking pair is
//!   retried inline up to the per-event attempt budget and the event is
//!   quarantined to the dead-letter queue if the budget runs out.
//! * With isolation **off**, a matcher panic kills the worker thread. The
//!   supervisor notices, recovers the in-flight event from the worker's
//!   slot (re-enqueueing or quarantining it), and respawns a replacement
//!   worker. Delivery becomes at-least-once for the recovered event:
//!   notifications already sent before the crash may repeat.
//!
//! Either way the broker's liveness invariant holds: every accepted event
//! is eventually counted in `processed` (delivered, dropped, or
//! quarantined), so [`crate::Broker::flush_timeout`] terminates.

use crate::broker::{CostState, Registration, Shared, SubscriptionId};
use crate::config::{RoutingPolicy, SubscriberPolicy};
use crate::explain::{CacheTemperature, MatchExplanation, MatchOutcome};
use crate::notification::Notification;
use crate::quality::QualityState;
use crate::stats::{nanos_between, WorkerShard};
use crate::subindex::{DispatchScratch, IndexEntry};
use crossbeam::channel::{Receiver, TryRecvError, TrySendError};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tep_events::{Event, Subscription};
use tep_matcher::{MatchResult, Matcher};

/// How often the supervisor polls its workers for panic deaths.
const SUPERVISOR_POLL: Duration = Duration::from_millis(1);

/// Maximum jobs a worker drains from the ingress queue per `recv_batch`:
/// one lock acquisition amortized over up to this many events, plus one
/// wake call for the blocked publishers it frees — none when no
/// publisher is parked.
/// A crashed worker's whole undispatched batch is re-enqueued or
/// quarantined.
const DEQUEUE_BATCH: usize = 32;

/// A unit of work on the ingress queue: one event plus how many matching
/// attempts it has already consumed.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    pub(crate) event: Arc<Event>,
    pub(crate) attempts: u32,
    /// Publish-order sequence number, stable across retries; keys the
    /// event's spans and the 1-in-k samplers.
    pub(crate) seq: u64,
    /// When this job entered (or re-entered) the ingress queue; the
    /// queue-wait histogram measures from here to the worker's dequeue.
    pub(crate) enqueued_at: Instant,
    /// The event's root (publish) span id, when the event was sampled
    /// for causal tracing; `None` means no spans are recorded for it.
    pub(crate) span: Option<u64>,
    /// Publish deadline from [`crate::PublishOptions`]; consulted only by
    /// the overload controller's shedding decision.
    pub(crate) deadline: Option<Instant>,
    /// Scheduling priority from [`crate::PublishOptions`].
    pub(crate) priority: u8,
}

impl Job {
    pub(crate) fn new(
        event: Arc<Event>,
        seq: u64,
        span: Option<u64>,
        options: crate::PublishOptions,
    ) -> Job {
        Job {
            event,
            attempts: 0,
            seq,
            enqueued_at: Instant::now(),
            span,
            deadline: options.deadline,
            priority: options.priority,
        }
    }
}

/// An event quarantined after exhausting its match attempts.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The quarantined event.
    pub event: Arc<Event>,
    /// Match attempts consumed before quarantine.
    pub attempts: u32,
}

/// Bounded FIFO of quarantined events; when full, the oldest entry is
/// evicted to admit the newest.
#[derive(Debug)]
pub(crate) struct DeadLetterQueue {
    entries: Mutex<VecDeque<DeadLetter>>,
    capacity: usize,
}

impl DeadLetterQueue {
    pub(crate) fn new(capacity: usize) -> DeadLetterQueue {
        DeadLetterQueue {
            entries: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    fn push(&self, letter: DeadLetter) {
        let mut entries = self.entries.lock();
        if entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(letter);
    }

    pub(crate) fn snapshot(&self) -> Vec<DeadLetter> {
        self.entries.lock().iter().cloned().collect()
    }

    pub(crate) fn drain(&self) -> Vec<DeadLetter> {
        self.entries.lock().drain(..).collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

/// Quarantines an event and counts it as processed, so `flush` never
/// waits on an event that will not be matched again.
fn quarantine(shared: &Shared, event: Arc<Event>, attempts: u32) {
    shared.dead_letters.push(DeadLetter { event, attempts });
    shared.stats.quarantined.fetch_add(1, Ordering::Relaxed);
    shared.stats.processed.fetch_add(1, Ordering::Relaxed);
}

/// One supervised worker thread.
struct Worker {
    /// `None` once the thread has exited and been joined.
    handle: Option<JoinHandle<()>>,
    /// The worker's dequeued-but-unfinished jobs, for crash recovery: the
    /// front entry is the one being matched, the rest are its batch's
    /// remainder. Only the worker pushes and pops; the supervisor drains
    /// it after a panic death.
    inflight: Arc<Mutex<VecDeque<Job>>>,
    /// Set by the worker as its very last action on a *normal* exit; a
    /// finished thread with this flag clear died to a panic.
    done: Arc<AtomicBool>,
}

fn spawn_worker<M>(
    index: usize,
    rx: &Receiver<Job>,
    shared: &Arc<Shared>,
    matcher: &Arc<M>,
    inflight: Arc<Mutex<VecDeque<Job>>>,
) -> Worker
where
    M: Matcher + Send + Sync + 'static + ?Sized,
{
    let done = Arc::new(AtomicBool::new(false));
    shared.stats.live_workers.fetch_add(1, Ordering::Relaxed);
    let handle = {
        let rx = rx.clone();
        let shared = Arc::clone(shared);
        let matcher = Arc::clone(matcher);
        let inflight = Arc::clone(&inflight);
        let done = Arc::clone(&done);
        std::thread::Builder::new()
            .name(format!("tep-broker-{index}"))
            .spawn(move || {
                let shard = shared.stats.shard(index);
                // Both scratch buffers are reused across events: the batch
                // amortizes the channel lock, the dispatch scratch caches
                // candidate plans and keeps the covering verdicts
                // allocation-free once its buffers have grown to the
                // index's size.
                let mut batch: Vec<Job> = Vec::with_capacity(DEQUEUE_BATCH);
                let mut scratch = DispatchScratch::new();
                loop {
                    // Drain the inflight deque first: it holds the batch
                    // remainder of a crashed predecessor when this worker
                    // is a respawn, and this worker's own batch otherwise.
                    loop {
                        // The job stays at the front of `inflight` while it
                        // is processed, so a panic death hands the current
                        // job *and* the batch remainder to the supervisor.
                        let Some(job) = inflight.lock().front().cloned() else {
                            break;
                        };
                        process_event(&shared, matcher.as_ref(), shard, &mut scratch, job);
                        inflight.lock().pop_front();
                    }
                    if rx.recv_batch(&mut batch, DEQUEUE_BATCH).is_err() {
                        break;
                    }
                    inflight.lock().extend(batch.drain(..));
                }
                shared.stats.live_workers.fetch_sub(1, Ordering::Relaxed);
                done.store(true, Ordering::Release);
            })
            .expect("spawn broker worker")
    };
    Worker {
        handle: Some(handle),
        inflight,
        done,
    }
}

/// The supervisor: spawns the initial worker pool, then polls for panic
/// deaths, recovers in-flight events, and respawns replacements until
/// shutdown completes (all workers exited normally after the queue
/// drained).
pub(crate) fn supervisor_loop<M>(
    shared: Arc<Shared>,
    matcher: Arc<M>,
    rx: Receiver<Job>,
    worker_count: usize,
) where
    M: Matcher + Send + Sync + 'static + ?Sized,
{
    let mut workers: Vec<Worker> = (0..worker_count)
        .map(|i| {
            // Pre-size the deque for a full batch so steady-state
            // `extend` never reallocates (zero-alloc hot-path guarantee).
            spawn_worker(
                i,
                &rx,
                &shared,
                &matcher,
                Arc::new(Mutex::new(VecDeque::with_capacity(DEQUEUE_BATCH))),
            )
        })
        .collect();
    let mut next_index = worker_count;
    // The load-state machine re-evaluates on the same poll loop: worst
    // observed queue fill (ingress or any subscriber channel) plus the
    // workers' queue-wait EWMA, every `tick_ms`.
    let overload_tick = shared
        .overload
        .as_ref()
        .map(|o| Duration::from_millis(o.config().tick_ms.max(1)));
    let mut last_overload = Instant::now();
    loop {
        if let Some(tick) = overload_tick {
            if last_overload.elapsed() >= tick {
                let overload = shared.overload.as_ref().expect("tick implies controller");
                let mut fill = rx.len() as f64 / shared.config.queue_capacity.max(1) as f64;
                let sub_capacity = shared.config.notification_capacity.max(1) as f64;
                for reg in shared.registry.read().values() {
                    fill = fill.max(reg.sender.len() as f64 / sub_capacity);
                }
                if let Some((from, to)) = overload.evaluate(fill) {
                    if to == crate::LoadState::Critical {
                        shared.fire_trigger("load_critical", || {
                            format!("load state {} -> critical (fill {fill:.3})", from.as_str())
                        });
                    }
                }
                last_overload = Instant::now();
            }
        }
        // The recorder's one clock: frames (and so the windowed series)
        // ride this poll loop — zero extra threads, nothing on the
        // dispatch path, and an idle broker keeps producing frames.
        if let Some(recorder) = &shared.recorder {
            if recorder.tick(Instant::now(), |w| shared.fill_frame(w)) {
                // Quality drift is derived (no event fires when an alert
                // appears), so poll it on the recorder's cadence; the
                // per-kind cooldown keeps a persistent drift from
                // storming the spool.
                if let Some(quality) = shared.quality.get() {
                    if recorder.trigger_armed("quality_drift") {
                        let report = quality.report();
                        if !report.drift.is_empty() {
                            shared.fire_trigger("quality_drift", || {
                                format!("{} drift alert(s) raised", report.drift.len())
                            });
                        }
                    }
                }
            }
        }
        let shutting_down = shared.shutdown.load(Ordering::Acquire);
        let mut all_exited = true;
        for worker in &mut workers {
            match &worker.handle {
                None => continue, // exited normally earlier
                Some(handle) if !handle.is_finished() => {
                    all_exited = false;
                    continue;
                }
                Some(_) => {}
            }
            let handle = worker.handle.take().expect("checked above");
            let join_panicked = handle.join().is_err();
            if !join_panicked && worker.done.load(Ordering::Acquire) {
                continue; // normal exit: the queue disconnected and drained
            }
            // Panic death: the worker never reached its normal epilogue.
            shared.stats.live_workers.fetch_sub(1, Ordering::Relaxed);
            shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            shared.fire_trigger("worker_panic", || {
                format!(
                    "worker thread died to an uncaught panic; {} live before respawn",
                    shared.stats.live_workers.load(Ordering::Relaxed)
                )
            });
            // Only the front job was mid-match when the worker died; it
            // is charged an attempt and re-enqueued (or quarantined). The
            // rest of its batch was never dispatched — the replacement
            // worker inherits the deque and processes it as-is, so a full
            // ingress queue can never force innocent jobs into quarantine.
            if let Some(job) = worker.inflight.lock().pop_front() {
                recover_job(&shared, job);
            }
            // Count the respawn *before* spawning the replacement so a
            // stats reader never observes the pool back at full strength
            // with the respawn counter still lagging.
            shared
                .stats
                .workers_respawned
                .fetch_add(1, Ordering::Relaxed);
            let inherited = Arc::clone(&worker.inflight);
            *worker = spawn_worker(next_index, &rx, &shared, &matcher, inherited);
            next_index += 1;
            all_exited = false;
        }
        if shutting_down && all_exited {
            return;
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
}

/// Puts a crashed worker's in-flight job back into circulation: re-enqueue
/// if it has attempt budget left and the broker is still accepting work,
/// quarantine otherwise.
fn recover_job(shared: &Shared, job: Job) {
    let attempts = job.attempts + 1;
    if attempts >= shared.config.max_match_attempts {
        quarantine(shared, job.event, attempts);
        return;
    }
    let requeue = Job {
        event: Arc::clone(&job.event),
        attempts,
        seq: job.seq,
        // Reset the clock: the queue-wait histogram measures time spent
        // queued, not the crashed attempt that preceded the requeue.
        enqueued_at: Instant::now(),
        span: job.span,
        deadline: job.deadline,
        priority: job.priority,
    };
    if shared.ingress.try_send(requeue).is_err() {
        // Broker closed or queue full: don't risk blocking the supervisor.
        quarantine(shared, job.event, attempts);
    }
}

/// Extracts a human-readable reason from a caught panic payload. Matcher
/// panics are almost always `panic!("message")` strings; anything else
/// degrades to a placeholder rather than losing the explanation.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Assembles one [`MatchExplanation`] from the test's context.
#[allow(clippy::too_many_arguments)]
fn explanation_for(
    shared: &Shared,
    job: &Job,
    id: SubscriptionId,
    reg: &Registration,
    score: f64,
    temperature: CacheTemperature,
    outcome: MatchOutcome,
    detail: Option<tep_matcher::MatchDetail>,
) -> MatchExplanation {
    MatchExplanation {
        seq: job.seq,
        subscription: id,
        score,
        threshold: shared.config.delivery_threshold,
        subscription_themes: reg.subscription.theme_tags().to_vec(),
        event_themes: job.event.theme_tags().to_vec(),
        temperature,
        outcome,
        detail,
    }
}

/// Per-event fan-out: hands one entry's verdict to every subscriber
/// behind the entry. Built once per event; it carries the hoisted
/// observer switches and the event's delivery accumulators.
struct FanOut<'a, M: ?Sized> {
    shared: &'a Shared,
    matcher: &'a M,
    shard: &'a WorkerShard,
    job: &'a Job,
    explain_ring: bool,
    quality: Option<&'a QualityState>,
    /// Subscribers the overload policy flagged for reaping.
    dead: Vec<SubscriptionId>,
}

impl<M: Matcher + ?Sized> FanOut<'_, M> {
    /// Permutes the entry's verdict into each member's predicate order
    /// (`FanoutMember::result_for`: members in the representative's order
    /// share the verdict's `Arc`) and hands the member's result to the
    /// observers — quality sampler, explain ring, per-subscriber
    /// explanation, cost, spans — and, above the threshold, to
    /// [`deliver`]. `verdict` is the entry's result (a tested hit, a twin
    /// hit, or a covering prune's no-match), or the panic reason when
    /// every attempt panicked. Deliver spans are chained from `start`:
    /// each member's span starts where the previous member's ended.
    /// `cost` carries the sampled entry's match nanoseconds, split evenly
    /// across the fan-out. Returns the summed deliver nanoseconds.
    fn fan_out(
        &mut self,
        entry: &IndexEntry,
        verdict: Result<&Arc<MatchResult>, &str>,
        temperature: CacheTemperature,
        mut start: Instant,
        match_span: Option<u64>,
        cost: Option<(&CostState, u64)>,
    ) -> u64 {
        let (shared, matcher, job) = (self.shared, self.matcher, self.job);
        let (score, mapped, delivering) = match verdict {
            Ok(r) => {
                let mapped = !r.is_empty();
                let delivering = mapped && r.is_match(shared.config.delivery_threshold);
                (r.score(), mapped, delivering)
            }
            Err(_) => (0.0, false, false),
        };
        let explain = |id, reg, outcome, detail| {
            explanation_for(shared, job, id, reg, score, temperature, outcome, detail)
        };
        let fan = entry.fanout();
        let match_share = cost.map_or(0, |(_, ns)| ns / fan.len().max(1) as u64);
        let mut deliver_total = 0u64;
        for member in fan.iter() {
            let (id, reg) = (member.id, &*member.reg);
            let entry_result = match verdict {
                Ok(result) => result,
                Err(reason) => {
                    if self.explain_ring {
                        let reason = reason.to_string();
                        let outcome = MatchOutcome::Panicked { reason };
                        shared.explain.push(explain(id, reg, outcome, None));
                    }
                    continue;
                }
            };
            // Shadow quality sampling: unsampled pairs add a hash and a
            // modulo. The broker's decision (`delivering`) is judged
            // against ground truth off the delivery path's critical data.
            if let Some(quality) = self.quality {
                if quality.should_sample(job.seq, id.0) {
                    let cache = matcher.cache_stats();
                    let lookups = cache.hits + cache.misses;
                    let hit_rate = if lookups == 0 {
                        0.0
                    } else {
                        cache.hits as f64 / lookups as f64
                    };
                    quality.record(&reg.subscription, &job.event, delivering, score, hit_rate);
                }
            }
            // Explanations are computed after the result, and only when
            // someone will read them.
            if !delivering {
                if self.explain_ring {
                    let result = member.result_for(entry_result);
                    let detail = matcher.explain_match(&reg.subscription, &job.event, &result);
                    let outcome = if mapped {
                        MatchOutcome::BelowThreshold
                    } else {
                        MatchOutcome::NoMapping
                    };
                    shared.explain.push(explain(id, reg, outcome, Some(detail)));
                }
                continue;
            }
            let result = member.result_for(entry_result);
            let detail = (self.explain_ring || reg.explain)
                .then(|| matcher.explain_match(&reg.subscription, &job.event, &result));
            let attached = reg
                .explain
                .then(|| Box::new(explain(id, reg, MatchOutcome::Delivered, detail.clone())));
            let notification = Notification {
                subscription: id,
                event: Arc::clone(&job.event),
                result,
                explanation: attached,
            };
            let admitted = deliver(shared, self.shard, id, reg, notification, &mut self.dead);
            let end = Instant::now();
            let deliver_ns = nanos_between(start, end);
            self.shard.stage.deliver.record_nanos(deliver_ns);
            deliver_total += deliver_ns;
            if let Some((cost, _)) = cost {
                cost.charge_subscriber(id.0, match_share, deliver_ns);
            }
            if let Some(parent) = match_span {
                shared.spans.record_new(
                    Some(parent),
                    job.seq,
                    "deliver",
                    start,
                    end,
                    vec![("admitted".to_string(), admitted.to_string())],
                );
            }
            if self.explain_ring {
                let outcome = if admitted {
                    MatchOutcome::Delivered
                } else {
                    MatchOutcome::DeliveryDropped
                };
                shared.explain.push(explain(id, reg, outcome, detail));
            }
            start = end;
        }
        deliver_total
    }
}

/// One instrumented match test: panic isolation with the per-event
/// attempt budget, per-attempt `match_tests` accounting, and
/// cache-temperature classification by sampling the matcher's
/// per-thread miss count around the call.
struct TestRun {
    outcome: Option<MatchResult>,
    match_start: Instant,
    match_end: Instant,
    temperature: CacheTemperature,
    last_panic: Option<String>,
    /// Attempt budget burned when every attempt panicked, else 0.
    exhausted: u32,
    /// Attempts executed (each counted in `match_tests`).
    tests_run: usize,
}

fn run_match_test<M>(
    shared: &Shared,
    matcher: &M,
    shard: &WorkerShard,
    subscription: &Subscription,
    approx: bool,
    job: &Job,
    degraded: tep_matcher::DegradedMatching,
) -> TestRun
where
    M: Matcher + ?Sized,
{
    // Approximate subscriptions are classified by sampling the matcher's
    // miss count for this thread around the call: a miss delta means the
    // test computed a projection (thematic-cold), no delta means warm
    // caches served it. The count is per thread, so another worker's
    // misses cannot relabel this test. Exact-only subscriptions skip the
    // sampling entirely.
    let miss_before = if approx {
        matcher.cache_miss_count()
    } else {
        0
    };
    let match_start = Instant::now();
    let mut last_panic: Option<String> = None;
    let mut tests_run = 0usize;
    let mut exhausted = 0u32;
    let outcome = if shared.config.isolate_matcher_panics {
        let budget = shared
            .config
            .max_match_attempts
            .saturating_sub(job.attempts)
            .max(1);
        let mut outcome = None;
        for _ in 0..budget {
            shard.match_tests.fetch_add(1, Ordering::Relaxed);
            tests_run += 1;
            match catch_unwind(AssertUnwindSafe(|| {
                matcher.match_event_degraded(subscription, &job.event, degraded)
            })) {
                Ok(r) => {
                    outcome = Some(r);
                    break;
                }
                Err(payload) => {
                    shard.worker_panics.fetch_add(1, Ordering::Relaxed);
                    last_panic = Some(panic_reason(payload.as_ref()));
                }
            }
        }
        if outcome.is_none() {
            exhausted = budget;
        }
        outcome
    } else {
        // Unisolated: a panic here unwinds through the worker loop and
        // kills the thread; the supervisor recovers the in-flight job.
        shard.match_tests.fetch_add(1, Ordering::Relaxed);
        tests_run += 1;
        Some(matcher.match_event_degraded(subscription, &job.event, degraded))
    };
    // Chain the timestamps: the match end doubles as the deliver start,
    // halving the clock reads on the hot path.
    let match_end = Instant::now();
    let match_nanos = nanos_between(match_start, match_end);
    let stage = &shard.stage;
    let temperature = if !approx {
        stage.match_exact.record_nanos(match_nanos);
        CacheTemperature::Exact
    } else if matcher.cache_miss_count() > miss_before {
        stage.match_thematic.record_nanos(match_nanos);
        CacheTemperature::ThematicCold
    } else {
        stage.match_cached.record_nanos(match_nanos);
        CacheTemperature::CacheWarm
    };
    TestRun {
        outcome,
        match_start,
        match_end,
        temperature,
        last_panic,
        exhausted,
        tests_run,
    }
}

/// Matches one event against its candidate **index entries** and fans
/// delivery out to each entry's subscriber list, honoring the routing
/// policy, panic isolation, covering, and the subscriber overload
/// policy. Increments `processed` exactly once.
///
/// Dispatch is entry-based: the subscription index hash-consed duplicate
/// subscriptions onto shared entries, so one match test against an
/// entry's representative serves its whole fan-out (match cost scales
/// with distinct subscriptions). With a covering-safe matcher the sweep
/// additionally prunes superset entries on a miss and short-circuits
/// equal-set twins on a hit (`covered_skips`). There is one dispatch
/// path: every entry verdict — a tested result, a twin's result, a
/// covering prune's no-match — reaches its members through
/// [`FanOut::fan_out`], which also feeds the observers (explain ring,
/// quality sampler, cost, spans) one record per candidate pair.
/// Installing an observer never changes what is tested or delivered.
///
/// Counters and stage timers go to the calling worker's `shard`;
/// `scratch` is the worker's candidate plan cache + covering verdict
/// state.
fn process_event<M>(
    shared: &Shared,
    matcher: &M,
    shard: &WorkerShard,
    scratch: &mut DispatchScratch,
    job: Job,
) where
    M: Matcher + ?Sized,
{
    // Stage 1 (queue wait): publish → this dequeue. Retried jobs record
    // one sample per pass, timed from their requeue.
    let dequeued = Instant::now();
    let queue_wait_nanos = nanos_between(job.enqueued_at, dequeued);
    shard.stage.queue_wait.record_nanos(queue_wait_nanos);
    // Overload control (one branch when off): feed the queue-wait EWMA,
    // then decide whether this event is shed at dequeue and at what
    // fidelity the survivors are matched. Shed events still count as
    // `processed` — the liveness invariant (`flush` terminates) must hold
    // under load shedding too.
    let mut degraded = tep_matcher::DegradedMatching::Full;
    if let Some(overload) = &shared.overload {
        overload.observe_queue_wait(queue_wait_nanos);
        if let Some(reason) = overload.shed_reason(job.deadline, job.priority, dequeued) {
            let counter = match reason {
                crate::ShedReason::Deadline => &shard.shed_deadline,
                crate::ShedReason::Load => &shard.shed_load,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            shard.processed.fetch_add(1, Ordering::Relaxed);
            if let Some(parent) = job.span {
                let now = Instant::now();
                shared.spans.record_new(
                    Some(parent),
                    job.seq,
                    "shed",
                    dequeued,
                    now,
                    vec![(
                        "reason".to_string(),
                        match reason {
                            crate::ShedReason::Deadline => "deadline".to_string(),
                            crate::ShedReason::Load => "load".to_string(),
                        },
                    )],
                );
            }
            return;
        }
        degraded = overload.degraded_mode();
    }
    // The worker's cached candidate plan for this event's routing key:
    // matching never holds the index lock, and the sweep borrows the
    // plan's entries instead of cloning them.
    let all_entries = match shared.config.routing_policy {
        RoutingPolicy::Broadcast => {
            shard.routed_broadcast.fetch_add(1, Ordering::Relaxed);
            true
        }
        RoutingPolicy::ThemeOverlap => {
            shard.routed_theme_overlap.fetch_add(1, Ordering::Relaxed);
            false
        }
    };
    let mut sweep = shared
        .index
        .collect_candidates(&job.event, all_entries, scratch);
    let plan = sweep.plan;
    let (total_subs, candidate_subs) = (plan.total_subs, plan.candidate_subs);
    // Skip accounting stays in *subscriber* units (as before the index):
    // every subscriber behind a non-candidate entry was skipped without a
    // match test.
    let routing_skipped = if all_entries {
        0usize
    } else {
        total_subs.saturating_sub(candidate_subs) as usize
    };
    if routing_skipped > 0 {
        shard
            .routing_skipped
            .fetch_add(routing_skipped as u64, Ordering::Relaxed);
    }
    // The route span covers dequeue → candidate snapshot and parents
    // every match test of the event; `None` for unsampled events keeps
    // the hot path to a branch per stage.
    let route_span = job.span.map(|parent| {
        shared.spans.record_new(
            Some(parent),
            job.seq,
            "route",
            dequeued,
            Instant::now(),
            vec![
                ("candidates".to_string(), candidate_subs.to_string()),
                ("routing_skipped".to_string(), routing_skipped.to_string()),
            ],
        )
    });
    // Observers see every candidate subscriber × event pair, so when any
    // is installed a non-delivering entry's fan-out is walked too; the
    // switch is hoisted once per event and never changes what is tested.
    let mut fan = FanOut {
        shared,
        matcher,
        shard,
        job: &job,
        explain_ring: shared.explain.is_enabled(),
        quality: shared.quality.get().map(Arc::as_ref),
        dead: Vec::new(),
    };
    let observed = fan.explain_ring || fan.quality.is_some();
    // Covering requires the matcher to declare conjunctive semantics.
    let covering = matcher.covering_safe();
    let mut match_tests = 0usize;
    let mut exhausted_attempts = 0u32;
    // Per-temperature test counts, flushed into the labeled families in
    // one pass at the end of the event (a branch and three adds per
    // event instead of per test).
    let mut temp_exact = 0u64;
    let mut temp_thematic = 0u64;
    let mut temp_cached = 0u64;
    // One event, many candidate tests: let the matcher reuse its
    // event-side scratch (interned symbols) across the whole sweep.
    matcher.begin_event(&job.event);
    for entry in plan.entries() {
        // Cost attribution: one branch per dispatch when off. When on,
        // the same deterministic splitmix64 decision the quality sampler
        // uses picks 1-in-k (event, entry) dispatches whose measured
        // nanoseconds are charged to the entry, its themes, and its
        // delivered subscribers.
        let cost = shared
            .cost
            .as_ref()
            .filter(|c| c.should_sample(job.seq, entry.uid()));
        // One test per entry serves its whole fan-out.
        if covering {
            if sweep.is_pruned(entry) {
                // A covered subset entry missed, so this entry cannot
                // match: its members get the verdict a conjunctive
                // matcher would have returned.
                shard.covered_skips.fetch_add(1, Ordering::Relaxed);
                if observed {
                    let verdict = Arc::new(MatchResult::no_match());
                    let start = Instant::now();
                    fan.fan_out(
                        entry,
                        Ok(&verdict),
                        CacheTemperature::Exact,
                        start,
                        None,
                        None,
                    );
                }
                continue;
            }
            if let Some(result) = sweep.take_twin_hit(entry) {
                // An equal-set twin hit; its (already permuted) result
                // serves this entry's fan-out without a test.
                shard.covered_skips.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                let cost = cost.map(|c| (c, 0));
                let deliver_ns = fan.fan_out(
                    entry,
                    Ok(&result),
                    CacheTemperature::Exact,
                    start,
                    None,
                    cost,
                );
                if let Some((cost, _)) = cost {
                    flush_entry_cost(cost, entry, &job, 0, deliver_ns);
                }
                continue;
            }
        }
        let run = run_match_test(
            shared,
            matcher,
            shard,
            &entry.representative,
            entry.approx,
            &job,
            degraded,
        );
        match_tests += run.tests_run;
        match run.temperature {
            CacheTemperature::Exact => temp_exact += 1,
            CacheTemperature::ThematicCold => temp_thematic += 1,
            CacheTemperature::CacheWarm => temp_cached += 1,
        }
        // The same span the stage histogram records, so k=1 attribution
        // reconciles exactly.
        let cost = cost.map(|c| (c, nanos_between(run.match_start, run.match_end)));
        let label = || {
            entry
                .fanout()
                .first()
                .map(|m| m.id.to_string())
                .unwrap_or_else(|| "entry".to_string())
        };
        let Some(result) = run.outcome else {
            exhausted_attempts = exhausted_attempts.max(run.exhausted);
            if let Some(route) = route_span {
                shared.spans.record_new(
                    Some(route),
                    job.seq,
                    "match",
                    run.match_start,
                    run.match_end,
                    vec![
                        ("subscription".to_string(), label()),
                        (
                            "temperature".to_string(),
                            run.temperature.as_str().to_string(),
                        ),
                        ("outcome".to_string(), "panicked".to_string()),
                    ],
                );
            }
            if fan.explain_ring {
                let reason = run.last_panic.as_deref().unwrap_or("unknown panic");
                fan.fan_out(
                    entry,
                    Err(reason),
                    run.temperature,
                    run.match_end,
                    None,
                    None,
                );
            }
            if let Some((cost, match_ns)) = cost {
                flush_entry_cost(cost, entry, &job, match_ns, 0);
            }
            continue;
        };
        let score = result.score();
        let mapped = !result.is_empty();
        let delivering = mapped && result.is_match(shared.config.delivery_threshold);
        if covering && !mapped {
            // Conjunctive matcher: a predicate unsupported here stays
            // unsupported in every superset entry.
            sweep.record_miss(entry);
        }
        let match_span = route_span.map(|route| {
            shared.spans.record_new(
                Some(route),
                job.seq,
                "match",
                run.match_start,
                run.match_end,
                vec![
                    ("subscription".to_string(), label()),
                    (
                        "temperature".to_string(),
                        run.temperature.as_str().to_string(),
                    ),
                    ("score".to_string(), format!("{score}")),
                ],
            )
        });
        let mut deliver_ns = 0;
        if delivering || observed {
            // One shared result serves the fan-out and any twin hits; the
            // no-match path never allocates it.
            let result = Arc::new(result);
            if covering && delivering {
                sweep.record_hit(entry, &result);
            }
            // Stage 3 (deliver) starts at the match decision.
            deliver_ns = fan.fan_out(
                entry,
                Ok(&result),
                run.temperature,
                run.match_end,
                match_span,
                cost,
            );
        }
        if let Some((cost, match_ns)) = cost {
            flush_entry_cost(cost, entry, &job, match_ns, deliver_ns);
        }
    }
    let FanOut { dead, .. } = fan;
    if !dead.is_empty() {
        let mut reaped: Vec<(SubscriptionId, Arc<Registration>)> = Vec::new();
        {
            let mut registry = shared.registry.write();
            for id in dead {
                if let Some(reg) = registry.remove(&id) {
                    shared
                        .stats
                        .disconnected_subscribers
                        .fetch_add(1, Ordering::Relaxed);
                    reaped.push((id, reg));
                }
            }
        }
        // Index and matcher cleanup run outside the registry lock; an
        // index entry whose fan-out empties is dropped with its leaves.
        for (id, reg) in reaped {
            shared.index.remove(id, &reg.subscription);
            (shared.hooks.release)(&reg.subscription);
        }
    }
    let quarantined = exhausted_attempts > 0;
    if quarantined {
        quarantine(
            shared,
            Arc::clone(&job.event),
            job.attempts + exhausted_attempts,
        );
        if let Some(route) = route_span {
            let now = Instant::now();
            shared.spans.record_new(
                Some(route),
                job.seq,
                "quarantine",
                now,
                now,
                vec![(
                    "attempts".to_string(),
                    (job.attempts + exhausted_attempts).to_string(),
                )],
            );
        }
    } else {
        shard.processed.fetch_add(1, Ordering::Relaxed);
    }
    // Labeled families and top-k sketches, one pass per event: theme
    // attribution, temperature counts, and term frequencies. Disabled
    // cost is the single branch on `dim`.
    if let Some(dim) = &shared.dim {
        let tests = match_tests as u64;
        for tag in job.event.theme_tags() {
            if tests > 0 {
                dim.match_by_theme.add(tag, tests);
            }
            dim.hot_themes.record(tag);
        }
        for tuple in job.event.tuples() {
            dim.hot_terms.record(tuple.attribute());
            dim.hot_terms.record(tuple.value());
        }
        if temp_exact > 0 {
            dim.match_by_temp.add("exact", temp_exact);
        }
        if temp_thematic > 0 {
            dim.match_by_temp.add("thematic", temp_thematic);
        }
        if temp_cached > 0 {
            dim.match_by_temp.add("cached", temp_cached);
        }
    }
}

/// Flushes one sampled dispatch's measured nanoseconds into the cost
/// tables: the owning index entry (exact, uid-stamped against slot
/// recycling), each of the event's theme tags (the full cost, mirroring
/// `match_by_theme` semantics), and the global sampled totals the
/// reconciliation invariant checks. Subscriber shares were already
/// charged in [`FanOut::fan_out`], where per-member timings exist.
/// Allocation-free in steady state: labels were preformatted at
/// subscribe time and theme counters hit the family's read path.
fn flush_entry_cost(
    cost: &CostState,
    entry: &IndexEntry,
    job: &Job,
    match_ns: u64,
    deliver_ns: u64,
) {
    cost.charge_entry(entry.slot(), entry.uid(), match_ns, deliver_ns);
    let mut tagged = false;
    for tag in job.event.theme_tags() {
        tagged = true;
        cost.charge_theme(tag, match_ns, deliver_ns);
    }
    if !tagged {
        cost.charge_theme("untagged", match_ns, deliver_ns);
    }
}

/// Sends one notification under the configured subscriber overload
/// policy, recording drop reasons and flagging registrations to reap.
/// Returns whether the notification was admitted to the channel.
///
/// With overload control on, the subscriber's circuit breaker gates the
/// send: an Open breaker drops the notification without probing the
/// channel (`breaker_open`), and full-channel failures feed the breaker
/// instead of the blunt `DisconnectAfter` cliff — the subscriber is
/// reaped only after [`crate::BreakerConfig::reap_after_cycles`] Open
/// cycles failed to find it drained.
fn deliver(
    shared: &Shared,
    shard: &WorkerShard,
    id: SubscriptionId,
    reg: &Registration,
    notification: Notification,
    dead: &mut Vec<SubscriptionId>,
) -> bool {
    let breaker = match (&shared.overload, &reg.breaker) {
        (Some(overload), Some(breaker)) => Some((&overload.config().breaker, breaker)),
        _ => None,
    };
    if let Some((config, breaker)) = breaker {
        if !breaker.lock().allow(config, Instant::now()) {
            shard.breaker_open.fetch_add(1, Ordering::Relaxed);
            return false;
        }
    }
    match reg.sender.try_send(notification) {
        Ok(()) => {
            shard.notifications.fetch_add(1, Ordering::Relaxed);
            if let Some(counter) = &reg.notif_counter {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            // Load first: the field shares a cache line with `sender`,
            // which every worker reads, so an unconditional store would
            // bounce the line on every admitted notification.
            if reg.consecutive_full.load(Ordering::Relaxed) != 0 {
                reg.consecutive_full.store(0, Ordering::Relaxed);
            }
            if let Some((_, breaker)) = breaker {
                breaker.lock().on_success();
            }
            true
        }
        Err(TrySendError::Full(notification)) => {
            let admitted = match shared.config.subscriber_policy {
                SubscriberPolicy::DropNewest => {
                    shard.dropped_full.fetch_add(1, Ordering::Relaxed);
                    false
                }
                SubscriberPolicy::DropOldest => drop_oldest_and_send(shard, reg, notification),
                SubscriberPolicy::DisconnectAfter(limit) => {
                    shard.dropped_full.fetch_add(1, Ordering::Relaxed);
                    let consecutive = reg.consecutive_full.fetch_add(1, Ordering::Relaxed) + 1;
                    // The breaker supersedes the disconnect cliff: backed-off
                    // probing beats permanently losing the subscriber.
                    if consecutive >= limit && breaker.is_none() {
                        dead.push(id);
                    }
                    false
                }
            };
            if let Some((config, breaker)) = breaker {
                let mut state = breaker.lock();
                if admitted {
                    state.on_success();
                } else {
                    match state.on_failure(config, Instant::now()) {
                        crate::overload::BreakerVerdict::Counted => {}
                        crate::overload::BreakerVerdict::Tripped => {
                            shard.breaker_trips.fetch_add(1, Ordering::Relaxed);
                            shared.fire_trigger("breaker_trip", || {
                                format!("subscriber {id} circuit breaker tripped")
                            });
                        }
                        crate::overload::BreakerVerdict::Reap => dead.push(id),
                    }
                }
            }
            admitted
        }
        Err(TrySendError::Disconnected(_)) => {
            shard.dropped_disconnected.fetch_add(1, Ordering::Relaxed);
            dead.push(id);
            false
        }
    }
}

/// `DropOldest`: evict queued notifications until the new one fits. The
/// registration holds a receiver clone, so the channel can never
/// disconnect under this policy. Returns whether the new notification
/// was admitted.
fn drop_oldest_and_send(
    shard: &WorkerShard,
    reg: &Registration,
    mut notification: Notification,
) -> bool {
    let Some(evictor) = &reg.receiver else {
        // Defensive: policy changed after registration; fall back to
        // dropping the new notification.
        shard.dropped_full.fetch_add(1, Ordering::Relaxed);
        return false;
    };
    for _ in 0..8 {
        match reg.sender.try_send(notification) {
            Ok(()) => {
                shard.notifications.fetch_add(1, Ordering::Relaxed);
                if let Some(counter) = &reg.notif_counter {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                return true;
            }
            Err(TrySendError::Full(back)) => {
                notification = back;
                match evictor.try_recv() {
                    Ok(_evicted) => {
                        shard.dropped_full.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TryRecvError::Empty) => {
                        // The subscriber drained concurrently; retry the send.
                    }
                    Err(TryRecvError::Disconnected) => break,
                }
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Contention beyond the retry bound (or an impossible disconnect):
    // count the new notification as dropped rather than spin.
    shard.dropped_full.fetch_add(1, Ordering::Relaxed);
    false
}

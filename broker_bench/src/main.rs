//! The repository benchmark: one workload through the public `Broker`
//! API, end to end (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path broker_bench/Cargo.toml -- \
//!     --workload thematic_broadcast --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `broker_bench/README.md` for the workloads and metrics.

mod engine;
mod procfs;
mod trace;
mod workload;

use engine::{poisson_bound, Mode, Pace, Phase, Ring, SetupTimes, Stack};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use tep::prelude::{MatcherConfig, ProbabilisticMatcher, ThematicEsaMeasure, Theme};
use tep::semantics::CachedMeasure;
use workload::{Inputs, Kind};

/// Stack builds per set-up group. A run builds groups spread over its
/// length, and `setup_s` is the quiet quartile of all builds.
const SETUP_GROUP: usize = 4;

/// Rounds of the end-to-end run, each a saturation phase and a fixed-rate
/// phase, so that the windows of each phase spread over the whole run
/// rather than one half of it.
const ROUNDS: u64 = 6;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {:?}", workload::NAMES)
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Named metric values in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }
}

/// Failed correctness checks.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.0.push(msg);
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `q`-quantile (nearest rank) of `values`, reordering them.
fn quantile<T: Ord + Copy + Into<u64>>(values: &mut [T], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len()) - 1;
    let value: u64 = (*values.select_nth_unstable(rank).1).into();
    value as f64
}

/// Where per-window figures and set-up builds are read: at their quiet
/// quartile. Other tenants of a shared host slow some windows down and
/// never speed one up, so the quartile on the fast side holds until a busy
/// spell covers three quarters of a run, where a median moves once one
/// covers half. A change to the program moves every window, so it moves
/// this quartile too.
const QUIET: f64 = 0.25;

/// The `q`-quantile (nearest rank) of `values`.
fn quantile_f64(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1]
}

/// The quiet quartile of a figure where lower is better.
fn quiet_low(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile_f64(values, QUIET)
}

/// The quiet quartile of a figure where higher is better.
fn quiet_high(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile_f64(values, 1.0 - QUIET)
}

/// Maximal F1 (§5.1) of the delivered scores of the scoring subscribers
/// against the workload's ground truth, ranked exactly as
/// `tep_eval::run_sub_experiment` ranks them.
fn f1_of(inputs: &Inputs, records: &[(u32, u32, f64)]) -> f64 {
    let truth = inputs.workload.ground_truth();
    let mut ranked: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
    let mut scorer = vec![None; inputs.subscribers.len()];
    for (slot, s) in inputs.subscribers.iter().enumerate() {
        if let (Some(t), false) = (s.truth, s.churns) {
            if let Entry::Vacant(entry) = ranked.entry(t) {
                entry.insert(Vec::new());
                scorer[slot] = Some(t);
            }
        }
    }
    for &(slot, event, score) in records {
        if let Some(t) = scorer[slot as usize] {
            if score > 0.0 {
                ranked
                    .get_mut(&t)
                    .expect("scorer")
                    .push((event as usize, score));
            }
        }
    }
    let rankings: Vec<(Vec<bool>, usize)> = ranked
        .into_iter()
        .map(|(t, mut list)| {
            list.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            let flags = list.iter().map(|(e, _)| truth.is_relevant(t, *e)).collect();
            (flags, truth.relevant_count(t))
        })
        .collect();
    tep_eval::metrics::effectiveness(&rankings).max_f1
}

/// Mean non-zero dimensions of each (term, theme) pair of the workload,
/// before and after theme projection (§5.3.2).
fn nnz_means(inputs: &Inputs, stack: &Stack) -> (f64, f64) {
    let mut pairs: BTreeMap<(String, Vec<String>), ()> = BTreeMap::new();
    for s in &inputs.subscribers {
        let tags = s.subscription.theme_tags().to_vec();
        for p in s.subscription.predicates() {
            pairs.insert((p.attribute().to_string(), tags.clone()), ());
            pairs.insert((p.value().to_string(), tags.clone()), ());
        }
    }
    for e in &inputs.events {
        let tags = e.theme_tags().to_vec();
        for t in e.tuples() {
            pairs.insert((t.attribute().to_string(), tags.clone()), ());
            pairs.insert((t.value().to_string(), tags.clone()), ());
        }
    }
    let mut full_cache: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut full, mut projected) = (0usize, 0usize);
    for (term, tags) in pairs.keys() {
        full += *full_cache
            .entry(term.as_str())
            .or_insert_with(|| stack.pvsm.space().term_vector(term).nnz());
        projected += stack.pvsm.project(term, &Theme::new(tags)).nnz();
    }
    let n = pairs.len() as f64;
    (ratio(full as f64, n), ratio(projected as f64, n))
}

/// Quiet quartile over the phase's windows of events processed per second.
fn window_rate(p: &Phase) -> f64 {
    quiet_high(
        p.windows
            .iter()
            .map(|w| ratio(w.processed as f64, w.wall_s)),
    )
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

struct Run {
    metrics: Metrics,
    checks: Checks,
    attempted: u64,
    failed: u64,
}

impl Run {
    /// Prints a phase, checks what holds after every phase (the drain, and
    /// every delivered notification reached the collector), and counts its
    /// operations: publish calls and notification hand-offs.
    fn phase(&mut self, name: &str, p: &Phase) {
        let s = &p.stats;
        let per_event = |n: u64| ratio(n as f64, s.processed as f64);
        println!(
            "{name:<12} {:>9} events {:>7.3}s  {:>9.0} ev/s  tests/ev={:.2} covered/ev={:.2} \
             notif/ev={:.2} collected={} cache-hit={:.4}",
            s.processed,
            p.wall_s,
            ratio(s.processed as f64, p.wall_s),
            per_event(s.match_tests),
            per_event(s.covered_skips),
            per_event(s.notifications),
            p.collected.received,
            p.cache.hit_rate(),
        );
        self.checks.require(p.drained, || {
            format!("{name}: published != processed after drain")
        });
        self.checks
            .require(p.collected.received == s.notifications, || {
                format!(
                    "{name}: collector received {} of {} notifications",
                    p.collected.received, s.notifications
                )
            });
        self.attempted += p.published + s.notifications + s.delivery_failures();
        self.failed += s.rejected_publishes
            + s.shed_deadline
            + s.shed_load
            + s.quarantined
            + s.delivery_failures();
    }

    /// Counts a stack's subscription writes and failed publishes, and shuts
    /// it down.
    fn retire(&mut self, stack: Stack) {
        self.attempted += stack.writes;
        self.failed += stack.failed_writes + stack.failed_publishes;
        stack.broker.shutdown();
    }
}

/// Timed stack builds. Stalls on a shared machine last up to a second or
/// so; builds in groups spread over the run sample them rather than sit
/// inside one.
struct Setups(Vec<SetupTimes>);

impl Setups {
    /// Builds [`SETUP_GROUP`] untraced stacks; returns the last one.
    fn group(&mut self, inputs: &Inputs, run: &mut Run) -> Stack {
        let mut last: Option<Stack> = None;
        for _ in 0..SETUP_GROUP {
            if let Some(old) = last.take() {
                run.retire(old);
            }
            let stack = engine::build(inputs, false);
            let t = stack.setup;
            let parts = t.index_s + t.space_s + t.broker_s;
            run.checks
                .require((t.total_s - parts).abs() <= 1e-4 + 0.01 * t.total_s, || {
                    format!("setup parts sum to {parts}s, total {}s", t.total_s)
                });
            self.0.push(t);
            last = Some(stack);
        }
        last.expect("a group builds at least one stack")
    }

    /// A group whose stacks are only timed.
    fn time_group(&mut self, inputs: &Inputs, run: &mut Run) {
        let last = self.group(inputs, run);
        run.retire(last);
    }

    fn quiet(&self, part: impl Fn(&SetupTimes) -> f64) -> f64 {
        quiet_low(self.0.iter().map(part))
    }
}

/// The correctness pass twice: cold, then warm. Both must deliver the
/// same set with the same scores.
fn correctness_passes(
    run: &mut Run,
    stack: &mut Stack,
    inputs: &Inputs,
    ring: &Ring,
) -> (Phase, f64) {
    let cold = engine::run_phase(stack, inputs, ring, Pace::OnePass, Mode::Record);
    let warm = engine::run_phase(stack, inputs, ring, Pace::OnePass, Mode::Record);
    run.phase("pass-cold", &cold);
    run.phase("pass-warm", &warm);
    let f1 = f1_of(inputs, &cold.collected.records);
    let f1_warm = f1_of(inputs, &warm.collected.records);
    run.checks.require(f1.to_bits() == f1_warm.to_bits(), || {
        format!("f1 differs between cold ({f1}) and warm ({f1_warm}) passes")
    });
    (cold, f1)
}

/// The untraced run: end-to-end metrics.
fn end_to_end(args: &Args, inputs: &Inputs, setups: &mut Setups, run: &mut Run) {
    let ring = Ring::new(&inputs.events, &inputs.order);
    let mut stack = setups.group(inputs, run);
    let (_, f1) = correctness_passes(run, &mut stack, inputs, &ring);
    setups.time_group(inputs, run);
    let block = Duration::from_secs_f64(args.seconds * 0.5 / ROUNDS as f64);
    let rate = args.kind.fixed_rate();
    // Per window: saturated ev/s, and at the fixed rate broker CPU per
    // event and the latency p50, p90 and p99 (by due time), nanoseconds.
    let (mut eps, mut cpu_us) = (vec![], vec![]);
    let (mut p50s, mut p90s, mut p99s) = (vec![], vec![], vec![]);
    let mut notifications = 0usize;
    let mut gen_lag_ns: Vec<u64> = Vec::with_capacity(poisson_bound(rate * args.seconds * 0.5));
    for round in 0..ROUNDS {
        if round % 2 == 1 {
            setups.time_group(inputs, run);
        }
        let sat = engine::run_phase(
            &mut stack,
            inputs,
            &ring,
            Pace::Saturate(block),
            Mode::Count,
        );
        run.phase("saturation", &sat);
        eps.extend(
            sat.windows
                .iter()
                .map(|w| ratio(w.processed as f64, w.wall_s)),
        );
        let arrivals = args.seed.wrapping_mul(ROUNDS).wrapping_add(round);
        let mut fixed = engine::run_phase(
            &mut stack,
            inputs,
            &ring,
            Pace::Fixed(rate, block, arrivals),
            Mode::Latency,
        );
        run.phase("fixed-rate", &fixed);
        cpu_us.extend(
            fixed
                .windows
                .iter()
                .map(|w| us(ratio(w.broker_cpu_ns as f64, w.processed as f64))),
        );
        for lat in fixed.collected.latencies_ns.values_mut() {
            p50s.push(quantile(lat, 0.5));
            p90s.push(quantile(lat, 0.9));
            p99s.push(quantile(lat, 0.99));
            notifications += lat.len();
        }
        gen_lag_ns.extend_from_slice(&fixed.gen_lag_ns);
    }
    let show = |v: &[f64], scale: f64| {
        v.iter()
            .map(|x| format!("{:.0}", x * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("saturation ev/s per window: {}", show(&eps, 1.0));
    println!("fixed-rate p50 us per window: {}", show(&p50s, 1e-3));

    if let Some(combination) = &inputs.combination {
        // The paper's direct runner over the same PVSM must score the
        // same F1, to the bit.
        let matcher = ProbabilisticMatcher::new(
            CachedMeasure::new(ThematicEsaMeasure::new(Arc::clone(&stack.pvsm))),
            MatcherConfig::top1(),
        );
        let direct = tep_eval::run_sub_experiment(&matcher, &inputs.workload, combination).f1();
        println!("direct runner f1={direct} broker f1={f1}");
        run.checks.require(direct.to_bits() == f1.to_bits(), || {
            format!("broker f1 {f1} != direct runner f1 {direct}")
        });
    }

    let (p50, p90, p99) = (quiet_low(p50s), quiet_low(p90s), quiet_low(p99s));
    let gen_lag_p99 = quantile(&mut gen_lag_ns, 0.99);
    println!(
        "fixed rate {rate} ev/s: latency p50={:.1}us p90={:.1}us p99={:.1}us (quiet window \
         quartiles) over {notifications} notifications; generator lag p99={:.1}us",
        us(p50),
        us(p90),
        us(p99),
        us(gen_lag_p99),
    );
    stack.unsubscribe_all();
    run.retire(stack);
    setups.time_group(inputs, run);

    let total = run.attempted as f64;
    let m = &mut run.metrics;
    m.put("throughput_eps", quiet_high(eps), "ev/s");
    m.put("latency_p50_us", us(p50), "us");
    m.put("latency_p90_us", us(p90), "us");
    m.put("cpu_us_per_event", quiet_low(cpu_us), "us");
    m.put("f1", f1, "ratio");
    m.put(
        "success_frac",
        1.0 - ratio(run.failed as f64, total),
        "ratio",
    );
    m.put("setup_s", setups.quiet(|s| s.total_s), "s");
    m.put("peak_rss_mb", procfs::peak_rss_mib(), "MiB");
}

/// Counts that tracing must leave exactly as they were.
fn invariant_counts(p: &Phase, f1: f64) -> (u64, u64, u64, u64) {
    (
        p.stats.match_tests,
        p.stats.covered_skips,
        p.stats.notifications,
        f1.to_bits(),
    )
}

/// The traced run: per-layer metrics, next to an untraced run of the same
/// passes for the tracing overhead and the observer-effect check.
fn per_layer(args: &Args, inputs: &Inputs, setups: &mut Setups, run: &mut Run) {
    let ring = Ring::new(&inputs.events, &inputs.order);
    let sat_len = Duration::from_secs_f64(args.seconds * 0.25);
    let fixed_len = Duration::from_secs_f64(args.seconds * 0.5);

    let mut plain = setups.group(inputs, run);
    let (plain_pass, plain_f1) = correctness_passes(run, &mut plain, inputs, &ring);
    let plain_sat = engine::run_phase(
        &mut plain,
        inputs,
        &ring,
        Pace::Saturate(sat_len),
        Mode::Count,
    );
    run.phase("untraced", &plain_sat);
    plain.unsubscribe_all();
    run.retire(plain);
    setups.time_group(inputs, run);

    let mut traced = engine::build(inputs, true);
    let (pass, f1) = correctness_passes(run, &mut traced, inputs, &ring);
    setups.time_group(inputs, run);
    run.checks.require(
        invariant_counts(&pass, f1) == invariant_counts(&plain_pass, plain_f1),
        || {
            format!(
                "tracing changed (tests, covered, notifications, f1 bits): {:?} vs {:?}",
                invariant_counts(&pass, f1),
                invariant_counts(&plain_pass, plain_f1)
            )
        },
    );
    let sat = engine::run_phase(
        &mut traced,
        inputs,
        &ring,
        Pace::Saturate(sat_len),
        Mode::Count,
    );
    run.phase("traced", &sat);
    let mut fixed = engine::run_phase(
        &mut traced,
        inputs,
        &ring,
        Pace::Fixed(args.kind.fixed_rate(), fixed_len, args.seed),
        Mode::Latency,
    );
    run.phase("traced-fixed", &fixed);
    let (nnz_full, nnz_projected) = nnz_means(inputs, &traced);
    let workers = traced.broker.stats().live_workers.max(1) as f64;
    traced.unsubscribe_all();
    let mut subscribe_ns = std::mem::take(&mut traced.subscribe_ns);
    let mut unsubscribe_ns = std::mem::take(&mut traced.unsubscribe_ns);
    run.retire(traced);
    setups.time_group(inputs, run);

    let s = &sat.stats;
    let events = s.processed as f64;
    let pr = &sat.probes;
    // Each workload stresses what it claims to.
    let stresses = match args.kind {
        Kind::ThematicBroadcast => sat.cache.hit_rate() >= 0.99,
        Kind::ExactFanout => pr.relatedness_calls == 0 && s.covered_skips > 0,
        Kind::ThemeChurn => sat.pvsm_misses > 0 && sat.cache.evictions > 0,
    };
    run.checks.require(stresses, || {
        format!("{:?} does not stress the layers it is meant to", args.kind)
    });
    // Times come from the fixed-rate phase, where workers seldom wait for
    // a core, less the cost of one clock read per timed call.
    let clock = trace::clock_cost_ns();
    let fp = &fixed.probes;
    let per_timed_call =
        |ns: u64, calls: u64| ratio(ns as f64 - clock * calls as f64, calls as f64);
    let match_ns_per_call = per_timed_call(fp.match_ns, fp.match_timed);
    let begin_ns_per_call = per_timed_call(fp.begin_ns, fp.begin_timed);
    let relatedness_ns_per_call = per_timed_call(fp.relatedness_ns, fp.relatedness_timed);
    let match_self_ns = match_ns_per_call
        - relatedness_ns_per_call * ratio(fp.relatedness_calls as f64, fp.match_calls as f64);
    let matcher_ns =
        match_ns_per_call * fp.match_calls as f64 + begin_ns_per_call * fp.begin_calls as f64;
    let plain_eps = window_rate(&plain_sat);
    let traced_eps = window_rate(&sat);
    let fs = &mut fixed.stages;

    let m = &mut run.metrics;
    m.put(
        "semantics.relatedness_calls_per_test",
        ratio(pr.relatedness_calls as f64, s.match_tests as f64),
        "calls",
    );
    m.put(
        "semantics.relatedness_ns_per_call",
        relatedness_ns_per_call,
        "ns",
    );
    m.put("semantics.cache_hit_rate", sat.cache.hit_rate(), "ratio");
    m.put(
        "semantics.pvsm_misses_per_kevent",
        1e3 * ratio(sat.pvsm_misses as f64, events),
        "count",
    );
    m.put(
        "semantics.cache_evictions_per_kevent",
        1e3 * ratio(sat.cache.evictions as f64, events),
        "count",
    );
    m.put(
        "semantics.interned_terms",
        tep::semantics::intern::interner_sizes().0 as f64,
        "count",
    );
    m.put("semantics.nnz_full", nnz_full, "dims");
    m.put("semantics.nnz_projected", nnz_projected, "dims");
    m.put(
        "matcher.calls_per_event",
        ratio(pr.match_calls as f64, events),
        "calls",
    );
    m.put("matcher.self_ns_per_call", match_self_ns, "ns");
    m.put("matcher.begin_event_ns_per_event", begin_ns_per_call, "ns");
    m.put(
        "matcher.match_rate",
        ratio(pr.match_hits as f64, pr.match_calls as f64),
        "ratio",
    );
    m.put(
        "broker.candidates_per_event",
        ratio((s.match_tests + s.covered_skips) as f64, events),
        "count",
    );
    m.put(
        "broker.match_tests_per_event",
        ratio(s.match_tests as f64, events),
        "count",
    );
    m.put(
        "broker.covered_skips_per_event",
        ratio(s.covered_skips as f64, events),
        "count",
    );
    m.put(
        "broker.routing_skipped_per_event",
        ratio(s.routing_skipped as f64, events),
        "count",
    );
    m.put(
        "broker.dispatch_self_us_per_event",
        us(ratio(
            fixed.worker_cpu_ns as f64 - matcher_ns,
            fixed.stats.processed as f64,
        )),
        "us",
    );
    m.put(
        "broker.useful_ratio",
        ratio(s.notifications as f64, s.match_tests as f64),
        "ratio",
    );
    m.put(
        "broker.publish_ns_p50",
        quantile(&mut fixed.publish_ns, 0.5),
        "ns",
    );
    m.put(
        "broker.queue_wait_p50_us",
        us(fs.queue_wait.p50().as_nanos() as f64),
        "us",
    );
    m.put(
        "broker.queue_wait_p90_us",
        us(fs.queue_wait.p90().as_nanos() as f64),
        "us",
    );
    m.put(
        "broker.deliver_ns_p50",
        fs.deliver.p50().as_nanos() as f64,
        "ns",
    );
    m.put(
        "broker.notifications_per_event",
        ratio(s.notifications as f64, events),
        "count",
    );
    m.put(
        "broker.worker_busy_frac",
        ratio(fixed.worker_cpu_ns as f64, workers * fixed.wall_s * 1e9),
        "ratio",
    );
    m.put(
        "broker.subscribe_us_p50",
        us(quantile(&mut subscribe_ns, 0.5)),
        "us",
    );
    m.put(
        "broker.unsubscribe_us_p50",
        us(quantile(&mut unsubscribe_ns, 0.5)),
        "us",
    );
    m.put("broker.subscribe_all_s", setups.quiet(|s| s.broker_s), "s");
    m.put("index.build_s", setups.quiet(|s| s.index_s), "s");
    m.put("semantics.space_build_s", setups.quiet(|s| s.space_s), "s");
    m.put(
        "bench.gen_lag_p99_us",
        us(quantile(&mut fixed.gen_lag_ns, 0.99)),
        "us",
    );
    // The load thread spins between due times at a fixed rate, so its
    // share of a core is taken where it never waits for one.
    m.put(
        "bench.load_cpu_frac",
        ratio(sat.collected.cpu_ns as f64, sat.collected.wall_ns as f64),
        "ratio",
    );
    m.put(
        "bench.tracing_overhead",
        1.0 - ratio(traced_eps, plain_eps),
        "ratio",
    );
}

fn render(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.checks.0.is_empty(),
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("broker_bench: {msg}");
            eprintln!(
                "usage: broker_bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.kind, args.seed);
    println!(
        "workload {:?} seed {}: {} events, {} subscribers, {} workers on {} cores",
        args.kind,
        args.seed,
        inputs.events.len(),
        inputs.subscribers.len(),
        engine::worker_count(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut run = Run {
        metrics: Metrics::default(),
        checks: Checks::default(),
        attempted: 0,
        failed: 0,
    };
    let mut setups = Setups(Vec::new());
    if args.trace {
        per_layer(&args, &inputs, &mut setups, &mut run);
    } else {
        end_to_end(&args, &inputs, &mut setups, &mut run);
    }
    println!(
        "setup quiet quartile of {} builds {:.4}s (index {:.4}s, space {:.4}s, broker+subscribe {:.4}s)",
        setups.0.len(),
        setups.quiet(|s| s.total_s),
        setups.quiet(|s| s.index_s),
        setups.quiet(|s| s.space_s),
        setups.quiet(|s| s.broker_s),
    );
    for (name, value, unit) in &run.metrics.0 {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    println!("{}", render(&run));
    ExitCode::SUCCESS
}

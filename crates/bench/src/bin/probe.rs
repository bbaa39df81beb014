//! Calibration probe: prints thematic F1/throughput for hand-picked theme
//! combinations against the non-thematic baseline. Not part of the paper
//! reproduction; used to tune the synthetic-corpus knobs.
//!
//! `probe bench [--out PATH]` instead runs the end-to-end broker
//! throughput scenarios and writes the machine-readable
//! `BENCH_throughput.json` (default path), printing one summary line per
//! scenario with events/sec and the semantic-cache hit rate. With
//! `--serve ADDR` it also exposes `/metrics`, `/healthz`, and `/explain`
//! over HTTP for the duration of the run.
//!
//! `probe perf-gate [--baseline PATH] [--current PATH]` compares a fresh
//! throughput document against the committed baseline and exits non-zero
//! on a regression (see `ci/perf_gate.sh`), and
//! `probe quality-gate [--baseline PATH] [--current PATH]` does the same
//! for the matching-quality document.

// Register the counting allocator so the throughput document carries real
// allocations-per-event figures (see `tep_bench::alloc`). The library
// forbids `unsafe`; the `GlobalAlloc` impl is included per-binary.
#[path = "../counting_alloc.rs"]
mod counting_alloc;

use std::sync::{Arc, RwLock};
use tep::prelude::{render_explanations_json, render_quality_json, serve, Broker, ScrapeHandlers};
use tep::thesaurus::{Domain, Thesaurus};
use tep_bench::costgate::CostGateConfig;
use tep_bench::gate::{GateConfig, QualityGateConfig, SubindexGateConfig};
use tep_bench::obsgate::ObsGateConfig;
use tep_eval::{run_sub_experiment, EvalConfig, MatcherStack, ThemeCombination, Workload};

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("terms") => {
            term_diagnostics();
            return;
        }
        Some("bench") => {
            bench_throughput();
            return;
        }
        Some("perf-gate") => {
            perf_gate();
            return;
        }
        Some("quality-gate") => {
            quality_gate();
            return;
        }
        Some("subindex-gate") => {
            subindex_gate();
            return;
        }
        Some("obs-gate") => {
            obs_gate();
            return;
        }
        Some("cost-gate") => {
            cost_gate();
            return;
        }
        _ => {}
    }
    let cfg = EvalConfig::quick();
    let stack = MatcherStack::build(&cfg);
    let workload = Workload::generate(&cfg);
    let th = Thesaurus::eurovoc_like();
    let all_tags: Vec<String> = th
        .top_terms_of(&Domain::ALL)
        .iter()
        .map(|t| t.as_str().to_string())
        .collect();

    let no_theme = ThemeCombination {
        event_tags: vec![],
        subscription_tags: vec![],
    };
    let base = run_sub_experiment(&stack.non_thematic(), &workload, &no_theme);
    println!("baseline: f1={:.3} tput={:.0}", base.f1(), base.throughput);

    let m = stack.thematic();
    // One tag per domain = full domain coverage with 6 tags.
    let one_per_domain: Vec<String> = Domain::ALL
        .iter()
        .map(|d| th.top_terms(*d)[0].as_str().to_string())
        .collect();
    let two_per_domain: Vec<String> = Domain::ALL
        .iter()
        .flat_map(|d| th.top_terms(*d)[..2].iter().map(|t| t.as_str().to_string()))
        .collect();
    let four_per_domain: Vec<String> = Domain::ALL
        .iter()
        .flat_map(|d| th.top_terms(*d)[..4].iter().map(|t| t.as_str().to_string()))
        .collect();

    let combos: Vec<(&str, Vec<String>, Vec<String>)> = vec![
        ("all48/all48", all_tags.clone(), all_tags.clone()),
        (
            "1perdom/1perdom",
            one_per_domain.clone(),
            one_per_domain.clone(),
        ),
        (
            "2perdom/2perdom",
            two_per_domain.clone(),
            two_per_domain.clone(),
        ),
        (
            "4perdom/4perdom",
            four_per_domain.clone(),
            four_per_domain.clone(),
        ),
        (
            "1perdom/2perdom",
            one_per_domain.clone(),
            two_per_domain.clone(),
        ),
        ("1perdom/all48", one_per_domain.clone(), all_tags.clone()),
        ("2perdom/all48", two_per_domain.clone(), all_tags.clone()),
        (
            "first2/first2",
            all_tags[..2].to_vec(),
            all_tags[..2].to_vec(),
        ),
        (
            "first2/first12",
            all_tags[..2].to_vec(),
            all_tags[..12].to_vec(),
        ),
        (
            "first12/first2",
            all_tags[..12].to_vec(),
            all_tags[..2].to_vec(),
        ),
    ];
    for (name, ev, sub) in combos {
        let combo = ThemeCombination {
            event_tags: ev,
            subscription_tags: sub,
        };
        let r = run_sub_experiment(&m, &workload, &combo);
        println!(
            "{name:<20} f1={:.3} ({:+.3} vs base) tput={:.0}",
            r.f1(),
            r.f1() - base.f1(),
            r.throughput
        );
        stack.clear_caches();
    }
}

/// The broker currently visible to the scrape endpoints. Scenarios swap
/// themselves in as they start; the handlers read whatever is live.
type BrokerSlot = Arc<RwLock<Option<Arc<Broker>>>>;

fn scrape_handlers(slot: &BrokerSlot) -> ScrapeHandlers {
    let metrics_slot = Arc::clone(slot);
    let health_slot = Arc::clone(slot);
    let explain_slot = Arc::clone(slot);
    let quality_slot = Arc::clone(slot);
    let top_slot = Arc::clone(slot);
    let overload_slot = Arc::clone(slot);
    let readyz_slot = Arc::clone(slot);
    let costs_slot = Arc::clone(slot);
    let bundle_slot = Arc::clone(slot);
    let trigger_slot = Arc::clone(slot);
    ScrapeHandlers::new(
        move || match metrics_slot.read().unwrap().as_ref() {
            Some(b) => b.metrics().render_prometheus(),
            None => String::from("# no scenario running\n"),
        },
        move || match health_slot.read().unwrap().as_ref() {
            Some(b) => {
                let stats = b.stats();
                format!(
                    "{{\"status\":\"ok\",\"live_workers\":{},\"quarantined\":{},\"processed\":{},\"published\":{}}}\n",
                    stats.live_workers, stats.quarantined, stats.processed, stats.published,
                )
            }
            None => String::from("{\"status\":\"idle\"}\n"),
        },
        move || match explain_slot.read().unwrap().as_ref() {
            Some(b) => render_explanations_json(&b.explain_last(100)),
            None => String::from("[]\n"),
        },
    )
    .with_quality(move || {
        match quality_slot
            .read()
            .unwrap()
            .as_ref()
            .and_then(|b| b.quality())
        {
            Some(report) => render_quality_json(&report),
            None => String::from("{\"status\":\"no quality sampling installed\"}\n"),
        }
    })
    .with_top(move || match top_slot.read().unwrap().as_ref() {
        Some(b) => b.top_json(10),
        None => String::from("{\"themes\":[],\"terms\":[]}\n"),
    })
    .with_overload(move || match overload_slot.read().unwrap().as_ref() {
        Some(b) => b.overload_json(),
        None => String::from("{\n  \"enabled\": false\n}\n"),
    })
    .with_costs(move || match costs_slot.read().unwrap().as_ref() {
        Some(b) => b.costs_json(),
        None => String::from("{\n  \"enabled\": false\n}\n"),
    })
    .with_readyz(move || match readyz_slot.read().unwrap().as_ref() {
        Some(b) => b.readiness(),
        None => (false, String::from("{\"ready\":false,\"status\":\"idle\"}\n")),
    })
    .with_bundle(move || {
        bundle_slot
            .read()
            .unwrap()
            .as_ref()
            .and_then(|b| b.latest_bundle_json())
            .map(|bundle| (*bundle).clone())
    })
    .with_trigger(move || match trigger_slot.read().unwrap().as_ref() {
        Some(b) => match b.trigger_diagnostic("manual trigger via POST /debug/trigger") {
            Some(seq) => format!("{{\"triggered\":true,\"bundle_seq\":{seq}}}\n"),
            None => String::from(
                "{\"triggered\":false,\"reason\":\"no recorder installed or trigger cooling down\"}\n",
            ),
        },
        None => String::from("{\"triggered\":false,\"reason\":\"no scenario running\"}\n"),
    })
}

/// Broker throughput scenarios → `BENCH_throughput.json` plus a
/// Prometheus-text metrics export, explain/span dumps, and the
/// live-vs-offline matching-quality document `BENCH_quality.json` (run
/// with `probe bench [--out PATH] [--prom PATH] [--serve ADDR]`).
fn bench_throughput() {
    let (out, prom_out, serve_addr, alloc_report) = {
        let mut it = std::env::args().skip(2);
        let mut path = String::from("BENCH_throughput.json");
        let mut prom = String::from("BENCH_metrics.prom");
        let mut addr: Option<String> = None;
        let mut alloc = false;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => path = it.next().expect("--out needs a value"),
                "--prom" => prom = it.next().expect("--prom needs a value"),
                "--serve" => addr = Some(it.next().expect("--serve needs an address")),
                "--alloc" => alloc = true,
                other => {
                    eprintln!(
                        "usage: probe bench [--out PATH] [--prom PATH] [--serve ADDR] \
                         [--alloc] (unknown arg {other:?})"
                    );
                    std::process::exit(2);
                }
            }
        }
        (path, prom, addr, alloc)
    };
    let slot: BrokerSlot = Arc::new(RwLock::new(None));
    let server = serve_addr.map(|addr| {
        let server = serve(&addr, scrape_handlers(&slot)).expect("bind scrape server");
        println!(
            "serving /metrics /healthz /readyz /explain /quality /top /overload \
             /costs /debug/bundle /debug/trigger on http://{}",
            server.local_addr()
        );
        server
    });
    let observer_slot = Arc::clone(&slot);
    let observer = move |_name: &str, broker: &Arc<Broker>| {
        *observer_slot.write().unwrap() = Some(Arc::clone(broker));
    };
    // The faulty-matcher scenario panics on purpose (isolated by the
    // broker); keep the smoke-step output to the summary lines.
    std::panic::set_hook(Box::new(|_| {}));
    let results = tep_bench::throughput::run_broker_scenarios_observed(&observer);
    let (explain_json, spans_json) = tep_bench::throughput::instrumented_dump(&observer);
    let quality_results = tep_bench::quality::run_quality_scenarios_observed(&observer);
    let _ = std::panic::take_hook();
    *slot.write().unwrap() = None;
    for r in &results {
        println!("{}", r.summary());
        for stage in &r.stages {
            // Empty classes (e.g. thematic buckets in an exact scenario)
            // would only add noise to the summary.
            if stage.count > 0 {
                println!("{}", stage.summary());
            }
        }
    }
    let json = tep_bench::throughput::render_json(&results);
    std::fs::write(&out, json).expect("write throughput JSON");
    println!("wrote {out}");
    if alloc_report {
        for r in &results {
            println!(
                "  alloc {:<26} {:>10} allocations  {:>8.2} allocs/event",
                r.name, r.allocations, r.allocs_per_event
            );
        }
        let alloc_json = tep_bench::throughput::render_alloc_json(&results);
        std::fs::write("BENCH_alloc.json", alloc_json).expect("write alloc report");
        println!("wrote BENCH_alloc.json");
    }
    // One scenario's full Prometheus export as the metrics artifact; the
    // thematic broadcast run exercises every stage class.
    if let Some(r) = results
        .iter()
        .find(|r| r.name == "seed_thematic_broadcast")
        .or(results.first())
    {
        std::fs::write(&prom_out, &r.prometheus).expect("write Prometheus metrics");
        println!("wrote {prom_out} ({} scenario)", r.name);
    }
    std::fs::write("BENCH_explain.json", explain_json).expect("write explain dump");
    std::fs::write("BENCH_spans.json", spans_json).expect("write span dump");
    println!("wrote BENCH_explain.json BENCH_spans.json (instrumented_dump scenario)");
    for q in &quality_results {
        println!("{}", q.summary());
    }
    let quality_json = tep_bench::quality::render_json(&quality_results);
    std::fs::write("BENCH_quality.json", quality_json).expect("write quality JSON");
    println!("wrote BENCH_quality.json");
    let storm = tep_bench::overload::run_overload_storm(&observer);
    *slot.write().unwrap() = None;
    println!("{}", storm.summary());
    let overload_json = tep_bench::overload::render_json(&storm);
    std::fs::write("BENCH_overload.json", overload_json).expect("write overload JSON");
    println!("wrote BENCH_overload.json");
    // The subscription-aggregation scale scenario last: it registers a
    // million subscribers (override with TEP_SUBINDEX_SUBSCRIBERS for
    // quick local runs), so let the lighter artifacts land first.
    let subindex = tep_bench::subindex::run_subindex_scenarios();
    println!("{}", subindex.small.summary());
    println!("{}", subindex.large.summary());
    println!(
        "  large/small throughput ratio {:.3}",
        subindex.ratio_vs_small()
    );
    std::fs::write("BENCH_subindex.json", subindex.render_json()).expect("write subindex JSON");
    println!("wrote BENCH_subindex.json");
    drop(server);
}

/// Overrides a gate threshold from the environment variable `name` when
/// it is set; a value that does not parse aborts the run.
fn env_override<T: std::str::FromStr>(name: &str, value: &mut T) {
    if let Ok(raw) = std::env::var(name) {
        *value = raw
            .parse()
            .unwrap_or_else(|_| panic!("{name} must parse as {}", std::any::type_name::<T>()));
    }
}

/// Perf-regression gate: compares a fresh throughput document against the
/// committed baseline (run with
/// `probe perf-gate [--baseline PATH] [--current PATH]`). Exits 1 on any
/// violation or unreadable/malformed document.
fn perf_gate() {
    let (baseline, current) = {
        let mut it = std::env::args().skip(2);
        let mut baseline = String::from("ci/perf_baseline.json");
        let mut current = String::from("BENCH_throughput.json");
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--baseline" => baseline = it.next().expect("--baseline needs a value"),
                "--current" => current = it.next().expect("--current needs a value"),
                other => {
                    eprintln!(
                        "usage: probe perf-gate [--baseline PATH] [--current PATH] \
                         (unknown arg {other:?})"
                    );
                    std::process::exit(2);
                }
            }
        }
        (baseline, current)
    };
    let mut cfg = GateConfig::default();
    env_override("PERF_GATE_MAX_DROP", &mut cfg.max_drop);
    env_override("PERF_GATE_MAX_P99_GROWTH", &mut cfg.max_p99_growth);
    env_override("PERF_GATE_MAX_QW_P50_NS", &mut cfg.max_queue_wait_p50_ns);
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perf gate: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let base_doc = read(&baseline);
    let cur_doc = read(&current);
    match tep_bench::gate::compare(&base_doc, &cur_doc, &cfg) {
        Err(e) => {
            eprintln!("perf gate: {e}");
            std::process::exit(1);
        }
        Ok(report) => {
            for v in &report.violations {
                eprintln!("perf gate: {v}");
            }
            println!("{} ({baseline} vs {current})", report.summary());
            if !report.passed() {
                std::process::exit(1);
            }
        }
    }
}

/// Subscription-index gate: compares a fresh `BENCH_subindex.json`
/// against the committed baseline (run with
/// `probe subindex-gate [--baseline PATH] [--current PATH]`). Exits 1 on
/// any violation or unreadable/malformed document.
fn subindex_gate() {
    let (baseline, current) = {
        let mut it = std::env::args().skip(2);
        let mut baseline = String::from("ci/subindex_baseline.json");
        let mut current = String::from("BENCH_subindex.json");
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--baseline" => baseline = it.next().expect("--baseline needs a value"),
                "--current" => current = it.next().expect("--current needs a value"),
                other => {
                    eprintln!(
                        "usage: probe subindex-gate [--baseline PATH] [--current PATH] \
                         (unknown arg {other:?})"
                    );
                    std::process::exit(2);
                }
            }
        }
        (baseline, current)
    };
    let mut cfg = SubindexGateConfig::default();
    env_override("SUBINDEX_GATE_MAX_DROP", &mut cfg.max_drop);
    env_override("SUBINDEX_GATE_MIN_RATIO", &mut cfg.min_ratio);
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("subindex gate: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let base_doc = read(&baseline);
    let cur_doc = read(&current);
    match tep_bench::gate::compare_subindex(&base_doc, &cur_doc, &cfg) {
        Err(e) => {
            eprintln!("subindex gate: {e}");
            std::process::exit(1);
        }
        Ok(report) => {
            for v in &report.violations {
                eprintln!("subindex gate: {v}");
            }
            if report.passed() {
                println!(
                    "subindex gate PASSED ({} populations) ({baseline} vs {current})",
                    report.scenarios_checked
                );
            } else {
                println!(
                    "subindex gate FAILED: {} violation(s) ({baseline} vs {current})",
                    report.violations.len()
                );
                std::process::exit(1);
            }
        }
    }
}

/// Observability gate: proves the flight recorder stays within the
/// throughput-overhead budget, allocates nothing at steady state, and
/// produces well-formed diagnostic bundles under chaos (run with
/// `probe obs-gate [--out PATH] [--bundle PATH]`). Exits 1 on any
/// violation. `OBS_GATE_MAX_OVERHEAD`, `OBS_GATE_MAX_STEADY_ALLOCS`,
/// and `OBS_GATE_TRIALS` override the thresholds for noisy runners.
fn obs_gate() {
    let (out, bundle_out) = {
        let mut it = std::env::args().skip(2);
        let mut out = String::from("BENCH_obsgate.json");
        let mut bundle = String::from("BENCH_diag_bundle.json");
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => out = it.next().expect("--out needs a value"),
                "--bundle" => bundle = it.next().expect("--bundle needs a value"),
                other => {
                    eprintln!(
                        "usage: probe obs-gate [--out PATH] [--bundle PATH] \
                         (unknown arg {other:?})"
                    );
                    std::process::exit(2);
                }
            }
        }
        (out, bundle)
    };
    let mut cfg = ObsGateConfig::default();
    env_override("OBS_GATE_MAX_OVERHEAD", &mut cfg.max_overhead);
    env_override("OBS_GATE_MAX_STEADY_ALLOCS", &mut cfg.max_steady_allocs);
    env_override("OBS_GATE_TRIALS", &mut cfg.trials);
    // The chaos check panics a worker on purpose; keep its backtrace out
    // of the gate output.
    std::panic::set_hook(Box::new(|_| {}));
    let result = tep_bench::obsgate::run_obs_gate(&cfg);
    let _ = std::panic::take_hook();
    println!("{}", result.summary());
    std::fs::write(&out, result.render_json()).expect("write obs-gate JSON");
    println!("wrote {out}");
    // The panic bundle is the richer artifact (a real supervisor-caught
    // fault); fall back to the forced-critical drill's bundle.
    if let Some(b) = result
        .panic_bundle
        .as_ref()
        .or(result.critical_bundle.as_ref())
    {
        std::fs::write(&bundle_out, b).expect("write diagnostic bundle");
        println!("wrote {bundle_out}");
    }
    for v in &result.violations {
        eprintln!("obs gate: {v}");
    }
    if !result.passed() {
        std::process::exit(1);
    }
}

/// Cost-attribution gate: proves the sampling profiler stays within the
/// throughput-overhead budget, allocates nothing at steady state, and
/// reconciles against the stage histograms (run with
/// `probe cost-gate [--out PATH]`). Thresholds are
/// `CostGateConfig::default()`; `COST_GATE_MAX_OVERHEAD`,
/// `COST_GATE_MAX_EXTRA_ALLOCS`, `COST_GATE_MAX_RECONCILE_ERROR`, and
/// `COST_GATE_TRIALS` override them for noisy runners. Exits 1 on any
/// violation.
fn cost_gate() {
    let out = {
        let mut it = std::env::args().skip(2);
        let mut out = String::from("BENCH_costs.json");
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => out = it.next().expect("--out needs a value"),
                other => {
                    eprintln!("usage: probe cost-gate [--out PATH] (unknown arg {other:?})");
                    std::process::exit(2);
                }
            }
        }
        out
    };
    let mut cfg = CostGateConfig::default();
    env_override("COST_GATE_MAX_OVERHEAD", &mut cfg.max_overhead);
    env_override("COST_GATE_MAX_EXTRA_ALLOCS", &mut cfg.max_extra_allocs);
    env_override(
        "COST_GATE_MAX_RECONCILE_ERROR",
        &mut cfg.max_reconcile_error,
    );
    env_override("COST_GATE_TRIALS", &mut cfg.trials);
    let result = tep_bench::costgate::run_cost_gate(&cfg);
    println!("{}", result.summary());
    std::fs::write(&out, result.render_json()).expect("write cost-gate JSON");
    println!("wrote {out}");
    for v in &result.violations {
        eprintln!("cost gate: {v}");
    }
    if !result.passed() {
        std::process::exit(1);
    }
}

/// Quality-regression gate: compares a fresh quality document against
/// the committed baseline (run with
/// `probe quality-gate [--baseline PATH] [--current PATH]`). Exits 1 on
/// any violation or unreadable/malformed document.
fn quality_gate() {
    let (baseline, current) = {
        let mut it = std::env::args().skip(2);
        let mut baseline = String::from("ci/quality_baseline.json");
        let mut current = String::from("BENCH_quality.json");
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--baseline" => baseline = it.next().expect("--baseline needs a value"),
                "--current" => current = it.next().expect("--current needs a value"),
                other => {
                    eprintln!(
                        "usage: probe quality-gate [--baseline PATH] [--current PATH] \
                         (unknown arg {other:?})"
                    );
                    std::process::exit(2);
                }
            }
        }
        (baseline, current)
    };
    let mut cfg = QualityGateConfig::default();
    env_override("QUALITY_GATE_MAX_F1_DROP", &mut cfg.max_f1_drop);
    env_override("QUALITY_GATE_MIN_SAMPLES", &mut cfg.min_samples);
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("quality gate: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let base_doc = read(&baseline);
    let cur_doc = read(&current);
    match tep_bench::gate::compare_quality(&base_doc, &cur_doc, &cfg) {
        Err(e) => {
            eprintln!("quality gate: {e}");
            std::process::exit(1);
        }
        Ok(report) => {
            for v in &report.violations {
                eprintln!("quality gate: {v}");
            }
            println!("{} ({baseline} vs {current})", report.summary());
            if !report.passed() {
                std::process::exit(1);
            }
        }
    }
}

/// Term-level diagnostics: full-space vs projected relatedness for
/// informative pairs (run with `probe terms`).
#[allow(dead_code)]
fn term_diagnostics() {
    use tep::prelude::*;
    let cfg = tep_eval::EvalConfig::quick();
    let stack = tep_eval::MatcherStack::build(&cfg);
    let pvsm = stack.pvsm();
    let th_all: Vec<String> = Thesaurus::eurovoc_like()
        .top_terms_of(&Domain::ALL)
        .iter()
        .map(|t| t.as_str().to_string())
        .collect();
    let empty = Theme::empty();
    let energy = Theme::new([
        "energy policy",
        "electrical industry",
        "energy metering",
        "building energy",
    ]);
    let allth = Theme::new(th_all.iter().map(|s| s.as_str()));
    let pairs = [
        ("energy consumption", "electricity usage", "synonym"),
        (
            "increased energy consumption event",
            "increased electricity usage event",
            "syn-phrase",
        ),
        ("laptop", "computer", "related"),
        ("refrigerator", "fridge", "synonym"),
        ("refrigerator", "laptop", "same-domain-diff"),
        ("refrigerator", "roundabout", "cross-domain"),
        ("energy consumption", "zebra crossing", "cross-domain"),
        ("room 112", "room 113", "near-idents"),
        ("room 112", "chamber 112", "syn+num"),
        ("charge", "battery", "ambig-energy"),
        ("charge", "toll", "ambig-transport"),
        ("galway", "dublin", "related-geo"),
        ("galway", "eire", "unrelated-ish"),
    ];
    println!(
        "{:<42} {:<18} {:>8} {:>8} {:>8}",
        "pair", "kind", "full", "energy", "all48"
    );
    for (a, b, kind) in pairs {
        let f = pvsm.relatedness(a, &empty, b, &empty);
        let e = pvsm.relatedness(a, &energy, b, &energy);
        let l = pvsm.relatedness(a, &allth, b, &allth);
        println!(
            "{:<42} {:<18} {:>8.4} {:>8.4} {:>8.4}",
            format!("{a} | {b}"),
            kind,
            f,
            e,
            l
        );
    }
    // Vector shapes.
    for t in ["energy consumption", "laptop", "room 112"] {
        let full = pvsm.project(t, &empty);
        let proj = pvsm.project(t, &energy);
        println!("nnz({t}): full={} energy-proj={}", full.nnz(), proj.nnz());
    }
}

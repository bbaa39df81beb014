//! The committed JSON artifacts stay parseable: the `BENCH_*.json`
//! documents at the repository root (the record of each change's
//! figures) and the `ci/*.json` baselines `ci/perf_gate.sh` compares
//! against. A malformed one fails here instead of inside a perf-gate run.

use serde_json::JsonValue;
use std::path::{Path, PathBuf};

/// The `.json` files in `dir` whose names start with `prefix`, sorted.
fn json_files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with(prefix) && name.ends_with(".json")
        })
        .collect();
    files.sort();
    files
}

#[test]
fn committed_json_artifacts_parse() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let bench = json_files(&root, "BENCH_");
    let baselines = json_files(&root.join("ci"), "");
    assert!(!bench.is_empty(), "no BENCH_*.json at the repository root");
    for gate in ["perf", "quality", "subindex"] {
        let baseline = root.join("ci").join(format!("{gate}_baseline.json"));
        assert!(
            baselines.contains(&baseline),
            "missing {}",
            baseline.display()
        );
    }
    for path in bench.iter().chain(&baselines) {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        if let Err(e) = serde_json::from_str::<JsonValue>(&text) {
            panic!("{} is not valid JSON: {e}", path.display());
        }
    }
}

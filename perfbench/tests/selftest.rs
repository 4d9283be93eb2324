//! Self-test: every workload at a tiny size, untraced and traced, through
//! the benchmark's own command line. The result line must carry exactly
//! the metrics `BENCHMARK.json` names, in its order and with its units
//! (first test), and every known-answer check must pass (second test).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

use tm_obs::Json;

/// Sizes small enough for a test: the same code paths in seconds.
fn tiny_size(workload: &str) -> &'static str {
    match workload {
        "counts-x86" => "3",
        "table1-power" => "3",
        "table2" => "2",
        other => panic!("no tiny size for workload `{other}`"),
    }
}

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark; returns its run record and its result line.
fn bench(workload: &str, trace: &str) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_tm-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--size", tiny_size(workload)])
        .output()
        .expect("the benchmark runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("a result line")).expect("the result is JSON");
    let record = Json::parse(lines.next().expect("a record line")).expect("the record is JSON");
    (record, result)
}

/// A run record and result per (workload, trace) pair, run once and shared
/// by the tests.
type Results = Vec<(String, &'static str, (Json, Json))>;

fn results() -> &'static Results {
    static RESULTS: OnceLock<Results> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let spec = spec();
        let workloads = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert!(!workloads.is_empty());
        let mut out = Vec::new();
        for w in workloads {
            let workload = w.get("name").and_then(Json::as_str).expect("workload name");
            for trace in ["0", "1"] {
                out.push((workload.to_string(), trace, bench(workload, trace)));
            }
        }
        out
    })
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    for (workload, trace, (_, result)) in results() {
        let context = format!("{workload} --trace {trace}: {}", result.render_compact());
        assert!(result.get("correct").is_some(), "{context}");
        assert!(
            result.get("failed").and_then(Json::as_u64).is_some(),
            "{context}"
        );
        assert!(
            result.get("attempted").and_then(Json::as_u64) >= Some(1),
            "{context}"
        );
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("{context}: no metrics object");
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite),
                    "{context}: {name} has no finite value"
                );
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect();
        let key = if *trace == "0" {
            "end_to_end"
        } else {
            "per_layer"
        };
        assert_eq!(printed, names_and_units(&spec, key), "{context}");
    }
}

#[test]
fn every_workload_passes_its_known_answers() {
    let mut wrong = Vec::new();
    for (workload, trace, (record, result)) in results() {
        let ok_frac = result
            .get("metrics")
            .and_then(|m| m.get("ok_frac"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        let correct = result.get("correct") == Some(&Json::Bool(true));
        if !correct || (*trace == "0" && ok_frac != Some(1.0)) {
            let failures = record
                .get("failures")
                .map_or(String::new(), Json::render_compact);
            let notes = record
                .get("notes")
                .map_or(String::new(), Json::render_compact);
            wrong.push(format!(
                "{workload} --trace {trace}: failed checks {failures}; notes {notes}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "known-answer failures:\n{}",
        wrong.join("\n")
    );
}

//! Smoke test: every workload at a tiny size, untraced and traced.
//! Each run must pass its own output checks, and the metric names and
//! units it prints must be exactly the ones `BENCHMARK.json` lists.

use std::process::Command;

use serde_json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_spotbench");
const WORKLOADS: &[&str] = &["storm", "diurnal", "fleet36", "grid"];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a BENCHMARK.json section.
fn listed(section: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let mut out: Vec<(String, String)> = json[section]
        .as_array()
        .expect("section is an array")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

struct Run {
    stdout: String,
    result: Value,
}

fn run(workload: &str, seed: &str, trace: &str) -> Run {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("some output");
    let result = serde_json::from_str(last).expect("last line is JSON");
    Run { stdout, result }
}

/// `(name, unit)` of every metric a result line reports.
fn reported(result: &Value) -> Vec<(String, String)> {
    let Value::Object(entries) = &result["metrics"] else {
        panic!("metrics is an object");
    };
    let mut out: Vec<(String, String)> = entries
        .iter()
        .map(|(name, m)| {
            let value = m["value"].as_f64();
            assert!(
                value.is_some_and(f64::is_finite),
                "{name} has a finite value"
            );
            (name.clone(), m["unit"].as_str().expect("unit").to_string())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_workload_reports_exactly_the_listed_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = listed(section);
        for w in WORKLOADS {
            let r = run(w, "7", trace);
            assert_eq!(
                r.result["correct"].as_bool(),
                Some(true),
                "{w} trace {trace}"
            );
            assert!(
                r.result["attempted"].as_u64().is_some_and(|n| n >= 1),
                "{w}"
            );
            assert_eq!(r.result["failed"].as_u64(), Some(0), "{w} trace {trace}");
            assert_eq!(reported(&r.result), want, "{w} trace {trace}");
            assert!(r.stdout.contains("\"nproc\":"), "{w} records its metadata");
        }
    }
}

#[test]
fn outcome_metrics_depend_only_on_the_seed() {
    let outcome = |seed: &str| {
        run("storm", seed, "0")
            .stdout
            .lines()
            .find(|l| l.starts_with("# outcome "))
            .expect("outcome line")
            .to_string()
    };
    assert_eq!(outcome("3"), outcome("3"));
    assert_ne!(outcome("3"), outcome("4"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "storm", "--trace", "2"][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

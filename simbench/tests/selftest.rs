//! Runs every workload at reduced size in both modes and checks that the
//! result line is correct and names exactly the metrics `BENCHMARK.json`
//! declares.

use serde::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` metric list.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = field(bench, list)
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect();
    out.sort();
    out
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "small"])
        .output()
        .expect("run simbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} trace {trace}:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = field(&bench, "workloads")
        .as_seq()
        .expect("workload list")
        .iter()
        .map(|w| field(w, "name").as_str().expect("name").to_string())
        .collect();
    assert_eq!(workloads.len(), 3);
    for w in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(w, trace);
            assert!(
                matches!(field(&result, "correct"), Value::Bool(true)),
                "{w} trace {trace}"
            );
            assert!(
                matches!(field(&result, "failed"), Value::U64(0)),
                "{w} trace {trace}"
            );
            let mut printed: Vec<(String, String)> = field(&result, "metrics")
                .as_map()
                .expect("metrics map")
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        field(m, "unit").as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            printed.sort();
            assert_eq!(printed, declared(&bench, list), "{w} trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "dualpar_tiny_writes",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--seed", "1", "--seconds", "1", "--trace", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
            .args(&args)
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

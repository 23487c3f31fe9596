//! Metrics, summary statistics, the machine stamp and the result line.

use serde::Value;
use std::path::PathBuf;

/// One named measurement, printed with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Human-readable context: sample count, spread, replay coverage.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// "median of n (min a, max b)" for a list of timings.
pub fn describe(xs: &[f64]) -> String {
    if xs.is_empty() {
        return "no samples".into();
    }
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("median of {} (min {min:.6}, max {max:.6})", xs.len())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the benchmark writes its span logs and result files. Inside the
/// benchmark's own directory, and ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn command_line(program: &str, args: &[&str], dir: &str) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every source file the benchmark builds from, so results
/// from checkouts without git history still name the code they measured.
fn source_hash(root: &str) -> String {
    let mut files = Vec::new();
    let mut stack = vec![
        PathBuf::from(root).join("crates"),
        PathBuf::from(root).join("simbench/src"),
    ];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// nproc, CPU model, rustc version and source identity: numbers taken
/// under different stamps are not comparable.
pub fn machine_stamp() -> Vec<(&'static str, String)> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into());
    let commit =
        command_line("git", &["rev-parse", "HEAD"], root).unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("commit", commit),
        ("source_hash", source_hash(root)),
    ]
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON number; JSON has no NaN or infinity, so those print as 0.
fn number(x: f64) -> Value {
    Value::F64(if x.is_finite() { x } else { 0.0 })
}

fn string(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// The contract's last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = object(vec![("value", number(m.value)), ("unit", string(m.unit))]);
            (m.name.clone(), value)
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("a JSON value serializes")
}

/// The full record of one benchmark run, written beside the span log.
pub fn result_file(
    workload: &str,
    seed: u64,
    trace: bool,
    stamp: &[(&'static str, String)],
    failures: &[String],
    metrics: &[Metric],
) -> String {
    let record = object(vec![
        ("workload", string(workload)),
        ("seed", Value::U64(seed)),
        ("trace", Value::Bool(trace)),
        (
            "machine",
            object(stamp.iter().map(|(k, v)| (*k, string(v))).collect()),
        ),
        (
            "failures",
            Value::Seq(failures.iter().map(|f| string(f)).collect()),
        ),
        (
            "metrics",
            Value::Seq(
                metrics
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", string(&m.name)),
                            ("value", number(m.value)),
                            ("unit", string(m.unit)),
                            ("note", string(&m.note)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&record).expect("a JSON value serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let m = [Metric::new("wall_s", 1.5, "s", "")];
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}"#
        );
    }
}

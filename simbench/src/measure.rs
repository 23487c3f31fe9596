//! The untraced run: repeat the user's path — spec JSON → `from_json` →
//! `build_cluster` → `Cluster::run` → serialized report — for the run's
//! measuring time, time each stage, and check every repetition.

use crate::report::{describe, median, peak_rss_mib, Metric};
use crate::workloads::Generated;
use dualpar_bench::suite::report_fingerprint;
use dualpar_bench::{build_cluster, ExperimentSpec};
use dualpar_cluster::{Cluster, RunReport};
use dualpar_mpiio::{Op, ProgramScript};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Timed repetitions after the warm-up, at the least.
const MIN_TIMED_REPS: usize = 3;
/// A repetition slower than this counts as failed.
const REP_DEADLINE: Duration = Duration::from_secs(60);
/// Stop starting repetitions after this long, whatever `--seconds` says,
/// so one run stays well inside its time limit.
const RUN_CAP: Duration = Duration::from_secs(120);

/// Bytes every program's scripts ask for: the sum of its I/O regions.
pub fn script_bytes(script: &ProgramScript) -> u64 {
    script
        .ranks
        .iter()
        .flat_map(|r| &r.ops)
        .filter_map(|op| match op {
            Op::Io(call) => Some(call.regions.iter().map(|r| r.len).sum::<u64>()),
            _ => None,
        })
        .sum()
}

/// Generate each program's scripts on a scratch cluster, exactly as
/// `build_cluster` does.
pub fn generate_scripts(spec: &ExperimentSpec) -> Vec<ProgramScript> {
    let mut scratch = Cluster::new(spec.cluster.clone());
    spec.programs
        .iter()
        .enumerate()
        .map(|(i, p)| p.workload.materialize(&mut scratch, &i.to_string()))
        .collect()
}

/// Conservation: every program was served exactly the bytes it asked for.
pub fn check_conservation(report: &RunReport, expected: &[u64]) -> Result<(), String> {
    if report.programs.len() != expected.len() {
        return Err(format!(
            "report has {} programs, spec has {}",
            report.programs.len(),
            expected.len()
        ));
    }
    for (p, &want) in report.programs.iter().zip(expected) {
        let got = p.bytes_read + p.bytes_written;
        if got != want {
            return Err(format!(
                "{}: served {got} bytes, scripts request {want}",
                p.name
            ));
        }
    }
    Ok(())
}

/// Host timings and results of one repetition.
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub wall_s: f64,
    pub report: RunReport,
    pub fingerprint: String,
}

/// One pass of the user's path, timed stage by stage.
pub fn one_rep(json: &str) -> Result<Rep, String> {
    let t0 = Instant::now();
    let spec = ExperimentSpec::from_json(json)?;
    let mut cluster = build_cluster(&spec);
    let t1 = Instant::now();
    let report = cluster.run();
    let t2 = Instant::now();
    let out = serde_json::to_string(&report).map_err(|e| format!("serialize report: {e}"))?;
    let t3 = Instant::now();
    drop(black_box(cluster));
    Ok(Rep {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        wall_s: (t3 - t0).as_secs_f64(),
        report,
        fingerprint: report_fingerprint(black_box(&out)),
    })
}

/// Run `one_rep`, turning a panic into an error.
pub fn guarded_rep(json: &str) -> Result<Rep, String> {
    match catch_unwind(AssertUnwindSafe(|| one_rep(json))) {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panicked: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    }
}

/// What a run observed: counts, failure reasons and metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// The end-to-end metrics: repeat the workload for `seconds` after one
/// warm-up repetition, which is checked but not timed.
pub fn end_to_end(gen: &Generated, seconds: f64) -> Outcome {
    let json = serde_json::to_string(&gen.spec).expect("a generated spec serializes");
    let expected: Vec<u64> = generate_scripts(&gen.spec)
        .iter()
        .map(script_bytes)
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let (mut setup, mut run, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(String, f64, f64)> = None;
    let start = Instant::now();
    let mut measuring_since: Option<Instant> = None;
    loop {
        attempted += 1;
        let checked = guarded_rep(&json).and_then(|rep| {
            check_conservation(&rep.report, &expected)?;
            if Duration::from_secs_f64(rep.wall_s) > REP_DEADLINE {
                return Err(format!("took {:.1} s, over the deadline", rep.wall_s));
            }
            match &first {
                None => {
                    first = Some((
                        rep.fingerprint.clone(),
                        rep.report.aggregate_throughput_mbps(),
                        rep.report.sim_end.as_secs_f64(),
                    ))
                }
                Some((fp, _, _)) if *fp != rep.fingerprint => {
                    return Err(format!(
                        "report fingerprint {} differs from {fp}",
                        rep.fingerprint
                    ))
                }
                Some(_) => {}
            }
            Ok(rep)
        });
        match checked {
            Ok(rep) if measuring_since.is_some() => {
                setup.push(rep.setup_s);
                run.push(rep.run_s);
                wall.push(rep.wall_s);
            }
            Ok(_) => {}
            Err(e) => {
                failed += 1;
                failures.push(format!("repetition {attempted}: {e}"));
            }
        }
        let since = *measuring_since.get_or_insert_with(Instant::now);
        let enough = wall.len() >= MIN_TIMED_REPS && since.elapsed().as_secs_f64() >= seconds;
        if enough || start.elapsed() >= RUN_CAP || (failed > 0 && first.is_none()) {
            break;
        }
    }
    let (fp, mbps, makespan) = first.unwrap_or_default();
    let n = wall.len();
    let metrics = vec![
        Metric::new("wall_s", median(&wall), "s", describe(&wall)),
        Metric::new("setup_s", median(&setup), "s", describe(&setup)),
        Metric::new("run_s", median(&run), "s", describe(&run)),
        Metric::new(
            "peak_rss_mib",
            peak_rss_mib(),
            "MiB",
            "VmHWM of this process",
        ),
        Metric::new("sim_mbps", mbps, "MB/s", format!("exact, report {fp}")),
        Metric::new(
            "sim_makespan_s",
            makespan,
            "sim_s",
            format!("exact, {n} timed reps"),
        ),
    ];
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
    }
}

//! `simbench`: the DualPar simulator's benchmark.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|small]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all instrumentation
//! off; `--trace 1` makes the traced run that gives the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is the JSON result. The exit code is non-zero if any check
//! failed. See `simbench/README.md` for the metrics and workloads.

mod measure;
mod report;
mod spans;
mod traced;
mod workloads;

use report::{machine_stamp, out_dir, result_file, result_line};
use workloads::Scale;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    v => return Err(format!("--scale must be full or small, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(gen) = workloads::generate(&args.workload, args.seed, args.scale) else {
        eprintln!(
            "simbench: unknown workload {:?} (known: {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let stamp = machine_stamp();
    let outcome = if args.trace {
        traced::per_layer(&args.workload, args.seed, &gen, args.seconds)
    } else {
        measure::end_to_end(&gen, args.seconds)
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;

    let line: Vec<String> = stamp.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!("machine: {}", line.join(" "));
    println!(
        "workload {} seed {} trace {}: {} attempted, {} failed, failed_frac {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for f in &outcome.failures {
        println!("  FAILED {f}");
    }
    for m in &outcome.metrics {
        println!(
            "  {:<32} {:>16} {:<6} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.note
        );
    }
    let dir = out_dir();
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let record = result_file(
        &args.workload,
        args.seed,
        args.trace,
        &stamp,
        &outcome.failures,
        &outcome.metrics,
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("simbench: cannot write {}: {e}", file.display());
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

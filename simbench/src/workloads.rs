//! The benchmark's workloads: each one an [`ExperimentSpec`] built from a
//! seed. The program only ever sees the generated spec.
//!
//! The seed sets `cluster.seed` and varies one parameter of each workload
//! (BTIO's compute per step by up to ±2 %; the adaptive writer's file
//! length by up to −5 %), so different seeds give different but
//! same-shaped inputs.

use dualpar_bench::{paper_cluster, small_cluster, ExperimentSpec, ProgramEntry, WorkloadSpec};
use dualpar_cluster::{ClusterConfig, IoStrategy};
use dualpar_disk::IoKind;
use dualpar_sim::{DetRng, SimDuration};
use dualpar_workloads::{Btio, MpiIoTest};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = [
    "vanilla_tiny_writes",
    "dualpar_tiny_writes",
    "adaptive_read_write",
];

/// Full size is what the benchmark measures; small is for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// A generated workload: the spec plus the size of each program's file,
/// in program order (the replays recreate the same file layout).
pub struct Generated {
    pub spec: ExperimentSpec,
    pub file_sizes: Vec<u64>,
}

/// `base` scaled by a seed-drawn factor in [0.98, 1.02].
fn jitter(rng: &mut DetRng, base: SimDuration) -> SimDuration {
    let permille = rng.uniform_u64(980, 1021);
    SimDuration(base.nanos() / 1000 * permille)
}

fn btio(nprocs: usize, cell_at_64: u64, dataset: u64, steps: u64, compute: SimDuration) -> Btio {
    Btio {
        nprocs,
        dataset,
        cell_at_64,
        steps,
        kind: IoKind::Write,
        collective: false,
        compute_per_step: compute,
        verify: false,
    }
}

fn program(workload: WorkloadSpec, strategy: IoStrategy, start_secs: f64) -> ProgramEntry {
    ProgramEntry {
        workload,
        strategy,
        start_secs,
    }
}

/// Build workload `name` from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Generated> {
    let mut rng = DetRng::for_stream(seed, "simbench");
    let small = scale == Scale::Small;
    let (cluster, programs, file_sizes): (ClusterConfig, Vec<ProgramEntry>, Vec<u64>) = match name {
        // Event-loop bound: every 64 B cell is its own request through the
        // event queue, server windows, PVFS resolution and CFQ.
        "vanilla_tiny_writes" => {
            let dataset = if small { 1 << 20 } else { 64 << 20 };
            let compute = jitter(&mut rng, SimDuration::from_millis(50));
            let w = btio(16, 16, dataset, 16, compute);
            let p = program(WorkloadSpec::named(w), IoStrategy::Vanilla, 0.0);
            (small_cluster(), vec![p], vec![dataset])
        }
        // Data-driven bound: 4 Mi 16 B cells buffered in the global cache,
        // drained in a handful of large write-back batches.
        "dualpar_tiny_writes" => {
            let dataset = if small { 1 << 20 } else { 64 << 20 };
            let compute = jitter(&mut rng, SimDuration::from_millis(50));
            let w = btio(64, 16, dataset, 4, compute);
            let p = program(WorkloadSpec::named(w), IoStrategy::DualParForced, 0.0);
            (small_cluster(), vec![p], vec![dataset])
        }
        // Both directions under EMC: a sequential reader and a writer
        // starting at 0.5 s interfere at CFQ until EMC switches both to
        // data-driven. The seed trims the writer's file by up to 5 % in
        // whole MiB: the writer's file is allocated last and its first
        // calls do not depend on its length, so the first seconds — and
        // EMC's switch decisions in them — are the same for every seed.
        // (EMC's decisions are sensitive to start times: a writer starting
        // at 0.48 s or 0.525 s instead never switches and runs for 102 s.)
        "adaptive_read_write" => {
            let file_size: u64 = if small { 128 << 20 } else { 8 << 30 };
            let max_trim_mib = (file_size / 20) >> 20;
            let writer_size = file_size - (rng.uniform_u64(0, max_trim_mib + 1) << 20);
            let mpiio = |kind, file_size| MpiIoTest {
                nprocs: 64,
                file_size,
                request_size: 16 * 1024,
                kind,
                ..MpiIoTest::default()
            };
            let programs = vec![
                program(
                    WorkloadSpec::named(mpiio(IoKind::Read, file_size)),
                    IoStrategy::DualPar,
                    0.0,
                ),
                program(
                    WorkloadSpec::named(mpiio(IoKind::Write, writer_size)),
                    IoStrategy::DualPar,
                    0.5,
                ),
            ];
            (paper_cluster(), programs, vec![file_size, writer_size])
        }
        _ => return None,
    };
    let spec = ExperimentSpec {
        cluster: ClusterConfig { seed, ..cluster },
        programs,
        ..ExperimentSpec::default()
    };
    Some(Generated { spec, file_sizes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_spec_and_seeds_differ() {
        for name in NAMES {
            let json = |seed| {
                let g = generate(name, seed, Scale::Small).expect("known workload");
                serde_json::to_string(&g.spec).expect("serialize spec")
            };
            assert_eq!(json(7), json(7), "{name}");
            assert_ne!(json(7), json(8), "{name}");
            ExperimentSpec::from_json(&json(7)).expect("generated spec is valid");
        }
        assert!(generate("nope", 1, Scale::Full).is_none());
    }
}

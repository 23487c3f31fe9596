//! The traced run: per-layer numbers for one workload.
//!
//! Three parts, all single-threaded, each inside the benchmark's own
//! spans (nothing inside the program is instrumented):
//!
//! 1. Reference repetitions of the untraced path, with `build_cluster`
//!    taken apart into its public steps so parse, script generation,
//!    cluster build, event loop and serialization are timed one by one.
//! 2. One run at telemetry level `Trace` with spans on. It gives the
//!    program's own counters and sim-time stage latencies; its JSONL trace
//!    is exported and checked by `dualpar-audit` as a library.
//! 3. Replays of the workload's generated scripts through the model
//!    crates' public functions (`EventQueue`, `Pvfs::resolve`, `Disk`,
//!    `GlobalCache`, `ghost_walk`, `plan_prefetch`, `plan_writeback`),
//!    timed per call. Each replayed family prints its call count beside
//!    the program counter for the same work, so coverage is visible.

use crate::measure::{check_conservation, generate_scripts, script_bytes, Outcome};
use crate::report::{describe, median, out_dir, Metric};
use crate::spans::Spans;
use crate::workloads::Generated;
use dualpar_audit::{audit_jsonl_str, AuditConfig};
use dualpar_bench::suite::report_fingerprint;
use dualpar_bench::ExperimentSpec;
use dualpar_cache::{CacheConfig, GlobalCache, OwnerId};
use dualpar_cluster::{
    Cluster, ClusterConfig, ProgramSpec, RunReport, TelemetryConfig, TelemetryLevel,
    TelemetrySnapshot,
};
use dualpar_core::{ghost_walk, plan_prefetch, plan_writeback};
use dualpar_disk::{Disk, DiskRequest, IoCtx, IoKind, StartOutcome};
use dualpar_mpiio::{Op, ProgramScript};
use dualpar_pfs::{FileId, FileRegion, Pvfs, ResolvedIo};
use dualpar_sim::{DetRng, EventQueue, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Untraced reference repetitions, at the least.
const REFERENCE_REPS: usize = 3;
/// A replayed family is flagged when replayed calls / program calls falls
/// outside this range (or the program made no such calls).
const COVERAGE_RANGE: (f64, f64) = (0.5, 2.0);
/// Longest queue the disk replay builds before draining a disk.
const MAX_DISK_DEPTH: usize = 4096;

/// Accumulated host time and call count of one replayed function.
#[derive(Default, Clone, Copy)]
struct Acc {
    ns: u64,
    calls: u64,
}

impl Acc {
    fn add(&mut self, t0: Instant, calls: u64) {
        self.ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += calls;
    }

    fn ns_per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Results of one reference repetition.
struct RefRep {
    parse_s: f64,
    generate_s: f64,
    build_s: f64,
    run_s: f64,
    report: RunReport,
    fingerprint: String,
}

/// `build_cluster` taken apart: the same public steps in the same order,
/// each in its own span.
fn build_in_spans(sp: &mut Spans, json: &str) -> Result<Cluster, String> {
    let spec = sp.span("bench", "bench.parse", |_| ExperimentSpec::from_json(json))?;
    Ok(sp.span("cluster", "cluster.build", |sp| {
        let mut cluster = Cluster::new(spec.cluster.clone());
        for (i, entry) in spec.programs.iter().enumerate() {
            let script = sp.span("workloads", "workloads.generate", |_| {
                entry.workload.materialize(&mut cluster, &i.to_string())
            });
            cluster.add_program(
                ProgramSpec::new(script, entry.strategy)
                    .starting_at(SimTime::from_secs_f64(entry.start_secs)),
            );
        }
        cluster
    }))
}

fn reference_rep(sp: &mut Spans, json: &str) -> Result<RefRep, String> {
    sp.span("bench", "bench.reference", |sp| {
        let mut cluster = build_in_spans(sp, json)?;
        let report = sp.span("cluster", "cluster.run", |_| cluster.run());
        let out = sp
            .span("bench", "bench.serialize", |_| {
                serde_json::to_string(&report)
            })
            .map_err(|e| format!("serialize report: {e}"))?;
        drop(cluster);
        Ok(RefRep {
            parse_s: sp.last_secs("bench.parse"),
            generate_s: sp.child_secs("cluster.build", "workloads.generate"),
            build_s: sp.last_secs("cluster.build"),
            run_s: sp.last_secs("cluster.run"),
            report,
            fingerprint: report_fingerprint(&out),
        })
    })
}

/// Run `spec` with `telemetry` in the span `name`; check that, its
/// telemetry aside, the report is the untraced reference byte for byte:
/// instrumentation must not change the simulation.
fn instrumented_run(
    sp: &mut Spans,
    spec: &ExperimentSpec,
    telemetry: TelemetryConfig,
    name: &'static str,
    reference: &RefRep,
) -> Result<(Cluster, RunReport, TelemetrySnapshot), String> {
    let mut spec = spec.clone();
    spec.cluster.telemetry = telemetry;
    let json = serde_json::to_string(&spec).map_err(|e| format!("serialize spec: {e}"))?;
    let mut cluster = build_in_spans(sp, &json)?;
    let mut report = sp.span("cluster", name, |_| cluster.run());
    let snapshot = report
        .telemetry
        .take()
        .ok_or("instrumented run has no telemetry")?;
    let profile = report.span_profile.take();
    let fp = report_fingerprint(&serde_json::to_string(&report).map_err(|e| e.to_string())?);
    if fp != reference.fingerprint {
        return Err(format!(
            "{name}: report {fp} differs from untraced {}",
            reference.fingerprint
        ));
    }
    report.span_profile = profile;
    Ok((cluster, report, snapshot))
}

/// What the instrumented runs observed.
struct Traced {
    /// Counters level with spans on: the program's counters and sim-time
    /// stage latencies.
    run_s: f64,
    report: RunReport,
    snapshot: TelemetrySnapshot,
    /// Trace level with spans off: the JSONL trace the auditor checks.
    trace_run_s: f64,
    export_s: f64,
    audit_s: f64,
    trace_kept: u64,
    trace_dropped: u64,
}

/// Two instrumented runs. Spans are recorded at the counters level, and
/// the audited JSONL trace comes from a trace-level run without spans:
/// with spans on, the per-shard trace rings of a long run truncate at
/// different points and split span open/close pairs, which the auditor
/// reports as unpaired spans.
fn traced_runs(
    sp: &mut Spans,
    spec: &ExperimentSpec,
    reference: &RefRep,
) -> Result<Traced, String> {
    sp.span("bench", "bench.traced", |sp| {
        let counted = TelemetryConfig {
            level: TelemetryLevel::Counters,
            spans: true,
            ..TelemetryConfig::default()
        };
        let (cluster, report, snapshot) =
            instrumented_run(sp, spec, counted, "cluster.run_traced", reference)?;
        drop(cluster);
        let profile = report
            .span_profile
            .as_ref()
            .ok_or("traced run has no span profile")?;
        if profile.spans_open != 0 {
            return Err(format!("{} spans left open", profile.spans_open));
        }
        let run_s = sp.last_secs("cluster.run_traced");

        let traced = TelemetryConfig::at(TelemetryLevel::Trace);
        let (cluster, _, trace_snapshot) =
            instrumented_run(sp, spec, traced, "cluster.run_trace_level", reference)?;
        let mut trace = Vec::new();
        sp.span("telemetry", "telemetry.export", |_| {
            cluster.export_trace(&mut trace)
        })
        .map_err(|e| format!("export trace: {e}"))?;
        drop(cluster);
        let text = String::from_utf8(trace).map_err(|e| format!("trace is not UTF-8: {e}"))?;
        let cfg = AuditConfig {
            tolerate_truncation: trace_snapshot.trace_dropped > 0,
            ..AuditConfig::default()
        };
        let audit = sp
            .span("audit", "audit.check", |_| audit_jsonl_str(&text, cfg))
            .map_err(|e| format!("trace does not parse: {e:?}"))?;
        if !audit.ok() {
            return Err(format!(
                "trace audit: {} violations, first: {:?}",
                audit.violations.len(),
                audit.violations.first()
            ));
        }
        Ok(Traced {
            run_s,
            report,
            snapshot,
            trace_run_s: sp.last_secs("cluster.run_trace_level"),
            export_s: sp.last_secs("telemetry.export"),
            audit_s: sp.last_secs("audit.check"),
            trace_kept: trace_snapshot.trace_events,
            trace_dropped: trace_snapshot.trace_dropped,
        })
    })
}

/// Per-call timings of the replays.
#[derive(Default)]
struct Replay {
    schedule: Acc,
    pop: Acc,
    peek: Acc,
    resolve: Acc,
    pieces: u64,
    enqueue: Acc,
    try_start: Acc,
    complete: Acc,
    put_write: Acc,
    put_write_bytes: u64,
    put_prefetch: Acc,
    put_prefetch_bytes: u64,
    read: Acc,
    drain_dirty: Acc,
    ghost_walk: Acc,
    plan_prefetch: Acc,
    plan_writeback: Acc,
}

/// `EventQueue` at the program's depth: hold the queue at
/// `engine.queue_depth_max` pending events and pop/schedule/peek as many
/// times as the program processed events, with gaps that advance
/// simulated time at the program's mean rate.
fn replay_event_queue(r: &mut Replay, events: u64, depth: usize, sim_end: SimTime, seed: u64) {
    let depth = depth.max(1);
    let mut rng = DetRng::for_stream(seed, "simbench-fel");
    let mean_gap = sim_end.0 as f64 / events.max(1) as f64 * depth as f64;
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime(rng.exp_f64(mean_gap) as u64), i as u32);
    }
    let batch = depth.min(1024);
    let mut gaps = vec![0u64; batch];
    let mut done = 0u64;
    while done < events {
        let k = batch.min(usize::try_from(events - done).unwrap_or(batch));
        for g in gaps.iter_mut().take(k) {
            *g = rng.exp_f64(mean_gap) as u64;
        }
        let t0 = Instant::now();
        for _ in 0..k {
            black_box(q.peek_time());
        }
        r.peek.add(t0, k as u64);
        let t0 = Instant::now();
        for _ in 0..k {
            black_box(q.pop());
        }
        r.pop.add(t0, k as u64);
        let t0 = Instant::now();
        for (i, g) in gaps.iter().take(k).enumerate() {
            let at = SimTime(q.now().0.saturating_add(*g));
            q.schedule(at, i as u32);
        }
        r.schedule.add(t0, k as u64);
        done += k as u64;
    }
}

/// One disk per data server, each held at the program's deepest disk
/// queue: every piece is enqueued, and once `depth` are queued the disk
/// services one dispatch (which may merge several queued pieces).
/// `enqueue`, `try_start` and `complete` are timed call by call, so their
/// figures include one clock read (about 20 ns).
struct DiskReplay {
    disks: Vec<(Disk, SimTime, usize)>,
    depth: usize,
    next_id: u64,
}

impl DiskReplay {
    fn new(cfg: &ClusterConfig, depth: usize) -> Self {
        DiskReplay {
            disks: (0..cfg.num_data_servers)
                .map(|_| {
                    (
                        Disk::new(cfg.disk.clone(), cfg.scheduler, false),
                        SimTime::ZERO,
                        0,
                    )
                })
                .collect(),
            depth: depth.clamp(1, MAX_DISK_DEPTH),
            next_id: 0,
        }
    }

    fn push(&mut self, r: &mut Replay, server: usize, kind: IoKind, lbn: u64, sectors: u64) {
        self.next_id += 1;
        let (disk, now, queued) = &mut self.disks[server];
        let req = DiskRequest::new(self.next_id, IoCtx(0), kind, lbn, sectors, *now);
        let t0 = Instant::now();
        disk.enqueue(req);
        r.enqueue.add(t0, 1);
        *queued += 1;
        if *queued >= self.depth {
            Self::service_one(r, disk, now, queued);
        }
    }

    /// Start and complete one dispatch; false once the disk is idle.
    fn service_one(r: &mut Replay, disk: &mut Disk, now: &mut SimTime, queued: &mut usize) -> bool {
        loop {
            let t0 = Instant::now();
            let outcome = disk.try_start(*now);
            r.try_start.add(t0, 1);
            match outcome {
                StartOutcome::Started { finish } => {
                    *now = finish;
                    let t0 = Instant::now();
                    let done = disk.complete();
                    r.complete.add(t0, 1);
                    *queued = queued.saturating_sub(done.merged_ids().len());
                    return true;
                }
                StartOutcome::Idle { until } => *now = until.max_of(*now + SimDuration(1)),
                StartOutcome::Quiescent => return false,
            }
        }
    }

    fn finish(&mut self, r: &mut Replay) {
        for (disk, now, queued) in &mut self.disks {
            while Self::service_one(r, disk, now, queued) {}
        }
    }
}

/// Resolve regions through PVFS, timed, into disk pieces.
fn resolve(
    r: &mut Replay,
    pvfs: &Pvfs,
    regions: &[(IoKind, FileId, FileRegion)],
) -> Vec<Vec<ResolvedIo>> {
    let t0 = Instant::now();
    let resolved: Vec<_> = regions
        .iter()
        .map(|&(_, f, reg)| pvfs.resolve(f, reg))
        .collect();
    r.resolve.add(t0, regions.len() as u64);
    r.pieces += resolved.iter().map(|p| p.len() as u64).sum::<u64>();
    resolved
}

/// The data path of each program, phase by phase as DualPar runs it:
/// ghost walks up to the cache quota per rank, CRM prefetch planning and
/// cache fills for the phase's reads, buffered writes drained into a
/// write-back plan. What reaches PVFS and the disks is the CRM covers for
/// DualPar programs and the raw regions for vanilla ones. A workload with
/// no reads replays its read path over its write regions, like BTIO's
/// verification pass, so every function is timed on every workload.
fn replay_data_path(
    sp: &mut Spans,
    r: &mut Replay,
    gen: &Generated,
    scripts: &[ProgramScript],
    disk_depth: usize,
) {
    let cfg = &gen.spec.cluster;
    let mut pvfs = Pvfs::new(
        cfg.num_data_servers,
        cfg.stripe_size,
        cfg.disk.capacity_sectors,
        cfg.alloc.clone(),
    );
    for (i, &size) in gen.file_sizes.iter().enumerate() {
        pvfs.create(&format!("file-{i}"), size);
    }
    let mut cache = GlobalCache::new(CacheConfig {
        chunk_size: cfg.stripe_size,
        num_nodes: cfg.num_compute_nodes,
        idle_ttl: SimDuration::from_secs(30),
        node_capacity: u64::MAX,
    });
    let mut disks = DiskReplay::new(cfg, disk_depth);
    let any_reads = scripts
        .iter()
        .flat_map(|s| &s.ranks)
        .flat_map(|r| &r.ops)
        .any(|op| matches!(op, Op::Io(c) if c.kind == IoKind::Read));
    let now = SimTime::ZERO;
    for (pi, (script, entry)) in scripts.iter().zip(&gen.spec.programs).enumerate() {
        let dualpar = entry.strategy.is_dualpar();
        let owner_base = (pi as u64) << 32;
        let mut pos = vec![0usize; script.ranks.len()];
        loop {
            let mut reads: Vec<(FileId, FileRegion)> = Vec::new();
            let mut writes: Vec<(u64, FileId, FileRegion)> = Vec::new();
            sp.span("core", "core.ghost_walk", |_| {
                for (rank, rs) in script.ranks.iter().enumerate() {
                    let start = pos[rank];
                    if start >= rs.ops.len() {
                        continue;
                    }
                    let t0 = Instant::now();
                    let g = ghost_walk(rs, start, cfg.dualpar.cache_quota);
                    r.ghost_walk.add(t0, 1);
                    let end = g.end_pos.max(start + 1);
                    for op in &rs.ops[start..end] {
                        if let Op::Io(c) = op {
                            for reg in &c.regions {
                                match c.kind {
                                    IoKind::Read => reads.push((c.file, *reg)),
                                    IoKind::Write => {
                                        writes.push((owner_base | rank as u64, c.file, *reg))
                                    }
                                }
                            }
                        }
                    }
                    pos[rank] = end;
                }
            });
            if reads.is_empty() && writes.is_empty() {
                break;
            }
            let raw: Vec<(IoKind, FileId, FileRegion)> = reads
                .iter()
                .map(|&(f, reg)| (IoKind::Read, f, reg))
                .chain(writes.iter().map(|&(_, f, reg)| (IoKind::Write, f, reg)))
                .collect();
            let read_path: Vec<(FileId, FileRegion)> = if any_reads {
                reads
            } else {
                writes.iter().map(|&(_, f, reg)| (f, reg)).collect()
            };
            let mut to_disk: Vec<(IoKind, FileId, FileRegion)> = Vec::new();
            if !read_path.is_empty() {
                let plan = sp.span("core", "core.plan_prefetch", |_| {
                    let t0 = Instant::now();
                    let plan = plan_prefetch(&cfg.dualpar, read_path.clone());
                    r.plan_prefetch.add(t0, 1);
                    plan
                });
                sp.span("cache", "cache.put_prefetch", |_| {
                    let t0 = Instant::now();
                    for io in &plan.reads {
                        black_box(cache.put_prefetch(OwnerId(owner_base), io.file, io.cover, now));
                        r.put_prefetch_bytes += io.cover.len;
                    }
                    r.put_prefetch.add(t0, plan.reads.len() as u64);
                });
                sp.span("cache", "cache.read", |_| {
                    let t0 = Instant::now();
                    for &(f, reg) in &read_path {
                        black_box(cache.read(f, reg, now));
                    }
                    r.read.add(t0, read_path.len() as u64);
                });
                if any_reads {
                    to_disk.extend(
                        plan.reads
                            .iter()
                            .map(|io| (IoKind::Read, io.file, io.cover)),
                    );
                }
            }
            if !writes.is_empty() {
                sp.span("cache", "cache.put_write", |_| {
                    let t0 = Instant::now();
                    for &(owner, f, reg) in &writes {
                        black_box(cache.put_write(OwnerId(owner), f, reg, now));
                        r.put_write_bytes += reg.len;
                    }
                    r.put_write.add(t0, writes.len() as u64);
                });
                let dirty = sp.span("cache", "cache.drain_dirty", |_| {
                    let t0 = Instant::now();
                    let dirty = cache.drain_dirty();
                    r.drain_dirty.add(t0, 1);
                    dirty
                });
                let plan = sp.span("core", "core.plan_writeback", |_| {
                    let t0 = Instant::now();
                    let plan = plan_writeback(&cfg.dualpar, dirty);
                    r.plan_writeback.add(t0, 1);
                    plan
                });
                to_disk.extend(
                    plan.writes
                        .iter()
                        .map(|io| (IoKind::Write, io.file, io.cover)),
                );
            }
            let files = raw.iter().map(|&(_, f, _)| f).collect();
            cache.evict_clean_for(&files);
            let issued = if dualpar { &to_disk } else { &raw };
            let resolved = sp.span("pfs", "pfs.resolve", |_| resolve(r, &pvfs, issued));
            sp.span("disk", "disk.replay", |_| {
                for (&(kind, _, _), pieces) in issued.iter().zip(&resolved) {
                    for p in pieces {
                        disks.push(r, p.server.0 as usize, kind, p.lbn, p.sectors);
                    }
                }
            });
        }
    }
    sp.span("disk", "disk.drain", |_| disks.finish(r));
}

fn counter(s: &TelemetrySnapshot, name: &str) -> f64 {
    s.counters
        .get(name)
        .map(|&v| v as f64)
        .or_else(|| s.gauges.get(name).copied())
        .unwrap_or(0.0)
}

/// Replayed calls beside the program's count of the same work; flagged
/// outside [`COVERAGE_RANGE`].
fn coverage(flagged: &mut u64, replayed: f64, program: f64, program_name: &str) -> String {
    let ratio = if program > 0.0 {
        replayed / program
    } else {
        f64::INFINITY
    };
    let ok = ratio >= COVERAGE_RANGE.0 && ratio <= COVERAGE_RANGE.1;
    if !ok {
        *flagged += 1;
    }
    format!(
        "replayed {replayed} vs program {program_name} {program} (ratio {ratio:.3}){}",
        if ok {
            ""
        } else if program == 0.0 {
            " FLAG: program does no such work here"
        } else {
            " FLAG: outside coverage range"
        }
    )
}

/// One untraced reference repetition, checked for conservation and
/// against the first repetition's report.
fn checked_reference(
    sp: &mut Spans,
    json: &str,
    expected: &[u64],
    first: Option<&RefRep>,
) -> Result<RefRep, String> {
    let rep = reference_rep(sp, json)?;
    check_conservation(&rep.report, expected)?;
    match first {
        Some(f) if f.fingerprint != rep.fingerprint => Err(format!(
            "report {} differs from {}",
            rep.fingerprint, f.fingerprint
        )),
        _ => Ok(rep),
    }
}

/// The per-layer metrics of one workload.
pub fn per_layer(workload: &str, seed: u64, gen: &Generated, seconds: f64) -> Outcome {
    let start = Instant::now();
    let json = serde_json::to_string(&gen.spec).expect("a generated spec serializes");
    let mut sp = Spans::new(format!("{workload}/seed{seed}"));
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut refs: Vec<RefRep> = Vec::new();
    // The scripts the replays walk, generated as `build_cluster` does.
    let scripts = sp.span("bench", "bench.scripts", |_| generate_scripts(&gen.spec));
    let expected: Vec<u64> = scripts.iter().map(script_bytes).collect();
    let ops: usize = scripts
        .iter()
        .flat_map(|s| &s.ranks)
        .map(|r| r.ops.len())
        .sum();
    let mut traced = None;
    while failures.is_empty() {
        let rep_done = refs.len() >= REFERENCE_REPS;
        if rep_done && traced.is_some() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        attempted += 1;
        if rep_done && traced.is_none() {
            // After the first reference repetitions: the instrumented runs
            // and the replays, once.
            match traced_runs(&mut sp, &gen.spec, &refs[0]) {
                Ok(t) => {
                    let r = sp.span("bench", "bench.replay", |sp| {
                        replay(sp, &refs[0], &t, gen, &scripts, seed)
                    });
                    traced = Some((t, r));
                }
                Err(e) => failures.push(format!("traced run: {e}")),
            }
            continue;
        }
        match checked_reference(&mut sp, &json, &expected, refs.first()) {
            Ok(rep) => refs.push(rep),
            Err(e) => failures.push(format!("reference repetition {}: {e}", refs.len() + 1)),
        }
    }
    let metrics = match (&traced, refs.first()) {
        (Some((t, r)), Some(first)) if failures.is_empty() => {
            layer_metrics(&refs, first, t, r, ops, &sp)
        }
        _ => Vec::new(),
    };
    let spans_file = out_dir().join(format!("{workload}-seed{seed}-spans.jsonl"));
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&spans_file, sp.to_jsonl()))
    {
        eprintln!("simbench: cannot write {}: {e}", spans_file.display());
    }
    Outcome {
        attempted,
        failed: failures.len() as u64,
        failures,
        metrics,
    }
}

/// Every replay, at the sizes the instrumented run observed.
fn replay(
    sp: &mut Spans,
    reference: &RefRep,
    traced: &Traced,
    gen: &Generated,
    scripts: &[ProgramScript],
    seed: u64,
) -> Replay {
    let mut r = Replay::default();
    let snap = &traced.snapshot;
    sp.span("simcore", "simcore.replay", |_| {
        let depth = counter(snap, "engine.queue_depth_max") as usize;
        let report = &reference.report;
        replay_event_queue(&mut r, report.events_processed, depth, report.sim_end, seed);
    });
    let disk_depth = counter(snap, "disk.queue_depth_max") as usize;
    replay_data_path(sp, &mut r, gen, scripts, disk_depth);
    r
}

/// The per-layer metric list, in `BENCHMARK.json` order.
fn layer_metrics(
    refs: &[RefRep],
    first: &RefRep,
    traced: &Traced,
    r: &Replay,
    ops: usize,
    sp: &Spans,
) -> Vec<Metric> {
    let snap = &traced.snapshot;
    let program = |name: &str| counter(snap, name);
    let col = |f: fn(&RefRep) -> f64| refs.iter().map(f).collect::<Vec<f64>>();
    let (parse, generate, build, run) = (
        col(|r| r.parse_s),
        col(|r| r.generate_s),
        col(|r| r.build_s),
        col(|r| r.run_s),
    );
    let run_s = median(&run);
    let report = &first.report;
    let events = report.events_processed;
    let mut flagged = 0u64;
    let mut m = Vec::new();
    let mut add = |name: &str, value: f64, unit: &'static str, note: String| {
        m.push(Metric::new(name, value, unit, note))
    };

    add("bench.parse_s", median(&parse), "s", describe(&parse));
    add(
        "workloads.generate_s",
        median(&generate),
        "s",
        describe(&generate),
    );
    add(
        "workloads.ops",
        ops as f64,
        "count",
        "ops in the generated scripts".into(),
    );
    add(
        "cluster.build_s",
        median(&build),
        "s",
        format!("{}, includes generate", describe(&build)),
    );
    add("cluster.run_s", run_s, "s", describe(&run));
    add(
        "cluster.events",
        events as f64,
        "count",
        "RunReport.events_processed".into(),
    );
    let per_event = run_s * 1e9 / events.max(1) as f64;
    add(
        "cluster.ns_per_event",
        per_event,
        "ns",
        "untraced run_s / events".into(),
    );
    for name in [
        "engine.ev.proc_ready",
        "engine.ev.sub_done",
        "engine.ev.server_recv",
        "engine.ev.disk_done",
        "engine.ev.disk_kick",
        "engine.ev.emc_tick",
        "engine.queue_depth_max",
    ] {
        add(name, program(name), "count", "program counter".into());
    }

    let fel = coverage(
        &mut flagged,
        r.pop.calls as f64,
        events as f64,
        "events_processed",
    );
    add(
        "simcore.schedule_ns",
        r.schedule.ns_per_call(),
        "ns",
        fel.clone(),
    );
    add("simcore.pop_ns", r.pop.ns_per_call(), "ns", fel.clone());
    add("simcore.peek_time_ns", r.peek.ns_per_call(), "ns", fel);

    let recv = program("engine.ev.server_recv");
    let pieces = coverage(
        &mut flagged,
        r.pieces as f64,
        recv,
        "engine.ev.server_recv (pieces)",
    );
    add("pfs.resolve_ns", r.resolve.ns_per_call(), "ns", pieces);
    let per_region = r.pieces as f64 / r.resolve.calls.max(1) as f64;
    add(
        "pfs.pieces_per_region",
        per_region,
        "ratio",
        format!("{} regions resolved", r.resolve.calls),
    );

    add(
        "disk.enqueue_ns",
        r.enqueue.ns_per_call(),
        "ns",
        format!("{} requests", r.enqueue.calls),
    );
    add(
        "disk.try_start_ns",
        r.try_start.ns_per_call(),
        "ns",
        format!("{} calls", r.try_start.calls),
    );
    let done = program("engine.ev.disk_done");
    let dispatches = coverage(
        &mut flagged,
        r.complete.calls as f64,
        done,
        "engine.ev.disk_done",
    );
    add(
        "disk.complete_ns",
        r.complete.ns_per_call(),
        "ns",
        dispatches,
    );
    let seek = "disk.seek_sectors_total";
    add(seek, program(seek), "count", "program counter".into());
    let useful: u64 = report
        .programs
        .iter()
        .map(|p| p.bytes_read + p.bytes_written)
        .sum();
    let useful_ratio = useful as f64 / report.disk_bytes.max(1) as f64;
    let note = format!("useful {useful} / disk_bytes {}", report.disk_bytes);
    add("disk.useful_ratio", useful_ratio, "ratio", note);
    let profile = traced.report.span_profile.as_ref();
    for (span, metric) in [
        ("server.queue", "disk.queue_wait"),
        ("disk.service", "disk.service"),
    ] {
        let h = profile.and_then(|p| p.stage_latency.get(span));
        let (p50, p99, n) = h.map_or((0.0, 0.0, 0), |h| (h.p50, h.p99, h.count));
        let note = format!("span {span}, {n} samples");
        add(&format!("{metric}_p50_sim_s"), p50, "sim_s", note.clone());
        add(&format!("{metric}_p99_sim_s"), p99, "sim_s", note);
    }

    let written = program("cache.bytes_written");
    let note = coverage(
        &mut flagged,
        r.put_write_bytes as f64,
        written,
        "cache.bytes_written",
    );
    add("cache.put_write_ns", r.put_write.ns_per_call(), "ns", note);
    let note = format!(
        "{} calls, beside cluster.run_s {run_s:.6}",
        r.put_write.calls
    );
    add("cache.put_write_s", r.put_write.ns as f64 / 1e9, "s", note);
    let fetched = program("cache.bytes_prefetched");
    let note = coverage(
        &mut flagged,
        r.put_prefetch_bytes as f64,
        fetched,
        "cache.bytes_prefetched",
    );
    add(
        "cache.put_prefetch_ns",
        r.put_prefetch.ns_per_call(),
        "ns",
        note,
    );
    let probes = program("cache.read_probes");
    let note = coverage(
        &mut flagged,
        r.read.calls as f64,
        probes,
        "cache.read_probes",
    );
    add("cache.read_ns", r.read.ns_per_call(), "ns", note);
    let wb_phases = program("phase.writeback_covers");
    let note = coverage(
        &mut flagged,
        r.drain_dirty.calls as f64,
        wb_phases,
        "write-back phases",
    );
    add(
        "cache.drain_dirty_ns",
        r.drain_dirty.ns_per_call(),
        "ns",
        note,
    );
    add(
        "cache.read_hits",
        program("cache.read_hits"),
        "count",
        "program counter".into(),
    );
    add(
        "cache.read_probes",
        probes,
        "count",
        "program counter".into(),
    );
    let mis: Vec<f64> = report
        .programs
        .iter()
        .filter(|p| p.phases > 0)
        .map(|p| p.avg_misprefetch)
        .collect();
    let useful_pf = 1.0 - mis.iter().sum::<f64>() / mis.len().max(1) as f64;
    let note = format!(
        "1 - mean avg_misprefetch of {} data-driven programs",
        mis.len()
    );
    add("cache.prefetch_useful_ratio", useful_pf, "ratio", note);

    let ghosts = program("engine.ev.ghost_done");
    let note = coverage(
        &mut flagged,
        r.ghost_walk.calls as f64,
        ghosts,
        "engine.ev.ghost_done",
    );
    add("core.ghost_walk_ns", r.ghost_walk.ns_per_call(), "ns", note);
    let pf_phases = program("phase.prefetch_covers");
    let note = coverage(
        &mut flagged,
        r.plan_prefetch.calls as f64,
        pf_phases,
        "prefetch phases",
    );
    add(
        "core.plan_prefetch_ns",
        r.plan_prefetch.ns_per_call(),
        "ns",
        note,
    );
    let note = coverage(
        &mut flagged,
        r.plan_writeback.calls as f64,
        wb_phases,
        "write-back phases",
    );
    add(
        "core.plan_writeback_ns",
        r.plan_writeback.ns_per_call(),
        "ns",
        note,
    );
    for name in [
        "phase.recorded_regions",
        "phase.batches",
        "crm.subrequests",
        "emc.mode_switches",
    ] {
        add(name, program(name), "count", "program counter".into());
    }

    let untraced = run_s.max(f64::MIN_POSITIVE);
    let note = format!(
        "counters + spans run_s {:.6} / untraced {run_s:.6}",
        traced.run_s
    );
    add(
        "telemetry.traced_ratio",
        traced.run_s / untraced,
        "ratio",
        note,
    );
    let note = format!(
        "trace level, spans off: run_s {:.6} / untraced {run_s:.6}",
        traced.trace_run_s
    );
    add(
        "telemetry.trace_level_ratio",
        traced.trace_run_s / untraced,
        "ratio",
        note,
    );
    let note = format!(
        "{} trace events kept, {} dropped",
        traced.trace_kept, traced.trace_dropped
    );
    add("telemetry.export_s", traced.export_s, "s", note);
    let note = "dualpar-audit trace checks on the exported JSONL".to_string();
    add("audit.check_s", traced.audit_s, "s", note);
    for (layer, secs) in sp.self_secs_by_layer() {
        let note = "span time minus child spans, whole traced run".to_string();
        add(&format!("{layer}.self_s"), secs, "s", note);
    }
    let note = format!("replayed families outside {COVERAGE_RANGE:?} or unused by the program");
    add("replay.flagged", flagged as f64, "count", note);
    m
}

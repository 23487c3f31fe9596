//! Experiment specifications: a cluster configuration plus closed-loop
//! programs (workload + I/O strategy + start time) and open-loop arrival
//! streams (workload + strategy + arrival process), serializable to the
//! JSON the `dualpar` CLI consumes and buildable into a ready-to-run
//! [`Cluster`]. Shared by the CLI, the parallel suite runner, and the
//! determinism tests.
//!
//! ## Schema versions
//!
//! `version` 0 (implicit — the field was introduced together with the
//! `arrivals` section) is the original closed-enum schema: `cluster` +
//! `programs` only. Version 1 adds `version` itself and `arrivals`.
//! [`ExperimentSpec::upgrade`] migrates v0 documents in place — workload
//! tags are unchanged between the closed enum and the preset registry, so
//! the upgrade is purely a version stamp — and rejects versions newer than
//! [`SPEC_VERSION`]. Always parse user JSON through
//! [`ExperimentSpec::from_json`], which upgrades and validates.

use crate::registry::{deserialize_preset, Workload};
use dualpar_cluster::{Cluster, ClusterConfig, IoStrategy, ProgramSpec};
use dualpar_sim::{SimDuration, SimTime};
use dualpar_workloads::{Arrivals, DslWorkload, MpiIoTest};
use serde::{Deserialize, Serialize, Value};

/// The newest spec schema this binary reads and the version it writes.
pub const SPEC_VERSION: u32 = 1;

/// A workload choice: a named benchmark preset from the
/// [registry](crate::registry), or a compositional
/// [DSL](dualpar_workloads::dsl) expression under the `dsl` tag.
#[derive(Debug)]
pub enum WorkloadSpec {
    /// A registered benchmark preset (tagged by its registry name).
    Named(Box<dyn Workload>),
    /// A DSL workload (tagged `dsl`).
    Dsl(DslWorkload),
}

impl WorkloadSpec {
    /// Wrap a preset workload.
    pub fn named(w: impl Workload + 'static) -> Self {
        WorkloadSpec::Named(Box::new(w))
    }

    /// Wrap a DSL workload.
    pub fn dsl(w: DslWorkload) -> Self {
        WorkloadSpec::Dsl(w)
    }

    /// The serde tag this workload serializes under.
    pub fn tag(&self) -> &'static str {
        match self {
            WorkloadSpec::Named(w) => w.tag(),
            WorkloadSpec::Dsl(_) => "dsl",
        }
    }

    /// Estimated file requests generated (suite scheduling cost proxy).
    pub fn cost(&self) -> u64 {
        match self {
            WorkloadSpec::Named(w) => w.cost(),
            WorkloadSpec::Dsl(d) => d.cost(),
        }
    }

    /// Reject impossible parameterisations.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            WorkloadSpec::Named(w) => w.validate(),
            WorkloadSpec::Dsl(d) => d.validate(),
        }
    }

    /// A decorrelated copy for open-loop arrival instance `instance`.
    pub fn reseeded(&self, instance: u64) -> Self {
        match self {
            WorkloadSpec::Named(w) => WorkloadSpec::Named(w.reseeded(instance)),
            WorkloadSpec::Dsl(d) => WorkloadSpec::Dsl(d.reseeded(instance)),
        }
    }

    /// Create the workload's backing files on `cluster` (suffixed with
    /// `label`) and compile its program script.
    pub fn materialize(
        &self,
        cluster: &mut Cluster,
        label: &str,
    ) -> dualpar_mpiio::ProgramScript {
        match self {
            WorkloadSpec::Named(w) => w.materialize(cluster, label),
            WorkloadSpec::Dsl(d) => {
                let f = cluster.create_file(&format!("{}-{label}", d.name), d.file_size);
                d.build(f)
            }
        }
    }
}

impl Clone for WorkloadSpec {
    fn clone(&self) -> Self {
        match self {
            WorkloadSpec::Named(w) => WorkloadSpec::Named(w.clone_box()),
            WorkloadSpec::Dsl(d) => WorkloadSpec::Dsl(d.clone()),
        }
    }
}

// Externally tagged, exactly like the old closed enum: `{"<tag>": {...}}`.
// Manual impls because the payload type behind a registry tag is only known
// at runtime.
impl Serialize for WorkloadSpec {
    fn to_value(&self) -> Value {
        let payload = match self {
            WorkloadSpec::Named(w) => w.payload(),
            WorkloadSpec::Dsl(d) => d.to_value(),
        };
        Value::Map(vec![(self.tag().to_string(), payload)])
    }
}

impl Deserialize for WorkloadSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .filter(|m| m.len() == 1)
            .ok_or_else(|| serde::Error::custom("workload: expected a single-key tagged map"))?;
        let (tag, payload) = &map[0];
        if tag == "dsl" {
            return DslWorkload::from_value(payload).map(WorkloadSpec::Dsl);
        }
        deserialize_preset(tag, payload).map(WorkloadSpec::Named)
    }
}

/// One closed-loop program of an experiment: what to run, how, and when.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramEntry {
    pub workload: WorkloadSpec,
    pub strategy: IoStrategy,
    #[serde(default)]
    pub start_secs: f64,
}

/// One open-loop arrival stream: every arrival of `arrivals` spawns a
/// fresh, decorrelated instance of `workload` under `strategy`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalEntry {
    pub workload: WorkloadSpec,
    pub strategy: IoStrategy,
    pub arrivals: Arrivals,
}

/// A complete experiment: the cluster, its closed-loop programs, and its
/// open-loop arrival streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Schema version; see the [module docs](self). Absent (0) in v0 JSON.
    #[serde(default)]
    pub version: u32,
    #[serde(default)]
    pub cluster: ClusterConfig,
    /// Closed-loop programs. Absent means none — an arrival-only spec.
    #[serde(default)]
    pub programs: Vec<ProgramEntry>,
    /// Open-loop arrival streams (v1+).
    #[serde(default)]
    pub arrivals: Vec<ArrivalEntry>,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            version: SPEC_VERSION,
            cluster: ClusterConfig::default(),
            programs: vec![ProgramEntry {
                workload: WorkloadSpec::named(MpiIoTest {
                    file_size: 256 << 20,
                    ..Default::default()
                }),
                strategy: IoStrategy::DualPar,
                start_secs: 0.0,
            }],
            arrivals: Vec::new(),
        }
    }
}

impl ExperimentSpec {
    /// Migrate an older schema to [`SPEC_VERSION`] and reject newer ones.
    /// v0 → v1 is a pure version stamp: workload tags are identical and v0
    /// documents cannot contain `arrivals`.
    pub fn upgrade(mut self) -> Result<Self, String> {
        match self.version {
            0 => {
                self.version = 1;
                Ok(self)
            }
            SPEC_VERSION => Ok(self),
            v => Err(format!(
                "spec version {v} is newer than this binary's v{SPEC_VERSION}; \
                 rebuild or downgrade the spec"
            )),
        }
    }

    /// Reject specs that parse but cannot run.
    pub fn validate(&self) -> Result<(), String> {
        if self.programs.is_empty() && self.arrivals.is_empty() {
            return Err("spec has neither programs nor arrivals".into());
        }
        if self.cluster.dualpar.sample_slot == SimDuration::ZERO {
            // A zero slot would reschedule the EMC tick at the same
            // instant forever.
            return Err("cluster.dualpar.sample_slot must be > 0 ns, got 0".into());
        }
        // Zero layout or cache geometry would divide by zero when striping
        // a file or placing a cache chunk.
        let c = &self.cluster;
        for (field, zero) in [
            ("cluster.stripe_size", c.stripe_size == 0),
            ("cluster.num_data_servers", c.num_data_servers == 0),
            ("cluster.num_compute_nodes", c.num_compute_nodes == 0),
        ] {
            if zero {
                return Err(format!("{field} must be > 0, got 0"));
            }
        }
        for (i, p) in self.programs.iter().enumerate() {
            p.workload
                .validate()
                .map_err(|e| format!("programs[{i}]: {e}"))?;
            if p.start_secs < 0.0 || !p.start_secs.is_finite() {
                return Err(format!(
                    "programs[{i}]: start_secs must be finite and >= 0, got {}",
                    p.start_secs
                ));
            }
        }
        for (i, a) in self.arrivals.iter().enumerate() {
            a.workload
                .validate()
                .map_err(|e| format!("arrivals[{i}]: {e}"))?;
            a.arrivals
                .validate()
                .map_err(|e| format!("arrivals[{i}]: {e}"))?;
        }
        Ok(())
    }

    /// Parse, migrate, and validate a spec document — the one entry point
    /// every JSON consumer (CLI, suite loader) should use.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let spec: ExperimentSpec =
            serde_json::from_str(json).map_err(|e| format!("invalid spec JSON: {e}"))?;
        let spec = spec.upgrade()?;
        spec.validate()?;
        Ok(spec)
    }
}

/// Create the workload's files on `cluster` and submit the program.
pub fn add_workload(cluster: &mut Cluster, idx: usize, entry: &ProgramEntry) {
    let script = entry.workload.materialize(cluster, &idx.to_string());
    cluster.add_program(
        ProgramSpec::new(script, entry.strategy)
            .starting_at(SimTime::from_secs_f64(entry.start_secs)),
    );
}

/// Rough relative cost of simulating one workload — see
/// [`Workload::cost`].
pub fn workload_cost(w: &WorkloadSpec) -> u64 {
    w.cost()
}

/// Relative event-count weight of an I/O strategy. Vanilla issues every
/// region synchronously (one network + disk round trip each); DualPar
/// aggregates whole phases into a few large batches, collapsing the event
/// count by orders of magnitude.
fn strategy_weight(s: IoStrategy) -> u64 {
    match s {
        IoStrategy::Vanilla => 8,
        IoStrategy::PrefetchOverlap => 6,
        IoStrategy::Collective => 4,
        IoStrategy::DualPar | IoStrategy::DualParForced => 1,
    }
}

/// Expected relative simulation cost of a whole experiment, for
/// longest-expected-first scheduling. Arrival streams count once per
/// expanded instance. Never zero.
pub fn expected_cost(spec: &ExperimentSpec) -> u64 {
    let programs: u64 = spec
        .programs
        .iter()
        .map(|p| p.workload.cost().max(1) * strategy_weight(p.strategy))
        .sum();
    let arrivals: u64 = spec
        .arrivals
        .iter()
        .map(|a| {
            let instances = a.arrivals.times().len() as u64;
            a.workload.cost().max(1) * strategy_weight(a.strategy) * instances
        })
        .sum();
    programs.saturating_add(arrivals).max(1)
}

/// Build a ready-to-run cluster from a spec. Purely a function of the
/// spec: building the same spec twice yields clusters that simulate
/// identically (the determinism tests rely on this). Arrival streams are
/// expanded here — deterministically, from each stream's own seed — into
/// per-instance programs with labels `a{stream}-{instance}`.
pub fn build_cluster(spec: &ExperimentSpec) -> Cluster {
    let mut cluster = Cluster::new(spec.cluster.clone());
    for (i, entry) in spec.programs.iter().enumerate() {
        add_workload(&mut cluster, i, entry);
    }
    for (ai, stream) in spec.arrivals.iter().enumerate() {
        for (inst, t) in stream.arrivals.times().into_iter().enumerate() {
            let workload = stream.workload.reseeded(inst as u64);
            let script = workload.materialize(&mut cluster, &format!("a{ai}-{inst}"));
            cluster.add_program(
                ProgramSpec::new(script, stream.strategy)
                    .starting_at(SimTime::from_secs_f64(t)),
            );
        }
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualpar_workloads::{
        AccessPattern, ArrivalProcess, Demo, OffsetDistr, WorkloadExpr,
    };

    #[test]
    fn default_spec_round_trips_through_json() {
        let spec = ExperimentSpec::default();
        let json = serde_json::to_string(&spec).expect("serialise spec");
        let back: ExperimentSpec = serde_json::from_str(&json).expect("parse spec");
        assert_eq!(back.version, SPEC_VERSION);
        assert_eq!(back.programs.len(), spec.programs.len());
        let json2 = serde_json::to_string(&back).expect("serialise again");
        assert_eq!(json, json2);
    }

    #[test]
    fn v0_json_still_loads_and_upgrades() {
        // A v0 document: no version field, closed-enum workload tag.
        let v0 = r#"{
            "programs": [
                {"workload": {"mpi_io_test": {"nprocs": 4, "file_size": 1048576}},
                 "strategy": "DualPar"}
            ]
        }"#;
        let spec = ExperimentSpec::from_json(v0).expect("v0 loads");
        assert_eq!(spec.version, SPEC_VERSION, "upgrade stamps the version");
        assert_eq!(spec.programs.len(), 1);
        assert_eq!(spec.programs[0].workload.tag(), "mpi_io_test");
        assert!(spec.arrivals.is_empty());
        // And it still builds and runs.
        let report = build_cluster(&spec).run();
        assert_eq!(report.programs.len(), 1);
    }

    #[test]
    fn future_versions_are_rejected() {
        let json = format!(r#"{{"version": {}, "programs": []}}"#, SPEC_VERSION + 1);
        let err = ExperimentSpec::from_json(&json).expect_err("future version");
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn unknown_workload_tags_list_the_registry() {
        let json = r#"{"programs": [{"workload": {"bogus": {}}, "strategy": "Vanilla"}]}"#;
        let err = ExperimentSpec::from_json(json).expect_err("unknown tag");
        assert!(err.contains("bogus") && err.contains("hpio"), "{err}");
    }

    #[test]
    fn build_cluster_submits_every_program() {
        let mut spec = ExperimentSpec {
            cluster: crate::small_cluster(),
            ..Default::default()
        };
        spec.programs.push(ProgramEntry {
            workload: WorkloadSpec::named(Demo::default()),
            strategy: IoStrategy::Vanilla,
            start_secs: 1.0,
        });
        let mut cluster = build_cluster(&spec);
        let report = cluster.run();
        assert_eq!(report.programs.len(), 2);
    }

    fn zipf_dsl(seed: u64) -> DslWorkload {
        DslWorkload {
            name: "hot".into(),
            nprocs: 4,
            file_size: 8 << 20,
            seed,
            expr: WorkloadExpr::Pattern(AccessPattern {
                ops: 32,
                offsets: OffsetDistr::ZipfHotspot { theta: 0.99 },
                ..AccessPattern::default()
            }),
        }
    }

    #[test]
    fn arrival_streams_expand_into_decorrelated_instances() {
        let spec = ExperimentSpec {
            cluster: crate::small_cluster(),
            programs: Vec::new(),
            arrivals: vec![ArrivalEntry {
                workload: WorkloadSpec::dsl(zipf_dsl(7)),
                strategy: IoStrategy::DualPar,
                arrivals: Arrivals {
                    process: ArrivalProcess::Poisson { rate_per_sec: 1.0 },
                    horizon_secs: 5.0,
                    seed: 21,
                    max_instances: 8,
                },
            }],
            ..Default::default()
        };
        spec.validate().expect("valid");
        let n = spec.arrivals[0].arrivals.times().len();
        assert!(n >= 1);
        let report = build_cluster(&spec).run();
        assert_eq!(report.programs.len(), n);
        // Same spec, same bytes: the expansion is deterministic.
        let again = build_cluster(&spec).run();
        assert_eq!(
            serde_json::to_string(&report).expect("json"),
            serde_json::to_string(&again).expect("json")
        );
    }

    #[test]
    fn spec_with_arrivals_round_trips_through_json() {
        let spec = ExperimentSpec {
            cluster: crate::small_cluster(),
            programs: vec![ProgramEntry {
                workload: WorkloadSpec::named(MpiIoTest::default()),
                strategy: IoStrategy::Vanilla,
                start_secs: 0.25,
            }],
            arrivals: vec![ArrivalEntry {
                workload: WorkloadSpec::dsl(zipf_dsl(3)),
                strategy: IoStrategy::DualPar,
                arrivals: Arrivals::default(),
            }],
            ..Default::default()
        };
        let json = serde_json::to_string_pretty(&spec).expect("serialise");
        let back = ExperimentSpec::from_json(&json).expect("parse");
        let json2 = serde_json::to_string_pretty(&back).expect("serialise again");
        assert_eq!(json, json2);
    }

    #[test]
    fn validation_rejects_unrunnable_specs() {
        let empty = ExperimentSpec {
            programs: Vec::new(),
            ..Default::default()
        };
        assert!(empty.validate().is_err());
        let mut bad_dsl = ExperimentSpec::default();
        bad_dsl.programs[0].workload = WorkloadSpec::dsl(DslWorkload {
            expr: WorkloadExpr::Seq(vec![]),
            ..DslWorkload::default()
        });
        assert!(bad_dsl.validate().is_err());
    }

    #[test]
    fn zero_sample_slot_is_rejected_naming_the_field() {
        let mut spec = ExperimentSpec::default();
        spec.cluster.dualpar.sample_slot = SimDuration::ZERO;
        let err = spec.validate().expect_err("zero slot");
        assert!(err.contains("cluster.dualpar.sample_slot"), "{err}");
        // The JSON entry point rejects it too, instead of hanging the run.
        let json = serde_json::to_string(&spec).expect("serialise");
        let err = ExperimentSpec::from_json(&json).expect_err("zero slot from JSON");
        assert!(err.contains("cluster.dualpar.sample_slot"), "{err}");
    }

    #[test]
    fn zero_geometry_is_rejected_naming_the_field() {
        let mut specs: [ExperimentSpec; 3] = Default::default();
        specs[0].cluster.stripe_size = 0;
        specs[1].cluster.num_data_servers = 0;
        specs[2].cluster.num_compute_nodes = 0;
        let fields = [
            "cluster.stripe_size",
            "cluster.num_data_servers",
            "cluster.num_compute_nodes",
        ];
        for (spec, field) in specs.iter().zip(fields) {
            let err = spec.validate().expect_err(field);
            assert!(err.contains(field), "{err}");
            // The JSON entry point rejects it before anything can panic.
            let json = serde_json::to_string(spec).expect("serialise");
            let err = ExperimentSpec::from_json(&json).expect_err(field);
            assert!(err.contains(field), "{err}");
        }
    }
}

//! `chaos`: `ClusterRun` over a zone/rack/device topology with seeded
//! correlated outages (zone outages and rack power-cycles), device hangs
//! and transient losses, the health breaker, and tenant anti-affinity and
//! spread placement. Device faults force the merged driver, and migration,
//! quarantine and probe paths dominate. Every cell runs the same job list
//! under its own fault seeds; one cell's makespan swings widely across
//! seeds, so the workload aggregates many cells, fanned out through the
//! library's runner, against one clean run of the same jobs.

use flep_core::runner::{cell_seed, run_cells};
use flep_gpu_sim::{CorrelatedFaultConfig, DeviceFaultConfig, FailureTopology, GpuConfig};
use flep_runtime::{
    ClusterConfig, DeviceEventKind, HealthConfig, JobSpec, KernelProfile, PlacementConfig, Policy,
    WatchdogConfig,
};
use flep_sim_core::SimTime;
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

use crate::setup::Shared;
use crate::trace::{SpanId, Tracer};
use crate::{cluster, percentile, set_runtime_metrics, PassOut, Workload};

/// Two zones of two racks of two devices.
const TOPOLOGY: (u32, u32, u32) = (2, 2, 2);
const JOBS: u64 = 32;
const STAGGER_US: u64 = 20;
const CELLS: usize = 64;
/// Correlated outages per simulated second: a third zone outages, two
/// thirds rack power-cycles.
const OUTAGES_PER_S: f64 = 400.0;
const HANGS_PER_S: f64 = 40.0;
const LOSSES_PER_S: f64 = 25.0;
/// High enough that no job exhausts its migrations at this fault rate.
const MAX_MIGRATIONS: u32 = 64;
/// About 1.2k events per job when calibrated at this fault rate.
const EVENTS_PER_JOB: u64 = 20_000;

pub struct Chaos {
    clean: ClusterConfig,
    cells: Vec<ClusterConfig>,
    jobs: Vec<JobSpec>,
}

impl Workload for Chaos {
    fn build(seed: u64, _shared: &Shared, tr: &Tracer, parent: SpanId) -> Self {
        tr.span(
            parent,
            "setup.inputs",
            || "chaos".into(),
            |_| {
                let (z, r, d) = TOPOLOGY;
                let topo = FailureTopology::new(z, r, d);
                let mut clean = ClusterConfig::new(topo.devices(), GpuConfig::k40(), Policy::hpf());
                clean.topology = Some(topo);
                clean.health = Some(HealthConfig::default());
                clean.placement = PlacementConfig {
                    anti_affinity: true,
                    spread: true,
                };
                clean.max_migrations = MAX_MIGRATIONS;
                let cells = (0..CELLS)
                    .map(|c| {
                        let mut cfg = clean.clone();
                        cfg.correlated_faults = Some(
                            CorrelatedFaultConfig::quiet(cell_seed(seed, c, 1))
                                .with_zone_outages(OUTAGES_PER_S / 3.0, SimTime::from_ms(1))
                                .with_rack_cycles(
                                    2.0 * OUTAGES_PER_S / 3.0,
                                    SimTime::from_us(500),
                                    SimTime::from_us(100),
                                ),
                        );
                        cfg.device_faults = Some(
                            DeviceFaultConfig::quiet(cell_seed(seed, c, 2))
                                .with_hangs(HANGS_PER_S, SimTime::from_ms(1))
                                .with_losses(LOSSES_PER_S, SimTime::from_ms(2)),
                        );
                        cfg
                    })
                    .collect();
                // Faults imply the default watchdog; the clean run arms
                // the same one so only the faults differ.
                clean.watchdog = Some(WatchdogConfig::default());
                let jobs = (0..JOBS)
                    .map(|i| {
                        let id = BenchmarkId::ALL[i as usize % BenchmarkId::ALL.len()];
                        JobSpec::new(
                            KernelProfile::of(&Benchmark::get(id), InputClass::Small),
                            SimTime::from_us(STAGGER_US * i),
                        )
                        .with_priority(1 + (i % 3) as u32)
                        .with_tenant((i % 4) as u32)
                        .with_seed(cell_seed(seed, i as usize, 0))
                    })
                    .collect();
                (Chaos { clean, cells, jobs }, Vec::new())
            },
        )
    }

    fn pass(&self, tr: &Tracer, parent: SpanId) -> PassOut {
        let mut out = PassOut::default();
        let (clean, problem) = cluster::run(
            &self.clean,
            &self.jobs,
            EVENTS_PER_JOB,
            "clean".into(),
            tr,
            parent,
        );
        cluster::book(&mut out, &clean, problem);
        let cells = tr.span(
            parent,
            "runner.run_cells",
            || "chaos".into(),
            |id| {
                let cells = run_cells(self.cells.len(), |c| {
                    tr.span(
                        id,
                        "runner.cell",
                        || format!("chaos.cell{c}"),
                        |cid| {
                            let run = cluster::run(
                                &self.cells[c],
                                &self.jobs,
                                EVENTS_PER_JOB,
                                format!("cell{c}"),
                                tr,
                                cid,
                            );
                            (run, Vec::new())
                        },
                    )
                });
                (cells, vec![("cells", self.cells.len() as f64)])
            },
        );

        let mut turnarounds = Vec::new();
        let mut makespan = 0.0;
        let (mut migrations, mut quarantines, mut probes, mut readmissions) = (0, 0, 0, 0);
        let (mut faults, mut failed_jobs) = (0u64, 0u64);
        set_runtime_metrics(
            &mut out,
            cells.iter().flat_map(|(r, _)| r.jobs.iter()),
            cells.iter().map(|(r, _)| r.escalations),
        );
        for (r, problem) in cells {
            makespan += r.end_time.as_us() / 1e3 / self.cells.len() as f64;
            turnarounds.extend(cluster::turnarounds_ms(&r));
            migrations += r.summary.migrations;
            quarantines += r.summary.quarantines;
            probes += r.summary.probes;
            readmissions += r.summary.readmissions;
            failed_jobs += r.failed;
            faults += r.faults_fired
                + r.device_events
                    .iter()
                    .filter(|e| {
                        matches!(
                            e.kind,
                            DeviceEventKind::Fault(_) | DeviceEventKind::CorrelatedFault(_)
                        )
                    })
                    .count() as u64;
            cluster::book(&mut out, &r, problem);
        }
        out.set("chaos.makespan_ms", makespan);
        out.set("p50_ms", percentile(&turnarounds, 50.0));
        out.set(
            "chaos.slowdown_x",
            makespan / (clean.end_time.as_us() / 1e3),
        );
        out.set("cluster.migrations", migrations as f64);
        out.set("cluster.quarantines", quarantines as f64);
        out.set("cluster.probes", probes as f64);
        out.set("cluster.readmissions", readmissions as f64);
        out.set("cluster.faults_fired", faults as f64);
        out.set("cluster.failed_jobs", failed_jobs as f64);
        out
    }
}

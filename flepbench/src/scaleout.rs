//! `scaleout`: faults-off `ClusterRun` at two fleet sizes, with jobs
//! arriving in cluster-wide waves (wave `w` drops one job per device at
//! `w × 250 µs`), the watchdog armed so every device carries a poll stream,
//! and health scoring on so the placement log is kept. No device-level
//! faults, so the epoch driver steps device streams in parallel across
//! the configured worker threads. Where the waves land depends on the job
//! seeds, and with it how much work a run does, so each fleet size runs
//! [`SUB_RUNS`] job lists under their own seeds.

use flep_core::runner::cell_seed;
use flep_gpu_sim::GpuConfig;
use flep_runtime::{ClusterConfig, HealthConfig, JobSpec, KernelProfile, Policy, WatchdogConfig};
use flep_sim_core::SimTime;
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

use crate::setup::Shared;
use crate::trace::{SpanId, Tracer};
use crate::{cluster, percentile, set_runtime_metrics, PassOut, Workload};

/// Fleet sizes; the per-device ratio between them is the scale-out figure.
pub const DEVICES: [u32; 2] = [32, 128];
/// Job lists per fleet size, each under its own seeds.
const SUB_RUNS: usize = 4;
const JOBS_PER_DEVICE: u64 = 4;
const WAVE_US: u64 = 250;
/// About 520 events per job when calibrated.
const EVENTS_PER_JOB: u64 = 4096;

pub struct Scaleout {
    /// Fleet size, sub-run, cluster and jobs.
    points: Vec<(u32, usize, ClusterConfig, Vec<JobSpec>)>,
}

impl Workload for Scaleout {
    fn build(seed: u64, _shared: &Shared, tr: &Tracer, parent: SpanId) -> Self {
        tr.span(
            parent,
            "setup.inputs",
            || "scaleout".into(),
            |_| {
                let points = DEVICES
                    .iter()
                    .flat_map(|&d| (0..SUB_RUNS).map(move |k| (d, k)))
                    .map(|(d, k)| {
                        let mut cfg = ClusterConfig::new(d, GpuConfig::k40(), Policy::hpf());
                        cfg.watchdog = Some(WatchdogConfig::default());
                        cfg.health = Some(HealthConfig::default());
                        let root = cell_seed(seed, k, 1);
                        let jobs = (0..JOBS_PER_DEVICE * u64::from(d))
                            .map(|j| {
                                let (wave, dev) = (j / u64::from(d), j % u64::from(d));
                                let id = BenchmarkId::ALL[j as usize % BenchmarkId::ALL.len()];
                                JobSpec::new(
                                    KernelProfile::of(&Benchmark::get(id), InputClass::Small),
                                    SimTime::from_us(WAVE_US * wave),
                                )
                                .with_priority(1 + (dev % 3) as u32)
                                .with_seed(cell_seed(root, j as usize, 0))
                            })
                            .collect();
                        (d, k, cfg, jobs)
                    })
                    .collect();
                (Scaleout { points }, Vec::new())
            },
        )
    }

    fn pass(&self, tr: &Tracer, parent: SpanId) -> PassOut {
        let mut out = PassOut::default();
        let mut makespan = 0.0;
        let mut turnarounds = Vec::new();
        let mut placements = 0usize;
        let mut results = Vec::new();
        for (d, k, cfg, jobs) in &self.points {
            let unit = format!("d{d}.run{k}");
            let (r, problem) = cluster::run(cfg, jobs, EVENTS_PER_JOB, unit.clone(), tr, parent);
            if r.completed != jobs.len() as u64 {
                out.fail(format!(
                    "{unit}: {} of {} jobs completed without faults",
                    r.completed,
                    jobs.len()
                ));
            }
            cluster::book(&mut out, &r, problem);
            makespan += r.end_time.as_us() / 1e3 / self.points.len() as f64;
            turnarounds.extend(cluster::turnarounds_ms(&r));
            placements += r.placements.len();
            results.push(r);
        }
        set_runtime_metrics(
            &mut out,
            results.iter().flat_map(|r| r.jobs.iter()),
            results.iter().map(|r| r.escalations),
        );
        out.set("scaleout.makespan_ms", makespan);
        out.set("p50_ms", percentile(&turnarounds, 50.0));
        out.set("cluster.placements", placements as f64);
        out
    }
}

//! Partitioned-vs-global event-order equivalence (DESIGN.md §13).
//!
//! `ClusterRun` steps a run two ways — the merged partitioned driver
//! (per-device queues behind the sim-core cursor) and the epoch driver
//! (independent device streams with a barrier at every cluster-level
//! timestamp). Both must produce results byte-identical to the flat
//! reference driver, which lives here as the test oracle: one global
//! `Simulation` queue over the whole cluster, built from public API. This
//! suite pins that on fixed scenarios (same-timestamp cross-device
//! pileups, N=1 `CoRun` replay) and drives it through a flep-check
//! property covering migration storms, scripted faults, and grid-fault
//! injection.

use flep_gpu_sim::{DeviceFaultConfig, DeviceFaultKind, FaultConfig, GpuConfig};
use flep_runtime::{
    ClusterConfig, ClusterEvent, ClusterResult, ClusterRun, CoRun, GpuCluster, JobSpec,
    KernelProfile, Policy, RuntimeError, StepMode, WatchdogConfig, DEFAULT_EVENT_BUDGET,
};
use flep_sim_core::check::{check, CheckConfig};
use flep_sim_core::{require, require_eq, RunOutcome, SimRng, SimTime, Simulation};
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

fn profile(id: BenchmarkId, class: InputClass) -> KernelProfile {
    KernelProfile::of(&Benchmark::get(id), class)
}

fn bench_of(idx: u64) -> BenchmarkId {
    BenchmarkId::ALL[(idx as usize) % BenchmarkId::ALL.len()]
}

/// Full-fidelity comparison: the `Debug` rendering covers every field of
/// the result, including per-job records, error/recovery taxonomies, the
/// device-event log, and the end time.
fn render(r: &ClusterResult) -> String {
    format!("{r:?}")
}

fn run_in(mode: StepMode, cfg: ClusterConfig, specs: &[JobSpec]) -> ClusterResult {
    let mut run = ClusterRun::new(cfg).with_step_mode(mode);
    for s in specs {
        run = run.job(s.clone());
    }
    run.run()
}

/// The flat reference driver — the oracle: one global queue holding every
/// event of every device. Jobs are registered in spec order, then the
/// arrivals are scheduled ahead of the cluster's own initial events (the
/// same sequence-number discipline as `CoRun::run`).
fn run_flat(cfg: &ClusterConfig, specs: &[JobSpec]) -> ClusterResult {
    let (mut cluster, initial) = GpuCluster::new(cfg);
    for s in specs {
        cluster.register(s.clone());
    }
    let mut sim = Simulation::new(cluster);
    for (idx, s) in specs.iter().enumerate() {
        sim.schedule_at(s.arrival, ClusterEvent::Arrival(idx));
    }
    for (at, ev) in initial {
        sim.schedule_at(at, ev);
    }
    let (end, budget_error) = match sim.run_with_budget(DEFAULT_EVENT_BUDGET) {
        RunOutcome::Completed(t) => (t, None),
        RunOutcome::BudgetExhausted {
            now,
            dispatched,
            pending,
        } => (
            now,
            Some(RuntimeError::EventBudgetExhausted {
                at: now,
                dispatched,
                pending,
            }),
        ),
    };
    let mut result = sim.into_world().into_result(end);
    result.errors.extend(budget_error);
    result
}

/// Both drivers must match flat on this faults-off scenario (`Auto`
/// steps it by epoch): four devices, jobs
/// arriving in same-timestamp waves (so several devices interact with the
/// scheduler at one instant), plus a straggler wave while earlier work is
/// still resident.
#[test]
fn step_modes_agree_on_same_timestamp_cross_device_pileups() {
    let mix = [
        BenchmarkId::Va,
        BenchmarkId::Spmv,
        BenchmarkId::Mm,
        BenchmarkId::Md,
    ];
    let mut specs = Vec::new();
    for wave in 0..3u64 {
        for (i, &id) in mix.iter().enumerate() {
            specs.push(
                JobSpec::new(profile(id, InputClass::Small), SimTime::from_us(wave * 400))
                    .with_priority(1 + (i as u32 % 3))
                    .with_seed(wave * 31 + i as u64),
            );
        }
    }
    let cfg = || {
        let mut c = ClusterConfig::new(4, GpuConfig::k40(), Policy::hpf());
        c.watchdog = Some(WatchdogConfig::default());
        c
    };
    let flat = render(&run_flat(&cfg(), &specs));
    let merged = render(&run_in(StepMode::Merged, cfg(), &specs));
    let epoch = render(&run_in(StepMode::Auto, cfg(), &specs));
    assert_eq!(flat, merged, "merged diverged from flat");
    assert_eq!(flat, epoch, "epoch diverged from flat");
}

/// An N=1 partitioned cluster replays `CoRun` byte-identically — the
/// whole result, through both drivers (`Auto` steps this faults-off run
/// by epoch) and in the flat oracle. This holds for
/// this HPF run, whose jobs arrive in spec order; it does not hold for
/// FFS in general: FFS sizes its epochs over every *registered* job,
/// `CoRun` registers all of them up front, and a cluster registers a job
/// on its shard only when it arrives.
#[test]
fn single_device_partitioned_cluster_replays_corun() {
    let specs = vec![
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
        JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_us(200),
        )
        .with_priority(2),
    ];
    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf());
    for s in &specs {
        corun = corun.job(s.clone());
    }
    let solo = render(&corun.run());
    let cfg = || ClusterConfig::new(1, GpuConfig::k40(), Policy::hpf());
    assert_eq!(solo, render(&run_flat(&cfg(), &specs)), "flat oracle");
    for mode in [StepMode::Merged, StepMode::Auto] {
        let clustered = run_in(mode, cfg(), &specs);
        assert_eq!(solo, render(&clustered), "{mode:?} diverged");
        assert!(clustered.reconciles());
    }
}

/// Epoch stepping stays exact under grid-level fault injection: those
/// draws, launch retries, and watchdog escalations are all shard-local,
/// so they cross no epoch barrier and `Auto` still steps by epoch.
#[test]
fn step_modes_agree_under_grid_faults() {
    let specs: Vec<JobSpec> = (0..6)
        .map(|i| {
            JobSpec::new(
                profile(bench_of(i), InputClass::Small),
                SimTime::from_us(i * 150),
            )
            .with_priority(1 + (i as u32 % 3))
            .with_seed(0xC0FE ^ i)
        })
        .collect();
    let cfg = || {
        let mut c = ClusterConfig::new(3, GpuConfig::k40(), Policy::hpf());
        c.grid_faults = Some(
            FaultConfig::quiet(0xF00D)
                .with_launch_reject(0.3)
                .with_signal_drop(0.2)
                .with_stuck_flag(0.2)
                .with_note_drop(0.2),
        );
        c
    };
    let flat = render(&run_flat(&cfg(), &specs));
    let merged = render(&run_in(StepMode::Merged, cfg(), &specs));
    let epoch = render(&run_in(StepMode::Auto, cfg(), &specs));
    assert_eq!(flat, merged, "merged diverged from flat");
    assert_eq!(flat, epoch, "epoch diverged from flat");
}

/// A scripted mid-run device death — migration traffic at an arbitrary
/// instant — is outside the epoch driver's eligibility, so `Auto` must
/// take the (exact) merged driver and still match flat.
#[test]
fn scripted_death_migration_matches_flat_in_every_mode() {
    let specs: Vec<JobSpec> = (0..4)
        .map(|i| {
            JobSpec::new(profile(BenchmarkId::Mm, InputClass::Small), SimTime::ZERO)
                .with_priority(1)
                .with_seed(i)
        })
        .collect();
    let cfg = || {
        let mut c = ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf());
        c.scripted_faults = vec![(SimTime::from_us(300), 0, DeviceFaultKind::Death)];
        c
    };
    let flat = render(&run_flat(&cfg(), &specs));
    for mode in [StepMode::Merged, StepMode::Auto] {
        assert_eq!(flat, render(&run_in(mode, cfg(), &specs)), "{mode:?}");
    }
}

/// One generated job: (bench index, arrival_us, priority, seed).
type JobTuple = (u64, u64, u64, u64);

fn gen_cluster_case(rng: &mut SimRng) -> (u64, u64, Vec<JobTuple>, u64) {
    let devices = rng.uniform_u64(1, 4);
    let n = rng.uniform_u64(1, 7) as usize;
    let jobs = (0..n)
        .map(|_| {
            (
                rng.uniform_u64(0, 7),
                // Quantized arrivals force cross-device same-timestamp
                // pileups instead of making them astronomically unlikely.
                rng.uniform_u64(0, 4) * 250,
                rng.uniform_u64(1, 3),
                rng.u64(),
            )
        })
        .collect();
    // fault_class: 0 = none, 1 = grid faults, 2 = device-fault storm,
    // 3 = scripted death.
    (devices, rng.uniform_u64(0, 3), jobs, rng.u64())
}

fn build_case(
    devices: u64,
    fault_class: u64,
    jobs: &[JobTuple],
    seed: u64,
) -> (ClusterConfig, Vec<JobSpec>) {
    let mut cfg = ClusterConfig::new(devices as u32, GpuConfig::k40(), Policy::hpf());
    cfg.max_migrations = 4;
    match fault_class {
        1 => {
            cfg.grid_faults = Some(
                FaultConfig::quiet(seed)
                    .with_launch_reject(0.25)
                    .with_signal_drop(0.2)
                    .with_stuck_flag(0.15)
                    .with_note_drop(0.15),
            );
        }
        2 => {
            // A storm: high device-fault rates so short runs still see
            // hangs, transient losses, and deaths (i.e. migrations).
            cfg.device_faults = Some(
                DeviceFaultConfig::quiet(seed)
                    .with_hangs(600.0, SimTime::from_us(400))
                    .with_losses(400.0, SimTime::from_us(600))
                    .with_deaths(150.0),
            );
        }
        3 => {
            cfg.scripted_faults = vec![(
                SimTime::from_us(200 + seed % 800),
                (seed % devices) as u32,
                DeviceFaultKind::Death,
            )];
        }
        _ => {}
    }
    let specs = jobs
        .iter()
        .map(|&(bidx, arrival_us, priority, jseed)| {
            JobSpec::new(
                profile(bench_of(bidx), InputClass::Small),
                SimTime::from_us(arrival_us),
            )
            .with_priority(priority as u32)
            .with_seed(jseed)
        })
        .collect();
    (cfg, specs)
}

/// The partitioned drivers replay the flat global event order for *any*
/// cluster: merged always (migration storms included), epoch whenever the
/// run is eligible (no device-level faults), which is where `Auto` takes
/// it; otherwise `Auto` takes merged.
#[test]
fn partitioned_and_global_event_orders_are_equivalent() {
    check(
        "partitioned_and_global_event_orders_are_equivalent",
        CheckConfig::with_cases(24),
        gen_cluster_case,
        |&(devices, fault_class, ref jobs, seed)| {
            let (cfg, specs) = build_case(devices, fault_class, jobs, seed);
            let flat = render(&run_flat(&cfg, &specs));
            let merged = render(&run_in(StepMode::Merged, cfg.clone(), &specs));
            require_eq!(flat, merged, "merged vs flat (fault class {fault_class})");
            let auto = render(&run_in(StepMode::Auto, cfg, &specs));
            require_eq!(flat, auto, "auto vs flat (fault class {fault_class})");
            require!(!flat.is_empty());
            Ok(())
        },
    );
}

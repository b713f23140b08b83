//! Stress and corner-case tests for the runtime: many priority levels,
//! arrival storms, FFS three-kernel co-runs (elided in the paper "due to
//! space limit", §6.3.3), and pathological schedules.

use flep_gpu_sim::GpuConfig;
use flep_runtime::{ClusterResult, CoRun, JobSpec, KernelProfile, Policy};
use flep_sim_core::{SimRng, SimTime};
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

fn profile(id: BenchmarkId, class: InputClass) -> KernelProfile {
    KernelProfile::of(&Benchmark::get(id), class)
}

fn all_complete(r: &ClusterResult) -> bool {
    r.jobs.iter().all(|j| j.completed.is_some())
}

#[test]
fn four_priority_levels_preempt_in_order() {
    // P1 < P2 < P3 < P4, arriving in ascending priority: each arrival
    // preempts the previous one; completions happen in descending
    // priority.
    let result = CoRun::new(GpuConfig::k40(), Policy::hpf())
        .job(
            JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO)
                .with_priority(1),
        )
        .job(
            JobSpec::new(
                profile(BenchmarkId::Cfd, InputClass::Small),
                SimTime::from_us(100),
            )
            .with_priority(2),
        )
        .job(
            JobSpec::new(
                profile(BenchmarkId::Pf, InputClass::Small),
                SimTime::from_us(200),
            )
            .with_priority(3),
        )
        .job(
            JobSpec::new(
                profile(BenchmarkId::Spmv, InputClass::Small),
                SimTime::from_us(300),
            )
            .with_priority(4),
        )
        .run();
    assert!(all_complete(&result));
    let done: Vec<SimTime> = result.jobs.iter().map(|j| j.completed.unwrap()).collect();
    assert!(done[3] < done[2], "P4 before P3");
    assert!(done[2] < done[1], "P3 before P2");
    assert!(done[1] < done[0], "P2 before P1");
    // Every preempted victim was preempted at least once.
    assert!(result.jobs[0].preemptions >= 1);
}

#[test]
fn arrival_storm_of_sixteen_jobs_drains() {
    // Sixteen equal-priority jobs arriving in bursts; SRT orders them and
    // everything completes without deadlock or starvation.
    let mut rng = SimRng::seed_from(77);
    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf());
    let smalls = [
        BenchmarkId::Cfd,
        BenchmarkId::Nn,
        BenchmarkId::Pf,
        BenchmarkId::Pl,
        BenchmarkId::Md,
        BenchmarkId::Spmv,
        BenchmarkId::Mm,
        BenchmarkId::Va,
    ];
    for i in 0..16u64 {
        let id = smalls[(i % 8) as usize];
        corun = corun.job(
            JobSpec::new(
                profile(id, InputClass::Small),
                SimTime::from_us(rng.uniform_u64(0, 500)),
            )
            .with_seed(i),
        );
    }
    let result = corun.run();
    assert!(all_complete(&result));
    // Makespan is bounded by the serial sum of the small inputs (two of
    // each, ~13.3ms of work) plus modest scheduling overheads.
    assert!(
        result.end_time < SimTime::from_ms(16),
        "storm took {}",
        result.end_time
    );
}

#[test]
fn ffs_three_kernel_corun_shares_match_weights() {
    // The experiment the paper elides: three looping kernels under FFS
    // with 3:2:1 weights converge to 1/2, 1/3, 1/6 shares.
    let horizon = SimTime::from_ms(120);
    let result = CoRun::new(GpuConfig::k40(), Policy::Ffs { max_overhead: 0.10 })
        .with_span_trace() // gpu_share needs spans
        .job(
            JobSpec::new(profile(BenchmarkId::Pf, InputClass::Large), SimTime::ZERO)
                .with_priority(3)
                .looping(),
        )
        .job(
            JobSpec::new(
                profile(BenchmarkId::Pl, InputClass::Large),
                SimTime::from_us(5),
            )
            .with_priority(2)
            .looping(),
        )
        .job(
            JobSpec::new(
                profile(BenchmarkId::Cfd, InputClass::Large),
                SimTime::from_us(10),
            )
            .with_priority(1)
            .looping(),
        )
        .horizon(horizon)
        .run();
    let from = SimTime::from_ms(30); // skip warmup
    let shares: Vec<f64> = (0..3).map(|i| result.gpu_share(i, from, horizon)).collect();
    assert!((shares[0] - 0.5).abs() < 0.09, "w=3 share {:.3}", shares[0]);
    assert!(
        (shares[1] - 1.0 / 3.0).abs() < 0.09,
        "w=2 share {:.3}",
        shares[1]
    );
    assert!(
        (shares[2] - 1.0 / 6.0).abs() < 0.09,
        "w=1 share {:.3}",
        shares[2]
    );
}

#[test]
fn simultaneous_arrivals_are_deterministic_and_orderly() {
    // Eight jobs all arriving at t=0 with equal priority: SRT runs them
    // shortest-first by prediction.
    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf());
    let order = [
        BenchmarkId::Mm,   // 1499us
        BenchmarkId::Pl,   // 952
        BenchmarkId::Pf,   // 811
        BenchmarkId::Nn,   // 728
        BenchmarkId::Va,   // 720
        BenchmarkId::Cfd,  // 521
        BenchmarkId::Spmv, // 484
        BenchmarkId::Md,   // 938
    ];
    for (i, id) in order.iter().enumerate() {
        corun = corun
            .job(JobSpec::new(profile(*id, InputClass::Small), SimTime::ZERO).with_seed(i as u64));
    }
    let result = corun.run();
    assert!(all_complete(&result));
    // SPMV (shortest) finishes first; MM (longest) last.
    let spmv_done = result.jobs[6].completed.unwrap();
    let mm_done = result.jobs[0].completed.unwrap();
    assert!(spmv_done < mm_done);
    for j in &result.jobs {
        assert!(j.completed.unwrap() >= spmv_done);
        assert!(j.completed.unwrap() <= mm_done);
    }
}

#[test]
fn back_to_back_preemptions_preserve_all_work() {
    // A long victim preempted repeatedly by a stream of high-priority
    // micro kernels: every invocation still completes all of its tasks.
    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf()).job(
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
    );
    for q in 0..8u64 {
        corun = corun.job(
            JobSpec::new(
                profile(BenchmarkId::Spmv, InputClass::Trivial),
                SimTime::from_ms(2) * (q + 1),
            )
            .with_priority(2)
            .with_seed(q),
        );
    }
    let result = corun.run();
    assert!(all_complete(&result));
    let victim = &result.jobs[0];
    assert!(
        victim.preemptions >= 6,
        "victim only preempted {} times",
        victim.preemptions
    );
    assert_eq!(
        victim.tasks_completed,
        Benchmark::get(BenchmarkId::Va)
            .profile(InputClass::Large)
            .tasks,
        "every task ran exactly once across {} resumes",
        victim.preemptions
    );
}

#[test]
fn reordering_with_idle_gaps_behaves_like_sjf() {
    // With arrivals spaced beyond each kernel's runtime, reordering ==
    // FIFO == SJF; no preemption, everything completes promptly.
    let result = CoRun::new(GpuConfig::k40(), Policy::Reordering)
        .job(JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::ZERO,
        ))
        .job(JobSpec::new(
            profile(BenchmarkId::Mm, InputClass::Small),
            SimTime::from_ms(2),
        ))
        .job(JobSpec::new(
            profile(BenchmarkId::Pf, InputClass::Small),
            SimTime::from_ms(5),
        ))
        .run();
    assert!(all_complete(&result));
    for j in &result.jobs {
        assert_eq!(j.preemptions, 0);
        assert!(
            j.waiting < SimTime::from_us(50),
            "{} waited {}",
            j.name,
            j.waiting
        );
    }
}

#[test]
fn hpf_under_mixed_priorities_and_loops_hits_horizon() {
    // A looping low-priority batch job + sporadic high-priority queries:
    // the loop keeps restarting, queries always cut in front.
    let horizon = SimTime::from_ms(60);
    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf())
        .job(
            JobSpec::new(profile(BenchmarkId::Pf, InputClass::Large), SimTime::ZERO)
                .with_priority(1)
                .looping(),
        )
        .horizon(horizon);
    for q in 0..5u64 {
        corun = corun.job(
            JobSpec::new(
                profile(BenchmarkId::Spmv, InputClass::Small),
                SimTime::from_ms(10) * (q + 1),
            )
            .with_priority(2)
            .with_seed(q),
        );
    }
    let result = corun.run();
    // All queries done, batch looped several times.
    for q in &result.jobs[1..] {
        assert!(q.completed.is_some());
        assert!(q.turnaround().unwrap() < SimTime::from_ms(2), "{}", q.name);
    }
    assert!(result.jobs[0].completions >= 5);
}

#[test]
fn stuck_victims_under_a_preemption_storm_all_recover() {
    use flep_gpu_sim::FaultConfig;
    use flep_runtime::RecoveryAction;

    // The back-to-back preemption storm, except every persistent grid is
    // guaranteed to ignore its preemption flag: each preemption must go
    // through the watchdog's forced drain. Work is still conserved and
    // every job completes.
    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf())
        .with_faults(FaultConfig::quiet(21).with_stuck_flag(1.0))
        .job(
            JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO)
                .with_priority(1),
        );
    for q in 0..6u64 {
        corun = corun.job(
            JobSpec::new(
                profile(BenchmarkId::Spmv, InputClass::Trivial),
                SimTime::from_ms(3) * (q + 1),
            )
            .with_priority(2)
            .with_seed(q),
        );
    }
    let result = corun.run();
    assert!(all_complete(&result));
    assert!(result.succeeded(), "errors: {:?}", result.errors);
    let forced = result
        .recoveries
        .iter()
        .filter(|r| r.action == RecoveryAction::ForcedDrain)
        .count();
    assert!(forced >= 1, "no forced drains despite stuck victims");
    assert!(result.escalations[1] >= 1, "{:?}", result.escalations);
    assert_eq!(
        result.jobs[0].tasks_completed,
        Benchmark::get(BenchmarkId::Va)
            .profile(InputClass::Large)
            .tasks,
        "task conservation across forced drains"
    );
}

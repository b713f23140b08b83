//! Property-based tests over the whole runtime: for arbitrary job mixes,
//! arrival patterns, and policies, scheduling must conserve work, complete
//! every one-shot job, and stay deterministic. Runs on the in-tree
//! `flep-check` harness; enum-valued inputs are generated as indices so
//! scalar shrinking still applies.

use flep_gpu_sim::GpuConfig;
use flep_runtime::{CoRun, JobSpec, KernelProfile, Policy};
use flep_sim_core::check::{check, CheckConfig};
use flep_sim_core::{assume, require, require_eq, SimRng, SimTime};
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

fn profile(id: BenchmarkId, class: InputClass) -> KernelProfile {
    KernelProfile::of(&Benchmark::get(id), class)
}

fn bench_of(idx: u64) -> BenchmarkId {
    BenchmarkId::ALL[(idx as usize) % BenchmarkId::ALL.len()]
}

/// Larges make property runs slow; smalls and trivials cover the
/// scheduling space just as well.
fn class_of(small: bool) -> InputClass {
    if small {
        InputClass::Small
    } else {
        InputClass::Trivial
    }
}

fn policy_of(idx: u64) -> Policy {
    match idx % 4 {
        0 => Policy::hpf(),
        1 => Policy::hpf_spatial(),
        2 => Policy::MpsBaseline,
        _ => Policy::Reordering,
    }
}

/// One generated job: (bench index, small?, arrival_us, priority, seed).
type JobTuple = (u64, bool, u64, u64, u64);

fn gen_jobs(rng: &mut SimRng, max_jobs: u64, max_arrival: u64, max_prio: u64) -> Vec<JobTuple> {
    let n = rng.uniform_u64(1, max_jobs) as usize;
    (0..n)
        .map(|_| {
            (
                rng.uniform_u64(0, 7),
                rng.bool(),
                rng.uniform_u64(0, max_arrival),
                rng.uniform_u64(1, max_prio),
                rng.u64(),
            )
        })
        .collect()
}

/// Whatever the mix: every job completes, exactly its task count is
/// executed, waiting times are consistent, and nothing is scheduled before
/// it arrives.
#[test]
fn any_mix_completes_and_conserves_tasks() {
    check(
        "any_mix_completes_and_conserves_tasks",
        CheckConfig::default(),
        |rng: &mut SimRng| (gen_jobs(rng, 6, 2_999, 3), rng.uniform_u64(0, 3)),
        |(jobs, policy_idx)| {
            assume!(!jobs.is_empty());
            assume!(jobs.iter().all(|&(_, _, _, p, _)| p >= 1));
            let policy = policy_of(*policy_idx);
            let mut corun = CoRun::new(GpuConfig::k40(), policy);
            for &(bidx, small, arrival_us, priority, seed) in jobs {
                corun = corun.job(
                    JobSpec::new(
                        profile(bench_of(bidx), class_of(small)),
                        SimTime::from_us(arrival_us),
                    )
                    .with_priority(priority as u32)
                    .with_seed(seed),
                );
            }
            let result = corun.run();
            require_eq!(result.jobs.len(), jobs.len());
            for (record, &(bidx, small, arrival_us, _, _)) in result.jobs.iter().zip(jobs) {
                let expected_tasks = Benchmark::get(bench_of(bidx))
                    .profile(class_of(small))
                    .tasks;
                require!(
                    record.completed.is_some(),
                    "{} never completed under {:?}",
                    record.name,
                    policy
                );
                require_eq!(
                    record.tasks_completed,
                    expected_tasks,
                    "{} task conservation",
                    &record.name
                );
                require!(record.completed.unwrap() >= SimTime::from_us(arrival_us));
                if let Some(granted) = record.first_granted {
                    require!(granted >= record.arrival);
                }
                // Waiting never exceeds the whole turnaround.
                require!(record.waiting <= record.turnaround().unwrap());
            }
            Ok(())
        },
    );
}

/// Runs are bit-identical across repetitions (determinism holds for every
/// policy, not just the ones the examples exercise).
#[test]
fn any_corun_is_deterministic() {
    check(
        "any_corun_is_deterministic",
        CheckConfig::default(),
        |rng: &mut SimRng| (gen_jobs(rng, 4, 999, 2), rng.uniform_u64(0, 3)),
        |(jobs, policy_idx)| {
            assume!(!jobs.is_empty());
            assume!(jobs.iter().all(|&(_, _, _, p, _)| p >= 1));
            let build = || {
                let mut corun = CoRun::new(GpuConfig::k40(), policy_of(*policy_idx));
                for &(bidx, small, arrival_us, priority, seed) in jobs {
                    corun = corun.job(
                        JobSpec::new(
                            profile(bench_of(bidx), class_of(small)),
                            SimTime::from_us(arrival_us),
                        )
                        .with_priority(priority as u32)
                        .with_seed(seed),
                    );
                }
                corun.run()
            };
            let a = build();
            let b = build();
            require_eq!(a.jobs, b.jobs);
            require_eq!(a.end_time, b.end_time);
            Ok(())
        },
    );
}

/// Under HPF, a strictly-highest-priority job is never preempted.
#[test]
fn top_priority_job_is_never_preempted() {
    check(
        "top_priority_job_is_never_preempted",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            let others: Vec<(u64, bool, u64, u64)> = (0..rng.uniform_u64(1, 4))
                .map(|_| {
                    (
                        rng.uniform_u64(0, 7),
                        rng.bool(),
                        rng.uniform_u64(0, 1_999),
                        rng.u64(),
                    )
                })
                .collect();
            (others, rng.uniform_u64(0, 7))
        },
        |(others, top_idx)| {
            assume!(!others.is_empty());
            let top = bench_of(*top_idx);
            let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf()).job(
                JobSpec::new(profile(top, InputClass::Small), SimTime::from_us(100))
                    .with_priority(10),
            );
            for &(bidx, small, arrival_us, seed) in others {
                corun = corun.job(
                    JobSpec::new(
                        profile(bench_of(bidx), class_of(small)),
                        SimTime::from_us(arrival_us),
                    )
                    .with_priority(1)
                    .with_seed(seed),
                );
            }
            let result = corun.run();
            require_eq!(result.jobs[0].preemptions, 0);
            require!(result.jobs[0].completed.is_some());
            Ok(())
        },
    );
}

/// A fault plan whose every rate is zero still owns an RNG stream and (via
/// the implied watchdog) a polling event source — but neither may leak into
/// job-visible results: records match a run with the fault layer absent,
/// and every robustness log stays empty.
#[test]
fn quiet_fault_plan_is_invisible() {
    use flep_gpu_sim::FaultConfig;

    check(
        "quiet_fault_plan_is_invisible",
        CheckConfig::default(),
        |rng: &mut SimRng| (gen_jobs(rng, 4, 1_999, 3), rng.uniform_u64(0, 3), rng.u64()),
        |(jobs, policy_idx, fault_seed)| {
            assume!(!jobs.is_empty());
            assume!(jobs.iter().all(|&(_, _, _, p, _)| p >= 1));
            let build = |faults: bool| {
                let mut corun = CoRun::new(GpuConfig::k40(), policy_of(*policy_idx));
                if faults {
                    corun = corun.with_faults(FaultConfig::quiet(*fault_seed));
                }
                for &(bidx, small, arrival_us, priority, seed) in jobs {
                    corun = corun.job(
                        JobSpec::new(
                            profile(bench_of(bidx), class_of(small)),
                            SimTime::from_us(arrival_us),
                        )
                        .with_priority(priority as u32)
                        .with_seed(seed),
                    );
                }
                corun.run()
            };
            let plain = build(false);
            let quiet = build(true);
            require_eq!(plain.jobs, quiet.jobs);
            require_eq!(quiet.faults_fired, 0);
            require!(quiet.recoveries.is_empty());
            require!(quiet.errors.is_empty());
            // `escalations[0]` counts ordinary flag-level preemptions, so
            // it is free to be non-zero — but it must match the plain run,
            // and the forced-drain / kill rungs must never fire without
            // injected faults.
            require_eq!(plain.escalations, quiet.escalations);
            require_eq!(quiet.escalations[1], 0);
            require_eq!(quiet.escalations[2], 0);
            Ok(())
        },
    );
}

//! The experiment driver: describe a co-run, execute it, read results.

use flep_gpu_sim::{FaultConfig, FaultPlan, GpuConfig, GpuDevice, SwapManager};
use flep_sim_core::{SimTime, Simulation};

/// Default event budget for a co-run: far above any legitimate experiment
/// (the heaviest FFS horizon runs dispatch a few million events), so the
/// only way to hit it is a genuine event feedback loop — which then aborts
/// with diagnostics instead of hanging the harness.
pub const DEFAULT_EVENT_BUDGET: u64 = 1_000_000_000;

use crate::cluster::{finish_run, ClusterResult};
use crate::job::JobSpec;
use crate::world::{Policy, SystemEvent, SystemWorld, WatchdogConfig};

/// A complete co-run description.
///
/// # Example
///
/// ```
/// use flep_gpu_sim::GpuConfig;
/// use flep_runtime::{CoRun, JobSpec, KernelProfile, Policy};
/// use flep_sim_core::SimTime;
/// use flep_workloads::{Benchmark, BenchmarkId, InputClass};
///
/// let lo = KernelProfile::of(&Benchmark::get(BenchmarkId::Nn), InputClass::Large);
/// let hi = KernelProfile::of(&Benchmark::get(BenchmarkId::Spmv), InputClass::Small);
/// let result = CoRun::new(GpuConfig::k40(), Policy::hpf())
///     .job(JobSpec::new(lo, SimTime::ZERO).with_priority(1))
///     .job(JobSpec::new(hi, SimTime::from_us(10)).with_priority(2))
///     .run();
/// // The high-priority kernel preempts the long-running one and finishes
/// // long before it.
/// let hi_done = result.jobs[1].completed.unwrap();
/// let lo_done = result.jobs[0].completed.unwrap();
/// assert!(hi_done < lo_done);
/// ```
#[derive(Debug)]
pub struct CoRun {
    config: GpuConfig,
    policy: Policy,
    jobs: Vec<JobSpec>,
    horizon: Option<SimTime>,
    swap: Option<SwapManager>,
    span_trace: bool,
    faults: Option<FaultConfig>,
    watchdog: Option<WatchdogConfig>,
    budget: u64,
}

impl CoRun {
    /// Starts an empty co-run under a policy.
    #[must_use]
    pub fn new(config: GpuConfig, policy: Policy) -> Self {
        CoRun {
            config,
            policy,
            jobs: Vec::new(),
            horizon: None,
            swap: None,
            span_trace: false,
            faults: None,
            watchdog: None,
            budget: DEFAULT_EVENT_BUDGET,
        }
    }

    /// Injects a seeded fault plan into the device: lost/delayed preempt
    /// doorbells, victims that stop polling the flag, dropped or delayed
    /// host notifications, transiently rejected launches. Implies the
    /// watchdog (with [`WatchdogConfig::default`]) unless one was set
    /// explicitly — faults without recovery machinery would livelock.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables the preemption watchdog: preempt requests carry a deadline
    /// and escalate flag → forced drain → kill + relaunch on expiry. Off
    /// by default so fault-free runs replay an identical event stream.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Overrides the event budget (default [`DEFAULT_EVENT_BUDGET`]);
    /// exhaustion surfaces as
    /// [`RuntimeError::EventBudgetExhausted`](crate::RuntimeError::EventBudgetExhausted)
    /// in the result rather than a panic.
    #[must_use]
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Records every CTA-residency interval as a
    /// [`Span`](flep_sim_core::Span) in the result.
    /// Off by default so long runs (FFS horizons) don't grow an unbounded
    /// span list; required for [`ClusterResult::gpu_share`] and timeline
    /// rendering. Per-owner busy totals are collected either way.
    #[must_use]
    pub fn with_span_trace(mut self) -> Self {
        self.span_trace = true;
        self
    }

    /// Adds a job (builder style).
    #[must_use]
    pub fn job(mut self, spec: JobSpec) -> Self {
        self.jobs.push(spec);
        self
    }

    /// Sets an experiment horizon: looping jobs stop re-arriving at this
    /// time and the simulation ends once in-flight work drains.
    #[must_use]
    pub fn horizon(mut self, at: SimTime) -> Self {
        self.horizon = Some(at);
        self
    }

    /// Enables GPUSwap-style device-memory oversubscription: jobs with a
    /// declared working set pay swap-in time when their data is not
    /// resident (§8's planned integration).
    #[must_use]
    pub fn with_swap(mut self, swap: SwapManager) -> Self {
        self.swap = Some(swap);
        self
    }

    /// Executes the co-run to completion.
    ///
    /// Failures that used to panic — device-rejected launches, working
    /// sets that cannot fit, an exhausted event budget — are reported as
    /// [`ClusterResult::errors`]; watchdog interventions as
    /// [`ClusterResult::recoveries`].
    ///
    /// The run keeps its own single-world loop rather than stepping a
    /// one-device [`GpuCluster`](crate::GpuCluster): every job is
    /// registered with the world up front, and FFS's epoch arithmetic
    /// sums weights and overhead estimates over every registered job,
    /// including jobs that have not arrived yet. A cluster registers a job
    /// on its shard only when the job arrives.
    #[must_use]
    pub fn run(self) -> ClusterResult {
        let jobs = self.jobs.len();
        let arrivals: Vec<SimTime> = self.jobs.iter().map(|j| j.arrival).collect();
        let mut device = GpuDevice::new(self.config);
        device.set_span_collection(self.span_trace);
        device.set_fault_plan(self.faults.map(FaultPlan::new));
        // Fault injection without recovery machinery would livelock on the
        // first stuck victim, so faults imply a default-configured
        // watchdog. Fault-free runs keep it off unless explicitly enabled:
        // its poll events would otherwise perturb `end_time`.
        let watchdog = self
            .watchdog
            .or_else(|| self.faults.map(|_| WatchdogConfig::default()));
        let mut world = SystemWorld::new(device, self.policy, self.jobs, self.horizon);
        if let Some(swap) = self.swap {
            world.set_swap(swap);
        }
        if let Some(wd) = watchdog {
            world.set_watchdog(wd);
        }
        let mut sim = Simulation::new(world);
        for (idx, at) in arrivals.into_iter().enumerate() {
            sim.schedule_at(at, SystemEvent::Arrival(idx));
        }
        if let Some(wd) = watchdog {
            sim.schedule_at(wd.poll_interval, SystemEvent::Watchdog);
        }
        let outcome = sim.run_with_budget(self.budget);
        finish_run(outcome, |end| {
            ClusterResult::of_world(sim.into_world(), jobs, end)
        })
    }
}

/// The result of a [`CoRun`]: the same type a [`ClusterRun`](crate::ClusterRun)
/// returns, its single device folded with the identity job map.
pub type CoRunResult = ClusterResult;

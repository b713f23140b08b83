//! Helpers shared by the two cluster workloads, `scaleout` and `chaos`.

use flep_runtime::{ClusterConfig, ClusterResult, ClusterRun, JobSpec, RuntimeError};

use crate::trace::{SpanId, Tracer};
use crate::PassOut;

/// Runs `jobs` on a cluster built from `cfg` inside a `cluster.run` span,
/// with an event budget of `events_per_job` per job. Returns the result and,
/// for a run that exhausted its budget or whose job ledger does not
/// reconcile, the failure to book with [`book`].
pub fn run(
    cfg: &ClusterConfig,
    jobs: &[JobSpec],
    events_per_job: u64,
    unit: String,
    tr: &Tracer,
    parent: SpanId,
) -> (ClusterResult, Option<String>) {
    let r = tr.call(
        parent,
        "cluster.run",
        || unit.clone(),
        |_| {
            let r = jobs
                .iter()
                .fold(ClusterRun::new(cfg.clone()), |run, j| run.job(j.clone()))
                .with_event_budget(events_per_job * jobs.len() as u64)
                .run();
            let counts = vec![
                ("jobs", jobs.len() as f64),
                ("completed", r.completed as f64),
                ("migrations", r.migrations as f64),
                ("end_us", r.end_time.as_us()),
            ];
            (r, counts)
        },
    );
    let exhausted = r
        .errors
        .iter()
        .any(|e| matches!(e, RuntimeError::EventBudgetExhausted { .. }));
    let problem = (exhausted || !r.reconciles()).then(|| {
        format!(
            "cluster {unit}: budget exhausted {exhausted}, completed {} failed {} stranded {} of {}",
            r.completed,
            r.failed,
            r.stranded,
            r.jobs.len()
        )
    });
    (r, problem)
}

/// Books a cluster run's outcome on the pass.
pub fn book(out: &mut PassOut, r: &ClusterResult, problem: Option<String>) {
    out.runs += 1;
    out.items += r.jobs.len() as u64;
    out.items_done += r.completed;
    if let Some(p) = problem {
        out.failed_runs += 1;
        out.fail(p);
    }
}

/// Turnarounds (simulated ms) of the completed jobs of `r`.
pub fn turnarounds_ms(r: &ClusterResult) -> impl Iterator<Item = f64> + '_ {
    r.jobs
        .iter()
        .filter_map(|j| j.turnaround())
        .map(|t| t.as_us() / 1e3)
}

//! ASCII timeline rendering for co-run results: one row per job showing
//! when it waited and when its CTAs actually occupied the GPU — the
//! quickest way to *see* a preemption schedule.

use flep_runtime::ClusterResult;
use flep_sim_core::SimTime;

/// Cell glyphs by GPU-busy fraction within the cell's time window.
const LEVELS: [char; 5] = [' ', '░', '▒', '▓', '█'];
/// Glyph for "active but not on the GPU" (queued or draining).
const WAITING: char = '·';

/// Renders a co-run as an ASCII timeline, `width` cells wide.
///
/// Each row is one job; each cell covers `end_time / width` of virtual
/// time. Block glyphs show the fraction of the cell the job's CTAs were
/// resident on the device; `·` marks time the job was active (arrived,
/// unfinished) but not executing.
///
/// # Example
///
/// ```
/// use flep_core::prelude::*;
/// use flep_core::render_timeline;
///
/// let lo = KernelProfile::of(&Benchmark::get(BenchmarkId::Nn), InputClass::Large);
/// let hi = KernelProfile::of(&Benchmark::get(BenchmarkId::Spmv), InputClass::Small);
/// let result = CoRun::new(GpuConfig::k40(), Policy::hpf())
///     .with_span_trace() // timelines render from per-span records
///     .job(JobSpec::new(lo, SimTime::ZERO).with_priority(1))
///     .job(JobSpec::new(hi, SimTime::from_us(10)).with_priority(2))
///     .run();
/// let art = render_timeline(&result, 60);
/// assert!(art.contains("NN_Large"));
/// assert!(art.contains('█'));
/// ```
#[must_use]
pub fn render_timeline(result: &ClusterResult, width: usize) -> String {
    let width = width.max(10);
    let end = result.end_time.max(SimTime::from_ns(1));
    let cell_ns = (end.as_ns() as f64 / width as f64).max(1.0);

    let name_w = result
        .jobs
        .iter()
        .map(|j| j.name.len())
        .max()
        .unwrap_or(4)
        .min(24);

    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_w$} 0{}{}\n",
        "",
        "-".repeat(width.saturating_sub(2)),
        end
    ));
    for (idx, job) in result.jobs.iter().enumerate() {
        let mut row = String::with_capacity(width);
        for cell in 0..width {
            let from = SimTime::from_ns((cell as f64 * cell_ns) as u64);
            let to = SimTime::from_ns(((cell + 1) as f64 * cell_ns) as u64);
            let busy: SimTime = result
                .busy_spans
                .iter()
                .filter(|s| s.owner == idx as u64)
                .map(|s| s.clipped(from, to))
                .sum();
            // CTA-residency time within the cell, normalized by the K40's
            // 120-slot capacity: a full-device kernel renders █, a
            // few-CTA spatial tenant renders ░.
            let frac = (busy.as_ns() as f64 / cell_ns).min(120.0) / 120.0;
            let active = job.arrival < to && job.completed.is_none_or(|c| c > from);
            let glyph = if frac > 0.001 {
                let level = 1 + ((frac * 3.999) as usize).min(3);
                LEVELS[level]
            } else if active {
                WAITING
            } else {
                ' '
            };
            row.push(glyph);
        }
        let mut name = job.name.clone();
        name.truncate(name_w);
        out.push_str(&format!("{name:<name_w$} {row}\n"));
    }
    out.push_str(&format!(
        "{:<name_w$} (█ = full device, ░ = few CTAs, · = waiting)\n",
        ""
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flep_core_test_helpers::*;

    mod flep_core_test_helpers {
        pub use flep_gpu_sim::GpuConfig;
        pub use flep_runtime::{CoRun, JobSpec, KernelProfile, Policy};
        pub use flep_workloads::{Benchmark, BenchmarkId, InputClass};
    }

    fn demo_result() -> ClusterResult {
        let lo = KernelProfile::of(&Benchmark::get(BenchmarkId::Pf), InputClass::Large);
        let hi = KernelProfile::of(&Benchmark::get(BenchmarkId::Mm), InputClass::Small);
        CoRun::new(GpuConfig::k40(), Policy::hpf())
            .with_span_trace()
            .job(JobSpec::new(lo, SimTime::ZERO).with_priority(1))
            .job(JobSpec::new(hi, SimTime::from_us(40)).with_priority(2))
            .run()
    }

    #[test]
    fn timeline_has_one_row_per_job_plus_frame() {
        let r = demo_result();
        let art = render_timeline(&r, 72);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2 + r.jobs.len());
        assert!(lines[1].contains("PF_Large"));
        assert!(lines[2].contains("MM_Small"));
    }

    #[test]
    fn victim_shows_waiting_gap_during_preemption() {
        let r = demo_result();
        let art = render_timeline(&r, 100);
        let victim_row = art.lines().nth(1).unwrap();
        // The victim runs, then waits (·) while MM executes, then resumes.
        assert!(victim_row.contains('█'), "{art}");
        assert!(victim_row.contains(WAITING), "{art}");
    }

    #[test]
    fn width_is_clamped() {
        let r = demo_result();
        let art = render_timeline(&r, 3);
        // Minimum width applies; no panic on degenerate inputs.
        assert!(art.lines().nth(1).unwrap().len() >= 10);
    }
}

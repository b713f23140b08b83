//! The FLEP benchmark: four workloads, each driven through the public entry
//! points of the system, timed from outside, with output checks.
//!
//! ```text
//! cargo run --release --manifest-path flepbench/Cargo.toml -- \
//!     --workload figures --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run times the set-up several times, runs the one-off output checks,
//! then repeats the workload's pass until `--seconds` have elapsed, timing
//! a set-up again after every pass and every call into the system inside
//! a pass; host times are reported from a low percentile of their samples. Simulated results must be identical on
//! every pass. With `--trace 1` untraced and traced passes alternate: the traced
//! ones record a span around every call into a layer, the per-layer
//! metrics come from those spans, and the gap between the two kinds of
//! pass is reported as the tracing overhead. The last stdout line is one
//! JSON object; `NOTES.md` explains every metric.

mod chaos;
mod cluster;
mod figures;
mod probe;
mod scaleout;
mod serve;
mod setup;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::{Span, SpanId, Tracer};

/// Set-up repetitions before the first pass and after every pass;
/// `setup_s` is the [`HOST_QUANTILE`] of all of them. One set-up takes a
/// few milliseconds and its time swings with the host from one millisecond
/// to the next, so the samples are spread over the whole run.
const SETUP_REPS: usize = 15;

/// The percentile of a run's samples a host-time metric reports. Other
/// tenants of a shared machine slow the program down, for stretches from
/// under a second to minutes, and never speed it up. Each call into the
/// system is timed on its own, so the low tail of one call's samples
/// catches the quiet moments of the run, where a median over whole passes
/// moves with the neighbours. The 10th percentile rather than the minimum,
/// so one lucky sample does not set it.
const HOST_QUANTILE: f64 = 10.0;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("work_x", "x_probe"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("done_frac", "share"),
    ("p50_ms", "sim_ms"),
];

/// Per-layer metrics, reported by every workload with tracing on; a layer
/// a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("perfmodel.train_ms", "ms"),
    ("perfmodel.pred_err_pct", "%"),
    ("compile.parse_ms", "ms"),
    ("compile.transform_ms", "ms"),
    ("compile.kernels", "count"),
    ("runtime.corun_calls", "count"),
    ("runtime.corun_ms.p50.mps", "ms"),
    ("runtime.corun_ms.p99.mps", "ms"),
    ("runtime.corun_ms.p50.hpf", "ms"),
    ("runtime.corun_ms.p99.hpf", "ms"),
    ("runtime.corun_ms.p50.ffs", "ms"),
    ("runtime.corun_ms.p99.ffs", "ms"),
    ("runtime.corun_self_ms", "ms"),
    ("runtime.preemptions", "count"),
    ("runtime.drain_us.p50", "sim_us"),
    ("runtime.drain_us.p99", "sim_us"),
    ("runtime.escalations.flag", "count"),
    ("runtime.escalations.forced", "count"),
    ("runtime.escalations.kill", "count"),
    ("cluster.run_ms.d32", "ms"),
    ("cluster.run_ms.d128", "ms"),
    ("cluster.per_device_ms.d32", "ms"),
    ("cluster.per_device_ms.d128", "ms"),
    ("cluster.scale_ratio", "x"),
    ("cluster.placements", "count"),
    ("cluster.migrations", "count"),
    ("cluster.quarantines", "count"),
    ("cluster.probes", "count"),
    ("cluster.readmissions", "count"),
    ("cluster.faults_fired", "count"),
    ("cluster.failed_jobs", "count"),
    ("cluster.chaos_run_ms", "ms"),
    ("cluster.clean_run_ms", "ms"),
    ("serve.run_ms.load0.25", "ms"),
    ("serve.run_ms.load0.5", "ms"),
    ("serve.run_ms.load1", "ms"),
    ("serve.run_ms.load2", "ms"),
    ("simcore.events.load0.25", "count"),
    ("simcore.events.load0.5", "count"),
    ("simcore.events.load1", "count"),
    ("simcore.events.load2", "count"),
    ("simcore.events_per_request.load1", "count"),
    ("simcore.host_ns_per_event.load1", "ns"),
    ("serve.batches.load1", "count"),
    ("serve.batch_size.load1", "count"),
    ("serve.expired.load1", "count"),
    ("serve.attain.dlrm.load0.25", "share"),
    ("serve.attain.dlrm.load0.5", "share"),
    ("serve.attain.dlrm.load1", "share"),
    ("serve.attain.dlrm.load2", "share"),
    ("serve.attain.resnet50.load0.25", "share"),
    ("serve.attain.resnet50.load0.5", "share"),
    ("serve.attain.resnet50.load1", "share"),
    ("serve.attain.resnet50.load2", "share"),
    ("serve.attain.bert-qa.load0.25", "share"),
    ("serve.attain.bert-qa.load0.5", "share"),
    ("serve.attain.bert-qa.load1", "share"),
    ("serve.attain.bert-qa.load2", "share"),
    ("serve.attain.gpt2-gen.load0.25", "share"),
    ("serve.attain.gpt2-gen.load0.5", "share"),
    ("serve.attain.gpt2-gen.load1", "share"),
    ("serve.attain.gpt2-gen.load2", "share"),
    ("serve.search_probes", "count"),
    ("runner.cells", "count"),
    ("runner.cell_ms.max_over_median", "x"),
    ("host.work_s", "s"),
    ("host.wall_s", "s"),
    ("host.probe_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("figures.hp_speedup_x", "x"),
    ("figures.ffs_high_share_pct", "%"),
    ("figures.paper_err_pct", "%"),
    ("serve.goodput_frac", "share"),
    ("serve.p50_ms.load1", "sim_ms"),
    ("serve.p99_ms.load0.5", "sim_ms"),
    ("serve.p99_ms.load1", "sim_ms"),
    ("serve.p99_ms.load2", "sim_ms"),
    ("serve.max_load_slo", "x_base"),
    ("figures.makespan_ms", "sim_ms"),
    ("scaleout.makespan_ms", "sim_ms"),
    ("chaos.makespan_ms", "sim_ms"),
    ("chaos.slowdown_x", "x"),
];

/// What one pass of a workload produced. Everything here is simulated or
/// counted, so it must be identical on every pass of a run.
#[derive(Default)]
pub struct PassOut {
    /// Simulated values and deterministic counts by metric name.
    pub sim: Vec<(String, f64)>,
    /// Work items (co-runs, requests, cluster jobs) attempted.
    pub items: u64,
    /// Work items completed correctly.
    pub items_done: u64,
    /// Simulation runs started.
    pub runs: u64,
    /// Simulation runs that exhausted their event budget or whose ledger
    /// did not reconcile.
    pub failed_runs: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

impl PassOut {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.sim.push((name.into(), value));
    }

    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

/// Books the runtime layer's simulated drain record on `out`: preemptions
/// and drain latencies from the job records, and the escalation level each
/// drain needed.
pub fn set_runtime_metrics<'a>(
    out: &mut PassOut,
    jobs: impl Iterator<Item = &'a flep_runtime::JobRecord>,
    escalations: impl Iterator<Item = [u64; 3]>,
) {
    let mut preemptions = 0u64;
    let mut drains = Vec::new();
    for j in jobs {
        preemptions += u64::from(j.preemptions);
        drains.extend(j.drain_samples.iter().map(|d| d.as_us()));
    }
    let mut levels = [0u64; 3];
    for e in escalations {
        for (l, n) in levels.iter_mut().zip(e) {
            *l += n;
        }
    }
    out.set("runtime.preemptions", preemptions as f64);
    out.set("runtime.drain_us.p50", percentile(&drains, 50.0));
    out.set("runtime.drain_us.p99", percentile(&drains, 99.0));
    out.set("runtime.escalations.flag", levels[0] as f64);
    out.set("runtime.escalations.forced", levels[1] as f64);
    out.set("runtime.escalations.kill", levels[2] as f64);
}

/// A benchmark workload: inputs built in set-up, then a repeatable pass.
pub trait Workload: Sized + Sync {
    /// Builds the workload's inputs from the seed and the shared set-up.
    fn build(seed: u64, shared: &setup::Shared, tr: &Tracer, parent: SpanId) -> Self;
    /// Output checks made once per run, outside the timed passes.
    fn check(&self) -> Vec<String> {
        Vec::new()
    }
    /// One pass over the workload.
    fn pass(&self, tr: &Tracer, parent: SpanId) -> PassOut;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: want 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flepbench: {e}");
            eprintln!(
                "usage: flepbench --workload figures|serve|scaleout|chaos --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Pin the knobs the library reads from the environment: the epoch
    // driver's worker count (scaleout), and automatic queue and step-mode
    // selection everywhere. Nothing else runs yet, so no thread can race
    // these writes.
    std::env::set_var("FLEP_THREADS", threads.to_string());
    std::env::remove_var("FLEP_QUEUE");
    std::env::remove_var("FLEP_CLUSTER_MODE");
    let result = match args.workload.as_str() {
        "figures" => run::<figures::Figures>(&args, threads),
        "serve" => run::<serve::Serve>(&args, 1),
        "scaleout" => run::<scaleout::Scaleout>(&args, 1),
        "chaos" => run::<chaos::Chaos>(&args, threads),
        other => {
            eprintln!("flepbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", result.json);
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct RunResult {
    json: String,
    correct: bool,
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set (`VmHWM`) less the probe's table, which stays
/// resident for the whole run.
fn peak_rss_mb() -> f64 {
    let probe_mb = probe::RESIDENT_BYTES as f64 / (1024.0 * 1024.0);
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0 - probe_mb)
}

fn run<W: Workload>(args: &Args, threads: usize) -> RunResult {
    flep_core::runner::with_threads(threads, || run_inner::<W>(args, threads))
}

/// Times `SETUP_REPS` set-ups into `times` and returns the last one's
/// workload.
fn set_up<W: Workload>(args: &Args, tr: &Tracer, times: &mut Vec<f64>) -> W {
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let w = tr.span(
            None,
            "setup",
            || format!("rep{rep}"),
            |id| {
                let shared = setup::Shared::build(args.seed, tr, id);
                (W::build(args.seed, &shared, tr, id), Vec::new())
            },
        );
        times.push(t0.elapsed().as_secs_f64());
        workload = Some(w);
    }
    workload.expect("at least one set-up repetition")
}

fn run_inner<W: Workload>(args: &Args, threads: usize) -> RunResult {
    let setup_tracer = Tracer::new(args.trace);
    let mut setup_times = Vec::new();
    let workload: W = set_up(args, &setup_tracer, &mut setup_times);

    let mut failures = workload.check();
    probe::sample();

    // Passes: repeat until the measuring window is used up. With tracing
    // on, even passes run untraced and odd passes traced.
    let start = Instant::now();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut traced_spans: Vec<Vec<Span>> = Vec::new();
    // Host seconds of every call of the untraced passes, by unit.
    let mut call_s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut first: Option<PassOut> = None;
    let (mut runs, mut failed_runs, mut items, mut items_done) = (0u64, 0u64, 0u64, 0u64);
    let mut pass_no = 0usize;
    loop {
        let traced = args.trace && pass_no % 2 == 1;
        let tr = Tracer::new(traced);
        let t0 = Instant::now();
        let out = tr.span(
            None,
            "pass",
            || format!("pass{pass_no}"),
            |id| (workload.pass(&tr, id), Vec::new()),
        );
        let dt = t0.elapsed().as_secs_f64();
        if traced {
            traced_s.push(dt);
            traced_spans.push(tr.take());
        } else {
            untraced_s.push(dt);
            for (unit, secs) in tr.take_calls() {
                call_s.entry(unit).or_default().push(secs);
            }
        }
        runs += out.runs;
        failed_runs += out.failed_runs;
        items += out.items;
        items_done += out.items_done;
        for f in &out.failures {
            if !failures.contains(f) {
                failures.push(f.clone());
            }
        }
        match &first {
            None => first = Some(out),
            Some(f) if f.sim != out.sim => failures.push(format!(
                "pass {pass_no} ({}) simulated results differ from pass 0",
                if traced { "traced" } else { "untraced" }
            )),
            Some(_) => {}
        }
        pass_no += 1;
        let _: W = set_up(args, &Tracer::new(false), &mut setup_times);
        // Start another pass only if it would end less than half a pass
        // past the window, so a run measures about `--seconds`.
        let window_used = start.elapsed().as_secs_f64() + dt / 2.0 >= args.seconds;
        if window_used && (!args.trace || !traced_s.is_empty()) {
            break;
        }
    }
    let first = first.expect("at least one pass");
    let setup_s = percentile(&setup_times, HOST_QUANTILE);

    // End-to-end metrics.
    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    // A pass's host time: every call at its low percentile, summed; then
    // in units of the probe's time.
    let work_s: f64 = call_s.values().map(|v| percentile(v, HOST_QUANTILE)).sum();
    let probe_s = percentile(&probe::samples(), HOST_QUANTILE);
    metrics.insert("work_x", work_s / probe_s);
    if call_s.values().any(|v| v.len() != untraced_s.len()) {
        failures.push("the passes did not all make the same calls".into());
    }
    metrics.insert("setup_s", setup_s);
    metrics.insert("peak_rss_mb", peak_rss_mb());
    metrics.insert(
        "done_frac",
        if items == 0 {
            0.0
        } else {
            items_done as f64 / items as f64
        },
    );
    for (name, _) in END_TO_END {
        if let Some(v) = first.get(name) {
            metrics.insert(name, v);
        }
    }

    // Human-readable lines: every simulated value of the pass, then the
    // end-to-end metrics.
    println!(
        "workload {} seed {} runner threads {threads} passes {pass_no} (traced {}) calls per pass {}",
        args.workload,
        args.seed,
        traced_s.len(),
        call_s.len()
    );
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  pass_s untraced [{}] traced [{}]",
        fmt(&untraced_s),
        fmt(&traced_s)
    );
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    for (name, v) in &first.sim {
        println!(
            "  {name:<36} {v:>14.6} {}",
            units.get(name.as_str()).unwrap_or(&"")
        );
    }

    let json_metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut layer: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        for (name, v) in &first.sim {
            if let Some(slot) = layer.get_mut(name.as_str()) {
                *slot = *v;
            }
        }
        let setup_spans = setup_tracer.take();
        host_layer_metrics(&mut layer, &setup_spans, &traced_spans);
        let untraced = percentile(&untraced_s, HOST_QUANTILE);
        let traced = percentile(&traced_s, HOST_QUANTILE);
        layer.insert("host.wall_s", untraced);
        layer.insert("host.work_s", work_s);
        layer.insert("host.probe_ms", probe_s * 1e3);
        layer.insert("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
        write_trace(args, &setup_spans, &traced_spans);
        PER_LAYER.iter().map(|&(n, u)| (n, u, layer[n])).collect()
    } else {
        // The two sides of `work_x`, and the wall time of a pass.
        let host = [
            ("host.work_s", work_s, "s"),
            ("host.probe_ms", probe_s * 1e3, "ms"),
            ("host.wall_s", percentile(&untraced_s, HOST_QUANTILE), "s"),
        ];
        for (name, v, unit) in host {
            println!("  {name:<36} {v:>14.6} {unit}");
        }
        for (name, unit) in END_TO_END {
            println!(
                "  {name:<36} {:>14.6} {unit}",
                metrics.get(name).unwrap_or(&0.0)
            );
        }
        END_TO_END
            .iter()
            .map(|&(n, u)| (n, u, metrics.get(n).copied().unwrap_or(0.0)))
            .collect()
    };

    for (name, _, v) in &json_metrics {
        if !v.is_finite() {
            failures.push(format!("metric {name} is not finite"));
        }
    }
    for f in &failures {
        eprintln!("flepbench: check failed: {f}");
    }
    // Every failed run also records a failure line, so the lines count
    // the failed operations.
    let correct = failures.is_empty() && failed_runs == 0;
    let body: Vec<String> = json_metrics
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        runs.max(1),
        failures.len(),
        body.join(", ")
    );
    RunResult { json, correct }
}

/// Sets per-layer metric `name`, which must be in [`PER_LAYER`].
fn put(layer: &mut BTreeMap<&'static str, f64>, name: &str, value: f64) {
    let key = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .0;
    layer.insert(key, value);
}

/// Host-time per-layer metrics from the recorded spans.
fn host_layer_metrics(
    layer: &mut BTreeMap<&'static str, f64>,
    setup: &[Span],
    passes: &[Vec<Span>],
) {
    let ms = |s: &Span| s.dur_ns() as f64 / 1e6;
    let med_of = |spans: &[Span], name: &str| {
        let mut v: Vec<f64> = spans.iter().filter(|s| s.name == name).map(ms).collect();
        median(&mut v)
    };
    layer.insert("perfmodel.train_ms", med_of(setup, "perfmodel.train"));
    layer.insert("compile.parse_ms", med_of(setup, "compile.parse"));
    layer.insert("compile.transform_ms", med_of(setup, "compile.transform"));
    if let Some(s) = setup.iter().find(|s| s.name == "compile.transform") {
        layer.insert("compile.kernels", s.count("kernels"));
    }

    let all: Vec<&Span> = passes.iter().flatten().collect();
    let n_passes = passes.len().max(1) as f64;
    let durations = |pred: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        all.iter().filter(|s| pred(s)).map(|s| ms(s)).collect()
    };
    let mut corun_calls = 0.0;
    for policy in ["mps", "hpf", "ffs"] {
        let name = format!("runtime.corun.{policy}");
        let v = durations(&|s| s.name == name);
        corun_calls += v.len() as f64;
        put(
            layer,
            &format!("runtime.corun_ms.p50.{policy}"),
            percentile(&v, 50.0),
        );
        put(
            layer,
            &format!("runtime.corun_ms.p99.{policy}"),
            percentile(&v, 99.0),
        );
    }
    layer.insert("runtime.corun_calls", corun_calls / n_passes);

    let mut corun_self = 0.0;
    let mut covered = Vec::new();
    for spans in passes {
        let selfs = trace::self_times_ns(spans);
        corun_self += spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name.starts_with("runtime.corun."))
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum::<f64>();
        // Coverage of the pass's own time: probe samples taken between its
        // top-level calls are the benchmark's time, not the program's.
        if let Some(root) = spans.iter().find(|s| s.name == "pass") {
            let (probes, children): (Vec<&Span>, Vec<&Span>) = spans
                .iter()
                .filter(|c| c.parent == Some(root.id))
                .partition(|c| c.name == trace::PROBE_SPAN);
            let probe_ns: u64 = probes.iter().map(|c| c.dur_ns()).sum();
            let intervals = children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
            let cov = trace::covered_ns(intervals, root.start_ns, root.end_ns);
            let own_ns = root.dur_ns().saturating_sub(probe_ns).max(1);
            covered.push(cov as f64 / own_ns as f64 * 100.0);
        }
    }
    layer.insert("runtime.corun_self_ms", corun_self / n_passes);
    layer.insert("trace.coverage_pct", median(&mut covered));

    let cluster = |unit: &str| {
        let mut v = durations(&|s| s.name == "cluster.run" && s.unit == unit);
        median(&mut v)
    };
    for d in scaleout::DEVICES {
        let unit = format!("d{d}");
        let prefix = format!("{unit}.");
        let mut v = durations(&|s| s.name == "cluster.run" && s.unit.starts_with(&prefix));
        let run_ms = median(&mut v);
        if run_ms > 0.0 {
            put(layer, &format!("cluster.run_ms.{unit}"), run_ms);
            put(
                layer,
                &format!("cluster.per_device_ms.{unit}"),
                run_ms / f64::from(d),
            );
        }
    }
    if layer["cluster.per_device_ms.d32"] > 0.0 {
        layer.insert(
            "cluster.scale_ratio",
            layer["cluster.per_device_ms.d128"] / layer["cluster.per_device_ms.d32"],
        );
    }
    layer.insert("cluster.clean_run_ms", cluster("clean"));
    let mut chaos_cells = durations(&|s| s.name == "cluster.run" && s.unit.starts_with("cell"));
    layer.insert("cluster.chaos_run_ms", median(&mut chaos_cells));

    for load in serve::LOAD_NAMES {
        let unit = format!("load{load}");
        let prefix = format!("load{load}.");
        let mut v = durations(&|s| s.name == "serve.run_serve" && s.unit.starts_with(&prefix));
        put(layer, &format!("serve.run_ms.{unit}"), median(&mut v));
    }
    let per_event: Vec<f64> = all
        .iter()
        .filter(|s| s.name == "serve.run_serve" && s.unit.starts_with("load1."))
        .map(|s| s.dur_ns() as f64 / s.count("events").max(1.0))
        .collect();
    layer.insert(
        "simcore.host_ns_per_event.load1",
        median(&mut per_event.clone()),
    );

    let mut cells = durations(&|s| s.name == "runner.cell");
    if !cells.is_empty() {
        layer.insert("runner.cells", cells.len() as f64 / n_passes);
        let max = cells.iter().copied().fold(0.0, f64::max);
        layer.insert("runner.cell_ms.max_over_median", max / median(&mut cells));
    }
}

/// Writes the recorded spans to `.bench_trace/<workload>-seed<n>.json`.
fn write_trace(args: &Args, setup: &[Span], passes: &[Vec<Span>]) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let mut doc = String::from("{\"setup\": ");
    doc.push_str(&trace::to_json(setup));
    doc.push_str(", \"passes\": [");
    let rendered: Vec<String> = passes.iter().map(|p| trace::to_json(p)).collect();
    doc.push_str(&rendered.join(", "));
    doc.push_str("]}\n");
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc));
    match written {
        Ok(()) => eprintln!("flepbench: spans written to {}", path.display()),
        Err(e) => eprintln!("flepbench: could not write {}: {e}", path.display()),
    }
}

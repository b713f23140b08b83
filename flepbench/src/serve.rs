//! `serve`: the SLO-driven serving frontend on one simulated device, open
//! loop (Poisson and bursty arrivals from `reference_tenants`), at four
//! fixed loads plus a bisection for the highest load at which every
//! tenant keeps at least 99% of its offered requests within its SLO. Each
//! load point is [`SUB_RUNS`] short runs under seeds drawn from the run's
//! seed, pooled: short runs keep each call's working set small, so its
//! host time depends less on what other tenants of the machine do to the
//! shared caches. Load is the only thing that changes between points.

use flep_core::runner::cell_seed;
use flep_metrics::Percentiles;
use flep_serve::{
    reference_tenants, run_serve, ServeConfig, ServeOutcome, ServeReport, TenantReport,
};
use flep_sim_core::SimTime;

use crate::setup::Shared;
use crate::trace::{SpanId, Tracer};
use crate::{PassOut, Workload};

/// Arrivals stop after this much simulated time; each run then drains.
/// Host time per event grows with the horizon (about 0.9 µs at 100 ms,
/// 2.5 µs at 1000 ms) as the run's state outgrows the private caches.
const HORIZON_MS: u64 = 100;
/// Runs per load point, each under its own seed.
const SUB_RUNS: usize = 4;
/// The fixed offered-load multipliers (1.0 is about 70% utilisation).
const LOADS: [f64; 4] = [0.25, 0.5, 1.0, 2.0];
pub const LOAD_NAMES: [&str; 4] = ["0.25", "0.5", "1", "2"];
/// `reference_tenants`, in order.
const TENANTS: [&str; 4] = ["dlrm", "resnet50", "bert-qa", "gpt2-gen"];
/// Per-tenant SLO attainment `max_load_slo` requires.
const SLO_TARGET: f64 = 0.99;
/// Bisection steps inside the bracket the fixed loads give.
const SEARCH_STEPS: usize = 5;
/// A run dispatched about 2.6 events per offered request when calibrated;
/// the budget allows 16 plus a fixed floor.
const EVENTS_PER_REQUEST: f64 = 16.0;

pub struct Serve {
    /// One unscaled config per sub-run seed.
    bases: Vec<ServeConfig>,
    /// One set of sub-run configs per entry of [`LOADS`].
    fixed: Vec<Vec<ServeConfig>>,
}

/// `base` with every tenant's arrival rate scaled by `load` and an event
/// budget sized from the requests that rate offers over the horizon.
fn at_load(base: &ServeConfig, load: f64) -> ServeConfig {
    let mut cfg = base.clone();
    for t in &mut cfg.tenants {
        t.arrivals = t.arrivals.scaled(load);
    }
    let offered: f64 = cfg
        .tenants
        .iter()
        .map(|t| t.arrivals.mean_rate_per_s())
        .sum::<f64>()
        * HORIZON_MS as f64
        / 1e3;
    cfg.event_budget = (EVENTS_PER_REQUEST * offered) as u64 + 100_000;
    cfg
}

/// The sub-runs of one load point, pooled.
struct Point(Vec<ServeReport>);

impl Point {
    fn sum(&self, f: impl Fn(&ServeReport) -> u64) -> u64 {
        self.0.iter().map(f).sum()
    }

    fn offered(&self) -> u64 {
        self.sum(ServeReport::offered)
    }

    fn goodput(&self) -> u64 {
        self.sum(ServeReport::goodput)
    }

    fn tenant_sum(&self, f: impl Fn(&TenantReport) -> u64) -> u64 {
        self.sum(|r| r.tenants.iter().map(&f).sum())
    }

    /// Share of tenant `t`'s offered requests completed within its SLO.
    fn attainment(&self, t: usize) -> f64 {
        let goodput = self.sum(|r| r.tenants[t].stats.goodput);
        goodput as f64 / self.sum(|r| r.tenants[t].stats.offered).max(1) as f64
    }

    fn meets_slo(&self) -> bool {
        (0..TENANTS.len()).all(|t| self.attainment(t) >= SLO_TARGET)
    }

    /// Mean over the sub-runs of a latency percentile, in ms.
    fn mean_ms(&self, f: impl Fn(&Percentiles) -> u64) -> f64 {
        let v: Vec<f64> = self
            .0
            .iter()
            .filter_map(|r| r.latency.as_ref().map(|l| f(l) as f64 / 1e6))
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    fn latency_n(&self) -> u64 {
        self.sum(|r| r.latency.map_or(0, |l| l.n as u64))
    }
}

impl Serve {
    /// Runs one load point: the sub-run configs `cfgs`, each in its own
    /// span, with every run's outcome and ledger checked.
    fn point(
        cfgs: &[ServeConfig],
        unit: &str,
        tr: &Tracer,
        parent: SpanId,
        out: &mut PassOut,
    ) -> Point {
        let reports = cfgs
            .iter()
            .enumerate()
            .map(|(k, cfg)| {
                let r = tr.call(
                    parent,
                    "serve.run_serve",
                    || format!("{unit}.run{k}"),
                    |_| {
                        let r = run_serve(cfg);
                        let counts = vec![
                            ("events", r.events as f64),
                            ("offered", r.offered() as f64),
                            ("goodput", r.goodput() as f64),
                        ];
                        (r, counts)
                    },
                );
                out.runs += 1;
                let drained = r.outcome == ServeOutcome::Drained && r.leftover == 0;
                if !drained || !r.reconciles() {
                    out.failed_runs += 1;
                    out.fail(format!(
                        "serve {unit}.run{k}: outcome {}, leftover {}, ledger reconciles {}",
                        r.outcome.name(),
                        r.leftover,
                        r.reconciles()
                    ));
                }
                r
            })
            .collect();
        Point(reports)
    }
}

impl Workload for Serve {
    fn build(seed: u64, _shared: &Shared, tr: &Tracer, parent: SpanId) -> Self {
        tr.span(
            parent,
            "setup.inputs",
            || "serve".into(),
            |_| {
                let bases: Vec<ServeConfig> = (0..SUB_RUNS)
                    .map(|k| {
                        ServeConfig::new(
                            cell_seed(seed, k, 0),
                            SimTime::from_ms(HORIZON_MS),
                            reference_tenants(),
                        )
                    })
                    .collect();
                let fixed = LOADS
                    .iter()
                    .map(|&l| bases.iter().map(|b| at_load(b, l)).collect())
                    .collect();
                (Serve { bases, fixed }, Vec::new())
            },
        )
    }

    fn check(&self) -> Vec<String> {
        // The per-tenant metric names below assume this tenant order.
        let names: Vec<&str> = self.bases[0]
            .tenants
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        if names == TENANTS {
            Vec::new()
        } else {
            vec![format!(
                "reference tenants are {names:?}, expected {TENANTS:?}"
            )]
        }
    }

    fn pass(&self, tr: &Tracer, parent: SpanId) -> PassOut {
        let mut out = PassOut::default();
        let points: Vec<Point> = self
            .fixed
            .iter()
            .zip(LOAD_NAMES)
            .map(|(cfgs, name)| Self::point(cfgs, &format!("load{name}"), tr, parent, &mut out))
            .collect();

        // Bracket from the fixed loads, then bisect inside it.
        let mut lo = 0.0;
        let mut hi = None;
        for (&load, p) in LOADS.iter().zip(&points) {
            if p.meets_slo() && hi.is_none() {
                lo = load;
            } else if hi.is_none() {
                hi = Some(load);
            }
        }
        let mut probes = 0;
        if let Some(mut hi) = hi {
            for _ in 0..SEARCH_STEPS {
                let mid = (lo + hi) / 2.0;
                let cfgs: Vec<ServeConfig> = self.bases.iter().map(|b| at_load(b, mid)).collect();
                let p = Self::point(&cfgs, &format!("search{mid}"), tr, parent, &mut out);
                probes += 1;
                if p.meets_slo() {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }

        out.items = points.iter().map(Point::offered).sum();
        out.items_done = points
            .iter()
            .map(|p| p.tenant_sum(|t| t.stats.completed))
            .sum();
        let goodput: u64 = points.iter().map(Point::goodput).sum();

        let p50 = |p: &Point| p.mean_ms(|l| l.p50_ns);
        let p99 = |p: &Point| p.mean_ms(|l| l.p99_ns);
        out.set("p50_ms", p50(&points[2]));
        out.set(
            "serve.goodput_frac",
            goodput as f64 / out.items.max(1) as f64,
        );
        out.set("serve.p50_ms.load1", p50(&points[2]));
        out.set("serve.p99_ms.load0.5", p99(&points[1]));
        out.set("serve.p99_ms.load1", p99(&points[2]));
        out.set("serve.p99_ms.load2", p99(&points[3]));
        // Sample counts behind the percentiles (printed, not in the JSON).
        for (load, p) in LOAD_NAMES.iter().zip(&points).skip(1) {
            out.set(format!("serve.latency_n.load{load}"), p.latency_n() as f64);
        }
        out.set("serve.max_load_slo", lo);
        out.set("serve.search_probes", f64::from(probes));
        for (load, p) in LOAD_NAMES.iter().zip(&points) {
            out.set(
                format!("simcore.events.load{load}"),
                p.sum(|r| r.events) as f64,
            );
        }
        let load1 = &points[2];
        let batches = load1.tenant_sum(|t| t.stats.batches);
        out.set(
            "simcore.events_per_request.load1",
            load1.sum(|r| r.events) as f64 / load1.offered().max(1) as f64,
        );
        out.set("serve.batches.load1", batches as f64);
        out.set(
            "serve.batch_size.load1",
            load1.tenant_sum(|t| t.stats.completed) as f64 / batches.max(1) as f64,
        );
        out.set(
            "serve.expired.load1",
            load1.tenant_sum(|t| t.stats.expired) as f64,
        );
        for (t, tenant) in TENANTS.iter().enumerate() {
            for (load, p) in LOAD_NAMES.iter().zip(&points) {
                out.set(format!("serve.attain.{tenant}.load{load}"), p.attainment(t));
            }
        }
        // Requests carry no job records; only the drain escalations surface.
        let mut levels = [0u64; 3];
        for r in points.iter().flat_map(|p| &p.0) {
            for (l, n) in levels.iter_mut().zip(r.escalations) {
                *l += n;
            }
        }
        out.set("runtime.escalations.flag", levels[0] as f64);
        out.set("runtime.escalations.forced", levels[1] as f64);
        out.set("runtime.escalations.kill", levels[2] as f64);
        out
    }
}

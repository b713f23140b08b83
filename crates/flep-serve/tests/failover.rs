//! Cluster failover end-to-end: an 8-device serving fleet loses one
//! device permanently mid-run. Every admitted request must still be
//! accounted exactly once, resident batches migrate to survivors instead
//! of being lost, no batch runs twice (the ledger would overflow), and
//! goodput degrades proportionally to the lost capacity — not
//! catastrophically.

use flep_gpu_sim::{CorrelatedFaultConfig, FailureTopology};
use flep_serve::{
    reference_tenants, run_serve, ArrivalProcess, ServeConfig, ServeOutcome, ServeReport,
    TenantSpec,
};
use flep_sim_core::json::ToJson;
use flep_sim_core::SimTime;
use flep_workloads::ModelId;

const DEVICES: u32 = 8;
const HORIZON_MS: u64 = 60;

/// Eight tenants (the frontend caps each tenant at one in-flight batch,
/// so filling eight devices needs at least eight tenants), two of each
/// model class, loaded heavily enough that every device stays busy.
fn fleet_tenants() -> Vec<TenantSpec> {
    let classes = [
        (ModelId::Dlrm, 3u32, 20_000.0),
        (ModelId::Resnet, 2, 8_000.0),
        (ModelId::Bert, 1, 2_500.0),
        (ModelId::Gpt2, 0, 300.0),
    ];
    (0..8)
        .map(|i| {
            let (model, priority, rate) = classes[i % classes.len()];
            TenantSpec::new(
                &format!("t{i}-{model:?}"),
                model,
                priority,
                ArrivalProcess::Poisson { rate_per_s: rate },
            )
        })
        .collect()
}

fn fleet_cfg(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(seed, SimTime::from_ms(HORIZON_MS), fleet_tenants());
    cfg.devices = DEVICES;
    cfg
}

fn assert_ledger_exact(r: &ServeReport, label: &str) {
    assert!(r.reconciles(), "{label}: ledger must balance: {r:?}");
    for t in &r.tenants {
        let s = &t.stats;
        // Exactly-once settling: a double-run would settle the same batch
        // twice and push completed past admitted.
        assert!(
            s.completed + s.expired + s.failed <= s.admitted,
            "{label}/{}: over-settled ledger: {s:?}",
            t.name
        );
    }
}

#[test]
fn eight_device_fleet_survives_permanent_death() {
    let clean = run_serve(&fleet_cfg(2024));
    let mut cfg = fleet_cfg(2024);
    cfg.scripted_device_faults = vec![(
        SimTime::from_ms(HORIZON_MS / 2),
        0,
        flep_gpu_sim::DeviceFaultKind::Death,
    )];
    let faulty = run_serve(&cfg);

    assert_ledger_exact(&clean, "clean");
    assert_ledger_exact(&faulty, "faulty");
    assert_eq!(clean.offered(), faulty.offered(), "same arrival tape");

    // The dead device's resident batches were migrated, not lost.
    assert!(
        faulty.migrations >= 1,
        "a loaded device died; its batches must migrate: {faulty:?}"
    );
    assert!(faulty.device_events >= 2, "fault + deregistration logged");
    let migrated_total: u64 = faulty.tenants.iter().map(|t| t.stats.migrated).sum();
    assert_eq!(migrated_total, faulty.migrations, "per-tenant attribution");

    // Goodput degrades with capacity, and proportionally: losing 1 of 8
    // devices halfway leaves 15/16 of the clean run's device-time, so
    // goodput stays within a pinned band of that ratio (slack for
    // migration overhead and placement skew) — and never *exceeds* clean
    // by more than noise.
    let ratio = faulty.goodput() as f64 / clean.goodput() as f64;
    assert!(
        (0.80..=1.02).contains(&ratio),
        "goodput ratio {ratio:.4} outside the (N-1)/N band \
         (clean {}, faulty {})",
        clean.goodput(),
        faulty.goodput()
    );
}

#[test]
fn failover_runs_replay_byte_identically() {
    let mut cfg = fleet_cfg(99);
    cfg.device_faults = Some(
        flep_gpu_sim::DeviceFaultConfig::quiet(99)
            .with_hangs(30.0, SimTime::from_ms(1))
            .with_losses(20.0, SimTime::from_ms(2))
            .with_deaths(10.0),
    );
    let a = run_serve(&cfg).to_json().render();
    let b = run_serve(&cfg).to_json().render();
    assert_eq!(a, b);
}

/// The cluster telemetry keys appear in multi-device reports (and golden
/// single-device reports, which omit them, are covered by the golden
/// trace suite).
#[test]
fn multi_device_report_carries_cluster_keys() {
    let r = run_serve(&fleet_cfg(5)).to_json().render();
    assert!(r.contains("\"devices\":8"), "report: {r}");
    assert!(r.contains("\"migrations\""));
    assert!(r.contains("\"device_events\""));
}

/// A seeded correlated-outage plan re-arms itself after every draw, so it
/// outlives the workload. The run must still drain once every request has
/// settled and no arrival can still come, instead of simulating outages
/// until the event budget runs out — also when no request ever arrives
/// (no tenants, or a horizon before every tenant's first arrival).
#[test]
fn seeded_correlated_outages_still_drain() {
    let mut loaded = reference_tenants();
    for t in &mut loaded {
        t.arrivals = t.arrivals.scaled(4.0);
    }
    let cases = [
        (SimTime::from_ms(100), loaded.clone()),
        (SimTime::from_ms(100), Vec::new()),
        (SimTime::ZERO, loaded),
    ];
    for (horizon, tenants) in cases {
        let n = tenants.len();
        let mut cfg = ServeConfig::new(1, horizon, tenants);
        cfg.devices = 8;
        cfg.topology = Some(FailureTopology::new(2, 2, 2));
        cfg.correlated_faults = Some(
            CorrelatedFaultConfig::quiet(1)
                .with_zone_outages(20.0, SimTime::from_ms(1))
                .with_rack_cycles(20.0, SimTime::from_us(500), SimTime::from_us(100)),
        );
        cfg.event_budget = 2_000_000;
        let r = run_serve(&cfg);
        let case = format!("{n} tenants, horizon {horizon:?}");
        assert_eq!(r.outcome, ServeOutcome::Drained, "{case}: {r:?}");
        assert!(r.reconciles(), "{case}: ledger must balance: {r:?}");
        assert_eq!(r.leftover, 0, "{case}");
    }
}

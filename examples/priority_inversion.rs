//! Priority inversion and its cure — the paper's motivating scenario
//! (§2.2, Figs. 1 and 8).
//!
//! A throughput-oriented batch job (NN on a large input) occupies the GPU;
//! a latency-critical query (SPMV on a small input) arrives from a
//! higher-priority process. Under plain MPS the query waits out the whole
//! batch kernel. Under FLEP/HPF the batch kernel is preempted, the query
//! runs, and the batch kernel resumes.
//!
//! Run with:
//! ```sh
//! cargo run --release --example priority_inversion
//! ```

use flep_core::prelude::*;

fn main() {
    let cfg = GpuConfig::k40();
    let store = ModelStore::train(42);

    let batch = Benchmark::get(BenchmarkId::Nn);
    let query = Benchmark::get(BenchmarkId::Spmv);

    let run = |policy: Policy| {
        CoRun::new(cfg.clone(), policy)
            .with_span_trace() // rendered as timelines below
            .job(
                JobSpec::new(KernelProfile::of(&batch, InputClass::Large), SimTime::ZERO)
                    .with_priority(1)
                    .with_predicted(store.predict(&batch, InputClass::Large))
                    .with_seed(1),
            )
            .job(
                JobSpec::new(
                    KernelProfile::of(&query, InputClass::Small),
                    SimTime::from_us(10),
                )
                .with_priority(2)
                .with_predicted(store.predict(&query, InputClass::Small))
                .with_seed(2),
            )
            .run()
    };

    println!(
        "scenario: {} (large, low prio) on the GPU; {} (small, high prio) arrives 10us later\n",
        batch.id, query.id
    );

    let mps = run(Policy::MpsBaseline);
    let flep = run(Policy::hpf());

    let report = |label: &str, r: &ClusterResult| {
        let q = &r.jobs[1];
        let b = &r.jobs[0];
        println!("{label}:");
        println!(
            "  query   : turnaround {:>12}  (waited {})",
            q.turnaround().unwrap().to_string(),
            q.waiting
        );
        println!(
            "  batch   : turnaround {:>12}  (preempted {} time(s))",
            b.turnaround().unwrap().to_string(),
            b.preemptions
        );
    };
    report("MPS baseline (no preemption)", &mps);
    report("FLEP / HPF", &flep);

    let speedup =
        mps.jobs[1].turnaround().unwrap().as_us() / flep.jobs[1].turnaround().unwrap().as_us();
    let batch_cost =
        flep.jobs[0].turnaround().unwrap().as_us() / mps.jobs[0].turnaround().unwrap().as_us();
    println!(
        "\nhigh-priority query speedup: {speedup:.1}X (paper reports up to 24.2X for this pair)"
    );
    println!("batch-kernel turnaround cost: {batch_cost:.3}X");

    // Show the preemption internals.
    let drains = &flep.jobs[0].drain_samples;
    println!(
        "preemption drain latency: {} (one amortized batch of L={} tasks + flag latency)",
        drains[0], batch.table1_amortize
    );

    println!("\ntimeline (FLEP/HPF):");
    print!("{}", flep_core::render_timeline(&flep, 90));
    println!("\ntimeline (MPS baseline):");
    print!("{}", flep_core::render_timeline(&mps, 90));
}

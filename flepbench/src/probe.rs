//! A fixed reference computation timed alongside the workload.
//!
//! Other tenants of a shared machine can slow the whole program down for
//! minutes at a time, longer than a run. A short probe that never changes —
//! a small binary heap churned in cache, then random reads over a table
//! too large for it — is timed every [`PROBE_EVERY_S`] of calls into the
//! system, on the thread that makes the call (see `Tracer::call`), and `work_x` divides a pass's
//! host time by the probe's, so a host slowdown that lasts the whole run
//! cancels out where a percentile cannot remove it.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Seconds of calls between probe samples.
pub const PROBE_EVERY_S: f64 = 0.25;
/// Entries of the random-read table: 32 MiB, larger than the caches the
/// program gets.
const TABLE_LEN: usize = 1 << 22;
const TABLE_READS: usize = 500_000;
/// Entries of the in-cache heap and the pops and pushes churned through it.
const HEAP_LEN: usize = 4096;
const HEAP_OPS: usize = 200_000;

struct Probe {
    epoch: Instant,
    table: Vec<u64>,
    /// `epoch`-relative nanoseconds of the last sample.
    last_ns: AtomicU64,
    samples: Mutex<Vec<f64>>,
}

static PROBE: OnceLock<Probe> = OnceLock::new();

fn probe() -> &'static Probe {
    PROBE.get_or_init(|| Probe {
        epoch: Instant::now(),
        table: (0..TABLE_LEN as u64).collect(),
        last_ns: AtomicU64::new(0),
        samples: Mutex::new(Vec::new()),
    })
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Bytes the probe keeps resident for the whole run (its table), which
/// `peak_rss_mb` leaves out.
pub const RESIDENT_BYTES: usize = TABLE_LEN * std::mem::size_of::<u64>();

/// Times one run of the probe and records it.
pub fn sample() {
    let p = probe();
    let mut seed = 0x9E37_79B9_7F4A_7C15_u64;
    let t0 = Instant::now();
    let mut heap = BinaryHeap::with_capacity(HEAP_LEN);
    for _ in 0..HEAP_LEN {
        heap.push(xorshift(&mut seed));
    }
    let mut acc = 0u64;
    for _ in 0..HEAP_OPS {
        acc ^= heap.pop().unwrap_or(0);
        heap.push(xorshift(&mut seed) >> 1);
    }
    let mask = TABLE_LEN - 1;
    for _ in 0..TABLE_READS {
        acc = acc.wrapping_add(p.table[xorshift(&mut seed) as usize & mask]);
    }
    black_box(acc);
    let secs = t0.elapsed().as_secs_f64();
    p.samples
        .lock()
        .expect("a probe thread panicked")
        .push(secs);
}

/// Whether a sample is due: none was taken in the last [`PROBE_EVERY_S`].
/// Claims the slot, so of several threads asking at once one gets `true`.
pub fn due() -> bool {
    let p = probe();
    let now = p.epoch.elapsed().as_nanos() as u64;
    let last = p.last_ns.load(Ordering::Relaxed);
    now.saturating_sub(last) as f64 >= PROBE_EVERY_S * 1e9
        && p.last_ns
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
}

/// Every sample taken so far, in seconds.
pub fn samples() -> Vec<f64> {
    probe()
        .samples
        .lock()
        .expect("a probe thread panicked")
        .clone()
}

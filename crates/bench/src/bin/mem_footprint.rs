//! `mem_footprint` — bytes per resident connection, before vs after
//! the sorted-leg/intern representation.
//!
//! Populates a switch with N legs drawn from a small pool of distinct
//! `(contract, CDV)` pairs (the realistic shape: millions of
//! connections, dozens of service classes) and measures live heap via
//! the counting global allocator at three population sizes. The
//! **before** figure rebuilds the retired per-leg layout — a
//! `BTreeMap<(ConnectionId, LinkId), (ConnectionRequest, BitStream)>`
//! with the arrival envelope cloned into every leg — from the same
//! requests, so both figures price identical state. The before number
//! deliberately *excludes* the shared `(i, j, p)` aggregates both
//! layouts carry, biasing the comparison against the new layout.
//!
//! Ends with a leak gate: release every connection, assert the intern
//! refcounts all hit zero, drop the switch, and require live heap back
//! at baseline.
//!
//! Usage: `mem_footprint [--smoke]`
//!
//! `--smoke` caps the population at 10k legs (CI); the default runs
//! 10k/100k/1M.

use std::collections::BTreeMap;

use rtcac_bench::memory::{vm_rss_bytes, CountingAlloc};
use rtcac_bench::{columns, f, header, row};
use rtcac_bitstream::{BitStream, CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{ConnectionId, ConnectionRequest, Priority, Switch, SwitchConfig};
use rtcac_net::LinkId;
use rtcac_obs::alloc_live_bytes;
use rtcac_rational::ratio;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The coarsening grid: keeps aggregate breakpoints on a lattice so a
/// million-leg switch folds streams without envelope blow-up.
const GRID: i128 = 16;

/// Distinct traffic contracts in the pool — the "dozens of service
/// classes" a real switch sees.
fn contract_pool() -> Vec<TrafficContract> {
    let mut pool = Vec::new();
    for i in 0..16i128 {
        let den = 64 + 8 * i;
        pool.push(TrafficContract::cbr(
            CbrParams::new(Rate::new(ratio(1, den))).unwrap(),
        ));
    }
    for i in 0..16i128 {
        let pcr = ratio(1, 32 + 4 * i);
        let scr = ratio(1, 256 + 16 * i);
        pool.push(TrafficContract::vbr(
            VbrParams::new(Rate::new(pcr), Rate::new(scr), 4 + (i as u64 % 5)).unwrap(),
        ));
    }
    pool
}

/// The deterministic request for leg `k`: pool contract, one of four
/// CDV depths, 4×4 link pairs, two priorities.
fn request_for(pool: &[TrafficContract], k: usize) -> ConnectionRequest {
    ConnectionRequest::new(
        pool[k % pool.len()],
        Time::from_integer(16 * ((k / pool.len()) % 4) as i128),
        LinkId::external((k % 4) as u32),
        LinkId::external(4 + (k / 4 % 4) as u32),
        Priority::new((k % 2) as u8),
    )
}

fn config() -> SwitchConfig {
    SwitchConfig::uniform(2, Time::from_integer(1 << 20))
        .unwrap()
        .with_quantization(GRID)
        .unwrap()
}

/// The retired layout, rebuilt for the before figure: every leg owns
/// its full request and a private copy of its arrival envelope.
struct OldLayout {
    table: BTreeMap<(ConnectionId, LinkId), (ConnectionRequest, BitStream)>,
}

impl OldLayout {
    fn populate(pool: &[TrafficContract], legs: usize) -> OldLayout {
        let mut table = BTreeMap::new();
        let mut envelopes: BTreeMap<(usize, i128), BitStream> = BTreeMap::new();
        for k in 0..legs {
            let request = request_for(pool, k);
            // Compute each distinct envelope once (the old code also
            // recomputed rather than stored per leg — what it *stored*
            // per leg is the clone below).
            let class = (k % pool.len(), 16 * ((k / pool.len()) % 4) as i128);
            let stream = envelopes
                .entry(class)
                .or_insert_with(|| request.arrival_stream().coarsen(GRID).unwrap())
                .clone();
            table.insert(
                (ConnectionId::new(k as u64), request.out_link()),
                (request, stream),
            );
        }
        OldLayout { table }
    }
}

struct Round {
    before_bytes: u64,
    after_bytes: u64,
    reported_bytes: usize,
    rss_bytes: u64,
}

fn measure(pool: &[TrafficContract], legs: usize) -> Round {
    // After: the sorted-leg/intern switch. It is built (and VmRSS read)
    // before the retired layout exists: the allocator keeps freed
    // small chunks resident rather than return them, so reading VmRSS
    // after dropping a larger layout would price that layout's
    // leftovers too.
    let live0 = alloc_live_bytes();
    let switch = Switch::restore(
        config(),
        0,
        (0..legs).map(|k| (ConnectionId::new(k as u64), request_for(pool, k))),
    )
    .unwrap();
    let after_bytes = alloc_live_bytes() - live0;
    assert_eq!(switch.connection_count(), legs);
    assert!(
        switch.interned_contracts() <= pool.len() * 4,
        "interning must collapse to the class count"
    );
    let reported_bytes = switch.resident_bytes();
    let rss_bytes = vm_rss_bytes();
    drop(switch);

    // Before: the retired per-leg layout, from identical requests.
    let live0 = alloc_live_bytes();
    let old = OldLayout::populate(pool, legs);
    let before_bytes = alloc_live_bytes() - live0;
    assert_eq!(old.table.len(), legs);
    drop(old);

    Round {
        before_bytes,
        after_bytes,
        reported_bytes,
        rss_bytes,
    }
}

/// Release every connection one by one, then drop the switch: intern
/// refcounts must all reach zero and live heap must return to the
/// pre-build baseline (no leak through the intern free list).
fn leak_gate(pool: &[TrafficContract], legs: usize) -> (u64, u64) {
    let baseline = alloc_live_bytes();
    let mut switch = Switch::restore(
        config(),
        0,
        (0..legs).map(|k| (ConnectionId::new(k as u64), request_for(pool, k))),
    )
    .unwrap();
    for k in 0..legs {
        switch.release(ConnectionId::new(k as u64)).unwrap();
    }
    assert_eq!(switch.connection_count(), 0);
    assert_eq!(
        switch.interned_contracts(),
        0,
        "every intern refcount must hit zero after release-all"
    );
    drop(switch);
    (baseline, alloc_live_bytes())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");

    // Warm-up: trigger one-time lazy allocations (stdout buffer,
    // thread locals) before any baseline is taken.
    let pool = contract_pool();
    let _ = measure(&pool, 64);
    println!("# bench: mem_footprint");

    header("grid", GRID);
    header("classes", pool.len());
    header("smoke", smoke);
    columns(&[
        "legs",
        "before_bytes_per_conn",
        "after_bytes_per_conn",
        "reduction_x",
        "reported_bytes_per_conn",
        "vm_rss_mib",
    ]);

    let sizes: &[usize] = if smoke {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut rounds = Vec::new();
    for &legs in sizes {
        let round = measure(&pool, legs);
        let before_per = round.before_bytes as f64 / legs as f64;
        let after_per = round.after_bytes as f64 / legs as f64;
        row(&[
            legs.to_string(),
            f(before_per),
            f(after_per),
            f(before_per / after_per),
            f(round.reported_bytes as f64 / legs as f64),
            f(round.rss_bytes as f64 / (1 << 20) as f64),
        ]);
        rounds.push(round);
    }

    let leak_legs = 10_000;
    let (baseline, after_release) = leak_gate(&pool, leak_legs);
    let leaked = after_release.saturating_sub(baseline);
    header("leak_gate_legs", leak_legs);
    header("leak_gate_leaked_bytes", leaked);
    assert!(
        leaked <= 4096,
        "release-all must return live heap to baseline (leaked {leaked} bytes)"
    );
    println!("leak gate: OK ({leaked} bytes after releasing {leak_legs} legs)");

    // The final (largest) round carries the acceptance bar: at least an
    // 8x cut in bytes per resident connection.
    let last = rounds.last().unwrap();
    let reduction = last.before_bytes as f64 / last.after_bytes as f64;
    header("reduction_at_max_legs", f(reduction));
    assert!(
        reduction >= 8.0,
        "representation must cut bytes/conn at least 8x (got {reduction:.2}x)"
    );
}

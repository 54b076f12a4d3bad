//! Randomized property tests for the per-switch admission control:
//! whatever sequence of admissions and releases happens, the committed
//! state always honors the advertised guarantees.
//!
//! The registry is offline, so instead of proptest these run seeded
//! loops over a local SplitMix64 generator.

use rtcac_bitstream::{Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{ConnectionId, ConnectionRequest, Priority, Switch, SwitchConfig};
use rtcac_net::LinkId;
use rtcac_rational::ratio;

const CASES: u64 = 64;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: i128, hi: i128) -> i128 {
        let span = (hi - lo + 1) as u128;
        lo + (u128::from(self.next()) % span) as i128
    }
}

/// A compact encoding of one operation against the switch.
#[derive(Debug, Clone)]
enum Op {
    /// Try to admit a connection with these small parameters.
    Admit {
        pcr_den: i128,
        scr_extra_den: i128,
        mbs: u64,
        cdv: i128,
        in_link: u32,
        priority: u8,
    },
    /// Release the k-th live connection (mod live count).
    Release(usize),
}

fn arb_op(rng: &mut Rng) -> Op {
    // 3:1 admit-to-release ratio, mirroring the original strategy.
    if rng.range(0, 3) < 3 {
        Op::Admit {
            pcr_den: rng.range(2, 24),
            scr_extra_den: rng.range(0, 60),
            mbs: rng.range(1, 8) as u64,
            cdv: rng.range(0, 96),
            in_link: rng.range(0, 3) as u32,
            priority: rng.range(0, 1) as u8,
        }
    } else {
        Op::Release(rng.range(0, 15) as usize)
    }
}

fn arb_ops(rng: &mut Rng, max_len: usize) -> Vec<Op> {
    let len = rng.range(1, max_len as i128) as usize;
    (0..len).map(|_| arb_op(rng)).collect()
}

fn request_of(op: &Op) -> Option<ConnectionRequest> {
    let Op::Admit {
        pcr_den,
        scr_extra_den,
        mbs,
        cdv,
        in_link,
        priority,
    } = op
    else {
        return None;
    };
    let pcr = ratio(1, *pcr_den);
    let scr = ratio(1, *pcr_den + *scr_extra_den);
    let contract = TrafficContract::vbr(
        VbrParams::new(Rate::new(pcr), Rate::new(scr), *mbs).expect("valid by construction"),
    );
    Some(ConnectionRequest::new(
        contract,
        Time::from_integer(*cdv),
        LinkId::external(*in_link),
        LinkId::external(100),
        Priority::new(*priority),
    ))
}

fn two_level_switch() -> Switch {
    Switch::new(
        SwitchConfig::with_bounds([Time::from_integer(24), Time::from_integer(96)]).unwrap(),
    )
}

/// After any operation sequence, every priority's computed bound fits
/// its advertised bound — the committed state never violates the
/// guarantee the switch hands out.
#[test]
fn committed_state_always_honors_bounds() {
    let mut rng = Rng(201);
    for _ in 0..CASES {
        let ops = arb_ops(&mut rng, 39);
        let mut sw = two_level_switch();
        let mut live: Vec<ConnectionId> = Vec::new();
        let mut next = 0u64;
        for op in &ops {
            match op {
                Op::Admit { .. } => {
                    let req = request_of(op).unwrap();
                    let id = ConnectionId::new(next);
                    next += 1;
                    if sw.admit(id, req).unwrap().is_admitted() {
                        live.push(id);
                    }
                }
                Op::Release(k) => {
                    if !live.is_empty() {
                        let id = live.remove(k % live.len());
                        sw.release(id).unwrap();
                    }
                }
            }
            for p in [Priority::new(0), Priority::new(1)] {
                let bound = sw.computed_bound(LinkId::external(100), p).unwrap();
                let advertised = sw.advertised_bound(p).unwrap();
                assert!(
                    bound <= advertised,
                    "priority {p}: {bound} > {advertised} after {op:?}"
                );
            }
        }
        assert_eq!(sw.connection_count(), live.len());
    }
}

/// `check` never mutates and always agrees with the subsequent `admit`
/// on the same request.
#[test]
fn check_is_pure_and_consistent_with_admit() {
    let mut rng = Rng(202);
    for _ in 0..CASES {
        let ops = arb_ops(&mut rng, 19);
        let mut sw = two_level_switch();
        let mut next = 0u64;
        for op in &ops {
            if let Some(req) = request_of(op) {
                let checked = sw.check(&req).unwrap().is_admitted();
                let count_before = sw.connection_count();
                assert_eq!(sw.connection_count(), count_before);
                let admitted = sw
                    .admit(ConnectionId::new(next), req)
                    .unwrap()
                    .is_admitted();
                next += 1;
                assert_eq!(checked, admitted);
            }
        }
    }
}

/// Admit-then-release is a perfect no-op on the observable state (exact
/// arithmetic: the bounds are bit-identical).
#[test]
fn admit_release_roundtrip_is_identity() {
    let mut rng = Rng(203);
    for _ in 0..CASES {
        let setup = arb_ops(&mut rng, 12);
        let probe = loop {
            let op = arb_op(&mut rng);
            if matches!(op, Op::Admit { .. }) {
                break op;
            }
        };
        let mut sw = two_level_switch();
        let mut next = 0u64;
        for op in &setup {
            if let Some(req) = request_of(op) {
                let _ = sw.admit(ConnectionId::new(next), req).unwrap();
                next += 1;
            }
        }
        let before: Vec<_> = [Priority::new(0), Priority::new(1)]
            .iter()
            .map(|&p| sw.computed_bound(LinkId::external(100), p).unwrap())
            .collect();
        let req = request_of(&probe).unwrap();
        let id = ConnectionId::new(9_999);
        if sw.admit(id, req).unwrap().is_admitted() {
            sw.release(id).unwrap();
        }
        let after: Vec<_> = [Priority::new(0), Priority::new(1)]
            .iter()
            .map(|&p| sw.computed_bound(LinkId::external(100), p).unwrap())
            .collect();
        assert_eq!(before, after);
    }
}

/// A small pool of distinct `(contract, CDV)` classes for the intern
/// properties: interning keys on exactly that pair, so `k` distinct
/// classes can never intern more than `k` entries no matter how many
/// legs share them.
fn class_pool() -> Vec<(TrafficContract, Time)> {
    (0..8)
        .map(|k| {
            let contract = TrafficContract::vbr(
                VbrParams::new(
                    Rate::new(ratio(1, 6 + k)),
                    Rate::new(ratio(1, 60 + 5 * k)),
                    2 + k as u64 % 4,
                )
                .expect("valid by construction"),
            );
            (contract, Time::from_integer(8 * (k % 3)))
        })
        .collect()
}

fn class_request(pool: &[(TrafficContract, Time)], class: usize, salt: u64) -> ConnectionRequest {
    let (contract, cdv) = pool[class % pool.len()];
    ConnectionRequest::new(
        contract,
        cdv,
        LinkId::external((salt % 3) as u32),
        LinkId::external(100),
        Priority::new((salt % 2) as u8),
    )
}

/// Memory-scale satellite: under arbitrary admit/release churn, the
/// intern table holds exactly one entry per *distinct live*
/// `(contract, CDV)` class — never one per leg, and never a stale
/// entry for a class whose last leg was released.
#[test]
fn intern_dedups_to_distinct_live_classes_under_churn() {
    let pool = class_pool();
    let mut rng = Rng(205);
    for _ in 0..CASES {
        let mut sw = two_level_switch();
        let mut live: Vec<(ConnectionId, usize)> = Vec::new();
        let mut next = 0u64;
        for step in 0..60 {
            if rng.range(0, 3) < 3 || live.is_empty() {
                let class = rng.range(0, pool.len() as i128 - 1) as usize;
                let req = class_request(&pool, class, rng.next());
                let id = ConnectionId::new(next);
                next += 1;
                if sw.admit(id, req).unwrap().is_admitted() {
                    live.push((id, class));
                }
            } else {
                let k = rng.range(0, live.len() as i128 - 1) as usize;
                let (id, _) = live.swap_remove(k);
                sw.release(id).unwrap();
            }
            let distinct: std::collections::BTreeSet<usize> =
                live.iter().map(|&(_, c)| c).collect();
            assert_eq!(
                sw.interned_contracts(),
                distinct.len(),
                "step {step}: {} interned for {} distinct live classes",
                sw.interned_contracts(),
                distinct.len()
            );
        }
    }
}

/// Memory-scale satellite: 10 000 connect/release cycles through a
/// bounded live window leak nothing — every refcount returns to zero
/// (empty intern table) and the leg buffer's capacity, once the window
/// has filled, stays put: it follows the peak concurrent population,
/// not the cycle count.
#[test]
fn intern_refcounts_and_leg_slots_do_not_leak_over_10k_cycles() {
    const CYCLES: u64 = 10_000;
    const WINDOW: usize = 16;
    const WARMUP: u64 = 4 * WINDOW as u64;
    let pool = class_pool();
    let mut sw = two_level_switch();
    let mut live: std::collections::VecDeque<ConnectionId> = Default::default();
    let mut admitted = 0u64;
    let mut warm_slots = None;
    for cycle in 0..CYCLES {
        let req = class_request(&pool, cycle as usize, cycle);
        let id = ConnectionId::new(cycle);
        if sw.admit(id, req).unwrap().is_admitted() {
            admitted += 1;
            live.push_back(id);
        }
        if live.len() > WINDOW {
            sw.release(live.pop_front().unwrap()).unwrap();
        }
        if cycle + 1 == WARMUP {
            warm_slots = Some(sw.leg_slots());
        }
        if let Some(warm) = warm_slots {
            assert_eq!(
                sw.leg_slots(),
                warm,
                "cycle {cycle}: leg capacity moved from {warm} after the warm-up"
            );
        }
        assert!(sw.interned_contracts() <= pool.len());
    }
    assert!(
        admitted > CYCLES / 2,
        "workload mostly rejected: {admitted}"
    );
    while let Some(id) = live.pop_front() {
        sw.release(id).unwrap();
    }
    assert_eq!(sw.connection_count(), 0);
    assert_eq!(
        sw.interned_contracts(),
        0,
        "released everything but intern entries survive"
    );
}

/// Memory-scale satellite: a quantizing switch's computed bounds
/// dominate the exact switch's (coarsening never under-estimates
/// traffic) and stay within the documented budget — a factor of 1.5
/// plus two cell times at grid 64 (see `BitStream::coarsen` and
/// DESIGN.md §12).
#[test]
fn coarsened_bounds_dominate_exact_within_budget() {
    const GRID: i128 = 64;
    let mut rng = Rng(206);
    for _ in 0..CASES {
        let ops = arb_ops(&mut rng, 29);
        let mut exact = two_level_switch();
        let mut coarse = Switch::new(
            SwitchConfig::with_bounds([Time::from_integer(24), Time::from_integer(96)])
                .unwrap()
                .with_quantization(GRID)
                .unwrap(),
        );
        let mut next = 0u64;
        for op in &ops {
            let Some(req) = request_of(op) else { continue };
            // Admit to both only where both agree, so the two switches
            // price the same committed population.
            if !(exact.check(&req).unwrap().is_admitted()
                && coarse.check(&req).unwrap().is_admitted())
            {
                continue;
            }
            let id = ConnectionId::new(next);
            next += 1;
            assert!(exact.admit(id, req).unwrap().is_admitted());
            assert!(coarse.admit(id, req).unwrap().is_admitted());
            for p in [Priority::new(0), Priority::new(1)] {
                let d_exact = exact.computed_bound(LinkId::external(100), p).unwrap();
                let d_coarse = coarse.computed_bound(LinkId::external(100), p).unwrap();
                assert!(
                    d_coarse >= d_exact,
                    "priority {p}: coarsened bound {d_coarse} below exact {d_exact}"
                );
                assert!(
                    d_coarse.to_f64() <= d_exact.to_f64() * 1.5 + 2.0,
                    "priority {p}: coarsened bound {d_coarse} outside budget of exact {d_exact}"
                );
            }
        }
    }
}

/// Total sustained load of admitted connections never exceeds the link
/// bandwidth (a consequence the admission must enforce).
#[test]
fn sustained_load_never_exceeds_link() {
    let mut rng = Rng(204);
    for _ in 0..CASES {
        let ops = arb_ops(&mut rng, 39);
        let mut sw = two_level_switch();
        let mut next = 0u64;
        for op in &ops {
            if let Some(req) = request_of(op) {
                let _ = sw.admit(ConnectionId::new(next), req).unwrap();
                next += 1;
            }
        }
        assert!(sw.sustained_load(LinkId::external(100)) <= Rate::FULL);
    }
}

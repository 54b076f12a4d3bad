//! Bound parity under churn: after every step of a seeded 300-op
//! commit/release churn, the engine's computed delay bound equals the
//! serial `signaling::Network`'s at every port and every priority.
//!
//! `RTCAC_TEST_SEED=<u64>` replays the churn; every failure names it.

use std::sync::Arc;

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{ConnectionId, Priority, SwitchConfig};
use rtcac_engine::{AdmissionEngine, EngineOutcome};
use rtcac_net::builders;
use rtcac_rational::ratio;
use rtcac_signaling::{CdvPolicy, Network, SetupOutcome, SetupRequest};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn seed() -> u64 {
    match std::env::var("RTCAC_TEST_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("RTCAC_TEST_SEED={s:?} is not a u64")),
        Err(_) => 0x1997_0415,
    }
}

fn seeded_contract(rng: &mut Rng) -> TrafficContract {
    if rng.below(2) == 0 {
        let den = 6 + i128::from(rng.below(10));
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, den))).unwrap())
    } else {
        let peak_den = 3 + i128::from(rng.below(3));
        let sust_den = 12 + i128::from(rng.below(12));
        TrafficContract::vbr(
            VbrParams::new(
                Rate::new(ratio(1, peak_den)),
                Rate::new(ratio(1, sust_den)),
                2 + rng.below(5),
            )
            .unwrap(),
        )
    }
}

/// The engine's bound must equal the Algorithm 4.1 result on the mirror
/// network's switch — at every queueing point, for every priority level.
fn assert_bounds_match(engine: &AdmissionEngine, net: &Network, priorities: u8, ctx: &str) {
    for node in net.topology().switches().map(|n| n.id()) {
        let switch = net.switch(node).unwrap();
        for out_link in switch.active_out_links() {
            for level in 0..priorities {
                let priority = Priority::new(level);
                let via_engine = engine.computed_bound(node, out_link, priority).unwrap();
                let serial = switch.computed_bound(out_link, priority).unwrap();
                assert_eq!(
                    via_engine,
                    serial,
                    "{ctx}: engine bound differs from the serial network's at node {node}, \
                     link {out_link:?}, priority {level} (epoch {})",
                    engine.shard_epoch(node).unwrap()
                );
            }
        }
    }
}

#[test]
fn engine_bounds_match_serial_network_under_churn() {
    const PRIORITIES: u8 = 2;
    const OPS: usize = 300;

    let seed = seed();
    let sr = builders::star_ring(4, 2).unwrap();
    let config = SwitchConfig::uniform(PRIORITIES, Time::from_integer(64)).unwrap();
    let engine = Arc::new(AdmissionEngine::new(
        sr.topology().clone(),
        config.clone(),
        CdvPolicy::Hard,
    ));
    let mut net = Network::new(sr.topology().clone(), config, CdvPolicy::Hard);

    // Route pool: single-shard terminal hops plus multi-shard ring
    // routes, so churn crosses shard boundaries and exercises the CDV
    // accumulation too.
    let mut routes = Vec::new();
    for i in 0..sr.ring_len() {
        routes.push(sr.terminal_route((i, 0), (i, 1)).unwrap());
        routes.push(sr.ring_route_from_terminal(i, 0, 2).unwrap());
    }

    let mut rng = Rng(seed);
    let mut live: Vec<(ConnectionId, ConnectionId)> = Vec::new(); // (engine, net)
    let mut admitted = 0u64;
    let mut released = 0u64;

    for op in 0..OPS {
        let ctx = format!("RTCAC_TEST_SEED={seed} op {op}");
        let release_now = !live.is_empty() && rng.below(3) == 0;
        if release_now {
            let k = rng.below(live.len() as u64) as usize;
            let (engine_id, net_id) = live.swap_remove(k);
            engine
                .release(engine_id)
                .unwrap_or_else(|e| panic!("{ctx}: engine release failed: {e}"));
            net.teardown(net_id)
                .unwrap_or_else(|e| panic!("{ctx}: network teardown failed: {e}"));
            released += 1;
        } else {
            let route = &routes[rng.below(routes.len() as u64) as usize];
            let request = SetupRequest::new(
                seeded_contract(&mut rng),
                Priority::new(rng.below(u64::from(PRIORITIES)) as u8),
                Time::from_integer(10_000),
            );
            let via_engine = engine
                .admit(route, request)
                .unwrap_or_else(|e| panic!("{ctx}: engine setup failed: {e}"));
            let via_net = net
                .setup(route, request)
                .unwrap_or_else(|e| panic!("{ctx}: network setup failed: {e}"));
            match (via_engine, via_net) {
                (EngineOutcome::Admitted { id, .. }, SetupOutcome::Connected(info)) => {
                    live.push((id, info.id()));
                    admitted += 1;
                }
                (EngineOutcome::Rejected { .. }, SetupOutcome::Rejected(_)) => {}
                (a, b) => panic!("{ctx}: engine said {a:?}, mirror network said {b:?}"),
            }
        }
        assert_bounds_match(&engine, &net, PRIORITIES, &ctx);
    }

    let ctx = format!("RTCAC_TEST_SEED={seed}");
    assert!(
        admitted > 10,
        "{ctx}: churn admitted too little: {admitted}"
    );
    assert!(
        released > 10,
        "{ctx}: churn released too little: {released}"
    );
    let stats = engine.stats();
    assert_eq!(stats.admitted, admitted, "{ctx}");
    assert_eq!(stats.released, released, "{ctx}");
}

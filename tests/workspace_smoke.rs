//! One smoke test per subsystem, driven through the `rtcac` facade:
//! each exercises the crate's primary public entry point end to end,
//! so a re-export or API break in any member crate fails here first.

use std::sync::Arc;

use rtcac::bitstream::{BitStream, CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac::cac::{Priority, SwitchConfig};
use rtcac::engine::{AdmissionEngine, EngineError, EngineOutcome};
use rtcac::net::{builders, Route};
use rtcac::obs::Registry;
use rtcac::rational::{ratio, Ratio};
use rtcac::rtnet::{workload, CdvMode};
use rtcac::signaling::{CdvPolicy, Network, SetupRequest};
use rtcac::sim::{Simulation, TrafficPattern};

fn cbr(num: i128, den: i128) -> TrafficContract {
    TrafficContract::cbr(CbrParams::new(Rate::new(ratio(num, den))).unwrap())
}

#[test]
fn rational_exact_arithmetic() {
    let third = ratio(1, 3);
    assert_eq!(third + third + third, Ratio::ONE);
    assert_eq!(ratio(2, 4), ratio(1, 2));
}

#[test]
fn bitstream_delay_bound() {
    let contract = TrafficContract::vbr(
        VbrParams::new(Rate::new(ratio(1, 4)), Rate::new(ratio(1, 20)), 8).unwrap(),
    );
    let arrival = contract.worst_case_stream().delay(Time::from_integer(16));
    let aggregate = BitStream::multiplex_all(std::iter::repeat_n(&arrival, 4));
    let bound = aggregate.delay_bound(&BitStream::zero()).unwrap();
    assert!(bound > Time::ZERO);
}

#[test]
fn net_builders_and_routes() {
    let sr = builders::star_ring(4, 2).unwrap();
    let route = sr.terminal_route((0, 0), (2, 1)).unwrap();
    assert!(route.hops() >= 3, "cross-ring route spans several links");
    assert!(sr.topology().switches().count() >= 4);
}

#[test]
fn cac_switch_admits_and_releases() {
    use rtcac::cac::{AdmissionDecision, ConnectionId, ConnectionRequest, Switch};
    use rtcac::net::LinkId;
    let mut switch = Switch::new(SwitchConfig::uniform(1, Time::from_integer(32)).unwrap());
    let request = ConnectionRequest::new(
        cbr(1, 8),
        Time::ZERO,
        LinkId::external(0),
        LinkId::external(1),
        Priority::HIGHEST,
    );
    let id = ConnectionId::new(1);
    assert!(matches!(
        switch.admit(id, request).unwrap(),
        AdmissionDecision::Admitted(_)
    ));
    assert_eq!(switch.connection_count(), 1);
    switch.release(id).unwrap();
    assert_eq!(switch.connection_count(), 0);
}

#[test]
fn cac_reservation_plan_core() {
    // The shared admission core behind both drivers: plan a route,
    // price it, reserve it against real switches through a minimal
    // HopDriver, and release in reverse order.
    use rtcac::cac::{
        release_order, AdmissionDecision, CacError, ConnectionId, HopDriver, PlannedHop,
        ReservationPlan, ReserveOutcome, RoutePlan, Switch,
    };
    use rtcac::net::NodeId;
    use std::collections::BTreeMap;

    let sr = builders::star_ring(4, 1).unwrap();
    let route = sr.terminal_route((0, 0), (2, 0)).unwrap();
    let plan = RoutePlan::from_route(sr.topology(), &route).unwrap();
    assert!(plan.hops().len() >= 2);

    let config = SwitchConfig::uniform(1, Time::from_integer(48)).unwrap();
    let advertised = config.bound(Priority::HIGHEST).unwrap();
    let priced = ReservationPlan::price::<CacError>(
        &plan,
        rtcac::cac::CdvPolicy::Hard,
        cbr(1, 16),
        Priority::HIGHEST,
        |_| Ok(advertised),
    )
    .unwrap();
    assert_eq!(priced.terminals().len(), 1);
    assert_eq!(
        priced.achievable(),
        Time::from_integer(48 * plan.hops().len() as i128)
    );

    struct Driver {
        id: ConnectionId,
        switches: BTreeMap<NodeId, Switch>,
    }
    impl HopDriver for Driver {
        type Error = CacError;
        fn admit(
            &mut self,
            _: usize,
            hop: &PlannedHop,
            request: rtcac::cac::ConnectionRequest,
        ) -> Result<AdmissionDecision, CacError> {
            self.switches
                .get_mut(&hop.node)
                .expect("planned hop has a switch")
                .admit(self.id, request)
        }
        fn rollback(&mut self, node: NodeId) -> Result<(), CacError> {
            self.switches
                .get_mut(&node)
                .expect("rolled-back hop has a switch")
                .release(self.id)
                .map(|_| ())
        }
    }
    let mut driver = Driver {
        id: ConnectionId::new(7),
        switches: plan
            .hops()
            .iter()
            .map(|h| (h.node, Switch::new(config.clone())))
            .collect(),
    };
    assert_eq!(
        priced.reserve(&mut driver).unwrap(),
        ReserveOutcome::Reserved
    );
    for switch in driver.switches.values() {
        assert_eq!(switch.connection_count(), 1);
    }
    for node in release_order(plan.hops().iter().map(|h| h.node)) {
        driver
            .switches
            .get_mut(&node)
            .unwrap()
            .release(driver.id)
            .unwrap();
    }
    for switch in driver.switches.values() {
        assert_eq!(switch.connection_count(), 0);
    }
}

#[test]
fn signaling_setup_roundtrip() {
    let sr = builders::star_ring(4, 1).unwrap();
    let config = SwitchConfig::uniform(1, Time::from_integer(48)).unwrap();
    let mut net = Network::new(sr.topology().clone(), config, CdvPolicy::Hard);
    let route = sr.terminal_route((0, 0), (1, 0)).unwrap();
    let outcome = net
        .setup(
            &route,
            SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(1_000)),
        )
        .unwrap();
    assert!(outcome.is_connected());
}

/// Admits `jobs` from `workers` scoped threads — thread `t` takes jobs
/// `t`, `t + workers`, … — and returns the outcomes in submission order.
fn admit_striped(
    engine: &AdmissionEngine,
    jobs: &[(Route, SetupRequest)],
    workers: usize,
) -> Vec<Result<EngineOutcome, EngineError>> {
    let mut outcomes: Vec<_> = std::thread::scope(|s| {
        let stripes: Vec<_> = (0..workers)
            .map(|t| {
                s.spawn(move || {
                    let stripe = jobs.iter().enumerate().skip(t).step_by(workers);
                    stripe
                        .map(|(i, (route, request))| (i, engine.admit(route, *request)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        stripes
            .into_iter()
            .flat_map(|stripe| stripe.join().expect("no admitting thread panicked"))
            .collect()
    });
    outcomes.sort_by_key(|&(i, _)| i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

#[test]
fn engine_concurrent_batch() {
    let sr = builders::star_ring(4, 2).unwrap();
    let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
    let engine = Arc::new(AdmissionEngine::new(
        sr.topology().clone(),
        config,
        CdvPolicy::Hard,
    ));
    let jobs: Vec<(Route, SetupRequest)> = (0..4)
        .map(|i| {
            (
                sr.terminal_route((i, 0), (i, 1)).unwrap(),
                SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(1_000)),
            )
        })
        .collect();
    let outcomes = admit_striped(&engine, &jobs, 2);
    assert!(outcomes.iter().all(|o| o.as_ref().unwrap().is_admitted()));
    // A point-to-multipoint setup takes the same shared core path.
    let tree = sr.broadcast_tree(0, 0).unwrap();
    let outcome = engine
        .admit_multicast(
            &tree,
            SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(1_000)),
        )
        .unwrap();
    assert!(outcome.is_admitted());
    let stats = engine.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.mcast_admitted, 1);
    assert_eq!(
        stats.submitted,
        stats.admitted + stats.rejected + stats.aborted + stats.errored
    );
}

#[test]
fn sim_measures_admitted_traffic() {
    let sr = builders::star_ring(4, 1).unwrap();
    let config = SwitchConfig::uniform(1, Time::from_integer(48)).unwrap();
    let mut net = Network::new(sr.topology().clone(), config, CdvPolicy::Hard);
    let route = sr.terminal_route((0, 0), (1, 0)).unwrap();
    net.setup(
        &route,
        SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(1_000)),
    )
    .unwrap();
    let sim = Simulation::from_network(&net);
    let report = sim.run(2_000);
    assert_eq!(report.total_drops(), 0);
    let delivered: u64 = report.connections().map(|(_, c)| c.delivered).sum();
    assert!(delivered > 0, "greedy source must deliver cells");
    let _ = TrafficPattern::Greedy; // re-exported pattern enum
}

#[test]
fn rtnet_ring_analysis() {
    let analysis = workload::symmetric_with(8, 1, ratio(1, 2), CdvMode::Hard).unwrap();
    let e2e = analysis.end_to_end_bound(Priority::HIGHEST).unwrap();
    assert!(e2e > Time::ZERO);
    assert!(analysis.admissible().unwrap());
}

#[test]
fn serve_wire_service_roundtrip() {
    use rtcac::serve::{Client, Response, ServeConfig, Server};
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        nodes: 4,
        terminals: 2,
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let sr = builders::star_ring(4, 2).unwrap();
    let route = sr.terminal_route((0, 0), (0, 1)).unwrap();
    let links: Vec<u32> = route.links().iter().map(|l| l.index() as u32).collect();

    let mut client = Client::connect(server.addr()).unwrap();
    let request = SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(1_000));
    let Response::Admitted { id, .. } = client.setup(&links, request).unwrap() else {
        panic!("setup should be admitted on an empty ring");
    };
    assert!(matches!(
        client.query(id).unwrap(),
        Response::QueryResult { found: true, .. }
    ));
    assert!(matches!(
        client.release(id).unwrap(),
        Response::Released { .. }
    ));
    client.drain().unwrap();
    drop(client);
    assert!(server.join().is_clean());
}

#[test]
fn storm_generates_deterministic_scenarios() {
    use rtcac::storm::{compile_profile, generate, FuzzConfig, ProfileKind, TopologyKind};
    use rtcac::storm::{generate_topology, LrdVbrSource};
    use rtcac_sim::SimRng;

    // Same seed, same config → byte-identical scenario text.
    let config = FuzzConfig {
        topology: TopologyKind::FatTree,
        profile: Some(ProfileKind::Flap),
        ..FuzzConfig::default()
    };
    let a = generate(42, &config).unwrap().emit();
    let b = generate(42, &config).unwrap().emit();
    assert_eq!(a, b);
    assert!(a.contains("connect "), "scenarios carry traffic");

    // The LRD background source is deterministic per seed and busy at
    // every timescale.
    let mut r1 = SimRng::seed_from_u64(7);
    let mut r2 = SimRng::seed_from_u64(7);
    let source = LrdVbrSource::new(&mut r1, 4);
    let source2 = LrdVbrSource::new(&mut r2, 4);
    assert!(source.sources() > 0);
    for slot in 0..64 {
        assert_eq!(source.intensity(slot), source2.intensity(slot));
    }

    // Impairment profiles compile into a non-empty event schedule.
    let mut rng = SimRng::seed_from_u64(3);
    let topology = generate_topology(TopologyKind::StarOfRings, &mut rng).unwrap();
    let events = compile_profile(ProfileKind::Brownout, &topology, &mut rng, 100);
    assert!(!events.is_empty(), "brownout must schedule events");
}

#[test]
fn obs_registry_records_and_exposes() {
    let registry = Arc::new(Registry::new());
    registry.counter("smoke_total").add(2);
    registry.histogram("smoke_ns").record(1_500);
    registry.events().record("smoke", "hello");
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("smoke_total"), Some(2));
    assert_eq!(snapshot.histogram("smoke_ns").unwrap().count, 1);
    assert!(snapshot.to_prometheus().contains("smoke_total 2"));
    assert!(snapshot.to_json().contains("\"smoke_total\":2"));

    // The engine records into an explicit registry end to end.
    let sr = builders::star_ring(4, 1).unwrap();
    let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
    let engine = Arc::new(AdmissionEngine::with_registry(
        sr.topology().clone(),
        config,
        CdvPolicy::Hard,
        Arc::clone(&registry),
    ));
    let jobs: Vec<(Route, SetupRequest)> = (0..2)
        .map(|i| {
            (
                sr.terminal_route((i, 0), ((i + 1) % 4, 0)).unwrap(),
                SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(1_000)),
            )
        })
        .collect();
    let _ = admit_striped(&engine, &jobs, 2);
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("engine_setups_submitted_total"), Some(2));
    assert!(snapshot.histogram("engine_reserve_ns").unwrap().count >= 2);
}

//! The four workloads and the fabric each one runs on.
//!
//! A workload is a fabric (the 16×4 star-ring `Server::start` builds,
//! its advertised bound, what is preloaded on it) plus seeded op
//! streams. Set-up builds the fabric through the program's own public
//! functions — `Server::start`, then `server.engine().admit` for the
//! preload — and is timed as `setup_s`.

use std::sync::Arc;

use rtcac_bitstream::Time;
use rtcac_cac::{ConnectionId, SwitchConfig};
use rtcac_engine::{AdmissionEngine, EngineOutcome};
use rtcac_net::builders::{star_ring, StarRing};
use rtcac_net::{LinkId, Route};
use rtcac_serve::{ServeConfig, Server};
use rtcac_signaling::{CdvPolicy, Network, SetupOutcome, SetupRejection, SetupRequest};

use crate::gen::{self, Op, Rng, RouteMix, RouteSpec, CLASSES, LIGHT_CLASSES, NODES, TERMINALS};

/// Admission workers of the in-process server (`ServeConfig.workers`).
pub const WORKERS: usize = 2;

/// Where a workload's closed and open loops enter the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// SETUP/RELEASE frames over a loopback TCP connection.
    Wire,
    /// `AdmissionEngine::admit`/`release` called directly; no sockets.
    Direct,
}

/// What set-up admits before the first measured op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preload {
    /// Nothing: the fabric starts empty.
    Empty,
    /// [`LOADED_LEGS`] legs of table contracts, 99 per ring switch;
    /// every one must be admitted.
    Loaded,
    /// Every switch port is filled until its first refusal.
    Saturate,
}

/// The verdict regime a workload must stay in, checked on every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Regime {
    /// Every SETUP is admitted; a refusal is a verdict mismatch.
    AllAdmitted,
    /// The refused share of SETUPs lies in `lo..=hi`, and at least
    /// `rolled_back` of the refusals had reserved a leg first.
    Refusing { lo: f64, hi: f64, rolled_back: f64 },
}

/// One workload of the benchmark.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub entry: Entry,
    /// Advertised per-hop bound, in cell times.
    pub bound: i128,
    pub preload: Preload,
    pub mix: RouteMix,
    /// The classes churn draws from, uniformly over this list.
    pub classes: &'static [u8],
    pub regime: Regime,
    /// Churn ops per client in a round's closed-loop phase.
    pub sat_ops: usize,
    /// Open-loop rate, ops/s — about 30 % of seed capacity.
    pub paced_rate: u64,
    /// Churn ops in a round's open-loop phase.
    pub paced_ops: usize,
    /// Churn ops of a round's direct one-thread phase on a wire
    /// workload (on `Entry::Direct` the closed loop already is direct).
    pub direct_ops: usize,
}

const fn first_classes<const N: usize>() -> [u8; N] {
    let mut list = [0; N];
    let mut i = 0;
    while i < N {
        list[i] = i as u8;
        i += 1;
    }
    list
}

/// The small CBR classes `rtcac load` draws.
const LIGHT: [u8; LIGHT_CLASSES] = first_classes();
/// The whole table, each class once.
const TABLE: [u8; CLASSES] = first_classes();
/// The whole table plus the CBR classes from 1/256 down a second and
/// third time. On the saturated fabric nearly every VBR SETUP is
/// refused and nearly every small CBR one admitted, so this list puts
/// the refused share near 3/4 whatever the seed.
const REFUSING: [u8; CLASSES + 12] = {
    let mut list = [0; CLASSES + 12];
    let mut i = 0;
    while i < CLASSES + 12 {
        list[i] = if i < CLASSES {
            i as u8
        } else {
            2 + ((i - CLASSES) % 6) as u8
        };
        i += 1;
    }
    list
};

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "wire_light",
        why: "empty fabric, small CBR: frame codec, syscalls and pool hand-offs are the cost, pricing is not",
        entry: Entry::Wire,
        bound: 64,
        preload: Preload::Empty,
        mix: RouteMix::Local,
        classes: &LIGHT,
        regime: Regime::AllAdmitted,
        sat_ops: 7000,
        paced_rate: 8000,
        paced_ops: 3200,
        direct_ops: 40_000,
    },
    Spec {
        name: "wire_loaded",
        why: "99 legs per switch preloaded, all admitted: every hop prices a ~20-leg aggregate, so algebra and cac are the cost",
        entry: Entry::Wire,
        bound: 2000,
        preload: Preload::Loaded,
        mix: RouteMix::Local,
        classes: &TABLE,
        regime: Regime::AllAdmitted,
        sat_ops: 3500,
        paced_rate: 3000,
        paced_ops: 1500,
        direct_ops: 6000,
    },
    Spec {
        name: "wire_saturated",
        why: "every port filled to its first refusal: the reject path, rollback and REJECTED details beside the admits",
        entry: Entry::Wire,
        bound: 64,
        preload: Preload::Saturate,
        mix: RouteMix::Crossing,
        classes: &REFUSING,
        regime: Regime::Refusing {
            lo: 0.6,
            hi: 0.9,
            rolled_back: 0.3,
        },
        sat_ops: 4000,
        paced_rate: 3000,
        paced_ops: 1500,
        direct_ops: 6000,
    },
    Spec {
        name: "engine_hot_switch",
        why: "no sockets, every route crosses ring switch 0 in 3-4 hops: one shard's lock wait and lock-held pricing are the cost",
        entry: Entry::Direct,
        bound: 2000,
        preload: Preload::Loaded,
        mix: RouteMix::HotSwitch,
        classes: &TABLE,
        regime: Regime::AllAdmitted,
        sat_ops: 1500,
        paced_rate: 1500,
        paced_ops: 750,
        direct_ops: 0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One preloaded connection, kept so the same fabric state can be
/// rebuilt on a serial `Network` or a second engine.
#[derive(Debug, Clone)]
pub struct Placed {
    pub route: Route,
    pub class: u8,
}

/// The seeded inputs of one workload run: routes, requests and op
/// streams. Built once; every round replays the same streams.
#[derive(Debug)]
pub struct Inputs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub sr: StarRing,
    pub routes: Vec<RouteSpec>,
    pub route_objs: Vec<Route>,
    pub requests: Vec<SetupRequest>,
    /// Closed-loop streams, one per client.
    pub sat: [Vec<Op>; 2],
    /// The open-loop stream.
    pub paced: Vec<Op>,
    /// Direct two-thread streams (prefixes of `sat`).
    pub direct: [Vec<Op>; 2],
    /// The first 2 000 churn ops of `sat[0]`, for the traced replay.
    pub trace: Vec<Op>,
    /// Short streams for the discarded warm-up of every set-up.
    pub warm: [Vec<Op>; 2],
    pub warm_paced: Vec<Op>,
    /// FNV-1a of every stream's bytes.
    pub digest: u64,
}

/// Routes in a workload's table.
const ROUTES: usize = 1024;
/// Churn ops of the traced replay.
pub const TRACE_OPS: usize = 2000;
/// Churn ops per client, and on the open loop, of a warm-up.
const WARM_OPS: usize = 1000;
const WARM_PACED_OPS: usize = 300;

const LANE_ROUTES: u64 = 1;
const LANE_CLIENT: [u64; 2] = [2, 3];
const LANE_PACED: u64 = 4;
const LANE_PRELOAD: u64 = 5;

impl Inputs {
    pub fn new(spec: &'static Spec, seed: u64) -> Inputs {
        let sr = star_ring(NODES, TERMINALS).expect("16x4 star-ring is valid");
        let routes = gen::route_table(&sr, spec.mix, ROUTES, &mut Rng::fork(seed, LANE_ROUTES));
        let route_objs = routes.iter().map(|r| route_of(&sr, r)).collect();
        let classes = spec.classes;
        let make = |lane, n| gen::stream(seed, lane, n, ROUTES, classes);
        let direct_ops = match spec.entry {
            Entry::Wire => spec.direct_ops,
            Entry::Direct => spec.sat_ops,
        };
        let sat = LANE_CLIENT.map(|lane| make(lane, spec.sat_ops));
        let direct = LANE_CLIENT.map(|lane| make(lane, direct_ops));
        let paced = make(LANE_PACED, spec.paced_ops);
        let trace = make(LANE_CLIENT[0], TRACE_OPS);
        let warm = LANE_CLIENT.map(|lane| make(lane, WARM_OPS));
        let warm_paced = make(LANE_PACED, WARM_PACED_OPS);
        let digest = [&sat[0], &sat[1], &paced, &direct[0], &direct[1], &trace]
            .iter()
            .fold(0u64, |h, s| {
                h.rotate_left(7) ^ rtcac_snap::fnv64(&gen::stream_bytes(s))
            });
        Inputs {
            spec,
            seed,
            sr,
            routes,
            route_objs,
            requests: (0..CLASSES as u8).map(gen::request).collect(),
            sat,
            paced,
            direct,
            trace,
            warm,
            warm_paced,
            digest,
        }
    }

    /// The guaranteed delay an admitted SETUP over `route` must report:
    /// the advertised bound on every queueing point.
    pub fn expected_delay(&self, route: u16) -> Time {
        Time::from_integer(self.spec.bound * self.routes[usize::from(route)].hops as i128)
    }
}

pub fn route_of(sr: &StarRing, spec: &RouteSpec) -> Route {
    Route::new(
        sr.topology(),
        spec.links.iter().map(|&l| LinkId::external(l)),
    )
    .expect("generated route is connected")
}

/// A built fabric: the in-process server and what was preloaded on it.
pub struct Fabric {
    pub server: Server,
    pub placed: Vec<Placed>,
    /// `engine.resident_bytes() / connection_count()` after the preload
    /// (on the empty fabric: while one connection per downlink is
    /// held).
    pub resident_bytes_per_conn: f64,
}

impl Fabric {
    /// Topology, `Server::start` on an ephemeral loopback port, preload
    /// through `server.engine().admit`.
    pub fn build(inputs: &Inputs) -> Result<Fabric, String> {
        let server = Server::start(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            nodes: NODES,
            terminals: TERMINALS,
            bound: Time::from_integer(inputs.spec.bound),
            workers: WORKERS,
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let engine = Arc::clone(server.engine());
        let placed = preload(inputs, &mut |route, request| {
            engine_verdict(&engine, route, request)
        })?;
        let resident_bytes_per_conn = resident_per_conn(inputs, &engine)?;
        Ok(Fabric {
            server,
            placed,
            resident_bytes_per_conn,
        })
    }

    pub fn engine(&self) -> &Arc<AdmissionEngine> {
        self.server.engine()
    }
}

fn resident_per_conn(inputs: &Inputs, engine: &AdmissionEngine) -> Result<f64, String> {
    let held = engine.connection_count();
    if held > 0 {
        return Ok(engine.resident_bytes() as f64 / held as f64);
    }
    // An empty fabric holds nobody to divide by: read the figure while
    // one local connection per downlink is held, the same ones whatever
    // the seed, so that it repeats exactly.
    let classes = inputs.spec.classes;
    let mut census = Vec::with_capacity(NODES * TERMINALS);
    for i in 0..NODES {
        for j in 0..TERMINALS {
            let route = inputs
                .sr
                .terminal_route((i, (j + 1) % TERMINALS), (i, j))
                .map_err(|e| e.to_string())?;
            let class = classes[(i * TERMINALS + j) % classes.len()];
            match engine_verdict(engine, &route, inputs.requests[usize::from(class)])? {
                Attempt::Admitted(id) => census.push(id),
                Attempt::Refused { .. } => {
                    return Err("census SETUP refused on an empty fabric".into())
                }
            }
        }
    }
    let per_conn = engine.resident_bytes() as f64 / census.len() as f64;
    for id in census {
        engine.release(id).map_err(|e| e.to_string())?;
    }
    Ok(per_conn)
}

/// What one preload attempt came to.
pub enum Attempt {
    Admitted(ConnectionId),
    /// Refused at the queueing point with this index on the route.
    Refused {
        hop: usize,
    },
}

fn engine_verdict(
    engine: &AdmissionEngine,
    route: &Route,
    request: SetupRequest,
) -> Result<Attempt, String> {
    match engine.admit(route, request).map_err(|e| e.to_string())? {
        EngineOutcome::Admitted { id, .. } => Ok(Attempt::Admitted(id)),
        EngineOutcome::Rejected { rejection, .. } => refused_hop(&rejection),
        EngineOutcome::Rerouted { .. } => Err("preload was rerouted on a healthy fabric".into()),
    }
}

fn refused_hop(rejection: &SetupRejection) -> Result<Attempt, String> {
    match rejection {
        SetupRejection::Switch {
            hops_rolled_back, ..
        } => Ok(Attempt::Refused {
            hop: *hops_rolled_back,
        }),
        other => Err(format!("preload refused outside a switch: {other}")),
    }
}

/// Runs the workload's preload against `admit` and returns what was
/// admitted, in admission order.
///
/// Which class lands on which port is a fixed pattern, not a draw: a
/// port's aggregate decides what every later check through it costs,
/// and drawing it per seed moved the cost of the same op mix by ±5 %
/// between seeds — workload variance the bounds would have had to
/// absorb. The seed picks the terminals the connections come from and
/// the order they are admitted in.
fn preload(
    inputs: &Inputs,
    admit: &mut dyn FnMut(&Route, SetupRequest) -> Result<Attempt, String>,
) -> Result<Vec<Placed>, String> {
    let mut rng = Rng::fork(inputs.seed, LANE_PRELOAD);
    let mut placed = Vec::new();
    match inputs.spec.preload {
        Preload::Empty => {}
        Preload::Loaded => load(inputs, &mut rng, admit, &mut placed)?,
        Preload::Saturate => saturate(inputs, &mut rng, admit, &mut placed)?,
    }
    Ok(placed)
}

/// Local connections preloaded into every downlink of the loaded
/// fabric, and cross-ring ones from every switch per ring distance
/// 1, 2 and 3: 16·(4·18 + 3·(2+3+4)) = 1 584 legs, 99 per switch.
const LOCAL_PER_DOWNLINK: usize = 18;
const CROSS_PER_DISTANCE: usize = 3;
/// Legs held after the loaded preload.
pub const LOADED_LEGS: usize =
    NODES * (TERMINALS * LOCAL_PER_DOWNLINK + CROSS_PER_DISTANCE * (2 + 3 + 4));

/// The class of the `k`-th connection preloaded through port `port`:
/// a stride through the table that differs from port to port.
fn pattern_class(port: usize, k: usize, first: usize) -> u8 {
    (first + (port * 7 + k * 5) % (CLASSES - first)) as u8
}

/// A terminal: (ring switch, index on it).
type Terminal = (usize, usize);

/// A terminal on switch `i` other than `j`.
fn other_terminal(rng: &mut Rng, j: usize) -> usize {
    (j + 1 + rng.below(TERMINALS - 1)) % TERMINALS
}

fn load(
    inputs: &Inputs,
    rng: &mut Rng,
    admit: &mut dyn FnMut(&Route, SetupRequest) -> Result<Attempt, String>,
    placed: &mut Vec<Placed>,
) -> Result<(), String> {
    let sr = &inputs.sr;
    // (source terminal, destination terminal, class)
    let mut plan: Vec<(Terminal, Terminal, u8)> = Vec::new();
    for i in 0..NODES {
        for j in 0..TERMINALS {
            let port = i * TERMINALS + j;
            for k in 0..LOCAL_PER_DOWNLINK {
                let src = (i, other_terminal(rng, j));
                plan.push((src, (i, j), pattern_class(port, k, 0)));
            }
        }
        for distance in 1..=3 {
            for k in 0..CROSS_PER_DISTANCE {
                let slot = (distance - 1) * CROSS_PER_DISTANCE + k;
                let src = (i, rng.below(TERMINALS));
                let dst = ((i + distance) % NODES, slot % TERMINALS);
                plan.push((src, dst, pattern_class(NODES * TERMINALS + i, slot, 0)));
            }
        }
    }
    // Seeded admission order (Fisher–Yates).
    for k in (1..plan.len()).rev() {
        plan.swap(k, rng.below(k + 1));
    }
    for (src, dst, class) in plan {
        let route = sr.terminal_route(src, dst).map_err(|e| e.to_string())?;
        match admit(&route, inputs.requests[usize::from(class)])? {
            Attempt::Admitted(_) => placed.push(Placed { route, class }),
            Attempt::Refused { hop } => {
                return Err(format!(
                    "loaded preload refused at hop {hop} (bound {})",
                    inputs.spec.bound
                ))
            }
        }
    }
    Ok(())
}

/// A downlink counts as full after this many refusals in a row.
const FULL_AFTER: usize = 4;
/// The first VBR class of the table; the saturating preload offers only
/// VBR, so that what is left on a full port fits the small CBR classes
/// and little else.
const FIRST_VBR: usize = 8;
/// One in this many connections offered to a downlink crosses the ring.
const CROSS_EVERY: usize = 16;

/// Fills every terminal downlink with VBR connections until it has
/// refused [`FULL_AFTER`] of them in a row.
///
/// Fifteen of sixteen preloaded connections are local, so the ring
/// ports stay about half full: a churn SETUP that crosses the ring is
/// then admitted on its ring hops and refused at the full downlink it
/// leaves by — the refusal that has to roll legs back.
fn saturate(
    inputs: &Inputs,
    rng: &mut Rng,
    admit: &mut dyn FnMut(&Route, SetupRequest) -> Result<Attempt, String>,
    placed: &mut Vec<Placed>,
) -> Result<(), String> {
    let sr = &inputs.sr;
    for i in 0..NODES {
        for j in 0..TERMINALS {
            let port = i * TERMINALS + j;
            let mut refused_in_a_row = 0;
            let mut offered = 0;
            while refused_in_a_row < FULL_AFTER {
                let src = if offered % CROSS_EVERY == CROSS_EVERY - 1 {
                    let distance = 1 + (offered / CROSS_EVERY) % 3;
                    ((i + NODES - distance) % NODES, rng.below(TERMINALS))
                } else {
                    (i, other_terminal(rng, j))
                };
                let class = pattern_class(port, offered, FIRST_VBR);
                offered += 1;
                let route = sr.terminal_route(src, (i, j)).map_err(|e| e.to_string())?;
                match admit(&route, inputs.requests[usize::from(class)])? {
                    Attempt::Admitted(_) => {
                        placed.push(Placed { route, class });
                        refused_in_a_row = 0;
                    }
                    Attempt::Refused { .. } => refused_in_a_row += 1,
                }
            }
        }
    }
    Ok(())
}

/// Rebuilds the fabric's preloaded state on a serial `Network`.
pub fn serial_replica(inputs: &Inputs, placed: &[Placed]) -> Result<Network, String> {
    let config = SwitchConfig::uniform(1, Time::from_integer(inputs.spec.bound))
        .map_err(|e| e.to_string())?;
    let mut network = Network::new(inputs.sr.topology().clone(), config, CdvPolicy::Hard);
    for p in placed {
        let request = inputs.requests[usize::from(p.class)];
        match network
            .setup(&p.route, request)
            .map_err(|e| e.to_string())?
        {
            SetupOutcome::Connected(_) => {}
            SetupOutcome::Rejected(r) => {
                return Err(format!(
                    "serial replica refused a preloaded connection: {r}"
                ))
            }
        }
    }
    Ok(network)
}

/// Rebuilds the fabric's preloaded state on a fresh engine, with or
/// without a metrics registry.
pub fn engine_replica(
    inputs: &Inputs,
    placed: &[Placed],
    registry: Option<Arc<rtcac_obs::Registry>>,
) -> Result<AdmissionEngine, String> {
    let config = SwitchConfig::uniform(1, Time::from_integer(inputs.spec.bound))
        .map_err(|e| e.to_string())?;
    let topology = inputs.sr.topology().clone();
    let engine = match registry {
        Some(r) => AdmissionEngine::with_registry(topology, config, CdvPolicy::Hard, r),
        None => AdmissionEngine::new(topology, config, CdvPolicy::Hard),
    };
    for p in placed {
        let request = inputs.requests[usize::from(p.class)];
        match engine_verdict(&engine, &p.route, request)? {
            Attempt::Admitted(_) => {}
            Attempt::Refused { hop } => {
                return Err(format!(
                    "engine replica refused a preloaded connection at hop {hop}"
                ))
            }
        }
    }
    Ok(engine)
}

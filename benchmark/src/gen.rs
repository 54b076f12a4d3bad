//! The op-stream generator: seed in, op streams out.
//!
//! `--seed` is the only input. Everything the program under test ever
//! sees — routes, contracts, the SETUP/RELEASE order — is derived here
//! from that one number, so the same seed gives byte-identical streams
//! and a measured difference between two runs is never a difference of
//! inputs.
//!
//! Contracts come from a fixed table of 32 *dyadic* classes: every rate
//! is `1/2^k`, every burst length an integer, so the exact-rational
//! algebra downstream works on denominators that stay powers of two and
//! small. The coprime-denominator overflow ROADMAP lists is a different
//! issue's job and must not be what this benchmark measures.

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::Priority;
use rtcac_net::builders::StarRing;
use rtcac_rational::ratio;
use rtcac_signaling::SetupRequest;

/// Ring switches of the served star-ring (what `Server::start` builds).
pub const NODES: usize = 16;
/// Terminals per ring switch.
pub const TERMINALS: usize = 4;
/// Contract classes in the table.
pub const CLASSES: usize = 32;
/// The first classes are the small CBR contracts `rtcac load` draws
/// (1/64 … 1/512 of a link); the light workload uses only these.
pub const LIGHT_CLASSES: usize = 4;
/// Connections a client holds at most (counting every SETUP it has not
/// yet released, admitted or not).
pub const MAX_HELD: usize = 16;

/// SplitMix64 — the same generator `rtcac_sim::SimRng` wraps; kept
/// local so the benchmark does not import a simulator for its RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-50 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A generator for one named sub-stream of the seed, so adding a
    /// consumer never shifts what the others draw.
    pub fn fork(seed: u64, lane: u64) -> Rng {
        let mut r = Rng::new(seed ^ lane.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }
}

/// The traffic contract of one class of the table.
///
/// Classes `0..8` are CBR at `1/64 … 1/8192`; classes `8..32` are VBR
/// with PCR ∈ {1/8, 1/16, 1/32}, SCR ∈ {1/256 … 1/2048} and an even
/// MBS in `2..=14`.
pub fn contract(class: u8) -> TrafficContract {
    let class = usize::from(class) % CLASSES;
    if class < 8 {
        let pcr = Rate::new(ratio(1, 64i128 << class));
        return TrafficContract::cbr(CbrParams::new(pcr).expect("table CBR rate is in (0, 1]"));
    }
    let v = class - 8;
    let pcr = Rate::new(ratio(1, 8i128 << (v % 3)));
    let scr = Rate::new(ratio(1, 256i128 << ((v / 3) % 4)));
    let mbs = 2 + 2 * ((v as u64 * 5) % 7);
    TrafficContract::vbr(VbrParams::new(pcr, scr, mbs).expect("table VBR parameters are valid"))
}

/// The SETUP parameters of one class: highest priority (the served
/// switches have one level) and a delay bound no route can miss, so a
/// refusal is always a switch's CAC verdict, never the QoS gate.
pub fn request(class: u8) -> SetupRequest {
    SetupRequest::new(
        contract(class),
        Priority::HIGHEST,
        Time::from_integer(1_000_000),
    )
}

/// One route of a workload's route table, as the wire carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSpec {
    /// External link indices in travel order.
    pub links: Vec<u32>,
    /// Queueing points on the route (switch output ports crossed).
    pub hops: usize,
}

/// How a workload draws its routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMix {
    /// 7/8 local two-link routes (one queueing point), 1/8 cross-ring
    /// routes over 1–3 ring links — the `rtcac load` locality mix.
    Local,
    /// 11/20 local, 9/20 cross-ring over 1–3 ring links. The saturated
    /// workload needs this: a refusal past the first queueing point can
    /// only happen on a cross-ring route, so with 1/8 of them the
    /// rolled-back share of refusals could never reach its gate. The
    /// shares put the median SETUP among the local ones and the upper
    /// decile among the three-link ones, well inside both.
    Crossing,
    /// Every route crosses ring switch 0: 2/5 with 3 queueing points,
    /// 3/5 with 4.
    HotSwitch,
}

/// Builds a route between two terminals and counts its queueing points.
fn terminal_route(sr: &StarRing, src: (usize, usize), dst: (usize, usize)) -> RouteSpec {
    let route = sr
        .terminal_route(src, dst)
        .expect("generated terminals are in range and distinct");
    let hops = route
        .queueing_points(sr.topology())
        .expect("route is on its own topology")
        .len();
    RouteSpec {
        links: route.links().iter().map(|l| l.index() as u32).collect(),
        hops,
    }
}

/// A route over `distance` ring links (0: local) from a seeded source.
fn draw_route(sr: &StarRing, distance: usize, rng: &mut Rng) -> RouteSpec {
    let src = (rng.below(NODES), rng.below(TERMINALS));
    let dst = if distance == 0 {
        (src.0, (src.1 + 1 + rng.below(TERMINALS - 1)) % TERMINALS)
    } else {
        ((src.0 + distance) % NODES, rng.below(TERMINALS))
    };
    terminal_route(sr, src, dst)
}

/// A route over `span` ring links that crosses ring switch 0: it
/// enters the ring `before` switches ahead of switch 0 and leaves
/// `span - before` switches after it. `span + 1` queueing points.
fn hot_route(sr: &StarRing, span: usize, rng: &mut Rng) -> RouteSpec {
    let before = rng.below(span + 1);
    let src = ((NODES - before) % NODES, rng.below(TERMINALS));
    let dst = ((span - before) % NODES, rng.below(TERMINALS));
    terminal_route(sr, src, dst)
}

/// A table of `n` routes of one mix.
///
/// The *shares* of the mix are exact, not drawn: `n/8` cross-ring
/// routes of `n`, a third of them per ring distance, and so on. Where
/// the one-hop routes end and the longer ones begin decides where the
/// p50 and p90 of a latency fall, and a drawn share moved that edge
/// across them from seed to seed. The seed picks the endpoints.
pub fn route_table(sr: &StarRing, mix: RouteMix, n: usize, rng: &mut Rng) -> Vec<RouteSpec> {
    // Ring links crossed by the k-th of `count` non-local routes.
    let spread = |k: usize, choices: usize| 1 + k % choices;
    (0..n)
        .map(|k| match mix {
            RouteMix::Local if k < n / 8 => draw_route(sr, spread(k, 3), rng),
            RouteMix::Crossing if k < n * 9 / 20 => draw_route(sr, spread(k, 3), rng),
            RouteMix::Local | RouteMix::Crossing => draw_route(sr, 0, rng),
            RouteMix::HotSwitch if k < n * 2 / 5 => hot_route(sr, 2, rng),
            RouteMix::HotSwitch => hot_route(sr, 3, rng),
        })
        .collect()
}

/// One generated operation of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// SETUP over `route` (an index into the workload's route table)
    /// with the contract of `class`.
    Setup { route: u16, class: u8 },
    /// RELEASE of the connection the SETUP at stream index `of` asked
    /// for. Skipped at run time when that SETUP was refused.
    Release { of: u32 },
}

/// Generates one client's stream of `n` churn ops followed by the
/// releases that empty the client again, so replaying a whole stream
/// always leaves the fabric as it found it.
///
/// The churn is 50/50 SETUP/RELEASE with at most [`MAX_HELD`]
/// outstanding SETUPs. A stream is a pure function of `(seed, lane)`;
/// a shorter stream from the same pair is a prefix of a longer one up
/// to the closing releases.
pub fn stream(seed: u64, lane: u64, n: usize, routes: usize, classes: &[u8]) -> Vec<Op> {
    let mut rng = Rng::fork(seed, lane);
    let mut ops = Vec::with_capacity(n + MAX_HELD);
    let mut held: Vec<u32> = Vec::with_capacity(MAX_HELD);
    for _ in 0..n {
        let coin = rng.below(2);
        let setup = held.is_empty() || (held.len() < MAX_HELD && coin == 0);
        if setup {
            held.push(ops.len() as u32);
            ops.push(Op::Setup {
                route: rng.below(routes) as u16,
                class: classes[rng.below(classes.len())],
            });
        } else {
            let of = held.swap_remove(rng.below(held.len()));
            ops.push(Op::Release { of });
        }
    }
    held.sort_unstable();
    ops.extend(held.into_iter().map(|of| Op::Release { of }));
    ops
}

/// The bytes of a stream, for the identical-seed test and the digest
/// printed with every run.
pub fn stream_bytes(ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ops.len() * 5);
    for op in ops {
        match *op {
            Op::Setup { route, class } => {
                out.push(0);
                out.extend_from_slice(&route.to_be_bytes());
                out.push(class);
            }
            Op::Release { of } => {
                out.push(1);
                out.extend_from_slice(&of.to_be_bytes());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_net::builders::star_ring;

    fn all_classes() -> Vec<u8> {
        (0..CLASSES as u8).collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = stream_bytes(&stream(7, 1, 5000, 128, &all_classes()));
        let b = stream_bytes(&stream(7, 1, 5000, 128, &all_classes()));
        let c = stream_bytes(&stream(8, 1, 5000, 128, &all_classes()));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(rtcac_snap::fnv64(&a), rtcac_snap::fnv64(&c));
    }

    #[test]
    fn shorter_stream_is_a_prefix_of_the_churn() {
        let long = stream(3, 2, 4000, 64, &all_classes());
        let short = stream(3, 2, 2000, 64, &all_classes());
        assert_eq!(long[..2000], short[..2000]);
    }

    #[test]
    fn stream_releases_everything_it_sets_up_exactly_once() {
        let ops = stream(11, 0, 3000, 32, &all_classes());
        let mut open = std::collections::BTreeSet::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Setup { .. } => {
                    open.insert(i as u32);
                    assert!(open.len() <= MAX_HELD);
                }
                Op::Release { of } => {
                    assert!((of as usize) < i, "release refers to an earlier op");
                    assert!(open.remove(&of), "released twice or never set up");
                }
            }
        }
        assert!(open.is_empty());
    }

    #[test]
    fn churn_is_half_setups() {
        let ops = stream(5, 0, 20_000, 32, &all_classes());
        let setups = ops.iter().filter(|o| matches!(o, Op::Setup { .. })).count();
        let share = setups as f64 / ops.len() as f64;
        assert!((0.49..=0.51).contains(&share), "setup share {share}");
    }

    #[test]
    fn table_is_dyadic_and_has_thirty_two_distinct_valid_classes() {
        let mut seen = std::collections::BTreeSet::new();
        for class in 0..CLASSES as u8 {
            let c = contract(class);
            for r in [c.pcr(), c.scr()] {
                let den = r.as_ratio().denom();
                assert_eq!(r.as_ratio().numer(), 1);
                assert!(den > 0 && den & (den - 1) == 0, "class {class}: {den}");
                assert!(den <= 8192);
            }
            assert!((1..=14).contains(&c.mbs()));
            assert!(c.scr() <= c.pcr());
            // The worst-case envelope breaks at integer cell times only.
            for seg in c.worst_case_stream().segments() {
                assert!(seg.start.as_ratio().is_integer());
            }
            assert!(seen.insert(c));
        }
        for class in 0..LIGHT_CLASSES as u8 {
            let den = contract(class).pcr().as_ratio().denom();
            assert!((64..=512).contains(&den));
            assert!(matches!(contract(class), TrafficContract::Cbr(_)));
        }
    }

    #[test]
    fn local_mix_is_seven_eighths_one_hop() {
        let sr = star_ring(NODES, TERMINALS).unwrap();
        let mut rng = Rng::new(1);
        let table = route_table(&sr, RouteMix::Local, 256, &mut rng);
        let with_hops = |h| table.iter().filter(|r| r.hops == h).count();
        assert_eq!(with_hops(1), 224, "exactly 7/8 local");
        assert_eq!((with_hops(2), with_hops(3), with_hops(4)), (11, 11, 10));
        let crossing = route_table(&sr, RouteMix::Crossing, 256, &mut rng);
        assert_eq!(crossing.iter().filter(|r| r.hops == 1).count(), 141);
        assert!(table
            .iter()
            .filter(|r| r.hops == 1)
            .all(|r| r.links.len() == 2));
    }

    #[test]
    fn hot_switch_routes_all_cross_switch_zero_in_three_or_four_hops() {
        let sr = star_ring(NODES, TERMINALS).unwrap();
        let zero = sr.ring_nodes()[0];
        let mut rng = Rng::new(9);
        let table = route_table(&sr, RouteMix::HotSwitch, 2000, &mut rng);
        assert_eq!(table.iter().filter(|r| r.hops == 3).count(), 800);
        for r in table {
            assert!((3..=4).contains(&r.hops), "{} hops", r.hops);
            let route = rtcac_net::Route::new(
                sr.topology(),
                r.links.iter().map(|&l| rtcac_net::LinkId::external(l)),
            )
            .unwrap();
            let points = route.queueing_points(sr.topology()).unwrap();
            assert!(points.iter().any(|&(node, _)| node == zero));
        }
    }
}

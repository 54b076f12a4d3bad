//! `Switch::check` prices with the swept Algorithm 4.1 over port-keyed
//! tables; this rebuilds every decision from §4.3's definitions and the
//! *reference* Algorithm 4.1 — the pre-sweep body `rtcac-bitstream`
//! keeps for its own differential suite, included here by path — and
//! requires the two to agree bound for bound: once over a restored,
//! loaded port, and once after every step of a seeded admit/release
//! churn over three ports and three priorities with multicast legs.
//!
//! `RTCAC_TEST_SEED=<u64>` replays the churn; every failure names it.

use std::collections::{BTreeMap, BTreeSet};

use rtcac_bitstream::{BitStream, CbrParams, Cells, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{
    AdmissionDecision, ConnectionId, ConnectionRequest, Priority, RejectReason, Switch,
    SwitchConfig,
};
use rtcac_net::LinkId;
use rtcac_rational::{ratio, Ratio};

#[path = "../../bitstream/src/cumulative/reference.rs"]
mod reference;

const OUT: LinkId = LinkId::external(100);
const IN_LINKS: u64 = 8;
const BOUNDS: [i128; 3] = [256, 640, 2048];

/// A multiple of every sustained-rate denominator drawn below, so every
/// in-link load is a multiple of `1/SCR_GRID`.
const SCR_GRID: i128 = 15_360;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

fn seed() -> u64 {
    match std::env::var("RTCAC_TEST_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("RTCAC_TEST_SEED={s:?} is not a u64")),
        Err(_) => 0xC4_EC4,
    }
}

/// A VBR leg at `2^-pcr_log2` peak and `1/scr_den` sustained rate.
/// Denominators stay on a small common grid: 99 coprime ones would
/// overflow `i128` in the aggregate (ROADMAP item 2), which is not what
/// this test is about.
fn request(
    rng: &mut SplitMix64,
    pcr_log2: u64,
    scr_den: u64,
    in_link: u64,
    out: LinkId,
) -> ConnectionRequest {
    let params = VbrParams::new(
        Rate::new(ratio(1, 1 << pcr_log2)),
        Rate::new(ratio(1, i128::from(scr_den))),
        rng.range(1, 8),
    )
    .unwrap();
    ConnectionRequest::new(
        TrafficContract::vbr(params),
        Time::from_integer(i128::from(rng.range(0, 64))),
        LinkId::external(in_link as u32),
        out,
        Priority::new([0, 0, 0, 0, 0, 1, 1, 1, 1, 2][rng.range(0, 9) as usize]),
    )
}

/// A candidate: mostly light legs a port still takes, every fourth
/// heavy enough to break a bound or a link. In-link 8 is a fresh one.
fn candidate(rng: &mut SplitMix64, case: usize, out: LinkId) -> ConnectionRequest {
    let (pcr, scr) = match case % 4 {
        3 => {
            let pcr = rng.range(0, 1);
            (pcr, rng.range(1, 2) << pcr)
        }
        _ => (
            rng.range(2, 5),
            [256, 384, 640, 1024, 1920][rng.range(0, 4) as usize],
        ),
    };
    let in_link = rng.range(0, IN_LINKS);
    request(rng, pcr, scr, in_link, out)
}

/// `Σ sₖ` as a chain of pairwise multiplexes (Algorithm 3.2), not the
/// one-pass merge the switch sums with.
fn sum<'a>(streams: impl IntoIterator<Item = &'a BitStream>) -> BitStream {
    streams
        .into_iter()
        .fold(BitStream::zero(), |acc, s| acc.multiplex(s))
}

/// §4.3's `Sia` table, rebuilt from the legs with nothing but the
/// public stream algebra.
struct Model(BTreeMap<(LinkId, LinkId, Priority), BitStream>);

#[derive(Debug)]
enum Expected {
    Admitted(Vec<(Priority, Time)>),
    Rejected(RejectReason),
}

impl Model {
    fn new<'a>(legs: impl IntoIterator<Item = &'a ConnectionRequest>) -> Model {
        let mut sia: BTreeMap<(LinkId, LinkId, Priority), BitStream> = BTreeMap::new();
        for leg in legs {
            let entry = sia
                .entry((leg.in_link(), leg.out_link(), leg.priority()))
                .or_insert_with(BitStream::zero);
            *entry = entry.multiplex(&leg.arrival_stream());
        }
        Model(sia)
    }

    /// The long-run rate crossing in-link `i`, over every port and level.
    fn crossing(&self, i: LinkId) -> Rate {
        self.0
            .iter()
            .filter(|(&(ki, _, _), _)| ki == i)
            .map(|(_, sia)| sia.long_run_rate())
            .sum()
    }

    /// `Soa(j,p) = Σᵢ filter(Sia(i,j,p))`, without in-link `skip`.
    fn output_aggregate(&self, j: LinkId, p: Priority, skip: Option<LinkId>) -> BitStream {
        let filtered: Vec<BitStream> = self
            .0
            .iter()
            .filter(|(&(i, kj, kp), _)| kj == j && kp == p && Some(i) != skip)
            .map(|(_, s)| s.filter())
            .collect();
        sum(&filtered)
    }

    /// `Sof(j)(p) = filter(Σᵢ filter(Σ_{p' ≻ p} Sia(i,j,p')))`, with the
    /// candidate's stream injected at its in-link.
    fn interference(
        &self,
        j: LinkId,
        p: Priority,
        extra: Option<(LinkId, &BitStream)>,
    ) -> BitStream {
        let mut links: BTreeSet<LinkId> = self
            .0
            .keys()
            .filter(|&&(_, kj, _)| kj == j)
            .map(|&(i, _, _)| i)
            .collect();
        links.extend(extra.map(|(i, _)| i));
        let per_link: Vec<BitStream> = links
            .into_iter()
            .map(|i| {
                let higher = self
                    .0
                    .iter()
                    .filter(|(&(ki, kj, kp), _)| ki == i && kj == j && kp.outranks(p))
                    .map(|(_, s)| s);
                let injected = extra.filter(|&(ei, _)| ei == i).map(|(_, s)| s);
                sum(higher.chain(injected)).filter()
            })
            .collect();
        sum(&per_link).filter()
    }

    /// Steps 1–6 of §4.3 with the reference Algorithm 4.1.
    fn check(&self, request: &ConnectionRequest) -> Expected {
        let (i, j, p) = (request.in_link(), request.out_link(), request.priority());
        let s = request.arrival_stream();
        if self.crossing(i) + s.long_run_rate() > Rate::FULL {
            return Expected::Rejected(RejectReason::IncomingOverload {
                in_link: i,
                priority: p,
            });
        }
        let sia_new = self
            .0
            .get(&(i, j, p))
            .map_or(s.clone(), |sia| sia.multiplex(&s));
        let soa_new = self
            .output_aggregate(j, p, Some(i))
            .multiplex(&sia_new.filter());
        let mut levels = vec![(p, soa_new, self.interference(j, p, None))];
        for (level, _) in BOUNDS.iter().enumerate() {
            let p1 = Priority::new(level as u8);
            if p.outranks(p1) {
                let soa1 = self.output_aggregate(j, p1, None);
                levels.push((p1, soa1, self.interference(j, p1, Some((i, &s)))));
            }
        }
        let mut bounds = Vec::new();
        for (p1, soa, sof) in levels {
            if p1 != p && soa.is_zero() {
                bounds.push((p1, Time::ZERO));
                continue;
            }
            let advertised = Time::from_integer(BOUNDS[usize::from(p1.level())]);
            match reference::delay_bound(&soa, &sof) {
                Some(d) if d <= advertised => bounds.push((p1, d)),
                Some(d) => {
                    return Expected::Rejected(RejectReason::BoundExceeded {
                        out_link: j,
                        priority: p1,
                        computed: d,
                        advertised,
                    })
                }
                None => {
                    return Expected::Rejected(RejectReason::Overload {
                        out_link: j,
                        priority: p1,
                    })
                }
            }
        }
        Expected::Admitted(bounds)
    }
}

/// Asserts the switch decides `candidate` as the model does, and
/// returns that decision.
fn agree(
    switch: &Switch,
    model: &Model,
    candidate: &ConnectionRequest,
    ctx: &str,
) -> AdmissionDecision {
    let got = switch
        .check(candidate)
        .unwrap_or_else(|e| panic!("{ctx}: {candidate:?} errored: {e}"));
    match (model.check(candidate), &got) {
        (Expected::Admitted(bounds), AdmissionDecision::Admitted(report)) => {
            assert_eq!(report.out_link(), candidate.out_link(), "{ctx}");
            assert_eq!(report.bounds(), &bounds[..], "{ctx}: {candidate:?}");
        }
        (Expected::Rejected(want), AdmissionDecision::Rejected(reason)) => {
            assert_eq!(*reason, want, "{ctx}: {candidate:?}");
        }
        (want, got) => panic!("{ctx}: {candidate:?} decided {got:?}, model {want:?}"),
    }
    got
}

/// The non-zero bounds an admission reports.
fn delayed(decision: &AdmissionDecision) -> usize {
    match decision {
        AdmissionDecision::Admitted(report) => report
            .bounds()
            .iter()
            .filter(|(_, d)| d.is_positive())
            .count(),
        AdmissionDecision::Rejected(_) => 0,
    }
}

fn config() -> SwitchConfig {
    SwitchConfig::with_bounds(BOUNDS.map(Time::from_integer)).unwrap()
}

#[test]
fn check_over_a_restored_switch_matches_the_reference_algorithm() {
    let mut rng = SplitMix64(99);
    let legs: Vec<ConnectionRequest> = (0..99)
        .map(|_| {
            let (pcr, scr) = (
                rng.range(0, 3),
                [256, 320, 384, 512][rng.range(0, 3) as usize],
            );
            let in_link = rng.range(0, IN_LINKS - 1);
            request(&mut rng, pcr, scr, in_link, OUT)
        })
        .collect();
    let switch = Switch::restore(
        config(),
        7,
        legs.iter()
            .enumerate()
            .map(|(k, leg)| (ConnectionId::new(k as u64), *leg)),
    )
    .unwrap();
    assert_eq!(switch.connection_count(), 99);
    let model = Model::new(&legs);

    let (mut admitted, mut rejected, mut positive) = (0, 0, 0);
    for case in 0..120 {
        let candidate = candidate(&mut rng, case, OUT);
        let decision = agree(&switch, &model, &candidate, &format!("case {case}"));
        if decision.is_admitted() {
            admitted += 1;
        } else {
            rejected += 1;
        }
        positive += delayed(&decision);
    }
    assert!(admitted >= 40 && rejected >= 10, "{admitted} / {rejected}");
    assert!(positive >= 80, "only {positive} non-zero bounds compared");
}

/// A CBR probe at exactly `rate` with no upstream jitter.
fn cbr_probe(rate: Ratio, in_link: LinkId, out: LinkId, p: Priority) -> ConnectionRequest {
    let contract = TrafficContract::cbr(CbrParams::new(Rate::new(rate)).unwrap());
    ConnectionRequest::new(contract, Time::ZERO, in_link, out, p)
}

#[test]
fn check_under_churn_matches_the_reference_algorithm() {
    let seed = seed();
    let mut rng = SplitMix64(seed);
    let outs = [100, 101, 102].map(LinkId::external);
    let mut switch = Switch::new(config());
    // The test's own ledger of what it admitted, by connection.
    let mut live: BTreeMap<ConnectionId, Vec<ConnectionRequest>> = BTreeMap::new();
    let (mut next_id, mut multicast, mut refused, mut releases) = (0u64, 0, 0, 0);
    let (mut probes_admitted, mut positive, mut edges) = (0, 0, 0);
    for step in 0..2_000 {
        let ctx = format!("RTCAC_TEST_SEED={seed} step {step}");
        let grow = live.len() < 8 || rng.range(0, 9) < if live.len() < 40 { 6 } else { 3 };
        if grow {
            // One connection: a unicast leg, or one multicast id
            // branching from one in-link to two or three ports.
            let id = ConnectionId::new(next_id);
            next_id += 1;
            let branches = if rng.range(0, 3) == 0 {
                rng.range(2, 3) as usize
            } else {
                1
            };
            let first = rng.range(0, 2) as usize;
            let template = candidate(&mut rng, step, OUT);
            let mut legs = Vec::new();
            for b in 0..branches {
                let leg = ConnectionRequest::new(
                    template.contract(),
                    template.cdv(),
                    template.in_link(),
                    outs[(first + b) % outs.len()],
                    template.priority(),
                );
                let decision = switch
                    .admit(id, leg)
                    .unwrap_or_else(|e| panic!("{ctx}: admit {leg:?}: {e}"));
                if !decision.is_admitted() {
                    if !legs.is_empty() {
                        switch
                            .release(id)
                            .unwrap_or_else(|e| panic!("{ctx}: roll back {id}: {e}"));
                    }
                    legs.clear();
                    refused += 1;
                    break;
                }
                legs.push(leg);
            }
            if !legs.is_empty() {
                multicast += usize::from(legs.len() > 1);
                legs.sort_by_key(|leg| leg.out_link());
                live.insert(id, legs);
            }
        } else {
            let k = rng.range(0, live.len() as u64 - 1) as usize;
            let id = *live.keys().nth(k).unwrap();
            let legs = live.remove(&id).unwrap();
            let released = switch
                .release(id)
                .unwrap_or_else(|e| panic!("{ctx}: release {id}: {e}"));
            assert_eq!(released, legs, "{ctx}: release {id}");
            releases += 1;
        }

        // The switch holds exactly the ledger.
        let held: Vec<(ConnectionId, ConnectionRequest)> = switch.connections().collect();
        let ledger: Vec<(ConnectionId, ConnectionRequest)> = live
            .iter()
            .flat_map(|(&id, legs)| legs.iter().map(move |leg| (id, *leg)))
            .collect();
        assert_eq!(held, ledger, "{ctx}");
        let model = Model::new(live.values().flatten());

        // Two random probes against the model.
        for probe in 0..2 {
            let out = outs[rng.range(0, 2) as usize];
            let candidate = candidate(&mut rng, 2 * step + probe, out);
            let decision = agree(&switch, &model, &candidate, &ctx);
            probes_admitted += usize::from(decision.is_admitted());
            positive += delayed(&decision);
        }

        // The in-link load the switch checks against is exactly the one
        // recomputed from `connections()`: a probe filling the in-link
        // to the brim passes that check, and one half a grid step over
        // is refused by it.
        let pick = rng.range(0, held.len().max(1) as u64 - 1) as usize;
        let i = held
            .get(pick)
            .map_or(LinkId::external(0), |(_, leg)| leg.in_link());
        let load: Rate = held
            .iter()
            .filter(|(_, leg)| leg.in_link() == i)
            .map(|(_, leg)| leg.contract().sustained_rate())
            .sum();
        assert_eq!(load, model.crossing(i), "{ctx}: in-link {i}");
        let out = outs[rng.range(0, 2) as usize];
        let p = Priority::new(rng.range(0, 2) as u8);
        let room = Ratio::ONE - load.as_ratio();
        let over = room + ratio(1, 2 * SCR_GRID);
        for (rate, refused_here) in [(room, false), (over, true)] {
            if !rate.is_positive() || rate > Ratio::ONE {
                continue;
            }
            let probe = cbr_probe(rate, i, out, p);
            let incoming = matches!(
                agree(&switch, &model, &probe, &ctx),
                AdmissionDecision::Rejected(RejectReason::IncomingOverload { .. })
            );
            assert_eq!(incoming, refused_here, "{ctx}: in-link {i} at {rate}");
            edges += 1;
        }

        // Every port's committed bounds are those of a from-scratch
        // rebuild of the same connections.
        let restored = Switch::restore(config(), switch.epoch(), switch.connections())
            .unwrap_or_else(|e| panic!("{ctx}: restore: {e}"));
        for j in switch.active_out_links() {
            for level in 0..BOUNDS.len() as u8 {
                let p = Priority::new(level);
                assert_eq!(
                    switch.computed_bound(j, p).ok(),
                    restored.computed_bound(j, p).ok(),
                    "{ctx}: port {j} {p}"
                );
            }
        }
    }
    let ctx = format!("RTCAC_TEST_SEED={seed}");
    assert!(multicast >= 100, "{ctx}: only {multicast} multicast ids");
    assert!(refused >= 100, "{ctx}: only {refused} refused admissions");
    assert!(releases >= 500, "{ctx}: only {releases} releases");
    assert!(probes_admitted >= 1_000, "{ctx}: {probes_admitted} probes");
    assert!(
        positive >= 1_000,
        "{ctx}: {positive} non-zero bounds compared"
    );
    assert!(edges >= 2_000, "{ctx}: {edges} in-link edge probes");
}

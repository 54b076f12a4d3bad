//! `Switch::check` prices with the swept Algorithm 4.1; this rebuilds
//! every decision of a loaded switch from §4.3's definitions and the
//! *reference* Algorithm 4.1 — the pre-sweep body `rtcac-bitstream`
//! keeps for its own differential suite, included here by path — and
//! requires the two to agree bound for bound.

use std::collections::{BTreeMap, BTreeSet};

use rtcac_bitstream::{BitStream, Cells, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{
    AdmissionDecision, ConnectionId, ConnectionRequest, Priority, RejectReason, Switch,
    SwitchConfig,
};
use rtcac_net::LinkId;
use rtcac_rational::{ratio, Ratio};

#[path = "../../bitstream/src/cumulative/reference.rs"]
mod reference;

const OUT: u32 = 100;
const IN_LINKS: u64 = 8;
const BOUNDS: [i128; 3] = [256, 640, 2048];

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

/// A VBR leg at `2^-pcr_log2` peak and `1/scr_den` sustained rate.
/// Denominators stay on a small common grid: 99 coprime ones would
/// overflow `i128` in the aggregate (ROADMAP item 2), which is not what
/// this test is about.
fn request(rng: &mut SplitMix64, pcr_log2: u64, scr_den: u64, in_link: u64) -> ConnectionRequest {
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
        LinkId::external(OUT),
        Priority::new([0, 0, 0, 0, 0, 1, 1, 1, 1, 2][rng.range(0, 9) as usize]),
    )
}

/// §4.3's `Sia` table, rebuilt from the legs with nothing but the
/// public stream algebra.
struct Model(BTreeMap<(LinkId, Priority), BitStream>);

enum Expected {
    Admitted(Vec<(Priority, Time)>),
    Rejected(RejectReason),
}

impl Model {
    fn new(legs: &[ConnectionRequest]) -> Model {
        let mut sia: BTreeMap<(LinkId, Priority), BitStream> = BTreeMap::new();
        for leg in legs {
            let entry = sia
                .entry((leg.in_link(), leg.priority()))
                .or_insert_with(BitStream::zero);
            *entry = entry.multiplex(&leg.arrival_stream());
        }
        Model(sia)
    }

    fn in_links(&self) -> BTreeSet<LinkId> {
        self.0.keys().map(|&(i, _)| i).collect()
    }

    /// `Soa(j,p) = Σᵢ filter(Sia(i,j,p))`, without in-link `skip`.
    fn output_aggregate(&self, p: Priority, skip: Option<LinkId>) -> BitStream {
        let filtered: Vec<BitStream> = self
            .0
            .iter()
            .filter(|(&(i, kp), _)| kp == p && Some(i) != skip)
            .map(|(_, s)| s.filter())
            .collect();
        BitStream::multiplex_all(&filtered)
    }

    /// `Sof(j)(p) = filter(Σᵢ filter(Σ_{p' ≻ p} Sia(i,j,p')))`, with the
    /// candidate's stream injected at its in-link.
    fn interference(&self, p: Priority, extra: Option<(LinkId, &BitStream)>) -> BitStream {
        let mut links = self.in_links();
        links.extend(extra.map(|(i, _)| i));
        let per_link: Vec<BitStream> = links
            .into_iter()
            .map(|i| {
                let higher = self
                    .0
                    .iter()
                    .filter(|(&(ki, kp), _)| ki == i && kp.outranks(p))
                    .map(|(_, s)| s);
                let injected = extra.filter(|&(ei, _)| ei == i).map(|(_, s)| s);
                BitStream::multiplex_all(higher.chain(injected)).filter()
            })
            .collect();
        BitStream::multiplex_all(&per_link).filter()
    }

    /// Steps 1–6 of §4.3 with the reference Algorithm 4.1.
    fn check(&self, request: &ConnectionRequest) -> Expected {
        let (i, j, p) = (request.in_link(), request.out_link(), request.priority());
        let s = request.arrival_stream();
        let crossing: Rate = self
            .0
            .iter()
            .filter(|(&(ki, _), _)| ki == i)
            .map(|(_, sia)| sia.long_run_rate())
            .sum();
        if crossing + s.long_run_rate() > Rate::FULL {
            return Expected::Rejected(RejectReason::IncomingOverload {
                in_link: i,
                priority: p,
            });
        }
        let sia_new = self
            .0
            .get(&(i, p))
            .map_or(s.clone(), |sia| sia.multiplex(&s));
        let soa_new = self
            .output_aggregate(p, Some(i))
            .multiplex(&sia_new.filter());
        let mut levels = vec![(p, soa_new, self.interference(p, None))];
        for (level, _) in BOUNDS.iter().enumerate() {
            let p1 = Priority::new(level as u8);
            if p.outranks(p1) {
                let soa1 = self.output_aggregate(p1, None);
                levels.push((p1, soa1, self.interference(p1, Some((i, &s)))));
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
            request(&mut rng, pcr, scr, in_link)
        })
        .collect();
    let config = SwitchConfig::with_bounds(BOUNDS.map(Time::from_integer)).unwrap();
    let switch = Switch::restore(
        config,
        7,
        legs.iter()
            .enumerate()
            .map(|(k, leg)| (ConnectionId::new(k as u64), *leg)),
    )
    .unwrap();
    assert_eq!(switch.connection_count(), 99);
    let model = Model::new(&legs);

    let (mut admitted, mut rejected, mut delayed) = (0, 0, 0);
    for case in 0..120 {
        // Mostly light candidates the port still takes, some heavy
        // enough to break a bound or a link; in-link 8 is a fresh one.
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
        let candidate = request(&mut rng, pcr, scr, in_link);
        let got = switch.check(&candidate).unwrap();
        match (model.check(&candidate), &got) {
            (Expected::Admitted(bounds), AdmissionDecision::Admitted(report)) => {
                assert_eq!(report.out_link(), candidate.out_link());
                assert_eq!(report.bounds(), &bounds[..], "case {case}: {candidate:?}");
                admitted += 1;
                delayed += bounds.iter().filter(|(_, d)| d.is_positive()).count();
            }
            (Expected::Rejected(want), AdmissionDecision::Rejected(reason)) => {
                assert_eq!(*reason, want, "case {case}: {candidate:?}");
                rejected += 1;
            }
            (_, got) => panic!("case {case}: {candidate:?} decided {got:?}"),
        }
    }
    assert!(admitted >= 40 && rejected >= 10, "{admitted} / {rejected}");
    assert!(delayed >= 80, "only {delayed} non-zero bounds compared");
}

//! Rollback exactness: a setup refused at the *last* hop of a
//! multi-shard route must leave every earlier shard observationally
//! identical to its pre-reserve state — same mutation counter (epoch),
//! same connection count, same computed bounds.

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
use rtcac_cac::{Priority, SwitchConfig};
use rtcac_engine::{AdmissionEngine, EngineOutcome};
use rtcac_net::builders;
use rtcac_rational::ratio;
use rtcac_signaling::{CdvPolicy, SetupRejection, SetupRequest};

fn cbr(num: i128, den: i128) -> TrafficContract {
    TrafficContract::cbr(CbrParams::new(Rate::new(ratio(num, den))).unwrap())
}

#[test]
fn last_hop_rejection_leaves_earlier_shards_bit_identical() {
    let sr = builders::star_ring(4, 2).unwrap();
    let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
    let engine = AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard);

    // Saturate the destination terminal's downlink with local traffic
    // so the cross setup's LAST hop is the one that refuses.
    for _ in 0..2 {
        let local = sr.terminal_route((1, 1), (1, 0)).unwrap();
        let req = SetupRequest::new(cbr(2, 5), Priority::HIGHEST, Time::from_integer(500));
        assert!(engine.admit(&local, req).unwrap().is_admitted());
    }

    let cross = sr.terminal_route((0, 0), (1, 0)).unwrap();
    let points = cross.queueing_points(engine.topology()).unwrap();
    assert!(points.len() >= 2, "route must span multiple shards");
    let (last_node, _) = *points.last().unwrap();
    let earlier = &points[..points.len() - 1];

    // Snapshot every earlier shard: epoch, connection count, and the
    // computed bound at the route's queueing point.
    let pre: Vec<_> = earlier
        .iter()
        .map(|&(node, link)| {
            (
                node,
                link,
                engine.shard_epoch(node).unwrap(),
                engine.shard_connection_count(node).unwrap(),
                engine
                    .computed_bound(node, link, Priority::HIGHEST)
                    .unwrap(),
            )
        })
        .collect();

    let req = SetupRequest::new(cbr(2, 5), Priority::HIGHEST, Time::from_integer(500));
    match engine.admit(&cross, req).unwrap() {
        EngineOutcome::Rejected {
            rejection:
                SetupRejection::Switch {
                    at,
                    hops_rolled_back,
                    ..
                },
            ..
        } => {
            assert_eq!(at, last_node, "the rejection must come from the last hop");
            assert_eq!(hops_rolled_back, earlier.len());
        }
        other => panic!("expected a last-hop rejection, got {other:?}"),
    }

    for (node, link, epoch, count, bound) in pre {
        assert_eq!(
            engine.shard_epoch(node).unwrap(),
            epoch,
            "epoch must rewind to the pre-reserve value at {node}"
        );
        assert_eq!(engine.shard_connection_count(node).unwrap(), count);
        assert_eq!(
            engine
                .computed_bound(node, link, Priority::HIGHEST)
                .unwrap(),
            bound,
            "the recomputed bound at {node} must match the pre-reserve one"
        );
    }
    assert!(engine.orphaned_reservations().is_empty());
    let stats = engine.stats();
    assert_eq!((stats.admitted, stats.aborted), (2, 1));
    assert_eq!(
        stats.submitted,
        stats.admitted + stats.rejected + stats.aborted + stats.errored + stats.rerouted
    );
}

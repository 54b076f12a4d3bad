//! Byte-stability pins: the FNV-1a 64 and length of a fixed, populated
//! snapshot at every writable format version. A codec refactor that
//! moves a single byte fails here; a deliberate format change bumps the
//! version and adds a pin instead of editing one.

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{ConnectionId, ConnectionRequest, Priority, SwitchConfig};
use rtcac_engine::{ConnectionState, EngineState, EngineStats, HealthOverlayState, SwitchState};
use rtcac_net::{LinkId, NodeId};
use rtcac_rational::ratio;
use rtcac_signaling::CdvPolicy;
use rtcac_snap::{decode, encode, encode_with_version, fnv64, SnapMeta, SnapshotDoc, TopologySpec};

fn cbr(den: i128) -> TrafficContract {
    TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, den))).unwrap())
}

fn leg(contract: TrafficContract, cdv: Time, from: u32, to: u32, p: u8) -> ConnectionRequest {
    ConnectionRequest::new(
        contract,
        cdv,
        LinkId::external(from),
        LinkId::external(to),
        Priority::new(p),
    )
}

/// Every field of every section populated; two legs of one shard share
/// a `(contract, CDV)` pair so version 2's dedup table is exercised.
fn pinned_doc() -> SnapshotDoc {
    let vbr = TrafficContract::vbr(
        VbrParams::new(Rate::new(ratio(1, 4)), Rate::new(ratio(1, 16)), 5).unwrap(),
    );
    let config = SwitchConfig::with_bounds([Time::from_integer(32), Time::from_integer(128)])
        .unwrap()
        .with_quantization(1 << 20)
        .unwrap();
    let half = Time::new(ratio(1, 2));
    SnapshotDoc {
        meta: SnapMeta {
            origin: "byte-pin".into(),
        },
        topology: TopologySpec {
            nodes: vec![
                (true, "s0".into()),
                (true, "s1".into()),
                (false, "h0".into()),
                (false, "h1".into()),
            ],
            links: vec![
                (2, 0, ratio(1, 1)),
                (0, 1, ratio(1, 1)),
                (1, 3, ratio(3, 4)),
                (1, 0, ratio(1, 1)),
            ],
        },
        state: EngineState {
            policy: CdvPolicy::SoftSqrt,
            reroute_budget: 3,
            next_id: 42,
            draining: true,
            health: HealthOverlayState {
                down_links: vec![LinkId::external(3)],
                down_nodes: vec![NodeId::external(3)],
                epoch: 7,
            },
            switches: vec![
                SwitchState {
                    node: NodeId::external(0),
                    config: config.clone(),
                    epoch: 5,
                    legs: vec![
                        (ConnectionId::new(1), leg(cbr(8), Time::ZERO, 0, 1, 0)),
                        (ConnectionId::new(2), leg(vbr, half, 0, 1, 1)),
                        (ConnectionId::new(3), leg(cbr(8), Time::ZERO, 0, 1, 0)),
                    ],
                },
                SwitchState {
                    node: NodeId::external(1),
                    config: SwitchConfig::uniform(1, Time::from_integer(64)).unwrap(),
                    epoch: 2,
                    legs: vec![(ConnectionId::new(1), leg(cbr(8), half, 1, 2, 0))],
                },
            ],
            connections: vec![
                ConnectionState {
                    id: ConnectionId::new(1),
                    multicast: false,
                    links: vec![
                        LinkId::external(0),
                        LinkId::external(1),
                        LinkId::external(2),
                    ],
                    points: vec![
                        (NodeId::external(0), LinkId::external(1)),
                        (NodeId::external(1), LinkId::external(2)),
                    ],
                    priority: Priority::new(0),
                    delay_bound: Time::from_integer(1000),
                    guaranteed_delay: Time::new(ratio(97, 3)),
                    per_leaf: vec![],
                },
                ConnectionState {
                    id: ConnectionId::new(2),
                    multicast: true,
                    links: vec![LinkId::external(0), LinkId::external(1)],
                    points: vec![(NodeId::external(0), LinkId::external(1))],
                    priority: Priority::new(1),
                    delay_bound: Time::from_integer(500),
                    guaranteed_delay: Time::from_integer(128),
                    per_leaf: vec![(NodeId::external(3), Time::new(ratio(257, 2)))],
                },
            ],
            counters: EngineStats {
                submitted: 11,
                admitted: 7,
                rejected: 2,
                aborted: 1,
                errored: 0,
                rerouted: 1,
                released: 4,
                failed_over: 1,
                mcast_submitted: 3,
                mcast_admitted: 2,
                mcast_rejected: 1,
            },
        },
    }
}

#[test]
fn snapshot_v2_bytes_are_pinned() {
    let doc = pinned_doc();
    let bytes = encode(&doc);
    assert_eq!(bytes, encode_with_version(&doc, 2).unwrap());
    assert_eq!(
        (bytes.len(), fnv64(&bytes)),
        (1238, 4_285_273_493_521_250_006),
        "v2 snapshot bytes moved"
    );
    assert_eq!(decode(&bytes).unwrap(), doc);
}

#[test]
fn snapshot_v1_bytes_are_pinned() {
    let doc = pinned_doc();
    let bytes = encode_with_version(&doc, 1).unwrap();
    assert_eq!(
        (bytes.len(), fnv64(&bytes)),
        (1279, 7_724_191_814_801_045_822),
        "v1 snapshot bytes moved"
    );
    assert_eq!(decode(&bytes).unwrap(), doc);
}

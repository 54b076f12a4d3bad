//! Byte-stability pins: the FNV-1a 64 and length of one encoded frame
//! payload of every request and response kind. A codec refactor that
//! moves a single byte of any frame fails here.

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::Priority;
use rtcac_rational::ratio;
use rtcac_serve::proto::{ErrorCode, Request, Response};
use rtcac_signaling::SetupRequest;
use rtcac_snap::fnv64;

fn pin(payload: &[u8]) -> (usize, u64) {
    (payload.len(), fnv64(payload))
}

#[test]
fn request_frames_are_pinned() {
    let cbr = SetupRequest::new(
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 8))).unwrap()),
        Priority::new(1),
        Time::from_integer(100),
    );
    let vbr = SetupRequest::new(
        TrafficContract::vbr(
            VbrParams::new(Rate::new(ratio(1, 4)), Rate::new(ratio(1, 16)), 5).unwrap(),
        ),
        Priority::new(0),
        Time::new(ratio(1001, 3)),
    );
    let frames = [
        Request::Hello,
        Request::Setup {
            links: vec![4, 0, 17],
            request: cbr,
        },
        Request::SetupMcast {
            links: vec![1, 2, 3, 9],
            request: vbr,
        },
        Request::Release { id: 77 },
        Request::Query { id: u64::MAX },
        Request::Drain,
        Request::Stats,
        Request::Dump,
    ];
    let got: Vec<(usize, u64)> = frames.iter().map(|f| pin(&f.encode())).collect();
    let want: [(usize, u64); 8] = [
        (2, 0x082f2307b4e88e77),
        (84, 0x243456b925f06585),
        (128, 0x14cdb5e1781c1dcf),
        (10, 0x0384ce524b3b5c9f),
        (10, 0x5aa5e03170392383),
        (2, 0x082f2007b4e8895e),
        (2, 0x082f2107b4e88b11),
        (2, 0x082f1a07b4e87f2c),
    ];
    assert_eq!(got, want, "request frame bytes moved");
    for f in &frames {
        assert_eq!(&Request::decode(&f.encode()).unwrap(), f);
    }
}

#[test]
fn response_frames_are_pinned() {
    let frames = [
        Response::ServerInfo {
            nodes: 16,
            terminals: 2,
            levels: 3,
            bound: Time::from_integer(64),
        },
        Response::Admitted {
            id: 5,
            guaranteed_delay: Time::new(ratio(97, 3)),
            attempts: 1,
        },
        Response::Rejected {
            id: 6,
            code: 2,
            detail: "switch n3 refused: bound 64 < 70".into(),
        },
        Response::Released { id: 5 },
        Response::QueryResult {
            found: true,
            guaranteed_delay: Time::from_integer(12),
        },
        Response::Draining { active: 3 },
        Response::StatsReply {
            active: 3,
            admitted: 10,
            rejected: 2,
            released: 7,
            orphans: 0,
            draining: true,
        },
        Response::Dumped {
            path: "flight/flight-0000-wire.rtfr".into(),
            dumps: 1,
        },
        Response::Error {
            code: ErrorCode::NotOwner,
            message: "connection vc5 belongs to another session".into(),
        },
    ];
    let got: Vec<(usize, u64)> = frames.iter().map(|f| pin(&f.encode())).collect();
    let want: [(usize, u64); 9] = [
        (43, 0xa58e69982310793d),
        (46, 0x98c44ba823a29d08),
        (47, 0xba5eb4e91afb5871),
        (10, 0xb8af451c98b606f7),
        (35, 0x81e4332bd627f145),
        (10, 0xdf83e9d7c1ebe8eb),
        (43, 0xaca91ac909d75f8c),
        (42, 0x943e22adb926dbd1),
        (48, 0xcbf674ee9b8f714d),
    ];
    assert_eq!(got, want, "response frame bytes moved");
    for f in &frames {
        assert_eq!(&Response::decode(&f.encode()).unwrap(), f);
    }
}

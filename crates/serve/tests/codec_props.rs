//! Codec property tests: seeded round-trips for every frame kind, and
//! a fuzz loop proving the decoder refuses arbitrary bytes with typed
//! errors — never a panic, never an attacker-sized allocation.

use std::io::Cursor;

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::Priority;
use rtcac_net::SimRng;
use rtcac_rational::ratio;
use rtcac_serve::proto::{frame_type, ErrorCode, Request, Response};
use rtcac_serve::wire::{read_frame, write_frame, WireError, MAX_PAYLOAD, PROTO_VERSION};
use rtcac_signaling::SetupRequest;

fn random_time(rng: &mut SimRng) -> Time {
    Time::new(ratio(
        rng.gen_below(1 << 20) as i128,
        1 + rng.gen_below(1 << 10) as i128,
    ))
}

fn random_setup_request(rng: &mut SimRng) -> SetupRequest {
    let contract = if rng.next_u64() & 1 == 0 {
        let den = 1 + rng.gen_below(512) as i128;
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, den))).unwrap())
    } else {
        let pden = 2 + rng.gen_below(64) as i128;
        let sden = pden * (1 + rng.gen_below(16) as i128);
        TrafficContract::vbr(
            VbrParams::new(
                Rate::new(ratio(1, pden)),
                Rate::new(ratio(1, sden)),
                1 + rng.gen_below(64),
            )
            .unwrap(),
        )
    };
    SetupRequest::new(
        contract,
        Priority::new(rng.gen_below(4) as u8),
        random_time(rng),
    )
}

fn random_links(rng: &mut SimRng) -> Vec<u32> {
    (0..1 + rng.gen_below(12))
        .map(|_| rng.gen_below(1 << 16) as u32)
        .collect()
}

fn random_request(rng: &mut SimRng) -> Request {
    match rng.gen_below(7) {
        0 => Request::Hello,
        1 => Request::Setup {
            links: random_links(rng),
            request: random_setup_request(rng),
        },
        2 => Request::SetupMcast {
            links: random_links(rng),
            request: random_setup_request(rng),
        },
        3 => Request::Release { id: rng.next_u64() },
        4 => Request::Query { id: rng.next_u64() },
        5 => Request::Drain,
        _ => Request::Stats,
    }
}

fn random_string(rng: &mut SimRng) -> String {
    let len = rng.gen_below(64) as usize;
    (0..len)
        .map(|_| char::from(b'a' + (rng.gen_below(26) as u8)))
        .collect()
}

fn random_response(rng: &mut SimRng) -> Response {
    match rng.gen_below(8) {
        0 => Response::ServerInfo {
            nodes: rng.gen_below(64) as u32,
            terminals: rng.gen_below(16) as u32,
            levels: 1 + rng.gen_below(4) as u8,
            bound: random_time(rng),
        },
        1 => Response::Admitted {
            id: rng.next_u64(),
            guaranteed_delay: random_time(rng),
            attempts: rng.gen_below(4) as u32,
        },
        2 => Response::Rejected {
            id: rng.next_u64(),
            code: 1 + rng.gen_below(4) as u8,
            detail: random_string(rng),
        },
        3 => Response::Released { id: rng.next_u64() },
        4 => Response::QueryResult {
            found: rng.next_u64() & 1 == 0,
            guaranteed_delay: random_time(rng),
        },
        5 => Response::Draining {
            active: rng.next_u64(),
        },
        6 => Response::StatsReply {
            active: rng.next_u64(),
            admitted: rng.next_u64(),
            rejected: rng.next_u64(),
            released: rng.next_u64(),
            orphans: rng.next_u64(),
            draining: rng.next_u64() & 1 == 0,
        },
        _ => Response::Error {
            code: ErrorCode::from_u8(1 + rng.gen_below(7) as u8).unwrap(),
            message: random_string(rng),
        },
    }
}

#[test]
fn every_request_roundtrips_through_the_codec() {
    let mut rng = SimRng::seed_from_u64(0x5e7f);
    for i in 0..2_000 {
        let request = random_request(&mut rng);
        let payload = request.encode();
        let back = Request::decode(&payload)
            .unwrap_or_else(|e| panic!("iteration {i}: {request:?} failed decode: {e}"));
        assert_eq!(request, back, "iteration {i}");
    }
}

#[test]
fn every_response_roundtrips_through_the_codec() {
    let mut rng = SimRng::seed_from_u64(0xca11);
    for i in 0..2_000 {
        let response = random_response(&mut rng);
        let payload = response.encode();
        let back = Response::decode(&payload)
            .unwrap_or_else(|e| panic!("iteration {i}: {response:?} failed decode: {e}"));
        assert_eq!(response, back, "iteration {i}");
    }
}

#[test]
fn frames_roundtrip_through_the_stream_layer() {
    let mut rng = SimRng::seed_from_u64(0xf00d);
    for _ in 0..200 {
        let request = random_request(&mut rng);
        let mut buf = Vec::new();
        write_frame(&mut buf, &request.encode()).unwrap();
        let payload = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), request);
    }
}

#[test]
fn fuzzed_payloads_never_panic_and_always_type_their_errors() {
    let mut rng = SimRng::seed_from_u64(0xfa22);
    let mut decoded = 0u32;
    for _ in 0..20_000 {
        let len = rng.gen_below(48) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Half the iterations get a valid version byte so the fuzz
        // reaches past the version check into the body decoders.
        if !bytes.is_empty() && rng.next_u64() & 1 == 0 {
            bytes[0] = PROTO_VERSION;
        }
        if Request::decode(&bytes).is_ok() {
            decoded += 1;
        }
        let _ = Response::decode(&bytes);
    }
    // The property under test is "no panic, typed errors only"; a few
    // random buffers forming valid frames is expected and fine.
    assert!(decoded < 20_000, "fuzz must exercise the error paths");
}

#[test]
fn forged_length_prefixes_are_refused_without_allocating() {
    // A frame claiming a 4 GiB payload must be refused by the length
    // check, not by the allocator.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    bytes.extend_from_slice(&[PROTO_VERSION, frame_type::HELLO]);
    match read_frame(&mut Cursor::new(&bytes)) {
        Err(WireError::Oversized { len, max }) => {
            assert_eq!(len, u32::MAX as usize);
            assert_eq!(max, MAX_PAYLOAD);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }

    // A SETUP whose link list claims 2^30 entries but carries 4 bytes
    // must be a typed error before any Vec::with_capacity of that size.
    let mut payload = vec![PROTO_VERSION, frame_type::SETUP];
    payload.extend_from_slice(&(1u32 << 30).to_be_bytes());
    payload.extend_from_slice(&[0, 0, 0, 1]);
    assert!(matches!(
        Request::decode(&payload),
        Err(WireError::BadPayload(_))
    ));
}

#[test]
fn truncated_and_alien_frames_are_typed_errors() {
    let mut rng = SimRng::seed_from_u64(0x7e57);
    for _ in 0..500 {
        // Truncate a valid frame at a random point: every cut must be a
        // typed error (or, for cuts past the end, a clean decode).
        let request = random_request(&mut rng);
        let payload = request.encode();
        let cut = rng.gen_below(payload.len() as u64) as usize;
        if cut == payload.len() {
            continue;
        }
        assert!(
            Request::decode(&payload[..cut]).is_err(),
            "truncated {request:?} at {cut} must not decode"
        );
    }
    // Unknown version and unknown frame types are distinct errors.
    assert!(matches!(
        Request::decode(&[99, frame_type::HELLO]),
        Err(WireError::UnsupportedVersion { got: 99 })
    ));
    assert!(matches!(
        Request::decode(&[PROTO_VERSION, 0x44]),
        Err(WireError::UnknownFrame { got: 0x44 })
    ));
}

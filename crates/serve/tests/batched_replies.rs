//! One write per read batch: a session answers every frame already
//! whole in its read buffer before it flushes, and flushes before any
//! read that could block. Replies keep their order and their bytes;
//! only how many of them share one write changes.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
use rtcac_cac::Priority;
use rtcac_net::builders;
use rtcac_rational::ratio;
use rtcac_serve::proto::frame_type;
use rtcac_serve::wire::{write_frame, WireError};
use rtcac_serve::{Client, ErrorCode, Request, Response, ServeConfig, Server};
use rtcac_signaling::SetupRequest;

/// How long a test waits for a reply before it counts it as withheld.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

fn server() -> (Server, Request) {
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
    let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 1024))).unwrap());
    let setup = Request::Setup {
        links: route.links().iter().map(|l| l.index() as u32).collect(),
        request: SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000_000)),
    };
    (server, setup)
}

/// A raw session: bytes go out on the returned stream, typed replies
/// come back through the client, which gives up after [`REPLY_TIMEOUT`].
fn raw_session(server: &Server) -> (TcpStream, Client) {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    let client = Client::from_stream(stream.try_clone().unwrap()).unwrap();
    (stream, client)
}

fn frame_bytes(requests: &[&Request]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for request in requests {
        write_frame(&mut bytes, &request.encode()).unwrap();
    }
    bytes
}

fn flushes(server: &Server) -> u64 {
    server.registry().counter("serve_reply_flushes_total").get()
}

fn admitted_id(reply: Result<Response, WireError>) -> u64 {
    match reply {
        Ok(Response::Admitted { id, .. }) => id,
        other => panic!("expected ADMITTED, got {other:?}"),
    }
}

fn drain(server: Server) {
    Client::connect(server.addr()).unwrap().drain().unwrap();
    let summary = server.join();
    assert!(summary.is_clean(), "{summary:?}");
}

#[test]
fn a_pipelined_burst_is_answered_in_order_in_fewer_writes() {
    const PAIRS: u64 = 32;
    let (server, setup) = server();
    let (mut stream, mut client) = raw_session(&server);
    // Ids are handed out in sequence, so one call/response setup tells
    // the test which id each pipelined SETUP will get.
    client.send(&setup).unwrap();
    client.flush().unwrap();
    let first = admitted_id(client.recv());
    let releases: Vec<Request> = (1..=PAIRS)
        .map(|k| Request::Release { id: first + k })
        .collect();
    let burst: Vec<&Request> = releases.iter().flat_map(|r| [&setup, r]).collect();
    assert_eq!(burst.len(), 64);

    let before = flushes(&server);
    stream.write_all(&frame_bytes(&burst)).unwrap();
    for k in 1..=PAIRS {
        assert_eq!(admitted_id(client.recv()), first + k);
        match client.recv() {
            Ok(Response::Released { id }) => assert_eq!(id, first + k),
            other => panic!("expected RELEASED {}, got {other:?}", first + k),
        }
    }
    let grew = flushes(&server) - before;
    assert!(grew < 64, "64 buffered frames took {grew} flushes");

    client.release(first).unwrap();
    drop((stream, client));
    drain(server);
}

#[test]
fn a_partial_next_frame_does_not_hold_back_the_reply() {
    let (server, setup) = server();
    let (mut stream, mut client) = raw_session(&server);
    let bytes = frame_bytes(&[&setup, &setup]);
    let split = bytes.len() / 2 + 3;
    // One whole SETUP and three bytes of the next frame's prefix: the
    // session must answer the first before it waits for the rest.
    stream.write_all(&bytes[..split]).unwrap();
    let first = admitted_id(client.recv());
    stream.write_all(&bytes[split..]).unwrap();
    assert_eq!(admitted_id(client.recv()), first + 1);
    drop((stream, client));
    drain(server);
}

#[test]
fn a_content_error_inside_a_batch_keeps_the_session() {
    let (server, setup) = server();
    let (mut stream, mut client) = raw_session(&server);
    let mut bytes = frame_bytes(&[&setup]);
    write_frame(&mut bytes, &[9, frame_type::HELLO]).unwrap();
    bytes.extend_from_slice(&frame_bytes(&[&setup]));
    stream.write_all(&bytes).unwrap();

    let first = admitted_id(client.recv());
    assert!(matches!(
        client.recv(),
        Ok(Response::Error {
            code: ErrorCode::UnsupportedVersion,
            ..
        })
    ));
    assert_eq!(admitted_id(client.recv()), first + 1);
    // The session is still open.
    stream.write_all(&frame_bytes(&[&Request::Hello])).unwrap();
    assert!(matches!(client.recv(), Ok(Response::ServerInfo { .. })));
    drop((stream, client));
    drain(server);
}

#[test]
fn replies_before_a_framing_error_are_sent_then_the_session_closes() {
    let (server, setup) = server();
    let (mut stream, mut client) = raw_session(&server);
    let mut bytes = frame_bytes(&[&setup, &setup]);
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    stream.write_all(&bytes).unwrap();

    let first = admitted_id(client.recv());
    assert_eq!(admitted_id(client.recv()), first + 1);
    assert!(matches!(
        client.recv(),
        Ok(Response::Error {
            code: ErrorCode::BadPayload,
            ..
        })
    ));
    assert!(matches!(client.recv(), Err(WireError::Closed)));
    // Session cleanup released both connections.
    assert_eq!(server.engine().connection_count(), 0);
    drop((stream, client));
    drain(server);
}

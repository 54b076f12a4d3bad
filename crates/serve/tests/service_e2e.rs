//! End-to-end service behavior over loopback: ownership enforcement,
//! typed protocol errors, multicast setups, live stats, more sessions
//! than admission permits, and a DRAIN arriving in the middle of an
//! active setup burst.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
use rtcac_cac::Priority;
use rtcac_net::builders;
use rtcac_rational::ratio;
use rtcac_serve::proto::{frame_type, reject_code};
use rtcac_serve::wire::write_frame;
use rtcac_serve::{Client, ErrorCode, Request, Response, ServeConfig, Server};
use rtcac_signaling::SetupRequest;

fn small_server(nodes: usize, terminals: usize) -> (Server, builders::StarRing) {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        nodes,
        terminals,
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let sr = builders::star_ring(nodes, terminals).unwrap();
    (server, sr)
}

fn links_of(sr: &builders::StarRing, src: (usize, usize), dst: (usize, usize)) -> Vec<u32> {
    let route = sr.terminal_route(src, dst).unwrap();
    route.links().iter().map(|l| l.index() as u32).collect()
}

fn setup_request() -> SetupRequest {
    let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 128))).unwrap());
    SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000_000))
}

#[test]
fn sessions_only_release_what_they_own() {
    let (server, sr) = small_server(4, 2);
    let links = links_of(&sr, (0, 0), (0, 1));

    let mut alice = Client::connect(server.addr()).unwrap();
    let mut bob = Client::connect(server.addr()).unwrap();
    let Response::Admitted { id, .. } = alice.setup(&links, setup_request()).unwrap() else {
        panic!("alice's setup should be admitted");
    };
    // Bob cannot release Alice's connection…
    assert!(matches!(
        bob.release(id).unwrap(),
        Response::Error {
            code: ErrorCode::NotOwner,
            ..
        }
    ));
    // …but Alice can, and Bob can see it disappear.
    assert!(matches!(
        alice.release(id).unwrap(),
        Response::Released { .. }
    ));
    assert!(matches!(
        bob.query(id).unwrap(),
        Response::QueryResult { found: false, .. }
    ));
    alice.drain().unwrap();
    drop((alice, bob));
    assert!(server.join().is_clean());
}

#[test]
fn hello_stats_and_multicast_over_the_wire() {
    let (server, sr) = small_server(4, 2);
    let mut client = Client::connect(server.addr()).unwrap();

    let Response::ServerInfo {
        nodes, terminals, ..
    } = client.hello().unwrap()
    else {
        panic!("HELLO must be answered by SERVER-INFO");
    };
    assert_eq!((nodes, terminals), (4, 2));

    // A broadcast tree admitted over the wire takes the engine's
    // multicast path.
    let tree = sr.broadcast_tree(1, 0).unwrap();
    let links: Vec<u32> = tree.links().iter().map(|l| l.index() as u32).collect();
    let Response::Admitted { id, .. } = client.setup_mcast(&links, setup_request()).unwrap() else {
        panic!("broadcast setup should be admitted on an empty ring");
    };

    let Response::StatsReply {
        active,
        admitted,
        draining,
        ..
    } = client.stats().unwrap()
    else {
        panic!("STATS must be answered by STATS-REPLY");
    };
    assert_eq!((active, admitted, draining), (1, 1, false));

    client.release(id).unwrap();
    client.drain().unwrap();
    drop(client);
    assert!(server.join().is_clean());
}

#[test]
fn protocol_errors_are_typed_and_survivable() {
    let (server, sr) = small_server(4, 2);
    let mut client = Client::connect(server.addr()).unwrap();

    // An unknown-version frame: typed error, session survives.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut stream, &[9, frame_type::HELLO]).unwrap();
    stream.flush().unwrap();
    let mut raw = Client::from_stream(stream.try_clone().unwrap()).unwrap();
    assert!(matches!(
        raw.recv().unwrap(),
        Response::Error {
            code: ErrorCode::UnsupportedVersion,
            ..
        }
    ));
    // The same session still answers a well-formed request afterwards.
    write_frame(&mut stream, &Request::Hello.encode()).unwrap();
    stream.flush().unwrap();
    assert!(matches!(raw.recv().unwrap(), Response::ServerInfo { .. }));

    // A route over links that do not exist: BadRoute, not a panic.
    assert!(matches!(
        client.setup(&[40_000, 40_001], setup_request()).unwrap(),
        Response::Error {
            code: ErrorCode::BadRoute,
            ..
        }
    ));
    // Releasing a connection nobody admitted: NotOwner.
    assert!(matches!(
        client.release(424_242).unwrap(),
        Response::Error {
            code: ErrorCode::NotOwner,
            ..
        }
    ));

    let links = links_of(&sr, (0, 0), (0, 1));
    assert!(matches!(
        client.setup(&links, setup_request()).unwrap(),
        Response::Admitted { .. }
    ));
    client.drain().unwrap();
    drop((client, raw, stream));
    assert!(server.join().is_clean());
}

#[test]
fn more_sessions_than_permits_are_all_answered() {
    // One permit, four sessions pipelining 16 setups each at once on
    // disjoint ring switches: every session waits its turn for the
    // permit, and no setup is lost or refused while it waits.
    const SESSIONS: usize = 4;
    const SETUPS: usize = 16;
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        nodes: SESSIONS,
        terminals: 2,
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let sr = builders::star_ring(SESSIONS, 2).unwrap();
    let addr = server.addr();
    let start = Arc::new(Barrier::new(SESSIONS));
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|node| {
            let links = links_of(&sr, (node, 0), (node, 1));
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let setup = Request::Setup {
                    links,
                    request: setup_request(),
                };
                for _ in 0..SETUPS {
                    client.send(&setup).unwrap();
                }
                start.wait();
                client.flush().unwrap();
                let ids: Vec<u64> = (0..SETUPS)
                    .map(|_| match client.recv().unwrap() {
                        Response::Admitted { id, .. } => id,
                        other => panic!("session {node}: expected ADMITTED, got {other:?}"),
                    })
                    .collect();
                for id in ids {
                    assert!(matches!(
                        client.release(id).unwrap(),
                        Response::Released { .. }
                    ));
                }
            })
        })
        .collect();
    for session in sessions {
        session.join().unwrap();
    }
    Client::connect(addr).unwrap().drain().unwrap();
    let summary = server.join();
    assert!(summary.is_clean(), "{summary:?}");
    assert_eq!(summary.cleanup_released, 0, "{summary:?}");
}

#[test]
fn drain_mid_burst_keeps_invariants_and_refuses_new_setups() {
    let (server, sr) = small_server(8, 2);
    let addr = server.addr();

    // A burst thread churns setup+release until the drain cuts it off.
    let churn_links = links_of(&sr, (2, 0), (2, 1));
    let churner = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut drained_rejections = 0u32;
        for _ in 0..10_000 {
            match client.setup(&churn_links, setup_request()) {
                Ok(Response::Admitted { id, .. }) => {
                    // Deliberately leak some admissions (no release) so
                    // drain-time cleanup has real work to do.
                    if id % 3 != 0 {
                        let _ = client.release(id);
                    }
                }
                Ok(Response::Rejected { code, .. }) => {
                    if code == reject_code::DRAINING {
                        drained_rejections += 1;
                        if drained_rejections >= 3 {
                            break; // the drain is in force; stop churning
                        }
                    }
                }
                Ok(_) => {}
                Err(_) => break, // server closed the session mid-burst
            }
        }
        drained_rejections
    });

    // Let the burst get going, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(150));
    let mut admin = Client::connect(addr).unwrap();
    let reply = admin.drain().unwrap();
    assert!(matches!(reply, Response::Draining { .. }));
    // Post-drain setups are refused with the typed Draining rejection.
    let links = links_of(&sr, (1, 0), (1, 1));
    match admin.setup(&links, setup_request()).unwrap() {
        Response::Rejected { code, .. } => assert_eq!(code, reject_code::DRAINING),
        other => panic!("post-drain setup should be rejected: {other:?}"),
    }
    let drained_rejections = churner.join().unwrap();
    drop(admin);

    // The mid-load shutdown must still audit clean: every leaked
    // admission released by session cleanup, no orphans, bounds intact.
    let summary = server.join();
    assert!(summary.is_clean(), "{summary:?}");
    assert_eq!(summary.active, 0, "cleanup must release leaked admissions");
    assert!(
        drained_rejections > 0 || summary.sessions >= 2,
        "the churner should have seen the drain take effect"
    );
}

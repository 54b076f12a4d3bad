//! Warm-restart over the wire: a server with a `--snapshot` path
//! periodically saves its admission state, a second server boots from
//! that file with every pre-cut connection intact, a corrupt file is
//! refused without serving (and without being clobbered), and the
//! client's HELLO rides out the restore window on the typed
//! `SnapshotRestoring` backoff.

use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
use rtcac_cac::Priority;
use rtcac_net::builders;
use rtcac_rational::ratio;
use rtcac_serve::wire::{read_frame, write_frame};
use rtcac_serve::{http_get, Client, ErrorCode, Request, Response, ServeConfig, Server};
use rtcac_signaling::SetupRequest;

fn temp_snapshot(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtcac-serve-snap-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn snap_server(path: &Path, every: Option<u64>) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        nodes: 4,
        terminals: 2,
        workers: 2,
        snapshot_path: Some(path.display().to_string()),
        snapshot_every: every,
        ..ServeConfig::default()
    })
    .unwrap()
}

fn setup_request() -> SetupRequest {
    let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 128))).unwrap());
    SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000_000))
}

fn links_of(sr: &builders::StarRing, src: (usize, usize), dst: (usize, usize)) -> Vec<u32> {
    let route = sr.terminal_route(src, dst).unwrap();
    route.links().iter().map(|l| l.index() as u32).collect()
}

/// The kill-and-restore path, in-process: admit on one server, take
/// its periodic snapshot as the cut, and boot a second server from
/// that file. Every pre-cut connection must come back queryable, id
/// allocation must continue past the restored ids, and the restored
/// server must still drain clean.
#[test]
fn restored_server_serves_pre_cut_connections() {
    let cut = temp_snapshot("cut.bin");
    let boot = temp_snapshot("boot.bin");
    let _ = fs::remove_file(&cut);
    let _ = fs::remove_file(&boot);

    let sr = builders::star_ring(4, 2).unwrap();
    let victim = snap_server(&cut, Some(0)); // save on every poll tick
    let mut client = Client::connect(victim.addr()).unwrap();
    client.hello().unwrap();
    let Response::Admitted { id: first, .. } = client
        .setup(&links_of(&sr, (0, 0), (0, 1)), setup_request())
        .unwrap()
    else {
        panic!("first setup should be admitted");
    };
    let Response::Admitted { id: second, .. } = client
        .setup(&links_of(&sr, (1, 0), (1, 1)), setup_request())
        .unwrap()
    else {
        panic!("second setup should be admitted");
    };

    // Wait for a periodic save that contains both admissions (the
    // first tick can save an empty engine); the session stays open, so
    // nothing is cleanup-released before the cut.
    let mut captured = false;
    for _ in 0..200 {
        if let Ok(doc) = rtcac_snap::load_file(&cut) {
            if doc.state.connections.len() >= 2 {
                captured = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(captured, "periodic save never captured the admissions");
    // Freeze the cut: copy it out from under the victim's ongoing
    // periodic saves, then boot a second server from the frozen file.
    fs::copy(&cut, &boot).unwrap();
    let restored = snap_server(&boot, None);
    let mut survivor = Client::connect(restored.addr()).unwrap();
    // hello() absorbs the SnapshotRestoring window with typed backoff.
    assert!(matches!(
        survivor.hello().unwrap(),
        Response::ServerInfo { nodes: 4, .. }
    ));

    // Both pre-cut connections are established on the restored server.
    for id in [first, second] {
        assert!(matches!(
            survivor.query(id).unwrap(),
            Response::QueryResult { found: true, .. }
        ));
    }
    // Id allocation continues past the restored ids.
    let Response::Admitted { id: third, .. } = survivor
        .setup(&links_of(&sr, (2, 0), (2, 1)), setup_request())
        .unwrap()
    else {
        panic!("post-restore setup should be admitted");
    };
    assert!(third > first.max(second));
    let Response::StatsReply { active, .. } = survivor.stats().unwrap() else {
        panic!("STATS must be answered by STATS-REPLY");
    };
    assert_eq!(active, 3, "two restored + one fresh admission");

    survivor.release(third).unwrap();
    survivor.drain().unwrap();
    drop(survivor);
    let summary = restored.join();
    assert!(summary.is_clean(), "{summary:?}");
    // The restored (session-less) connections survive the drain with
    // their guarantees intact.
    assert_eq!(summary.active, 2);

    client.drain().unwrap();
    drop(client);
    assert!(victim.join().is_clean());
}

/// A corrupt snapshot is refused: the server drains without serving
/// traffic, reports why, and does NOT clobber the refused file with an
/// empty drain-time snapshot.
#[test]
fn corrupt_snapshot_is_refused_and_preserved() {
    let path = temp_snapshot("corrupt.bin");
    let garbage = b"this is not a snapshot".to_vec();
    fs::write(&path, &garbage).unwrap();

    let server = snap_server(&path, None);
    let summary = server.join();
    assert!(!summary.is_clean());
    let reason = summary.restore_failed.expect("restore must be refused");
    assert!(reason.contains("corrupt.bin"), "{reason}");
    // The refused file is preserved for forensics, byte for byte.
    assert_eq!(fs::read(&path).unwrap(), garbage);
}

/// The client-side half of the satellite: a HELLO answered with the
/// typed `SnapshotRestoring` error is retried with backoff until the
/// server comes up, and the eventual SERVER-INFO is returned as if the
/// restore window never happened.
#[test]
fn hello_backs_off_through_snapshot_restoring() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let mock = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut restoring_replies = 0u32;
        loop {
            let payload = read_frame(&mut stream).unwrap();
            let request = Request::decode(&payload).unwrap();
            assert!(matches!(request, Request::Hello));
            let reply = if restoring_replies < 3 {
                restoring_replies += 1;
                Response::Error {
                    code: ErrorCode::SnapshotRestoring,
                    message: "still restoring".into(),
                }
            } else {
                Response::ServerInfo {
                    nodes: 7,
                    terminals: 3,
                    levels: 2,
                    bound: Time::from_integer(64),
                }
            };
            let done = restoring_replies >= 3 && matches!(reply, Response::ServerInfo { .. });
            write_frame(&mut stream, &reply.encode()).unwrap();
            use std::io::Write;
            stream.flush().unwrap();
            if done {
                break;
            }
        }
        restoring_replies
    });

    let mut client = Client::connect(addr).unwrap();
    let Response::ServerInfo { nodes, .. } = client.hello().unwrap() else {
        panic!("hello must resolve to SERVER-INFO once the restore ends");
    };
    assert_eq!(nodes, 7);
    assert_eq!(
        mock.join().unwrap(),
        3,
        "the client retried through 3 restoring replies"
    );
}

/// A save that cannot write its file is counted on the server's own
/// registry, where `/metrics` shows it, and the server keeps serving.
#[test]
fn failed_save_is_counted_on_metrics() {
    let dir = std::env::temp_dir().join(format!("rtcac-serve-missing-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        metrics_addr: Some("127.0.0.1:0".into()),
        nodes: 4,
        terminals: 2,
        workers: 2,
        snapshot_path: Some(dir.join("snap.bin").display().to_string()),
        snapshot_every: Some(0), // save on every poll tick
        ..ServeConfig::default()
    })
    .unwrap();
    let metrics = server.metrics_addr().unwrap().to_string();
    let failures = |body: &str| {
        let line = body
            .lines()
            .find_map(|line| line.strip_prefix("snapshot_save_failures_total "));
        line.and_then(|count| count.trim().parse::<u64>().ok())
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = http_get(&metrics, "/metrics").unwrap();
        if failures(&body).is_some_and(|count| count >= 1) {
            break;
        }
        assert!(Instant::now() < deadline, "no failed save counted:\n{body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut client = Client::connect(server.addr()).unwrap();
    client.hello().unwrap();
    drop(client);
    server.request_drain();
    let summary = server.join();
    assert!(!dir.exists(), "a failed save creates nothing");
    let path = dir.join("snap.bin").display().to_string();
    let failed = summary
        .save_failed
        .as_deref()
        .expect("the drain report names the failed save");
    assert!(
        failed.starts_with(&format!("{path}: ")),
        "the failed save names its path: {failed}"
    );
    assert!(
        summary.is_clean(),
        "a failed save does not change the exit code"
    );
}

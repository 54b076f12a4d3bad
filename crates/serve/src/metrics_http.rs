//! A deliberately tiny HTTP/1.0 exposition endpoint.
//!
//! Enough of HTTP to let `curl`, Prometheus, `rtcac stats --addr`, and
//! the [`Scraper`] behind `rtcac top` and `rtcac load --soak` read the
//! registry: `GET /metrics` (Prometheus text format),
//! `GET /metrics.json` (the registry's JSON form), and `GET /healthz`.
//! Anything else is a 404. Request bodies, keep-alive, and chunked
//! encoding are all out of scope — every response closes the socket.
//!
//! The endpoint is defensive about its input: the request line is read
//! through a hard byte cap, so an oversized line is answered with a
//! typed `414` and a malformed one (bad UTF-8, missing method or path)
//! with a `400` — never a silently dropped connection, which a scraper
//! would misreport as "endpoint down" instead of "bad request".
//!
//! Each scrape first refreshes the engine's orphaned-reservation audit,
//! so `engine_orphaned_reservations` on the wire is always the *current*
//! count, never a stale gauge. `/healthz` answers `503 restoring` while
//! a boot-time snapshot restore is still in flight, so load balancers
//! and probes see "alive but not ready" rather than a false "ok".

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rtcac_engine::AdmissionEngine;
use rtcac_obs::{Registry, Snapshot, TimeSeries};

/// Hard cap on the request line. Anything longer is answered with a
/// typed `414` — a scraper URL has no business being this long.
const MAX_REQUEST_LINE: usize = 4096;

/// Spawns the exposition endpoint on `addr`, returning the bound
/// address. The serving thread runs until the process exits.
/// `restoring` flips `/healthz` to `503` while a snapshot restore is
/// in flight.
pub(crate) fn spawn_metrics_endpoint(
    addr: &str,
    registry: Arc<Registry>,
    engine: Arc<AdmissionEngine>,
    restoring: Arc<AtomicBool>,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let registry = Arc::clone(&registry);
            let engine = Arc::clone(&engine);
            let restoring = Arc::clone(&restoring);
            thread::spawn(move || serve_one(stream, &registry, &engine, &restoring));
        }
    });
    Ok(bound)
}

/// What reading the request line produced.
enum RequestLine {
    /// A complete, UTF-8 clean line within the cap.
    Line(String),
    /// The peer closed without sending anything: nothing to answer.
    Closed,
    /// The line ran past [`MAX_REQUEST_LINE`] without a newline.
    Oversized,
    /// The line could not be read or is not UTF-8.
    Unreadable,
}

/// Reads one request line through the byte cap, classifying every
/// failure so the caller can answer with a typed status.
fn read_request_line(reader: &mut BufReader<TcpStream>) -> RequestLine {
    let mut raw = Vec::new();
    let mut capped = reader.take(MAX_REQUEST_LINE as u64 + 1);
    match capped.read_until(b'\n', &mut raw) {
        Ok(0) => RequestLine::Closed,
        Ok(_) if raw.last() != Some(&b'\n') && raw.len() > MAX_REQUEST_LINE => {
            RequestLine::Oversized
        }
        Ok(_) => match String::from_utf8(raw) {
            Ok(line) => RequestLine::Line(line),
            Err(_) => RequestLine::Unreadable,
        },
        Err(_) => RequestLine::Unreadable,
    }
}

/// Answers a single scrape request and closes the socket.
fn serve_one(
    stream: TcpStream,
    registry: &Registry,
    engine: &AdmissionEngine,
    restoring: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let request_line = match read_request_line(&mut reader) {
        RequestLine::Line(line) => line,
        RequestLine::Closed => return,
        RequestLine::Oversized => {
            respond(
                write_half,
                "414 URI Too Long",
                "text/plain",
                &format!("request line exceeds {MAX_REQUEST_LINE} bytes\n"),
            );
            return;
        }
        RequestLine::Unreadable => {
            respond(
                write_half,
                "400 Bad Request",
                "text/plain",
                "unreadable request line\n",
            );
            return;
        }
    };
    // Drain the remaining headers before answering: closing the socket
    // with unread bytes in the receive buffer makes the kernel send an
    // RST, which the client sees as a broken pipe instead of a reply.
    let mut header = String::new();
    for _ in 0..64 {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method.is_empty() || path.is_empty() {
        (
            "400 Bad Request",
            "text/plain",
            "malformed request line\n".into(),
        )
    } else if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "GET only\n".into())
    } else {
        match path {
            "/metrics" => {
                refresh_memory_gauges(registry, engine);
                engine.publish_orphan_audit();
                (
                    "200 OK",
                    "text/plain; version=0.0.4",
                    registry.snapshot().to_prometheus(),
                )
            }
            "/metrics.json" => {
                refresh_memory_gauges(registry, engine);
                engine.publish_orphan_audit();
                ("200 OK", "application/json", registry.snapshot().to_json())
            }
            "/healthz" => {
                if restoring.load(Ordering::SeqCst) {
                    (
                        "503 Service Unavailable",
                        "text/plain",
                        "restoring\n".into(),
                    )
                } else {
                    ("200 OK", "text/plain", "ok\n".into())
                }
            }
            _ => ("404 Not Found", "text/plain", "not found\n".into()),
        }
    };
    respond(write_half, status, content_type, &body);
}

/// Writes one complete HTTP/1.0 response.
fn respond(mut writer: TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = writer.flush();
}

/// Refreshes the memory gauges at scrape time so the figures on the
/// wire are current, never stale: `engine_resident_bytes` sums every
/// shard switch's admission-state footprint (brief per-shard locks),
/// `alloc_live_bytes` reads the process heap counter (non-zero only
/// when the binary installed the counting allocator from `rtcac-bench`).
fn refresh_memory_gauges(registry: &Registry, engine: &AdmissionEngine) {
    registry
        .gauge("engine_resident_bytes")
        .set(engine.resident_bytes() as u64);
    registry
        .gauge("alloc_live_bytes")
        .set(rtcac_obs::alloc_live_bytes());
}

/// A minimal blocking HTTP GET, for `rtcac stats --addr` and the tests:
/// connects, requests `path`, returns the response body on 200.
///
/// # Errors
///
/// Any socket failure, a malformed status line, or a non-200 status.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut write_half = stream.try_clone()?;
    write!(write_half, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n")?;
    write_half.flush()?;
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("malformed HTTP response"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(std::io::Error::other(format!(
            "HTTP {} from {addr}{path}",
            if status.is_empty() { "<none>" } else { status }
        )));
    }
    Ok(body.to_string())
}

/// A live server's `/metrics`, scraped into a windowed
/// [`TimeSeries`]: each scrape is parsed back into a snapshot
/// ([`Snapshot::from_prometheus`]) and observed as one tick spanning the
/// time since the previous scrape, so the series answers live rates and
/// sliding-window quantiles instead of since-boot averages. The raw
/// text is scraped, not `/metrics.json`, because windowed quantiles
/// need the histogram buckets themselves. `rtcac top` and
/// `rtcac load --soak` both read a server through this.
#[derive(Debug)]
pub struct Scraper {
    addr: String,
    series: TimeSeries,
    last_scrape: Option<Instant>,
}

impl Scraper {
    /// A scraper of the exposition endpoint at `addr` (`host:port`),
    /// with an empty default-sized window.
    pub fn new(addr: &str) -> Scraper {
        Scraper {
            addr: addr.to_owned(),
            series: TimeSeries::default(),
            last_scrape: None,
        }
    }

    /// Scrapes once and returns the series with the new tick observed.
    ///
    /// # Errors
    ///
    /// As [`http_get`]; a failed scrape leaves the series untouched.
    pub fn scrape(&mut self) -> std::io::Result<&TimeSeries> {
        let body = http_get(&self.addr, "/metrics")?;
        let now = Instant::now();
        let elapsed_ms = self
            .last_scrape
            .map_or(0, |t| now.duration_since(t).as_millis() as u64);
        self.last_scrape = Some(now);
        self.series
            .observe(&Snapshot::from_prometheus(&body), elapsed_ms);
        Ok(&self.series)
    }
}

/// Renders a byte count with a binary-unit suffix (`1.5MiB`), for the
/// resident-bytes figures of a scraped series.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_bitstream::Time;
    use rtcac_cac::SwitchConfig;
    use rtcac_net::builders;
    use rtcac_signaling::CdvPolicy;

    fn endpoint() -> (SocketAddr, Arc<Registry>, Arc<AtomicBool>) {
        let registry = Arc::new(Registry::new());
        let sr = builders::star_ring(4, 2).expect("star ring");
        let engine = Arc::new(AdmissionEngine::with_registry(
            sr.topology().clone(),
            SwitchConfig::uniform(1, Time::from_integer(64)).expect("switch config"),
            CdvPolicy::Hard,
            Arc::clone(&registry),
        ));
        let restoring = Arc::new(AtomicBool::new(false));
        let addr = spawn_metrics_endpoint(
            "127.0.0.1:0",
            Arc::clone(&registry),
            engine,
            Arc::clone(&restoring),
        )
        .expect("bind endpoint");
        (addr, registry, restoring)
    }

    /// Sends raw bytes and returns the full response text — unlike
    /// [`http_get`] this keeps non-200 status lines visible.
    fn raw_request(addr: SocketAddr, bytes: &[u8]) -> String {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut write_half = stream.try_clone().expect("clone");
        write_half.write_all(bytes).expect("send");
        write_half.flush().expect("flush");
        // Half-close so the server's post-line reads see EOF instead
        // of waiting out the read timeout.
        let _ = write_half.shutdown(std::net::Shutdown::Write);
        let mut response = String::new();
        let _ = BufReader::new(stream).read_to_string(&mut response);
        response
    }

    #[test]
    fn concurrent_scrapes_under_churn_all_parse() {
        let (addr, registry, _restoring) = endpoint();
        let stop = Arc::new(AtomicBool::new(false));
        // Churn: writer threads hammer labelled counters and a
        // histogram while the scrapers read, so every scrape races
        // live registry updates.
        let writers: Vec<_> = (0u64..3)
            .map(|w| {
                let registry = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let shard = w.to_string();
                    let c = registry.counter_with("churn_total", &[("shard", &shard)]);
                    let h = registry.histogram("churn_ns");
                    while !stop.load(Ordering::Relaxed) {
                        c.inc();
                        h.record(w * 100 + 1);
                    }
                })
            })
            .collect();
        let scrapers: Vec<_> = (0..4)
            .map(|s| {
                thread::spawn(move || {
                    for i in 0..25 {
                        let path = if (s + i) % 2 == 0 {
                            "/metrics"
                        } else {
                            "/metrics.json"
                        };
                        let body = http_get(&addr.to_string(), path).expect("scrape");
                        if path == "/metrics" {
                            let snap = Snapshot::from_prometheus(&body);
                            assert!(
                                snap.gauges
                                    .iter()
                                    .any(|(id, _)| id.name() == "engine_resident_bytes"),
                                "scrape {s}/{i} lost the resident gauge"
                            );
                        } else {
                            assert!(body.starts_with('{'), "scrape {s}/{i} not JSON");
                        }
                    }
                })
            })
            .collect();
        for scraper in scrapers {
            scraper.join().expect("scraper");
        }
        stop.store(true, Ordering::Relaxed);
        for writer in writers {
            writer.join().expect("writer");
        }
    }

    #[test]
    fn oversized_and_malformed_request_lines_get_typed_errors() {
        let (addr, _registry, _restoring) = endpoint();
        // A request line past the cap, never newline-terminated.
        let long = vec![b'A'; MAX_REQUEST_LINE + 100];
        let response = raw_request(addr, &long);
        assert!(
            response.starts_with("HTTP/1.0 414"),
            "oversized line answered with: {response:.60}"
        );
        // Invalid UTF-8 in the request line.
        let response = raw_request(addr, b"GET /\xff\xfe HTTP/1.0\r\n\r\n");
        assert!(
            response.starts_with("HTTP/1.0 400"),
            "non-UTF-8 line answered with: {response:.60}"
        );
        // An empty request line (no method, no path).
        let response = raw_request(addr, b"\r\n\r\n");
        assert!(
            response.starts_with("HTTP/1.0 400"),
            "empty line answered with: {response:.60}"
        );
        // Method but no path.
        let response = raw_request(addr, b"GET\r\n\r\n");
        assert!(
            response.starts_with("HTTP/1.0 400"),
            "pathless line answered with: {response:.60}"
        );
        // The endpoint still serves normal scrapes afterwards.
        assert!(http_get(&addr.to_string(), "/healthz").is_ok());
    }

    #[test]
    fn healthz_reports_restore_in_flight() {
        let (addr, _registry, restoring) = endpoint();
        assert_eq!(
            http_get(&addr.to_string(), "/healthz").expect("healthy"),
            "ok\n"
        );
        restoring.store(true, Ordering::SeqCst);
        let response = raw_request(addr, b"GET /healthz HTTP/1.0\r\n\r\n");
        assert!(
            response.starts_with("HTTP/1.0 503"),
            "restoring healthz answered with: {response:.60}"
        );
        assert!(response.ends_with("restoring\n"));
        // Metrics stay scrapeable during the restore — only readiness
        // flips, observability does not go dark.
        assert!(http_get(&addr.to_string(), "/metrics").is_ok());
        restoring.store(false, Ordering::SeqCst);
        assert_eq!(
            http_get(&addr.to_string(), "/healthz").expect("healthy again"),
            "ok\n"
        );
    }

    #[test]
    fn scraper_windows_successive_scrapes() {
        let (addr, registry, _restoring) = endpoint();
        let mut scraper = Scraper::new(&addr.to_string());
        scraper.scrape().expect("first scrape");
        registry.counter("engine_setups_submitted_total").add(7);
        let series = scraper.scrape().expect("second scrape");
        assert_eq!(series.len(), 2);
        assert_eq!(series.window_count("engine_setups_submitted_total"), 7);
        assert!(series.last_gauge("engine_resident_bytes").is_some());
        // A failed scrape is an error and adds no tick.
        let mut refused = Scraper::new("127.0.0.1:1");
        assert!(refused.scrape().is_err());
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(3 << 20), "3.0MiB");
    }
}

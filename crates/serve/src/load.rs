//! Traffic source for the admission service: setup/release churn
//! against a live server, for smoke runs and memory soaks. It measures
//! nothing itself; the reference benchmark (`benchmark/run.sh`) owns
//! every throughput and latency figure.
//!
//! Each worker thread owns one [`Client`] connection and drives a
//! pipelined stream of SETUP and RELEASE frames over randomized
//! terminal-to-terminal routes of the served star-ring (rebuilt locally
//! from the HELLO reply, so route link ids always match the server's).
//! The loop is closed: a worker keeps at most `PIPELINE` (32) frames in
//! flight and reads a reply before it sends more.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
use rtcac_cac::Priority;
use rtcac_net::{builders, SimRng};
use rtcac_rational::ratio;
use rtcac_signaling::SetupRequest;

use crate::client::Client;
use crate::metrics_http::Scraper;
use crate::proto::{Request, Response};
use crate::wire::WireError;

/// Distinct random routes each worker thread cycles through.
const ROUTES_PER_THREAD: usize = 128;

/// In-flight frames per connection before a worker reads a reply.
const PIPELINE: usize = 32;

/// Configuration of [`run_load`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Service address (`host:port`).
    pub addr: String,
    /// Worker threads, each with its own connection.
    pub threads: usize,
    /// Total frames (setups + releases) to send across all threads.
    pub ops: u64,
    /// Seed for the route/traffic randomization.
    pub seed: u64,
}

/// Aggregate result of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Frames sent and answered (setups + releases).
    pub ops: u64,
    /// SETUP frames among them.
    pub setups: u64,
    /// Setups the server admitted (incl. reroutes).
    pub admitted: u64,
    /// Setups the server rejected (capacity/QoS — still a served op).
    pub rejected: u64,
    /// RELEASE frames acknowledged.
    pub released: u64,
    /// Wall-clock for the whole run.
    pub elapsed_ns: u64,
}

/// One periodic scrape of the served engine during a soak run. The
/// rate and quantile figures come from the [`Scraper`]'s windowed
/// series (scrape-to-scrape deltas), so they describe "now", not the
/// since-boot average.
#[derive(Debug, Clone, Copy)]
pub struct SoakSample {
    /// Seconds since the soak started.
    pub at_secs: f64,
    /// `engine_resident_bytes` from the server's exposition endpoint.
    pub resident_bytes: u64,
    /// `alloc_live_bytes` from the same scrape (0 when the server runs
    /// without the counting allocator).
    pub alloc_live_bytes: u64,
    /// Engine setups per second since the previous scrape.
    pub setups_per_sec: f64,
    /// Engine rejections per second since the previous scrape.
    pub rejects_per_sec: f64,
    /// Sliding-window p99 of `engine_reserve_ns` (0 until the window
    /// holds at least one reserve).
    pub reserve_p99_ns: u64,
}

/// Called with each scraped [`SoakSample`] as the soak runs — the CLI
/// prints its periodic one-line status through this.
pub type SoakObserver = Box<dyn Fn(&SoakSample) + Send>;

/// Aggregate result of a soak run: load batches plus the memory-gauge
/// trajectory scraped while they ran.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Load batches completed before the deadline.
    pub batches: u64,
    /// Total frames served across all batches.
    pub ops: u64,
    /// Wall-clock of the whole soak.
    pub elapsed_ns: u64,
    /// The scraped memory trajectory, in time order.
    pub samples: Vec<SoakSample>,
}

impl SoakReport {
    /// Largest `engine_resident_bytes` scraped during the soak.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.resident_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Soaks a live server: repeats `config`-sized load batches until
/// `duration` elapses while a scraper thread samples the server's
/// `engine_resident_bytes` / `alloc_live_bytes` gauges from
/// `metrics_addr` every few seconds. Each batch holds a steady resident
/// population under setup/release churn (the generator keeps up to 16
/// admitted connections per thread in flight and releases the rest), so
/// the resident-bytes trajectory shows what sustained churn does to the
/// admission state's footprint.
///
/// # Errors
///
/// Same failures as [`run_load`]; a scrape failure is not an error
/// (the sample is skipped — the service, not the scraper, is under
/// test).
pub fn run_soak(
    config: &LoadConfig,
    duration: Duration,
    metrics_addr: &str,
    on_sample: Option<SoakObserver>,
) -> Result<SoakReport, WireError> {
    use std::sync::atomic::{AtomicBool, Ordering};

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let mut scraper = Scraper::new(metrics_addr);
        let started = Instant::now();
        thread::spawn(move || {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                if let Ok(series) = scraper.scrape() {
                    let sample = SoakSample {
                        at_secs: started.elapsed().as_secs_f64(),
                        resident_bytes: series.last_gauge("engine_resident_bytes").unwrap_or(0),
                        alloc_live_bytes: series.last_gauge("alloc_live_bytes").unwrap_or(0),
                        setups_per_sec: series.rate_last("engine_setups_submitted_total"),
                        rejects_per_sec: series.rate_last("engine_setups_rejected_total"),
                        reserve_p99_ns: series.window_quantile("engine_reserve_ns", 0.99),
                    };
                    if let Some(observer) = &on_sample {
                        observer(&sample);
                    }
                    samples.push(sample);
                }
                // Sleep in short slices so stop is honored promptly.
                for _ in 0..20 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    thread::sleep(Duration::from_millis(100));
                }
            }
            samples
        })
    };

    let started = Instant::now();
    let mut batches = 0u64;
    let mut ops = 0u64;
    let result = loop {
        if started.elapsed() >= duration {
            break Ok(());
        }
        match run_load(config) {
            Ok(report) => {
                batches += 1;
                ops += report.ops;
            }
            Err(e) => break Err(e),
        }
    };
    stop.store(true, Ordering::Relaxed);
    let samples = scraper.join().expect("soak scraper panicked");
    result?;
    Ok(SoakReport {
        batches,
        ops,
        elapsed_ns: started.elapsed().as_nanos() as u64,
        samples,
    })
}

/// What one worker thread tallied.
#[derive(Debug, Default, Clone, Copy)]
struct ThreadTally {
    ops: u64,
    setups: u64,
    admitted: u64,
    rejected: u64,
    released: u64,
}

/// Runs the configured load against a live server and aggregates the
/// per-thread tallies.
///
/// # Errors
///
/// Connection failures, codec failures, or an unexpected reply shape
/// (e.g. the server answered SETUP with something other than
/// ADMITTED / REJECTED / ERROR).
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, WireError> {
    let threads = config.threads.max(1);
    let per_thread = config.ops / threads as u64;
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let cfg = config.clone();
        let ops = if t == 0 {
            // First thread absorbs the division remainder.
            config.ops - per_thread * (threads as u64 - 1)
        } else {
            per_thread
        };
        handles.push(thread::spawn(move || worker(&cfg, t, ops)));
    }
    let mut tally = ThreadTally::default();
    let mut first_err = None;
    for handle in handles {
        match handle.join().expect("load worker panicked") {
            Ok(t) => {
                tally.ops += t.ops;
                tally.setups += t.setups;
                tally.admitted += t.admitted;
                tally.rejected += t.rejected;
                tally.released += t.released;
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(LoadReport {
        ops: tally.ops,
        setups: tally.setups,
        admitted: tally.admitted,
        rejected: tally.rejected,
        released: tally.released,
        elapsed_ns: start.elapsed().as_nanos() as u64,
    })
}

/// One generator thread: connect, learn the topology, fire its share of
/// the ops, then release everything it still holds.
fn worker(config: &LoadConfig, index: usize, ops: u64) -> Result<ThreadTally, WireError> {
    let mut client = Client::connect(&config.addr).map_err(WireError::Io)?;
    let Response::ServerInfo {
        nodes, terminals, ..
    } = client.hello()?
    else {
        return Err(WireError::BadPayload(
            "HELLO was not answered by SERVER-INFO",
        ));
    };
    let routes = route_pool(
        nodes as usize,
        terminals as usize,
        config.seed ^ index as u64,
    )?;
    let mut rng = SimRng::seed_from_u64(
        config
            .seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(index as u64),
    );

    let mut tally = ThreadTally::default();
    // Whether each in-flight frame is a SETUP, in send order: the
    // session answers FIFO.
    let mut inflight: VecDeque<bool> = VecDeque::new();
    let mut to_release: Vec<u64> = Vec::new();
    let mut sent = 0u64;
    while sent < ops || !inflight.is_empty() {
        while inflight.len() < PIPELINE && sent < ops {
            // Roughly alternate setups and releases so occupancy stays
            // bounded and the op mix is the paper's setup/teardown churn.
            let is_setup = if to_release.is_empty() {
                true
            } else if to_release.len() >= 16 {
                false
            } else {
                rng.next_u64() & 1 == 0
            };
            if is_setup {
                let links = &routes[rng.gen_below(routes.len() as u64) as usize];
                client.send(&Request::Setup {
                    links: links.clone(),
                    request: random_request(&mut rng),
                })?;
            } else {
                let id = to_release.swap_remove(rng.gen_below(to_release.len() as u64) as usize);
                client.send(&Request::Release { id })?;
            }
            inflight.push_back(is_setup);
            sent += 1;
        }
        client.flush()?;
        if let Some(is_setup) = inflight.pop_front() {
            settle(&mut client, is_setup, &mut tally, &mut to_release)?;
        }
    }
    // Cleanup: the run is over; release everything still held so the
    // server's final audit sees a quiescent engine. Not counted as ops.
    for id in to_release.drain(..) {
        let _ = client.release(id)?;
    }
    Ok(tally)
}

/// Receives and books one FIFO reply.
fn settle(
    client: &mut Client,
    is_setup: bool,
    tally: &mut ThreadTally,
    to_release: &mut Vec<u64>,
) -> Result<(), WireError> {
    let reply = client.recv()?;
    tally.ops += 1;
    if is_setup {
        tally.setups += 1;
        match reply {
            Response::Admitted { id, .. } => {
                tally.admitted += 1;
                to_release.push(id);
            }
            Response::Rejected { .. } => tally.rejected += 1,
            Response::Error { .. } => tally.rejected += 1,
            _ => return Err(WireError::BadPayload("SETUP answered by a non-setup reply")),
        }
    } else {
        match reply {
            Response::Released { .. } | Response::Error { .. } => tally.released += 1,
            _ => {
                return Err(WireError::BadPayload(
                    "RELEASE answered by a non-release reply",
                ))
            }
        }
    }
    Ok(())
}

/// Builds a pool of randomized terminal-to-terminal routes (as external
/// link-id lists) over a locally rebuilt copy of the served star-ring.
///
/// The mix is locality-heavy — 7 of 8 routes stay on the source's own
/// ring switch, the rest cross the ring — matching the paper's RTnet
/// usage where terminals mostly talk through their local switch. (It
/// also keeps per-port occupancy, and hence per-admission cost, from
/// being dominated by a few long ring paths.)
fn route_pool(nodes: usize, terminals: usize, seed: u64) -> Result<Vec<Vec<u32>>, WireError> {
    let sr = builders::star_ring(nodes, terminals)
        .map_err(|_| WireError::BadPayload("server topology cannot be rebuilt locally"))?;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pool = Vec::with_capacity(ROUTES_PER_THREAD);
    while pool.len() < ROUTES_PER_THREAD {
        let src = (
            rng.gen_below(nodes as u64) as usize,
            rng.gen_below(terminals as u64) as usize,
        );
        let dst = if terminals > 1 && rng.gen_below(8) != 0 {
            // Local: another terminal on the same ring switch.
            let j = (src.1 + 1 + rng.gen_below(terminals as u64 - 1) as usize) % terminals;
            (src.0, j)
        } else {
            // Cross-ring: a terminal on a different switch.
            let k = (src.0 + 1 + rng.gen_below(nodes as u64 - 1) as usize) % nodes;
            (k, rng.gen_below(terminals as u64) as usize)
        };
        if src == dst {
            continue;
        }
        let route = sr
            .terminal_route(src, dst)
            .map_err(|_| WireError::BadPayload("terminal route construction failed"))?;
        pool.push(route.links().iter().map(|l| l.index() as u32).collect());
    }
    Ok(pool)
}

/// A small CBR request whose rate varies so the load is not one single
/// cached admission decision over and over.
fn random_request(rng: &mut SimRng) -> SetupRequest {
    let denominator = 64i128 << rng.gen_below(4); // 1/64 .. 1/512 of a link
    let contract = TrafficContract::cbr(
        CbrParams::new(Rate::new(ratio(1, denominator))).expect("load CBR rate is valid"),
    );
    SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000_000))
}

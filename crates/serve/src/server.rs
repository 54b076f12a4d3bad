//! The resident admission server: sessions, ownership, drain.
//!
//! One OS thread per client session reads frames off the socket,
//! dispatches them and writes the replies. Each session prices its own
//! unicast setups, under a permit of the engine's [`ServicePool`] (so
//! admission CPU is bounded by the worker count, not the session
//! count); multicast setups, releases and queries hit the engine
//! directly. Every session tracks the connections *it* admitted, and a
//! session that ends for any reason — clean close, socket error, or a
//! client that simply vanishes mid-burst — releases its surviving
//! reservations before the thread exits, so a dead client can never
//! leak capacity.
//!
//! DRAIN puts the engine into drain mode (new setups are refused with a
//! typed rejection, existing guarantees are kept), stops the accept
//! loop, and gives every live session a grace window to finish its
//! releases; the shutdown path then runs the engine's
//! orphaned-reservation audit and `verify_guarantees`, so "the service
//! shut down cleanly" is a checked property, not a hope.

use std::collections::HashSet;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rtcac_bitstream::Time;
use rtcac_cac::{ConnectionId, SwitchConfig};
use rtcac_engine::{AdmissionEngine, EngineError, EngineOutcome, ServicePool};
use rtcac_net::{builders, LinkId, MulticastTree, Route};
use rtcac_obs::series::DEFAULT_TICKS;
use rtcac_obs::{
    Counter, FlightConfig, FlightRecorder, Gauge, Histogram, Registry, Sampler, Sampling, Tracer,
};
use rtcac_signaling::CdvPolicy;

use crate::metrics_http::spawn_metrics_endpoint;
use crate::proto::{rejection_class, ErrorCode, Request, Response};
use crate::wire::{holds_frame, read_frame, write_frame, WireError};

/// How often blocked reads wake up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Idle poll ticks a session survives after shutdown begins before it
/// closes (the grace window for clients still sending releases).
const DRAIN_GRACE_POLLS: u32 = 20; // 20 × 25 ms = 500 ms

/// Configuration of [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to listen on (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Optional address for the HTTP metrics exposition endpoint.
    pub metrics_addr: Option<String>,
    /// Ring switches of the served star-ring.
    pub nodes: usize,
    /// Terminals per ring switch.
    pub terminals: usize,
    /// The uniform advertised per-hop delay bound, in cell times.
    pub bound: Time,
    /// Unicast setups the [`ServicePool`] lets sessions price at once.
    pub workers: usize,
    /// Run without metric recording: the engine gets no registry and
    /// every service-level handle is a no-op (near-zero observability
    /// cost; the exposition endpoint then serves an empty snapshot).
    pub snapshot_free: bool,
    /// Warm-restart state file. When set, the server restores from it
    /// on boot (a missing file is a cold start; a corrupt or
    /// inconsistent file is refused and the server goes down without
    /// serving) and writes it atomically on DRAIN — plus periodically,
    /// per [`ServeConfig::snapshot_every`].
    pub snapshot_path: Option<String>,
    /// Seconds between periodic snapshot saves (requires
    /// [`ServeConfig::snapshot_path`]; `None` = save on drain only).
    pub snapshot_every: Option<u64>,
    /// Flight-recorder dump directory. When set (and the server is not
    /// running snapshot-free), a 1 s registry sampler and an always-on
    /// flight recorder are armed: anomalies (orphans, lock-hold
    /// watchdog, resident-byte jumps, panics) dump a bounded black box
    /// here, and the DUMP wire op forces one on demand.
    pub flight_dir: Option<String>,
    /// Sampler tick interval in milliseconds (the flight recorder's
    /// time resolution). Tests shrink this; operators keep the 1 s
    /// default.
    pub flight_tick_ms: u64,
    /// Override of the engine's lock-hold watchdog threshold, in
    /// nanoseconds. `Some(0)` makes every setup trip the watchdog —
    /// the CI lever for forcing a flight dump on demand.
    pub lock_hold_threshold_ns: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7047".into(),
            metrics_addr: None,
            nodes: 16,
            terminals: 4,
            bound: Time::from_integer(64),
            workers: 4,
            snapshot_free: false,
            snapshot_path: None,
            snapshot_every: None,
            flight_dir: None,
            flight_tick_ms: 1000,
            lock_hold_threshold_ns: None,
        }
    }
}

/// What the shutdown path found after the last session closed.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// Client sessions served over the server's lifetime.
    pub sessions: u64,
    /// Connections released by session cleanup (dead or lazy clients).
    pub cleanup_released: u64,
    /// Orphaned reservations found by the final audit (must be 0).
    pub orphans: usize,
    /// Guarantee violations found by the final audit (must be empty).
    pub violations: usize,
    /// Connections still established after drain (guarantees kept).
    pub active: usize,
    /// Why the boot-time snapshot restore failed, when it did — the
    /// server refused the snapshot and drained without serving traffic.
    pub restore_failed: Option<String>,
    /// `<path>: <error>` of the last snapshot save, when that save
    /// failed (a later successful save clears it). Not part of
    /// [`DrainSummary::is_clean`].
    pub save_failed: Option<String>,
}

impl DrainSummary {
    /// Whether the shutdown left the engine in a provably clean state.
    pub fn is_clean(&self) -> bool {
        self.orphans == 0 && self.violations == 0 && self.restore_failed.is_none()
    }
}

/// Service-level failures of [`Server::start`].
#[derive(Debug)]
pub enum ServeError {
    /// A listener could not be bound.
    Io(std::io::Error),
    /// The served topology could not be built.
    Build(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "cannot bind: {e}"),
            ServeError::Build(e) => write!(f, "cannot build the served network: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Shared state every session thread sees.
struct ServiceState {
    engine: Arc<AdmissionEngine>,
    pool: ServicePool,
    recorder: Option<Arc<FlightRecorder>>,
    shutdown: AtomicBool,
    restoring: Arc<AtomicBool>,
    restore_error: Mutex<Option<String>>,
    snapshot_path: Option<PathBuf>,
    snapshot_every: Option<Duration>,
    last_save: Mutex<Option<Instant>>,
    save_error: Mutex<Option<String>>,
    info: (u32, u32, u8, Time),
    admitted: AtomicU64,
    rejected: AtomicU64,
    released: AtomicU64,
    cleanup_released: AtomicU64,
    last_orphans: AtomicU64,
    m_admitted: Counter,
    m_rejected: Counter,
    m_released: Counter,
    m_cleanup: Counter,
    m_wire_errors: Counter,
    m_reply_flushes: Counter,
    m_sessions: Counter,
    m_active: Gauge,
    m_draining: Gauge,
    m_snapshot_save_ns: Histogram,
    m_snapshot_save_failures: Counter,
    m_snapshot_restore_ns: Histogram,
    m_snapshot_bytes: Gauge,
    m_snapshot_age_seconds: Gauge,
    m_snapshot_restore_ok: Gauge,
}

impl ServiceState {
    fn active(&self) -> u64 {
        self.engine.connection_count() as u64
    }

    /// Restores the engine from the configured snapshot file, if any.
    /// Runs on the accept thread before any request is dispatched;
    /// sessions accepted meanwhile get the typed `SnapshotRestoring`
    /// error. A missing file is a cold start. On success the restored
    /// engine has already passed the guarantee and orphan audits; on
    /// refusal nothing was loaded and the server goes down unserved.
    fn restore_on_boot(&self) -> Result<(), String> {
        let Some(path) = &self.snapshot_path else {
            return Ok(());
        };
        if !path.exists() {
            return Ok(());
        }
        let started = Instant::now();
        let result =
            rtcac_snap::load_file(path).and_then(|doc| rtcac_snap::adopt_into(&self.engine, &doc));
        match result {
            Ok(()) => {
                self.m_snapshot_restore_ns
                    .record(started.elapsed().as_nanos() as u64);
                self.m_snapshot_restore_ok.set(1);
                self.m_active.set(self.active());
                // Seed the file gauges from the restored snapshot so a
                // scrape right after boot reads its real size and age,
                // and backdate the periodic-save clock to the file's
                // mtime so the save cadence counts from the last
                // on-disk write, not from this boot.
                if let Ok(meta) = std::fs::metadata(path) {
                    self.m_snapshot_bytes.set(meta.len());
                    let age = meta
                        .modified()
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .unwrap_or_default();
                    self.m_snapshot_age_seconds.set(age.as_secs());
                    *self.last_save.lock().expect("snapshot clock") =
                        Instant::now().checked_sub(age);
                }
                Ok(())
            }
            Err(e) => {
                self.m_snapshot_restore_ok.set(0);
                Err(format!("snapshot {}: {e}", path.display()))
            }
        }
    }

    /// Writes the current engine state to the configured snapshot file
    /// (atomic temp-then-rename). A failure is counted in
    /// `snapshot_save_failures_total` on the server's registry and kept,
    /// with its path, for the [`DrainSummary`]; it is not fatal — a full
    /// disk must not take the admission plane down.
    fn save_snapshot(&self) {
        let Some(path) = &self.snapshot_path else {
            return;
        };
        let started = Instant::now();
        let doc = rtcac_snap::snapshot_engine(&self.engine, "rtcac-serve");
        let failed = match rtcac_snap::save_atomic(&doc, path) {
            Ok(bytes) => {
                self.m_snapshot_save_ns
                    .record(started.elapsed().as_nanos() as u64);
                self.m_snapshot_bytes.set(bytes);
                self.m_snapshot_age_seconds.set(0);
                *self.last_save.lock().expect("snapshot clock") = Some(Instant::now());
                None
            }
            Err(e) => {
                self.m_snapshot_save_failures.inc();
                Some(format!("{}: {e}", path.display()))
            }
        };
        *self.save_error.lock().expect("save error slot") = failed;
    }

    /// Periodic-save tick, called from the accept loop's poll path:
    /// refreshes the age gauge and saves when the configured interval
    /// has elapsed. Gated on the boot restore: while the restore is
    /// still running — or after it was refused — a tick here would
    /// snapshot the empty pre-adopt engine and clobber the very file
    /// being restored, so it does nothing instead. (The refusal is
    /// published before the restoring gate clears, so checking the
    /// gate first makes the error check race-free.)
    fn snapshot_tick(&self) {
        if self.snapshot_path.is_none() || self.restoring.load(Ordering::SeqCst) {
            return;
        }
        if self
            .restore_error
            .lock()
            .expect("restore error slot")
            .is_some()
        {
            return;
        }
        let last = *self.last_save.lock().expect("snapshot clock");
        if let Some(last) = last {
            self.m_snapshot_age_seconds.set(last.elapsed().as_secs());
        }
        let Some(every) = self.snapshot_every else {
            return;
        };
        if last.is_none_or(|t| t.elapsed() >= every) {
            self.save_snapshot();
        }
    }
}

/// A running admission service. Start with [`Server::start`], then
/// either block in [`Server::join`] (the CLI does) or keep the handle
/// around and talk to [`Server::addr`] from the same process (tests
/// do).
pub struct Server {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    state: Arc<ServiceState>,
    registry: Arc<Registry>,
    accept: Option<thread::JoinHandle<DrainSummary>>,
    /// The 1 s registry sampler feeding the flight recorder; kept here
    /// so dropping the server joins its thread.
    sampler: Option<Sampler>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("metrics_addr", &self.metrics_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Builds the star-ring engine, binds the listeners, and spawns the
    /// accept loop (plus the metrics endpoint when configured).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when an address cannot be bound,
    /// [`ServeError::Build`] when the topology parameters are invalid.
    pub fn start(config: &ServeConfig) -> Result<Server, ServeError> {
        let registry = Arc::new(Registry::new());
        let sr = builders::star_ring(config.nodes, config.terminals)
            .map_err(|e| ServeError::Build(e.to_string()))?;
        let switch_config =
            SwitchConfig::uniform(1, config.bound).map_err(|e| ServeError::Build(e.to_string()))?;
        let flight_armed = config.flight_dir.is_some() && !config.snapshot_free;
        let mut engine = if config.snapshot_free {
            AdmissionEngine::new(sr.topology().clone(), switch_config, CdvPolicy::Hard)
        } else {
            AdmissionEngine::with_registry(
                sr.topology().clone(),
                switch_config,
                CdvPolicy::Hard,
                Arc::clone(&registry),
            )
        };
        if flight_armed {
            // A flight-enabled server keeps rejection span trees: the
            // black box embeds recent spans, and the rejection-reason
            // exemplars need trace ids to point at. RejectsOnly is the
            // cheapest live setting — admitted setups pay one branch.
            engine.set_tracer(Tracer::with_registry(
                Sampling::RejectsOnly,
                Arc::clone(&registry),
            ));
        }
        if let Some(ns) = config.lock_hold_threshold_ns {
            engine.set_lock_hold_threshold_ns(ns);
        }
        let engine = Arc::new(engine);
        let pool = ServicePool::new(Arc::clone(&engine), config.workers);
        let (recorder, sampler) = if flight_armed {
            let dir = config.flight_dir.as_deref().unwrap_or("flight");
            let recorder = FlightRecorder::new(
                Arc::clone(&registry),
                FlightConfig {
                    dir: PathBuf::from(dir),
                    ..FlightConfig::default()
                },
            );
            let span_engine = Arc::clone(&engine);
            recorder.set_span_provider(Box::new(move || span_engine.tracer().snapshot()));
            let hook = Arc::clone(&recorder);
            engine.set_anomaly_hook(Arc::new(move |reason, detail| {
                hook.trigger(reason, detail);
            }));
            FlightRecorder::install_panic_hook(&recorder);
            let ticker = Arc::clone(&recorder);
            let tick_engine = Arc::clone(&engine);
            let resident_gauge = registry.gauge("engine_resident_bytes");
            let sampler = Sampler::spawn_with_observer(
                Arc::clone(&registry),
                Duration::from_millis(config.flight_tick_ms.max(10)),
                DEFAULT_TICKS,
                Some(Box::new(move |series, _snapshot| {
                    if let Some(tick) = series.latest() {
                        ticker.observe_tick(tick);
                    }
                    // Refresh the resident gauge for the *next* tick, so
                    // the jump trigger works even when nobody scrapes
                    // `/metrics` (scrapes refresh it too).
                    resident_gauge.set(tick_engine.resident_bytes() as u64);
                })),
            );
            (Some(recorder), Some(sampler))
        } else {
            (None, None)
        };
        let counter = |name: &str| {
            if config.snapshot_free {
                Counter::noop()
            } else {
                registry.counter(name)
            }
        };
        let gauge = |name: &str| {
            if config.snapshot_free {
                Gauge::noop()
            } else {
                registry.gauge(name)
            }
        };
        let snapshot_path = config.snapshot_path.as_ref().map(PathBuf::from);
        let has_snapshot = snapshot_path.as_ref().is_some_and(|p| p.exists());
        let histogram = |name: &str| {
            if config.snapshot_free {
                Histogram::noop()
            } else {
                registry.histogram(name)
            }
        };
        let state = Arc::new(ServiceState {
            engine,
            pool,
            recorder,
            shutdown: AtomicBool::new(false),
            restoring: Arc::new(AtomicBool::new(has_snapshot)),
            restore_error: Mutex::new(None),
            snapshot_path,
            snapshot_every: config.snapshot_every.map(Duration::from_secs),
            // Start the periodic-save clock at boot: the first interval
            // counts from here (or from the restored file's mtime once
            // the boot restore backdates it), never "immediately".
            last_save: Mutex::new(Some(Instant::now())),
            save_error: Mutex::new(None),
            info: (
                config.nodes as u32,
                config.terminals as u32,
                1,
                config.bound,
            ),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            released: AtomicU64::new(0),
            cleanup_released: AtomicU64::new(0),
            last_orphans: AtomicU64::new(0),
            m_admitted: counter("serve_setups_admitted_total"),
            m_rejected: counter("serve_setups_rejected_total"),
            m_released: counter("serve_releases_total"),
            m_cleanup: counter("serve_cleanup_releases_total"),
            m_wire_errors: counter("serve_wire_errors_total"),
            m_reply_flushes: counter("serve_reply_flushes_total"),
            m_sessions: counter("serve_sessions_total"),
            m_active: gauge("serve_active_connections"),
            m_draining: gauge("serve_draining"),
            m_snapshot_save_ns: histogram("snapshot_save_ns"),
            m_snapshot_save_failures: counter("snapshot_save_failures_total"),
            m_snapshot_restore_ns: histogram("snapshot_restore_ns"),
            m_snapshot_bytes: gauge("snapshot_bytes"),
            m_snapshot_age_seconds: gauge("snapshot_age_seconds"),
            m_snapshot_restore_ok: gauge("snapshot_restore_ok"),
        });

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics_addr = match &config.metrics_addr {
            Some(maddr) => Some(spawn_metrics_endpoint(
                maddr,
                Arc::clone(&registry),
                Arc::clone(&state.engine),
                Arc::clone(&state.restoring),
            )?),
            None => None,
        };

        let accept_state = Arc::clone(&state);
        let accept = thread::spawn(move || accept_loop(&listener, &accept_state));
        Ok(Server {
            addr,
            metrics_addr,
            state,
            registry,
            accept: Some(accept),
            sampler,
        })
    }

    /// The bound service address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics endpoint address, when configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The served engine (tests assert on its audits directly).
    pub fn engine(&self) -> &Arc<AdmissionEngine> {
        &self.state.engine
    }

    /// The metrics registry backing the exposition endpoint.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The armed flight recorder, when the server was started with a
    /// flight directory (tests assert on its dump count directly).
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.state.recorder.as_ref()
    }

    /// The registry sampler feeding the flight recorder, when armed.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// Whether a DRAIN has been requested.
    pub fn is_draining(&self) -> bool {
        self.state.shutdown.load(Ordering::Relaxed)
    }

    /// Requests a drain from within the process — identical to a
    /// client's DRAIN frame.
    pub fn request_drain(&self) {
        begin_drain(&self.state);
    }

    /// Blocks until the service has drained and every session closed,
    /// returning the shutdown audit.
    pub fn join(mut self) -> DrainSummary {
        let handle = self.accept.take().expect("join called once");
        handle.join().expect("accept loop panicked")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.accept.take() {
            begin_drain(&self.state);
            let _ = handle.join();
        }
    }
}

/// Flips the service into drain mode: the engine refuses new setups
/// (typed `Draining` rejection), the accept loop stops, sessions get
/// their grace window.
fn begin_drain(state: &ServiceState) {
    state.engine.set_draining(true);
    state.m_draining.set(1);
    state.shutdown.store(true, Ordering::SeqCst);
}

/// The accept loop: non-blocking accept + shutdown poll, then the
/// drain/audit sequence once shutdown is requested.
fn accept_loop(listener: &TcpListener, state: &Arc<ServiceState>) -> DrainSummary {
    // Boot-time warm restart: the listener is already bound (so a
    // restart doesn't lose the port race) and sessions are accepted
    // while the restore runs — but dispatch is gated, so every request
    // meanwhile is answered with the typed `SnapshotRestoring` error
    // and clients back off and retry instead of hanging on shard locks.
    if state.restoring.load(Ordering::SeqCst) {
        let restore_state = Arc::clone(state);
        thread::spawn(move || {
            if let Err(why) = restore_state.restore_on_boot() {
                *restore_state
                    .restore_error
                    .lock()
                    .expect("restore error slot") = Some(why);
                begin_drain(&restore_state);
            }
            restore_state.restoring.store(false, Ordering::SeqCst);
        });
    }
    let mut sessions: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut served = 0u64;
    loop {
        if state.shutdown.load(Ordering::Relaxed) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                served += 1;
                state.m_sessions.inc();
                let session_state = Arc::clone(state);
                sessions.push(thread::spawn(move || session(&session_state, stream)));
                // Opportunistically reap finished sessions so a
                // long-lived server does not accumulate dead handles.
                sessions.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                state.snapshot_tick();
                thread::sleep(POLL_INTERVAL);
            }
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
    // Drain: every session notices the shutdown flag within one poll
    // interval and exits after its grace window, releasing whatever its
    // client left behind.
    for handle in sessions {
        let _ = handle.join();
    }
    state.pool.shutdown();
    let restore_failed = state
        .restore_error
        .lock()
        .expect("restore error slot")
        .clone();
    // The drain-point snapshot: the engine is quiescent now, so this is
    // the consistent cut a warm restart will resume from. Skipped when
    // the boot restore failed — an empty engine must not clobber the
    // (possibly repairable) snapshot that was refused.
    if restore_failed.is_none() {
        state.save_snapshot();
    }
    let orphans = state.engine.publish_orphan_audit();
    state.last_orphans.store(orphans as u64, Ordering::Relaxed);
    let violations = state
        .engine
        .verify_guarantees()
        .map(|v| v.len())
        .unwrap_or(usize::MAX);
    DrainSummary {
        sessions: served,
        cleanup_released: state.cleanup_released.load(Ordering::Relaxed),
        orphans,
        violations,
        active: state.engine.connection_count(),
        restore_failed,
        save_failed: state.save_error.lock().expect("save error slot").clone(),
    }
}

/// One client session: frame loop, dispatch, and cleanup-on-exit.
fn session(state: &Arc<ServiceState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut owned: HashSet<u64> = HashSet::new();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let mut idle_polls = 0u32;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(payload) => payload,
            Err(e) if e.is_timeout() => {
                if state.shutdown.load(Ordering::Relaxed) {
                    idle_polls += 1;
                    if idle_polls >= DRAIN_GRACE_POLLS {
                        break; // grace window over; cleanup releases the rest
                    }
                }
                continue;
            }
            Err(WireError::Closed) => break,
            Err(e @ (WireError::Oversized { .. } | WireError::Runt { .. })) => {
                // Framing itself is broken: answer once, then close
                // (the stream can no longer be trusted to resync).
                state.m_wire_errors.inc();
                let reply = Response::Error {
                    code: ErrorCode::BadPayload,
                    message: e.to_string(),
                };
                let _ = write_frame(&mut writer, &reply.encode());
                state.m_reply_flushes.inc();
                let _ = writer.flush();
                break;
            }
            Err(_) => break, // socket-level failure
        };
        idle_polls = 0;
        let reply = match Request::decode(&payload) {
            Ok(request) => dispatch(state, &mut owned, request),
            Err(e) => {
                // The frame was well-delimited but its content is not a
                // valid request: typed error, session survives.
                state.m_wire_errors.inc();
                let code = match e {
                    WireError::UnsupportedVersion { .. } => ErrorCode::UnsupportedVersion,
                    WireError::UnknownFrame { .. } => ErrorCode::UnknownFrame,
                    _ => ErrorCode::BadPayload,
                };
                Some(Response::Error {
                    code,
                    message: e.to_string(),
                })
            }
        };
        let Some(reply) = reply else { break };
        if write_frame(&mut writer, &reply.encode()).is_err() {
            break;
        }
        // One write per read batch: replies wait in the writer while
        // the next frame is already whole in the read buffer (reading
        // it costs no syscall and cannot block), and go out together
        // before any read that could.
        if !holds_frame(reader.buffer()) {
            state.m_reply_flushes.inc();
            if writer.flush().is_err() {
                break;
            }
        }
    }
    // Session cleanup: whatever this client still owns is released, so
    // a vanished client cannot leak reservations. A release that fails
    // with `UnknownConnection` is expected here (a fault may have torn
    // the connection down first) and is not an error.
    for id in owned {
        if state.engine.release(ConnectionId::new(id)).is_ok() {
            state.cleanup_released.fetch_add(1, Ordering::Relaxed);
            state.m_cleanup.inc();
        }
    }
    state.m_active.set(state.active());
}

/// Handles one decoded request. `None` means "close the session now"
/// (never used for protocol replies today, but keeps the loop honest).
fn dispatch(
    state: &Arc<ServiceState>,
    owned: &mut HashSet<u64>,
    request: Request,
) -> Option<Response> {
    if state.restoring.load(Ordering::SeqCst) {
        // The engine is being rebuilt from a snapshot: nothing is
        // dispatched (not even HELLO — the topology answer would be
        // served from an engine mid-swap). Typed error, session
        // survives, clients retry after a backoff.
        return Some(Response::Error {
            code: ErrorCode::SnapshotRestoring,
            message: "server is restoring state from a snapshot; retry shortly".into(),
        });
    }
    let response = match request {
        Request::Hello => {
            let (nodes, terminals, levels, bound) = state.info;
            Response::ServerInfo {
                nodes,
                terminals,
                levels,
                bound,
            }
        }
        Request::Setup { links, request } => {
            let route = match Route::new(
                state.engine.topology(),
                links.iter().map(|&i| LinkId::external(i)),
            ) {
                Ok(route) => route,
                Err(e) => {
                    return Some(Response::Error {
                        code: ErrorCode::BadRoute,
                        message: e.to_string(),
                    })
                }
            };
            match state.pool.admit(route, request) {
                Ok(outcome) => setup_response(state, owned, outcome),
                Err(e) => Response::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                },
            }
        }
        Request::SetupMcast { links, request } => {
            let tree = match MulticastTree::new(
                state.engine.topology(),
                links.iter().map(|&i| LinkId::external(i)),
            ) {
                Ok(tree) => tree,
                Err(e) => {
                    return Some(Response::Error {
                        code: ErrorCode::BadRoute,
                        message: e.to_string(),
                    })
                }
            };
            match state.engine.admit_multicast(&tree, request) {
                Ok(outcome) => setup_response(state, owned, outcome),
                Err(e) => Response::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                },
            }
        }
        Request::Release { id } => {
            if !owned.contains(&id) {
                Response::Error {
                    code: ErrorCode::NotOwner,
                    message: format!("connection c{id} is not owned by this session"),
                }
            } else {
                match state.engine.release(ConnectionId::new(id)) {
                    Ok(()) => {
                        owned.remove(&id);
                        state.released.fetch_add(1, Ordering::Relaxed);
                        state.m_released.inc();
                        state.m_active.set(state.active());
                        Response::Released { id }
                    }
                    Err(EngineError::UnknownConnection(_)) => {
                        // Torn down underneath us by a fault; the
                        // session's claim is simply gone.
                        owned.remove(&id);
                        Response::Error {
                            code: ErrorCode::UnknownConnection,
                            message: format!("connection c{id} is not established"),
                        }
                    }
                    Err(e) => Response::Error {
                        code: ErrorCode::Internal,
                        message: e.to_string(),
                    },
                }
            }
        }
        Request::Query { id } => match state.engine.guaranteed_delay(ConnectionId::new(id)) {
            Some(delay) => Response::QueryResult {
                found: true,
                guaranteed_delay: delay,
            },
            None => Response::QueryResult {
                found: false,
                guaranteed_delay: Time::ZERO,
            },
        },
        Request::Drain => {
            begin_drain(state);
            Response::Draining {
                active: state.active(),
            }
        }
        Request::Stats => Response::StatsReply {
            active: state.active(),
            admitted: state.admitted.load(Ordering::Relaxed),
            rejected: state.rejected.load(Ordering::Relaxed),
            released: state.released.load(Ordering::Relaxed),
            orphans: state.last_orphans.load(Ordering::Relaxed),
            draining: state.shutdown.load(Ordering::Relaxed),
        },
        Request::Dump => match &state.recorder {
            Some(recorder) => match recorder.force_dump("wire", "DUMP frame") {
                Ok(path) => Response::Dumped {
                    path: path.display().to_string(),
                    dumps: recorder.dumps_written(),
                },
                Err(e) => Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("flight dump failed: {e}"),
                },
            },
            None => Response::Error {
                code: ErrorCode::Internal,
                message: "no flight recorder armed (start the server with a flight dir)".into(),
            },
        },
    };
    Some(response)
}

/// Books one setup outcome: ownership, counters, and the wire reply.
fn setup_response(
    state: &Arc<ServiceState>,
    owned: &mut HashSet<u64>,
    outcome: EngineOutcome,
) -> Response {
    match outcome {
        EngineOutcome::Admitted {
            id,
            guaranteed_delay,
        } => {
            owned.insert(id.raw());
            state.admitted.fetch_add(1, Ordering::Relaxed);
            state.m_admitted.inc();
            state.m_active.set(state.active());
            Response::Admitted {
                id: id.raw(),
                guaranteed_delay,
                attempts: 0,
            }
        }
        EngineOutcome::Rerouted {
            id,
            guaranteed_delay,
            attempts,
            ..
        } => {
            owned.insert(id.raw());
            state.admitted.fetch_add(1, Ordering::Relaxed);
            state.m_admitted.inc();
            state.m_active.set(state.active());
            Response::Admitted {
                id: id.raw(),
                guaranteed_delay,
                attempts: attempts as u32,
            }
        }
        EngineOutcome::Rejected { id, rejection } => {
            state.rejected.fetch_add(1, Ordering::Relaxed);
            state.m_rejected.inc();
            Response::Rejected {
                id: id.raw(),
                code: rejection_class(&rejection),
                detail: rejection.to_string(),
            }
        }
    }
}

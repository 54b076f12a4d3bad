//! The measured loops.
//!
//! **sat** — closed loop: callers that wait for replies. On the wire,
//! two connections each keep a window of 16 frames in flight; on the
//! direct entry point, threads call `admit`/`release` back to back.
//! Gives throughput and CPU cost; its latency is window ÷ throughput
//! and is reported only as a layer sanity number.
//!
//! **paced** — open loop on one connection (or one thread): a sender on
//! a fixed schedule, a receiver on the cloned stream, SETUP latency
//! timed *from the due time* so a stall is charged to every op it
//! delays, generator lateness reported beside it.
//!
//! A loop keeps its connections and threads for its whole life and
//! replays its fixed streams over and over; each replay is one
//! *segment* — a round of fixed op count from the same fabric state.
//! The loops of a run take turns, a few seconds each, round after
//! round, so that every metric samples the whole run: this box slows
//! down by 10–40 % for seconds at a time with nothing in `/proc/stat`
//! to show for it, and a metric measured in one stretch is at the
//! mercy of that stretch. A paused loop keeps its connections open.
//!
//! The first segments of a loop are thrown away: for its first second
//! or so under load the guest keeps the threads of a fresh connection
//! on one CPU, which runs the hand-off-heavy wire path at up to twice
//! its steady speed. So is the first segment after every pause.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread::{self, Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use rtcac_engine::AdmissionEngine;
use rtcac_serve::{Client, Request, Response};

use crate::cpu;
use crate::fabric::Inputs;
use crate::gen::Op;
use crate::sink::{
    book_setup, replay, wire_reply, Call, EngineSink, Sink, Tally, PENDING, REFUSED,
};
use crate::span::Span;

/// Frames each closed-loop connection keeps in flight.
pub const WINDOW: usize = 16;
/// Closed-loop connections (and direct threads): `nproc` on the box
/// the bounds were measured on.
pub const CLIENTS: usize = 2;
/// An op unanswered this long after it was due to be read is failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(1);
/// A segment that lost more than this share of its wall time to the
/// host is left out of the medians.
const STEAL_LIMIT: f64 = 0.02;
/// So is a segment in which a single thread's calls took this much
/// longer than the same calls in the loop's fastest segment.
const SLOWER_LIMIT: f64 = 0.10;

/// What one segment of a loop measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    pub elapsed_ns: u64,
    /// Process user+system time over the segment.
    pub cpu_us: u64,
    /// Host steal share of the segment's wall time.
    pub steal: f64,
    /// Direct loops: time spent inside the program's calls. A segment
    /// replays the same calls every time, so this is the segment's own
    /// measure of how much the host disturbed it.
    pub busy_ns: u64,
    /// Per-SETUP latency: send→reply (sat), due→reply (paced), or the
    /// call's duration (direct).
    pub setup_ns: Vec<u64>,
    /// Per-RELEASE call duration (direct loops only).
    pub release_ns: Vec<u64>,
    /// Paced: how late each op left the generator.
    pub late_ns: Vec<u64>,
    /// Paced: most ops sent and not yet answered.
    pub backlog_max: u64,
    /// One span per op, when the loop was asked to trace.
    pub spans: Vec<Span>,
}

/// The span of one timed call, on the trace's clock.
pub fn span_of(name: &'static str, epoch: Instant, call: &Call) -> Span {
    let start_ns = call.start.saturating_duration_since(epoch).as_nanos() as u64;
    Span {
        name,
        start_ns,
        end_ns: start_ns + call.ns,
        parent: None,
        op: call.op,
    }
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        self.tally.completed() as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_us as f64 / self.tally.completed().max(1) as f64
    }

    fn absorb(&mut self, other: Phase) {
        self.tally.add(&other.tally);
        self.setup_ns.extend(other.setup_ns);
        self.release_ns.extend(other.release_ns);
        self.late_ns.extend(other.late_ns);
        self.spans.extend(other.spans);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.busy_ns += other.busy_ns;
    }

    /// A segment in which nothing could be sent.
    fn all_failed(ops: &[Op]) -> Phase {
        Phase {
            tally: Tally {
                sent: ops.len() as u64,
                failed: ops.len() as u64,
                ..Tally::default()
            },
            ..Phase::default()
        }
    }
}

/// How long a loop runs when it runs alone.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Segments are thrown away until this much time has passed.
    pub settle: Duration,
    /// Then segments are kept until this much more has passed.
    pub measure: Duration,
}

/// What a loop measured over its life.
#[derive(Debug, Default)]
pub struct Segments {
    /// The kept segments, in order.
    pub kept: Vec<Phase>,
    /// Measured segments left out for host steal.
    pub discarded: usize,
    /// Everything sent, thrown-away segments included.
    pub tally: Tally,
}

/// A loop keeps at least this many segments: when fewer are
/// undisturbed, the least disturbed of the rest make up the number.
const MIN_SEGMENTS: usize = 3;

/// Which loop, over what.
#[derive(Clone, Copy)]
pub enum LoopSpec<'a> {
    /// Closed loop on the wire: one connection per stream × [`WINDOW`].
    SatWire {
        addr: SocketAddr,
        streams: &'a [Vec<Op>],
        trace: Option<Instant>,
    },
    /// Closed loop on the engine: one thread per stream calling
    /// `AdmissionEngine::admit`/`release` back to back.
    SatDirect {
        engine: &'a AdmissionEngine,
        streams: &'a [Vec<Op>],
        trace: Option<Instant>,
    },
    /// Open loop on the wire: one connection, a sender on a fixed
    /// schedule and a receiver on the cloned stream.
    PacedWire {
        addr: SocketAddr,
        ops: &'a [Op],
        rate: u64,
    },
    /// Open loop on the engine: one thread calling `admit`/`release`
    /// on a fixed schedule, SETUP latency from the due time to the
    /// return.
    PacedDirect {
        engine: &'a AdmissionEngine,
        ops: &'a [Op],
        rate: u64,
    },
}

impl LoopSpec<'_> {
    fn clients(&self) -> usize {
        match self {
            LoopSpec::SatWire { streams, .. } | LoopSpec::SatDirect { streams, .. } => {
                streams.len()
            }
            LoopSpec::PacedWire { .. } | LoopSpec::PacedDirect { .. } => 1,
        }
    }
}

/// What a loop's client keeps between segments.
enum Held {
    Nothing,
    Connection(Option<Client>),
    Duplex(Option<Duplex>),
}

impl Held {
    fn open(spec: &LoopSpec<'_>) -> Held {
        match *spec {
            LoopSpec::SatWire { addr, .. } => Held::Connection(Client::connect(addr).ok()),
            LoopSpec::PacedWire { addr, .. } => Held::Duplex(Duplex::open(addr).ok()),
            LoopSpec::SatDirect { .. } | LoopSpec::PacedDirect { .. } => Held::Nothing,
        }
    }
}

/// One segment of client `i` of a loop.
fn segment(spec: &LoopSpec<'_>, inputs: &Inputs, i: usize, held: &mut Held) -> Phase {
    match (*spec, held) {
        (LoopSpec::SatWire { streams, trace, .. }, Held::Connection(Some(client))) => {
            sat_segment(client, inputs, &streams[i], trace)
        }
        (LoopSpec::SatWire { streams, .. }, _) => Phase::all_failed(&streams[i]),
        (
            LoopSpec::SatDirect {
                engine,
                streams,
                trace,
            },
            _,
        ) => direct_segment(engine, inputs, &streams[i], trace),
        (LoopSpec::PacedWire { ops, rate, .. }, Held::Duplex(Some(duplex))) => {
            paced_segment(duplex, inputs, ops, rate)
        }
        (LoopSpec::PacedWire { ops, .. }, _) => Phase::all_failed(ops),
        (LoopSpec::PacedDirect { engine, ops, rate }, _) => {
            paced_direct_segment(engine, inputs, ops, rate)
        }
    }
}

/// What the timekeeper and a loop's clients share. Clients and the
/// timekeeper meet twice per segment: at `go` before it, at `done`
/// after it. A loop whose timekeeper stays away from `go` is paused,
/// its connections open and its threads asleep.
pub struct Control {
    go: Barrier,
    done: Barrier,
    stop: AtomicBool,
}

impl Control {
    pub fn new(spec: &LoopSpec<'_>) -> Control {
        Control {
            go: Barrier::new(spec.clients() + 1),
            done: Barrier::new(spec.clients() + 1),
            stop: AtomicBool::new(false),
        }
    }
}

/// What the timekeeper noted about one segment.
struct Mark {
    elapsed_ns: u64,
    cpu_us: u64,
    steal: f64,
    /// Whether the slice it ran in was a measured one.
    measured: bool,
}

/// A loop that has been started: its clients hold their connections
/// and wait to be told to run a segment.
pub struct Running<'s> {
    control: &'s Control,
    clients: Vec<ScopedJoinHandle<'s, Vec<Phase>>>,
    marks: Vec<Mark>,
}

/// Lets the clients go when the timekeeper unwinds between slices:
/// they wait at `go`, and the scope that owns them would otherwise
/// wait for them for ever.
impl Drop for Running<'_> {
    fn drop(&mut self) {
        if !self.clients.is_empty() {
            self.control.stop.store(true, Ordering::Release);
            self.control.go.wait();
        }
    }
}

/// Starts a loop's clients on `scope`. They run nothing until the
/// first [`Running::slice`].
pub fn start<'s>(
    scope: &'s Scope<'s, '_>,
    control: &'s Control,
    inputs: &'s Inputs,
    spec: LoopSpec<'s>,
) -> Running<'s> {
    let clients = (0..spec.clients())
        .map(|i| {
            scope.spawn(move || {
                let mut held = Held::open(&spec);
                let mut phases = Vec::new();
                loop {
                    control.go.wait();
                    if control.stop.load(Ordering::Acquire) {
                        return phases;
                    }
                    phases.push(segment(&spec, inputs, i, &mut held));
                    control.done.wait();
                }
            })
        })
        .collect();
    Running {
        control,
        clients,
        marks: Vec::new(),
    }
}

impl Running<'_> {
    /// Runs whole segments back to back until `duration` has passed
    /// (at least one), then leaves the loop paused. The first segment
    /// after a pause is never kept: the threads are only just awake.
    pub fn slice(&mut self, duration: Duration, measured: bool) {
        let begun = Instant::now();
        let mut first = true;
        loop {
            self.control.go.wait();
            let (start, cpu_before, host_before) =
                (Instant::now(), cpu::process_cpu_us(), cpu::host_ticks());
            self.control.done.wait();
            self.marks.push(Mark {
                elapsed_ns: start.elapsed().as_nanos() as u64,
                cpu_us: cpu::process_cpu_us().saturating_sub(cpu_before),
                steal: cpu::steal_share(host_before, cpu::host_ticks()),
                measured: measured && !first,
            });
            first = false;
            if begun.elapsed() >= duration {
                return;
            }
        }
    }

    /// Stops the clients and gathers what the loop measured.
    pub fn finish(mut self) -> Segments {
        self.control.stop.store(true, Ordering::Release);
        self.control.go.wait();
        let mut per_client: Vec<std::vec::IntoIter<Phase>> = std::mem::take(&mut self.clients)
            .into_iter()
            .map(|h| h.join().expect("loop client panicked").into_iter())
            .collect();
        let mut out = Segments::default();
        // Measured segments with their steal, for the ranking below.
        let mut measured: Vec<Phase> = Vec::new();
        for mark in std::mem::take(&mut self.marks) {
            let mut phase = Phase {
                elapsed_ns: mark.elapsed_ns,
                cpu_us: mark.cpu_us,
                steal: mark.steal,
                ..Phase::default()
            };
            for client in &mut per_client {
                phase.absorb(client.next().expect("a phase per segment per client"));
            }
            out.tally.add(&phase.tally);
            if mark.measured {
                measured.push(phase);
            }
        }
        // How disturbed each segment was, in units of the limit: stolen
        // time for every loop; for a single thread calling the engine,
        // also how much longer the same calls took than in the loop's
        // fastest segment — nothing but the host can make one thread's
        // identical work slower.
        let single = per_client.len() == 1;
        let fastest = measured.iter().map(|p| p.busy_ns).filter(|&b| b > 0).min();
        let disturbance = |p: &Phase| {
            let stolen = p.steal / STEAL_LIMIT;
            match fastest {
                Some(fastest) if single && p.busy_ns > 0 => {
                    let slower = p.busy_ns as f64 / fastest as f64 - 1.0;
                    stolen.max(slower / SLOWER_LIMIT)
                }
                _ => stolen,
            }
        };
        // Keep the undisturbed ones; top up with the least disturbed.
        let mut scores: Vec<f64> = measured.iter().map(disturbance).collect();
        let undisturbed = scores.iter().filter(|&&d| d <= 1.0).count();
        let keep = undisturbed.max(MIN_SEGMENTS).min(measured.len());
        out.discarded = measured.len() - keep;
        let by_segment = scores.clone();
        scores.sort_by(f64::total_cmp);
        let limit = keep.checked_sub(1).map_or(-1.0, |k| scores[k]);
        let mut room = keep;
        for (phase, score) in measured.into_iter().zip(by_segment) {
            if score <= limit && room > 0 {
                room -= 1;
                out.kept.push(phase);
            }
        }
        out
    }
}

/// Runs one loop on its own: settle, measure, stop.
pub fn alone(inputs: &Inputs, spec: LoopSpec<'_>, plan: Plan) -> Segments {
    let control = Control::new(&spec);
    thread::scope(|scope| {
        let mut running = start(scope, &control, inputs, spec);
        if !plan.settle.is_zero() {
            running.slice(plan.settle, false);
        }
        // A lone loop's first measured segment follows its settling
        // ones without a pause; `slice` still drops it, which costs one
        // segment and keeps the rule simple.
        running.slice(plan.measure, true);
        running.finish()
    })
}

fn setup_frame(inputs: &Inputs, route: u16, class: u8) -> Request {
    Request::Setup {
        links: inputs.routes[usize::from(route)].links.clone(),
        request: inputs.requests[usize::from(class)],
    }
}

/// An op in flight on a closed-loop connection.
struct InFlight {
    op: usize,
    sent: Instant,
}

/// One segment of a closed-loop wire client: replays `ops` keeping
/// [`WINDOW`] frames in flight. The stream releases what it sets up,
/// so the connection ends the segment holding nothing.
fn sat_segment(client: &mut Client, inputs: &Inputs, ops: &[Op], trace: Option<Instant>) -> Phase {
    let mut phase = Phase::default();
    let mut state = vec![PENDING; ops.len()];
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
    let mut next = 0;
    // Reads one reply and books it. `false` once the connection is
    // lost: everything still in flight is then failed.
    let settle = |client: &mut Client,
                  inflight: &mut VecDeque<InFlight>,
                  state: &mut Vec<u64>,
                  phase: &mut Phase|
     -> bool {
        let Some(front) = inflight.pop_front() else {
            return true;
        };
        let reply = match client.recv() {
            Ok(reply) => reply,
            Err(_) => {
                phase.tally.failed += 1 + inflight.len() as u64;
                inflight.clear();
                return false;
            }
        };
        let ns = front.sent.elapsed().as_nanos() as u64;
        if let Some(epoch) = trace {
            let call = Call {
                op: front.op as u32,
                setup: matches!(ops[front.op], Op::Setup { .. }),
                start: front.sent,
                ns,
            };
            phase.spans.push(span_of("wire.call", epoch, &call));
        }
        match ops[front.op] {
            Op::Setup { route, .. } => {
                phase.setup_ns.push(ns);
                state[front.op] = book_setup(inputs, route, &wire_reply(reply), &mut phase.tally);
            }
            Op::Release { of } => match reply {
                Response::Released { id } if id == state[of as usize] => phase.tally.released += 1,
                _ => phase.tally.failed += 1,
            },
        }
        true
    };
    let mut alive = true;
    while alive && (next < ops.len() || !inflight.is_empty()) {
        while alive && inflight.len() < WINDOW && next < ops.len() {
            let frame = match ops[next] {
                Op::Setup { route, class } => Some(setup_frame(inputs, route, class)),
                Op::Release { of } => {
                    // The verdict of the SETUP this releases may still
                    // be in flight: read replies until it is known.
                    while alive && state[of as usize] == PENDING {
                        alive = client.flush().is_ok()
                            && settle(client, &mut inflight, &mut state, &mut phase);
                    }
                    match state[of as usize] {
                        REFUSED | PENDING => None,
                        id => Some(Request::Release { id }),
                    }
                }
            };
            match frame {
                Some(frame) => {
                    phase.tally.sent += 1;
                    if client.send(&frame).is_err() {
                        phase.tally.failed += 1;
                        alive = false;
                    } else {
                        inflight.push_back(InFlight {
                            op: next,
                            sent: Instant::now(),
                        });
                    }
                }
                None => phase.tally.skipped += 1,
            }
            next += 1;
        }
        alive = alive
            && client.flush().is_ok()
            && settle(client, &mut inflight, &mut state, &mut phase);
    }
    if !alive {
        // Ops never sent on a lost connection were still attempted.
        phase.tally.sent += (ops.len() - next) as u64;
        phase.tally.failed += (ops.len() - next) as u64 + inflight.len() as u64;
    }
    phase
}

/// One segment of a direct closed-loop thread.
fn direct_segment(
    engine: &AdmissionEngine,
    inputs: &Inputs,
    ops: &[Op],
    trace: Option<Instant>,
) -> Phase {
    let mut phase = Phase::default();
    phase.tally = replay(&mut EngineSink(engine), inputs, ops, None, &mut |call| {
        phase.busy_ns += call.ns;
        if call.setup {
            phase.setup_ns.push(call.ns);
        } else {
            phase.release_ns.push(call.ns);
        }
        if let Some(epoch) = trace {
            phase.spans.push(span_of("engine.call", epoch, &call));
        }
    });
    phase
}

/// Spins until `due` nanoseconds after `start`; returns how late the
/// caller then is.
///
/// The generator does not sleep between ops. A sleeping sender is woken
/// late by tens of microseconds, and worse, its idle CPU lets the guest
/// move the server's threads back and forth between the two vCPUs:
/// hand-offs then cost 5 µs or 50 µs depending on where they landed,
/// and the open loop's median latency came in two flavours, 345 µs and
/// 455 µs, from run to run. A spinning sender owns one vCPU, the
/// server's threads share the other, and the latency has one flavour.
fn wait_until(start: Instant, due_ns: u64) -> u64 {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return now - due_ns;
        }
        std::hint::spin_loop();
    }
}

/// The two halves of the open loop's one connection.
struct Duplex {
    tx: Client,
    rx: Client,
}

impl Duplex {
    fn open(addr: SocketAddr) -> std::io::Result<Duplex> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
        Ok(Duplex {
            tx: Client::from_stream(stream.try_clone()?)?,
            rx: Client::from_stream(stream)?,
        })
    }
}

/// One segment of the wire open loop: this thread sends on the
/// schedule, a receiver thread reads the cloned stream.
fn paced_segment(duplex: &mut Duplex, inputs: &Inputs, ops: &[Op], rate: u64) -> Phase {
    let interval_ns = 1_000_000_000 / rate.max(1);
    let Duplex { tx, rx } = duplex;
    // Per op: the SETUP's state once answered (see `PENDING`).
    let state: Vec<AtomicU64> = ops.iter().map(|_| AtomicU64::new(PENDING)).collect();
    let sent = AtomicU64::new(0);
    let lost = AtomicBool::new(false);
    let start = Instant::now();
    let (mut phase, received) = thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut phase = Phase::default();
            let mut received = 0u64;
            for (k, op) in ops.iter().enumerate() {
                if let Op::Release { of } = *op {
                    // Answered earlier on this same FIFO connection.
                    if state[of as usize].load(Ordering::Acquire) == REFUSED {
                        continue;
                    }
                }
                let reply = match rx.recv() {
                    Ok(reply) => reply,
                    Err(_) => {
                        lost.store(true, Ordering::Release);
                        break;
                    }
                };
                received += 1;
                let now_ns = start.elapsed().as_nanos() as u64;
                let backlog = sent.load(Ordering::Acquire).saturating_sub(received);
                phase.backlog_max = phase.backlog_max.max(backlog);
                match *op {
                    Op::Setup { route, .. } => {
                        phase
                            .setup_ns
                            .push(now_ns.saturating_sub(k as u64 * interval_ns));
                        let id = book_setup(inputs, route, &wire_reply(reply), &mut phase.tally);
                        state[k].store(id, Ordering::Release);
                    }
                    Op::Release { of } => match reply {
                        Response::Released { id }
                            if id == state[of as usize].load(Ordering::Acquire) =>
                        {
                            phase.tally.released += 1
                        }
                        _ => phase.tally.failed += 1,
                    },
                }
            }
            (phase, received)
        });
        let mut phase = Phase::default();
        for (k, op) in ops.iter().enumerate() {
            let late = wait_until(start, k as u64 * interval_ns);
            let frame = match *op {
                Op::Setup { route, class } => Some(setup_frame(inputs, route, class)),
                Op::Release { of } => {
                    let slot = &state[of as usize];
                    let waited = Instant::now();
                    while slot.load(Ordering::Acquire) == PENDING
                        && !lost.load(Ordering::Acquire)
                        && waited.elapsed() < ANSWER_TIMEOUT
                    {
                        thread::yield_now();
                    }
                    match slot.load(Ordering::Acquire) {
                        REFUSED | PENDING => None,
                        id => Some(Request::Release { id }),
                    }
                }
            };
            let Some(frame) = frame else {
                phase.tally.skipped += 1;
                continue;
            };
            phase.tally.sent += 1;
            phase.late_ns.push(late);
            if lost.load(Ordering::Acquire) || tx.send(&frame).and_then(|()| tx.flush()).is_err() {
                lost.store(true, Ordering::Release);
                phase.tally.failed += 1;
                continue;
            }
            sent.fetch_add(1, Ordering::Release);
        }
        let (rx_phase, received) = receiver.join().expect("paced receiver panicked");
        phase.absorb(rx_phase);
        (phase, received)
    });
    // Frames that left and were never answered.
    phase.tally.failed += sent.load(Ordering::Acquire).saturating_sub(received);
    phase
}

/// One segment of the direct open loop.
fn paced_direct_segment(engine: &AdmissionEngine, inputs: &Inputs, ops: &[Op], rate: u64) -> Phase {
    let interval_ns = 1_000_000_000 / rate.max(1);
    let mut sink = EngineSink(engine);
    let mut phase = Phase::default();
    let mut state = vec![PENDING; ops.len()];
    let start = Instant::now();
    for (k, op) in ops.iter().enumerate() {
        let due_ns = k as u64 * interval_ns;
        match *op {
            Op::Setup { route, class } => {
                phase.late_ns.push(wait_until(start, due_ns));
                phase.tally.sent += 1;
                let reply = sink.setup(
                    &inputs.routes[usize::from(route)].links,
                    &inputs.route_objs[usize::from(route)],
                    inputs.requests[usize::from(class)],
                );
                let late = *phase.late_ns.last().expect("pushed above");
                let done = (start.elapsed().as_nanos() as u64).saturating_sub(due_ns);
                phase.busy_ns += done.saturating_sub(late);
                phase.setup_ns.push(done);
                state[k] = book_setup(inputs, route, &reply, &mut phase.tally);
            }
            Op::Release { of } => match state[of as usize] {
                REFUSED | PENDING => phase.tally.skipped += 1,
                id => {
                    phase.late_ns.push(wait_until(start, due_ns));
                    phase.tally.sent += 1;
                    let called = Instant::now();
                    match sink.release(id) {
                        Ok(()) => phase.tally.released += 1,
                        Err(_) => phase.tally.failed += 1,
                    }
                    phase.busy_ns += called.elapsed().as_nanos() as u64;
                }
            },
        }
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{spec, Inputs};

    fn light() -> Inputs {
        Inputs::new(spec("wire_light").unwrap(), 2)
    }

    #[test]
    fn a_lone_loop_drops_its_settling_segments_and_balances() {
        let inputs = light();
        let engine = crate::fabric::engine_replica(&inputs, &[], None).unwrap();
        let spec = LoopSpec::SatDirect {
            engine: &engine,
            streams: &inputs.warm,
            trace: None,
        };
        let plan = Plan {
            settle: Duration::from_millis(30),
            measure: Duration::from_millis(120),
        };
        let out = alone(&inputs, spec, plan);
        assert!(out.kept.len() >= 2, "{} kept", out.kept.len());
        let per_segment = (inputs.warm[0].len() + inputs.warm[1].len()) as u64;
        // Both clients' counts land in every kept segment.
        assert!(out.kept.iter().all(|p| p.tally.sent == per_segment));
        let all = out.tally.sent / per_segment;
        assert!(
            all as usize >= out.kept.len() + 2,
            "settling segments ran too"
        );
        assert!(out.tally.balanced());
        assert_eq!(out.tally.failed, 0);
        assert_eq!(engine.connection_count(), 0);
    }

    #[test]
    fn loops_take_turns_and_a_paused_loop_runs_nothing() {
        let inputs = light();
        let engine = crate::fabric::engine_replica(&inputs, &[], None).unwrap();
        let closed = LoopSpec::SatDirect {
            engine: &engine,
            streams: &inputs.warm[..1],
            trace: None,
        };
        let open = LoopSpec::PacedDirect {
            engine: &engine,
            ops: &inputs.warm_paced,
            rate: 50_000,
        };
        let (c1, c2) = (Control::new(&closed), Control::new(&open));
        let setups = |ops: &[Op]| {
            ops.iter()
                .filter(|op| matches!(op, Op::Setup { .. }))
                .count() as u64
        };
        let (a, b) = thread::scope(|scope| {
            let mut a = start(scope, &c1, &inputs, closed);
            let mut b = start(scope, &c2, &inputs, open);
            for _ in 0..3 {
                a.slice(Duration::from_millis(20), true);
                let before = engine.stats().submitted;
                b.slice(Duration::from_millis(20), true);
                // Only the open loop moved the engine meanwhile: whole
                // replays of its stream, none of the closed loop's.
                let moved = engine.stats().submitted - before;
                assert!(
                    moved > 0 && moved.is_multiple_of(setups(&inputs.warm_paced)),
                    "{moved}"
                );
            }
            (a.finish(), b.finish())
        });
        assert!(a.tally.balanced() && b.tally.balanced());
        // The first segment of every slice is dropped.
        assert!(a.tally.sent > a.kept.iter().map(|p| p.tally.sent).sum::<u64>());
        assert!(!b.kept.is_empty() && b.kept.iter().all(|p| !p.late_ns.is_empty()));
    }
}

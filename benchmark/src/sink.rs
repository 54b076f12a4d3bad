//! The entry points an op stream can be replayed through, one call at
//! a time: wire `Client`→`Server`, `ServicePool::admit`,
//! `AdmissionEngine::admit`, serial `Network::setup`.

use std::time::Instant;

use rtcac_bitstream::Time;
use rtcac_cac::ConnectionId;
use rtcac_engine::{AdmissionEngine, EngineOutcome, ServicePool};
use rtcac_net::Route;
use rtcac_serve::{Client, Response};
use rtcac_signaling::{Network, SetupOutcome, SetupRequest};

use crate::fabric::{Inputs, Regime};
use crate::gen::Op;

/// What a SETUP came to at an entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Admitted {
        id: u64,
        delay: Time,
    },
    /// Refused by admission control; `detail` is the rejection's
    /// display form, identical at every entry point.
    Rejected {
        detail: String,
    },
    /// Anything else: an I/O error, an ERROR frame, a reply of the
    /// wrong kind, an engine error.
    Failed(String),
}

/// One way into the program.
pub trait Sink {
    fn setup(&mut self, links: &[u32], route: &Route, request: SetupRequest) -> Reply;
    /// Whether the release was acknowledged.
    fn release(&mut self, id: u64) -> Result<(), String>;
}

pub struct WireSink(pub Client);

impl Sink for WireSink {
    fn setup(&mut self, links: &[u32], _route: &Route, request: SetupRequest) -> Reply {
        match self.0.setup(links, request) {
            Ok(reply) => wire_reply(reply),
            Err(e) => Reply::Failed(e.to_string()),
        }
    }

    fn release(&mut self, id: u64) -> Result<(), String> {
        match self.0.release(id) {
            Ok(Response::Released { id: got }) if got == id => Ok(()),
            Ok(other) => Err(format!("RELEASE answered by {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Maps a SETUP's wire reply.
pub fn wire_reply(reply: Response) -> Reply {
    match reply {
        Response::Admitted {
            id,
            guaranteed_delay,
            attempts: 0,
        } => Reply::Admitted {
            id,
            delay: guaranteed_delay,
        },
        Response::Rejected { detail, .. } => Reply::Rejected { detail },
        other => Reply::Failed(format!("SETUP answered by {other:?}")),
    }
}

fn engine_reply(outcome: Result<EngineOutcome, rtcac_engine::EngineError>) -> Reply {
    match outcome {
        Ok(EngineOutcome::Admitted {
            id,
            guaranteed_delay,
        }) => Reply::Admitted {
            id: id.raw(),
            delay: guaranteed_delay,
        },
        Ok(EngineOutcome::Rejected { rejection, .. }) => Reply::Rejected {
            detail: rejection.to_string(),
        },
        Ok(other) => Reply::Failed(format!("unexpected engine outcome {other:?}")),
        Err(e) => Reply::Failed(e.to_string()),
    }
}

pub struct PoolSink<'a>(pub &'a ServicePool);

impl Sink for PoolSink<'_> {
    fn setup(&mut self, _links: &[u32], route: &Route, request: SetupRequest) -> Reply {
        engine_reply(self.0.admit(route.clone(), request))
    }

    fn release(&mut self, id: u64) -> Result<(), String> {
        EngineSink(self.0.engine()).release(id)
    }
}

pub struct EngineSink<'a>(pub &'a AdmissionEngine);

impl Sink for EngineSink<'_> {
    fn setup(&mut self, _links: &[u32], route: &Route, request: SetupRequest) -> Reply {
        engine_reply(self.0.admit(route, request))
    }

    fn release(&mut self, id: u64) -> Result<(), String> {
        self.0
            .release(ConnectionId::new(id))
            .map_err(|e| e.to_string())
    }
}

pub struct SerialSink<'a>(pub &'a mut Network);

impl Sink for SerialSink<'_> {
    fn setup(&mut self, _links: &[u32], route: &Route, request: SetupRequest) -> Reply {
        match self.0.setup(route, request) {
            Ok(SetupOutcome::Connected(info)) => Reply::Admitted {
                id: info.id().raw(),
                delay: info.guaranteed_delay(),
            },
            Ok(SetupOutcome::Rejected(rejection)) => Reply::Rejected {
                detail: rejection.to_string(),
            },
            Err(e) => Reply::Failed(e.to_string()),
        }
    }

    fn release(&mut self, id: u64) -> Result<(), String> {
        self.0
            .teardown(ConnectionId::new(id))
            .map_err(|e| e.to_string())
    }
}

/// What a phase counted. `sent == admitted + rejected + released +
/// failed` is a gate of every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// SETUP and RELEASE ops issued.
    pub sent: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub released: u64,
    /// I/O errors, ERROR frames, replies of the wrong kind, ops never
    /// answered, and verdicts that contradict the workload's regime or
    /// the route's guaranteed delay. A REJECT is a verdict, not a
    /// failure.
    pub failed: u64,
    /// RELEASEs never issued because their SETUP was refused.
    pub skipped: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.released += other.released;
        self.failed += other.failed;
        self.skipped += other.skipped;
    }

    pub fn setups(&self) -> u64 {
        self.admitted + self.rejected
    }

    pub fn completed(&self) -> u64 {
        self.admitted + self.rejected + self.released
    }

    pub fn balanced(&self) -> bool {
        self.sent == self.completed() + self.failed
    }

    pub fn reject_share(&self) -> f64 {
        match self.setups() {
            0 => 0.0,
            n => self.rejected as f64 / n as f64,
        }
    }
}

/// A SETUP's state as the clients track it: not answered yet, refused,
/// or the id it was admitted under (engine ids start at 1).
pub const PENDING: u64 = 0;
pub const REFUSED: u64 = u64::MAX;

/// Books a SETUP's reply against what the workload allows, and returns
/// the state to store for it.
pub fn book_setup(inputs: &Inputs, route: u16, reply: &Reply, tally: &mut Tally) -> u64 {
    match reply {
        Reply::Admitted { id, delay } if *delay == inputs.expected_delay(route) => {
            tally.admitted += 1;
            *id
        }
        Reply::Rejected { .. } if inputs.spec.regime != Regime::AllAdmitted => {
            tally.rejected += 1;
            REFUSED
        }
        // A wrong guaranteed delay, a refusal on a workload that admits
        // everything, or a failure. The connection, if any, stays held
        // by the stream's bookkeeping as refused; DRAIN's cleanup count
        // then shows it.
        _ => {
            tally.failed += 1;
            REFUSED
        }
    }
}

/// The verdicts of a single-threaded replay, in op order, reduced to a
/// digest: the four entry points must agree on it.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdicts {
    pub bytes: Vec<u8>,
    /// The detail of the first refusal, for the REJECTED frame the
    /// codec figures are taken on.
    pub first_rejected: Option<String>,
}

impl Verdicts {
    pub fn push(&mut self, reply: &Reply) {
        match reply {
            Reply::Admitted { delay, .. } => {
                self.bytes.push(b'A');
                self.bytes
                    .extend_from_slice(&delay.as_ratio().numer().to_be_bytes());
                self.bytes
                    .extend_from_slice(&delay.as_ratio().denom().to_be_bytes());
            }
            Reply::Rejected { detail } => {
                self.bytes.push(b'R');
                self.bytes.extend_from_slice(detail.as_bytes());
                self.first_rejected.get_or_insert_with(|| detail.clone());
            }
            Reply::Failed(why) => {
                self.bytes.push(b'F');
                self.bytes.extend_from_slice(why.as_bytes());
            }
        }
        self.bytes.push(0);
    }

    pub fn digest(&self) -> u64 {
        rtcac_snap::fnv64(&self.bytes)
    }
}

/// One call of a replay: which op, whether a SETUP, when, how long.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub op: u32,
    pub setup: bool,
    pub start: Instant,
    pub ns: u64,
}

/// Replays `ops` through `sink`, one call at a time, timing each call
/// and handing it to `on_call`. Verdicts are recorded when asked for.
pub fn replay(
    sink: &mut dyn Sink,
    inputs: &Inputs,
    ops: &[Op],
    mut verdicts: Option<&mut Verdicts>,
    on_call: &mut dyn FnMut(Call),
) -> Tally {
    let mut state = vec![PENDING; ops.len()];
    let mut tally = Tally::default();
    for (k, op) in ops.iter().enumerate() {
        match *op {
            Op::Setup { route, class } => {
                let spec = &inputs.routes[usize::from(route)];
                let request = inputs.requests[usize::from(class)];
                let start = Instant::now();
                let reply =
                    sink.setup(&spec.links, &inputs.route_objs[usize::from(route)], request);
                let ns = start.elapsed().as_nanos() as u64;
                tally.sent += 1;
                state[k] = book_setup(inputs, route, &reply, &mut tally);
                if let Some(v) = verdicts.as_deref_mut() {
                    v.push(&reply);
                }
                on_call(Call {
                    op: k as u32,
                    setup: true,
                    start,
                    ns,
                });
            }
            Op::Release { of } => {
                let id = state[of as usize];
                if id == REFUSED {
                    tally.skipped += 1;
                    continue;
                }
                let start = Instant::now();
                let result = sink.release(id);
                let ns = start.elapsed().as_nanos() as u64;
                tally.sent += 1;
                match result {
                    Ok(()) => tally.released += 1,
                    Err(_) => tally.failed += 1,
                }
                on_call(Call {
                    op: k as u32,
                    setup: false,
                    start,
                    ns,
                });
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{spec, Inputs};
    use rtcac_signaling::CdvPolicy;

    fn serial(inputs: &Inputs) -> Network {
        crate::fabric::serial_replica(inputs, &[]).unwrap()
    }

    #[test]
    fn replay_balances_and_leaves_the_fabric_empty() {
        let inputs = Inputs::new(spec("wire_light").unwrap(), 3);
        let mut network = serial(&inputs);
        assert_eq!(network.policy(), CdvPolicy::Hard);
        let mut calls = 0;
        let tally = replay(
            &mut SerialSink(&mut network),
            &inputs,
            &inputs.trace,
            None,
            &mut |_| calls += 1,
        );
        assert!(tally.balanced());
        assert_eq!(tally.failed, 0);
        assert_eq!(tally.rejected, 0);
        assert_eq!(tally.admitted, tally.released);
        assert_eq!(tally.sent as usize, inputs.trace.len());
        assert_eq!(calls, inputs.trace.len());
        assert_eq!(network.connections().count(), 0);
    }

    #[test]
    fn serial_and_engine_agree_on_the_verdict_digest() {
        let inputs = Inputs::new(spec("wire_light").unwrap(), 4);
        let mut network = serial(&inputs);
        let engine = crate::fabric::engine_replica(&inputs, &[], None).unwrap();
        let (mut a, mut b) = (Verdicts::default(), Verdicts::default());
        replay(
            &mut SerialSink(&mut network),
            &inputs,
            &inputs.trace,
            Some(&mut a),
            &mut |_| {},
        );
        replay(
            &mut EngineSink(&engine),
            &inputs,
            &inputs.trace,
            Some(&mut b),
            &mut |_| {},
        );
        assert!(!a.bytes.is_empty());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn one_flipped_verdict_changes_the_digest() {
        let mut a = Verdicts::default();
        let mut b = Verdicts::default();
        let admitted = Reply::Admitted {
            id: 1,
            delay: Time::from_integer(64),
        };
        let refused = Reply::Rejected {
            detail: "rejected at n3".into(),
        };
        for v in [&mut a, &mut b] {
            v.push(&admitted);
            v.push(&refused);
        }
        assert_eq!(a.digest(), b.digest());
        b.push(&admitted);
        a.push(&refused);
        assert_ne!(a.digest(), b.digest());
        // The id is not part of a verdict: entry points number
        // connections differently.
        let mut c = Verdicts::default();
        c.push(&Reply::Admitted {
            id: 99,
            delay: Time::from_integer(64),
        });
        let mut d = Verdicts::default();
        d.push(&admitted);
        assert_eq!(c.digest(), d.digest());
    }

    #[test]
    fn a_wrong_guaranteed_delay_is_a_failure() {
        let inputs = Inputs::new(spec("wire_light").unwrap(), 1);
        let mut tally = Tally::default();
        let wrong = Reply::Admitted {
            id: 5,
            delay: Time::from_integer(1),
        };
        assert_eq!(book_setup(&inputs, 0, &wrong, &mut tally), REFUSED);
        let refused = Reply::Rejected { detail: "x".into() };
        assert_eq!(book_setup(&inputs, 0, &refused, &mut tally), REFUSED);
        assert_eq!(tally.failed, 2, "wire_light admits everything");
        let right = Reply::Admitted {
            id: 5,
            delay: inputs.expected_delay(0),
        };
        assert_eq!(book_setup(&inputs, 0, &right, &mut tally), 5);
        assert_eq!(tally.admitted, 1);
    }
}

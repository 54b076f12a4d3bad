//! Engine error type.

use std::fmt;

use rtcac_cac::{CacError, ConnectionId};
use rtcac_net::{NetError, NodeId};
use rtcac_signaling::SignalError;

/// API-misuse and internal failures of the admission engine.
///
/// A connection that merely does not fit is *not* an error — it is
/// reported as [`EngineOutcome::Rejected`](crate::EngineOutcome).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The route references a node with no managed switch shard.
    NoSwitchAt(NodeId),
    /// A connection with this id is already established.
    DuplicateConnection(ConnectionId),
    /// No connection with this id is established.
    UnknownConnection(ConnectionId),
    /// Signaling-level failure (CDV accumulation).
    Signal(SignalError),
    /// Topology-level failure (invalid route or link).
    Net(NetError),
    /// Switch-level failure (misconfiguration or internal numeric
    /// failure).
    Cac(CacError),
    /// The resident service pool has shut down (or the setup panicked
    /// while being decided), so the submitted setup has no verdict. The
    /// caller knows exactly which setup was dropped and can retry
    /// against a live pool.
    ServiceStopped,
    /// A state restore was refused before any of it became visible —
    /// the snapshot is inconsistent with the target topology or fails
    /// the post-rebuild guarantee/orphan audit. The engine (or the
    /// pre-restore engine, for in-place adoption) is left untouched.
    RestoreRefused(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoSwitchAt(n) => write!(f, "no switch shard at node {n}"),
            EngineError::DuplicateConnection(id) => {
                write!(f, "connection {id} is already established")
            }
            EngineError::UnknownConnection(id) => {
                write!(f, "connection {id} is not established")
            }
            EngineError::Signal(e) => write!(f, "signaling error: {e}"),
            EngineError::Net(e) => write!(f, "topology error: {e}"),
            EngineError::Cac(e) => write!(f, "CAC error: {e}"),
            EngineError::ServiceStopped => {
                write!(f, "the service pool has stopped; the setup was not decided")
            }
            EngineError::RestoreRefused(why) => {
                write!(f, "state restore refused: {why}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SignalError> for EngineError {
    fn from(e: SignalError) -> EngineError {
        EngineError::Signal(e)
    }
}

impl From<NetError> for EngineError {
    fn from(e: NetError) -> EngineError {
        EngineError::Net(e)
    }
}

impl From<CacError> for EngineError {
    fn from(e: CacError) -> EngineError {
        EngineError::Cac(e)
    }
}

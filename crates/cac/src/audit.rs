//! What a setup driver's fault and audit calls report.
//!
//! The serial signaling walk and the concurrent engine both tear
//! connections down when an element fails and both re-verify their
//! handed-out guarantees; they answer in these shared types so a caller
//! replaying one scenario through either driver compares like with
//! like.

use rtcac_bitstream::Time;
use rtcac_net::NodeId;

use crate::ConnectionId;

/// What a driver's `fail_link` / `fail_node` call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureImpact {
    changed: bool,
    torn_down: Vec<ConnectionId>,
}

impl FailureImpact {
    /// The element was already down: nothing changed, nothing torn down.
    pub fn unchanged() -> FailureImpact {
        FailureImpact {
            changed: false,
            torn_down: Vec::new(),
        }
    }

    /// The element went down and `torn_down` was force-released.
    pub fn changed(torn_down: Vec<ConnectionId>) -> FailureImpact {
        FailureImpact {
            changed: true,
            torn_down,
        }
    }

    /// Whether the element actually changed health (false when it was
    /// already in the requested state).
    pub fn is_changed(&self) -> bool {
        self.changed
    }

    /// The connections torn down because their route crossed the
    /// failed element.
    pub fn torn_down(&self) -> &[ConnectionId] {
        &self.torn_down
    }
}

/// One violated guarantee found by a driver's `verify_guarantees`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuaranteeViolation {
    /// The connection whose guarantee no longer holds.
    pub id: ConnectionId,
    /// The switch where the recomputed bound exceeds the advertised
    /// one, or `None` when the guaranteed end-to-end delay exceeds the
    /// contracted delay bound.
    pub at: Option<NodeId>,
    /// The recomputed (or guaranteed end-to-end) delay.
    pub computed: Time,
    /// The limit it must stay within.
    pub limit: Time,
}

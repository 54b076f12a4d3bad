//! The engine's exportable state: the data model behind snapshot and
//! warm restart.
//!
//! [`EngineState`] is a plain, lock-free value capturing everything an
//! [`AdmissionEngine`](crate::AdmissionEngine) needs to resume serving
//! the same guarantees after a process restart:
//!
//! * one [`SwitchState`] per switch shard — the admitted connection
//!   *legs* plus the switch's mutation counter (its epoch). The `Sia`/`Sif`/`Soa`/`Sof` stream
//!   tables themselves are **not** stored: each leg's arrival stream is
//!   a pure function of its [`ConnectionRequest`] and the switch
//!   quantization grid, and the restore constructor rebuilds the table
//!   aggregates by the same multiplexing the release path already uses
//!   to prove rebuild-equality — so the restored tables are
//!   bit-identical to the originals while the snapshot stays exact
//!   (`(i128, i128)` rationals) and small;
//! * one [`ConnectionState`] per registry entry — the admitted shape
//!   (unicast route or multicast tree, as its link list), queueing
//!   points, priority, contracted delay bound, guaranteed delay and
//!   per-leaf guarantees (CDV accumulation results);
//! * the element-health overlay, drain flag, reroute budget, next
//!   connection id and outcome counters.
//!
//! Nothing else is kept per shard, so `snapshot → restore → snapshot`
//! is value-identical.

use rtcac_bitstream::Time;
use rtcac_cac::{ConnectionId, ConnectionRequest, Priority, SwitchConfig};
use rtcac_net::{LinkId, NodeId};
use rtcac_signaling::CdvPolicy;

use crate::EngineStats;

/// The full serializable state of one admission engine: a consistent
/// cut taken under every shard lock (ascending `NodeId` order) plus the
/// registry and health locks. See the module docs for what is stored
/// versus derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineState {
    /// The CDV accumulation policy the state was admitted under. A
    /// restore into an engine with a different policy is refused — the
    /// guarantees would not mean the same thing.
    pub policy: CdvPolicy,
    /// Crankback budget (alternate routes per dead-route setup).
    pub reroute_budget: u64,
    /// The next connection id to allocate. Restored so post-restart
    /// setups continue the id sequence of the interrupted process.
    pub next_id: u64,
    /// Whether the engine was in drain mode at the cut.
    pub draining: bool,
    /// The element-health overlay at the cut.
    pub health: HealthOverlayState,
    /// One entry per switch shard, ascending by node id.
    pub switches: Vec<SwitchState>,
    /// One entry per established connection, ascending by id.
    pub connections: Vec<ConnectionState>,
    /// Outcome counters at the cut.
    pub counters: EngineStats,
}

/// One switch shard's restorable state: its configuration, mutation
/// counter and admitted connection legs (the generating set of its
/// stream tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchState {
    /// The switch node this shard manages.
    pub node: NodeId,
    /// The shard's priority configuration (advertised bounds and
    /// quantization grid).
    pub config: SwitchConfig,
    /// The switch's mutation counter ([`Switch::epoch`]) at the cut,
    /// restored verbatim so `snapshot → restore → snapshot` is
    /// byte-identical and the counter stays monotonic across a restart.
    ///
    /// [`Switch::epoch`]: rtcac_cac::Switch::epoch
    pub epoch: u64,
    /// Every admitted `(connection, leg)` pair, ascending by
    /// `(connection id, out-link)` — a multicast connection holds one
    /// leg per branch port.
    pub legs: Vec<(ConnectionId, ConnectionRequest)>,
}

/// One established connection's registry entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionState {
    /// The connection id.
    pub id: ConnectionId,
    /// Whether the shape is a point-to-multipoint tree (`true`) or a
    /// unicast route (`false`).
    pub multicast: bool,
    /// The links the shape occupies, in shape order — enough to rebuild
    /// the [`Route`](rtcac_net::Route) or
    /// [`MulticastTree`](rtcac_net::MulticastTree) against the target
    /// topology (which re-validates connectivity on restore).
    pub links: Vec<LinkId>,
    /// The queueing points `(switch, out-link)` the admission reserved,
    /// in reservation order.
    pub points: Vec<(NodeId, LinkId)>,
    /// The connection's priority level.
    pub priority: Priority,
    /// The contracted end-to-end delay bound.
    pub delay_bound: Time,
    /// The guaranteed end-to-end queueing delay handed out at setup.
    pub guaranteed_delay: Time,
    /// Guaranteed delay per terminal: one entry (the destination) for
    /// unicast, one per leaf for multicast.
    pub per_leaf: Vec<(NodeId, Time)>,
}

/// The element-health overlay at the cut.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthOverlayState {
    /// Links marked down, ascending.
    pub down_links: Vec<LinkId>,
    /// Nodes marked down, ascending.
    pub down_nodes: Vec<NodeId>,
    /// The health-change epoch at the cut.
    pub epoch: u64,
}

impl EngineState {
    /// Total admitted connection legs across all shards.
    pub fn total_legs(&self) -> usize {
        self.switches.iter().map(|s| s.legs.len()).sum()
    }
}

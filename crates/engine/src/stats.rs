//! Atomic engine counters and their snapshot form.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters updated by worker threads as setups complete.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub submitted: AtomicU64,
    pub admitted: AtomicU64,
    pub rejected: AtomicU64,
    pub aborted: AtomicU64,
    pub errored: AtomicU64,
    pub rerouted: AtomicU64,
    pub released: AtomicU64,
    pub failed_over: AtomicU64,
    pub mcast_submitted: AtomicU64,
    pub mcast_admitted: AtomicU64,
    pub mcast_rejected: AtomicU64,
}

impl Counters {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of the engine's counters.
///
/// Every submitted setup lands in exactly **one** of `admitted`,
/// `rejected`, `aborted`, `errored` or `rerouted`, so once the engine
/// is quiescent
///
/// ```text
/// submitted == admitted + rejected + aborted + errored + rerouted
/// ```
///
/// holds exactly (`errored` is zero unless callers misuse the API).
/// `aborted` counts setups refused *after* reserving at least one
/// upstream hop — the phase-2 rollbacks — while `rejected` counts
/// refusals that reserved nothing (the QoS gate or the first hop
/// refusing); the two are disjoint. `rerouted` counts setups that
/// committed on an *alternate* route after their submitted route died
/// under them — disjoint from `admitted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Setups that entered the engine (before any outcome).
    pub submitted: u64,
    /// Setups committed end to end.
    pub admitted: u64,
    /// Setups refused without reserving any hop (QoS gate or the
    /// first hop refusing).
    pub rejected: u64,
    /// Setups refused after reserving one or more hops, all rolled
    /// back (disjoint from `rejected`).
    pub aborted: u64,
    /// Setups that failed with an API-misuse error instead of an
    /// outcome.
    pub errored: u64,
    /// Setups committed on an alternate route after a failure killed
    /// the submitted one (disjoint from `admitted`).
    pub rerouted: u64,
    /// Connections released (torn down) through the engine.
    pub released: u64,
    /// Connections force-released because an element on their route
    /// failed (disjoint from `released`).
    pub failed_over: u64,
    /// Point-to-multipoint setups that entered the engine (a subset of
    /// `submitted`; tree setups land in the same outcome buckets).
    pub mcast_submitted: u64,
    /// Tree setups committed on every leg (a subset of `admitted`).
    pub mcast_admitted: u64,
    /// Tree setups refused — QoS gate, a leg refusing (rolled back), a
    /// dead tree, or drain mode (a subset of `rejected + aborted`).
    pub mcast_rejected: u64,
}

impl EngineStats {
    /// Total setups processed to a decision
    /// (`admitted + rejected + aborted + rerouted`).
    pub fn completed(&self) -> u64 {
        self.admitted + self.rejected + self.aborted + self.rerouted
    }
}

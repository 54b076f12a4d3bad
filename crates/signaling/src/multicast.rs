//! Point-to-multipoint connection establishment.
//!
//! RTnet's cyclic transmission broadcasts each terminal's shared-memory
//! segment to every other terminal; the natural ATM realization is a
//! point-to-multipoint VC — one admission per tree branch port, cells
//! duplicated at branch switches. This module extends [`Network`] with
//! multicast setup/teardown, reusing the unicast CAC machinery: each
//! tree port is one leg of the same connection id, with CDV accumulated
//! along that port's root path.

use rtcac_bitstream::Time;
use rtcac_cac::{release_order, ConnectionId, ReserveOutcome, RoutePlan};
use rtcac_net::{MulticastTree, NodeId};

use crate::{Network, SetupRejection, SetupRequest, SignalError, SignalEvent};

/// A successfully established point-to-multipoint connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticastInfo {
    id: ConnectionId,
    request: SetupRequest,
    tree: MulticastTree,
    /// Guaranteed end-to-end queueing delay per leaf, sorted by node.
    per_leaf: Vec<(NodeId, Time)>,
}

impl MulticastInfo {
    /// The connection's identifier.
    pub fn id(&self) -> ConnectionId {
        self.id
    }

    /// The original setup request.
    pub fn request(&self) -> &SetupRequest {
        &self.request
    }

    /// The multicast tree.
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    /// The guaranteed end-to-end queueing delay bound per leaf.
    pub fn per_leaf(&self) -> &[(NodeId, Time)] {
        &self.per_leaf
    }

    /// The worst guaranteed delay over all leaves.
    pub fn guaranteed_delay(&self) -> Time {
        self.per_leaf
            .iter()
            .map(|&(_, d)| d)
            .max()
            .unwrap_or(Time::ZERO)
    }
}

impl Network {
    /// Establishes a point-to-multipoint connection over `tree`: the
    /// SETUP is admitted at every tree branch port (one leg per port,
    /// same connection id), with CDV accumulated along each port's root
    /// path per the network's [`CdvPolicy`](crate::CdvPolicy). A
    /// rejection anywhere rolls back all reservations.
    ///
    /// The requested delay bound must cover the *worst* leaf's
    /// guaranteed delay (the sum of advertised bounds along its path).
    ///
    /// # Errors
    ///
    /// Returns an error only for API misuse (foreign tree, unmanaged
    /// switch, unknown priority); an infeasible connection yields
    /// [`MulticastOutcome::Rejected`].
    pub fn setup_multicast(
        &mut self,
        tree: &MulticastTree,
        request: SetupRequest,
    ) -> Result<MulticastOutcome, SignalError> {
        // A tree over a dead element is refused outright — same gate,
        // same scan order as [`Network::setup`] on a unicast route, so
        // the serial walk and the engine reject identically.
        for &link in tree.links() {
            if !self.topology().link_usable(link)? {
                return Ok(MulticastOutcome::Rejected(SetupRejection::RouteDown {
                    link,
                }));
            }
        }
        let id = self.allocate_id();

        // Shape and price the tree through the same admission core as
        // unicast setup: one hop per tree port, CDV accumulated along
        // each port's root path, guaranteed delay per leaf terminal.
        let plan = RoutePlan::from_tree(self.topology(), tree)?;
        let priced = self.price_plan(&plan, request.contract(), request.priority())?;

        // The QoS gate covers the *worst* leaf's guaranteed delay.
        let worst = priced.achievable();
        if request.delay_bound() < worst {
            return Ok(MulticastOutcome::Rejected(
                SetupRejection::QosUnsatisfiable {
                    requested: request.delay_bound(),
                    achievable: worst,
                },
            ));
        }

        // Reserve leg by leg; the core rolls back on the first
        // rejection (one release per switch frees all its legs).
        match self.reserve_priced(id, &priced)? {
            ReserveOutcome::Reserved => {}
            ReserveOutcome::Refused {
                at,
                reason,
                legs_rolled_back,
                ..
            } => {
                self.push_event(SignalEvent::Rejected {
                    connection: id,
                    switch: at,
                    reason,
                });
                return Ok(MulticastOutcome::Rejected(SetupRejection::Switch {
                    at,
                    reason,
                    hops_rolled_back: legs_rolled_back,
                }));
            }
        }

        let info = MulticastInfo {
            id,
            request,
            tree: tree.clone(),
            per_leaf: priced.terminals().to_vec(),
        };
        self.push_event(SignalEvent::Connected {
            connection: id,
            guaranteed_delay: info.guaranteed_delay(),
        });
        self.insert_multicast(info.clone());
        Ok(MulticastOutcome::Connected(info))
    }

    /// Tears down an established multicast connection, releasing every
    /// leg at every switch of its tree.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::UnknownConnection`] for an unknown id.
    pub fn teardown_multicast(&mut self, id: ConnectionId) -> Result<(), SignalError> {
        let Some(info) = self.remove_multicast(id) else {
            return Err(SignalError::UnknownConnection(id));
        };
        let points = info.tree.queueing_points(self.topology())?;
        for node in release_order(points.into_iter().map(|(node, _, _)| node)) {
            self.switch_mut(node)?.release(id)?;
        }
        self.push_event(SignalEvent::Released { connection: id });
        Ok(())
    }
}

/// The outcome of a multicast setup attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MulticastOutcome {
    /// Every leg admitted; the p2mp VC is live.
    Connected(MulticastInfo),
    /// Some leg refused (reservations rolled back) or the QoS is
    /// unachievable.
    Rejected(SetupRejection),
}

impl MulticastOutcome {
    /// Whether the setup succeeded.
    pub fn is_connected(&self) -> bool {
        matches!(self, MulticastOutcome::Connected(_))
    }
}

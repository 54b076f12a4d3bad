//! Network topology substrate for ATM connection admission control.
//!
//! The paper's CAC scheme (§4.3) and its RTnet evaluation (§5) operate
//! on a network of switches and end systems joined by unidirectional
//! transmission links. This crate provides that substrate:
//!
//! - [`Topology`]: a validated graph of [`Node`]s (switches and end
//!   systems) and [`Link`]s with normalized capacities;
//! - [`Route`]: a validated, contiguous path of links from a source end
//!   system to a destination;
//! - [`builders`]: canonical topologies — [`builders::line`],
//!   [`builders::ring`], [`builders::star`], and the paper's RTnet
//!   [`builders::star_ring`] (Figure 9).
//!
//! # Examples
//!
//! ```
//! use rtcac_net::builders;
//!
//! // The RTnet of the paper's evaluation: 16 ring nodes, 4 terminals
//! // each (Figure 9).
//! let sr = builders::star_ring(16, 4)?;
//! assert_eq!(sr.ring_nodes().len(), 16);
//! assert_eq!(sr.terminals(0)?.len(), 4);
//!
//! // A broadcast route from the first terminal all the way around
//! // the ring:
//! let route = sr.ring_route_from_terminal(0, 0, 15)?;
//! assert_eq!(route.links().len(), 16); // access link + 15 ring hops
//! # Ok::<(), rtcac_net::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
mod error;
mod ids;
mod multicast;
mod rng;
mod route;
mod topology;

pub use builders::StarRing;
pub use error::NetError;
pub use ids::{LinkId, NodeId};
pub use multicast::MulticastTree;
pub use rng::SimRng;
pub use route::Route;
pub use topology::{Link, Node, NodeKind, Topology};

//! Typed request/response frames of the admission service protocol.
//!
//! The vocabulary mirrors the paper's §4.1 signaling verbs, promoted
//! from in-process calls to wire frames: SETUP (unicast), SETUP-MCAST
//! (point-to-multipoint), RELEASE, QUERY, plus the service-management
//! verbs HELLO, STATS, DRAIN and DUMP (force a flight-recorder black
//! box to disk). Requests use type bytes `0x01..=0x08`, responses
//! `0x81..=0x88` and `0xEF` (ERROR), so a frame's direction is visible
//! in its type byte alone.
//!
//! Routes travel as raw link-index lists: the server re-validates them
//! against its own topology (`Route::new` / `MulticastTree::new`), so a
//! client can never make the engine touch a link that does not exist —
//! a bad route is a typed [`Response::Error`], not a panic.

use rtcac_bitstream::Time;
use rtcac_cac::Priority;
use rtcac_signaling::{SetupRejection, SetupRequest};

use rtcac_obs::codec::{Dec, Enc};
use rtcac_snap::{DecExact as _, EncExact as _};

use crate::wire::{frame, WireError, PROTO_VERSION};

/// Frame type bytes. Kept in one place so the codec and the fuzz loop
/// agree about what "every known frame" means.
pub mod frame_type {
    /// Client hello / topology discovery request.
    pub const HELLO: u8 = 0x01;
    /// Unicast connection setup request.
    pub const SETUP: u8 = 0x02;
    /// Point-to-multipoint connection setup request.
    pub const SETUP_MCAST: u8 = 0x03;
    /// Connection release request.
    pub const RELEASE: u8 = 0x04;
    /// Connection query request.
    pub const QUERY: u8 = 0x05;
    /// Drain request: stop admitting, keep guarantees, shut down.
    pub const DRAIN: u8 = 0x06;
    /// Service statistics request.
    pub const STATS: u8 = 0x07;
    /// Force a flight-recorder dump (the wire form of SIGUSR1, which
    /// a std-only binary cannot catch).
    pub const DUMP: u8 = 0x08;

    /// Topology description reply to HELLO.
    pub const SERVER_INFO: u8 = 0x81;
    /// Setup succeeded.
    pub const ADMITTED: u8 = 0x82;
    /// Setup was refused by admission control.
    pub const REJECTED: u8 = 0x83;
    /// Release succeeded.
    pub const RELEASED: u8 = 0x84;
    /// Query reply.
    pub const QUERY_RESULT: u8 = 0x85;
    /// Drain acknowledged; the server is shutting down.
    pub const DRAINING: u8 = 0x86;
    /// Statistics reply.
    pub const STATS_REPLY: u8 = 0x87;
    /// Flight dump written; the reply carries its path.
    pub const DUMPED: u8 = 0x88;
    /// Typed request failure.
    pub const ERROR: u8 = 0xEF;
}

/// Why a request failed at the service layer (as opposed to a CAC
/// rejection, which is a [`Response::Rejected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame's version byte is not this server's.
    UnsupportedVersion = 1,
    /// The frame type byte is unknown.
    UnknownFrame = 2,
    /// The body did not decode.
    BadPayload = 3,
    /// The submitted link list is not a valid route/tree here.
    BadRoute = 4,
    /// The session tried to release a connection it does not own.
    NotOwner = 5,
    /// The named connection is not established.
    UnknownConnection = 6,
    /// The admission engine failed internally.
    Internal = 7,
    /// The server is restoring its state from a snapshot; the request
    /// was not processed. Clients should back off and retry — the
    /// restore finishes (or the server refuses the snapshot and goes
    /// down) within bounded time.
    SnapshotRestoring = 8,
}

impl ErrorCode {
    /// Decodes a wire error-code byte (`None` for unknown codes).
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::UnsupportedVersion,
            2 => ErrorCode::UnknownFrame,
            3 => ErrorCode::BadPayload,
            4 => ErrorCode::BadRoute,
            5 => ErrorCode::NotOwner,
            6 => ErrorCode::UnknownConnection,
            7 => ErrorCode::Internal,
            8 => ErrorCode::SnapshotRestoring,
            _ => return None,
        })
    }
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Topology discovery: the load generator rebuilds the server's
    /// star-ring locally from the reply, so routes can be expressed as
    /// link indices both sides agree on.
    Hello,
    /// Establish a unicast connection over the given links.
    Setup {
        /// Link indices of the route, in travel order.
        links: Vec<u32>,
        /// The §4.1 connection parameters.
        request: SetupRequest,
    },
    /// Establish a point-to-multipoint connection over the given tree.
    SetupMcast {
        /// Link indices of the tree (parent-before-child order).
        links: Vec<u32>,
        /// The §4.1 connection parameters.
        request: SetupRequest,
    },
    /// Release an established connection owned by this session.
    Release {
        /// The raw connection id (as returned by `Admitted`).
        id: u64,
    },
    /// Look up an established connection's guaranteed delay.
    Query {
        /// The raw connection id.
        id: u64,
    },
    /// Stop admitting (existing guarantees are kept), then shut the
    /// service down once every session has cleaned up.
    Drain,
    /// Service statistics snapshot.
    Stats,
    /// Force the server's flight recorder to write a black box now
    /// (bypasses the per-reason once-latch). Fails with a typed error
    /// when the server runs without a flight recorder.
    Dump,
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Hello`].
    ServerInfo {
        /// Ring switches of the served star-ring.
        nodes: u32,
        /// Terminals per ring switch.
        terminals: u32,
        /// Priority levels each switch serves.
        levels: u8,
        /// The advertised per-hop delay bound (uniform).
        bound: Time,
    },
    /// The connection is committed on every hop.
    Admitted {
        /// The established connection's id.
        id: u64,
        /// Guaranteed end-to-end queueing delay bound.
        guaranteed_delay: Time,
        /// Crankback attempts the engine needed (0 = primary route).
        attempts: u32,
    },
    /// Admission control refused the connection.
    Rejected {
        /// The id the setup would have used.
        id: u64,
        /// Compact rejection class (see [`reject_code`]).
        code: u8,
        /// Human-readable detail (the engine's rejection display).
        detail: String,
    },
    /// The connection was released.
    Released {
        /// The released connection's id.
        id: u64,
    },
    /// Reply to [`Request::Query`].
    QueryResult {
        /// Whether the connection is established.
        found: bool,
        /// Its guaranteed delay (zero when not found).
        guaranteed_delay: Time,
    },
    /// Drain acknowledged; no further setups will be admitted.
    Draining {
        /// Connections still established at the drain point.
        active: u64,
    },
    /// Reply to [`Request::Stats`].
    StatsReply {
        /// Connections currently established.
        active: u64,
        /// Setups admitted since start.
        admitted: u64,
        /// Setups rejected since start.
        rejected: u64,
        /// Releases processed since start.
        released: u64,
        /// Orphaned reservations found by the last audit.
        orphans: u64,
        /// Whether the service is draining.
        draining: bool,
    },
    /// Reply to [`Request::Dump`]: the black box is on disk.
    Dumped {
        /// Filesystem path of the written dump (server-local).
        path: String,
        /// Dumps the recorder has written over its lifetime.
        dumps: u64,
    },
    /// The request failed at the service layer.
    Error {
        /// The typed failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Compact rejection classes carried in [`Response::Rejected`].
pub mod reject_code {
    /// A switch on the route failed the CAC check.
    pub const SWITCH: u8 = 1;
    /// The requested bound is below the route's achievable bound.
    pub const QOS_UNSATISFIABLE: u8 = 2;
    /// The route crosses a failed element.
    pub const ROUTE_DOWN: u8 = 3;
    /// The admission point is draining.
    pub const DRAINING: u8 = 4;
}

/// Maps an engine rejection to its wire class.
pub fn rejection_class(rejection: &SetupRejection) -> u8 {
    match rejection {
        SetupRejection::Switch { .. } => reject_code::SWITCH,
        SetupRejection::QosUnsatisfiable { .. } => reject_code::QOS_UNSATISFIABLE,
        SetupRejection::RouteDown { .. } => reject_code::ROUTE_DOWN,
        SetupRejection::Draining => reject_code::DRAINING,
        _ => reject_code::SWITCH,
    }
}

/// Appends a setup's §4.1 parameters and finishes the frame.
fn finish_setup_request(enc: &mut Enc, request: &SetupRequest) -> Vec<u8> {
    enc.contract(request.contract())
        .u8(request.priority().level())
        .time(request.delay_bound())
        .finish()
}

fn decode_setup_request(dec: &mut Dec<'_>) -> Result<SetupRequest, WireError> {
    let contract = dec.contract()?;
    let priority = Priority::new(dec.u8()?);
    Ok(SetupRequest::new(contract, priority, dec.time()?))
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Hello => frame(frame_type::HELLO).finish(),
            Request::Setup { links, request } => finish_setup_request(
                frame(frame_type::SETUP).u32_list(links.iter().copied()),
                request,
            ),
            Request::SetupMcast { links, request } => finish_setup_request(
                frame(frame_type::SETUP_MCAST).u32_list(links.iter().copied()),
                request,
            ),
            Request::Release { id } => frame(frame_type::RELEASE).u64(*id).finish(),
            Request::Query { id } => frame(frame_type::QUERY).u64(*id).finish(),
            Request::Drain => frame(frame_type::DRAIN).finish(),
            Request::Stats => frame(frame_type::STATS).finish(),
            Request::Dump => frame(frame_type::DUMP).finish(),
        }
    }

    /// Decodes a frame payload as a request.
    ///
    /// # Errors
    ///
    /// [`WireError::UnsupportedVersion`], [`WireError::UnknownFrame`],
    /// or [`WireError::BadPayload`]; never panics, whatever the bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut dec = Dec::new(payload);
        let version = dec.u8()?;
        if version != PROTO_VERSION {
            return Err(WireError::UnsupportedVersion { got: version });
        }
        let frame = dec.u8()?;
        let request = match frame {
            frame_type::HELLO => Request::Hello,
            frame_type::SETUP => Request::Setup {
                links: dec.u32_list()?,
                request: decode_setup_request(&mut dec)?,
            },
            frame_type::SETUP_MCAST => Request::SetupMcast {
                links: dec.u32_list()?,
                request: decode_setup_request(&mut dec)?,
            },
            frame_type::RELEASE => Request::Release { id: dec.u64()? },
            frame_type::QUERY => Request::Query { id: dec.u64()? },
            frame_type::DRAIN => Request::Drain,
            frame_type::STATS => Request::Stats,
            frame_type::DUMP => Request::Dump,
            got => return Err(WireError::UnknownFrame { got }),
        };
        dec.expect_end()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::ServerInfo {
                nodes,
                terminals,
                levels,
                bound,
            } => frame(frame_type::SERVER_INFO)
                .u32(*nodes)
                .u32(*terminals)
                .u8(*levels)
                .time(*bound)
                .finish(),
            Response::Admitted {
                id,
                guaranteed_delay,
                attempts,
            } => frame(frame_type::ADMITTED)
                .u64(*id)
                .time(*guaranteed_delay)
                .u32(*attempts)
                .finish(),
            Response::Rejected { id, code, detail } => frame(frame_type::REJECTED)
                .u64(*id)
                .u8(*code)
                .string(detail)
                .finish(),
            Response::Released { id } => frame(frame_type::RELEASED).u64(*id).finish(),
            Response::QueryResult {
                found,
                guaranteed_delay,
            } => frame(frame_type::QUERY_RESULT)
                .u8(u8::from(*found))
                .time(*guaranteed_delay)
                .finish(),
            Response::Draining { active } => frame(frame_type::DRAINING).u64(*active).finish(),
            Response::StatsReply {
                active,
                admitted,
                rejected,
                released,
                orphans,
                draining,
            } => frame(frame_type::STATS_REPLY)
                .u64(*active)
                .u64(*admitted)
                .u64(*rejected)
                .u64(*released)
                .u64(*orphans)
                .u8(u8::from(*draining))
                .finish(),
            Response::Dumped { path, dumps } => {
                frame(frame_type::DUMPED).string(path).u64(*dumps).finish()
            }
            Response::Error { code, message } => frame(frame_type::ERROR)
                .u8(*code as u8)
                .string(message)
                .finish(),
        }
    }

    /// Decodes a frame payload as a response.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut dec = Dec::new(payload);
        let version = dec.u8()?;
        if version != PROTO_VERSION {
            return Err(WireError::UnsupportedVersion { got: version });
        }
        let frame = dec.u8()?;
        let response = match frame {
            frame_type::SERVER_INFO => Response::ServerInfo {
                nodes: dec.u32()?,
                terminals: dec.u32()?,
                levels: dec.u8()?,
                bound: dec.time()?,
            },
            frame_type::ADMITTED => Response::Admitted {
                id: dec.u64()?,
                guaranteed_delay: dec.time()?,
                attempts: dec.u32()?,
            },
            frame_type::REJECTED => Response::Rejected {
                id: dec.u64()?,
                code: dec.u8()?,
                detail: dec.string()?,
            },
            frame_type::RELEASED => Response::Released { id: dec.u64()? },
            frame_type::QUERY_RESULT => Response::QueryResult {
                found: dec.u8()? != 0,
                guaranteed_delay: dec.time()?,
            },
            frame_type::DRAINING => Response::Draining { active: dec.u64()? },
            frame_type::STATS_REPLY => Response::StatsReply {
                active: dec.u64()?,
                admitted: dec.u64()?,
                rejected: dec.u64()?,
                released: dec.u64()?,
                orphans: dec.u64()?,
                draining: dec.u8()? != 0,
            },
            frame_type::DUMPED => Response::Dumped {
                path: dec.string()?,
                dumps: dec.u64()?,
            },
            frame_type::ERROR => Response::Error {
                code: ErrorCode::from_u8(dec.u8()?)
                    .ok_or(WireError::BadPayload("unknown error code"))?,
                message: dec.string()?,
            },
            got => return Err(WireError::UnknownFrame { got }),
        };
        dec.expect_end()?;
        Ok(response)
    }
}

//! The length-prefixed frame layer.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length `L` (big-endian u32, includes the
//!               version and type bytes; 2 ..= MAX_PAYLOAD)
//! 4       1     protocol version (PROTO_VERSION)
//! 5       1     frame type (see `proto`)
//! 6       L-2   body (frame-type specific)
//! ```
//!
//! The length prefix is validated *before* any allocation, so a
//! hostile peer cannot make the decoder reserve unbounded memory: a
//! frame longer than [`MAX_PAYLOAD`] is refused with
//! [`WireError::Oversized`] and the connection should be closed.
//!
//! Bodies are written and read with the one shared codec
//! ([`rtcac_obs::codec`]), exact rationals with `rtcac-snap`'s
//! [`EncExact`](rtcac_snap::EncExact)/[`DecExact`](rtcac_snap::DecExact);
//! every decode failure is a typed [`WireError::BadPayload`], never a
//! panic.

use core::fmt;
use std::io::{self, Read, Write};

use rtcac_obs::codec::{CodecError, Enc};

/// Version byte every frame carries. Receivers refuse frames with a
/// different version with a typed error instead of guessing.
pub const PROTO_VERSION: u8 = 1;

/// Upper bound on a frame payload (version + type + body), in bytes.
///
/// Large enough for a point-to-multipoint tree touching every terminal
/// of a 256-switch star-ring (4 bytes per link), small enough that a
/// hostile length prefix cannot balloon the decoder's buffer.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Smallest legal payload: the version and frame-type bytes.
pub const MIN_PAYLOAD: usize = 2;

/// Typed failures of the frame and value codec.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer closed the connection cleanly (EOF between frames).
    Closed,
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The advertised payload length.
        len: usize,
        /// The refusal threshold.
        max: usize,
    },
    /// The length prefix is below [`MIN_PAYLOAD`] (a frame without a
    /// version or type byte can mean nothing).
    Runt {
        /// The advertised payload length.
        len: usize,
    },
    /// The frame carries a protocol version this peer does not speak.
    UnsupportedVersion {
        /// The version byte received.
        got: u8,
    },
    /// The frame type byte names no known frame.
    UnknownFrame {
        /// The type byte received.
        got: u8,
    },
    /// The body does not decode as the frame type requires: truncated,
    /// trailing garbage, an invalid rational, a bad enum tag…
    BadPayload(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Runt { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes is below the 2-byte minimum"
                )
            }
            WireError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this peer speaks {PROTO_VERSION})"
                )
            }
            WireError::UnknownFrame { got } => write!(f, "unknown frame type {got:#04x}"),
            WireError::BadPayload(what) => write!(f, "malformed frame body: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        WireError::BadPayload(match e {
            CodecError::Truncated { .. } => "body truncated",
            CodecError::Invalid(what) => what,
            // The container variants never arise from a frame body.
            _ => "not a frame body",
        })
    }
}

impl WireError {
    /// Whether this error is a read timeout (the poll loops treat those
    /// as "no frame yet", everything else as fatal).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

/// Fills `buf`, retrying timeouts once at least one byte of the frame
/// has arrived: a read timeout may only surface *between* frames, never
/// mid-frame, or the session poll loops (which use short socket
/// timeouts to notice shutdown) would tear partially-received frames
/// and desynchronize the stream.
fn read_full(
    reader: &mut impl Read,
    buf: &mut [u8],
    mut got: usize,
    mid_frame: bool,
) -> Result<(), WireError> {
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 && !mid_frame {
                    WireError::Closed
                } else {
                    WireError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if (got > 0 || mid_frame)
                    && (e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut) => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame, returning its raw payload (version byte included).
///
/// A socket read timeout is surfaced (as a [`WireError::Io`] for which
/// [`WireError::is_timeout`] is true) only while waiting for a frame to
/// *start*; once any byte of a frame has arrived the read retries until
/// the frame completes, so poll loops never lose partial frames.
///
/// # Errors
///
/// [`WireError::Closed`] on clean EOF between frames,
/// [`WireError::Oversized`] / [`WireError::Runt`] on an invalid length
/// prefix (nothing is allocated in either case), [`WireError::Io`] on
/// socket failure or truncation mid-frame.
pub fn read_frame(reader: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut prefix = [0u8; 4];
    read_full(reader, &mut prefix, 0, false)?;
    let mut payload = vec![0u8; payload_len(prefix)?];
    read_full(reader, &mut payload, 0, true)?;
    Ok(payload)
}

/// The payload length a frame prefix announces, refused unless it lies
/// in `MIN_PAYLOAD ..= MAX_PAYLOAD`.
fn payload_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    if len < MIN_PAYLOAD {
        return Err(WireError::Runt { len });
    }
    Ok(len)
}

/// Whether `buf` starts with one complete frame: a valid prefix and
/// every payload byte it announces. [`read_frame`] over such a buffer
/// returns without touching the socket behind it.
///
/// An invalid prefix (oversized or runt) counts as incomplete: a
/// session that holds replies flushes them before it reads the prefix
/// and answers the framing error.
pub(crate) fn holds_frame(buf: &[u8]) -> bool {
    let Some((prefix, payload)) = buf.split_first_chunk::<4>() else {
        return false;
    };
    payload_len(*prefix).is_ok_and(|len| payload.len() >= len)
}

/// Writes one frame around an already-encoded payload (which must
/// start with the version and type bytes).
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload breaks the cap this side
/// enforces on receive (a server must never emit a frame its own
/// decoder would refuse), otherwise [`WireError::Io`].
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len: payload.len(),
            max: MAX_PAYLOAD,
        });
    }
    debug_assert!(payload.len() >= MIN_PAYLOAD);
    writer.write_all(&(payload.len() as u32).to_be_bytes())?;
    writer.write_all(payload)?;
    Ok(())
}

/// Starts a frame payload with the version and frame-type bytes.
#[inline]
pub fn frame(frame_type: u8) -> Enc {
    let mut enc = Enc::with_capacity(32);
    enc.u8(PROTO_VERSION).u8(frame_type);
    enc
}

#[cfg(test)]
mod tests {
    use super::*;

    use rtcac_obs::codec::Dec;

    #[test]
    fn frame_roundtrip() {
        let mut enc = frame(0x42);
        enc.u64(7);
        let payload = enc.finish();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let back = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn oversized_prefix_is_refused_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        match read_frame(&mut wire.as_slice()) {
            Err(WireError::Oversized { len, .. }) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn runt_prefix_is_refused() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_be_bytes());
        wire.push(PROTO_VERSION);
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(WireError::Runt { len: 1 })
        ));
    }

    #[test]
    fn holds_frame_needs_a_valid_prefix_and_its_whole_payload() {
        let mut one = Vec::new();
        write_frame(&mut one, &frame(0x42).finish()).unwrap();
        assert!(!holds_frame(&[]));
        assert!(!holds_frame(&one[..3]), "fewer than 4 bytes");
        assert!(!holds_frame(&one[..one.len() - 1]), "payload short by one");
        assert!(holds_frame(&one), "exactly one frame");
        let mut more = one.clone();
        more.extend_from_slice(&one[..5]);
        assert!(holds_frame(&more), "one frame plus a partial one");
        assert!(!holds_frame(&more[one.len()..]), "the partial one alone");
        let mut oversized = ((MAX_PAYLOAD + 1) as u32).to_be_bytes().to_vec();
        oversized.resize(4 + MAX_PAYLOAD + 1, 0);
        assert!(!holds_frame(&oversized), "oversized prefix");
        let runt = [0, 0, 0, 1, PROTO_VERSION];
        assert!(!holds_frame(&runt), "runt prefix");
    }

    #[test]
    fn clean_eof_is_closed_not_io() {
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(WireError::Closed)
        ));
    }

    #[test]
    fn forged_list_count_is_a_typed_error() {
        let mut enc = frame(0x01);
        enc.u32(u32::MAX); // claims 4 billion entries, provides none
        let payload = enc.finish();
        let mut dec = Dec::new(&payload[2..]);
        assert!(matches!(
            dec.u32_list().map_err(WireError::from),
            Err(WireError::BadPayload("body truncated"))
        ));
    }
}

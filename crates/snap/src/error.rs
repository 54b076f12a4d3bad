//! Snapshot error type: every way a snapshot can fail to encode,
//! decode, verify or restore — always a typed error, never a panic.

use core::fmt;

use rtcac_obs::codec::CodecError;

/// Decode, verification and restore failures.
///
/// Restores are all-or-nothing: when any variant is returned, no engine
/// (or no part of a pre-existing engine) has been touched.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// Filesystem failure (message carries the `std::io::Error` text).
    Io(String),
    /// The file does not start with the `RTSN` magic.
    BadMagic,
    /// The format version is newer than this build understands —
    /// forward-refusing, never best-effort decoding.
    UnsupportedVersion {
        /// The version the file claims.
        got: u16,
        /// The newest version this build can read.
        supported: u16,
    },
    /// The payload ended before a field was complete.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// The file is larger than the decoder is willing to read.
    Oversized {
        /// The offending size in bytes.
        len: u64,
        /// The acceptance limit.
        max: u64,
    },
    /// The section directory is malformed (bad id, overlapping or
    /// out-of-bounds extent, duplicate or missing section).
    BadSection(&'static str),
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// What the checksum covered (`"file"` or a section name).
        over: &'static str,
    },
    /// A field decoded but its value is invalid (context message).
    BadPayload(&'static str),
    /// The decoded snapshot cannot be restored: inconsistent with the
    /// target topology, or it failed the post-rebuild guarantee /
    /// orphaned-reservation audit. Nothing was loaded.
    Refused(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::UnsupportedVersion { got, supported } => write!(
                f,
                "snapshot format version {got} is newer than supported version {supported}"
            ),
            SnapError::Truncated { needed, remaining } => write!(
                f,
                "snapshot truncated: needed {needed} byte(s), {remaining} left"
            ),
            SnapError::Oversized { len, max } => {
                write!(f, "snapshot of {len} byte(s) exceeds the {max}-byte limit")
            }
            SnapError::BadSection(why) => write!(f, "bad section table: {why}"),
            SnapError::ChecksumMismatch { over } => {
                write!(f, "checksum mismatch over {over}")
            }
            SnapError::BadPayload(why) => write!(f, "bad snapshot payload: {why}"),
            SnapError::Refused(why) => write!(f, "snapshot restore refused: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> SnapError {
        SnapError::Io(e.to_string())
    }
}

impl From<CodecError> for SnapError {
    fn from(e: CodecError) -> SnapError {
        match e {
            CodecError::Truncated { needed, remaining } => {
                SnapError::Truncated { needed, remaining }
            }
            CodecError::Invalid(what) => SnapError::BadPayload(what),
            CodecError::BadMagic => SnapError::BadMagic,
            CodecError::UnsupportedVersion { got, supported } => {
                SnapError::UnsupportedVersion { got, supported }
            }
            CodecError::Oversized { len, max } => SnapError::Oversized { len, max },
            CodecError::ChecksumMismatch { over } => SnapError::ChecksumMismatch { over },
            CodecError::BadSection(what) => SnapError::BadSection(what),
        }
    }
}

impl From<rtcac_engine::EngineError> for SnapError {
    fn from(e: rtcac_engine::EngineError) -> SnapError {
        SnapError::Refused(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let cases = [
            SnapError::Io("gone".into()),
            SnapError::BadMagic,
            SnapError::UnsupportedVersion {
                got: 9,
                supported: 1,
            },
            SnapError::Truncated {
                needed: 8,
                remaining: 3,
            },
            SnapError::Oversized {
                len: 1 << 40,
                max: 1 << 28,
            },
            SnapError::BadSection("overlap"),
            SnapError::ChecksumMismatch { over: "registry" },
            SnapError::BadPayload("zero denominator"),
            SnapError::Refused("orphans".into()),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}

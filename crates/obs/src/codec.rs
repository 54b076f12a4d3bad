//! The one bounds-checked binary codec: primitives, the sectioned-file
//! container and the atomic file write.
//!
//! The wire protocol (`rtcac-serve`), the snapshot (`rtcac-snap`) and
//! the flight dump ([`crate::flight`]) all read and write through this
//! module; each keeps only its own section or frame layouts.
//!
//! * [`Enc`] appends big-endian fixed-width integers, one-byte flags,
//!   `u32`-length-prefixed UTF-8 strings and `u32`-counted lists.
//! * [`Dec`] reads them back and never panics: every read is checked
//!   against the bytes left, counts and lengths are checked *before*
//!   anything is allocated, and every failure is one typed
//!   [`CodecError`]. Each user converts it with a `From` impl, so `?`
//!   works at every call site.
//! * [`Container`] is the sectioned file both snapshots (`RTSN`) and
//!   flight dumps (`RTFR`) use:
//!
//! ```text
//! offset  size  field
//! 0       4     magic
//! 4       2     format version (u16 BE) — forward-refusing
//! 6       1     section count
//! 7       25×N  directory: id u8, offset u64, len u64, fnv64 u64
//! …       …     payloads (contiguous, directory order)
//! end-8   8     whole-file FNV-1a 64 over every preceding byte
//! ```
//!
//! * [`write_atomic`] writes a file so that a crash leaves the old
//!   contents or the new, never a torn mix.

use core::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::ops::RangeInclusive;
use std::path::Path;

/// 64-bit FNV-1a over a byte slice: the section and whole-file checksum
/// of every [`Container`]. Std-only, deterministic, order-sensitive, and
/// a single changed byte always changes the hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Every way a buffer can fail to decode.
///
/// [`Dec`] produces only [`Truncated`](CodecError::Truncated) and
/// [`Invalid`](CodecError::Invalid); the other variants come from
/// [`Container::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a field, or a count or length claims more
    /// bytes than are left.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A field decoded but its value is invalid.
    Invalid(&'static str),
    /// The file does not start with the container's magic.
    BadMagic,
    /// The file's format version is outside what this build reads.
    UnsupportedVersion {
        /// The version the file claims.
        got: u16,
        /// The newest version this build reads.
        supported: u16,
    },
    /// The file is larger than the container accepts.
    Oversized {
        /// The file size in bytes.
        len: u64,
        /// The acceptance limit.
        max: u64,
    },
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// What the checksum covered (`"file"` or a section name).
        over: &'static str,
    },
    /// The section directory is malformed.
    BadSection(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated: needed {needed} byte(s), {remaining} left")
            }
            CodecError::Invalid(what) => write!(f, "invalid field: {what}"),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "format version {got} is newer than supported {supported}"
                )
            }
            CodecError::Oversized { len, max } => {
                write!(f, "{len} byte(s) exceed the {max}-byte limit")
            }
            CodecError::ChecksumMismatch { over } => write!(f, "checksum mismatch over {over}"),
            CodecError::BadSection(what) => write!(f, "bad section table: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only big-endian encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[inline]
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An empty encoder with room for `capacity` bytes.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Enc {
        Enc {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Takes the encoded bytes, leaving the encoder empty — so a chain
    /// can end in it: `Enc::new().u8(1).u64(7).finish()`.
    #[inline]
    pub fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Appends raw bytes, unprefixed.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) -> &mut Enc {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Enc {
        self.buf.push(v);
        self
    }

    /// Appends a boolean as one byte (0 or 1).
    #[inline]
    pub fn flag(&mut self, v: bool) -> &mut Enc {
        self.u8(u8::from(v))
    }

    /// Appends a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Enc {
        self.bytes(&v.to_be_bytes())
    }

    /// Appends a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Enc {
        self.bytes(&v.to_be_bytes())
    }

    /// Appends a big-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Enc {
        self.bytes(&v.to_be_bytes())
    }

    /// Appends a big-endian `i128`.
    #[inline]
    pub fn i128(&mut self, v: i128) -> &mut Enc {
        self.bytes(&v.to_be_bytes())
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn string(&mut self, v: &str) -> &mut Enc {
        self.u32(v.len() as u32).bytes(v.as_bytes())
    }

    /// Appends a `u32`-counted list of `u32`s.
    #[inline]
    pub fn u32_list<I>(&mut self, vs: I) -> &mut Enc
    where
        I: IntoIterator<Item = u32>,
        I::IntoIter: ExactSizeIterator,
    {
        let vs = vs.into_iter();
        self.u32(vs.len() as u32);
        for v in vs {
            self.u32(v);
        }
        self
    }
}

/// Decoder over a byte slice. Every read is checked against the bytes
/// left; no input makes it panic.
#[derive(Debug)]
pub struct Dec<'a> {
    rest: &'a [u8],
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Dec<'a> {
        Dec { rest: data }
    }

    /// Fails unless the buffer was consumed exactly: trailing bytes mean
    /// the writer and reader disagree about the layout.
    #[inline]
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes after payload"))
        }
    }

    #[inline]
    fn truncated(&self, needed: usize) -> CodecError {
        CodecError::Truncated {
            needed,
            remaining: self.rest.len(),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, tail) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(n))?;
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.rest = tail;
        Ok(*head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_be_bytes(self.array()?))
    }

    /// Reads a boolean byte, refusing anything but 0 or 1.
    #[inline]
    pub fn flag(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("flag byte is neither 0 nor 1")),
        }
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `i128`.
    #[inline]
    pub fn i128(&mut self) -> Result<i128, CodecError> {
        Ok(i128::from_be_bytes(self.array()?))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string; the length is checked
    /// against the bytes left before anything is allocated.
    #[inline]
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| CodecError::Invalid("invalid UTF-8"))
    }

    /// Checks a decoded element count against the bytes left (each
    /// element needs at least `min_size` bytes) *before* the caller
    /// allocates, so a forged count cannot force a huge `Vec`.
    #[inline]
    pub fn check_count(&self, count: u32, min_size: usize) -> Result<usize, CodecError> {
        let count = count as usize;
        let needed = count.saturating_mul(min_size);
        if needed > self.rest.len() {
            return Err(self.truncated(needed));
        }
        Ok(count)
    }

    /// Reads a `u32` element count, checked like [`Dec::check_count`].
    #[inline]
    pub fn count(&mut self, min_size: usize) -> Result<usize, CodecError> {
        let count = self.u32()?;
        self.check_count(count, min_size)
    }

    /// Reads a `u32`-counted list whose elements `item` decodes, each
    /// needing at least `min_size` bytes; the count is checked like
    /// [`Dec::check_count`] before anything is allocated.
    #[inline]
    pub fn list<T>(
        &mut self,
        min_size: usize,
        mut item: impl FnMut(&mut Dec<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let count = self.count(min_size)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Reads a `u32`-counted list of `u32`s.
    #[inline]
    pub fn u32_list(&mut self) -> Result<Vec<u32>, CodecError> {
        self.list(4, Dec::u32)
    }
}

/// One section directory entry of a parsed [`Container`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// The section id.
    pub id: u8,
    /// The section name (`"meta"`, `"topology"`, …).
    pub name: &'static str,
    /// Absolute payload offset.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// The stored FNV-1a 64 checksum of the payload.
    pub checksum: u64,
}

impl SectionInfo {
    /// This section's payload within `file`, the bytes it was parsed
    /// from (empty if `file` is some other, shorter buffer).
    pub fn payload<'a>(&self, file: &'a [u8]) -> &'a [u8] {
        let end = self.offset.saturating_add(self.len);
        file.get(self.offset as usize..end as usize)
            .unwrap_or_default()
    }
}

/// A sectioned, checksummed, versioned file format: the layout in the
/// [module docs](self), with a fixed list of mandatory sections.
#[derive(Debug, Clone)]
pub struct Container {
    /// The four-byte magic every file starts with.
    pub magic: [u8; 4],
    /// The format versions a reader accepts; the newest is the one
    /// named in [`CodecError::UnsupportedVersion`].
    pub versions: RangeInclusive<u16>,
    /// Every section, in file order: `(id, name)`.
    pub sections: &'static [(u8, &'static str)],
    /// Files larger than this are refused before anything is parsed.
    pub max_len: u64,
}

const HEADER: usize = 4 + 2 + 1;
const DIR_ENTRY: usize = 1 + 8 + 8 + 8;
const TRAILER: usize = 8;

impl Container {
    /// Lays out one file: header, directory, `payloads` (one per
    /// section, in [`Container::sections`] order) and the whole-file
    /// checksum. A pure function of its inputs.
    pub fn write(&self, version: u16, payloads: &[Vec<u8>]) -> Vec<u8> {
        debug_assert_eq!(payloads.len(), self.sections.len());
        let dir_end = HEADER + payloads.len() * DIR_ENTRY;
        let body: usize = payloads.iter().map(Vec::len).sum();
        let mut enc = Enc::with_capacity(dir_end + body + TRAILER);
        enc.bytes(&self.magic).u16(version).u8(payloads.len() as u8);
        let mut offset = dir_end as u64;
        for (&(id, _), payload) in self.sections.iter().zip(payloads) {
            enc.u8(id)
                .u64(offset)
                .u64(payload.len() as u64)
                .u64(fnv64(payload));
            offset += payload.len() as u64;
        }
        for payload in payloads {
            enc.bytes(payload);
        }
        let sum = fnv64(&enc.buf);
        enc.u64(sum);
        enc.finish()
    }

    /// Verifies a file without decoding any payload: size, magic,
    /// version, whole-file checksum, then each directory entry (id,
    /// contiguity, bounds, checksum), and that no byte lies outside a
    /// section. Returns the version and the directory.
    ///
    /// # Errors
    ///
    /// The first thing wrong with `bytes`; a single flipped bit anywhere
    /// is refused.
    pub fn parse(&self, bytes: &[u8]) -> Result<(u16, Vec<SectionInfo>), CodecError> {
        let file_len = bytes.len() as u64;
        if file_len > self.max_len {
            return Err(CodecError::Oversized {
                len: file_len,
                max: self.max_len,
            });
        }
        if bytes.get(..4) != Some(&self.magic[..]) {
            return Err(CodecError::BadMagic);
        }
        let Some((body, stored_sum)) = bytes
            .split_last_chunk::<TRAILER>()
            .filter(|(body, _)| body.len() >= HEADER)
        else {
            return Err(CodecError::Truncated {
                needed: HEADER + TRAILER,
                remaining: bytes.len(),
            });
        };
        let mut head = Dec::new(body);
        head.take(4)?;
        let version = head.u16()?;
        if !self.versions.contains(&version) {
            return Err(CodecError::UnsupportedVersion {
                got: version,
                supported: *self.versions.end(),
            });
        }
        if fnv64(body) != u64::from_be_bytes(*stored_sum) {
            return Err(CodecError::ChecksumMismatch { over: "file" });
        }
        let count = head.u8()? as usize;
        if count != self.sections.len() {
            return Err(CodecError::BadSection("wrong number of sections"));
        }
        let dir_end = HEADER + count * DIR_ENTRY;
        if dir_end > body.len() {
            return Err(CodecError::Truncated {
                needed: dir_end + TRAILER,
                remaining: bytes.len(),
            });
        }
        let body_len = body.len() as u64;
        let mut sections = Vec::with_capacity(count);
        let mut expected_offset = dir_end as u64;
        for &(expected_id, name) in self.sections {
            let section = SectionInfo {
                id: head.u8()?,
                name,
                offset: head.u64()?,
                len: head.u64()?,
                checksum: head.u64()?,
            };
            if section.id != expected_id {
                return Err(CodecError::BadSection("unknown or out-of-order section id"));
            }
            if section.offset != expected_offset {
                return Err(CodecError::BadSection("sections must be contiguous"));
            }
            let end = section
                .offset
                .checked_add(section.len)
                .ok_or(CodecError::BadSection("section extent overflows the file"))?;
            if end > body_len {
                return Err(CodecError::BadSection("section extends past the payload"));
            }
            if fnv64(section.payload(body)) != section.checksum {
                return Err(CodecError::ChecksumMismatch { over: name });
            }
            expected_offset = end;
            sections.push(section);
        }
        if expected_offset != body_len {
            return Err(CodecError::BadSection("payload bytes outside any section"));
        }
        Ok((version, sections))
    }
}

/// Writes `bytes` to `path` atomically: a temp sibling (`<name>.tmp`) is
/// written and fsynced, renamed over `path`, and on Unix the parent
/// directory is fsynced so the rename itself survives power loss. A
/// crash leaves the old file or the new one, never a torn mix, and the
/// temp sibling is removed on every error path. On non-Unix platforms
/// the directory entry may revert on power loss.
///
/// # Errors
///
/// The first filesystem error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        #[cfg(unix)]
        {
            let parent = match path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }

    #[test]
    fn failed_rename_leaves_no_temp_sibling() {
        let dir = std::env::temp_dir().join(format!("rtcac-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let target = dir.join("occupied");
        fs::create_dir_all(&target).unwrap();
        assert!(write_atomic(&target, b"bytes").is_err());
        assert!(target.is_dir(), "the target is untouched");
        assert!(!dir.join("occupied.tmp").exists());
        write_atomic(&dir.join("ok"), b"bytes").unwrap();
        assert_eq!(fs::read(dir.join("ok")).unwrap(), b"bytes");
        assert!(!dir.join("ok.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod props {
    //! Property suite of the shared codec.
    //!
    //! * every primitive round-trips, in random sequences;
    //! * every strict prefix of a valid encoding decodes to
    //!   [`CodecError::Truncated`], never a panic or a short success;
    //! * forged `u32` counts and string lengths are refused before anything
    //!   is allocated (a `Vec` of `u32::MAX` elements would abort the test);
    //! * `take` near `usize::MAX` does not overflow;
    //! * a single flipped bit anywhere in a [`Container`] is refused, and so
    //!   is every strict prefix.
    //!
    //! Seeded and std-only; `RTCAC_TEST_SEED=<u64>` replays a failure, and
    //! every assertion message carries the seed.

    use super::*;

    /// Random primitive sequences per run.
    const SEQUENCES: usize = 400;
    /// Random containers per run (each is bit-flipped exhaustively).
    const CONTAINERS: usize = 40;

    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn bytes(&mut self, max_len: u64) -> Vec<u8> {
            (0..self.below(max_len + 1))
                .map(|_| self.next() as u8)
                .collect()
        }
    }

    fn seed() -> u64 {
        const DEFAULT: u64 = 0xC0DE_C0DE;
        let Ok(s) = std::env::var("RTCAC_TEST_SEED") else {
            return DEFAULT;
        };
        let parsed = s.parse();
        assert!(parsed.is_ok(), "RTCAC_TEST_SEED={s:?} is not a u64");
        parsed.unwrap_or(DEFAULT)
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Field {
        U8(u8),
        Flag(bool),
        U16(u16),
        U32(u32),
        U64(u64),
        I128(i128),
        Str(String),
        List(Vec<u32>),
    }

    impl Field {
        fn random(rng: &mut SplitMix64) -> Field {
            match rng.below(8) {
                0 => Field::U8(rng.next() as u8),
                1 => Field::Flag(rng.next() & 1 == 1),
                2 => Field::U16(rng.next() as u16),
                3 => Field::U32(rng.next() as u32),
                4 => Field::U64(rng.next()),
                5 => Field::I128((i128::from(rng.next()) << 64) | i128::from(rng.next())),
                6 => {
                    let chars = ['a', 'z', '0', ' ', 'é', '∑', '🦀'];
                    let len = rng.below(12);
                    Field::Str(
                        (0..len)
                            .map(|_| chars[rng.below(chars.len() as u64) as usize])
                            .collect(),
                    )
                }
                _ => Field::List((0..rng.below(6)).map(|_| rng.next() as u32).collect()),
            }
        }

        /// The variant's index, for the coverage tally.
        fn kind(&self) -> usize {
            match self {
                Field::U8(_) => 0,
                Field::Flag(_) => 1,
                Field::U16(_) => 2,
                Field::U32(_) => 3,
                Field::U64(_) => 4,
                Field::I128(_) => 5,
                Field::Str(_) => 6,
                Field::List(_) => 7,
            }
        }

        fn encode(&self, enc: &mut Enc) {
            match self {
                Field::U8(v) => enc.u8(*v),
                Field::Flag(v) => enc.flag(*v),
                Field::U16(v) => enc.u16(*v),
                Field::U32(v) => enc.u32(*v),
                Field::U64(v) => enc.u64(*v),
                Field::I128(v) => enc.i128(*v),
                Field::Str(v) => enc.string(v),
                Field::List(v) => enc.u32_list(v.iter().copied()),
            };
        }

        /// Decodes a field of the same kind as `self`.
        fn decode_like(&self, dec: &mut Dec<'_>) -> Result<Field, CodecError> {
            Ok(match self {
                Field::U8(_) => Field::U8(dec.u8()?),
                Field::Flag(_) => Field::Flag(dec.flag()?),
                Field::U16(_) => Field::U16(dec.u16()?),
                Field::U32(_) => Field::U32(dec.u32()?),
                Field::U64(_) => Field::U64(dec.u64()?),
                Field::I128(_) => Field::I128(dec.i128()?),
                Field::Str(_) => Field::Str(dec.string()?),
                Field::List(_) => Field::List(dec.u32_list()?),
            })
        }
    }

    fn decode_all(schema: &[Field], bytes: &[u8]) -> Result<Vec<Field>, CodecError> {
        let mut dec = Dec::new(bytes);
        let fields = schema
            .iter()
            .map(|f| f.decode_like(&mut dec))
            .collect::<Result<Vec<_>, _>>()?;
        dec.expect_end()?;
        Ok(fields)
    }

    #[test]
    fn primitives_round_trip_and_every_strict_prefix_is_truncated() {
        let seed = seed();
        let mut rng = SplitMix64(seed);
        let mut kinds = [0usize; 8];
        for case in 0..SEQUENCES {
            let ctx = format!("RTCAC_TEST_SEED={seed} sequence {case}");
            let fields: Vec<Field> = (0..1 + rng.below(8))
                .map(|_| Field::random(&mut rng))
                .collect();
            let mut enc = Enc::new();
            for f in &fields {
                f.encode(&mut enc);
                kinds[f.kind()] += 1;
            }
            let bytes = enc.finish();
            assert_eq!(decode_all(&fields, &bytes).as_ref(), Ok(&fields), "{ctx}");
            for cut in 0..bytes.len() {
                match decode_all(&fields, &bytes[..cut]) {
                    Err(CodecError::Truncated { needed, remaining }) => {
                        assert!(
                            needed > remaining,
                            "{ctx} cut {cut}: {needed} <= {remaining}"
                        );
                    }
                    other => panic!("{ctx} cut {cut}: prefix decoded to {other:?}"),
                }
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert_eq!(
                decode_all(&fields, &trailing),
                Err(CodecError::Invalid("trailing bytes after payload")),
                "{ctx}"
            );
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "RTCAC_TEST_SEED={seed}: {kinds:?}"
        );
    }

    #[test]
    fn invalid_values_are_typed_errors() {
        assert_eq!(
            Dec::new(&[2]).flag(),
            Err(CodecError::Invalid("flag byte is neither 0 nor 1"))
        );
        let mut enc = Enc::new();
        enc.u32(2).bytes(&[0xC3, 0x28]);
        assert_eq!(
            Dec::new(&enc.finish()).string(),
            Err(CodecError::Invalid("invalid UTF-8"))
        );
    }

    #[test]
    fn forged_counts_and_lengths_are_refused_before_allocation() {
        let seed = seed();
        let mut rng = SplitMix64(seed ^ 0xF0F0);
        for case in 0..SEQUENCES {
            let ctx = format!("RTCAC_TEST_SEED={seed} forgery {case}");
            let tail = rng.bytes(64);
            // A claim strictly larger than what the tail can hold.
            let floor = tail.len() as u64 / 4 + 1;
            let count = (floor + rng.below(u64::from(u32::MAX) - floor + 1)) as u32;
            let mut enc = Enc::new();
            enc.u32(count).bytes(&tail);
            let bytes = enc.finish();
            assert!(
                matches!(
                    Dec::new(&bytes).u32_list(),
                    Err(CodecError::Truncated { .. })
                ),
                "{ctx}: list of {count}"
            );
            let len =
                (tail.len() as u64 + 1 + rng.below(u64::from(u32::MAX) - tail.len() as u64)) as u32;
            let mut enc = Enc::new();
            enc.u32(len).bytes(&tail);
            let bytes = enc.finish();
            assert_eq!(
                Dec::new(&bytes).string(),
                Err(CodecError::Truncated {
                    needed: len as usize,
                    remaining: tail.len(),
                }),
                "{ctx}: string of {len}"
            );
            let min_size = 1 + rng.below(64) as usize;
            let dec = Dec::new(&tail);
            let claim = (tail.len() / min_size + 1) as u32;
            assert!(
                matches!(
                    dec.check_count(claim, min_size),
                    Err(CodecError::Truncated { .. })
                ),
                "{ctx}: {claim} x {min_size}"
            );
            assert_eq!(
                dec.check_count(claim - 1, min_size),
                Ok(claim as usize - 1),
                "{ctx}: {} x {min_size} fits",
                claim - 1
            );
        }
        assert!(matches!(
            Dec::new(&[0; 8]).check_count(u32::MAX, usize::MAX),
            Err(CodecError::Truncated {
                needed: usize::MAX,
                ..
            })
        ));
    }

    #[test]
    fn take_near_usize_max_does_not_overflow() {
        let mut dec = Dec::new(&[1, 2, 3]);
        assert_eq!(dec.u8(), Ok(1));
        // `remaining: 2` each time: a refused take consumes nothing.
        for n in [usize::MAX, usize::MAX - 1, usize::MAX / 2 + 1, 3] {
            assert_eq!(
                dec.take(n),
                Err(CodecError::Truncated {
                    needed: n,
                    remaining: 2
                })
            );
        }
        assert_eq!(dec.take(2), Ok(&[2u8, 3][..]));
        assert_eq!(dec.take(0), Ok(&[][..]));
        assert!(dec.expect_end().is_ok());
    }

    const SECTIONS: [(u8, &str); 3] = [(1, "alpha"), (2, "beta"), (3, "gamma")];

    fn container() -> Container {
        Container {
            magic: *b"TEST",
            versions: 2..=3,
            sections: &SECTIONS,
            max_len: 1 << 12,
        }
    }

    #[test]
    fn container_round_trips_and_refuses_every_bit_flip_and_prefix() {
        let seed = seed();
        let mut rng = SplitMix64(seed ^ 0xC0C0);
        let format = container();
        for case in 0..CONTAINERS {
            let ctx = format!("RTCAC_TEST_SEED={seed} container {case}");
            let version = 2 + rng.below(2) as u16;
            let payloads: Vec<Vec<u8>> = SECTIONS.iter().map(|_| rng.bytes(24)).collect();
            let bytes = format.write(version, &payloads);
            let (got_version, sections) = format.parse(&bytes).unwrap_or_else(|e| {
                panic!("{ctx}: a written container is refused: {e}");
            });
            assert_eq!(got_version, version, "{ctx}");
            let got: Vec<&[u8]> = sections.iter().map(|s| s.payload(&bytes)).collect();
            let want: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            assert_eq!(got, want, "{ctx}");
            for bit in 0..bytes.len() * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    format.parse(&bad).is_err(),
                    "{ctx}: flipped bit {bit} was accepted"
                );
            }
            for cut in 0..bytes.len() {
                assert!(
                    format.parse(&bytes[..cut]).is_err(),
                    "{ctx}: prefix of {cut} bytes was accepted"
                );
            }
        }
    }

    #[test]
    fn container_refuses_foreign_versions_and_oversized_files() {
        let format = container();
        let payloads = vec![vec![1], vec![], vec![2, 3]];
        for version in [0, 1, 4, u16::MAX] {
            let bytes = format.write(version, &payloads);
            assert_eq!(
                format.parse(&bytes),
                Err(CodecError::UnsupportedVersion {
                    got: version,
                    supported: 3
                })
            );
        }
        let small = Container {
            max_len: 10,
            ..container()
        };
        let bytes = format.write(2, &payloads);
        assert_eq!(
            small.parse(&bytes),
            Err(CodecError::Oversized {
                len: bytes.len() as u64,
                max: 10
            })
        );
        assert_eq!(format.parse(b"RTSN"), Err(CodecError::BadMagic));
    }
}

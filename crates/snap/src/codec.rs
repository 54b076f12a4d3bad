//! Bounds-checked binary primitives for the snapshot format.
//!
//! Same codec discipline as the service wire protocol
//! (`crates/serve/src/wire.rs`): big-endian fixed-width integers, exact
//! `(i128, i128)` rationals re-validated through [`Ratio::new`] on the
//! way in, length-prefixed strings and lists whose counts are checked
//! against the remaining payload *before* any allocation, and a typed
//! error for every way a buffer can lie — decoding never panics.

use rtcac_bitstream::{Rate, Time};
use rtcac_rational::Ratio;

use crate::SnapError;

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Enc {
        self.buf.push(v);
        self
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn flag(&mut self, v: bool) -> &mut Enc {
        self.u8(u8::from(v))
    }

    /// Appends a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `i128`.
    pub fn i128(&mut self, v: i128) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an exact rational as `(numerator, denominator)`.
    pub fn ratio(&mut self, v: Ratio) -> &mut Enc {
        self.i128(v.numer()).i128(v.denom())
    }

    /// Appends a [`Time`] as its exact rational.
    pub fn time(&mut self, v: Time) -> &mut Enc {
        self.ratio(v.as_ratio())
    }

    /// Appends a [`Rate`] as its exact rational.
    pub fn rate(&mut self, v: Rate) -> &mut Enc {
        self.ratio(v.as_ratio())
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Enc {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
        self
    }

    /// Appends a length-prefixed list of `u32`s.
    pub fn u32_list(&mut self, vs: impl IntoIterator<Item = u32>) -> &mut Enc {
        let start = self.buf.len();
        self.u32(0);
        let mut count: u32 = 0;
        for v in vs {
            self.u32(v);
            count += 1;
        }
        self.buf[start..start + 4].copy_from_slice(&count.to_be_bytes());
        self
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Dec<'a> {
        Dec { data, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    /// Fails unless the payload was consumed exactly — trailing bytes
    /// mean a framing bug or a tampered file, not something to ignore.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::BadPayload("trailing bytes after payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean byte, refusing anything but 0 or 1.
    pub fn flag(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadPayload("flag byte is neither 0 nor 1")),
        }
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a big-endian `i128`.
    pub fn i128(&mut self) -> Result<i128, SnapError> {
        Ok(i128::from_be_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads an exact rational, re-validated through [`Ratio::new`] so
    /// a forged zero denominator (or any non-canonical encoding) is a
    /// typed error, not a later arithmetic surprise.
    pub fn ratio(&mut self) -> Result<Ratio, SnapError> {
        let numer = self.i128()?;
        let denom = self.i128()?;
        Ratio::new(numer, denom).map_err(|_| SnapError::BadPayload("invalid rational"))
    }

    /// Reads a [`Time`].
    pub fn time(&mut self) -> Result<Time, SnapError> {
        Ok(Time::new(self.ratio()?))
    }

    /// Reads a [`Rate`].
    pub fn rate(&mut self) -> Result<Rate, SnapError> {
        Ok(Rate::new(self.ratio()?))
    }

    /// Reads a length-prefixed UTF-8 string, validating the length
    /// against the remaining payload before allocating.
    pub fn string(&mut self) -> Result<String, SnapError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(SnapError::Truncated {
                needed: len,
                remaining: self.remaining(),
            });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::BadPayload("invalid UTF-8"))
    }

    /// Validates a decoded element count against the remaining payload
    /// (each element needs at least `min_size` bytes) *before* the
    /// caller allocates — a forged count cannot force a huge `Vec`.
    pub fn check_count(&self, count: u32, min_size: usize) -> Result<usize, SnapError> {
        let count = count as usize;
        if count.saturating_mul(min_size) > self.remaining() {
            return Err(SnapError::Truncated {
                needed: count * min_size,
                remaining: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Reads a length-prefixed list of `u32`s.
    pub fn u32_list(&mut self) -> Result<Vec<u32>, SnapError> {
        let count = self.u32()?;
        let count = self.check_count(count, 4)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u32()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_rational::ratio;

    #[test]
    fn roundtrip_primitives() {
        let mut enc = Enc::new();
        enc.u8(7)
            .flag(true)
            .u16(513)
            .u32(70_000)
            .u64(1 << 40)
            .i128(-5)
            .ratio(ratio(22, 7))
            .string("hello")
            .u32_list([3, 1, 4]);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert!(dec.flag().unwrap());
        assert_eq!(dec.u16().unwrap(), 513);
        assert_eq!(dec.u32().unwrap(), 70_000);
        assert_eq!(dec.u64().unwrap(), 1 << 40);
        assert_eq!(dec.i128().unwrap(), -5);
        assert_eq!(dec.ratio().unwrap(), ratio(22, 7));
        assert_eq!(dec.string().unwrap(), "hello");
        assert_eq!(dec.u32_list().unwrap(), vec![3, 1, 4]);
        dec.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut dec = Dec::new(&[1, 2]);
        assert!(matches!(dec.u32(), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn forged_counts_refused_before_allocation() {
        let mut enc = Enc::new();
        enc.u32(u32::MAX); // list claims 4 billion elements
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert!(matches!(dec.u32_list(), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn zero_denominator_refused() {
        let mut enc = Enc::new();
        enc.i128(1).i128(0);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.ratio(), Err(SnapError::BadPayload("invalid rational")));
    }
}

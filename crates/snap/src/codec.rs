//! Exact rationals over the shared codec ([`rtcac_obs::codec`]).
//!
//! A [`Ratio`] travels as its `(i128 numerator, i128 denominator)` pair
//! and is re-validated through [`Ratio::new`] on the way in, so a forged
//! zero denominator (or any non-canonical pair) is a typed error, not a
//! later arithmetic surprise. [`Time`] and [`Rate`] travel as their
//! rationals, and a [`TrafficContract`] as a tag byte (0 CBR, 1 VBR)
//! followed by its parameters, re-validated on the way in. The wire
//! protocol reads and writes its rationals and contracts through these
//! traits too.

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_obs::codec::{CodecError, Dec, Enc};
use rtcac_rational::Ratio;

/// Writes exact rationals, times and rates.
pub trait EncExact {
    /// Appends an exact rational as `(numerator, denominator)`.
    fn ratio(&mut self, v: Ratio) -> &mut Enc;
    /// Appends a [`Time`] as its exact rational.
    fn time(&mut self, v: Time) -> &mut Enc;
    /// Appends a [`Rate`] as its exact rational.
    fn rate(&mut self, v: Rate) -> &mut Enc;
    /// Appends a traffic contract: tag, PCR, then SCR and MBS for VBR.
    fn contract(&mut self, v: TrafficContract) -> &mut Enc;
}

impl EncExact for Enc {
    #[inline]
    fn ratio(&mut self, v: Ratio) -> &mut Enc {
        self.i128(v.numer()).i128(v.denom())
    }

    #[inline]
    fn time(&mut self, v: Time) -> &mut Enc {
        self.ratio(v.as_ratio())
    }

    #[inline]
    fn rate(&mut self, v: Rate) -> &mut Enc {
        self.ratio(v.as_ratio())
    }

    #[inline]
    fn contract(&mut self, v: TrafficContract) -> &mut Enc {
        match v {
            TrafficContract::Cbr(p) => self.u8(0).rate(p.pcr()),
            TrafficContract::Vbr(p) => self.u8(1).rate(p.pcr()).rate(p.scr()).u64(p.mbs()),
        }
    }
}

/// Reads exact rationals, times and rates.
pub trait DecExact {
    /// Reads an exact rational, re-validated through [`Ratio::new`].
    fn ratio(&mut self) -> Result<Ratio, CodecError>;
    /// Reads a [`Time`].
    fn time(&mut self) -> Result<Time, CodecError>;
    /// Reads a [`Rate`].
    fn rate(&mut self) -> Result<Rate, CodecError>;
    /// Reads a traffic contract, re-validated through its constructor.
    fn contract(&mut self) -> Result<TrafficContract, CodecError>;
}

impl DecExact for Dec<'_> {
    #[inline]
    fn ratio(&mut self) -> Result<Ratio, CodecError> {
        let numer = self.i128()?;
        let denom = self.i128()?;
        Ratio::new(numer, denom).map_err(|_| CodecError::Invalid("invalid rational"))
    }

    #[inline]
    fn time(&mut self) -> Result<Time, CodecError> {
        Ok(Time::new(self.ratio()?))
    }

    #[inline]
    fn rate(&mut self) -> Result<Rate, CodecError> {
        Ok(Rate::new(self.ratio()?))
    }

    #[inline]
    fn contract(&mut self) -> Result<TrafficContract, CodecError> {
        match self.u8()? {
            0 => CbrParams::new(self.rate()?)
                .map(TrafficContract::Cbr)
                .map_err(|_| CodecError::Invalid("invalid CBR contract")),
            1 => {
                let (pcr, scr, mbs) = (self.rate()?, self.rate()?, self.u64()?);
                VbrParams::new(pcr, scr, mbs)
                    .map(TrafficContract::Vbr)
                    .map_err(|_| CodecError::Invalid("invalid VBR contract"))
            }
            _ => Err(CodecError::Invalid("unknown contract tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_rational::ratio;

    #[test]
    fn exact_values_round_trip() {
        let mut enc = Enc::new();
        enc.ratio(ratio(22, 7))
            .time(Time::new(ratio(-1, 3)))
            .rate(Rate::new(ratio(1, 8)));
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.ratio().unwrap(), ratio(22, 7));
        assert_eq!(dec.time().unwrap(), Time::new(ratio(-1, 3)));
        assert_eq!(dec.rate().unwrap(), Rate::new(ratio(1, 8)));
        dec.expect_end().unwrap();
    }

    #[test]
    fn zero_denominator_refused() {
        let mut enc = Enc::new();
        enc.i128(1).i128(0);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.ratio(), Err(CodecError::Invalid("invalid rational")));
    }
}

//! Traffic contracts (§2): VBR and CBR source descriptors and their
//! conversion to worst-case bit streams (Algorithm 2.1).

use core::fmt;

use rtcac_rational::Ratio;

use crate::{BitStream, Cells, Rate, Segment, Time};

/// Error produced by traffic-contract validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ContractError {
    /// The peak cell rate was zero or negative.
    NonPositivePcr,
    /// The sustainable cell rate was zero or negative.
    NonPositiveScr,
    /// The sustainable cell rate exceeded the peak cell rate.
    ScrExceedsPcr,
    /// The peak cell rate exceeded the (normalized) link bandwidth.
    PcrExceedsLink,
    /// The maximum burst size was zero.
    ZeroMbs,
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractError::NonPositivePcr => write!(f, "peak cell rate must be positive"),
            ContractError::NonPositiveScr => {
                write!(f, "sustainable cell rate must be positive")
            }
            ContractError::ScrExceedsPcr => {
                write!(f, "sustainable cell rate exceeds peak cell rate")
            }
            ContractError::PcrExceedsLink => {
                write!(f, "peak cell rate exceeds link bandwidth")
            }
            ContractError::ZeroMbs => write!(f, "maximum burst size must be at least one cell"),
        }
    }
}

impl std::error::Error for ContractError {}

/// VBR traffic parameters `(PCR, SCR, MBS)` per the ATM Forum traffic
/// management specification (paper §2).
///
/// The source may emit up to `MBS` cells back to back at the peak cell
/// rate `PCR`, provided its average rate never exceeds the sustainable
/// cell rate `SCR` (token-bucket semantics, Equation 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VbrParams {
    pcr: Rate,
    scr: Rate,
    mbs: u64,
}

impl VbrParams {
    /// Creates and validates VBR parameters.
    ///
    /// # Errors
    ///
    /// Requires `0 < scr <= pcr <= 1` (rates normalized to the link
    /// bandwidth) and `mbs >= 1`.
    ///
    /// ```
    /// use rtcac_bitstream::{Rate, VbrParams};
    /// use rtcac_rational::ratio;
    ///
    /// let p = VbrParams::new(Rate::new(ratio(1, 4)), Rate::new(ratio(1, 16)), 8)?;
    /// assert_eq!(p.mbs(), 8);
    /// # Ok::<(), rtcac_bitstream::ContractError>(())
    /// ```
    pub fn new(pcr: Rate, scr: Rate, mbs: u64) -> Result<VbrParams, ContractError> {
        if !pcr.is_positive() {
            return Err(ContractError::NonPositivePcr);
        }
        if !scr.is_positive() {
            return Err(ContractError::NonPositiveScr);
        }
        if scr > pcr {
            return Err(ContractError::ScrExceedsPcr);
        }
        if pcr > Rate::FULL {
            return Err(ContractError::PcrExceedsLink);
        }
        if mbs == 0 {
            return Err(ContractError::ZeroMbs);
        }
        Ok(VbrParams { pcr, scr, mbs })
    }

    /// The peak cell rate, normalized to the link bandwidth.
    pub fn pcr(&self) -> Rate {
        self.pcr
    }

    /// The sustainable cell rate, normalized to the link bandwidth.
    pub fn scr(&self) -> Rate {
        self.scr
    }

    /// The maximum burst size in cells.
    pub fn mbs(&self) -> u64 {
        self.mbs
    }
}

/// CBR traffic parameters: a peak cell rate only (paper §2 treats CBR
/// as VBR with `SCR = PCR`, `MBS = 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CbrParams {
    pcr: Rate,
}

impl CbrParams {
    /// Creates and validates CBR parameters (`0 < pcr <= 1`).
    ///
    /// # Errors
    ///
    /// Returns [`ContractError::NonPositivePcr`] or
    /// [`ContractError::PcrExceedsLink`].
    pub fn new(pcr: Rate) -> Result<CbrParams, ContractError> {
        if !pcr.is_positive() {
            return Err(ContractError::NonPositivePcr);
        }
        if pcr > Rate::FULL {
            return Err(ContractError::PcrExceedsLink);
        }
        Ok(CbrParams { pcr })
    }

    /// The peak cell rate, normalized to the link bandwidth.
    pub fn pcr(&self) -> Rate {
        self.pcr
    }
}

/// A source traffic contract: either CBR or VBR (paper §2).
///
/// # Examples
///
/// Algorithm 2.1: the worst-case generation pattern of a VBR connection
/// is `S = {(1, 0), (PCR, 1), (SCR, 1 + (MBS − 1) / PCR)}`:
///
/// ```
/// use rtcac_bitstream::{Rate, TrafficContract, VbrParams};
/// use rtcac_rational::ratio;
///
/// let c = TrafficContract::vbr(VbrParams::new(
///     Rate::new(ratio(1, 2)),
///     Rate::new(ratio(1, 10)),
///     5,
/// )?);
/// let s = c.worst_case_stream();
/// // Breakpoints: (1, 0), (1/2, 1), (1/10, 1 + 4/(1/2) = 9).
/// assert_eq!(s.segments().len(), 3);
/// assert_eq!(s.long_run_rate(), Rate::new(ratio(1, 10)));
/// # Ok::<(), rtcac_bitstream::ContractError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficContract {
    /// Constant bit rate.
    Cbr(CbrParams),
    /// Variable bit rate.
    Vbr(VbrParams),
}

impl TrafficContract {
    /// Wraps CBR parameters.
    pub fn cbr(params: CbrParams) -> TrafficContract {
        TrafficContract::Cbr(params)
    }

    /// Wraps VBR parameters.
    pub fn vbr(params: VbrParams) -> TrafficContract {
        TrafficContract::Vbr(params)
    }

    /// Convenience constructor for a CBR contract from a raw rate.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CbrParams::new`].
    pub fn cbr_with_rate(pcr: Ratio) -> Result<TrafficContract, ContractError> {
        Ok(TrafficContract::Cbr(CbrParams::new(Rate::new(pcr))?))
    }

    /// The peak cell rate.
    pub fn pcr(&self) -> Rate {
        match self {
            TrafficContract::Cbr(p) => p.pcr(),
            TrafficContract::Vbr(p) => p.pcr(),
        }
    }

    /// The sustainable cell rate (equals the PCR for CBR).
    pub fn scr(&self) -> Rate {
        match self {
            TrafficContract::Cbr(p) => p.pcr(),
            TrafficContract::Vbr(p) => p.scr(),
        }
    }

    /// The maximum burst size in cells (1 for CBR).
    pub fn mbs(&self) -> u64 {
        match self {
            TrafficContract::Cbr(_) => 1,
            TrafficContract::Vbr(p) => p.mbs(),
        }
    }

    /// The long-run bandwidth the contract reserves (its SCR).
    pub fn sustained_rate(&self) -> Rate {
        self.scr()
    }

    /// **Algorithm 2.1**: the bit stream bounding the worst-case traffic
    /// generation of this contract:
    ///
    /// `S = {(1, 0), (PCR, 1), (SCR, 1 + (MBS − 1) / PCR)}`
    ///
    /// Degenerate breakpoints (e.g. `MBS = 1`, or `PCR = 1`) collapse
    /// into the normalized form automatically.
    pub fn worst_case_stream(&self) -> BitStream {
        let pcr = self.pcr();
        let scr = self.scr();
        let mbs = self.mbs();
        // Burst tail: the time for the remaining MBS - 1 cells at PCR.
        let burst_cells = Cells::from_integer(i128::from(mbs) - 1);
        let t2 = Time::ONE + burst_cells / pcr;
        let candidates = [
            Segment::new(Rate::FULL, Time::ZERO),
            Segment::new(pcr, Time::ONE),
            Segment::new(scr, t2),
        ];
        // Drop zero-length segments: keep the later of two equal starts.
        let mut segments: Vec<Segment> = Vec::with_capacity(3);
        for seg in candidates {
            if let Some(last) = segments.last_mut() {
                if last.start == seg.start {
                    last.rate = seg.rate;
                    continue;
                }
            }
            segments.push(seg);
        }
        BitStream::from_normalized(segments)
    }
}

impl From<CbrParams> for TrafficContract {
    fn from(params: CbrParams) -> Self {
        TrafficContract::Cbr(params)
    }
}

impl From<VbrParams> for TrafficContract {
    fn from(params: VbrParams) -> Self {
        TrafficContract::Vbr(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_rational::ratio;

    fn rate(n: i128, d: i128) -> Rate {
        Rate::new(ratio(n, d))
    }

    #[test]
    fn vbr_validation() {
        assert!(VbrParams::new(rate(1, 2), rate(1, 4), 4).is_ok());
        assert_eq!(
            VbrParams::new(rate(0, 1), rate(1, 4), 4),
            Err(ContractError::NonPositivePcr)
        );
        assert_eq!(
            VbrParams::new(rate(1, 2), rate(0, 1), 4),
            Err(ContractError::NonPositiveScr)
        );
        assert_eq!(
            VbrParams::new(rate(1, 4), rate(1, 2), 4),
            Err(ContractError::ScrExceedsPcr)
        );
        assert_eq!(
            VbrParams::new(rate(3, 2), rate(1, 2), 4),
            Err(ContractError::PcrExceedsLink)
        );
        assert_eq!(
            VbrParams::new(rate(1, 2), rate(1, 4), 0),
            Err(ContractError::ZeroMbs)
        );
    }

    #[test]
    fn cbr_validation() {
        assert!(CbrParams::new(rate(1, 1)).is_ok());
        assert_eq!(
            CbrParams::new(Rate::ZERO),
            Err(ContractError::NonPositivePcr)
        );
        assert_eq!(
            CbrParams::new(rate(2, 1)),
            Err(ContractError::PcrExceedsLink)
        );
    }

    #[test]
    fn algorithm_2_1_general_vbr() {
        // PCR = 1/2, SCR = 1/10, MBS = 5.
        let c = TrafficContract::vbr(VbrParams::new(rate(1, 2), rate(1, 10), 5).unwrap());
        let s = c.worst_case_stream();
        let segs = s.segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs.get(0), Some(Segment::new(Rate::FULL, Time::ZERO)));
        assert_eq!(segs.get(1), Some(Segment::new(rate(1, 2), Time::ONE)));
        // t2 = 1 + (5 - 1)/(1/2) = 9.
        assert_eq!(
            segs.get(2),
            Some(Segment::new(rate(1, 10), Time::from_integer(9)))
        );
    }

    #[test]
    fn algorithm_2_1_cbr_collapses_to_two_segments() {
        let c = TrafficContract::cbr(CbrParams::new(rate(1, 4)).unwrap());
        let s = c.worst_case_stream();
        // MBS = 1 makes the PCR segment zero-length: {(1,0), (PCR,1)}.
        assert_eq!(s.segments().len(), 2);
        assert_eq!(
            s.segments().get(0),
            Some(Segment::new(Rate::FULL, Time::ZERO))
        );
        assert_eq!(
            s.segments().get(1),
            Some(Segment::new(rate(1, 4), Time::ONE))
        );
    }

    #[test]
    fn algorithm_2_1_full_rate_pcr_merges() {
        // PCR = 1: first two segments share the rate and merge.
        let c = TrafficContract::vbr(VbrParams::new(rate(1, 1), rate(1, 8), 4).unwrap());
        let s = c.worst_case_stream();
        assert_eq!(s.segments().len(), 2);
        assert_eq!(s.peak_rate(), Rate::FULL);
        // t2 = 1 + 3/1 = 4.
        assert_eq!(
            s.segments().get(1),
            Some(Segment::new(rate(1, 8), Time::from_integer(4)))
        );
    }

    #[test]
    fn algorithm_2_1_full_rate_cbr_is_constant() {
        let c = TrafficContract::cbr(CbrParams::new(Rate::FULL).unwrap());
        let s = c.worst_case_stream();
        assert_eq!(s.segments().len(), 1);
        assert_eq!(s.peak_rate(), Rate::FULL);
    }

    #[test]
    fn worst_case_stream_matches_token_bucket_envelope() {
        // The stream's cumulative at cell boundaries must dominate the
        // discrete worst case: MBS cells at PCR then cells at SCR.
        let pcr = rate(1, 3);
        let scr = rate(1, 12);
        let mbs = 6u64;
        let c = TrafficContract::vbr(VbrParams::new(pcr, scr, mbs).unwrap());
        let s = c.worst_case_stream();
        // Discrete worst case: cell k (1-based, k <= MBS) completes at
        // 1 + (k-1)/PCR; afterwards at 1 + (MBS-1)/PCR + (k-MBS)/SCR.
        for k in 1..=20i128 {
            let t = if k <= mbs as i128 {
                Time::ONE + Cells::from_integer(k - 1) / pcr
            } else {
                Time::ONE
                    + Cells::from_integer(mbs as i128 - 1) / pcr
                    + Cells::from_integer(k - mbs as i128) / scr
            };
            assert!(
                s.cumulative(t) >= Cells::from_integer(k),
                "cell {k} not covered at time {t}"
            );
        }
    }

    #[test]
    fn accessors() {
        let vbr = TrafficContract::vbr(VbrParams::new(rate(1, 2), rate(1, 4), 3).unwrap());
        assert_eq!(vbr.pcr(), rate(1, 2));
        assert_eq!(vbr.scr(), rate(1, 4));
        assert_eq!(vbr.mbs(), 3);
        assert_eq!(vbr.sustained_rate(), rate(1, 4));
        let cbr = TrafficContract::cbr(CbrParams::new(rate(1, 8)).unwrap());
        assert_eq!(cbr.pcr(), rate(1, 8));
        assert_eq!(cbr.scr(), rate(1, 8));
        assert_eq!(cbr.mbs(), 1);
    }

    #[test]
    fn from_conversions() {
        let p = CbrParams::new(rate(1, 8)).unwrap();
        assert_eq!(TrafficContract::from(p), TrafficContract::Cbr(p));
        let v = VbrParams::new(rate(1, 2), rate(1, 4), 3).unwrap();
        assert_eq!(TrafficContract::from(v), TrafficContract::Vbr(v));
    }

    #[test]
    fn cbr_with_rate_helper() {
        let c = TrafficContract::cbr_with_rate(ratio(1, 5)).unwrap();
        assert_eq!(c.pcr(), rate(1, 5));
        assert!(TrafficContract::cbr_with_rate(ratio(-1, 5)).is_err());
    }

    #[test]
    fn error_display() {
        for e in [
            ContractError::NonPositivePcr,
            ContractError::NonPositiveScr,
            ContractError::ScrExceedsPcr,
            ContractError::PcrExceedsLink,
            ContractError::ZeroMbs,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}

//! Worked examples from the paper, checked end to end: each figure of
//! §2–§4 is reconstructed with the public API and the numbers verified
//! by hand.

use rtcac_bitstream::{
    BitStream, CbrParams, Cells, Rate, Segment, Time, TrafficContract, VbrParams,
};
use rtcac_rational::{ratio, Ratio};

fn rate(n: i128, d: i128) -> Rate {
    Rate::new(ratio(n, d))
}

fn stream(pairs: &[(Ratio, Ratio)]) -> BitStream {
    BitStream::from_rate_breaks(pairs.iter().copied()).unwrap()
}

/// §2, Figure 2 / Algorithm 2.1: the bit stream bounding a VBR source.
#[test]
fn figure2_vbr_bit_stream_model() {
    // A VBR connection with PCR = 1/2, SCR = 1/8, MBS = 4:
    // S = {(1, 0), (PCR, 1), (SCR, 1 + (MBS-1)/PCR)} = {(1,0),(1/2,1),(1/8,7)}.
    let contract = TrafficContract::vbr(VbrParams::new(rate(1, 2), rate(1, 8), 4).unwrap());
    let s = contract.worst_case_stream();
    assert_eq!(
        s.segments().iter().collect::<Vec<_>>(),
        [
            Segment::new(rate(1, 1), Time::ZERO),
            Segment::new(rate(1, 2), Time::ONE),
            Segment::new(rate(1, 8), Time::from_integer(7)),
        ]
    );
    // The envelope covers the discrete worst case: cell k of the burst
    // completes by 1 + (k-1)/PCR.
    for k in 1..=4i128 {
        let t = Time::ONE + Cells::from_integer(k - 1) / rate(1, 2);
        assert!(s.cumulative(t) >= Cells::from_integer(k));
    }
}

/// §3.1, Figure 4 / Algorithm 3.1: jitter clumps a stream.
#[test]
fn figure4_delay_of_a_bit_stream() {
    // Original: full rate for 1 cell, then 1/4 (a CBR worst case).
    let s = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(1, 1))]);
    let cdv = Time::from_integer(4);
    let d = s.delay(cdv);
    // AREA1 = R(4) = 1 + 3/4 = 7/4 clumped cells; they drain against
    // the shifted stream's 1/4 rate at 3/4 per cell time:
    // t' - CDV = (7/4) / (3/4) = 7/3.
    assert_eq!(
        d.segments().iter().collect::<Vec<_>>(),
        [
            Segment::new(rate(1, 1), Time::ZERO),
            Segment::new(rate(1, 4), Time::new(ratio(7, 3))),
        ]
    );
    // AREA conservation (the figure's AREA1 = AREA2): the delayed
    // stream carries the same volume as the original, shifted by CDV,
    // once the clump has drained.
    for t in 5..12 {
        let t = Time::from_integer(t);
        assert_eq!(d.cumulative(t), s.cumulative(t + cdv));
    }
    // And the delayed envelope dominates the original.
    assert!(d.dominates(&s));
}

/// §3.2, Figure 5 / Algorithm 3.2: multiplexing sums rates pointwise.
#[test]
fn figure5_multiplexing() {
    let s1 = stream(&[(ratio(1, 2), ratio(0, 1)), (ratio(1, 8), ratio(4, 1))]);
    let s2 = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(2, 1))]);
    let s = s1.multiplex(&s2);
    assert_eq!(
        s.segments().iter().collect::<Vec<_>>(),
        [
            Segment::new(rate(3, 2), Time::ZERO),
            Segment::new(rate(3, 4), Time::from_integer(2)),
            Segment::new(rate(3, 8), Time::from_integer(4)),
        ]
    );
}

/// §3.3, Figure 6 / Algorithm 3.3: demultiplexing recovers a component.
#[test]
fn figure6_demultiplexing() {
    let s2 = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(1, 4), ratio(2, 1))]);
    let other = stream(&[(ratio(1, 2), ratio(0, 1)), (ratio(1, 8), ratio(4, 1))]);
    let s1 = s2.multiplex(&other);
    assert_eq!(s1.demultiplex(&s2).unwrap(), other);
    assert_eq!(s1.demultiplex(&other).unwrap(), s2);
}

/// §3.4, Figure 7 / Algorithm 3.4: link filtering caps the rate at 1
/// until the queue build-up drains.
#[test]
fn figure7_filtering() {
    // Aggregate above the link rate: 2 for 3 cell times, then 1/4.
    let s = stream(&[(ratio(2, 1), ratio(0, 1)), (ratio(1, 4), ratio(3, 1))]);
    // AREA1 (queue build-up) = (2-1)*3 = 3 cells; drains at 3/4 per
    // cell time after t=3: t' = 3 + 4 = 7.
    let f = s.filter();
    assert_eq!(
        f.segments().iter().collect::<Vec<_>>(),
        [
            Segment::new(rate(1, 1), Time::ZERO),
            Segment::new(rate(1, 4), Time::from_integer(7)),
        ]
    );
    // The maximum queue build-up equals the backlog bound.
    assert_eq!(s.backlog_bound(Rate::FULL), Some(Cells::from_integer(3)));
    // Filtering "smooths": the filtered envelope is dominated.
    assert!(s.dominates(&f));
}

/// §4.2, Figure 8 / Algorithm 4.1: queueing delay bound under
/// higher-priority interference.
#[test]
fn figure8_delay_bound_with_interference() {
    // Priority-p aggregate: bursts at 3/2 for 4 cell times, then 1/4.
    let s = stream(&[(ratio(3, 2), ratio(0, 1)), (ratio(1, 4), ratio(4, 1))]);
    // Filtered higher-priority stream: 1/2 for 8 cell times, then 1/8.
    let s1 = stream(&[(ratio(1, 2), ratio(0, 1)), (ratio(1, 8), ratio(8, 1))]);
    // Leftover service C(t) = t/2 on [0,8], then 7/8 rate.
    // A(t) = 3t/2 on [0,4] -> A(4) = 6; C reaches 6 at t = 8 + 2*8/7:
    // C(8) = 4, remaining 2 at 7/8 -> 16/7. g = 8 + 16/7 = 72/7.
    // D(4) = 72/7 - 4 = 44/7. That bit (the last of the burst) is the
    // worst off: D = 44/7 ≈ 6.29 cell times.
    let d = s.delay_bound(&s1).unwrap();
    assert_eq!(d, Time::new(ratio(44, 7)));
    // Sanity: the bound is tight against a brute-force scan.
    let mut best = Time::ZERO;
    for k in 0..200 {
        let t = Time::new(ratio(k, 10));
        let a = s.cumulative(t);
        // first g with C(g) >= a, scanning fine-grained.
        for j in 0..2_000 {
            let g = Time::new(ratio(j, 10));
            let c = Cells::new(g.as_ratio()) - s1.cumulative(g);
            if c >= a {
                if g - t > best {
                    best = g - t;
                }
                break;
            }
        }
    }
    // The grid scan overshoots g by up to one 1/10 step, so allow that
    // much slack on both sides.
    assert!(d >= best - Time::new(ratio(1, 10)));
    assert!(best >= d - Time::new(ratio(1, 10)));
}

/// §4.2: for the highest priority the bound degenerates to the queue
/// build-up of Figure 7 ("the maximum queueing delay can be simply
/// calculated as AREA1").
#[test]
fn highest_priority_bound_is_area1() {
    let s = stream(&[(ratio(2, 1), ratio(0, 1)), (ratio(1, 4), ratio(3, 1))]);
    let bound = s.delay_bound(&BitStream::zero()).unwrap();
    assert_eq!(
        Cells::new(bound.as_ratio()),
        s.backlog_bound(Rate::FULL).unwrap()
    );
}

/// §5 note under Figure 10: "the worst-case aggregated traffic from N
/// CBR connections with a peak cell rate R is the same as that of a
/// VBR connection with PCR = N, SCR = N·R and MBS = N."
#[test]
fn figure10_note_cbr_aggregate_equals_vbr() {
    let n: usize = 16;
    let r = ratio(1, 64);
    let cbr = TrafficContract::cbr(CbrParams::new(Rate::new(r)).unwrap());
    let aggregate = BitStream::multiplex_all(std::iter::repeat_n(&cbr.worst_case_stream(), n));
    // The equivalent VBR aggregate: N cells arriving simultaneously at
    // the combined rate N (one per access link), then N·R sustained —
    // the envelope {(N, 0), (N·R, 1)}.
    let vbr_envelope = stream(&[
        (ratio(n as i128, 1), ratio(0, 1)),
        (r * ratio(n as i128, 1), ratio(1, 1)),
    ]);
    assert_eq!(aggregate, vbr_envelope);
}

/// Delay bounds are conservative under envelope dominance: any stream
/// dominated by the analyzed envelope gets a no-worse bound.
#[test]
fn dominance_transfers_bounds() {
    let envelope = stream(&[(ratio(2, 1), ratio(0, 1)), (ratio(1, 3), ratio(5, 1))]);
    let actual = stream(&[(ratio(3, 2), ratio(0, 1)), (ratio(1, 3), ratio(4, 1))]);
    assert!(envelope.dominates(&actual));
    let d_env = envelope.delay_bound(&BitStream::zero()).unwrap();
    let d_act = actual.delay_bound(&BitStream::zero()).unwrap();
    assert!(d_act <= d_env);
}

/// Dominance edge cases.
#[test]
fn dominance_edge_cases() {
    let a = stream(&[(ratio(1, 2), ratio(0, 1))]);
    let b = stream(&[(ratio(1, 3), ratio(0, 1))]);
    assert!(a.dominates(&b));
    assert!(!b.dominates(&a));
    assert!(a.dominates(&a));
    assert!(a.dominates(&BitStream::zero()));
    assert!(!BitStream::zero().dominates(&a));
    // Crossing envelopes: neither dominates.
    let fast_short = stream(&[(ratio(1, 1), ratio(0, 1)), (ratio(0, 1), ratio(2, 1))]);
    let slow_long = stream(&[(ratio(1, 4), ratio(0, 1))]);
    assert!(!fast_short.dominates(&slow_long));
    assert!(!slow_long.dominates(&fast_short));
}

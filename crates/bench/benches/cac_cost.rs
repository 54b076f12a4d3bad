//! Cost of the §4.3 admission check as a function of established
//! connections and priority levels — the operational concern the paper
//! raises in §4.3 discussion 2 ("the computation ... increases
//! proportionally with the number of priority levels").
//!
//! Plain harness-less timing (std::time::Instant) — the registry is
//! offline, so criterion is unavailable.

use rtcac_bench::{human_time, loaded_switch, preload_contract, preload_probe, time_op};
use rtcac_bitstream::Time;
use rtcac_cac::{ConnectionId, ConnectionRequest, Priority};
use rtcac_net::LinkId;
use std::hint::black_box;
use std::time::Duration;

const BUDGET: Duration = Duration::from_millis(200);

fn report(name: &str, secs: f64) {
    println!("{name:<44} {}", human_time(secs));
}

fn main() {
    for n in [8u64, 32, 128] {
        let sw = loaded_switch(n, 1);
        let probe = preload_probe();
        let t = time_op(|| black_box(sw.check(black_box(&probe)).unwrap()), BUDGET);
        report(&format!("cac_check_vs_connections/{n}"), t);
    }
    for levels in [1u8, 2, 4] {
        let sw = loaded_switch(64, levels);
        let probe = preload_probe();
        let t = time_op(|| black_box(sw.check(black_box(&probe)).unwrap()), BUDGET);
        report(&format!("cac_check_vs_priorities/{levels}"), t);
    }
    {
        let sw = loaded_switch(64, 1);
        let probe = ConnectionRequest::new(
            preload_contract(4242),
            Time::from_integer(64),
            LinkId::external(2),
            LinkId::external(100),
            Priority::HIGHEST,
        );
        let t = time_op(
            || {
                let mut sw = sw.clone();
                let d = sw.admit(ConnectionId::new(999_999), probe).unwrap();
                assert!(d.is_admitted());
                sw.release(ConnectionId::new(999_999)).unwrap();
                black_box(sw.connection_count())
            },
            BUDGET,
        );
        report("cac_admit_release_cycle_64_established", t);
    }
}

//! Heap allocations per admission check, pinned exactly.
//!
//! `Switch::check` allocates the same number of times on every call
//! against the same switch, whatever the leg count: the candidate's
//! derived envelope, its updated in-link aggregate, the merge's head
//! buffer and the bounds report. This binary installs the counting
//! allocator and pins those counts on `cac_cost`'s 64-leg quantized
//! preload at 1, 2 and 4 priority levels, so a change to pricing that
//! adds a buffer or a clone fails here rather than as timing noise.
//!
//! The count is process-wide, so the binary holds one test: nothing
//! else runs while it counts.

use rtcac_bench::memory::CountingAlloc;
use rtcac_bench::{loaded_switch, preload_probe};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations one check makes at each level count.
const PINNED: [(u8, u64); 3] = [(1, 14), (2, 29), (4, 60)];

#[test]
fn every_check_allocates_the_pinned_count() {
    for (levels, pinned) in PINNED {
        let sw = loaded_switch(64, levels);
        let probe = preload_probe();
        let counts: Vec<u64> = (0..100)
            .map(|_| {
                let before = rtcac_obs::alloc_count();
                let decision = std::hint::black_box(sw.check(&probe));
                let after = rtcac_obs::alloc_count();
                assert!(decision.is_ok_and(|d| d.is_admitted()), "{levels} levels");
                after - before
            })
            .collect();
        assert!(
            counts.iter().all(|&n| n == pinned),
            "{levels} levels: checks allocated {counts:?} times, pinned at {pinned}"
        );
    }
}

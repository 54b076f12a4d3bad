//! End-to-end determinism of the concurrent admission engine: a seeded
//! batch of mixed CBR/VBR setups admitted from several threads at once
//! must yield exactly the accept/reject multiset of a serial replay
//! through `signaling::Network`.

use std::collections::BTreeMap;
use std::sync::Arc;

use rtcac::bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac::cac::{Priority, SwitchConfig};
use rtcac::engine::{AdmissionEngine, EngineError, EngineOutcome};
use rtcac::net::{builders, Route};
use rtcac::rational::ratio;
use rtcac::signaling::{CdvPolicy, Network, SetupRequest};

/// SplitMix64 — the same deterministic generator used across the test
/// suite.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Admits `jobs` from `workers` scoped threads — thread `t` takes jobs
/// `t`, `t + workers`, … — and returns the outcomes in submission order.
fn admit_striped(
    engine: &AdmissionEngine,
    jobs: &[(Route, SetupRequest)],
    workers: usize,
) -> Vec<Result<EngineOutcome, EngineError>> {
    let mut outcomes: Vec<_> = std::thread::scope(|s| {
        let stripes: Vec<_> = (0..workers)
            .map(|t| {
                s.spawn(move || {
                    let stripe = jobs.iter().enumerate().skip(t).step_by(workers);
                    stripe
                        .map(|(i, (route, request))| (i, engine.admit(route, *request)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        stripes
            .into_iter()
            .flat_map(|stripe| stripe.join().expect("no admitting thread panicked"))
            .collect()
    });
    outcomes.sort_by_key(|&(i, _)| i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

/// One contention class: every request in a class is identical and all
/// of its routes stay within one ring node's shard, so the per-class
/// admit count depends only on capacity — never on how concurrent
/// workers interleave across classes.
struct Class {
    route: Route,
    request: SetupRequest,
    count: usize,
}

fn seeded_classes(sr: &builders::StarRing, seed: u64) -> Vec<Class> {
    let mut rng = Rng(seed);
    (0..sr.ring_len())
        .map(|i| {
            let contract = if rng.below(2) == 0 {
                let den = 3 + i128::from(rng.below(6)); // rate in 1/3..1/8
                TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, den))).unwrap())
            } else {
                let peak_den = 2 + i128::from(rng.below(3)); // 1/2..1/4
                let sust_den = 8 + i128::from(rng.below(8)); // 1/8..1/15
                let mbs = 2 + rng.below(4);
                TrafficContract::vbr(
                    VbrParams::new(
                        Rate::new(ratio(1, peak_den)),
                        Rate::new(ratio(1, sust_den)),
                        mbs,
                    )
                    .unwrap(),
                )
            };
            let priority = Priority::new(rng.below(2) as u8);
            Class {
                route: sr.terminal_route((i, 0), (i, 1)).unwrap(),
                request: SetupRequest::new(contract, priority, Time::from_integer(10_000)),
                count: 3 + rng.below(4) as usize,
            }
        })
        .collect()
}

/// Interleaves the classes into one seeded submission order of
/// `(class index, route, request)` jobs.
fn submission_order(classes: &[Class], seed: u64) -> Vec<(usize, Route, SetupRequest)> {
    let mut jobs: Vec<(usize, Route, SetupRequest)> = classes
        .iter()
        .enumerate()
        .flat_map(|(i, c)| (0..c.count).map(move |_| (i, c.route.clone(), c.request)))
        .collect();
    // Seeded Fisher-Yates so the engine sees the classes interleaved.
    let mut rng = Rng(seed ^ 0xD1B5_4A32_D192_ED03);
    for k in (1..jobs.len()).rev() {
        jobs.swap(k, rng.below(k as u64 + 1) as usize);
    }
    jobs
}

/// The accept/reject multiset: per class, how many setups were
/// admitted and how many rejected.
fn multiset(
    jobs: &[(usize, Route, SetupRequest)],
    admitted: &[bool],
) -> BTreeMap<(usize, bool), usize> {
    let mut m = BTreeMap::new();
    for ((class, _, _), &ok) in jobs.iter().zip(admitted) {
        *m.entry((*class, ok)).or_insert(0) += 1;
    }
    m
}

fn engine_multiset(
    sr: &builders::StarRing,
    config: &SwitchConfig,
    jobs: &[(usize, Route, SetupRequest)],
    workers: usize,
) -> BTreeMap<(usize, bool), usize> {
    let engine = Arc::new(AdmissionEngine::new(
        sr.topology().clone(),
        config.clone(),
        CdvPolicy::Hard,
    ));
    let routed: Vec<(Route, SetupRequest)> = jobs.iter().map(|(_, r, q)| (r.clone(), *q)).collect();
    let outcomes = admit_striped(&engine, &routed, workers);
    let admitted: Vec<bool> = outcomes
        .iter()
        .map(|o| o.as_ref().unwrap().is_admitted())
        .collect();
    let stats = engine.stats();
    assert_eq!(stats.completed() as usize, jobs.len());
    assert_outcome_invariant(&stats);
    assert_eq!(
        engine.connection_count() as u64,
        stats.admitted,
        "registry must hold exactly the committed connections"
    );
    multiset(jobs, &admitted)
}

/// Every submitted setup must land in exactly one outcome bucket: the
/// engine's documented accounting identity, asserted after every batch.
fn assert_outcome_invariant(stats: &rtcac::engine::EngineStats) {
    assert_eq!(
        stats.submitted,
        stats.admitted + stats.rejected + stats.aborted + stats.errored,
        "outcome counters must partition submissions: {stats:?}"
    );
    assert_eq!(stats.errored, 0, "well-formed batches never error");
}

fn serial_multiset(
    sr: &builders::StarRing,
    config: &SwitchConfig,
    jobs: &[(usize, Route, SetupRequest)],
) -> BTreeMap<(usize, bool), usize> {
    let mut net = Network::new(sr.topology().clone(), config.clone(), CdvPolicy::Hard);
    let admitted: Vec<bool> = jobs
        .iter()
        .map(|(_, route, request)| net.setup(route, *request).unwrap().is_connected())
        .collect();
    multiset(jobs, &admitted)
}

#[test]
fn concurrent_batch_matches_serial_network_replay() {
    let sr = builders::star_ring(8, 2).unwrap();
    let config = SwitchConfig::uniform(2, Time::from_integer(48)).unwrap();
    for seed in [7, 42, 1997] {
        let classes = seeded_classes(&sr, seed);
        let jobs = submission_order(&classes, seed);
        let serial = serial_multiset(&sr, &config, &jobs);
        for workers in [1, 4] {
            let concurrent = engine_multiset(&sr, &config, &jobs, workers);
            assert_eq!(
                concurrent, serial,
                "seed {seed}, {workers} workers: engine multiset diverged from serial replay"
            );
        }
    }
}

#[test]
fn engine_batches_are_run_to_run_deterministic() {
    let sr = builders::star_ring(6, 2).unwrap();
    let config = SwitchConfig::uniform(2, Time::from_integer(32)).unwrap();
    let classes = seeded_classes(&sr, 0xBEEF);
    let jobs = submission_order(&classes, 0xBEEF);
    let first = engine_multiset(&sr, &config, &jobs, 4);
    for _ in 0..4 {
        assert_eq!(engine_multiset(&sr, &config, &jobs, 4), first);
    }
}

#[test]
fn released_capacity_is_reusable_under_concurrency() {
    // Fill one shard from four threads, release everything, refill: the
    // exact-arithmetic engine must reach the same admitted count.
    let sr = builders::star_ring(4, 2).unwrap();
    let config = SwitchConfig::uniform(1, Time::from_integer(16)).unwrap();
    let engine = Arc::new(AdmissionEngine::new(
        sr.topology().clone(),
        config,
        CdvPolicy::Hard,
    ));
    let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 10))).unwrap());
    let jobs: Vec<(Route, SetupRequest)> = (0..12)
        .map(|_| {
            (
                sr.terminal_route((0, 0), (0, 1)).unwrap(),
                SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000)),
            )
        })
        .collect();
    let first = admit_striped(&engine, &jobs, 4);
    assert_outcome_invariant(&engine.stats());
    let capacity = first
        .iter()
        .filter(|o| o.as_ref().unwrap().is_admitted())
        .count();
    assert!(capacity > 0 && capacity < 12);
    for outcome in first {
        if let rtcac::engine::EngineOutcome::Admitted { id, .. } = outcome.unwrap() {
            engine.release(id).unwrap();
        }
    }
    assert_eq!(engine.connection_count(), 0);
    let second = admit_striped(&engine, &jobs, 4)
        .iter()
        .filter(|o| o.as_ref().unwrap().is_admitted())
        .count();
    assert_eq!(second, capacity);
    assert_outcome_invariant(&engine.stats());
}

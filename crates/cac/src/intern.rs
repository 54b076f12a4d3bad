//! Contract interning: one arrival envelope per distinct
//! `(contract, CDV)` pair, shared by every leg that carries it.
//!
//! A switch near capacity holds thousands of legs, but the set of
//! *distinct* admission parameters is tiny — a handful of traffic
//! contracts crossed with the few CDV values the upstream hop depths
//! produce. Storing the worst-case arrival [`BitStream`] per leg (as
//! the original `BTreeMap` tables did) duplicates the same envelope
//! thousands of times; interning stores it once, refcounted in a slab,
//! and hands each leg a copyable [`ContractHandle`].
//!
//! The interned stream is the same pure function of `(contract, cdv,
//! grid)` the admission check evaluates —
//! [`ConnectionRequest::arrival_stream`] plus the config's coarsening
//! grid — so sharing it is invisible to every bound: aggregates built
//! from interned streams are bit-identical to aggregates built from
//! per-leg copies.
//!
//! [`ConnectionRequest::arrival_stream`]: crate::ConnectionRequest::arrival_stream

use rtcac_bitstream::{BitStream, Time, TrafficContract};

use crate::CacError;

/// A cheap, copyable reference to an interned `(contract, CDV)` entry
/// of **one switch's** [`ContractIntern`]. Handles are per-switch slab
/// indices: never mix handles across switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContractHandle(u32);

impl ContractHandle {
    /// The raw slab index (stable for the life of the entry).
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// Sentinel terminating the in-slab free list.
const NO_SLOT: u32 = u32::MAX;

/// One live intern entry: the admission parameters and the arrival
/// envelope they induce, plus the number of legs referencing it.
#[derive(Debug, Clone)]
struct Entry {
    contract: TrafficContract,
    cdv: Time,
    stream: BitStream,
    refs: u32,
}

/// A slab slot: either a live entry or a link in the free list.
#[derive(Debug, Clone)]
enum Slot {
    Occupied(Entry),
    Free { next: u32 },
}

/// The per-switch contract intern table: a slab of refcounted
/// [`Entry`]s plus the list of live slots sorted by their entries'
/// `(contract, cdv)`, binary-searched through the slab. Lookups are
/// deterministic, each key is stored once (in its entry), and freed
/// slots are reused before the slab grows.
#[derive(Debug, Clone, Default)]
pub(crate) struct ContractIntern {
    slots: Vec<Slot>,
    free_head: u32,
    /// Live slots, strictly ascending by their entries' `(contract, cdv)`.
    index: Vec<u32>,
}

impl ContractIntern {
    pub(crate) fn new() -> ContractIntern {
        ContractIntern {
            slots: Vec::new(),
            free_head: NO_SLOT,
            index: Vec::new(),
        }
    }

    /// Where `(contract, cdv)` sits in the sorted index: `Ok` at a live
    /// entry's position, `Err` where a new entry would go.
    fn locate(&self, contract: TrafficContract, cdv: Time) -> Result<usize, usize> {
        self.index.binary_search_by(|&slot| {
            let entry = self.entry(ContractHandle(slot));
            entry
                .contract
                .cmp(&contract)
                .then_with(|| entry.cdv.cmp(&cdv))
        })
    }

    /// Acquires a handle for `(contract, cdv)`, bumping the refcount of
    /// an existing entry or computing the stream via `make` for a new
    /// one.
    ///
    /// # Errors
    ///
    /// Propagates `make`'s error (the entry is not created).
    pub(crate) fn acquire(
        &mut self,
        contract: TrafficContract,
        cdv: Time,
        make: impl FnOnce() -> Result<BitStream, CacError>,
    ) -> Result<ContractHandle, CacError> {
        if let Some(handle) = self.find(contract, cdv) {
            self.retain(handle);
            return Ok(handle);
        }
        Ok(self.insert(contract, cdv, make()?))
    }

    /// The handle of the live entry for `(contract, cdv)`, if any,
    /// without touching its refcount.
    pub(crate) fn find(&self, contract: TrafficContract, cdv: Time) -> Option<ContractHandle> {
        self.locate(contract, cdv)
            .ok()
            .map(|pos| ContractHandle(self.index[pos]))
    }

    /// Adds one reference to a live entry.
    pub(crate) fn retain(&mut self, handle: ContractHandle) {
        match &mut self.slots[handle.0 as usize] {
            Slot::Occupied(entry) => entry.refs += 1,
            Slot::Free { .. } => unreachable!("indexed slot is free"),
        }
    }

    /// Creates the entry for a `(contract, cdv)` pair not yet interned,
    /// holding `stream` with one reference.
    pub(crate) fn insert(
        &mut self,
        contract: TrafficContract,
        cdv: Time,
        stream: BitStream,
    ) -> ContractHandle {
        let found = self.locate(contract, cdv);
        debug_assert!(found.is_err(), "(contract, cdv) interned twice");
        let (Ok(pos) | Err(pos)) = found;
        let entry = Entry {
            contract,
            cdv,
            stream,
            refs: 1,
        };
        let slot = if self.free_head != NO_SLOT {
            let slot = self.free_head;
            match self.slots[slot as usize] {
                Slot::Free { next } => self.free_head = next,
                Slot::Occupied(_) => unreachable!("free head points at a live slot"),
            }
            self.slots[slot as usize] = Slot::Occupied(entry);
            slot
        } else {
            self.slots.push(Slot::Occupied(entry));
            (self.slots.len() - 1) as u32
        };
        self.index.insert(pos, slot);
        ContractHandle(slot)
    }

    /// Drops one reference. When the last reference goes, the entry is
    /// removed from the index and its slot chained onto the free list;
    /// returns whether the entry died.
    pub(crate) fn release(&mut self, handle: ContractHandle) -> bool {
        let slot = handle.0;
        let entry = match &mut self.slots[slot as usize] {
            Slot::Occupied(entry) => entry,
            Slot::Free { .. } => panic!("release of a dead intern handle"),
        };
        debug_assert!(entry.refs > 0);
        entry.refs -= 1;
        if entry.refs > 0 {
            return false;
        }
        let (contract, cdv) = (entry.contract, entry.cdv);
        let found = self.locate(contract, cdv);
        debug_assert_eq!(found.map(|pos| self.index[pos]), Ok(slot));
        if let Ok(pos) = found {
            self.index.remove(pos);
        }
        self.slots[slot as usize] = Slot::Free {
            next: self.free_head,
        };
        self.free_head = slot;
        true
    }

    fn entry(&self, handle: ContractHandle) -> &Entry {
        match &self.slots[handle.0 as usize] {
            Slot::Occupied(entry) => entry,
            Slot::Free { .. } => panic!("use of a dead intern handle"),
        }
    }

    /// The interned arrival envelope.
    pub(crate) fn stream(&self, handle: ContractHandle) -> &BitStream {
        &self.entry(handle).stream
    }

    /// The interned traffic contract.
    pub(crate) fn contract(&self, handle: ContractHandle) -> TrafficContract {
        self.entry(handle).contract
    }

    /// The interned accumulated CDV.
    pub(crate) fn cdv(&self, handle: ContractHandle) -> Time {
        self.entry(handle).cdv
    }

    /// The current refcount of a live entry.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn refs(&self, handle: ContractHandle) -> u32 {
        self.entry(handle).refs
    }

    /// Number of live (distinct) entries.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Total slab slots, live or free — how far the slab has ever grown.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Approximate resident heap bytes of the intern table: slab +
    /// sorted slot index + the interned stream segments.
    pub(crate) fn resident_bytes(&self) -> usize {
        let slab = self.slots.capacity() * std::mem::size_of::<Slot>();
        let index = self.index.capacity() * std::mem::size_of::<u32>();
        let streams: usize = self
            .slots
            .iter()
            .map(|slot| match slot {
                Slot::Occupied(entry) => entry.stream.resident_bytes(),
                Slot::Free { .. } => 0,
            })
            .sum();
        slab + index + streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_bitstream::{CbrParams, Rate, VbrParams};
    use rtcac_rational::ratio;

    fn cbr(num: i128, den: i128) -> TrafficContract {
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(num, den))).unwrap())
    }

    fn stream_of(contract: TrafficContract, cdv: Time) -> BitStream {
        contract.worst_case_stream().delay(cdv)
    }

    /// The slab is resident per distinct `(contract, CDV)`: a growing
    /// slot is resident bytes per connection.
    #[test]
    fn slot_layout_pin() {
        assert_eq!(std::mem::size_of::<Slot>(), 160);
    }

    #[test]
    fn acquire_dedups_and_counts_refs() {
        let mut intern = ContractIntern::new();
        let c = cbr(1, 8);
        let cdv = Time::from_integer(16);
        let h1 = intern.acquire(c, cdv, || Ok(stream_of(c, cdv))).unwrap();
        let h2 = intern
            .acquire(c, cdv, || panic!("second acquire must hit"))
            .unwrap();
        assert_eq!(h1, h2);
        assert_eq!(intern.refs(h1), 2);
        assert_eq!(intern.len(), 1);
        // A different CDV is a distinct entry.
        let h3 = intern
            .acquire(c, Time::ZERO, || Ok(stream_of(c, Time::ZERO)))
            .unwrap();
        assert_ne!(h1, h3);
        assert_eq!(intern.len(), 2);
        assert_eq!(intern.contract(h1), c);
        assert_eq!(intern.cdv(h1), cdv);
        assert_eq!(*intern.stream(h1), stream_of(c, cdv));
    }

    #[test]
    fn release_frees_slot_for_reuse() {
        let mut intern = ContractIntern::new();
        let c = cbr(1, 4);
        let h = intern
            .acquire(c, Time::ZERO, || Ok(stream_of(c, Time::ZERO)))
            .unwrap();
        let h2 = intern.acquire(c, Time::ZERO, || unreachable!()).unwrap();
        assert!(!intern.release(h));
        assert!(intern.release(h2));
        assert_eq!(intern.len(), 0);
        // The freed slot is reused before the slab grows.
        let c2 = cbr(1, 2);
        let h3 = intern
            .acquire(c2, Time::ZERO, || Ok(stream_of(c2, Time::ZERO)))
            .unwrap();
        assert_eq!(h3.raw(), h.raw());
        assert_eq!(intern.slots(), 1);
    }

    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn seed() -> u64 {
        match std::env::var("RTCAC_TEST_SEED") {
            Ok(s) => s
                .parse()
                .unwrap_or_else(|_| panic!("RTCAC_TEST_SEED={s:?} is not a u64")),
            Err(_) => 0x1_7E4,
        }
    }

    /// The live slab entries, read by a linear scan.
    fn live_slots(intern: &ContractIntern) -> Vec<u32> {
        (0..intern.slots.len() as u32)
            .filter(|&slot| matches!(intern.slots[slot as usize], Slot::Occupied(_)))
            .collect()
    }

    fn key_of(intern: &ContractIntern, slot: u32) -> (TrafficContract, Time) {
        let entry = intern.entry(ContractHandle(slot));
        (entry.contract, entry.cdv)
    }

    /// Seeded churn of acquires and releases over 8 contracts x 3 CDVs:
    /// after every step the sorted index is strictly ascending by
    /// `(contract, cdv)`, holds exactly the live slots, and `find`
    /// agrees with a linear scan of the slab. `RTCAC_TEST_SEED=<u64>`
    /// replays a failure; every failure names it.
    #[test]
    fn sorted_index_matches_slab_under_churn() {
        const STEPS: usize = 6_000;
        let seed = seed();
        let mut rng = SplitMix64(seed);
        let contracts = [
            cbr(1, 2),
            cbr(1, 8),
            cbr(3, 16),
            cbr(1, 64),
            TrafficContract::vbr(
                VbrParams::new(Rate::new(ratio(1, 2)), Rate::new(ratio(1, 10)), 4).unwrap(),
            ),
            TrafficContract::vbr(
                VbrParams::new(Rate::new(ratio(1, 2)), Rate::new(ratio(1, 10)), 9).unwrap(),
            ),
            TrafficContract::vbr(
                VbrParams::new(Rate::new(ratio(1, 4)), Rate::new(ratio(1, 32)), 2).unwrap(),
            ),
            TrafficContract::vbr(
                VbrParams::new(Rate::new(ratio(1, 3)), Rate::new(ratio(1, 7)), 5).unwrap(),
            ),
        ];
        let cdvs = [Time::ZERO, Time::from_integer(16), Time::new(ratio(81, 2))];
        let keys: Vec<(TrafficContract, Time)> = contracts
            .iter()
            .flat_map(|&c| cdvs.iter().map(move |&cdv| (c, cdv)))
            .collect();
        let mut intern = ContractIntern::new();
        let mut held: Vec<ContractHandle> = Vec::new();
        for step in 0..STEPS {
            let ctx = format!("RTCAC_TEST_SEED={seed} step {step}");
            if held.is_empty() || rng.below(100) < 55 {
                let (c, cdv) = keys[rng.below(keys.len())];
                let handle = intern.acquire(c, cdv, || Ok(stream_of(c, cdv))).unwrap();
                assert_eq!(key_of(&intern, handle.raw()), (c, cdv), "{ctx}");
                held.push(handle);
            } else {
                let handle = held.swap_remove(rng.below(held.len()));
                intern.release(handle);
            }

            let index = &intern.index;
            assert!(
                index
                    .windows(2)
                    .all(|w| key_of(&intern, w[0]) < key_of(&intern, w[1])),
                "{ctx}: index not strictly ascending"
            );
            let mut indexed = index.clone();
            indexed.sort_unstable();
            assert_eq!(indexed, live_slots(&intern), "{ctx}: index != live slots");
            for &(c, cdv) in &keys {
                let scan = live_slots(&intern)
                    .into_iter()
                    .find(|&slot| key_of(&intern, slot) == (c, cdv))
                    .map(ContractHandle);
                assert_eq!(intern.find(c, cdv), scan, "{ctx}: find({c:?}, {cdv:?})");
            }
        }
        for handle in held.drain(..) {
            intern.release(handle);
        }
        assert_eq!(intern.len(), 0, "RTCAC_TEST_SEED={seed}");
        assert!(live_slots(&intern).is_empty(), "RTCAC_TEST_SEED={seed}");
    }

    #[test]
    fn failed_make_leaves_table_untouched() {
        let mut intern = ContractIntern::new();
        let c = cbr(1, 8);
        let r = intern.acquire(c, Time::ZERO, || {
            Err(CacError::BadConfig("synthetic failure"))
        });
        assert!(r.is_err());
        assert_eq!(intern.len(), 0);
        assert_eq!(intern.slots(), 0);
    }
}

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
//! Each key is stored in machine words when every rate and the CDV fit
//! `i64` over `i64` — the same width test stored segments use — and
//! boxed in its arithmetic form otherwise.
//!
//! [`ConnectionRequest::arrival_stream`]: crate::ConnectionRequest::arrival_stream

use rtcac_bitstream::{BitStream, CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_rational::NarrowRatio;

use crate::CacError;

/// A cheap, copyable reference to an interned `(contract, CDV)` entry
/// of **one switch's** contract intern. Handles are per-switch slab
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

/// A `(contract, CDV)` key whose every component fits machine words:
/// 56 bytes, against 128 for the pair itself. CBR is stored as
/// `scr = pcr` with `mbs = 0`; a VBR burst is at least one cell, so
/// the two kinds never share a key. Fields order as values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct WordKey {
    pcr: NarrowRatio,
    scr: NarrowRatio,
    cdv: NarrowRatio,
    mbs: u64,
}

impl WordKey {
    /// The word form of `(contract, cdv)`, if every component fits.
    fn narrow(contract: TrafficContract, cdv: Time) -> Option<WordKey> {
        let pcr = contract.pcr().as_ratio().to_narrow()?;
        let (scr, mbs) = match contract {
            TrafficContract::Cbr(_) => (pcr, 0),
            TrafficContract::Vbr(p) => (p.scr().as_ratio().to_narrow()?, p.mbs()),
        };
        let cdv = cdv.as_ratio().to_narrow()?;
        Some(WordKey { pcr, scr, cdv, mbs })
    }

    /// The contract the key was narrowed from.
    fn contract(self) -> TrafficContract {
        let pcr = Rate::new(self.pcr.into());
        let contract = match self.mbs {
            0 => CbrParams::new(pcr).map(TrafficContract::Cbr),
            mbs => VbrParams::new(pcr, Rate::new(self.scr.into()), mbs).map(TrafficContract::Vbr),
        };
        contract.expect("an interned key was narrowed from a valid contract")
    }
}

/// A stored intern key: machine words, or the boxed pair when a
/// component is past `i64`. Which form a key takes depends only on its
/// values.
#[derive(Debug, Clone)]
enum Key {
    Word(WordKey),
    Wide(Box<(TrafficContract, Time)>),
}

impl Key {
    fn as_ref(&self) -> KeyRef<'_> {
        match self {
            Key::Word(word) => KeyRef::Word(*word),
            Key::Wide(wide) => KeyRef::Wide(wide),
        }
    }
}

/// A key as lookups compare it, borrowing a wide pair so that no
/// lookup allocates. Keys order word before wide, each kind by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum KeyRef<'a> {
    Word(WordKey),
    Wide(&'a (TrafficContract, Time)),
}

impl<'a> KeyRef<'a> {
    /// The key of `pair`, narrowed once.
    fn of(pair: &'a (TrafficContract, Time)) -> KeyRef<'a> {
        match WordKey::narrow(pair.0, pair.1) {
            Some(word) => KeyRef::Word(word),
            None => KeyRef::Wide(pair),
        }
    }

    /// The stored form: a wide key is boxed here, and only here.
    fn to_key(self) -> Key {
        match self {
            KeyRef::Word(word) => Key::Word(word),
            KeyRef::Wide(wide) => Key::Wide(Box::new(*wide)),
        }
    }
}

/// One live intern entry: the admission parameters and the arrival
/// envelope they induce, plus the number of legs referencing it.
#[derive(Debug, Clone)]
struct Entry {
    key: Key,
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
/// keys, binary-searched through the slab. A key is stored once, in
/// its entry, as machine words whenever its values fit (96 bytes a
/// slot); a lookup narrows the request's key once and compares words.
/// Lookups are deterministic, and freed slots are reused before the
/// slab grows.
#[derive(Debug, Clone)]
pub(crate) struct ContractIntern {
    slots: Vec<Slot>,
    free_head: u32,
    /// Live slots, strictly ascending by their entries' keys.
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

    /// Where `key` sits in the sorted index: `Ok` at a live entry's
    /// position, `Err` where a new entry would go.
    fn locate(&self, key: KeyRef<'_>) -> Result<usize, usize> {
        self.index
            .binary_search_by(|&slot| self.entry(ContractHandle(slot)).key.as_ref().cmp(&key))
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
        let pair = (contract, cdv);
        let key = KeyRef::of(&pair);
        match self.locate(key) {
            Ok(pos) => {
                let handle = ContractHandle(self.index[pos]);
                self.retain(handle);
                Ok(handle)
            }
            Err(pos) => Ok(self.insert_at(pos, key, make()?)),
        }
    }

    /// The handle of the live entry for `(contract, cdv)`, if any,
    /// without touching its refcount.
    pub(crate) fn find(&self, contract: TrafficContract, cdv: Time) -> Option<ContractHandle> {
        self.locate(KeyRef::of(&(contract, cdv)))
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
        let pair = (contract, cdv);
        let key = KeyRef::of(&pair);
        let found = self.locate(key);
        debug_assert!(found.is_err(), "(contract, cdv) interned twice");
        let (Ok(pos) | Err(pos)) = found;
        self.insert_at(pos, key, stream)
    }

    /// Stores a new entry for `key` and indexes it at `pos`.
    fn insert_at(&mut self, pos: usize, key: KeyRef<'_>, stream: BitStream) -> ContractHandle {
        let entry = Entry {
            key: key.to_key(),
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
        let found = self.locate(self.entry(handle).key.as_ref());
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
        match &self.entry(handle).key {
            Key::Word(word) => word.contract(),
            Key::Wide(wide) => wide.0,
        }
    }

    /// The interned accumulated CDV.
    pub(crate) fn cdv(&self, handle: ContractHandle) -> Time {
        match &self.entry(handle).key {
            Key::Word(word) => Time::new(word.cdv.into()),
            Key::Wide(wide) => wide.1,
        }
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
    /// sorted slot index + the interned stream segments + the box of
    /// each key too wide for machine words.
    pub(crate) fn resident_bytes(&self) -> usize {
        let slab = self.slots.capacity() * std::mem::size_of::<Slot>();
        let index = self.index.capacity() * std::mem::size_of::<u32>();
        let entries: usize = self
            .slots
            .iter()
            .map(|slot| match slot {
                Slot::Occupied(entry) => {
                    let wide = match entry.key {
                        Key::Word(_) => 0,
                        Key::Wide(_) => std::mem::size_of::<(TrafficContract, Time)>(),
                    };
                    entry.stream.resident_bytes() + wide
                }
                Slot::Free { .. } => 0,
            })
            .sum();
        slab + index + entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(std::mem::size_of::<WordKey>(), 56);
        assert_eq!(std::mem::size_of::<Slot>(), 96);
    }

    /// The two coprime 63-bit-denominator CBR rates of ROADMAP item 2:
    /// the widest word keys.
    fn edge_cbr() -> [TrafficContract; 2] {
        [
            cbr(1, 9_223_372_036_854_775_783),
            cbr(1, 9_223_372_036_854_775_643),
        ]
    }

    /// A rate and a CDV whose denominators are past `i64`.
    fn wide_cbr() -> TrafficContract {
        cbr(1, 1 << 63)
    }

    fn wide_cdv() -> Time {
        Time::new(ratio(3, 1 << 63))
    }

    #[test]
    fn wide_keys_are_boxed_and_counted() {
        let mut intern = ContractIntern::new();
        let [a, b] = edge_cbr();
        let keys = [
            (wide_cbr(), Time::ZERO),
            (cbr(1, 8), wide_cdv()),
            (a, Time::ZERO),
            (b, wide_cdv()),
            (cbr(1, 8), Time::from_integer(16)),
        ];
        let handles: Vec<ContractHandle> = keys
            .iter()
            .map(|&(c, cdv)| intern.acquire(c, cdv, || Ok(stream_of(c, cdv))).unwrap())
            .collect();
        let wide: Vec<bool> = handles
            .iter()
            .map(|&h| matches!(intern.entry(h).key, Key::Wide(_)))
            .collect();
        assert_eq!(wide, [true, true, false, true, false]);
        for (&(c, cdv), &h) in keys.iter().zip(&handles) {
            assert_eq!(intern.find(c, cdv), Some(h));
            assert_eq!((intern.contract(h), intern.cdv(h)), (c, cdv));
        }
        // Word keys sort before wide ones.
        let words: Vec<u32> = intern.index[..2].to_vec();
        assert!(words.contains(&handles[2].raw()) && words.contains(&handles[4].raw()));

        let streams: usize = handles
            .iter()
            .map(|&h| intern.stream(h).resident_bytes())
            .sum();
        let boxes = 3 * std::mem::size_of::<(TrafficContract, Time)>();
        let fixed = intern.slots.capacity() * std::mem::size_of::<Slot>()
            + intern.index.capacity() * std::mem::size_of::<u32>();
        assert_eq!(intern.resident_bytes(), fixed + streams + boxes);

        for h in handles {
            assert!(intern.release(h));
        }
        assert_eq!(intern.len(), 0);
        assert_eq!(intern.resident_bytes(), fixed);
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
        let handle = ContractHandle(slot);
        (intern.contract(handle), intern.cdv(handle))
    }

    /// Seeded churn of acquires and releases over 11 contracts x 4 CDVs,
    /// word and wide keys mixed: after every step the sorted index is
    /// strictly ascending by key, holds exactly the live slots, and
    /// `find` agrees with a linear scan of the slab.
    /// `RTCAC_TEST_SEED=<u64>` replays a failure; every failure names it.
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
            edge_cbr()[0],
            edge_cbr()[1],
            wide_cbr(),
        ];
        let cdvs = [
            Time::ZERO,
            Time::from_integer(16),
            Time::new(ratio(81, 2)),
            wide_cdv(),
        ];
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
            let key = |slot: u32| intern.entry(ContractHandle(slot)).key.as_ref();
            assert!(
                index.windows(2).all(|w| key(w[0]) < key(w[1])),
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

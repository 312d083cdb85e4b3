//! The struct-of-arrays slab posting store.
//!
//! One [`PostingStore`] is one vertex's table of
//! `⟨keyword_set, {σ₁…σₙ}⟩` entries. Instead of the `BTreeMap` of
//! per-entry `BTreeSet`s its test oracle uses, the slab keeps two
//! parallel arrays indexed by *slot*, beside one byte arena:
//!
//! * `sigs` — the 64-bit keyword-set signatures, one contiguous slab.
//!   The PR 4 signature prefilter becomes a tight linear pass over this
//!   array; no pointers are chased until a signature passes.
//! * `entries` — 32 bytes per slot: the [`KeywordSet`] (a handle on its
//!   shared packed buffer, so a set the caller keeps is not copied) and
//!   the `(offset, len, last)` of its posting list in the arena.
//! * `arena` — the varint delta-encoded object ids
//!   ([`crate::store::codec`]) of every list of two or more, back to
//!   back.
//!
//! A list of one id is its slot's `last`, with `len == 0`: it takes no
//! arena byte, and most keyword sets are held by one object. A second
//! id moves the list to the arena tail as two varints; a remove that
//! leaves one id puts the survivor back in the slot.
//!
//! Mutation appends: growing a list whose bytes sit at the arena tail
//! extends in place; anywhere else streams the list to the tail with
//! the one id added or dropped — no decode buffer — and retires the old
//! range as *waste*, bounded by [`PostingStore::compact`], triggered
//! automatically once waste crosses a threshold. Deleting a last object
//! swap-removes the slot, so every slot is live: slot order is not
//! query-visible (every scan sorts by keyword set). The slot arrays
//! grow by half their length, not by doubling: a vertex holds a few
//! slots, and a doubled array can be half empty.
//!
//! # Parity contract
//!
//! Every query answers **byte-identically** to the oracle: scans
//! collect the signature-passing slots, sort them by keyword set (the
//! `BTreeMap` iteration order), and confirm with
//! [`KeywordSet::is_superset`]; exact lookups confirm with equality.
//! The property tests in `tests/store_parity.rs` drive both through
//! random interleavings to hold this line.

use std::mem::size_of;
use std::ops::Range;

use hyperdex_dht::ObjectId;

use crate::keyword::KeywordSet;
use crate::store::codec::{push_varint, read_varint, DeltaIter};
use crate::store::{key_heap_bytes, StoreBackend, StoreFootprint};

/// One slot: its keyword set and where its posting list sits.
#[derive(Debug, Clone)]
struct Entry {
    /// The slot's keyword set.
    key: KeywordSet,
    /// Byte offset of the encoded list in the arena.
    off: u32,
    /// Encoded byte length; 0 for a list of one id, which is `last`.
    len: u32,
    /// Raw value of the largest (= last) id; gates the fast append.
    last: u64,
}

impl Entry {
    /// Whether the list is the one id `last`, held in the slot.
    fn is_inline(&self) -> bool {
        self.len == 0
    }

    /// The arena bytes of the slot's list (empty when inline).
    fn range(&self) -> Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
}

// What a slot and a vertex's store cost (DESIGN.md §17); a field added
// to either must say so here.
const _: () = assert!(size_of::<Entry>() == 32);
const _: () = assert!(size_of::<PostingStore>() <= 88);

/// Compact once retired arena bytes exceed half the arena beyond this
/// floor.
const WASTE_FLOOR: u32 = 4096;

/// A full pair of slot arrays grows by half its length, and by at least
/// this many slots.
const MIN_GROWTH: usize = 4;

/// A struct-of-arrays posting store for one hypercube vertex.
#[derive(Debug, Clone, Default)]
pub struct PostingStore {
    /// The contiguous signature slab.
    sigs: Vec<u64>,
    /// Keyword set and posting-list place per slot, parallel to `sigs`.
    entries: Vec<Entry>,
    /// Varint delta-encoded object ids of every list of two or more,
    /// back to back.
    arena: Vec<u8>,
    /// OR of every slot's signature (kept exact on removal).
    union_sig: u64,
    /// Total indexed objects across all slots: each is a slot's inline
    /// id or costs at least one arena byte, so there are at most as many
    /// as slots and arena bytes together — which every slot creation and
    /// arena write holds within `u32`.
    objects: u32,
    /// Arena bytes retired by re-encodes and removals.
    arena_waste: u32,
}

impl PostingStore {
    /// An empty store. Shim: `benchmark/` passes the (only) backend;
    /// everything else uses `default()`. Remove with [`StoreBackend`].
    pub fn new(_backend: StoreBackend) -> Self {
        Self::default()
    }

    /// Adds the entry `⟨keywords, object⟩`. Returns `false` if it was
    /// already present.
    pub fn insert(&mut self, keywords: KeywordSet, object: ObjectId) -> bool {
        let sig = keywords.signature();
        match self.find_slot(&keywords, sig) {
            Some(slot) => self.push_object(slot, object.raw()),
            None => self.insert_new(keywords, sig, object),
        }
    }

    /// Removes the entry `⟨keywords, object⟩`. Returns `false` if it
    /// was absent.
    pub fn remove(&mut self, keywords: &KeywordSet, object: ObjectId) -> bool {
        let Some(slot) = self.find_slot(keywords, keywords.signature()) else {
            return false;
        };
        let raw = object.raw();
        let e = &self.entries[slot];
        if raw > e.last {
            return false;
        }
        if e.is_inline() {
            if raw != e.last {
                return false;
            }
            self.kill_slot(slot);
        } else {
            // An arena list holds two ids or more.
            let (at, prev, cur) = self.seek(slot, raw);
            if cur != raw {
                return false;
            }
            let Range { start, end } = self.entries[slot].range();
            if at.end < end {
                // The next id's delta absorbs the removed one's.
                let mut rest = &self.arena[at.end..end];
                let next = cur + read_varint(&mut rest);
                if at.start == start && rest.is_empty() {
                    // The list was `[raw, next]`.
                    self.put_inline(slot, next);
                } else {
                    self.splice(slot, at.start..end - rest.len(), &[next - prev]);
                }
            } else if read_varint(&mut &self.arena[start..end]) == prev {
                // `prev` is the first id, so the list was `[prev, raw]`.
                self.put_inline(slot, prev);
            } else {
                self.splice(slot, at, &[]);
                self.entries[slot].last = prev;
            }
        }
        self.objects -= 1;
        self.maybe_compact();
        true
    }

    /// The objects indexed under exactly `keywords` (pin-search
    /// source), short-circuited by the union signature.
    pub fn objects_with<'a>(&'a self, keywords: &KeywordSet) -> DeltaIter<'a> {
        let qsig = keywords.signature();
        if qsig & self.union_sig != qsig {
            return DeltaIter::empty();
        }
        match self.find_slot(keywords, qsig) {
            Some(slot) => self.list_iter(slot),
            None => DeltaIter::empty(),
        }
    }

    /// All entries `⟨K', O⟩` with `K' ⊇ query`, signature prefilter on.
    pub fn superset_entries<'a>(&'a self, query: &'a KeywordSet) -> SlabEntries<'a> {
        self.superset_entries_sig(query, query.signature())
    }

    /// [`PostingStore::superset_entries`] with the query signature
    /// precomputed (`qsig = 0` disables the prefilter — the unfiltered
    /// parity-reference scan).
    pub fn superset_entries_sig<'a>(&'a self, query: &'a KeywordSet, qsig: u64) -> SlabEntries<'a> {
        let hits = if qsig & self.union_sig != qsig {
            // Whole-store short-circuit.
            Vec::new()
        } else if qsig == 0 {
            self.slots_sorted()
        } else {
            // The tight linear pass: one branch per u64, no pointer
            // chased until a signature covers the query's.
            let mut hits: Vec<u32> = self
                .sigs
                .iter()
                .enumerate()
                .filter(|&(_, &sig)| sig & qsig == qsig)
                .map(|(slot, _)| slot as u32)
                .collect();
            self.sort_by_key_order(&mut hits);
            hits
        };
        SlabEntries {
            store: self,
            query: Some(query),
            hits: hits.into_iter(),
        }
    }

    /// Number of distinct keyword sets (slots).
    pub fn keyword_set_count(&self) -> usize {
        self.entries.len()
    }

    /// Total number of indexed objects.
    pub fn object_count(&self) -> usize {
        self.objects as usize
    }

    /// The stored keyword sets, in slot order: what the occupancy
    /// summary folds a vertex's signature from after a slot dies.
    pub(crate) fn keyword_sets(&self) -> impl Iterator<Item = &KeywordSet> {
        self.entries.iter().map(|e| &e.key)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all `(keyword set, objects)` entries in sorted
    /// keyword-set order — the oracle's `BTreeMap` iteration order.
    pub fn iter(&self) -> SlabEntries<'_> {
        SlabEntries {
            store: self,
            query: None,
            hits: self.slots_sorted().into_iter(),
        }
    }

    /// Memory accounting: measured buffer capacities plus the measured
    /// bytes of the held keyword sets — each whole, shared with a
    /// caller or not (see [`StoreFootprint::key_bytes`]).
    pub fn footprint(&self) -> StoreFootprint {
        let key_bytes = self.entries.iter().map(|e| key_heap_bytes(&e.key)).sum();
        let slab_bytes = self.sigs.capacity() * size_of::<u64>();
        StoreFootprint {
            bytes_resident: size_of::<Self>()
                + slab_bytes
                + self.entries.capacity() * size_of::<Entry>()
                + self.arena.capacity()
                + key_bytes,
            slab_bytes,
            arena_bytes: self.arena.capacity(),
            arena_waste: self.arena_waste as usize,
            key_bytes,
        }
    }

    /// Rebuilds the arena with every retired range dropped.
    pub fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.arena.len() - self.arena_waste as usize);
        for e in self.entries.iter_mut().filter(|e| !e.is_inline()) {
            let off = arena.len() as u32;
            arena.extend_from_slice(&self.arena[e.range()]);
            e.off = off;
        }
        self.arena = arena;
        self.arena_waste = 0;
    }

    /// The slot holding exactly `keywords`, if any: linear signature
    /// scan (equal sets have equal signatures) confirmed by equality.
    fn find_slot(&self, keywords: &KeywordSet, sig: u64) -> Option<usize> {
        (0..self.sigs.len())
            .find(|&slot| self.sigs[slot] == sig && self.entries[slot].key == *keywords)
    }

    /// Appends a brand-new slot for `keywords`, its list inline.
    fn insert_new(&mut self, keywords: KeywordSet, sig: u64, object: ObjectId) -> bool {
        if self.entries.len() == self.entries.capacity() {
            let more = (self.entries.len() / 2).max(MIN_GROWTH);
            self.entries.reserve_exact(more);
            self.sigs.reserve_exact(more);
        }
        self.sigs.push(sig);
        self.entries.push(Entry {
            key: keywords,
            off: 0,
            len: 0,
            last: object.raw(),
        });
        self.check_size();
        self.union_sig |= sig;
        self.objects += 1;
        true
    }

    /// Adds `raw` to an existing slot. Returns `false` on duplicate.
    fn push_object(&mut self, slot: usize, raw: u64) -> bool {
        let e = &self.entries[slot];
        let (end, last) = (e.range().end, e.last);
        if e.is_inline() {
            if raw == last {
                return false;
            }
            // The second id: both, ascending, at the arena tail.
            let (lo, hi) = (raw.min(last), raw.max(last));
            let off = self.arena.len();
            push_varint(&mut self.arena, lo);
            push_varint(&mut self.arena, hi - lo);
            self.set_range(slot, off);
            self.entries[slot].last = hi;
        } else if raw > last {
            // Above the current maximum: provably absent, no decode.
            if end == self.arena.len() {
                // The list already sits at the arena tail — extend it.
                push_varint(&mut self.arena, raw - last);
                self.set_range(slot, self.entries[slot].off as usize);
            } else {
                // Relocate to the tail, then extend.
                self.splice(slot, end..end, &[raw - last]);
            }
            self.entries[slot].last = raw;
        } else {
            // At or below the maximum: find its place, re-encode around
            // it.
            let (at, prev, cur) = self.seek(slot, raw);
            if cur == raw {
                return false;
            }
            self.splice(slot, at, &[raw - prev, cur - raw]);
        }
        self.objects += 1;
        self.maybe_compact();
        true
    }

    /// The first id of `slot`'s list at or above `id`, which must not
    /// exceed the list's last: that id's varint range in the arena, its
    /// predecessor (0 before the first) and the id itself.
    fn seek(&self, slot: usize, id: u64) -> (Range<usize>, u64, u64) {
        let Range { mut start, end } = self.entries[slot].range();
        let mut prev = 0;
        loop {
            let mut rest = &self.arena[start..end];
            let cur = prev + read_varint(&mut rest);
            let next = end - rest.len();
            if cur >= id {
                return (start..next, prev, cur);
            }
            (start, prev) = (next, cur);
        }
    }

    /// Rewrites `slot`'s list at the arena tail with the bytes `cut`
    /// replaced by the varints `with`, retiring the old range. The
    /// arena may reallocate under the pushes, so it is read by index.
    fn splice(&mut self, slot: usize, cut: Range<usize>, with: &[u64]) {
        let old = self.entries[slot].range();
        let start = self.arena.len();
        self.arena.extend_from_within(old.start..cut.start);
        for &v in with {
            push_varint(&mut self.arena, v);
        }
        self.arena.extend_from_within(cut.end..old.end);
        self.arena_waste += old.len() as u32;
        self.set_range(slot, start);
    }

    /// Points `slot` at the arena bytes from `start` to the tail.
    fn set_range(&mut self, slot: usize, start: usize) {
        self.check_size();
        let e = &mut self.entries[slot];
        e.off = start as u32;
        e.len = (self.arena.len() - start) as u32;
    }

    /// Panics unless slots and arena bytes together fit a `u32`: that
    /// bounds `objects` and every arena offset.
    fn check_size(&self) {
        u32::try_from(self.entries.len() + self.arena.len())
            .expect("posting store exceeds 4 Gi slots and arena bytes");
    }

    /// Makes `slot`'s list the one id `raw`, held inline, and retires
    /// its arena range whole.
    fn put_inline(&mut self, slot: usize, raw: u64) {
        let e = &mut self.entries[slot];
        self.arena_waste += std::mem::take(&mut e.len);
        (e.off, e.last) = (0, raw);
    }

    /// Drops a slot whose one, inline object was removed: the last slot
    /// moves into its place. It held no arena bytes.
    fn kill_slot(&mut self, slot: usize) {
        self.entries.swap_remove(slot);
        self.sigs.swap_remove(slot);
        // Other slots may still cover the departed bits.
        self.union_sig = self.sigs.iter().fold(0, |m, &s| m | s);
    }

    /// Compacts once retired arena bytes dominate.
    fn maybe_compact(&mut self) {
        if self.arena_waste > WASTE_FLOOR && self.arena_waste as usize * 2 > self.arena.len() {
            self.compact();
        }
    }

    /// Every slot, sorted by keyword set.
    fn slots_sorted(&self) -> Vec<u32> {
        let mut slots: Vec<u32> = (0..self.entries.len() as u32).collect();
        self.sort_by_key_order(&mut slots);
        slots
    }

    /// Sorts slot indices into keyword-set order (the oracle's
    /// `BTreeMap` iteration order).
    fn sort_by_key_order(&self, slots: &mut [u32]) {
        slots.sort_unstable_by(|&a, &b| {
            self.entries[a as usize]
                .key
                .cmp(&self.entries[b as usize].key)
        });
    }

    /// The posting iterator of one slot.
    fn list_iter(&self, slot: usize) -> DeltaIter<'_> {
        let e = &self.entries[slot];
        if e.is_inline() {
            DeltaIter::one(e.last)
        } else {
            DeltaIter::new(&self.arena[e.range()])
        }
    }
}

/// Iterator over slab entries in keyword-set order, optionally
/// confirmed against a superset query.
#[derive(Debug)]
pub struct SlabEntries<'a> {
    store: &'a PostingStore,
    /// `Some` = confirm `K' ⊇ query` before yielding; `None` = plain
    /// iteration.
    query: Option<&'a KeywordSet>,
    hits: std::vec::IntoIter<u32>,
}

impl SlabEntries<'_> {
    /// Stable-sorts the entries not yet yielded by `key` of their
    /// keyword set, in the slot list the scan already holds.
    pub(crate) fn sort_by_set_key<K: Ord>(&mut self, mut key: impl FnMut(&KeywordSet) -> K) {
        let store = self.store;
        self.hits
            .as_mut_slice()
            .sort_by_key(|&slot| key(&store.entries[slot as usize].key));
    }
}

impl<'a> Iterator for SlabEntries<'a> {
    type Item = (&'a KeywordSet, DeltaIter<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let slot = self.hits.next()? as usize;
            let key = &self.store.entries[slot].key;
            if let Some(query) = self.query {
                if !key.is_superset(query) {
                    continue;
                }
            }
            return Some((key, self.store.list_iter(slot)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    fn ids(st: &PostingStore, keywords: &str) -> Vec<u64> {
        st.objects_with(&set(keywords)).map(ObjectId::raw).collect()
    }

    proptest::proptest! {
        /// Through any interleaving of inserts and removes the digest
        /// is the OR of the live slots' signatures — what the lookups'
        /// short circuit trusts.
        #[test]
        fn union_signature_is_the_or_of_the_live_slots(
            ops in proptest::collection::vec((0u8..12, 0u8..12, 0u64..8, proptest::any::<bool>()), 0..60)
        ) {
            let mut st = PostingStore::default();
            for (a, b, object, insert) in ops {
                let k = KeywordSet::from_strs([format!("w{a}"), format!("w{b}")]).unwrap();
                if insert {
                    st.insert(k, oid(object));
                } else {
                    st.remove(&k, oid(object));
                }
                let or = st.iter().fold(0, |sig, (k, _)| sig | k.signature());
                proptest::prop_assert_eq!(st.union_sig, or);
            }
        }
    }

    #[test]
    fn entries_with_same_set_combine() {
        let mut st = PostingStore::default();
        assert!(st.insert(set("a b"), oid(1)));
        assert!(st.insert(set("a b"), oid(2)));
        assert!(!st.insert(set("a b"), oid(1)), "duplicate entry");
        assert_eq!(st.keyword_set_count(), 1);
        assert_eq!(st.object_count(), 2);
    }

    #[test]
    fn out_of_order_inserts_come_back_sorted() {
        let mut st = PostingStore::default();
        for id in [9u64, 2, 7, 1, 8] {
            st.insert(set("k"), oid(id));
        }
        assert_eq!(ids(&st, "k"), vec![1, 2, 7, 8, 9]);
    }

    #[test]
    fn a_present_id_inserted_out_of_order_writes_nothing() {
        let mut st = PostingStore::default();
        for id in [1u64, 5, 9] {
            st.insert(set("k"), oid(id));
        }
        let before = st.footprint();
        for id in [1u64, 5] {
            assert!(!st.insert(set("k"), oid(id)));
        }
        assert_eq!(st.arena.len(), 3, "no bytes streamed for a duplicate");
        assert_eq!(st.footprint(), before);
        assert_eq!(ids(&st, "k"), vec![1, 5, 9]);
    }

    #[test]
    fn streaming_remove_of_first_middle_last_and_absent_ids() {
        let list = [3u64, 200, 70_000, 70_001, 1 << 40];
        for (drop, present) in [
            (3, true),
            (70_000, true),
            (1 << 40, true),
            (4, false),
            (1 << 41, false),
        ] {
            let mut st = PostingStore::default();
            // A second arena list after it, so the list does not sit at
            // the arena tail.
            for &id in &list {
                st.insert(set("k"), oid(id));
            }
            st.insert(set("other"), oid(1));
            st.insert(set("other"), oid(2));
            let len = st.arena.len();
            assert_eq!(st.remove(&set("k"), oid(drop)), present, "remove {drop}");
            let expect: Vec<u64> = list.iter().copied().filter(|&id| id != drop).collect();
            assert_eq!(ids(&st, "k"), expect, "remove {drop}");
            assert_eq!(ids(&st, "other"), vec![1, 2]);
            assert_eq!(st.object_count(), expect.len() + 2);
            let last = *expect.last().unwrap();
            assert_eq!(entry(&st, "k").last, last, "remove {drop}");
            if !present {
                assert_eq!(st.arena.len(), len, "an absent id streams nothing");
                assert_eq!(st.arena_waste, 0);
            }
        }
    }

    #[test]
    fn relocated_appends_survive_compaction() {
        let mut st = PostingStore::default();
        // Interleaved appends: every list but the last-touched one is
        // relocated to the tail before it grows.
        for i in 0..70u64 {
            st.insert(set(&format!("kw{}", i % 7)), oid(i * 1000));
        }
        st.insert(set("kw0"), oid(u64::MAX));
        assert!(st.arena_waste > 0, "relocations retired ranges");
        st.compact();
        assert_eq!(st.arena_waste, 0);
        for k in 0..7u64 {
            let mut expect: Vec<u64> = (0..70).filter(|i| i % 7 == k).map(|i| i * 1000).collect();
            if k == 0 {
                expect.push(u64::MAX);
            }
            assert_eq!(ids(&st, &format!("kw{k}")), expect);
        }
    }

    #[test]
    fn remove_drops_the_slot_and_union_follows() {
        let mut st = PostingStore::default();
        st.insert(set("a"), oid(1));
        st.insert(set("b c"), oid(2));
        assert!(st.remove(&set("a"), oid(1)));
        assert!(!st.remove(&set("a"), oid(1)));
        assert_eq!(st.keyword_set_count(), 1);
        assert_eq!(st.union_sig, set("b c").signature());
        assert!(st.remove(&set("b c"), oid(2)));
        assert!(st.is_empty());
        assert_eq!(st.union_sig, 0);
    }

    #[test]
    fn superset_scan_is_sorted_and_confirmed() {
        let mut st = PostingStore::default();
        st.insert(set("a b"), oid(1));
        st.insert(set("a b c"), oid(2));
        st.insert(set("x y"), oid(3));
        let query = set("a b");
        let keys: Vec<KeywordSet> = st
            .superset_entries(&query)
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(keys.len(), 2);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "entries come back in keyword-set order");
        assert_eq!(st.superset_entries(&KeywordSet::new()).count(), 3);
    }

    #[test]
    fn compaction_preserves_answers() {
        let mut st = PostingStore::default();
        for i in 0..200u64 {
            st.insert(set(&format!("kw{}", i % 10)), oid(i));
        }
        for i in (0..200u64).step_by(2) {
            st.remove(&set(&format!("kw{}", i % 10)), oid(i));
        }
        st.compact();
        assert_eq!(st.object_count(), 100);
        assert_eq!(st.footprint().arena_waste, 0);
        let expect: Vec<u64> = (0..200).filter(|i| i % 10 == 1 && i % 2 == 1).collect();
        assert_eq!(ids(&st, "kw1"), expect);
    }

    #[test]
    fn footprint_tracks_waste_and_keys() {
        let mut st = PostingStore::default();
        for id in [2u64, 3, 4] {
            st.insert(set("a"), oid(id));
        }
        st.insert(set("b"), oid(1));
        st.remove(&set("a"), oid(3));
        assert!(st.footprint().arena_waste > 0, "a three-id list re-encoded");
        let before = st.footprint();
        st.remove(&set("a"), oid(2));
        st.remove(&set("a"), oid(4));
        let fp = st.footprint();
        assert_eq!(st.keyword_set_count(), 1);
        assert!(fp.arena_waste > before.arena_waste);
        assert!(fp.key_bytes < before.key_bytes);
        assert!(fp.bytes_resident > 0);
    }

    /// The slot of `keywords`, which must be stored.
    fn entry<'a>(st: &'a PostingStore, keywords: &str) -> &'a Entry {
        let k = set(keywords);
        &st.entries[st.find_slot(&k, k.signature()).unwrap()]
    }

    #[test]
    fn one_id_lists_take_no_arena_byte() {
        let mut st = PostingStore::default();
        for i in 0..100u64 {
            assert!(st.insert(set(&format!("w{i} x")), oid(i << 40)));
        }
        assert_eq!(st.arena.capacity(), 0);
        assert_eq!(st.footprint().arena_bytes, 0);
        assert_eq!(st.object_count(), 100);
        assert_eq!(ids(&st, "w7 x"), vec![7 << 40]);
    }

    #[test]
    fn a_second_id_above_or_below_makes_an_ascending_arena_list() {
        for (first, second) in [(5u64, 300), (300, 5)] {
            let mut st = PostingStore::default();
            st.insert(set("k"), oid(first));
            assert!(st.insert(set("k"), oid(second)));
            // 5, then the delta 295 in two bytes.
            assert_eq!(st.arena, [5, 0xa7, 0x02], "{first} then {second}");
            let e = entry(&st, "k");
            assert_eq!((e.off, e.len, e.last), (0, 3, 300));
            assert_eq!(ids(&st, "k"), vec![5, 300]);
            assert_eq!(st.arena_waste, 0);
        }
    }

    #[test]
    fn removing_one_of_two_ids_puts_the_survivor_back_inline() {
        for (drop, keep) in [(5u64, 300), (300, 5)] {
            let mut st = PostingStore::default();
            st.insert(set("k"), oid(5));
            st.insert(set("k"), oid(300));
            let two = st.arena.len() as u32;
            assert!(st.remove(&set("k"), oid(drop)));
            let e = entry(&st, "k");
            assert_eq!((e.len, e.last), (0, keep), "remove {drop}");
            assert_eq!(st.arena_waste, two, "exactly the two-id range retires");
            assert_eq!(st.arena.len(), two as usize, "nothing is spliced first");
            assert_eq!(ids(&st, "k"), vec![keep]);
            assert_eq!(st.object_count(), 1);
        }
    }

    #[test]
    fn an_inline_duplicate_or_absent_id_changes_nothing() {
        let mut st = PostingStore::default();
        st.insert(set("k"), oid(9));
        let before = st.footprint();
        assert!(!st.insert(set("k"), oid(9)));
        for absent in [8u64, 10] {
            assert!(!st.remove(&set("k"), oid(absent)));
        }
        assert_eq!(st.footprint(), before);
        assert_eq!(ids(&st, "k"), vec![9]);
        assert_eq!(st.object_count(), 1);
    }

    #[test]
    fn compaction_over_inline_and_arena_lists_keeps_every_answer() {
        let mut st = PostingStore::default();
        for i in 0..60u64 {
            st.insert(set(&format!("kw{}", i % 12)), oid(i));
        }
        // kw0..kw5 keep one id each, kw6..kw11 all five.
        for i in 12..60u64 {
            if i % 12 < 6 {
                st.remove(&set(&format!("kw{}", i % 12)), oid(i));
            }
        }
        assert!(st.arena_waste > 0);
        let before: Vec<(KeywordSet, Vec<u64>)> = st
            .iter()
            .map(|(k, o)| (k.clone(), o.map(ObjectId::raw).collect()))
            .collect();
        st.compact();
        assert_eq!(st.arena_waste, 0);
        let after: Vec<(KeywordSet, Vec<u64>)> = st
            .iter()
            .map(|(k, o)| (k.clone(), o.map(ObjectId::raw).collect()))
            .collect();
        assert_eq!(after, before);
        assert_eq!(ids(&st, "kw3"), vec![3]);
        assert_eq!(ids(&st, "kw7"), vec![7, 19, 31, 43, 55]);
        assert_eq!(st.arena.len(), 6 * 5, "only the arena lists are copied");
    }
}

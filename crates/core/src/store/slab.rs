//! The struct-of-arrays slab posting store.
//!
//! One [`PostingStore`] is one vertex's table of
//! `⟨keyword_set, {σ₁…σₙ}⟩` entries. Instead of the `BTreeMap` of
//! per-entry `BTreeSet`s the reference
//! [`IndexTable`](crate::index::IndexTable) uses, the slab keeps three
//! parallel arrays indexed by *slot*:
//!
//! * `sigs` — the 64-bit keyword-set signatures, one contiguous slab.
//!   The PR 4 signature prefilter becomes a tight linear pass over this
//!   array; no pointers are chased until a signature passes.
//! * `keys` — the [`KeywordSet`] per slot: a handle on its shared
//!   packed buffer, so a set the caller keeps is not copied.
//! * `posts` — `(offset, len, count, last)` descriptors into the byte
//!   arena holding each slot's varint delta-encoded object ids
//!   ([`crate::store::codec`]).
//!
//! Mutation appends: growing a list whose bytes sit at the arena tail
//! extends in place; anywhere else re-encodes at the tail and retires
//! the old range as *waste*, bounded by [`PostingStore::compact`],
//! triggered automatically once waste crosses a threshold. Deleting a
//! last object swap-removes the slot, so every slot is live: slot
//! order is not query-visible (every scan sorts by keyword set).
//!
//! # Parity contract
//!
//! Every query answers **byte-identically** to `IndexTable`: scans
//! collect the signature-passing slots, sort them by keyword set (the
//! `BTreeMap` iteration order), and confirm with
//! [`KeywordSet::is_superset`]; exact lookups confirm with equality.
//! The property oracle in `tests/store_parity.rs` drives both through
//! random interleavings to hold this line.

use hyperdex_dht::ObjectId;

use crate::keyword::KeywordSet;
use crate::store::codec::{decode_into, encode_list, push_varint, DeltaIter};
use crate::store::{key_heap_bytes, StoreBackend, StoreFootprint};

/// Descriptor of one slot's encoded posting list in the arena.
#[derive(Debug, Clone, Copy)]
struct PostingList {
    /// Byte offset of the encoded list in the arena.
    off: u32,
    /// Encoded byte length.
    len: u32,
    /// Number of object ids in the list.
    count: u32,
    /// Raw value of the largest (= last) id; gates the fast append.
    last: u64,
}

/// Compact once retired arena bytes exceed half the arena beyond this
/// floor.
const WASTE_FLOOR: usize = 4096;

/// A struct-of-arrays posting store for one hypercube vertex.
#[derive(Debug, Clone, Default)]
pub struct PostingStore {
    /// The contiguous signature slab.
    sigs: Vec<u64>,
    /// The keyword set of each slot.
    keys: Vec<KeywordSet>,
    /// Posting-list descriptors, parallel to `sigs`/`keys`.
    posts: Vec<PostingList>,
    /// Varint delta-encoded object ids, all slots back to back.
    arena: Vec<u8>,
    /// Arena bytes retired by re-encodes and removals.
    arena_waste: usize,
    /// OR of every slot's signature (kept exact on removal).
    union_sig: u64,
    /// Total indexed objects across all slots.
    objects: usize,
    /// Heap bytes of the held keyword sets.
    key_bytes: usize,
    /// Reused decode buffer for mutations.
    scratch: Vec<u64>,
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
            Some(slot) => self.push_object(slot, object),
            None => self.insert_new(keywords, sig, object),
        }
    }

    /// Removes the entry `⟨keywords, object⟩`. Returns `false` if it
    /// was absent.
    pub fn remove(&mut self, keywords: &KeywordSet, object: ObjectId) -> bool {
        let sig = keywords.signature();
        let Some(slot) = self.find_slot(keywords, sig) else {
            return false;
        };
        let pl = self.posts[slot];
        let mut ids = std::mem::take(&mut self.scratch);
        ids.clear();
        decode_into(
            &self.arena[pl.off as usize..(pl.off + pl.len) as usize],
            pl.count,
            &mut ids,
        );
        let removed = match ids.binary_search(&object.raw()) {
            Err(_) => false,
            Ok(pos) => {
                ids.remove(pos);
                self.objects -= 1;
                if ids.is_empty() {
                    self.kill_slot(slot);
                } else {
                    self.reencode(slot, &ids);
                }
                true
            }
        };
        self.scratch = ids;
        if removed {
            self.maybe_compact();
        }
        removed
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

    /// OR of every slot's signature.
    pub fn union_signature(&self) -> u64 {
        self.union_sig
    }

    /// Number of distinct keyword sets (slots).
    pub fn keyword_set_count(&self) -> usize {
        self.keys.len()
    }

    /// Total number of indexed objects.
    pub fn object_count(&self) -> usize {
        self.objects
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
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
        let slab_bytes = self.sigs.capacity() * std::mem::size_of::<u64>();
        let resident = std::mem::size_of::<Self>()
            + slab_bytes
            + self.keys.capacity() * std::mem::size_of::<KeywordSet>()
            + self.posts.capacity() * std::mem::size_of::<PostingList>()
            + self.arena.capacity()
            + self.scratch.capacity() * std::mem::size_of::<u64>()
            + self.key_bytes;
        StoreFootprint {
            bytes_resident: resident,
            slab_bytes,
            arena_bytes: self.arena.capacity(),
            arena_waste: self.arena_waste,
            key_bytes: self.key_bytes,
        }
    }

    /// Rebuilds the arena with every retired range dropped.
    pub fn compact(&mut self) {
        let mut arena =
            Vec::with_capacity(self.arena.len() - self.arena_waste.min(self.arena.len()));
        for pl in &mut self.posts {
            let off = arena.len() as u32;
            arena.extend_from_slice(&self.arena[pl.off as usize..(pl.off + pl.len) as usize]);
            pl.off = off;
        }
        self.arena = arena;
        self.arena_waste = 0;
    }

    /// The slot holding exactly `keywords`, if any: linear signature
    /// scan (equal sets have equal signatures) confirmed by equality.
    fn find_slot(&self, keywords: &KeywordSet, sig: u64) -> Option<usize> {
        self.sigs.iter().enumerate().find_map(|(slot, &s)| {
            if s == sig && self.keys[slot] == *keywords {
                Some(slot)
            } else {
                None
            }
        })
    }

    /// Appends a brand-new slot for `keywords`.
    fn insert_new(&mut self, keywords: KeywordSet, sig: u64, object: ObjectId) -> bool {
        let off = u32::try_from(self.arena.len()).expect("posting arena exceeds 4 GiB");
        let len = push_varint(&mut self.arena, object.raw()) as u32;
        self.key_bytes += key_heap_bytes(&keywords);
        self.sigs.push(sig);
        self.keys.push(keywords);
        self.posts.push(PostingList {
            off,
            len,
            count: 1,
            last: object.raw(),
        });
        self.union_sig |= sig;
        self.objects += 1;
        true
    }

    /// Adds `object` to an existing slot. Returns `false` on duplicate.
    fn push_object(&mut self, slot: usize, object: ObjectId) -> bool {
        let pl = self.posts[slot];
        let raw = object.raw();
        if raw > pl.last {
            // Above the current maximum: provably absent, no decode.
            if (pl.off + pl.len) as usize == self.arena.len() {
                // The list already sits at the arena tail — extend it.
                let added = push_varint(&mut self.arena, raw - pl.last) as u32;
                let p = &mut self.posts[slot];
                p.len += added;
                p.count += 1;
                p.last = raw;
            } else {
                // Relocate to the tail, then extend.
                let start = self.arena.len();
                u32::try_from(start + pl.len as usize).expect("posting arena exceeds 4 GiB");
                self.arena
                    .extend_from_within(pl.off as usize..(pl.off + pl.len) as usize);
                push_varint(&mut self.arena, raw - pl.last);
                self.arena_waste += pl.len as usize;
                let p = &mut self.posts[slot];
                p.off = start as u32;
                p.len = (self.arena.len() - start) as u32;
                p.count += 1;
                p.last = raw;
            }
            self.objects += 1;
            self.maybe_compact();
            return true;
        }
        // At or below the maximum: decode, check membership, re-encode.
        let mut ids = std::mem::take(&mut self.scratch);
        ids.clear();
        decode_into(
            &self.arena[pl.off as usize..(pl.off + pl.len) as usize],
            pl.count,
            &mut ids,
        );
        let inserted = match ids.binary_search(&raw) {
            Ok(_) => false,
            Err(pos) => {
                ids.insert(pos, raw);
                self.reencode(slot, &ids);
                self.objects += 1;
                true
            }
        };
        self.scratch = ids;
        if inserted {
            self.maybe_compact();
        }
        inserted
    }

    /// Re-encodes a slot's (non-empty, ascending) ids at the arena
    /// tail, retiring the old range.
    fn reencode(&mut self, slot: usize, ids: &[u64]) {
        let pl = self.posts[slot];
        self.arena_waste += pl.len as usize;
        let start = self.arena.len();
        let len = encode_list(&mut self.arena, ids);
        u32::try_from(start + len).expect("posting arena exceeds 4 GiB");
        self.posts[slot] = PostingList {
            off: start as u32,
            len: len as u32,
            count: ids.len() as u32,
            last: *ids.last().expect("reencode of a non-empty list"),
        };
    }

    /// Drops a slot whose last object was removed: the last slot
    /// moves into its place.
    fn kill_slot(&mut self, slot: usize) {
        self.arena_waste += self.posts.swap_remove(slot).len as usize;
        self.key_bytes -= key_heap_bytes(&self.keys.swap_remove(slot));
        self.sigs.swap_remove(slot);
        // Other slots may still cover the departed bits.
        self.union_sig = self.sigs.iter().fold(0, |m, &s| m | s);
    }

    /// Compacts once retired arena bytes dominate.
    fn maybe_compact(&mut self) {
        if self.arena_waste > WASTE_FLOOR && self.arena_waste * 2 > self.arena.len() {
            self.compact();
        }
    }

    /// Every slot, sorted by keyword set.
    fn slots_sorted(&self) -> Vec<u32> {
        let mut slots: Vec<u32> = (0..self.keys.len() as u32).collect();
        self.sort_by_key_order(&mut slots);
        slots
    }

    /// Sorts slot indices into keyword-set order (the oracle's
    /// `BTreeMap` iteration order).
    fn sort_by_key_order(&self, slots: &mut [u32]) {
        slots.sort_unstable_by(|&a, &b| self.keys[a as usize].cmp(&self.keys[b as usize]));
    }

    /// The posting iterator of one slot.
    fn list_iter(&self, slot: usize) -> DeltaIter<'_> {
        let pl = self.posts[slot];
        DeltaIter::new(
            &self.arena[pl.off as usize..(pl.off + pl.len) as usize],
            pl.count,
        )
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

impl<'a> Iterator for SlabEntries<'a> {
    type Item = (&'a KeywordSet, DeltaIter<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let slot = self.hits.next()? as usize;
            let key = &self.store.keys[slot];
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
        let ids: Vec<u64> = st.objects_with(&set("k")).map(ObjectId::raw).collect();
        assert_eq!(ids, vec![1, 2, 7, 8, 9]);
    }

    #[test]
    fn remove_drops_the_slot_and_union_follows() {
        let mut st = PostingStore::default();
        st.insert(set("a"), oid(1));
        st.insert(set("b c"), oid(2));
        assert!(st.remove(&set("a"), oid(1)));
        assert!(!st.remove(&set("a"), oid(1)));
        assert_eq!(st.keyword_set_count(), 1);
        assert_eq!(st.union_signature(), set("b c").signature());
        assert!(st.remove(&set("b c"), oid(2)));
        assert!(st.is_empty());
        assert_eq!(st.union_signature(), 0);
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
        let ids: Vec<u64> = st.objects_with(&set("kw1")).map(ObjectId::raw).collect();
        let expect: Vec<u64> = (0..200).filter(|i| i % 10 == 1 && i % 2 == 1).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn footprint_tracks_waste_and_keys() {
        let mut st = PostingStore::default();
        st.insert(set("a"), oid(2));
        st.insert(set("b"), oid(1));
        let before = st.footprint();
        st.remove(&set("a"), oid(2));
        let fp = st.footprint();
        assert_eq!(st.keyword_set_count(), 1);
        assert!(fp.arena_waste > 0);
        assert!(fp.key_bytes < before.key_bytes);
        assert!(fp.bytes_resident > 0);
    }
}

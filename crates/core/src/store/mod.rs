//! Pluggable per-vertex posting storage: the `hyperdex-store` subsystem.
//!
//! Every executor (direct engine, simulator, threaded runtime, TCP
//! servers) keeps one posting table per hypercube vertex. This module
//! puts two interchangeable backends behind [`PostingStore`]:
//!
//! * [`StoreBackend::Table`] — the original pointer-rich
//!   [`IndexTable`]: a `BTreeMap` of `BTreeSet` posting lists.
//! * [`StoreBackend::Slab`] — the struct-of-arrays [`SlabStore`]
//!   (see [`slab`]): signatures in one contiguous slab scanned
//!   batch-wise, posting lists varint-delta-encoded in a byte arena.
//!
//! Every executor defaults to the slab (it wins every column of
//! `BENCH_scale.json`); the table stays selectable through the
//! explicit executor configs as the parity reference. Both backends
//! answer every query **byte-identically** — same entries, same order,
//! same truncation — so the choice changes memory layout and nothing
//! else. `tests/store_parity.rs` holds that property under random
//! interleavings.

pub mod codec;
pub mod slab;

use std::sync::Arc;

use hyperdex_dht::ObjectId;

use crate::index::{IndexTable, SupersetEntries, TableObjects};
use crate::keyword::KeywordSet;

pub use codec::DeltaIter;
pub use slab::{SlabEntries, SlabStore};

/// Which posting-storage layout a store uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StoreBackend {
    /// `BTreeMap`/`BTreeSet` tables ([`IndexTable`]) — the original
    /// layout, and the parity reference.
    Table,
    /// Struct-of-arrays slab with delta-encoded postings
    /// ([`SlabStore`]) — what every executor runs unless told
    /// otherwise.
    #[default]
    Slab,
}

impl StoreBackend {
    /// Parses a backend name (`table` | `slab`).
    pub fn parse(name: &str) -> Option<StoreBackend> {
        match name {
            "table" => Some(StoreBackend::Table),
            "slab" => Some(StoreBackend::Slab),
            _ => None,
        }
    }

    /// The backend's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            StoreBackend::Table => "table",
            StoreBackend::Slab => "slab",
        }
    }
}

impl std::fmt::Display for StoreBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Memory accounting for one store (see `DESIGN.md` §17 for the
/// table-backend estimation model; slab numbers and, on both backends,
/// the keyword sets are measured buffer sizes).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreFootprint {
    /// Total resident bytes attributed to the store.
    pub bytes_resident: usize,
    /// Bytes of the contiguous signature slab (0 on the table backend).
    pub slab_bytes: usize,
    /// Live slots / total slots (1.0 when empty or on the table
    /// backend, which has no tombstones).
    pub slot_occupancy: f64,
    /// Posting-arena capacity in bytes (0 on the table backend).
    pub arena_bytes: usize,
    /// Arena bytes retired by re-encodes and removals, not yet
    /// compacted away (0 on the table backend).
    pub arena_waste: usize,
    /// Heap bytes of the interned keyword sets: each set's packed
    /// buffer plus its `Arc` block (both backends, same sets).
    pub key_bytes: usize,
}

impl StoreFootprint {
    /// Component-wise sum — per-vertex footprints roll up to one
    /// per-executor row.
    pub fn add(&mut self, other: &StoreFootprint) {
        // Occupancy averages weighted by slab size would need slot
        // counts; the aggregate keeps the minimum, the conservative
        // "worst vertex" view.
        self.bytes_resident += other.bytes_resident;
        self.slab_bytes += other.slab_bytes;
        self.slot_occupancy = self.slot_occupancy.min(other.slot_occupancy);
        self.arena_bytes += other.arena_bytes;
        self.arena_waste += other.arena_waste;
        self.key_bytes += other.key_bytes;
    }

    /// An identity element for [`StoreFootprint::add`].
    pub fn zero() -> StoreFootprint {
        StoreFootprint {
            slot_occupancy: 1.0,
            ..StoreFootprint::default()
        }
    }
}

/// Heap bytes of one interned `Arc<KeywordSet>`, charged identically
/// to both backends (they share the interned `Arc`s): the `Arc` block
/// — two reference counts and the set's buffer handle — plus the
/// packed buffer itself.
fn key_heap_bytes(set: &KeywordSet) -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<KeywordSet>() + set.heap_bytes()
}

/// Table-backend estimation constants (measured structures are
/// pointer graphs; see `DESIGN.md` §17).
///
/// Amortized bytes one `BTreeMap` entry costs: key `Arc` (8) + value
/// `Postings` (32) + B-tree node share at ~2/3 fill (~32).
const TABLE_MAP_ENTRY_BYTES: usize = 72;
/// Amortized bytes one `BTreeSet<ObjectId>` element costs: the 8-byte
/// id at ~2/3 node fill plus node headers.
const TABLE_SET_OBJECT_BYTES: usize = 24;

/// One vertex's posting store, dispatching between the two backends.
///
/// The API mirrors [`IndexTable`] exactly; iterator-returning methods
/// yield the same items in the same order on either backend.
#[derive(Debug, Clone)]
pub enum PostingStore {
    /// The `BTreeMap`-backed reference layout.
    Table(IndexTable),
    /// The struct-of-arrays slab layout.
    Slab(SlabStore),
}

impl PostingStore {
    /// An empty store on the given backend.
    pub fn new(backend: StoreBackend) -> Self {
        match backend {
            StoreBackend::Table => PostingStore::Table(IndexTable::new()),
            StoreBackend::Slab => PostingStore::Slab(SlabStore::new()),
        }
    }

    /// The backend this store runs on.
    pub fn backend(&self) -> StoreBackend {
        match self {
            PostingStore::Table(_) => StoreBackend::Table,
            PostingStore::Slab(_) => StoreBackend::Slab,
        }
    }

    /// Adds the entry `⟨keywords, object⟩`. Returns `false` if it was
    /// already present.
    pub fn insert(&mut self, keywords: KeywordSet, object: ObjectId) -> bool {
        match self {
            PostingStore::Table(t) => t.insert(keywords, object),
            PostingStore::Slab(s) => s.insert(keywords, object),
        }
    }

    /// [`PostingStore::insert`] for an already-interned keyword set.
    pub fn insert_arc(&mut self, keywords: Arc<KeywordSet>, object: ObjectId) -> bool {
        match self {
            PostingStore::Table(t) => t.insert_arc(keywords, object),
            PostingStore::Slab(s) => s.insert_arc(keywords, object),
        }
    }

    /// Removes the entry `⟨keywords, object⟩`. Returns `false` if it
    /// was absent.
    pub fn remove(&mut self, keywords: &KeywordSet, object: ObjectId) -> bool {
        match self {
            PostingStore::Table(t) => t.remove(keywords, object),
            PostingStore::Slab(s) => s.remove(keywords, object),
        }
    }

    /// The objects indexed under exactly `keywords` (pin-search
    /// source).
    pub fn objects_with<'a>(&'a self, keywords: &KeywordSet) -> ObjectsIter<'a> {
        match self {
            PostingStore::Table(t) => ObjectsIter::Table(t.objects_with(keywords)),
            PostingStore::Slab(s) => ObjectsIter::Slab(s.objects_with(keywords)),
        }
    }

    /// All entries `⟨K', O⟩` with `K' ⊇ query`, signature prefilter on.
    pub fn superset_entries<'a>(&'a self, query: &'a KeywordSet) -> EntriesIter<'a> {
        match self {
            PostingStore::Table(t) => EntriesIter::Table(t.superset_entries(query)),
            PostingStore::Slab(s) => EntriesIter::Slab(s.superset_entries(query)),
        }
    }

    /// [`PostingStore::superset_entries`] with the query signature
    /// precomputed (`qsig = 0` disables the prefilter).
    pub fn superset_entries_sig<'a>(&'a self, query: &'a KeywordSet, qsig: u64) -> EntriesIter<'a> {
        match self {
            PostingStore::Table(t) => EntriesIter::Table(t.superset_entries_sig(query, qsig)),
            PostingStore::Slab(s) => EntriesIter::Slab(s.superset_entries_sig(query, qsig)),
        }
    }

    /// OR of every entry's [`KeywordSet::signature`].
    pub fn union_signature(&self) -> u64 {
        match self {
            PostingStore::Table(t) => t.union_signature(),
            PostingStore::Slab(s) => s.union_signature(),
        }
    }

    /// Number of distinct keyword sets.
    pub fn keyword_set_count(&self) -> usize {
        match self {
            PostingStore::Table(t) => t.keyword_set_count(),
            PostingStore::Slab(s) => s.keyword_set_count(),
        }
    }

    /// Total number of indexed objects.
    pub fn object_count(&self) -> usize {
        match self {
            PostingStore::Table(t) => t.object_count(),
            PostingStore::Slab(s) => s.object_count(),
        }
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        match self {
            PostingStore::Table(t) => t.is_empty(),
            PostingStore::Slab(s) => s.is_empty(),
        }
    }

    /// Iterates over all `(keyword set, objects)` entries in sorted
    /// keyword-set order.
    pub fn iter(&self) -> EntriesIter<'_> {
        match self {
            PostingStore::Table(t) => EntriesIter::Table(t.iter()),
            PostingStore::Slab(s) => EntriesIter::Slab(s.iter()),
        }
    }

    /// Memory accounting. Slab numbers are measured capacities; the
    /// table's containers use the estimation model of `DESIGN.md` §17
    /// (both charge the shared interned keyword sets their measured
    /// bytes, so the comparison isolates the container layout).
    pub fn footprint(&self) -> StoreFootprint {
        match self {
            PostingStore::Table(t) => {
                let key_bytes: usize = t.iter().map(|(k, _)| key_heap_bytes(k)).sum();
                StoreFootprint {
                    bytes_resident: std::mem::size_of::<Self>()
                        + t.keyword_set_count() * TABLE_MAP_ENTRY_BYTES
                        + t.object_count() * TABLE_SET_OBJECT_BYTES
                        + key_bytes,
                    slab_bytes: 0,
                    slot_occupancy: 1.0,
                    arena_bytes: 0,
                    arena_waste: 0,
                    key_bytes,
                }
            }
            PostingStore::Slab(s) => s.footprint(),
        }
    }
}

/// Posting iterator of one entry, either backend. Yields `ObjectId`s
/// in ascending order.
#[derive(Debug, Clone)]
pub enum ObjectsIter<'a> {
    /// Copied out of a `BTreeSet`.
    Table(TableObjects<'a>),
    /// Decoded off the arena.
    Slab(DeltaIter<'a>),
}

impl Iterator for ObjectsIter<'_> {
    type Item = ObjectId;

    fn next(&mut self) -> Option<ObjectId> {
        match self {
            ObjectsIter::Table(it) => it.next(),
            ObjectsIter::Slab(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            ObjectsIter::Table(it) => it.size_hint(),
            ObjectsIter::Slab(it) => it.size_hint(),
        }
    }
}

/// Entry iterator over either backend, in sorted keyword-set order.
#[derive(Debug)]
pub enum EntriesIter<'a> {
    /// Walking the `BTreeMap`.
    Table(SupersetEntries<'a>),
    /// Walking sorted slab hits.
    Slab(SlabEntries<'a>),
}

impl<'a> Iterator for EntriesIter<'a> {
    type Item = (&'a Arc<KeywordSet>, ObjectsIter<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            EntriesIter::Table(it) => it.next().map(|(k, o)| (k, ObjectsIter::Table(o))),
            EntriesIter::Slab(it) => it.next().map(|(k, o)| (k, ObjectsIter::Slab(o))),
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
    fn backend_parses_and_prints() {
        assert_eq!(StoreBackend::parse("table"), Some(StoreBackend::Table));
        assert_eq!(StoreBackend::parse("slab"), Some(StoreBackend::Slab));
        assert_eq!(StoreBackend::parse("btree"), None);
        assert_eq!(StoreBackend::Slab.name(), "slab");
        assert_eq!(StoreBackend::default(), StoreBackend::Slab);
    }

    /// The two backends answer identically on a small fixed script —
    /// the cheap always-on cousin of the proptest oracle.
    #[test]
    fn backends_agree_on_a_fixed_script() {
        let mut table = PostingStore::new(StoreBackend::Table);
        let mut slab = PostingStore::new(StoreBackend::Slab);
        let script = [
            ("a b", 1u64),
            ("a b c", 2),
            ("a b", 7),
            ("x", 3),
            ("a b", 4),
            ("b c", 5),
        ];
        for (kw, id) in script {
            assert_eq!(
                table.insert(set(kw), oid(id)),
                slab.insert(set(kw), oid(id))
            );
        }
        assert_eq!(
            table.remove(&set("a b"), oid(7)),
            slab.remove(&set("a b"), oid(7))
        );
        for q in ["a b", "a", "x", "absent", ""] {
            let query = if q.is_empty() {
                KeywordSet::new()
            } else {
                set(q)
            };
            let t: Vec<(Arc<KeywordSet>, Vec<ObjectId>)> = table
                .superset_entries(&query)
                .map(|(k, o)| (Arc::clone(k), o.collect()))
                .collect();
            let s: Vec<(Arc<KeywordSet>, Vec<ObjectId>)> = slab
                .superset_entries(&query)
                .map(|(k, o)| (Arc::clone(k), o.collect()))
                .collect();
            assert_eq!(t, s, "superset divergence on {q:?}");
            let tp: Vec<ObjectId> = table.objects_with(&query).collect();
            let sp: Vec<ObjectId> = slab.objects_with(&query).collect();
            assert_eq!(tp, sp, "pin divergence on {q:?}");
        }
        assert_eq!(table.union_signature(), slab.union_signature());
        assert_eq!(table.object_count(), slab.object_count());
        assert_eq!(table.keyword_set_count(), slab.keyword_set_count());
    }

    #[test]
    fn slab_resident_bytes_undercut_the_table_estimate() {
        let mut table = PostingStore::new(StoreBackend::Table);
        let mut slab = PostingStore::new(StoreBackend::Slab);
        for i in 0..500u64 {
            let kw = set(&format!("kw{} shared", i % 50));
            table.insert(kw.clone(), oid(i));
            slab.insert(kw, oid(i));
        }
        let t = table.footprint();
        let s = slab.footprint();
        assert!(
            s.bytes_resident < t.bytes_resident,
            "slab {} >= table {}",
            s.bytes_resident,
            t.bytes_resident
        );
        // The keyword sets are measured, not modelled, and both
        // backends hold the same ones: 50 distinct sets, each its
        // packed buffer plus a 32-byte `Arc` block.
        let measured: usize = table.iter().map(|(k, _)| 32 + k.as_packed().len()).sum();
        assert_eq!(t.key_bytes, measured);
        assert_eq!(s.key_bytes, measured);
    }

    #[test]
    fn footprint_aggregation_sums() {
        let mut a = StoreFootprint::zero();
        let mut st = PostingStore::new(StoreBackend::Slab);
        st.insert(set("a"), oid(1));
        let fp = st.footprint();
        a.add(&fp);
        a.add(&fp);
        assert_eq!(a.bytes_resident, 2 * fp.bytes_resident);
        assert_eq!(a.arena_bytes, 2 * fp.arena_bytes);
    }
}

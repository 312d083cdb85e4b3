//! Per-vertex posting storage: the `hyperdex-store` subsystem.
//!
//! Every executor (direct engine, simulator, threaded runtime, TCP
//! servers) keeps one [`PostingStore`] per hypercube vertex: the
//! struct-of-arrays slab of [`slab`] — signatures in one contiguous
//! array scanned batch-wise, posting lists varint-delta-encoded in a
//! byte arena ([`codec`]).
//!
//! There is no second backend. `tests/store_parity.rs` drives the slab
//! and a private model — §3.3's table as a `BTreeMap` of `BTreeSet`s —
//! through random interleavings and demands **byte-identical** answers:
//! same entries, same order, same truncation.

pub mod codec;
pub mod slab;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::keyword::KeywordSet;

pub use codec::DeltaIter;
pub use slab::{PostingStore, SlabEntries};

/// The posting-storage layout: the slab, the only one. Zero-sized and
/// selecting nothing — it exists because `benchmark/` spells
/// `StoreBackend::Slab` at the `with_store`/`store` positions.
/// Remove with those positions in the next `benchmark` PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreBackend {
    /// Struct-of-arrays slab with delta-encoded postings
    /// ([`PostingStore`]).
    Slab,
}

/// A map keyed by vertex (or prefix-region) number: what the direct
/// engine and a runtime worker keep their stores in, and what the
/// occupancy summary keys its regions by.
pub type ByVertex<V> = HashMap<u64, V, BuildHasherDefault<VertexHasher>>;

/// Hashes the one `u64` a [`ByVertex`] key is: a multiply and a fold.
/// The keys are vertex and region numbers — already outputs of the
/// seeded keyword hash — and every insert, pin and pruning test probes
/// with one, so SipHash was half the cost of a write.
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexHasher(u64);

impl Hasher for VertexHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("vertex keys are u64");
    }

    fn write_u64(&mut self, key: u64) {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The table takes its bucket from the low bits and its tag from
        // the high ones; the product is strong only at the top.
        self.0 = mixed ^ (mixed >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Memory accounting for one store: measured buffer capacities plus
/// the measured bytes of the keyword sets it holds (`DESIGN.md` §17).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFootprint {
    /// Total resident bytes attributed to the store.
    pub bytes_resident: usize,
    /// Bytes of the contiguous signature slab.
    pub slab_bytes: usize,
    /// Posting-arena capacity in bytes.
    pub arena_bytes: usize,
    /// Arena bytes retired by re-encodes and removals, not yet
    /// compacted away.
    pub arena_waste: usize,
    /// Heap bytes of the keyword sets the store holds: each set's
    /// shared block — two reference counts and the packed buffer. A
    /// buffer the store shares with a caller (or with another store)
    /// is reported whole by every store that holds it, so the figure
    /// is the same whether or not the inserting caller kept its set.
    pub key_bytes: usize,
}

impl StoreFootprint {
    /// Component-wise sum — per-vertex footprints roll up to one
    /// per-executor row (from `StoreFootprint::default()`, all zero).
    pub fn add(&mut self, other: &StoreFootprint) {
        self.bytes_resident += other.bytes_resident;
        self.slab_bytes += other.slab_bytes;
        self.arena_bytes += other.arena_bytes;
        self.arena_waste += other.arena_waste;
        self.key_bytes += other.key_bytes;
    }
}

/// Heap bytes of one stored keyword set: its shared block's header —
/// the strong and weak reference counts — plus the packed buffer.
fn key_heap_bytes(set: &KeywordSet) -> usize {
    2 * std::mem::size_of::<usize>() + set.heap_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdex_dht::ObjectId;

    fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    #[test]
    fn key_bytes_are_measured_not_modelled() {
        let mut store = PostingStore::default();
        for i in 0..500u64 {
            store.insert(set(&format!("kw{} shared", i % 50)), oid(i));
        }
        // 50 distinct sets, each its packed buffer behind a 16-byte
        // header of two reference counts.
        let measured: usize = store.iter().map(|(k, _)| 16 + k.as_packed().len()).sum();
        assert_eq!(store.footprint().key_bytes, measured);
    }

    #[test]
    fn footprint_aggregation_sums() {
        let mut a = StoreFootprint::default();
        let mut st = PostingStore::default();
        st.insert(set("a"), oid(1));
        let fp = st.footprint();
        a.add(&fp);
        a.add(&fp);
        assert_eq!(a.bytes_resident, 2 * fp.bytes_resident);
        assert_eq!(a.arena_bytes, 2 * fp.arena_bytes);
    }
}

//! Property-based parity oracle for the posting store.
//!
//! [`PostingStore`] (struct-of-arrays slab, delta-encoded postings,
//! signature prefilter) must answer every read *byte-identically* to
//! [`Oracle`], §3.3's table written as plainly as it reads — the slab
//! is only allowed to change layout, never results. These properties
//! drive both through random interleavings of inserts,
//! removes, and churn-style handoffs (drain one store, rebuild
//! another), comparing entry order, object order and counts after
//! every batch.

use std::collections::{btree_set, BTreeMap, BTreeSet};

use hyperdex_core::{KeywordSet, ObjectId, PostingStore};
use proptest::prelude::*;

/// A node's table as §3.3 defines it: entries `⟨K, {σ₁…σₙ}⟩`, a
/// `BTreeMap` of `BTreeSet`s. Every read is a plain filter: no
/// signature, no prefilter, no digest, so it shares no mechanism with
/// the slab it checks.
#[derive(Debug, Default)]
struct Oracle(BTreeMap<KeywordSet, BTreeSet<ObjectId>>);

/// One entry's objects, in id order.
type Objects<'a> = std::iter::Copied<btree_set::Iter<'a, ObjectId>>;

impl Oracle {
    fn insert(&mut self, keywords: KeywordSet, object: ObjectId) -> bool {
        self.0.entry(keywords).or_default().insert(object)
    }

    fn remove(&mut self, keywords: &KeywordSet, object: ObjectId) -> bool {
        let Some(objects) = self.0.get_mut(keywords) else {
            return false;
        };
        let removed = objects.remove(&object);
        if objects.is_empty() {
            self.0.remove(keywords);
        }
        removed
    }

    fn objects_with(&self, keywords: &KeywordSet) -> Objects<'_> {
        self.0
            .get(keywords)
            .map_or_else(Default::default, |o| o.iter())
            .copied()
    }

    fn superset_entries<'a>(
        &'a self,
        query: &'a KeywordSet,
    ) -> impl Iterator<Item = (&'a KeywordSet, Objects<'a>)> {
        self.iter().filter(move |(k, _)| k.is_superset(query))
    }

    fn iter(&self) -> impl Iterator<Item = (&KeywordSet, Objects<'_>)> {
        self.0.iter().map(|(k, o)| (k, o.iter().copied()))
    }

    fn keyword_set_count(&self) -> usize {
        self.0.len()
    }

    fn object_count(&self) -> usize {
        self.0.values().map(BTreeSet::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A small closed keyword universe so random sets collide often —
/// shared posting lists and signature collisions are the interesting
/// cases.
fn keyword_set() -> impl Strategy<Value = KeywordSet> {
    prop::collection::vec(0u8..12, 1..=4).prop_map(|words| {
        KeywordSet::from_strs(words.iter().map(|w| format!("w{w}"))).expect("non-empty words")
    })
}

/// One random mutation against both stores.
#[derive(Debug, Clone)]
enum Op {
    Insert(KeywordSet, u64),
    Remove(KeywordSet, u64),
}

fn op() -> impl Strategy<Value = Op> {
    // 3:1 insert:remove mix (the vendored proptest stub has no
    // `prop_oneof!`, so the weight rides along as a plain draw).
    (keyword_set(), 0u64..64, 0u8..4).prop_map(|(k, o, tag)| {
        if tag == 0 {
            Op::Remove(k, o)
        } else {
            Op::Insert(k, o)
        }
    })
}

fn apply(table: &mut Oracle, slab: &mut PostingStore, op: &Op) {
    match op {
        Op::Insert(k, o) => {
            let a = table.insert(k.clone(), ObjectId::from_raw(*o));
            let b = slab.insert(k.clone(), ObjectId::from_raw(*o));
            assert_eq!(a, b, "insert fresh/duplicate disagreement");
        }
        Op::Remove(k, o) => {
            let a = table.remove(k, ObjectId::from_raw(*o));
            let b = slab.remove(k, ObjectId::from_raw(*o));
            assert_eq!(a, b, "remove hit/miss disagreement");
        }
    }
}

/// Full-state comparison: identical entry sequence (keyword-set order)
/// with identical object sequences, plus matching counts. (The slab's
/// digest is held to its live slots by its own unit test.)
fn assert_parity(table: &Oracle, slab: &PostingStore, queries: &[KeywordSet]) {
    assert_eq!(table.keyword_set_count(), slab.keyword_set_count());
    assert_eq!(table.object_count(), slab.object_count());
    assert_eq!(table.is_empty(), slab.is_empty());

    let t: Vec<(&KeywordSet, Vec<ObjectId>)> =
        table.iter().map(|(k, o)| (k, o.collect())).collect();
    let s: Vec<(&KeywordSet, Vec<ObjectId>)> = slab.iter().map(|(k, o)| (k, o.collect())).collect();
    assert_eq!(t, s, "full iteration diverged");

    for q in queries {
        let t_objs: Vec<ObjectId> = table.objects_with(q).collect();
        let s_objs: Vec<ObjectId> = slab.objects_with(q).collect();
        assert_eq!(t_objs, s_objs, "objects_with({q:?}) diverged");

        let t_sup: Vec<(&KeywordSet, Vec<ObjectId>)> = table
            .superset_entries(q)
            .map(|(k, o)| (k, o.collect()))
            .collect();
        let s_sup: Vec<(&KeywordSet, Vec<ObjectId>)> = slab
            .superset_entries(q)
            .map(|(k, o)| (k, o.collect()))
            .collect();
        assert_eq!(t_sup, s_sup, "superset_entries({q:?}) diverged");
    }
}

/// A small fixed script — the cheap always-the-same cousin of the
/// properties below, covering the empty and the absent query.
#[test]
fn slab_matches_table_on_a_fixed_script() {
    let set = |s: &str| KeywordSet::parse(s).expect("non-empty words");
    let mut table = Oracle::default();
    let mut slab = PostingStore::default();
    let script = [
        ("a b", 1u64),
        ("a b c", 2),
        ("a b", 7),
        ("x", 3),
        ("a b", 4),
        ("b c", 5),
    ];
    for (kw, id) in script {
        apply(&mut table, &mut slab, &Op::Insert(set(kw), id));
    }
    apply(&mut table, &mut slab, &Op::Remove(set("a b"), 7));
    let queries = [
        set("a b"),
        set("a"),
        set("x"),
        set("absent"),
        KeywordSet::new(),
    ];
    assert_parity(&table, &slab, &queries);
}

/// A vertex that sees 100 insert/remove pairs of sets it never held
/// before keeps one slot per live set: a removed set's slot leaves the
/// slab, so the slab never outgrows what its live sets needed.
#[test]
fn remove_heavy_script_keeps_one_slot_per_live_set() {
    const LIVE: u64 = 8;
    let set = |i: u64| {
        KeywordSet::from_strs([format!("w{}", i % 12), format!("n{i}")]).expect("non-empty words")
    };
    let mut table = Oracle::default();
    let mut slab = PostingStore::default();
    for i in 0..LIVE {
        apply(&mut table, &mut slab, &Op::Insert(set(i), i));
    }
    let mut slab_bytes = None;
    for i in LIVE..LIVE + 100 {
        apply(&mut table, &mut slab, &Op::Insert(set(i), i));
        apply(&mut table, &mut slab, &Op::Remove(set(i - LIVE), i - LIVE));
        assert_eq!(slab.keyword_set_count(), LIVE as usize);
        // The first pair grows the slab for one extra set; no later
        // pair grows it again.
        let bytes = slab.footprint().slab_bytes;
        assert_eq!(*slab_bytes.get_or_insert(bytes), bytes, "pair {i}");
        assert_parity(&table, &slab, &[set(i), set(i - LIVE), KeywordSet::new()]);
    }
}

proptest! {
    /// Random insert/remove interleavings leave the slab and the
    /// oracle byte-identical under every read the protocol performs.
    #[test]
    fn slab_matches_table_under_mutation(
        ops in prop::collection::vec(op(), 1..80),
        queries in prop::collection::vec(keyword_set(), 1..6),
    ) {
        let mut table = Oracle::default();
        let mut slab = PostingStore::default();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut table, &mut slab, op);
            // Checking at every step keeps shrunk counterexamples
            // small; modulo keeps the quadratic cost in check.
            if i % 7 == 0 {
                assert_parity(&table, &slab, &queries);
            }
        }
        assert_parity(&table, &slab, &queries);
    }

    /// A churn-style handoff — drain every entry out of one store,
    /// stream it into a fresh one in batches — lands byte-identically
    /// on slab and oracle, including when source and destination are
    /// of *different* kinds.
    #[test]
    fn handoff_preserves_parity_across_backends(
        ops in prop::collection::vec(op(), 1..60),
        batch in 1usize..8,
        queries in prop::collection::vec(keyword_set(), 1..4),
    ) {
        let mut table = Oracle::default();
        let mut slab = PostingStore::default();
        for op in &ops {
            apply(&mut table, &mut slab, op);
        }
        // Serialize the slab the way churn serializes a table for
        // handoff: (keyword set, objects) entries in iteration order.
        let entries: Vec<(KeywordSet, Vec<ObjectId>)> = slab
            .iter()
            .map(|(k, o)| (k.clone(), o.collect()))
            .collect();
        let mut rebuilt_table = Oracle::default();
        let mut rebuilt_slab = PostingStore::default();
        for chunk in entries.chunks(batch) {
            for (k, objs) in chunk {
                for &o in objs {
                    rebuilt_table.insert(k.clone(), o);
                    rebuilt_slab.insert(k.clone(), o);
                }
            }
        }
        // The rebuilt stores match each other *and* the originals.
        assert_parity(&rebuilt_table, &rebuilt_slab, &queries);
        assert_parity(&table, &rebuilt_slab, &queries);
        assert_parity(&rebuilt_table, &slab, &queries);
    }

    /// Three keyword sets, four ids, as many removes as inserts: each
    /// list keeps crossing between one id (held in its slot) and two or
    /// three (in the arena), and every crossing answers like the oracle.
    #[test]
    fn one_and_two_id_lists_cross_over_like_the_oracle(
        ops in prop::collection::vec((0u8..3, 0u64..4, any::<bool>()), 1..80),
    ) {
        let sets: Vec<KeywordSet> = ["a", "a b", "c"]
            .iter()
            .map(|s| KeywordSet::parse(s).expect("non-empty words"))
            .collect();
        let mut table = Oracle::default();
        let mut slab = PostingStore::default();
        for (set, id, insert) in ops {
            let k = sets[usize::from(set)].clone();
            let op = if insert { Op::Insert(k, id) } else { Op::Remove(k, id) };
            apply(&mut table, &mut slab, &op);
            assert_parity(&table, &slab, &sets);
        }
        slab.compact();
        assert_parity(&table, &slab, &sets);
    }

    /// Compaction (the arena rewrite) is observationally invisible.
    #[test]
    fn compaction_is_invisible(
        ops in prop::collection::vec(op(), 1..80),
        queries in prop::collection::vec(keyword_set(), 1..4),
    ) {
        let mut table = Oracle::default();
        let mut slab = PostingStore::default();
        for op in &ops {
            apply(&mut table, &mut slab, op);
        }
        slab.compact();
        assert_parity(&table, &slab, &queries);
    }
}

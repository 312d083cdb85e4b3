//! `IndexTable`, the per-node index table as a `BTreeMap`, is the
//! slab's test oracle and nothing else: every executor stores its
//! postings in [`crate::store::PostingStore`], and only the store's
//! parity tests and `tests/mask_parity.rs` build one of these.
//!
//! §3.3: each hypercube node `u` maintains a table of entries
//! `⟨keyword_set, object_id⟩`; entries with the same keyword set are
//! combined into `⟨K, {σ₁…σₙ}⟩`. A node may be responsible for several
//! distinct keyword sets (hash collisions in `F_h`), so the table is
//! keyed by the full keyword set, not the vertex.
//!
//! Every posting list carries its keyword set's 64-bit
//! [`KeywordSet::signature`], computed once when the set first enters
//! the table. Superset scans test `qsig & sig == qsig` (an O(1) word
//! op) before the `BTreeSet` string comparison, and the table-wide OR
//! of all signatures short-circuits pin lookups and whole-table scans
//! that cannot possibly match. Signatures over-match on bit
//! collisions, so a passing prefilter is always confirmed by
//! [`KeywordSet::is_superset`] — results are byte-identical to the
//! unfiltered scan.

use std::collections::{btree_map, btree_set, BTreeMap, BTreeSet};

use hyperdex_dht::ObjectId;

use crate::keyword::KeywordSet;

/// A posting list: the objects indexed under one keyword set, plus the
/// set's signature cached at insert time.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Postings {
    /// [`KeywordSet::signature`] of the key, computed once on entry.
    sig: u64,
    /// The objects carrying exactly this keyword set.
    objects: BTreeSet<ObjectId>,
}

/// The index table `Tbl_u` of one hypercube node.
///
/// # Example
///
/// ```
/// use hyperdex_core::{IndexTable, KeywordSet, ObjectId};
///
/// let mut tbl = IndexTable::new();
/// let k = KeywordSet::parse("tvbs, news")?;
/// tbl.insert(k.clone(), ObjectId::from_raw(1));
/// tbl.insert(k.clone(), ObjectId::from_raw(2));
/// assert_eq!(tbl.objects_with(&k).count(), 2);
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexTable {
    entries: BTreeMap<KeywordSet, Postings>,
    // OR of every entry's signature; kept exact (recomputed when a set
    // leaves the table) so the derived `PartialEq` stays structural.
    union_sig: u64,
}

impl IndexTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the entry `⟨keywords, object⟩`. Returns `false` if it was
    /// already present. A set already in the table keeps its buffer.
    pub fn insert(&mut self, keywords: KeywordSet, object: ObjectId) -> bool {
        match self.entries.entry(keywords) {
            btree_map::Entry::Occupied(e) => e.into_mut().objects.insert(object),
            btree_map::Entry::Vacant(e) => {
                let sig = e.key().signature();
                self.union_sig |= sig;
                e.insert(Postings {
                    sig,
                    objects: BTreeSet::from([object]),
                });
                true
            }
        }
    }

    /// Removes the entry `⟨keywords, object⟩`. Returns `false` if it was
    /// absent.
    pub fn remove(&mut self, keywords: &KeywordSet, object: ObjectId) -> bool {
        match self.entries.get_mut(keywords) {
            None => false,
            Some(postings) => {
                let removed = postings.objects.remove(&object);
                if postings.objects.is_empty() {
                    self.entries.remove(keywords);
                    // Other entries may still cover the departed bits.
                    self.union_sig = self.entries.values().fold(0, |m, p| m | p.sig);
                }
                removed
            }
        }
    }

    /// The objects indexed under exactly `keywords` (pin-search source).
    ///
    /// Short-circuits on the table-wide signature: if the union of all
    /// entry signatures cannot cover the query's, no entry can equal
    /// it and the `BTreeMap` lookup is skipped entirely.
    pub fn objects_with<'a>(&'a self, keywords: &KeywordSet) -> TableObjects<'a> {
        let qsig = keywords.signature();
        let hit = if qsig & self.union_sig == qsig {
            self.entries.get(keywords)
        } else {
            None
        };
        objects_iter(hit)
    }

    /// All entries `⟨K', O⟩` with `K' ⊇ query` — the per-node scan of
    /// the superset-search protocol (§3.3, step 2), with the signature
    /// prefilter on.
    ///
    /// Keyword sets come back by reference; a caller building a result
    /// list clones one at the cost of a reference-count increment.
    pub fn superset_entries<'a>(&'a self, query: &'a KeywordSet) -> SupersetEntries<'a> {
        self.superset_entries_sig(query, query.signature())
    }

    /// [`IndexTable::superset_entries`] with the query signature
    /// precomputed by the caller (traversals compute it once per query,
    /// not once per node).
    ///
    /// Passing `qsig = 0` disables the prefilter — `0 & sig == 0` for
    /// every entry — yielding exactly the pre-optimization unfiltered
    /// `is_superset` scan, the parity reference for the prefilter.
    pub fn superset_entries_sig<'a>(
        &'a self,
        query: &'a KeywordSet,
        qsig: u64,
    ) -> SupersetEntries<'a> {
        // Whole-table short-circuit: if even the union of all entry
        // signatures misses a query bit, nothing inside can match.
        SupersetEntries {
            inner: self.entries.iter(),
            query: Some(query),
            qsig,
            live: qsig & self.union_sig == qsig,
        }
    }

    /// Number of distinct keyword sets in the table.
    pub fn keyword_set_count(&self) -> usize {
        self.entries.len()
    }

    /// Total number of indexed objects (the node's storage load — what
    /// Figure 6 ranks).
    pub fn object_count(&self) -> usize {
        self.entries.values().map(|p| p.objects.len()).sum()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all `(keyword set, objects)` entries in sorted
    /// keyword-set order.
    pub fn iter(&self) -> SupersetEntries<'_> {
        SupersetEntries {
            inner: self.entries.iter(),
            query: None,
            qsig: 0,
            live: true,
        }
    }
}

/// Posting iterator of one table entry: the `BTreeSet` walk, plus an
/// `Option` layer so a missed lookup yields an empty iterator of the
/// same type.
pub type TableObjects<'a> =
    std::iter::Flatten<std::option::IntoIter<std::iter::Copied<btree_set::Iter<'a, ObjectId>>>>;

/// The posting iterator of an optional entry (empty when `None`).
fn objects_iter(postings: Option<&Postings>) -> TableObjects<'_> {
    postings
        .map(|p| p.objects.iter().copied())
        .into_iter()
        .flatten()
}

/// Iterator over table entries in sorted keyword-set order, optionally
/// restricted to supersets of a query (signature prefilter first,
/// string comparison second) — the named iterator type behind
/// [`IndexTable::superset_entries`] and [`IndexTable::iter`].
#[derive(Debug, Clone)]
pub struct SupersetEntries<'a> {
    inner: btree_map::Iter<'a, KeywordSet, Postings>,
    /// `Some` = yield only entries whose set ⊇ query.
    query: Option<&'a KeywordSet>,
    /// Query signature; 0 passes every entry through the prefilter.
    qsig: u64,
    /// Whole-table short-circuit verdict, decided at construction.
    live: bool,
}

impl<'a> Iterator for SupersetEntries<'a> {
    type Item = (&'a KeywordSet, TableObjects<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if !self.live {
            return None;
        }
        loop {
            let (k, p) = self.inner.next()?;
            if p.sig & self.qsig != self.qsig {
                continue;
            }
            if let Some(query) = self.query {
                if !k.is_superset(query) {
                    continue;
                }
            }
            return Some((k, objects_iter(Some(p))));
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
        let mut tbl = IndexTable::new();
        assert!(tbl.insert(set("a b"), oid(1)));
        assert!(tbl.insert(set("a b"), oid(2)));
        assert!(!tbl.insert(set("a b"), oid(1)), "duplicate entry");
        assert_eq!(tbl.keyword_set_count(), 1);
        assert_eq!(tbl.object_count(), 2);
    }

    #[test]
    fn remove_cleans_empty_sets() {
        let mut tbl = IndexTable::new();
        tbl.insert(set("a"), oid(1));
        assert!(tbl.remove(&set("a"), oid(1)));
        assert!(!tbl.remove(&set("a"), oid(1)));
        assert!(tbl.is_empty());
        assert_eq!(tbl.keyword_set_count(), 0);
        assert_eq!(tbl.union_sig, 0, "digest follows removals");
    }

    #[test]
    fn remove_missing_set_is_false() {
        let mut tbl = IndexTable::new();
        assert!(!tbl.remove(&set("nope"), oid(1)));
    }

    #[test]
    fn pin_lookup_is_exact() {
        let mut tbl = IndexTable::new();
        tbl.insert(set("a b"), oid(1));
        tbl.insert(set("a b c"), oid(2));
        let hits: Vec<ObjectId> = tbl.objects_with(&set("a b")).collect();
        assert_eq!(hits, vec![oid(1)], "no superset leakage in pin search");
        assert_eq!(tbl.objects_with(&set("a")).count(), 0);
    }

    #[test]
    fn superset_entries_filter() {
        let mut tbl = IndexTable::new();
        tbl.insert(set("a b"), oid(1));
        tbl.insert(set("a b c"), oid(2));
        tbl.insert(set("x y"), oid(3));
        let query = set("a b");
        let matched: Vec<(&KeywordSet, Vec<ObjectId>)> = tbl
            .superset_entries(&query)
            .map(|(k, objs)| (k, objs.collect()))
            .collect();
        assert_eq!(matched.len(), 2);
        assert!(matched.iter().all(|(k, _)| k.is_superset(&set("a b"))));
        let empty_query = KeywordSet::new();
        assert_eq!(
            tbl.superset_entries(&empty_query).count(),
            3,
            "empty query matches everything"
        );
    }

    #[test]
    fn masked_scan_matches_unfiltered_scan() {
        let mut tbl = IndexTable::new();
        for i in 0..50 {
            tbl.insert(set(&format!("kw{i} kw{}", i + 1)), oid(i));
        }
        for q in ["kw3", "kw10 kw11", "kw49 kw50", "absent"] {
            let query = set(q);
            let masked: Vec<_> = tbl
                .superset_entries(&query)
                .map(|(k, o)| (k.clone(), o.collect::<Vec<_>>()))
                .collect();
            let plain: Vec<_> = tbl
                .superset_entries_sig(&query, 0)
                .map(|(k, o)| (k.clone(), o.collect::<Vec<_>>()))
                .collect();
            assert_eq!(masked, plain, "prefilter changed results for {q}");
        }
    }

    #[test]
    fn union_signature_short_circuits_but_never_lies() {
        let mut tbl = IndexTable::new();
        tbl.insert(set("jazz piano"), oid(1));
        assert_eq!(
            tbl.union_sig,
            set("jazz piano").signature(),
            "digest is the OR of entry signatures"
        );
        // A lookup for a set the digest cannot cover returns nothing
        // (and skips the tree walk — observable only as correctness).
        assert_eq!(tbl.objects_with(&set("jazz piano absent")).count(), 0);
        assert_eq!(tbl.objects_with(&set("jazz piano")).count(), 1);
    }

    #[test]
    fn insert_keeps_the_stored_buffer() {
        let mut tbl = IndexTable::new();
        tbl.insert(set("a b"), oid(1));
        let first = |tbl: &IndexTable| tbl.iter().next().unwrap().0.as_packed().as_ptr();
        let before = first(&tbl);
        tbl.insert(set("a b"), oid(2));
        assert_eq!(first(&tbl), before, "second insert replaced the key");
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut tbl = IndexTable::new();
        tbl.insert(set("m"), oid(1));
        tbl.insert(set("n"), oid(2));
        tbl.insert(set("n"), oid(3));
        let total: usize = tbl.iter().map(|(_, objs)| objs.count()).sum();
        assert_eq!(total, 3);
    }
}

//! Decomposed hypercube indexes (§3.4, last remark).
//!
//! "Instead of using a single large hypercube to index objects, we can
//! divide the entire keyword set into smaller, disjoint subsets, and
//! then use a hypercube for each subset … A large index vector results
//! in a large dimension of indexing hypercube, which in turn increases
//! search complexity. Decomposing keyword sets therefore increases
//! search performance."
//!
//! [`DecomposedIndex`] keys each sub-hypercube by a *field* name (e.g.
//! `"os"`, `"cpu"`, `"service"`), which is the natural decomposition for
//! attribute-style metadata: searches name a field, so they run in that
//! field's (small) hypercube instead of one large one.

use std::collections::BTreeMap;

use hyperdex_dht::ObjectId;

use crate::cluster::HypercubeIndex;
use crate::error::Error;
use crate::keyword::KeywordSet;
use crate::search::{PinOutcome, SupersetOutcome, SupersetQuery};

/// A family of per-field hypercube indexes sharing one object space.
///
/// # Example
///
/// ```
/// use hyperdex_core::decompose::DecomposedIndex;
/// use hyperdex_core::{KeywordSet, ObjectId, SupersetQuery};
///
/// let mut idx = DecomposedIndex::new(0);
/// idx.add_field("os", 6)?;
/// idx.add_field("service", 8)?;
/// let host = ObjectId::from_raw(1);
/// idx.insert("os", host, KeywordSet::parse("linux x86-64")?)?;
/// idx.insert("service", host, KeywordSet::parse("http tls")?)?;
///
/// let out = idx.superset_search(
///     "os",
///     &SupersetQuery::new(KeywordSet::parse("linux")?).threshold(5),
/// )?;
/// assert_eq!(out.results[0].object, host);
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecomposedIndex {
    seed: u64,
    fields: BTreeMap<String, HypercubeIndex>,
}

impl DecomposedIndex {
    /// Creates an empty decomposed index with a base hash seed.
    pub fn new(seed: u64) -> Self {
        DecomposedIndex {
            seed,
            fields: BTreeMap::new(),
        }
    }

    /// Registers a field with its own `r`-dimensional hypercube.
    /// Re-registering an existing field replaces its (empty or not)
    /// hypercube.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] for an invalid `r`.
    pub fn add_field(&mut self, field: &str, r: u8) -> Result<(), Error> {
        // Derive a per-field seed so equal keywords in different fields
        // hash independently.
        let field_seed =
            self.seed ^ hyperdex_dht::keyhash::stable_hash64_seeded(field.as_bytes(), 0x4649_454C);
        self.fields
            .insert(field.to_owned(), HypercubeIndex::new(r, field_seed)?);
        Ok(())
    }

    /// The registered field names, sorted.
    pub fn fields(&self) -> impl Iterator<Item = &str> {
        self.fields.keys().map(String::as_str)
    }

    /// The hypercube index of one field.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownField`] for an unregistered field.
    pub fn field(&self, field: &str) -> Result<&HypercubeIndex, Error> {
        self.fields.get(field).ok_or_else(|| Error::UnknownField {
            field: field.to_owned(),
        })
    }

    /// Indexes `object`'s keywords for one field.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownField`] or the field index's own errors.
    pub fn insert(
        &mut self,
        field: &str,
        object: ObjectId,
        keywords: KeywordSet,
    ) -> Result<(), Error> {
        self.field_mut(field)?.insert(object, keywords)?;
        Ok(())
    }

    /// Removes `object`'s entry for one field.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownField`] for an unregistered field.
    pub fn remove(
        &mut self,
        field: &str,
        object: ObjectId,
        keywords: &KeywordSet,
    ) -> Result<bool, Error> {
        Ok(self.field_mut(field)?.remove(object, keywords))
    }

    /// Pin search within one field's hypercube.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownField`] for an unregistered field.
    pub fn pin_search(&self, field: &str, keywords: &KeywordSet) -> Result<PinOutcome, Error> {
        Ok(self.field(field)?.pin_search(keywords))
    }

    /// Superset search within one field's hypercube.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownField`] or the search's own errors.
    pub fn superset_search(
        &mut self,
        field: &str,
        query: &SupersetQuery,
    ) -> Result<SupersetOutcome, Error> {
        self.field_mut(field)?.superset_search(query)
    }

    /// Conjunctive search across fields: objects matching *every*
    /// per-field query. Stats accumulate across the per-field searches.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownField`] or the searches' own errors.
    pub fn multi_field_search(
        &mut self,
        queries: &[(&str, SupersetQuery)],
    ) -> Result<(Vec<ObjectId>, crate::search::SearchStats), Error> {
        let mut intersection: Option<std::collections::BTreeSet<ObjectId>> = None;
        let mut stats = crate::search::SearchStats::default();
        for (field, query) in queries {
            let out = self.superset_search(field, query)?;
            stats.nodes_contacted += out.stats.nodes_contacted;
            stats.query_messages += out.stats.query_messages;
            stats.control_messages += out.stats.control_messages;
            stats.result_messages += out.stats.result_messages;
            stats.entries_scanned += out.stats.entries_scanned;
            let ids: std::collections::BTreeSet<ObjectId> =
                out.results.into_iter().map(|r| r.object).collect();
            intersection = Some(match intersection {
                None => ids,
                Some(acc) => acc.intersection(&ids).copied().collect(),
            });
            if intersection.as_ref().is_some_and(|s| s.is_empty()) {
                break;
            }
        }
        Ok((
            intersection.unwrap_or_default().into_iter().collect(),
            stats,
        ))
    }

    fn field_mut(&mut self, field: &str) -> Result<&mut HypercubeIndex, Error> {
        self.fields
            .get_mut(field)
            .ok_or_else(|| Error::UnknownField {
                field: field.to_owned(),
            })
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
    fn unknown_field_errors() {
        let mut idx = DecomposedIndex::new(0);
        assert!(matches!(
            idx.insert("nope", oid(1), set("a")),
            Err(Error::UnknownField { .. })
        ));
        assert!(idx.pin_search("nope", &set("a")).is_err());
    }

    #[test]
    fn fields_are_independent() {
        let mut idx = DecomposedIndex::new(0);
        idx.add_field("os", 6).unwrap();
        idx.add_field("cpu", 6).unwrap();
        idx.insert("os", oid(1), set("linux")).unwrap();
        idx.insert("cpu", oid(2), set("linux")).unwrap(); // same word, other field
        let out = idx.pin_search("os", &set("linux")).unwrap();
        assert_eq!(out.results, vec![oid(1)], "no cross-field leakage");
    }

    #[test]
    fn multi_field_intersection() {
        let mut idx = DecomposedIndex::new(0);
        idx.add_field("os", 6).unwrap();
        idx.add_field("service", 6).unwrap();
        idx.insert("os", oid(1), set("linux x86")).unwrap();
        idx.insert("service", oid(1), set("http")).unwrap();
        idx.insert("os", oid(2), set("linux arm")).unwrap();
        idx.insert("service", oid(2), set("ssh")).unwrap();
        let (hits, stats) = idx
            .multi_field_search(&[
                ("os", SupersetQuery::new(set("linux"))),
                ("service", SupersetQuery::new(set("http"))),
            ])
            .unwrap();
        assert_eq!(hits, vec![oid(1)]);
        assert!(stats.nodes_contacted > 0);
    }

    #[test]
    fn decomposition_shrinks_search_space() {
        // One 12-dim cube vs two 6-dim cubes: a single-field search in
        // the decomposed index contacts at most 2^6 nodes instead of up
        // to 2^12·2^-1.
        let mut mono = HypercubeIndex::new(12, 0).unwrap();
        let mut deco = DecomposedIndex::new(0);
        deco.add_field("a", 6).unwrap();
        for i in 0..200 {
            let k = set(&format!("common tag{i}"));
            mono.insert(oid(i), k.clone()).unwrap();
            deco.insert("a", oid(i), k).unwrap();
        }
        let q = SupersetQuery::new(set("common"));
        let mono_nodes = mono.superset_search(&q).unwrap().stats.nodes_contacted;
        let deco_nodes = deco.superset_search("a", &q).unwrap().stats.nodes_contacted;
        assert!(
            deco_nodes < mono_nodes,
            "decomposed {deco_nodes} vs monolithic {mono_nodes}"
        );
    }

    #[test]
    fn fields_listing_sorted() {
        let mut idx = DecomposedIndex::new(0);
        idx.add_field("zeta", 4).unwrap();
        idx.add_field("alpha", 4).unwrap();
        assert_eq!(idx.fields().collect::<Vec<_>>(), vec!["alpha", "zeta"]);
    }
}

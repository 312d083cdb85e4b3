//! Property: the 64-bit keyword-signature prefilter never changes what
//! a superset scan returns — only how much string comparison it costs.
//!
//! The keyword pool is deliberately larger (200 keywords) than the
//! signature width (64 bits), so by pigeonhole many distinct keywords
//! collide onto the same signature bit. Collisions make the prefilter
//! over-match — exactly the case where a buggy filter could diverge —
//! and the property requires byte-identical `(keyword_set, objects)`
//! lists anyway, because every prefilter pass is confirmed by
//! [`KeywordSet::is_superset`].

use hyperdex::core::{HypercubeIndex, IndexTable, KeywordSet, ObjectId, SupersetQuery};
use hyperdex::simnet::rng::SimRng;

/// 200 keywords over 64 signature bits: collisions guaranteed.
fn pool() -> Vec<String> {
    (0..200).map(|i| format!("kw{i}")).collect()
}

/// A random keyword set of `len` draws (dedup may shrink it).
fn random_set(rng: &mut SimRng, pool: &[String], len: usize) -> KeywordSet {
    let words: Vec<&str> = (0..len)
        .map(|_| pool[rng.gen_index(pool.len())].as_str())
        .collect();
    KeywordSet::parse(&words.join(" ")).expect("pool words are valid")
}

/// Collects a scan into comparable `(set, objects)` pairs.
fn collect<'a>(
    it: impl Iterator<Item = (&'a KeywordSet, impl Iterator<Item = ObjectId> + 'a)>,
) -> Vec<(KeywordSet, Vec<ObjectId>)> {
    it.map(|(k, objs)| (k.clone(), objs.collect())).collect()
}

proptest::proptest! {
    /// Table-level parity: the prefiltered scan and the unfiltered
    /// baseline return byte-identical entry lists for random corpora,
    /// dimensions, and query sizes — hash collisions included.
    #[test]
    fn masked_scan_is_byte_identical_to_unfiltered(seed in 0u64..48) {
        let mut rng = SimRng::new(seed);
        let pool = pool();
        let r = 4 + (rng.gen_range(7) as u8); // 4..=10
        let n_objects = 150 + rng.gen_index(150);

        let mut table = IndexTable::new();
        let mut engine = HypercubeIndex::new(r, seed).expect("valid r");
        let mut corpus_sets = Vec::new();
        for id in 0..n_objects as u64 {
            let len = 1 + rng.gen_index(4);
            let k = random_set(&mut rng, &pool, len);
            table.insert(k.clone(), ObjectId::from_raw(id));
            engine.insert(ObjectId::from_raw(id), k.clone()).expect("non-empty");
            corpus_sets.push(k);
        }

        // Random queries (mostly misses on the full set, partial hits
        // on single keywords) plus queries drawn from actual corpus
        // sets (guaranteed hits, including exact matches).
        let mut queries: Vec<KeywordSet> = (0..6)
            .map(|_| {
                let len = 1 + rng.gen_index(3);
                random_set(&mut rng, &pool, len)
            })
            .collect();
        for _ in 0..4 {
            let donor = &corpus_sets[rng.gen_index(corpus_sets.len())];
            queries.push(donor.clone());
        }
        queries.push(KeywordSet::new()); // qsig = 0: filter must pass all

        for q in &queries {
            let masked = collect(table.superset_entries(q));
            let plain = collect(table.superset_entries_sig(q, 0));
            proptest::prop_assert_eq!(
                &masked, &plain,
                "seed {} r {} query {:?}: prefilter changed the scan", seed, r, q
            );

            // Engine-level parity: the prefilter has no off switch, so
            // the engine's unthresholded, uncached answer is held to
            // the whole-corpus unfiltered reference scan.
            if q.is_empty() {
                continue; // engine rejects empty queries by contract
            }
            let mut got: Vec<ObjectId> = engine
                .superset_search(&SupersetQuery::new(q.clone()))
                .expect("valid")
                .results
                .iter()
                .map(|hit| hit.object)
                .collect();
            got.sort_unstable();
            let mut want: Vec<ObjectId> =
                plain.iter().flat_map(|(_, objs)| objs.iter().copied()).collect();
            want.sort_unstable();
            proptest::prop_assert_eq!(
                &got, &want,
                "seed {} r {} query {:?}: engine diverged from the unfiltered scan", seed, r, q
            );
        }
    }
}

#[test]
fn collisions_actually_occur_in_the_pool() {
    // Meta-check: the property above only exercises the interesting
    // case if distinct keywords really share signature bits.
    let sigs: Vec<u64> = pool()
        .iter()
        .map(|w| KeywordSet::parse(w).unwrap().signature())
        .collect();
    let distinct: std::collections::HashSet<u64> = sigs.iter().copied().collect();
    assert!(
        distinct.len() < sigs.len(),
        "200 keywords over 64 bits must collide"
    );
}

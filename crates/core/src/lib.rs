//! # hyperdex-core
//!
//! The hypercube keyword index and search scheme of *Keyword Search in
//! DHT-based Peer-to-Peer Networks* (Joung, Fang & Yang, ICDCS 2005) —
//! the paper's primary contribution.
//!
//! ## The scheme in one paragraph
//!
//! Every keyword hashes to a bit position in `{0..r-1}`
//! ([`KeywordHasher`]); an object's keyword set therefore maps to the
//! hypercube vertex whose one-bits are the hashed positions of its
//! keywords (`F_h`, [`KeywordHasher::vertex_for`]). Each object is
//! indexed at exactly **one** vertex. Pin search (exact keyword set) is
//! a single lookup. Superset search explores the subhypercube induced by
//! the query vertex along its spanning binomial tree, returning objects
//! ordered by how many *extra* keywords they have — most-general-first
//! (top-down) or most-specific-first (bottom-up) — with early exit after
//! a threshold. Because popular keywords occur in many distinct keyword
//! sets, index load spreads across many vertices even under Zipf
//! popularity, unlike a distributed inverted index.
//!
//! ## Crate layout
//!
//! * [`keyword`] — [`Keyword`] and [`KeywordSet`] value types; a set
//!   is one shared packed buffer, so tables, cubes, replicas and result
//!   lists hold it by reference count.
//! * [`hashing`] — the keyword→bit hash `h` and set→vertex map `F_h`.
//! * [`cache`] — per-node FIFO result caches (§4, third experiment).
//! * [`cluster`] — [`HypercubeIndex`], the logical-hypercube index used
//!   by the paper's measurements (exact nodes-contacted accounting).
//! * [`search`] — pin search, the `T_QUERY` superset-search protocol
//!   (sequential top-down / bottom-up, level-parallel, cumulative).
//! * [`ranking`] — grouping and sampling of results by extra keywords.
//! * [`mapping`] — the vertex→DHT-node map `g`.
//! * [`service`] — [`KeywordSearchService`]: the full §3.3 system over a
//!   Chord-like DHT (publish/withdraw/pin/superset with hop accounting).
//! * [`sim_protocol`] — the message-level protocol over `hyperdex-simnet`
//!   (latency, faults, retries; exact coverage accounting).
//! * [`churn`] — live membership over the message-level protocol:
//!   join/leave/crash plans, key-range index handoff, anti-entropy
//!   replica repair.
//! * [`summary`] — occupancy, position masks and keyword signatures
//!   over prefix regions of the cube, letting the direct engine's
//!   sequential top-down walk prune provably match-free SBT subtrees
//!   while staying recall-safe (DESIGN.md §10).
//! * [`store`] — per-node tables of `⟨keyword set, object⟩`: the
//!   signature-prefiltered slab every executor runs, held by
//!   `tests/store_parity.rs` to a `BTreeMap` model (DESIGN.md §17).
//! * [`decompose`] — decomposed (multi-hypercube) indexes (§3.4).
//! * [`analysis`] — Equation (1) and dimensioning guidance.
//! * [`baseline`] — distributed inverted index and direct-DHT baselines
//!   (the `DII-r` and `DHT-r` curves of Figure 6).
//!
//! # Example
//!
//! ```
//! use hyperdex_core::{HypercubeIndex, KeywordSet, ObjectId};
//!
//! let mut index = HypercubeIndex::new(10, 0)?;
//! let song = ObjectId::from_name("song");
//! index.insert(song, KeywordSet::parse("jazz, piano, 1959")?);
//!
//! // Pin search: the exact keyword set.
//! let hit = index.pin_search(&KeywordSet::parse("jazz, piano, 1959")?);
//! assert_eq!(hit.results, vec![song]);
//!
//! // Superset search: any object described by {jazz}.
//! let out = index.superset_search(
//!     &hyperdex_core::SupersetQuery::new(KeywordSet::parse("jazz")?).threshold(10),
//! )?;
//! assert!(out.results.iter().any(|r| r.object == song));
//! # Ok::<(), hyperdex_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod cache;
pub mod churn;
pub mod cluster;
pub mod decompose;
pub mod error;
pub mod expansion;
pub mod hashing;
pub mod keyword;
pub mod mapping;
pub mod protocol;
pub mod ranking;
pub mod replication;
pub mod search;
pub mod service;
pub mod sim_protocol;
pub mod store;
pub mod summary;

pub use churn::{ChurnStats, StabilizationConfig};
pub use cluster::HypercubeIndex;
pub use error::Error;
pub use hashing::KeywordHasher;
pub use hyperdex_dht::ObjectId;
pub use keyword::{Keyword, KeywordRef, KeywordSet, PackedError};
pub use mapping::VertexMap;
pub use protocol::{
    FtCmd, FtCoordinator, FtCoverage, RecoveryStrategy, RetryBudget, SupersetCoordinator,
};
pub use search::{
    PinOutcome, RankedObject, SearchStats, SupersetOutcome, SupersetQuery, TraversalOrder,
};
pub use service::KeywordSearchService;
pub use sim_protocol::{CoverageReport, ProtocolSim};
pub use store::{PostingStore, StoreBackend, StoreFootprint};
pub use summary::OccupancySummary;

/// What the protocol, simulator and churn unit tests share.
#[cfg(test)]
pub(crate) mod fixtures {
    use crate::{KeywordSet, ObjectId};

    pub(crate) fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    pub(crate) fn oid(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    pub(crate) const CORPUS: &[(u64, &str)] = &[
        (1, "a"),
        (2, "a b"),
        (3, "a b c"),
        (4, "a c"),
        (5, "b c"),
        (6, "a d e"),
        (7, "x y"),
        (8, "a b d"),
    ];
}

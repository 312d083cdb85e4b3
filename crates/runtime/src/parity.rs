//! Sim-parity harness: the threaded runtime vs. the deterministic
//! single-threaded ground truths.
//!
//! For a shared `(r, seed)` and corpus, every query must return a
//! result set identical to both [`ProtocolSim`]'s message-level
//! traversal and the direct [`HypercubeIndex`] engine, at every worker
//! count — thread scheduling may reorder frame *arrivals*, but the
//! per-query sequential coordination makes outcomes order-free. The
//! harness also asserts the frame-conservation law on shutdown, so a
//! lost or duplicated frame fails the run even when results happen to
//! match.
//!
//! The integration tests of this crate and of `hyperdex-net` call into
//! this module, keeping "what parity means" defined in exactly one place.

use std::collections::{HashMap, HashSet};

use hyperdex_core::sim_protocol::ProtocolSim;
use hyperdex_core::{HypercubeIndex, KeywordHasher, KeywordSet, ObjectId, SupersetQuery};
use hyperdex_simnet::latency::LatencyModel;

use crate::fault::FaultPlan;
use crate::runtime::{FtSearchOptions, NodeRuntime, RuntimeConfig, ShutdownReport};

/// What one parity run checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityReport {
    /// Worker threads the runtime ran with.
    pub workers: u32,
    /// Superset queries compared (runtime vs. sim vs. direct).
    pub superset_checked: usize,
    /// Pin lookups compared.
    pub pin_checked: usize,
    /// The runtime's shutdown accounting (conservation already
    /// asserted).
    pub shutdown: ShutdownReport,
}

/// Builds sim + direct + runtime from the same corpus, runs every
/// query on all three, and panics on any divergence: differing result
/// id-sets, or a conservation violation at shutdown.
///
/// `queries` pairs a keyword set with a superset threshold; every set
/// is additionally pin-searched.
pub fn assert_sim_parity(
    r: u8,
    seed: u64,
    workers: u32,
    corpus: &[(ObjectId, KeywordSet)],
    queries: &[(KeywordSet, usize)],
) -> ParityReport {
    let mut direct = HypercubeIndex::new(r, seed).expect("valid r");
    let mut sim = ProtocolSim::new(r, seed, LatencyModel::constant(1)).expect("valid r");
    let mut runtime =
        NodeRuntime::start(RuntimeConfig::new(r, workers).seed(seed)).expect("valid r");

    for (object, keywords) in corpus {
        direct.insert(*object, keywords.clone()).expect("non-empty");
        sim.insert(*object, keywords.clone()).expect("non-empty");
        runtime
            .insert(*object, keywords.clone())
            .expect("non-empty");
    }
    runtime.flush();

    let mut superset_checked = 0;
    let mut pin_checked = 0;
    for (keywords, threshold) in queries {
        // Superset: runtime vs. sim (message-level) vs. direct engine.
        let rt_ids = ids(runtime
            .superset_search(keywords, *threshold)
            .expect("non-zero threshold")
            .iter()
            .map(|m| m.object));
        let sim_ids = ids(sim
            .search_sequential(keywords, *threshold)
            .expect("non-zero threshold")
            .results
            .iter()
            .map(|m| m.object));
        let direct_ids = ids(direct
            .superset_search(
                &SupersetQuery::new(keywords.clone())
                    .threshold(*threshold)
                    .use_cache(false),
            )
            .expect("valid query")
            .results
            .iter()
            .map(|m| m.object));
        assert_eq!(
            rt_ids, sim_ids,
            "runtime/sim superset divergence: r={r} seed={seed} workers={workers} K={keywords:?}"
        );
        assert_eq!(
            rt_ids, direct_ids,
            "runtime/direct superset divergence: r={r} seed={seed} workers={workers} K={keywords:?}"
        );
        superset_checked += 1;

        // Pin: runtime vs. sim vs. direct.
        let rt_pin = ids(runtime.pin_search(keywords).into_iter());
        let sim_pin = ids(sim.pin_search(keywords).results.into_iter());
        let direct_pin = ids(direct.pin_search(keywords).results.into_iter());
        assert_eq!(
            rt_pin, sim_pin,
            "runtime/sim pin divergence: r={r} seed={seed} workers={workers} K={keywords:?}"
        );
        assert_eq!(
            rt_pin, direct_pin,
            "runtime/direct pin divergence: r={r} seed={seed} workers={workers} K={keywords:?}"
        );
        pin_checked += 1;
    }

    let shutdown = runtime.shutdown();
    shutdown.assert_conserved();
    ParityReport {
        workers,
        superset_checked,
        pin_checked,
        shutdown,
    }
}

/// Sorted, deduplicated id list — the set the parity contract compares.
fn ids(objects: impl Iterator<Item = ObjectId>) -> Vec<ObjectId> {
    let mut out: Vec<ObjectId> = objects.collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// What one *faulted* parity run checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParityReport {
    /// Worker threads the runtime ran with.
    pub workers: u32,
    /// Queries whose faulted run matched the direct engine exactly.
    pub complete: usize,
    /// Queries that finished with skipped vertices but whose coverage
    /// accounting and partial results were verified exact.
    pub partial: usize,
    /// Queries where no coordinator ever answered within the client
    /// budget (degraded outcome, empty result verified).
    pub degraded: usize,
    /// The runtime's shutdown accounting (conservation already
    /// asserted).
    pub shutdown: ShutdownReport,
}

/// Parity under injected faults: every query runs on a faulted runtime
/// via [`NodeRuntime::superset_search_ft`] and is checked against the
/// fault-free direct engine. The contract is graded:
///
/// * **complete** outcome (no vertex skipped) → the id-set must be
///   *identical* to the direct engine's (queries are issued
///   unthresholded so early-stop can't reorder the comparison);
/// * **partial** outcome → the coverage accounting must be exact
///   (`reached + skipped == subcube`) and every missing object must
///   live on a vertex the coordinator explicitly reported as skipped —
///   a missed result the report doesn't confess fails the run;
/// * **degraded** outcome (no coordinator answered) → the result must
///   be empty with no coverage claim.
///
/// Conservation is asserted on shutdown — under injection that means
/// every drop, duplicate, and crash-lost frame was counted, not lost.
pub fn assert_fault_parity(
    r: u8,
    seed: u64,
    workers: u32,
    plan: &FaultPlan,
    opts: &FtSearchOptions,
    corpus: &[(ObjectId, KeywordSet)],
    queries: &[KeywordSet],
) -> FaultParityReport {
    let mut direct = HypercubeIndex::new(r, seed).expect("valid r");
    let mut runtime =
        NodeRuntime::start_faulted(RuntimeConfig::new(r, workers).seed(seed), plan.clone())
            .expect("valid r");
    // Home vertex of every object, for auditing partial results.
    let hasher = KeywordHasher::new(r, seed).expect("valid r");
    let mut home: HashMap<ObjectId, u64> = HashMap::new();

    for (object, keywords) in corpus {
        direct.insert(*object, keywords.clone()).expect("non-empty");
        runtime
            .insert(*object, keywords.clone())
            .expect("non-empty");
        home.insert(*object, hasher.vertex_for(keywords).bits());
    }
    runtime.flush();

    let (mut complete, mut partial, mut degraded) = (0usize, 0usize, 0usize);
    for keywords in queries {
        let truth = ids(direct
            .superset_search(
                &SupersetQuery::new(keywords.clone())
                    .threshold(usize::MAX - 1)
                    .use_cache(false),
            )
            .expect("valid query")
            .results
            .iter()
            .map(|m| m.object));
        let out = runtime
            .superset_search_ft(keywords, usize::MAX - 1, opts)
            .expect("non-zero threshold");
        let got = ids(out.matches.iter().map(|m| m.object));

        match &out.coverage {
            Some(cov) if out.complete => {
                assert_eq!(
                    got, truth,
                    "faulted-but-complete run diverged: r={r} seed={seed} \
                     workers={workers} K={keywords:?} cov={cov:?}"
                );
                assert_eq!(
                    cov.reached, cov.subcube_vertices,
                    "complete outcome with unreached vertices: {cov:?}"
                );
                complete += 1;
            }
            Some(cov) => {
                assert_eq!(
                    cov.reached + cov.skipped.len() as u64,
                    cov.subcube_vertices,
                    "coverage accounting not exact: {cov:?}"
                );
                let skipped: HashSet<u64> = cov.skipped.iter().copied().collect();
                // No conjured results…
                for id in &got {
                    assert!(
                        truth.contains(id),
                        "faulted run invented object {id:?}: K={keywords:?}"
                    );
                }
                // …and every miss is confessed by the coverage report.
                for id in truth.iter().filter(|id| !got.contains(id)) {
                    let bits = home[id];
                    assert!(
                        skipped.contains(&bits),
                        "object {id:?} missing but its vertex {bits:#b} was not \
                         reported skipped: cov={cov:?}"
                    );
                }
                partial += 1;
            }
            None => {
                assert!(
                    got.is_empty() && !out.complete,
                    "degraded outcome must be empty and incomplete"
                );
                degraded += 1;
            }
        }
    }

    let shutdown = runtime.shutdown();
    shutdown.assert_conserved();
    FaultParityReport {
        workers,
        complete,
        partial,
        degraded,
        shutdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    fn small_corpus() -> Vec<(ObjectId, KeywordSet)> {
        [(1, "a"), (2, "a b"), (3, "a b c"), (4, "b c"), (5, "a c d")]
            .into_iter()
            .map(|(id, k)| (ObjectId::from_raw(id), set(k)))
            .collect()
    }

    #[test]
    fn fault_parity_grades_every_outcome() {
        let corpus = small_corpus();
        let queries = vec![set("a"), set("b"), set("a b")];
        let plan = FaultPlan::lossy(3, 80, 40, 40).crash(1, 2);
        let report = assert_fault_parity(
            8,
            42,
            4,
            &plan,
            &FtSearchOptions::default(),
            &corpus,
            &queries,
        );
        assert_eq!(report.complete + report.partial + report.degraded, 3);
        assert_eq!(report.shutdown.in_flight(), 0);
    }

    #[test]
    fn parity_on_a_small_corpus() {
        let corpus = small_corpus();
        let queries = vec![
            (set("a"), usize::MAX - 1),
            (set("a b"), usize::MAX - 1),
            (set("a"), 2),
            (set("zzz"), 5),
        ];
        for workers in [1, 3] {
            let report = assert_sim_parity(8, 42, workers, &corpus, &queries);
            assert_eq!(report.superset_checked, 4);
            assert_eq!(report.pin_checked, 4);
            assert_eq!(report.shutdown.in_flight(), 0);
        }
    }
}

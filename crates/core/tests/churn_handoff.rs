//! Integration: a top-down superset search racing a scheduled index
//! handoff on its own SBT path keeps full recall, deterministically.

use hyperdex_core::churn::StabilizationConfig;
use hyperdex_core::sim_protocol::{ProtocolSim, RecoveryStrategy};
use hyperdex_core::{FtPolicy, KeywordSet, ObjectId};
use hyperdex_simnet::churn::ChurnPlan;
use hyperdex_simnet::latency::LatencyModel;
use hyperdex_simnet::time::SimTime;

const SEED: u64 = 0xC0DE;
const MEMBERS: &[u64] = &[11, 22, 33, 44, 55];

const CORPUS: &[(u64, &str)] = &[
    (1, "a"),
    (2, "a b"),
    (3, "a b c"),
    (4, "a c"),
    (5, "b c"),
    (6, "a d e"),
    (7, "x y"),
    (8, "a b d"),
];

fn set(s: &str) -> KeywordSet {
    KeywordSet::parse(s).unwrap()
}

/// Builds the simulation, schedules the owner of the query-path vertex
/// holding object 2 (`{a, b}` ⊇ `{a}`) to leave at tick 5, advances to
/// the leave so the handoff is in flight, and runs the search. Returns
/// a byte-exact transcript of everything observable.
fn run_once() -> String {
    let mut sim = ProtocolSim::new(5, SEED, LatencyModel::constant(1)).unwrap();
    for &(id, kws) in CORPUS {
        sim.insert(ObjectId::from_raw(id), set(kws)).unwrap();
    }

    // The vertex of {a, b} lies in the induced subcube of query {a}:
    // its one-bits are a superset of the query's, so the top-down SBT
    // walk must visit it.
    let root = sim.query_root(&set("a"));
    let target = sim.query_root(&set("a b"));
    assert_eq!(
        target.bits() & root.bits(),
        root.bits(),
        "target must be on the query's SBT path"
    );

    // Find who owns that vertex and schedule their graceful departure.
    let cfg = StabilizationConfig {
        batch_entries: 1, // several batches → a real mid-flight window
        ..StabilizationConfig::default()
    };
    {
        let mut probe = ChurnPlan::default();
        let mut scratch = ProtocolSim::new(5, SEED, LatencyModel::constant(1)).unwrap();
        scratch.enable_churn(&probe, cfg, MEMBERS).unwrap();
        let owner = scratch.churn().unwrap().view_owner(target.bits()).unwrap();
        probe.leave_at(SimTime::from_ticks(5), owner);
        sim.enable_churn(&probe, cfg, MEMBERS).unwrap();
    }

    // Apply the leave; its handoff batches are now in flight and the
    // target vertex is silent.
    sim.run_churn_to(SimTime::from_ticks(5));
    assert!(
        !sim.churn().unwrap().vertex_available(target.bits()),
        "the target vertex should be mid-handoff"
    );

    let out = sim
        .search_fault_tolerant(
            &set("a"),
            usize::MAX - 1,
            FtPolicy {
                strategy: RecoveryStrategy::ReplicatedFailover,
                max_retries: 4,
                base_timeout: 16,
            },
        )
        .unwrap();

    // Full recall: every object whose keyword set contains `a`.
    let mut ids: Vec<u64> = out.results.iter().map(|r| r.object.raw()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids, vec![1, 2, 3, 4, 6, 8], "recall lost mid-handoff");

    // The search interleaved with (and completed) the handoff.
    let st = sim.churn().unwrap();
    assert!(st.converged(), "search drain should settle churn");
    assert!(st.stats().handoffs_completed > 0);

    format!(
        "ids={ids:?} coverage={:?} stats={:?} consistency={} now={:?}",
        out.coverage,
        st.stats(),
        st.consistency(),
        sim.network().now(),
    )
}

#[test]
fn search_racing_handoff_keeps_full_recall_and_reproduces() {
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "fixed seed must reproduce byte-for-byte");
}

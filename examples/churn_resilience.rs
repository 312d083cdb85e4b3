//! Churn resilience: host crashes, repair, failover, and replication.
//!
//! §3.4's fault-tolerance argument: a keyword's index entries spread
//! over many nodes, so no single failure blocks its queries; reference
//! replication in the DHT layer covers the rest. Part 1 crashes a host
//! under the index layer's churn model (the one the `churn` experiment
//! measures): its vertices are taken over and repaired from the
//! secondary cube, and a fault-tolerant superset search still returns
//! every object. Part 2 crashes primaries of a replicated DOLR, and
//! Part 3 lets nodes leave and join it gracefully.
//!
//! ```text
//! cargo run --example churn_resilience
//! ```

use hyperdex::core::sim_protocol::{ProtocolSim, RecoveryStrategy};
use hyperdex::core::{Error, KeywordSet, StabilizationConfig};
use hyperdex::dht::{Dolr, NodeId, ObjectId};
use hyperdex::simnet::churn::ChurnPlan;
use hyperdex::simnet::latency::LatencyModel;
use hyperdex::simnet::time::SimTime;

fn main() -> Result<(), Error> {
    // --- Part 1: a host crash under the index layer's churn model. ----
    let objects = 200;
    let mut sim = ProtocolSim::new(8, 21, LatencyModel::uniform(1, 5))?;
    for i in 0..objects {
        let keywords = KeywordSet::parse(&format!("common unique{i} tag{}", i % 5))?;
        sim.insert(ObjectId::from_raw(i), keywords)?;
    }
    let (hosts, crashed) = ([1, 2, 3, 4], 2);
    let mut plan = ChurnPlan::new();
    plan.crash_at(SimTime::from_ticks(50), crashed);
    sim.enable_churn(&plan, StabilizationConfig::default(), &hosts)?;
    sim.run_churn_to_quiescence();
    let st = sim.churn().expect("churn is enabled");
    println!(
        "host {crashed} of {} crashed: {} vertices repaired ({} entries restored), converged: {}",
        hosts.len(),
        st.stats().repairs_completed,
        st.stats().repair_entries,
        st.converged()
    );
    assert!(st.converged(), "stabilization must reassign every vertex");

    let common = KeywordSet::parse("common")?;
    let out = sim.search_fault_tolerant(
        &common,
        usize::MAX - 1,
        RecoveryStrategy::ReplicatedFailover,
    )?;
    // The results are deduplicated by object id.
    let found = out.results.len() as u64;
    println!(
        "search for `common` after the crash: {found}/{objects} objects, {} of {} vertices reached",
        out.coverage.ft.reached, out.coverage.ft.subcube_vertices
    );
    assert_eq!(found, objects, "the crash must lose nothing");

    // --- Part 2: replicated references survive primary crashes. --------
    let mut dht = Dolr::builder().nodes(32).seed(5).replication(2).build();
    let publisher = dht.random_node();
    let objects: Vec<ObjectId> = (0..50).map(ObjectId::from_raw).collect();
    for &obj in &objects {
        dht.insert(publisher, obj, publisher);
    }
    println!(
        "\npublished {} objects with replication factor 2 ({} stored refs)",
        objects.len(),
        dht.total_refs()
    );

    // Crash five primaries in a row; every object stays readable.
    for round in 1..=5 {
        let primary = dht.locate(objects[0]);
        dht.crash(primary);
        let reader = dht.random_node();
        let alive = objects
            .iter()
            .filter(|&&o| dht.read(reader, o).is_some())
            .count();
        println!(
            "after crash {round}: {}/{} objects readable ({} nodes left)",
            alive,
            objects.len(),
            dht.ring().len()
        );
        assert_eq!(alive, objects.len(), "replication must cover the crash");
    }
    println!("\nall objects survived 5 primary crashes — replication + surrogate routing");

    // --- Part 3: graceful churn hands references over. ------------------
    // Eight nodes leave (each passes its references to its successor)
    // and eight join (each takes its key range from its successor).
    for i in 0..8u64 {
        let leaving = dht.ring().iter().nth(1).expect("nodes remain");
        dht.leave(leaving);
        dht.join(NodeId::from_raw(i.wrapping_mul(0x0765_4321_FEDC_BA98) | 1));
    }
    let reader = dht.random_node();
    let alive = objects
        .iter()
        .filter(|&&o| dht.read(reader, o).is_some())
        .count();
    println!(
        "after 8 graceful leaves and 8 joins: {alive}/{} objects readable ({} nodes)",
        objects.len(),
        dht.ring().len()
    );
    assert_eq!(
        alive,
        objects.len(),
        "a graceful leave or a join loses nothing"
    );
    Ok(())
}

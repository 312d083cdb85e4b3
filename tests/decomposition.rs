//! Decomposed-index integration (§3.4): per-field hypercubes over one
//! shared object space.

use hyperdex::core::decompose::DecomposedIndex;
use hyperdex::core::{KeywordSet, ObjectId, SupersetQuery};
use hyperdex::simnet::rng::SimRng;

/// A registered machine: id, os, arch, services.
type Machine = (ObjectId, String, String, Vec<String>);

/// Builds a machine directory across three fields.
fn directory() -> (DecomposedIndex, Vec<Machine>) {
    let mut idx = DecomposedIndex::new(1);
    idx.add_field("os", 5).expect("valid");
    idx.add_field("arch", 4).expect("valid");
    idx.add_field("service", 6).expect("valid");
    let oses = ["linux", "freebsd", "windows"];
    let arches = ["x86-64", "arm64"];
    let services = ["http", "dns", "ssh", "smtp"];
    let mut rng = SimRng::new(17);
    let mut machines = Vec::new();
    for i in 0..300u64 {
        let id = ObjectId::from_raw(i);
        let os = oses[rng.gen_index(oses.len())].to_string();
        let arch = arches[rng.gen_index(arches.len())].to_string();
        let svc_count = 1 + rng.gen_index(2);
        let mut svcs: Vec<String> = Vec::new();
        while svcs.len() < svc_count {
            let s = services[rng.gen_index(services.len())].to_string();
            if !svcs.contains(&s) {
                svcs.push(s);
            }
        }
        idx.insert("os", id, KeywordSet::parse(&os).expect("parses"))
            .expect("field exists");
        idx.insert("arch", id, KeywordSet::parse(&arch).expect("parses"))
            .expect("field exists");
        idx.insert("service", id, KeywordSet::from_strs(&svcs).expect("parses"))
            .expect("field exists");
        machines.push((id, os, arch, svcs));
    }
    (idx, machines)
}

#[test]
fn single_field_queries_match_ground_truth() {
    let (mut idx, machines) = directory();
    let out = idx
        .superset_search(
            "os",
            &SupersetQuery::new(KeywordSet::parse("linux").expect("parses")),
        )
        .expect("field exists");
    let expected = machines
        .iter()
        .filter(|(_, os, _, _)| os == "linux")
        .count();
    assert_eq!(out.results.len(), expected);
}

#[test]
fn multi_field_conjunction_matches_ground_truth() {
    let (mut idx, machines) = directory();
    let (hits, _) = idx
        .multi_field_search(&[
            (
                "os",
                SupersetQuery::new(KeywordSet::parse("linux").expect("parses")),
            ),
            (
                "service",
                SupersetQuery::new(KeywordSet::parse("http").expect("parses")),
            ),
        ])
        .expect("fields exist");
    let expected: Vec<ObjectId> = machines
        .iter()
        .filter(|(_, os, _, svcs)| os == "linux" && svcs.contains(&"http".to_string()))
        .map(|(id, _, _, _)| *id)
        .collect();
    assert_eq!(hits.len(), expected.len());
    for id in &expected {
        assert!(hits.contains(id));
    }
}

#[test]
fn field_removal_is_scoped() {
    let (mut idx, machines) = directory();
    let (id, os, _, svcs) = machines[0].clone();
    idx.remove("os", id, &KeywordSet::parse(&os).expect("parses"))
        .expect("field exists");
    // Gone from os searches...
    let out = idx
        .superset_search(
            "os",
            &SupersetQuery::new(KeywordSet::parse(&os).expect("parses")),
        )
        .expect("field exists");
    assert!(!out.results.iter().any(|r| r.object == id));
    // ...but still present in service searches.
    let out = idx
        .superset_search(
            "service",
            &SupersetQuery::new(KeywordSet::parse(&svcs[0]).expect("parses")),
        )
        .expect("field exists");
    assert!(out.results.iter().any(|r| r.object == id));
}

#[test]
fn per_field_search_cost_is_bounded_by_field_cube() {
    let (mut idx, _) = directory();
    let out = idx
        .superset_search(
            "arch",
            &SupersetQuery::new(KeywordSet::parse("arm64").expect("parses")),
        )
        .expect("field exists");
    assert!(
        out.stats.nodes_contacted <= 1 << 4,
        "arch cube has 16 vertices, contacted {}",
        out.stats.nodes_contacted
    );
}

#[test]
fn unknown_field_is_an_error_not_a_panic() {
    let (mut idx, _) = directory();
    assert!(idx
        .superset_search(
            "datacenter",
            &SupersetQuery::new(KeywordSet::parse("x").expect("parses")),
        )
        .is_err());
}

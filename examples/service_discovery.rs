//! Service discovery: attribute search with decomposed hypercubes.
//!
//! §3.4's last remark: when objects carry multiple attribute *fields*
//! (os, arch, service, region), decomposing the keyword space into one
//! small hypercube per field keeps each search cheap. This example
//! registers a fleet of machines and answers conjunctive multi-field
//! discovery queries.
//!
//! ```text
//! cargo run --example service_discovery
//! ```

use hyperdex::core::decompose::DecomposedIndex;
use hyperdex::core::{KeywordSet, ObjectId, SupersetQuery};
use hyperdex::simnet::rng::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut directory = DecomposedIndex::new(3);
    directory.add_field("os", 5)?;
    directory.add_field("arch", 4)?;
    directory.add_field("service", 6)?;
    directory.add_field("region", 4)?;

    // Register 500 machines with plausible attribute mixes.
    let oses = ["linux", "freebsd", "windows"];
    let arches = ["x86-64", "arm64", "riscv"];
    let services = ["http", "dns", "smtp", "ssh", "nfs", "postgres"];
    let regions = ["us-east", "eu-west", "ap-south"];
    let mut rng = SimRng::new(99);
    for i in 0..500u64 {
        let host = ObjectId::from_raw(i);
        let os = *rng.choose(&oses).expect("non-empty");
        let arch = *rng.choose(&arches).expect("non-empty");
        let region = *rng.choose(&regions).expect("non-empty");
        // Each host runs 1-3 services.
        let mut svc_set = KeywordSet::new();
        for _ in 0..=rng.gen_range(2) {
            svc_set.insert(
                rng.choose(&services)
                    .expect("non-empty")
                    .parse()
                    .expect("valid keyword"),
            );
        }
        directory.insert("os", host, KeywordSet::parse(os)?)?;
        directory.insert("arch", host, KeywordSet::parse(arch)?)?;
        directory.insert("service", host, svc_set)?;
        directory.insert("region", host, KeywordSet::parse(region)?)?;
    }
    println!("registered 500 machines across 4 attribute fields");

    // Single-field discovery: all linux machines (cheap — the os cube
    // has only 2^5 = 32 vertices).
    let linux =
        directory.superset_search("os", &SupersetQuery::new(KeywordSet::parse("linux")?))?;
    println!(
        "\nlinux machines: {} ({} nodes contacted in the 32-vertex os cube)",
        linux.results.len(),
        linux.stats.nodes_contacted
    );

    // A machine is reinstalled: its os entry is withdrawn and the new
    // one registered; only the os field changes.
    let moved = linux.results[0].object;
    directory.remove("os", moved, &KeywordSet::parse("linux")?)?;
    directory.insert("os", moved, KeywordSet::parse("freebsd")?)?;
    let after =
        directory.superset_search("os", &SupersetQuery::new(KeywordSet::parse("linux")?))?;
    println!(
        "after {moved} moves to freebsd: {} linux machines",
        after.results.len()
    );

    // Conjunctive multi-field discovery: linux AND arm64 AND http.
    let (hits, stats) = directory.multi_field_search(&[
        ("os", SupersetQuery::new(KeywordSet::parse("linux")?)),
        ("arch", SupersetQuery::new(KeywordSet::parse("arm64")?)),
        ("service", SupersetQuery::new(KeywordSet::parse("http")?)),
    ])?;
    println!(
        "\nlinux + arm64 + http: {} machines, {} total nodes contacted",
        hits.len(),
        stats.nodes_contacted
    );
    for host in hits.iter().take(5) {
        println!("  {host}");
    }

    // Compare: a monolithic cube big enough for all fields would pay a
    // far larger search space per query (see the ablation experiment).
    println!(
        "\n(decomposed cubes: 32 + 16 + 64 + 16 = 128 vertices total, \
         vs 2^19 for one joint cube)"
    );
    Ok(())
}

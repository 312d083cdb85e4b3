//! The fourth parity executor: real processes over real sockets.
//!
//! [`assert_net_parity`] extends the three-way contract of
//! [`hyperdex_runtime::parity`] (direct engine, message-level sim,
//! threaded runtime) with a fourth executor — a multi-process cluster
//! over loopback TCP. The same corpus and queries run on all four;
//! every superset and pin result id-set must be identical, and the
//! cluster's cross-process frame ledger must balance at shutdown.

use std::path::PathBuf;

use hyperdex_core::{HypercubeIndex, KeywordSet, ObjectId, SupersetQuery};
use hyperdex_runtime::parity::assert_sim_parity;
use hyperdex_runtime::{ParityReport, ShutdownReport};

use crate::cluster::{Cluster, ClusterConfig};

/// What one net-parity run checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetParityReport {
    /// Server processes the cluster ran with.
    pub servers: u32,
    /// Worker shards across those processes.
    pub workers: u32,
    /// Superset + pin query pairs compared against the direct engine.
    pub queries_checked: usize,
    /// The in-process three-way parity report (already asserted).
    pub in_process: ParityReport,
    /// The cluster's shutdown ledger (conservation already asserted).
    pub shutdown: ShutdownReport,
}

/// Runs the full four-executor parity check: the in-process three-way
/// harness first, then the same corpus and queries through a real
/// `servers`-process cluster, comparing every result id-set against
/// the direct [`HypercubeIndex`] engine. Panics on any divergence or
/// on a conservation violation at cluster shutdown.
///
/// `server_bin` overrides binary discovery — tests pass
/// `env!("CARGO_BIN_EXE_hyperdex-server")`.
pub fn assert_net_parity(
    r: u8,
    seed: u64,
    workers: u32,
    servers: u32,
    corpus: &[(ObjectId, KeywordSet)],
    queries: &[(KeywordSet, usize)],
    server_bin: Option<PathBuf>,
) -> NetParityReport {
    let in_process = assert_sim_parity(r, seed, workers, corpus, queries);

    let mut direct = HypercubeIndex::new(r, seed).expect("valid r");
    for (object, keywords) in corpus {
        direct.insert(*object, keywords.clone()).expect("non-empty");
    }

    let mut cfg = ClusterConfig::new(r, seed, workers, servers);
    cfg.server_bin = server_bin;
    let cluster = Cluster::launch(cfg).expect("cluster launch");
    let mut client = cluster.client().expect("cluster client");
    for (object, keywords) in corpus {
        client.insert(*object, keywords.clone()).expect("insert");
    }
    client.flush().expect("flush barrier");

    let mut queries_checked = 0;
    for (keywords, threshold) in queries {
        let net_ids = ids(client
            .superset_search(keywords, *threshold)
            .expect("superset over TCP")
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
            net_ids, direct_ids,
            "net/direct superset divergence: r={r} seed={seed} workers={workers} \
             servers={servers} K={keywords:?}"
        );

        let net_pin = ids(client
            .pin_search(keywords)
            .expect("pin over TCP")
            .into_iter());
        let direct_pin = ids(direct.pin_search(keywords).results.into_iter());
        assert_eq!(
            net_pin, direct_pin,
            "net/direct pin divergence: r={r} seed={seed} workers={workers} \
             servers={servers} K={keywords:?}"
        );
        queries_checked += 1;
    }

    let shutdown = cluster.shutdown(client).expect("cluster shutdown");
    shutdown.assert_conserved();
    NetParityReport {
        servers,
        workers,
        queries_checked,
        in_process,
        shutdown,
    }
}

/// Sorted, deduplicated id list — the set the parity contract
/// compares.
fn ids(objects: impl Iterator<Item = ObjectId>) -> Vec<ObjectId> {
    let mut out: Vec<ObjectId> = objects.collect();
    out.sort_unstable();
    out.dedup();
    out
}

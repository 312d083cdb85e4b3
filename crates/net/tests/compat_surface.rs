//! The `policy`/`store` fields `benchmark/` writes in its
//! `ClusterConfig` struct literal, written exactly as it writes them
//! (see `crates/runtime/tests/compat_surface.rs`). Delete it together
//! with the two fields in the `benchmark` PR that stops naming them.

use std::time::Duration;

use hyperdex_core::StoreBackend;
use hyperdex_net::client::NetConfig;
use hyperdex_net::cluster::ClusterConfig;
use hyperdex_runtime::ShardPolicy;

#[test]
fn the_cluster_config_literal_still_compiles() {
    let cfg = ClusterConfig {
        r: 12,
        seed: 7,
        total_workers: 2,
        servers: 2,
        capacity: 64,
        policy: ShardPolicy::Prefix,
        store: StoreBackend::Slab,
        crash: None,
        server_bin: None,
        net: NetConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(25),
            window: 32,
        },
    };
    assert_eq!(std::mem::size_of_val(&cfg.policy), 0);
    assert_eq!(std::mem::size_of_val(&cfg.store), 0);
}

//! The `ShardPolicy`/`StoreBackend` positions `benchmark/` spells in
//! this crate, written exactly as it writes them. `benchmark/` is its
//! own workspace, so nothing in tier-1 compiles it: this file is what
//! breaks when a cleanup removes a shim the benchmark still names.
//! Delete it together with the shims in the `benchmark` PR that stops
//! naming them.

use hyperdex_core::StoreBackend;
use hyperdex_runtime::{NodeRuntime, RuntimeConfig, ShardMap, ShardPolicy};

#[test]
fn every_policy_and_store_position_still_compiles_and_selects_nothing() {
    let spelled = ShardMap::with_policy(ShardPolicy::Prefix, 12, 2, 7);
    assert_eq!(spelled, ShardMap::new(12, 2, 7));

    let cfg = RuntimeConfig {
        r: 12,
        seed: 7,
        workers: 2,
        channel_capacity: 256,
        policy: ShardPolicy::Prefix,
        store: StoreBackend::Slab,
    };
    assert_eq!(cfg, RuntimeConfig::new(12, 2).seed(7));
    assert_eq!(cfg.shard_map(), spelled);
    NodeRuntime::start(cfg)
        .expect("valid r")
        .shutdown()
        .assert_conserved();
}

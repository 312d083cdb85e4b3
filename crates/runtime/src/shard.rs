//! Deterministic vertex → worker ownership.
//!
//! Shared-nothing means exactly one worker may ever touch a vertex's
//! `PostingStore`. Ownership must also be computable by *anyone* (the
//! client routes inserts, coordinators route `RegionQuery`s) without
//! coordination, so it is a pure function of the vertex bits, the
//! runtime seed, and the worker count — the same recipe every node of
//! a real DHT uses to map keys to peers.
//!
//! # Prefix placement
//!
//! Hashing each vertex independently would balance load perfectly and
//! be terrible for the paper's spanning-binomial-tree traversal: a
//! parent and its children land on different workers with probability
//! `(workers−1)/workers`, so every SBT hop becomes a cross-shard
//! frame (measured 9× more frames on a broad scan at 8 workers before
//! that placement was retired).
//!
//! [`ShardMap`] instead shards on the **top `ceil(log2(workers))`
//! bits** of the vertex, rotated by a seed-derived offset for balance.
//! SBT subtrees entered via dimension `j` share all bits at positions
//! `j..r` (Lemma 3.2's derivability), so any subtree whose entry
//! dimension lies below the prefix cut is wholly owned by one worker —
//! cross-shard edges per query are bounded by the prefix fan-out
//! (`2^k − 1`), not the subcube size. Each shard still owns at least
//! `2^−k > 1/(2·workers)` of the vertex space for any worker count.

use hyperdex_dht::stable_hash64_seeded;

/// Domain-separation constant so shard placement never correlates with
/// the keyword hash positions derived from the same seed.
const SHARD_SALT: u64 = 0x5348_4152_445F_4D41; // "SHARD_MA"

/// How vertices are assigned to workers: by prefix, the only way.
/// Zero-sized and selecting nothing — it exists because `benchmark/`
/// spells `ShardPolicy::Prefix` at [`ShardMap::with_policy`] and the
/// config `policy` fields. Remove with those positions in the next
/// `benchmark` PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Shard on the top `ceil(log2(workers))` vertex bits (seed-salted
    /// rotation): whole SBT subtrees land on one worker.
    Prefix,
}

/// Pure vertex → worker map. `Copy`, so every worker and the client
/// hold their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    workers: u32,
    /// Bits below this position are ignored (`r − k`, where
    /// `k = min(ceil_log2(workers), r)`): a subtree entered via a
    /// dimension at or below it never crosses a worker boundary.
    shift: u32,
    /// `2^k − 1`, the prefix-space wrap mask.
    mask: u64,
    /// Seed-derived rotation of the prefix space, so a reseeded
    /// runtime places subtrees differently.
    rot: u64,
}

/// `ceil(log2(n))` for shard counts: 0 for `n ≤ 1`.
fn ceil_log2(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        32 - (n - 1).leading_zeros()
    }
}

impl ShardMap {
    /// A map over `workers` shards (at least one) of an `r`-cube for a
    /// runtime seeded with `seed`; maps built with the same
    /// `(r, workers, seed)` agree everywhere.
    pub fn new(r: u8, workers: u32, seed: u64) -> ShardMap {
        let workers = workers.max(1);
        let salted = seed ^ SHARD_SALT;
        let k = ceil_log2(workers).min(u32::from(r));
        let mask = (1u64 << k) - 1;
        ShardMap {
            workers,
            shift: u32::from(r) - k,
            mask,
            rot: stable_hash64_seeded(&salted.to_le_bytes(), salted) & mask,
        }
    }

    /// [`ShardMap::new`]. Shim: `benchmark/` names the (only) policy
    /// here; remove with [`ShardPolicy`].
    pub fn with_policy(_policy: ShardPolicy, r: u8, workers: u32, seed: u64) -> ShardMap {
        ShardMap::new(r, workers, seed)
    }

    /// How many shards the map spreads across.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// The lowest dimension the placement reads (`r − k`): an SBT
    /// subtree entered via it is wholly one worker's, so the dimensions
    /// from here upward cut any query's subcube into at most `2^k`
    /// single-owner regions
    /// ([`hyperdex_core::protocol::region_entries`]).
    pub fn region_cut(&self) -> u8 {
        self.shift as u8
    }

    /// The worker that owns vertex `bits`. Stable across runs for a
    /// given `(r, workers, seed)` triple.
    pub fn owner_of(&self, bits: u64) -> u32 {
        ((((bits >> self.shift) + self.rot) & self.mask) % u64::from(self.workers)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use proptest::prelude::*;

    #[test]
    fn single_worker_owns_everything() {
        let map = ShardMap::new(10, 1, 7);
        assert!((0..1024).all(|b| map.owner_of(b) == 0));
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let map = ShardMap::new(10, 0, 7);
        assert_eq!(map.workers(), 1);
        assert_eq!(map.owner_of(123), 0);
    }

    #[test]
    fn reseeding_rotates_placement() {
        let owners: Vec<u32> = (0..16u64)
            .map(|seed| ShardMap::new(8, 4, seed).owner_of(0))
            .collect();
        assert!(
            owners.iter().any(|&o| o != owners[0]),
            "every seed parks vertex 0 on worker {}",
            owners[0]
        );
    }

    /// All members of the SBT subtree entered at `(bits, via_dim)`:
    /// the closure of the child rule (set any free dimension strictly
    /// below the arrival dimension). Mirrors the protocol's
    /// `child_contacts` so the property is checked against the real
    /// traversal shape.
    fn subtree_members(bits: u64, via_dim: u8, out: &mut Vec<u64>) {
        out.push(bits);
        for d in 0..via_dim {
            if bits & (1 << d) == 0 {
                subtree_members(bits | (1 << d), d, out);
            }
        }
    }

    proptest! {
        /// For any cube, worker count and seed: owners are in range,
        /// every subtree entered at or below the prefix cut
        /// (`r − ceil_log2(workers)`, which `region_cut` reports — so
        /// every region a query's subcube is cut into lies on one
        /// worker, whatever the root) has one owner, every worker owns
        /// at least `2^−k` of the cube, and the maps the client, the
        /// workers and a server build from the same triple agree.
        #[test]
        fn prefix_placement_is_local_balanced_and_agreed(
            r in 1u8..=10,
            workers in 1u32..=9,
            seed in any::<u64>(),
        ) {
            let map = ShardMap::new(r, workers, seed);
            // The threaded client and workers route by the config's
            // map; servers and the TCP client call `new` like this test.
            let config_map = RuntimeConfig::new(r, workers).seed(seed).shard_map();
            prop_assert_eq!(map, config_map);

            let k = ceil_log2(workers).min(u32::from(r));
            let cut = (u32::from(r) - k) as u8;
            prop_assert_eq!(map.region_cut(), cut);
            let total = 1u64 << r;
            let mut counts = vec![0u64; workers as usize];
            let mut members = Vec::new();
            for bits in 0..total {
                let owner = map.owner_of(bits);
                prop_assert!(owner < workers);
                counts[owner as usize] += 1;
                for via in 0..=cut {
                    members.clear();
                    subtree_members(bits, via, &mut members);
                    for &m in &members {
                        prop_assert_eq!(
                            map.owner_of(m),
                            owner,
                            "subtree ({:#b}, via {}) split at member {:#b}",
                            bits, via, m
                        );
                    }
                }
            }
            // With fewer prefix regions than workers (k capped by r)
            // some workers own nothing; otherwise each owns a region.
            if (1u64 << k) >= u64::from(workers) {
                prop_assert!(
                    counts.iter().all(|&c| c >= total >> k),
                    "degenerate spread (r={} workers={} seed={}): {:?}",
                    r, workers, seed, counts
                );
            }
        }
    }
}

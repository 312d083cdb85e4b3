//! Deterministic vertex → worker ownership.
//!
//! Shared-nothing means exactly one worker may ever touch a vertex's
//! `IndexTable`. Ownership must also be computable by *anyone* (the
//! client routes inserts, coordinators route `T_QUERY`s) without
//! coordination, so it is a pure function of the vertex bits, the
//! runtime seed, and the worker count — the same recipe every node of
//! a real DHT uses to map keys to peers.
//!
//! # Two placement policies
//!
//! [`ShardPolicy::Hash`] scatters vertices uniformly by hashing each
//! one independently. That is perfect for load balance but terrible
//! for the paper's spanning-binomial-tree traversal: a parent and its
//! children land on different workers with probability
//! `(workers−1)/workers`, so every SBT hop becomes a cross-shard
//! frame.
//!
//! [`ShardPolicy::Prefix`] instead shards on the **top
//! `ceil(log2(workers))` bits** of the vertex, rotated by a
//! seed-derived offset for balance. SBT subtrees entered via dimension
//! `j` share all bits at positions `j..r` (Lemma 3.2's derivability),
//! so any subtree whose entry dimension lies below the prefix cut is
//! wholly owned by one worker — cross-shard edges per query are
//! bounded by the prefix fan-out (`2^k − 1`), not the subcube size.
//! Each shard still owns at least `2^−k > 1/(2·workers)` of the
//! vertex space for any worker count.

use hyperdex_dht::stable_hash64_seeded;

/// Domain-separation constant so shard placement never correlates with
/// the keyword hash positions derived from the same seed.
const SHARD_SALT: u64 = 0x5348_4152_445F_4D41; // "SHARD_MA"

/// How vertices are assigned to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardPolicy {
    /// Every vertex hashed independently: uniform scatter, zero
    /// traversal locality. The pre-locality default, kept so benches
    /// can report both placements side by side.
    Hash,
    /// Shard on the top `ceil(log2(workers))` vertex bits (seed-salted
    /// rotation): whole SBT subtrees land on one worker.
    #[default]
    Prefix,
}

impl ShardPolicy {
    /// The policy's stable lowercase name (used in bench artifacts,
    /// CI matrix env values, and the server `--policy` flag).
    pub fn name(self) -> &'static str {
        match self {
            ShardPolicy::Hash => "hash",
            ShardPolicy::Prefix => "prefix",
        }
    }

    /// Parses [`ShardPolicy::name`] back; `None` for anything else.
    pub fn parse(s: &str) -> Option<ShardPolicy> {
        match s {
            "hash" => Some(ShardPolicy::Hash),
            "prefix" => Some(ShardPolicy::Prefix),
            _ => None,
        }
    }
}

/// Pure vertex → worker map. `Copy`, so every worker and the client
/// hold their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    workers: u32,
    seed: u64,
    policy: ShardPolicy,
    /// Prefix policy: bits below this position are ignored
    /// (`r − k`, where `k = min(ceil_log2(workers), r)`).
    shift: u32,
    /// Prefix policy: `2^k − 1`, the prefix-space wrap mask.
    mask: u64,
    /// Prefix policy: seed-derived rotation of the prefix space, so a
    /// reseeded runtime places subtrees differently.
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
    /// A map over `workers` shards (at least one) for a runtime seeded
    /// with `seed`, under the legacy [`ShardPolicy::Hash`] placement.
    pub fn new(workers: u32, seed: u64) -> ShardMap {
        ShardMap::with_policy(ShardPolicy::Hash, 63, workers, seed)
    }

    /// A map over `workers` shards (at least one) of an `r`-cube for a
    /// runtime seeded with `seed`, under `policy`. `r` only matters
    /// for [`ShardPolicy::Prefix`] (it fixes where the prefix cut
    /// falls); maps built with the same `(policy, r, workers, seed)`
    /// agree everywhere.
    pub fn with_policy(policy: ShardPolicy, r: u8, workers: u32, seed: u64) -> ShardMap {
        let workers = workers.max(1);
        let salted = seed ^ SHARD_SALT;
        let k = ceil_log2(workers).min(u32::from(r));
        let mask = (1u64 << k) - 1;
        ShardMap {
            workers,
            seed: salted,
            policy,
            shift: u32::from(r) - k,
            mask,
            rot: stable_hash64_seeded(&salted.to_le_bytes(), salted) & mask,
        }
    }

    /// How many shards the map spreads across.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// The placement policy this map was built with.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Under [`ShardPolicy::Prefix`], the highest SBT entry dimension
    /// whose whole subtree is guaranteed shard-local: a subtree
    /// entered via `dim ≤ prefix_cut()` never crosses a worker
    /// boundary. (Under `Hash` this is 0 — nothing is guaranteed.)
    pub fn prefix_cut(&self) -> u8 {
        match self.policy {
            ShardPolicy::Hash => 0,
            ShardPolicy::Prefix => self.shift as u8,
        }
    }

    /// The worker that owns vertex `bits`. Stable across runs for a
    /// given `(policy, r, workers, seed)` tuple.
    pub fn owner_of(&self, bits: u64) -> u32 {
        match self.policy {
            ShardPolicy::Hash => {
                (stable_hash64_seeded(&bits.to_le_bytes(), self.seed) % u64::from(self.workers))
                    as u32
            }
            ShardPolicy::Prefix => {
                ((((bits >> self.shift) + self.rot) & self.mask) % u64::from(self.workers)) as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_deterministic_and_in_range() {
        let map = ShardMap::new(8, 42);
        let again = ShardMap::new(8, 42);
        for bits in 0..4096u64 {
            let owner = map.owner_of(bits);
            assert!(owner < 8);
            assert_eq!(owner, again.owner_of(bits));
        }
    }

    #[test]
    fn single_worker_owns_everything() {
        let map = ShardMap::new(1, 7);
        assert!((0..1024).all(|b| map.owner_of(b) == 0));
        let map = ShardMap::with_policy(ShardPolicy::Prefix, 10, 1, 7);
        assert!((0..1024).all(|b| map.owner_of(b) == 0));
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let map = ShardMap::new(0, 7);
        assert_eq!(map.workers(), 1);
        assert_eq!(map.owner_of(123), 0);
    }

    #[test]
    fn shards_spread_reasonably() {
        // Not a statistical test — just a guard against a degenerate
        // map that parks whole cubes on one worker.
        let map = ShardMap::new(4, 42);
        let mut counts = [0usize; 4];
        for bits in 0..1024u64 {
            counts[map.owner_of(bits) as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 128),
            "degenerate spread: {counts:?}"
        );
    }

    #[test]
    fn different_seeds_shuffle_placement() {
        let a = ShardMap::new(4, 1);
        let b = ShardMap::new(4, 2);
        let moved = (0..1024u64)
            .filter(|&v| a.owner_of(v) != b.owner_of(v))
            .count();
        assert!(moved > 256, "only {moved} of 1024 vertices moved");
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

    #[test]
    fn prefix_policy_keeps_subtrees_on_one_owner() {
        // Issue-8 property: under the prefix policy, every vertex in a
        // subtree region maps to the subtree root's owner whenever the
        // entry dimension sits at or below the prefix cut.
        const R: u8 = 8;
        for workers in [2u32, 3, 4, 8] {
            for seed in [1u64, 42, 0xBEEF] {
                let map = ShardMap::with_policy(ShardPolicy::Prefix, R, workers, seed);
                let cut = map.prefix_cut();
                assert!(cut > 0, "r=8 leaves headroom below the prefix");
                for bits in 0..(1u64 << R) {
                    for via in 0..=cut {
                        let mut members = Vec::new();
                        subtree_members(bits, via, &mut members);
                        for &m in &members {
                            assert_eq!(
                                map.owner_of(m),
                                map.owner_of(bits),
                                "subtree ({bits:#b}, via {via}) split across shards \
                                 at member {m:#b} (workers={workers} seed={seed})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_policy_spread_is_non_degenerate_across_seeds() {
        // Issue-8 property: each shard owns strictly more than
        // 1/(2·workers) of the vertex space, for power-of-two and odd
        // worker counts alike, across seeds.
        const R: u8 = 8;
        let total = 1usize << R;
        for workers in [2u32, 3, 4, 5, 8] {
            for seed in [1u64, 2, 42, 0xF00D, 0xBEEF] {
                let map = ShardMap::with_policy(ShardPolicy::Prefix, R, workers, seed);
                let mut counts = vec![0usize; workers as usize];
                for bits in 0..total as u64 {
                    counts[map.owner_of(bits) as usize] += 1;
                }
                let floor = total / (2 * workers as usize);
                assert!(
                    counts.iter().all(|&c| c > floor),
                    "degenerate prefix spread (workers={workers} seed={seed}): {counts:?}"
                );
            }
        }
    }

    #[test]
    fn policy_names_roundtrip() {
        for policy in [ShardPolicy::Hash, ShardPolicy::Prefix] {
            assert_eq!(ShardPolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(ShardPolicy::parse("nope"), None);
        assert_eq!(ShardPolicy::default(), ShardPolicy::Prefix);
    }
}

//! The vertex→DHT mapping `g` (§3.2).
//!
//! The hypercube is conceptual: each logical vertex is played by a
//! physical DHT node. `g` hashes the vertex onto the identifier ring;
//! the ring's surrogate rule then picks the live node. When `r` is
//! large relative to the node count, many vertices share one physical
//! node (load balanced by the uniform hash); when `r` is small, only a
//! subset of physical nodes serve as index nodes — the paper's leeway
//! for "selecting stable/powerful nodes".

use hyperdex_dht::keyhash::stable_hash_u64;
use hyperdex_dht::{NodeId, Ring};
use hyperdex_hypercube::Vertex;

/// Seed-space tag separating `g` from other hash families.
const VERTEX_MAP_TAG: u64 = 0x474D_4150; // "GMAP"

/// The uniform mapping from hypercube vertices to ring keys.
///
/// # Example
///
/// ```
/// use hyperdex_core::VertexMap;
/// use hyperdex_hypercube::{Shape, Vertex};
///
/// let map = VertexMap::new(0);
/// let shape = Shape::new(10)?;
/// let v = Vertex::from_bits(shape, 0b1010)?;
/// assert_eq!(map.ring_key(v), map.ring_key(v), "deterministic");
/// # Ok::<(), hyperdex_hypercube::DimensionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexMap {
    seed: u64,
}

impl VertexMap {
    /// Creates a mapping with the given hash-family seed.
    pub const fn new(seed: u64) -> Self {
        VertexMap { seed }
    }

    /// The ring key `g(v)` for a vertex.
    ///
    /// The vertex's shape participates in the hash, so the same bit
    /// pattern in different-dimension hypercubes maps independently
    /// (needed by decomposed indexes sharing one ring).
    pub fn ring_key(self, vertex: Vertex) -> NodeId {
        let mixed = vertex.bits() ^ (u64::from(vertex.shape().r()) << 56);
        NodeId::from_raw(stable_hash_u64(mixed, self.seed ^ VERTEX_MAP_TAG))
    }

    /// The live physical node playing `vertex`: `S(g(v))`.
    ///
    /// Returns `None` on an empty ring.
    pub fn physical_node(self, vertex: Vertex, ring: &Ring) -> Option<NodeId> {
        ring.surrogate(self.ring_key(vertex))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdex_hypercube::Shape;

    fn v(r: u8, bits: u64) -> Vertex {
        Vertex::from_bits(Shape::new(r).unwrap(), bits).unwrap()
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = VertexMap::new(1);
        let b = VertexMap::new(2);
        let vx = v(10, 0b1100);
        assert_eq!(a.ring_key(vx), a.ring_key(vx));
        assert_ne!(a.ring_key(vx), b.ring_key(vx));
    }

    #[test]
    fn different_shapes_map_independently() {
        let m = VertexMap::new(0);
        assert_ne!(m.ring_key(v(10, 0b11)), m.ring_key(v(12, 0b11)));
    }

    #[test]
    fn spreads_vertices_over_ring() {
        // All 1024 vertices of H_10 should spread over the ring rather
        // than clump: check both halves of the id space get a fair share.
        let m = VertexMap::new(0);
        let half = u64::MAX / 2;
        let low = (0..1024u64)
            .filter(|&bits| m.ring_key(v(10, bits)) < NodeId::from_raw(half))
            .count();
        assert!((400..=624).contains(&low), "low half got {low}/1024");
    }

    #[test]
    fn physical_node_uses_surrogate() {
        let m = VertexMap::new(0);
        let vx = v(8, 0b101);
        let key = m.ring_key(vx);
        let mut ring = Ring::new();
        ring.join(NodeId::from_raw(0));
        ring.join(NodeId::from_raw(u64::MAX / 2));
        assert_eq!(m.physical_node(vx, &ring), ring.surrogate(key));
        assert_eq!(m.physical_node(vx, &Ring::new()), None);
    }

    #[test]
    fn many_vertices_to_few_nodes_balances() {
        // r = 12 (4096 vertices) onto 8 physical nodes: every node
        // should serve some vertices, none should dominate.
        let m = VertexMap::new(3);
        let mut ring = Ring::new();
        for i in 0..8u64 {
            ring.join(NodeId::from_raw(hyperdex_dht::keyhash::stable_hash_u64(
                i, 42,
            )));
        }
        let mut counts = std::collections::HashMap::new();
        for bits in 0..4096u64 {
            let node = m.physical_node(v(12, bits), &ring).unwrap();
            *counts.entry(node).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 8, "every node plays some vertices");
    }
}

//! The keyword hash `h` and the set-to-vertex mapping `F_h` (§3.3).
//!
//! `h : W → {0..r-1}` uniformly maps each keyword to a bit position;
//! `F_h(K)` is the vertex whose one-bits are `{h(w) | w ∈ K}`. Distinct
//! keywords may collide on a position — the scheme tolerates this (a
//! node is simply "responsible for more than one keyword set") — and the
//! probability analysis of Equation (1) quantifies it.

use hyperdex_dht::keyhash::stable_hash64_seeded;
use hyperdex_hypercube::{Shape, Vertex};

use crate::error::Error;
use crate::keyword::{KeywordRef, KeywordSet};

/// The hash family mapping keywords to hypercube bit positions.
///
/// Two hashers with the same `(r, seed)` agree on every keyword, so all
/// peers in a deployment derive identical placements — the property the
/// paper's deterministic search rests on.
///
/// # Example
///
/// ```
/// use hyperdex_core::{KeywordHasher, KeywordSet};
///
/// let hasher = KeywordHasher::new(10, 0)?;
/// let k = KeywordSet::parse("jazz piano")?;
/// let v = hasher.vertex_for(&k);
/// assert!(v.one_count() <= 2, "at most one bit per keyword");
/// assert_eq!(v, hasher.vertex_for(&k), "deterministic");
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeywordHasher {
    shape: Shape,
    seed: u64,
}

/// Seed-space tag separating keyword hashing from other hash families.
const KEYWORD_SEED_TAG: u64 = 0x4B57_4849; // "KWHI"

impl KeywordHasher {
    /// Creates a hasher for an `r`-dimensional hypercube.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] unless `1 ≤ r ≤ 63`.
    pub fn new(r: u8, seed: u64) -> Result<Self, Error> {
        Ok(KeywordHasher {
            shape: Shape::new(r)?,
            seed,
        })
    }

    /// The hypercube shape this hasher targets.
    pub const fn shape(self) -> Shape {
        self.shape
    }

    /// `h(w)`: the bit position of a keyword.
    pub fn position(self, keyword: KeywordRef<'_>) -> u8 {
        let h = stable_hash64_seeded(keyword.as_bytes(), self.seed ^ KEYWORD_SEED_TAG);
        (h % u64::from(self.shape.r())) as u8
    }

    /// `F_h(K)`: the vertex responsible for keyword set `K`.
    ///
    /// The empty set maps to the all-zero vertex (whose induced subcube
    /// is the entire hypercube — "browse everything").
    pub fn vertex_for(self, keywords: &KeywordSet) -> Vertex {
        let mut bits = 0u64;
        for k in keywords {
            bits |= 1u64 << self.position(k);
        }
        Vertex::from_bits(self.shape, bits).expect("positions are < r by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyword::Keyword;

    fn hasher(r: u8) -> KeywordHasher {
        KeywordHasher::new(r, 0).unwrap()
    }

    fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    #[test]
    fn positions_in_range() {
        let h = hasher(10);
        for word in ["mp3", "news", "isp", "download", "jazz", "piano"] {
            let k = Keyword::new(word).unwrap();
            assert!(h.position(k.view()) < 10);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let h1 = KeywordHasher::new(12, 7).unwrap();
        let h2 = KeywordHasher::new(12, 7).unwrap();
        let k = set("distributed hash table");
        assert_eq!(h1.vertex_for(&k), h2.vertex_for(&k));
    }

    #[test]
    fn seed_changes_placement() {
        let k = set("alpha beta gamma delta epsilon zeta");
        let v1 = KeywordHasher::new(16, 1).unwrap().vertex_for(&k);
        let v2 = KeywordHasher::new(16, 2).unwrap().vertex_for(&k);
        assert_ne!(v1, v2, "different hash families");
    }

    #[test]
    fn empty_set_maps_to_zero_vertex() {
        let h = hasher(8);
        assert_eq!(h.vertex_for(&KeywordSet::new()).bits(), 0);
    }

    #[test]
    fn one_count_bounded_by_set_size() {
        let h = hasher(10);
        for m in 1..8 {
            let words: Vec<String> = (0..m).map(|i| format!("word{i}")).collect();
            let k = KeywordSet::from_strs(&words).unwrap();
            let v = h.vertex_for(&k);
            assert!(v.one_count() as usize <= m);
            assert!(v.one_count() >= 1);
        }
    }

    #[test]
    fn superset_of_keywords_gives_containing_vertex() {
        // The geometric heart of the scheme: K ⊆ K' ⇒ F(K') contains F(K).
        let h = hasher(12);
        let k = set("jazz");
        let k_sup = set("jazz piano 1959");
        assert!(h.vertex_for(&k_sup).contains(h.vertex_for(&k)));
    }

    #[test]
    fn distribution_roughly_uniform_over_positions() {
        let h = hasher(8);
        let mut counts = [0u32; 8];
        for i in 0..8000 {
            let k = Keyword::new(&format!("kw{i}")).unwrap();
            counts[h.position(k.view()) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "position {i}: {c}");
        }
    }

    #[test]
    fn rejects_bad_dimension() {
        assert!(KeywordHasher::new(0, 0).is_err());
        assert!(KeywordHasher::new(64, 0).is_err());
    }
}

//! # hyperdex-hypercube
//!
//! The *r*-dimensional hypercube vector space of §3.1 of *Keyword Search
//! in DHT-based Peer-to-Peer Networks* (Joung, Fang & Yang, ICDCS 2005).
//!
//! The paper indexes each object at the hypercube vertex whose `1`-bits
//! are the hashed positions of the object's keywords. Superset search
//! then explores the *subhypercube induced by* the query vertex along a
//! *spanning binomial tree*. This crate provides those structures as pure,
//! allocation-light data types:
//!
//! * [`Shape`] — the hypercube dimensionality `r` (1..=63).
//! * [`Vertex`] — an `r`-bit vertex with the paper's `One`/`Zero`/
//!   containment/Hamming operations.
//! * [`Subcube`] — the induced subhypercube `H_r(u)` (Definition 3.1).
//! * [`Sbt`] — spanning binomial trees `SBT(u)` and `SBT_{H_r}(u)`
//!   (Definition 3.2), with levels and BFS traversal; a node's children
//!   come from Lemma 3.2's one rule, [`sbt::child_dims`], which every
//!   walk of the tree shares.
//!
//! # Example
//!
//! ```
//! use hyperdex_hypercube::{Shape, Vertex};
//!
//! let shape = Shape::new(4)?;
//! let u = Vertex::from_bits(shape, 0b0100)?;
//! let v = Vertex::from_bits(shape, 0b0110)?;
//! assert!(v.contains(u));              // One(u) ⊆ One(v)
//! assert_eq!(u.subcube().len(), 8);    // H_4(0100) ≅ H_3
//! # Ok::<(), hyperdex_hypercube::DimensionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod sbt;
pub mod shape;
pub mod subcube;
pub mod vertex;

pub use sbt::Sbt;
pub use shape::{DimensionError, Shape};
pub use subcube::Subcube;
pub use vertex::Vertex;

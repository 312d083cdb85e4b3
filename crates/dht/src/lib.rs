//! # hyperdex-dht
//!
//! A Chord-like distributed hash table implementing the *generalized DHT
//! model* of §2.1 of *Keyword Search in DHT-based Peer-to-Peer Networks*
//! (Joung, Fang & Yang, ICDCS 2005):
//!
//! * an `a`-bit identifier ring ([`NodeId`], here `a = 64`),
//! * a deterministic object→node mapping `L` ([`keyhash`]),
//! * **surrogate routing**: absent IDs are served by their ring successor
//!   ([`Ring::surrogate`]),
//! * greedy finger-table routing with `O(log n)` hops ([`Router`]),
//! * the DOLR operations `Insert` / `Delete` / `Read` over per-node
//!   reference stores ([`Dolr`]),
//! * and node churn with reference handover and successor-list
//!   replication ([`Ring`], [`Dolr`]).
//!
//! The keyword-search layer (`hyperdex-core`) maps hypercube vertices
//! onto this ring; the paper's scheme works over any DHT satisfying this
//! model.
//!
//! # Example
//!
//! ```
//! use hyperdex_dht::{Dolr, ObjectId, NodeId};
//!
//! // A 64-node ring with replication factor 1 (no replicas).
//! let mut dht = Dolr::builder().nodes(64).seed(7).build();
//! let obj = ObjectId::from_name("the-white-album");
//! let publisher = dht.random_node();
//! let receipt = dht.insert(publisher, obj, publisher);
//! assert!(receipt.hops <= 16, "O(log n) routing");
//! let read = dht.read(publisher, obj).expect("just inserted");
//! assert_eq!(read.refs[0].owner, publisher);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dolr;
pub mod finger;
pub mod id;
pub mod keyhash;
pub mod ring;
pub mod routing;

pub use dolr::{Dolr, DolrBuilder, ObjectId, ObjectRef, ReadResult, Receipt};
pub use id::NodeId;
pub use keyhash::{stable_hash64, stable_hash64_seeded};
pub use ring::Ring;
pub use routing::Router;

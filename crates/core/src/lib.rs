//! **Secure Yannakakis** — the paper's primary contribution (§6).
//!
//! A two-party protocol evaluating any free-connex join-aggregate query
//! with Õ(IN + OUT) time and communication, revealing nothing beyond the
//! query results. Both parties run the *same* driver over the public query
//! plan; all data-dependent state lives in owner-held tuple lists and
//! secret-shared annotations.
//!
//! Layout (one module per §6 subsection):
//! * [`session`] — per-party protocol state: channel, ring, hasher, and
//!   both directions of OT/OPRF machinery, set up once and amortized.
//! * [`srel`] — [`srel::SecureRelation`]: tuples held by one party,
//!   annotations additively shared, dummies tracked owner-side.
//! * [`agg`] — oblivious projection-aggregation π⊕ and π¹ (§6.1): local
//!   sort + shared OEP + a merge-gate garbled circuit.
//! * [`semijoin`] — the reduce-join R_F ⋈⊗ R_{F'} (F′ ⊆ F) and the
//!   annotated semijoin R_F ⋉⊗ R_{F'} (§6.2), in cross-party (via PSI
//!   with secret-shared payloads) and same-party (via OEP only) variants.
//! * [`join`] — the oblivious join (§6.3): reveal nonzero support, local
//!   Yannakakis join, OEP + product circuit for the annotations.
//! * [`protocol`] — the three-phase driver (§6.4) with the §6.5
//!   optimizations (local aggregation and plain-payload PSI while
//!   annotations are still owner-known).
//! * [`ext`] — §7 extensions: selection handling, query composition
//!   (avg/ratio via a final division circuit), and differentially private
//!   noise on revealed aggregates.

pub mod agg;
pub mod ext;
pub mod join;
pub mod preproc;
pub mod protocol;
pub mod query;
pub mod semijoin;
pub mod session;
pub mod shape;
pub mod srel;

pub use preproc::{
    run_offline, run_online, run_online_leftover, run_online_pooled, PreprocPool, QueryMaterial,
};
pub use protocol::{secure_yannakakis, QueryResult};
pub use query::SecureQuery;
/// Intra-party data parallelism (deterministic worker pool); see the
/// `secyan-par` crate and DESIGN.md §9.
pub use secyan_par as par;
pub use session::Session;
pub use shape::{PlannedCircuit, QueryShape, ShapeKey};
pub use srel::SecureRelation;

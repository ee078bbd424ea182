//! Garbled circuits: free-XOR + half-gates, as a two-party protocol.
//!
//! The secure Yannakakis protocol never garbles a whole query (that is the
//! SMCQL approach the paper improves on); it garbles *small* circuits at
//! precise points — aggregation merge gates, annotation multiplication,
//! PSI equality tests, average/ratio post-processing — and stitches them
//! together with secret sharing and OEP. This crate is that garbling
//! engine:
//!
//! * [`scheme`] — the garbling scheme itself (free-XOR, half-gates AND,
//!   point-and-permute), independent of any channel: garble to tables,
//!   evaluate tables. Property-tested against the plaintext evaluator.
//! * [`protocol`] — the two-party wrapper: table + input-label transfer,
//!   evaluator inputs via label OTs on the garbler's own IKNP correlation
//!   (its Δ is the IKNP sender's `s`), and output decoding toward either
//!   or both parties.
//! * [`shares`] — Yao-to-arithmetic conversion (paper §5.2): circuits whose
//!   outputs are ℓ-bit ring words masked by garbler-chosen randomness so
//!   the cleartext never materializes; the parties end with additive
//!   shares mod 2^ℓ. Only the garbler has a shared-output path of its own
//!   (it draws the masks); the evaluator runs the plain evaluator and
//!   reads its output bits as ℓ-bit words.

pub mod protocol;
pub mod scheme;
pub mod shares;

pub use protocol::{
    evaluate_banked, evaluate_begin, evaluate_circuit, evaluate_finish, evaluate_offline,
    evaluator_ot_count, garble_banked, garble_circuit, garble_offline, EvalMaterial, EvalPending,
    GarbleMaterial,
};
pub use scheme::{EvalTables, Garbling};
pub use shares::{
    evaluate_shared, garble_shared, garble_shared_banked, with_shared_outputs, with_shared_rows,
    SharedOutputSpec,
};

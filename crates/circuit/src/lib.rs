//! Boolean circuit IR, builder and gadget library.
//!
//! The paper evaluates small garbled circuits at key points of the secure
//! Yannakakis protocol (§5.2, §6.1–6.3): merge gates for oblivious
//! aggregation, ⊗-multiplication of shared annotations, equality tests in
//! circuit PSI, and the Yao-to-arithmetic share conversion. This crate
//! defines the circuit representation those protocols garble, a builder
//! with the standard word-level gadgets (ripple-carry adders, multipliers,
//! comparators, muxes), and a plaintext evaluator used as the correctness
//! oracle for the garbling scheme.
//!
//! Design notes:
//! * Gates are restricted to XOR / AND / INV. XOR and INV are free under
//!   free-XOR garbling; AND costs two ciphertexts (half-gates), so
//!   [`Circuit::and_count`] is the cost model the benchmark extrapolations
//!   use.
//! * The builder tracks constants and inversions symbolically
//!   ([`BitRef`]) and folds them, so the emitted circuit contains no
//!   constant wires and materializes an INV only when a non-XOR consumer
//!   needs it.
//! * Words are little-endian bit vectors over Z_{2^ℓ}; all arithmetic wraps
//!   mod 2^ℓ, matching the annotation ring of `secyan-crypto::share`.

mod builder;
mod eval;
mod gadgets;
mod ir;
mod rows;

pub use builder::{BitRef, Builder, Word};
pub use eval::{bits_to_u64, bits_to_words, evaluate, u64_to_bits, words_to_bits};
pub use ir::{AndRef, Circuit, CircuitStats, Col, Gate, Level, Port, Segment};
pub use rows::Rows;

//! Circuit-based private set intersection with payloads (paper §5.3, §5.5).
//!
//! The PSI flavour the secure Yannakakis protocol needs is unusual: the
//! intersection must *not* be revealed. Instead, for each bin of the
//! receiver's cuckoo table the parties end with secret shares of
//! `Ind(x_b ∈ Y)` and of the matching payload (or 0). This follows Pinkas
//! et al.'s circuit-PSI blueprint, which the paper adopted for exactly this
//! "circuit-friendliness".
//!
//! Layers:
//! * [`hashing`] — cuckoo hashing on the receiver side (3 hash functions,
//!   B = ⌈1.27·M⌉ bins, per the paper's footnote), simple hashing on the
//!   sender side, and the public bin-size bound that keeps padding
//!   oblivious.
//! * [`opprf`] — oblivious *programmable* PRF: KKRT OPRF plus per-bin
//!   polynomial hints over GF(2^64).
//! * [`circuit_psi`] — the front half both flavours share (seed
//!   negotiation, capped at a few attempts, then the membership OPPRF and a
//!   second OPPRF, written once per side) and the §5.3 protocol on top of
//!   it: the second OPPRF carries the sender's plain payloads and one
//!   garbled circuit turns the OPPRF outputs into shares of indicator and
//!   payload.
//! * [`shared_payload`] — the §5.5 protocol for payloads that are
//!   themselves secret-shared: the same front half with the second OPPRF
//!   carrying a routing index, between two OEPs and a k-index-revealing
//!   garbled circuit, exactly as the paper constructs it.
//!
//! A receiver is `psi_receiver_begin` or `shared_payload_psi_receiver_begin`
//! — both return a [`PsiReceiverPending`] with the cuckoo table already
//! known and everything outbound staged — then the one
//! [`psi_receiver_finish`]; a sender is `psi_sender` or
//! `shared_payload_psi_sender`. [`psi_cost`] is what either flavour draws.

pub mod circuit_psi;
pub mod hashing;
pub mod opprf;
pub mod shared_payload;

pub use circuit_psi::{
    matching_circuit, psi_cost, psi_params, psi_receiver, psi_receiver_begin, psi_receiver_finish,
    psi_sender, PsiCost, PsiOutput, PsiParams, PsiReceiverPending,
};
pub use hashing::{bin_count, max_bin_size, CuckooTable, SimpleTable};
pub use opprf::{
    opprf_evaluate, opprf_evaluate_begin, opprf_evaluate_finish, opprf_program,
    opprf_program_with_key, OpprfEval, PsiItem,
};
pub use shared_payload::{k_circuit, shared_payload_psi_receiver_begin, shared_payload_psi_sender};

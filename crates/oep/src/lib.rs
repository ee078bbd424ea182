//! Oblivious Extended Permutation (paper §5.4, Mohassel–Sadeghian).
//!
//! The "glue" of the secure Yannakakis protocol: Alice holds an extended
//! permutation ξ : \[N\] → \[M\] (a map from output positions to input
//! positions, duplicates and drops allowed); Bob holds a value vector
//! x₁..x_M. OEP delivers fresh additive shares of y_i = x_{ξ(i)} without
//! revealing ξ to Bob or x to Alice.
//!
//! Construction, bottom-up:
//! * [`network`] — arbitrary-size Waksman permutation networks, on exactly
//!   the wires a stage needs, with the looping routing algorithm, plus the
//!   permute–duplicate–permute decomposition of an extended permutation,
//!   each stage at its own size.
//! * [`osn`] — the oblivious switching network: one correlated word OT
//!   per switch translates Bob's additively masked values through the
//!   network while only Alice knows the switch settings. Õ(M + N) total
//!   cost.
//! * [`protocol`] — the user-facing OEP over a secret-shared x (the case
//!   the paper needs for intermediate annotations); plain OEP, where Bob
//!   knows x, is the same call with all-zero shares on Alice's side.

pub mod network;
pub mod osn;
pub mod protocol;

pub use network::{EpNetwork, PermNetwork};
pub use protocol::{
    oep_ot_count, shared_oep_other, shared_oep_perm_holder, shared_oep_perm_holder_begin,
    shared_oep_perm_holder_finish, OepPending,
};

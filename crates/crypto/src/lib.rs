//! Cryptographic primitives for the secure Yannakakis workspace.
//!
//! Everything here is implemented from scratch (per the reproduction brief):
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, used for base-OT key derivation,
//!   hashing elements into PSI bins and OPPRF points, and public digests
//!   (shape keys, test transcripts).
//! * [`block`] — 128-bit blocks, the unit of wire labels and OT messages.
//! * [`mersenne`] — arithmetic in Z_p, p = 2^127 − 1, whose multiplicative
//!   group hosts the Chou–Orlandi base OT. Simulation-grade (see DESIGN.md).
//! * [`gf64`] — the binary field GF(2^64) plus polynomial interpolation,
//!   used by the OPPRF hint encoding in circuit PSI.
//! * [`cpu`] — the single runtime feature probe behind every SIMD kernel
//!   (SSE2 movemask transpose, `pclmulqdq` multiply, 8-wide AES-NI), with a
//!   `SECYAN_FORCE_SCALAR` override for differential testing.
//! * [`transpose`] — bit-matrix transposition for IKNP OT extension.
//! * [`share`] — additive secret sharing over Z_{2^ℓ} (§5.1 of the paper).
//! * [`aes`] — a from-scratch fixed-key AES-128 kernel (FIPS-197), the
//!   permutation behind the tweakable hash.
//! * [`hashers`] — the tweakable correlation-robust hash of garbling, OT
//!   extension and the KKRT OPRF: fixed-key AES in the MMO construction.
//!   In counter mode it is also the stream that expands each seed-OT key
//!   into an OT-extension column ([`TweakHasher::stream_into`]).
//! * [`secret`] — typed secrets ([`Secret`], [`SecretBlock`]) with
//!   zeroize-on-drop and no `Debug`, plus branchless [`CtEq`]/[`CtSelect`]
//!   primitives; enforced across the workspace by `cargo xtask ct-lint`.

pub mod aes;
pub mod block;
pub mod cpu;
pub mod gf64;
pub mod hashers;
pub mod mersenne;
pub mod secret;
pub mod sha256;
pub mod share;
pub mod transpose;

pub use block::Block;
pub use hashers::{TweakHasher, STREAM_DOMAIN};
pub use secret::{zeroize_bytes, CtChoice, CtEq, CtSelect, Secret, SecretBlock, Zeroize};
pub use share::RingCtx;

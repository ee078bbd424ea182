//! Typed secret values and branchless (constant-time) primitives.
//!
//! The security argument of the secure Yannakakis protocol assumes the
//! two-party substrate leaks nothing beyond message sizes. A from-scratch
//! implementation can silently break that through side channels: branching
//! on choice bits, short-circuiting `==` on key material, or `Debug`-printing
//! wire labels into logs. This module gives the rest of the workspace the
//! vocabulary to rule those out *by type*:
//!
//! * [`Secret<T>`] — a newtype that refuses `Debug`/`Display`/`PartialEq`,
//!   zeroizes its contents on drop, and only yields the inner value through
//!   an explicit [`Secret::expose`] call (so every declassification point is
//!   greppable and visible to `cargo xtask ct-lint`);
//! * [`SecretBlock`] — `Secret<Block>`, the type of OT pads, base-OT seeds,
//!   and garbled-circuit key material at API boundaries;
//! * [`CtEq`] / [`CtSelect`] / [`CtChoice`] — branchless equality and
//!   selection, the replacements the `ct-lint` pass demands wherever derived
//!   `PartialEq` or data-dependent `if` used to touch secrets.
//!
//! The branchless primitives are written in the style of the `subtle` crate:
//! all-ones/all-zeros masks derived from a `u8` choice, with
//! [`core::hint::black_box`] applied to the mask so the optimizer does not
//! re-introduce the very branches we are eliminating. This is best-effort
//! constant time — Rust gives no hard guarantee — but it removes every
//! secret-dependent branch and short-circuit at the source level, which is
//! what the static pass checks.

use crate::block::Block;
use core::hint::black_box;

// ---------------------------------------------------------------------------
// Zeroization
// ---------------------------------------------------------------------------

/// Overwrite a value with zeros through a volatile pointer so the write is
/// not elided even when the value is dead (i.e. in `Drop`).
pub trait Zeroize {
    /// Overwrite `self` with zeros.
    fn zeroize(&mut self);
}

/// Volatile-fill a byte slice with zeros, with a compiler fence so the
/// stores are ordered before the memory is released.
pub fn zeroize_bytes(bytes: &mut [u8]) {
    for b in bytes.iter_mut() {
        // SAFETY: `b` is a valid, aligned, exclusive reference for the
        // duration of the write; volatile stops the dead-store elimination.
        unsafe { core::ptr::write_volatile(b, 0) };
    }
    core::sync::atomic::compiler_fence(core::sync::atomic::Ordering::SeqCst);
}

macro_rules! impl_zeroize_int {
    ($($t:ty),*) => {$(
        impl Zeroize for $t {
            fn zeroize(&mut self) {
                // SAFETY: exclusive, valid, aligned reference.
                unsafe { core::ptr::write_volatile(self, 0) };
                core::sync::atomic::compiler_fence(core::sync::atomic::Ordering::SeqCst);
            }
        }
    )*};
}

impl_zeroize_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Zeroize for bool {
    fn zeroize(&mut self) {
        // SAFETY: exclusive, valid, aligned reference; `false` is a valid bool.
        unsafe { core::ptr::write_volatile(self, false) };
        core::sync::atomic::compiler_fence(core::sync::atomic::Ordering::SeqCst);
    }
}

impl Zeroize for Block {
    fn zeroize(&mut self) {
        self.0.zeroize();
    }
}

impl<T: Zeroize, const N: usize> Zeroize for [T; N] {
    fn zeroize(&mut self) {
        for x in self.iter_mut() {
            x.zeroize();
        }
    }
}

impl<T: Zeroize> Zeroize for Vec<T> {
    fn zeroize(&mut self) {
        for x in self.iter_mut() {
            x.zeroize();
        }
        // Dropping the elements after zeroizing is fine; shrinking is not —
        // the old tail would survive in the allocation. Keep length as-is.
    }
}

impl<T: Zeroize, U: Zeroize> Zeroize for (T, U) {
    fn zeroize(&mut self) {
        self.0.zeroize();
        self.1.zeroize();
    }
}

// ---------------------------------------------------------------------------
// Branchless choice
// ---------------------------------------------------------------------------

/// A boolean intended for branchless use: 0 or 1 in a `u8`.
///
/// Unlike `bool`, a `CtChoice` does not implement the comparison/branch sugar
/// that tempts secret-dependent control flow; converting back to `bool`
/// requires the explicit, greppable [`CtChoice::to_bool`].
#[derive(Clone, Copy)]
pub struct CtChoice(u8);

impl CtChoice {
    /// The false choice.
    pub const FALSE: CtChoice = CtChoice(0);
    /// The true choice.
    pub const TRUE: CtChoice = CtChoice(1);

    /// Build from a `bool` (no branch: `bool as u8` is a move).
    #[inline]
    pub fn from_bool(b: bool) -> CtChoice {
        CtChoice(b as u8)
    }

    /// Build from the least-significant bit of a word.
    #[inline]
    pub fn from_lsb(v: u8) -> CtChoice {
        CtChoice(v & 1)
    }

    /// The wrapped 0/1 value.
    #[inline]
    pub fn unwrap_u8(self) -> u8 {
        self.0
    }

    /// Explicit declassification to a branchable `bool`. Call sites of this
    /// are exactly the places where secret-derived data re-enters control
    /// flow, which is what `ct-lint` audits.
    #[inline]
    pub fn to_bool(self) -> bool {
        self.0 == 1
    }

    /// All-ones (if true) / all-zeros (if false) u128 mask. `black_box`
    /// keeps the optimizer from collapsing the mask back into a branch.
    #[inline]
    pub fn mask_u128(self) -> u128 {
        black_box(0u128.wrapping_sub(self.0 as u128))
    }

    /// All-ones / all-zeros u64 mask.
    #[inline]
    pub fn mask_u64(self) -> u64 {
        black_box(0u64.wrapping_sub(self.0 as u64))
    }

    /// All-ones / all-zeros u8 mask.
    #[inline]
    pub fn mask_u8(self) -> u8 {
        black_box(0u8.wrapping_sub(self.0))
    }

    /// Logical AND (branchless, no short-circuit).
    #[inline]
    pub fn and(self, rhs: CtChoice) -> CtChoice {
        CtChoice(self.0 & rhs.0)
    }

    /// Logical OR (branchless, no short-circuit).
    #[inline]
    pub fn or(self, rhs: CtChoice) -> CtChoice {
        CtChoice(self.0 | rhs.0)
    }
}

/// Logical negation (branchless).
impl std::ops::Not for CtChoice {
    type Output = CtChoice;

    #[inline]
    fn not(self) -> CtChoice {
        CtChoice(self.0 ^ 1)
    }
}

/// Reduce a u128 to a `CtChoice` that is true iff the value is nonzero,
/// without a comparison instruction the compiler could branch on.
#[inline]
fn nonzero_u128(v: u128) -> CtChoice {
    // v | -v has its top bit set iff v != 0.
    let folded = black_box(v | v.wrapping_neg());
    CtChoice((folded >> 127) as u8)
}

// ---------------------------------------------------------------------------
// Branchless equality
// ---------------------------------------------------------------------------

/// Constant-time equality: full-width compare with no short-circuit and no
/// data-dependent branch, returning a [`CtChoice`].
pub trait CtEq {
    /// Branchless `self == other`.
    fn ct_eq(&self, other: &Self) -> CtChoice;

    /// Branchless `self != other`.
    fn ct_ne(&self, other: &Self) -> CtChoice {
        !self.ct_eq(other)
    }
}

macro_rules! impl_ct_eq_int {
    ($($t:ty),*) => {$(
        impl CtEq for $t {
            #[inline]
            fn ct_eq(&self, other: &Self) -> CtChoice {
                !nonzero_u128((self ^ other) as u128)
            }
        }
    )*};
}

impl_ct_eq_int!(u8, u16, u32, u64);

impl CtEq for u128 {
    #[inline]
    fn ct_eq(&self, other: &Self) -> CtChoice {
        !nonzero_u128(self ^ other)
    }
}

impl CtEq for Block {
    #[inline]
    fn ct_eq(&self, other: &Self) -> CtChoice {
        self.0.ct_eq(&other.0)
    }
}

impl CtEq for bool {
    #[inline]
    fn ct_eq(&self, other: &Self) -> CtChoice {
        CtChoice((*self as u8 ^ *other as u8) ^ 1)
    }
}

impl<T: CtEq> CtEq for [T] {
    /// Equality over equal-length slices: the accumulated verdict never
    /// short-circuits, so the running time depends only on the length.
    /// Unequal lengths return false immediately — lengths are public.
    fn ct_eq(&self, other: &Self) -> CtChoice {
        if self.len() != other.len() {
            return CtChoice::FALSE;
        }
        let mut acc = CtChoice::TRUE;
        for (a, b) in self.iter().zip(other.iter()) {
            acc = acc.and(a.ct_eq(b));
        }
        acc
    }
}

impl<T: CtEq, const N: usize> CtEq for [T; N] {
    fn ct_eq(&self, other: &Self) -> CtChoice {
        self.as_slice().ct_eq(other.as_slice())
    }
}

// ---------------------------------------------------------------------------
// Branchless selection
// ---------------------------------------------------------------------------

/// Branchless two-way selection: `ct_select(c, t, f)` returns `t` when `c`
/// is true and `f` otherwise, with no data-dependent control flow.
pub trait CtSelect: Sized {
    /// Return `if_true` when `choice` holds, else `if_false`, branchlessly.
    fn ct_select(choice: CtChoice, if_true: Self, if_false: Self) -> Self;
}

macro_rules! impl_ct_select_int {
    ($($t:ty : $mask:ident),*) => {$(
        impl CtSelect for $t {
            #[inline]
            fn ct_select(choice: CtChoice, if_true: Self, if_false: Self) -> Self {
                let mask = choice.$mask() as $t;
                if_false ^ (mask & (if_true ^ if_false))
            }
        }
    )*};
}

impl_ct_select_int!(u8: mask_u8, u16: mask_u64, u32: mask_u64, u64: mask_u64);

impl CtSelect for u128 {
    #[inline]
    fn ct_select(choice: CtChoice, if_true: Self, if_false: Self) -> Self {
        let mask = choice.mask_u128();
        if_false ^ (mask & (if_true ^ if_false))
    }
}

impl CtSelect for Block {
    #[inline]
    fn ct_select(choice: CtChoice, if_true: Self, if_false: Self) -> Self {
        Block(u128::ct_select(choice, if_true.0, if_false.0))
    }
}

impl Block {
    /// `self` when `choice` holds, else [`Block::ZERO`] — the branchless
    /// replacement for `if bit { acc ^= self }` in garbling hot paths.
    #[inline]
    pub fn ct_masked(self, choice: CtChoice) -> Block {
        Block(self.0 & choice.mask_u128())
    }
}

// ---------------------------------------------------------------------------
// The Secret<T> wrapper
// ---------------------------------------------------------------------------

/// A value that must not leak: no `Debug`, no `Display`, no `PartialEq`,
/// zeroized on drop, and only readable through the explicit [`expose`]
/// escape hatch.
///
/// `Secret<T>` is deliberately inconvenient. Key material, OT pads, choice
/// bits, and wire labels should spend their lifetime inside it; the places
/// that *must* see raw bytes (serialization onto the channel, feeding a
/// kernel) call [`expose`] and thereby mark themselves for audit. The
/// `ct-lint` static pass treats `expose(` call sites as the declassification
/// surface of the codebase.
///
/// [`expose`]: Secret::expose
pub struct Secret<T: Zeroize>(T);

impl<T: Zeroize> Secret<T> {
    /// Wrap a value. The wrapper owns it from here on; the caller should not
    /// keep copies around.
    #[inline]
    pub fn new(value: T) -> Secret<T> {
        Secret(value)
    }

    /// Borrow the inner value. Every call site is a declassification point.
    #[inline]
    pub fn expose(&self) -> &T {
        &self.0
    }

    /// Mutably borrow the inner value (e.g. to fill a freshly allocated
    /// buffer with key material in place).
    #[inline]
    pub fn expose_mut(&mut self) -> &mut T {
        &mut self.0
    }

    /// Unwrap without zeroizing — ownership of the secret transfers to the
    /// caller, who becomes responsible for its lifetime.
    #[inline]
    pub fn into_inner(self) -> T {
        let this = core::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is ManuallyDrop, so the Drop impl (which would
        // zeroize and then drop the inner value) never runs; reading the
        // field out transfers ownership exactly once.
        unsafe { core::ptr::read(&this.0) }
    }

    /// Apply a function to the exposed value and wrap the result.
    #[inline]
    pub fn map_exposed<U: Zeroize>(&self, f: impl FnOnce(&T) -> U) -> Secret<U> {
        Secret(f(&self.0))
    }
}

impl<T: Zeroize + CtEq> Secret<T> {
    /// Branchless equality between two secrets.
    #[inline]
    pub fn ct_eq(&self, other: &Secret<T>) -> CtChoice {
        self.0.ct_eq(&other.0)
    }
}

impl<T: Zeroize> Drop for Secret<T> {
    fn drop(&mut self) {
        self.0.zeroize();
    }
}

impl<T: Zeroize + Clone> Clone for Secret<T> {
    fn clone(&self) -> Self {
        Secret(self.0.clone())
    }
}

impl<T: Zeroize + Default> Default for Secret<T> {
    fn default() -> Self {
        Secret(T::default())
    }
}

impl<T: Zeroize> From<T> for Secret<T> {
    fn from(value: T) -> Self {
        Secret::new(value)
    }
}

/// A 128-bit secret: the type of base-OT seeds, OT pads, PRG seeds, and
/// garbled-circuit key material at API boundaries.
pub type SecretBlock = Secret<Block>;

impl SecretBlock {
    /// Sample a uniform secret block.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> SecretBlock {
        Secret::new(Block::random(rng))
    }

    /// Copy out the inner block. Like [`Secret::expose`], but by value —
    /// for feeding XOR pipelines that consume `Block`s.
    #[inline]
    pub fn expose_block(&self) -> Block {
        *self.expose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_u128_known_answers() {
        assert!(0u128.ct_eq(&0).to_bool());
        assert!(u128::MAX.ct_eq(&u128::MAX).to_bool());
        assert!(!0u128.ct_eq(&1).to_bool());
        assert!(!(1u128 << 127).ct_eq(&0).to_bool());
        assert!((1u128 << 127).ct_ne(&0).to_bool());
    }

    #[test]
    fn ct_eq_exhaustive_u8() {
        // Small-domain exhaustive check: ct_eq agrees with == on all pairs.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(a.ct_eq(&b).to_bool(), a == b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn ct_select_exhaustive_u8() {
        for t in (0..=255u8).step_by(17) {
            for f in (0..=255u8).step_by(13) {
                assert_eq!(u8::ct_select(CtChoice::TRUE, t, f), t);
                assert_eq!(u8::ct_select(CtChoice::FALSE, t, f), f);
            }
        }
    }

    #[test]
    fn ct_select_block_known_answers() {
        let a = Block(0xdead_beef);
        let b = Block(0x1234_5678_9abc_def0);
        assert_eq!(Block::ct_select(CtChoice::TRUE, a, b), a);
        assert_eq!(Block::ct_select(CtChoice::FALSE, a, b), b);
        assert_eq!(a.ct_masked(CtChoice::TRUE), a);
        assert_eq!(a.ct_masked(CtChoice::FALSE), Block::ZERO);
    }

    #[test]
    fn ct_eq_slices() {
        let a = [1u8, 2, 3];
        let b = [1u8, 2, 3];
        let c = [1u8, 2, 4];
        assert!(a.ct_eq(&b).to_bool());
        assert!(!a.ct_eq(&c).to_bool());
        assert!(!a.as_slice().ct_eq(&b[..2]).to_bool());
    }

    #[test]
    fn choice_algebra() {
        assert!(CtChoice::TRUE.and(CtChoice::TRUE).to_bool());
        assert!(!CtChoice::TRUE.and(CtChoice::FALSE).to_bool());
        assert!(CtChoice::TRUE.or(CtChoice::FALSE).to_bool());
        assert!(!CtChoice::FALSE.or(CtChoice::FALSE).to_bool());
        assert!((!CtChoice::FALSE).to_bool());
        assert_eq!(CtChoice::from_lsb(0b10).unwrap_u8(), 0);
        assert_eq!(CtChoice::from_lsb(0b11).unwrap_u8(), 1);
    }

    #[test]
    fn masks_are_all_ones_or_zeros() {
        assert_eq!(CtChoice::TRUE.mask_u128(), u128::MAX);
        assert_eq!(CtChoice::FALSE.mask_u128(), 0);
        assert_eq!(CtChoice::TRUE.mask_u64(), u64::MAX);
        assert_eq!(CtChoice::FALSE.mask_u8(), 0);
    }

    #[test]
    fn secret_expose_roundtrip() {
        let s = Secret::new(Block(42));
        assert_eq!(*s.expose(), Block(42));
        assert_eq!(s.expose_block(), Block(42));
        let inner = s.into_inner();
        assert_eq!(inner, Block(42));
    }

    #[test]
    fn secret_ct_eq() {
        let a = Secret::new(7u64);
        let b = Secret::new(7u64);
        let c = Secret::new(8u64);
        assert!(a.ct_eq(&b).to_bool());
        assert!(!a.ct_eq(&c).to_bool());
    }

    #[test]
    fn zeroize_clears_values() {
        let mut v = 0xdead_beefu64;
        v.zeroize();
        assert_eq!(v, 0);
        let mut arr = [1u8, 2, 3];
        arr.zeroize();
        assert_eq!(arr, [0, 0, 0]);
        let mut blk = Block(99);
        blk.zeroize();
        assert_eq!(blk, Block::ZERO);
        let mut bytes = vec![7u8; 8];
        zeroize_bytes(&mut bytes);
        assert_eq!(bytes, vec![0u8; 8]);
    }

    #[test]
    fn secret_map_and_clone() {
        let s = Secret::new(3u64);
        let doubled = s.map_exposed(|v| v * 2);
        assert_eq!(*doubled.expose(), 6);
        #[allow(clippy::redundant_clone)]
        let cloned = s.clone();
        assert_eq!(*cloned.expose(), 3);
    }
}

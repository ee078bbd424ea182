//! Unified CPU feature dispatch for the SIMD kernel layer.
//!
//! Every accelerated kernel in this crate — the SSE2 movemask bit-matrix
//! transpose ([`crate::transpose`]), the `pclmulqdq` GF(2^64) multiply
//! ([`crate::gf64`]) and the 8-wide AES-NI pipeline
//! ([`crate::aes`], under every garbled gate, OT pad and OT-extension
//! column) — has one vector arm beside its scalar reference and
//! selects between them through this one module. Centralizing the probe
//! buys three things:
//!
//! 1. **One probe.** CPUID runs once (per feature set, cached in a
//!    `OnceLock`); the transpose and AES kernels pay a single relaxed
//!    atomic load per *batch* call, the GF(2^64) multiply one per
//!    multiply.
//! 2. **One override.** `SECYAN_FORCE_SCALAR=1` in the environment (read
//!    at first use) or [`set_force_scalar`] (takes effect immediately,
//!    for in-process differential tests) disables every SIMD path at
//!    once, so the portable arm of each kernel stays continuously
//!    exercised — in CI as a dedicated job, under Miri (which cannot
//!    execute vendor intrinsics), and in the scalar-vs-SIMD equivalence
//!    suites.
//! 3. **One determinism argument.** All kernels are bit-exact across
//!    arms (enforced by tests), so dispatch affects speed only — wire
//!    transcripts never depend on the CPU, the override, or the thread
//!    count. It is also a correctness requirement: both parties expand
//!    the same OT-extension columns from the same seeds, so a kernel
//!    whose arms computed different functions (say, an AES stream on
//!    one CPU and another cipher on the next) would break the protocol
//!    between two hosts with different CPUs.
//!
//! Dispatch state is *public* in the protocol's threat model: which CPU
//! runs a party is not a secret input, so branching on [`Features`] is
//! not a constant-time violation (and `cargo xtask ct-lint` agrees — no
//! secret ever flows into this module).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The instruction-set extensions the kernel layer can use. All fields
/// are `false` on non-x86_64 targets and whenever scalar operation is
/// forced, so call sites need no `cfg` of their own to stay portable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Features {
    /// SSE2 (128-bit integer ops; `movemask` transpose kernel).
    pub sse2: bool,
    /// Carry-less multiply (`pclmulqdq`; GF(2^64) kernels).
    pub pclmulqdq: bool,
    /// AES round instructions (`aesenc`; fixed-key hashing kernels).
    pub aes: bool,
}

impl Features {
    /// No extensions: every kernel takes its portable scalar arm.
    pub const NONE: Features = Features {
        sse2: false,
        pclmulqdq: false,
        aes: false,
    };
}

/// CPUID probe result, computed once.
static PROBED: OnceLock<Features> = OnceLock::new();

/// `SECYAN_FORCE_SCALAR` environment setting, read once.
static ENV_FORCE: OnceLock<bool> = OnceLock::new();

/// Programmatic override: 0 = follow the environment, 1 = force scalar,
/// 2 = allow SIMD. Unlike the env var this takes effect immediately,
/// which is what the in-process differential tests need to flip arms
/// without re-execing.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn probe() -> Features {
    #[cfg(target_arch = "x86_64")]
    {
        Features {
            sse2: std::arch::is_x86_feature_detected!("sse2"),
            pclmulqdq: std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse2"),
            aes: std::arch::is_x86_feature_detected!("aes")
                && std::arch::is_x86_feature_detected!("sse2"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Features::NONE
    }
}

/// Is scalar operation currently forced (override, else environment)?
pub fn force_scalar() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => *ENV_FORCE.get_or_init(|| {
            std::env::var("SECYAN_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0")
        }),
    }
}

/// Force (or re-allow) the scalar arms from inside the process. Takes
/// precedence over `SECYAN_FORCE_SCALAR`; intended for differential
/// tests and benches that compare both arms in one run.
pub fn set_force_scalar(force: bool) {
    OVERRIDE.store(if force { 1 } else { 2 }, Ordering::Relaxed);
}

/// Drop any [`set_force_scalar`] override and follow the environment
/// again.
pub fn clear_force_scalar() {
    OVERRIDE.store(0, Ordering::Relaxed);
}

/// Serialize tests (and benches) that flip the process-global override:
/// hold the guard across the toggle-and-compare so concurrent tests in
/// the same binary never observe a half-flipped arm. Correctness never
/// depends on this — the arms are bit-exact — but timing-sensitive
/// comparisons do.
#[doc(hidden)]
pub fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The features the kernel layer may use *right now*: the cached CPUID
/// probe, masked to [`Features::NONE`] while scalar is forced. Cost is
/// one relaxed atomic load plus a `OnceLock` read — fine per batch, not
/// meant per element.
pub fn features() -> Features {
    if force_scalar() {
        Features::NONE
    } else {
        *PROBED.get_or_init(probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_masks_everything() {
        let _guard = override_lock();
        let probed = *PROBED.get_or_init(probe);
        set_force_scalar(true);
        assert_eq!(features(), Features::NONE);
        set_force_scalar(false);
        assert_eq!(features(), probed);
        clear_force_scalar();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn probe_is_consistent() {
        // pclmulqdq/aes imply sse2 by construction of `probe`.
        let f = *PROBED.get_or_init(probe);
        if f.pclmulqdq || f.aes {
            assert!(f.sse2);
        }
    }
}

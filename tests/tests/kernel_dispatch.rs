//! Kernel-dispatch determinism: the SIMD kernel layer must not change a
//! single byte on the wire. Every accelerated kernel (movemask
//! transpose, batched CLMUL GF(2^64), pipelined AES-NI) is bit-exact
//! against its portable scalar arm, so a full protocol run must produce
//! identical results and identical transcript bytes under every
//! combination of {scalar forced, SIMD allowed} × {1 thread, 4 threads}.
//! This is the protocol-level closure of the per-kernel equivalence
//! tests in `secyan-crypto`: if any kernel's arms diverged — or any arm
//! interacted with the band partitioning — the cross-arm transcript
//! comparison here would catch it.

#[path = "common/unroll.rs"]
mod unroll;

use rand::SeedableRng;
use secyan_core::par;
use secyan_crypto::cpu;
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_ot::{OtReceiver, OtSender};
use secyan_relation::{JoinTree, NaturalRing, Relation};
use secyan_transport::{run_protocol_captured, Role};
use std::sync::Mutex;

/// Both `par::set_threads` and `cpu::set_force_scalar` are
/// process-global; serialize the tests that flip them.
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` under one (dispatch arm, thread count) configuration,
/// restoring defaults after.
fn with_config<T>(force_scalar: bool, threads: usize, f: impl FnOnce() -> T) -> T {
    let _guard = cpu::override_lock();
    cpu::set_force_scalar(force_scalar);
    par::set_threads(threads);
    let out = f();
    par::set_threads(0);
    cpu::clear_force_scalar();
    out
}

/// The four configurations the kernel layer must not distinguish.
const CONFIGS: [(bool, usize); 4] = [(true, 1), (false, 1), (true, 4), (false, 4)];

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

type Transcript = Vec<(Role, Vec<u8>)>;

/// The Example-1.1-shaped chain query: circuit PSI (KKRT + OPPRF hint
/// polynomials over GF(2^64)), GC reductions (tiled garbling over
/// the AES kernels), and the OSN — every accelerated kernel sits on this
/// path.
fn run_query() -> (Vec<Vec<u64>>, Vec<u64>, Transcript) {
    let ring = NaturalRing::paper_default();
    let n = 48u64;
    let r1 = Relation::from_rows(
        ring,
        strings(&["person"]),
        (0..n).map(|i| (vec![i], i + 1)).collect(),
    );
    let r2 = Relation::from_rows(
        ring,
        strings(&["person", "disease"]),
        (0..n).map(|i| (vec![i, i % 7], 2 * i + 1)).collect(),
    );
    let r3 = Relation::from_rows(
        ring,
        strings(&["disease", "class"]),
        (0..7u64).map(|d| (vec![d, d % 3], 1)).collect(),
    );
    let query = secyan_core::SecureQuery::new(
        vec![
            strings(&["person"]),
            strings(&["person", "disease"]),
            strings(&["disease", "class"]),
        ],
        vec![Role::Alice, Role::Bob, Role::Alice],
        JoinTree::chain(3),
        strings(&["class"]),
    );
    let q2 = query.clone();
    let (result, _, _, handle) = run_protocol_captured(
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 1);
            secyan_core::secure_yannakakis(
                &mut sess,
                &query,
                &[Some(r1), None, Some(r3)],
                Role::Alice,
            )
        },
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 2);
            secyan_core::secure_yannakakis(&mut sess, &q2, &[None, Some(r2), None], Role::Alice);
        },
    );
    (result.tuples, result.values, handle.messages())
}

#[test]
fn full_query_transcript_is_dispatch_invariant() {
    let _guard = CONFIG_LOCK.lock().unwrap();
    let (tuples_ref, values_ref, transcript_ref) = with_config(true, 1, run_query);
    for (force, threads) in &CONFIGS[1..] {
        let (tuples, values, transcript) = with_config(*force, *threads, run_query);
        let arm = if *force { "scalar" } else { "simd" };
        assert_eq!(tuples_ref, tuples, "tuples diverged ({arm}, {threads}t)");
        assert_eq!(values_ref, values, "values diverged ({arm}, {threads}t)");
        assert_eq!(
            transcript_ref.len(),
            transcript.len(),
            "message count diverged ({arm}, {threads}t)"
        );
        for (i, (m_ref, m)) in transcript_ref.iter().zip(&transcript).enumerate() {
            assert_eq!(
                m_ref.0, m.0,
                "message {i} direction diverged ({arm}, {threads}t)"
            );
            assert_eq!(
                m_ref.1, m.1,
                "message {i} payload diverged ({arm}, {threads}t)"
            );
        }
    }
}

/// IKNP extension above `OT_PAR_MIN`, so the SIMD transpose composes
/// with the column-band partitioning in the same run: the coalesced
/// column message and every hashed output must be identical across all
/// four configurations.
fn run_iknp() -> (
    Vec<(secyan_crypto::Block, secyan_crypto::Block)>,
    Vec<secyan_crypto::Block>,
    Transcript,
) {
    const M: usize = 8192;
    let hasher = TweakHasher::default();
    let (pairs, got, _, handle) = run_protocol_captured(
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(121);
            let mut ot = OtSender::setup(ch, &mut rng, hasher);
            ot.random(ch, M)
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(122);
            let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
            let choices: Vec<bool> = (0..M).map(|i| i % 5 == 0).collect();
            ot.random(ch, &choices)
        },
    );
    (pairs, got, handle.messages())
}

#[test]
fn iknp_extension_transcript_is_dispatch_invariant() {
    let _guard = CONFIG_LOCK.lock().unwrap();
    let reference = with_config(true, 1, run_iknp);
    for (force, threads) in &CONFIGS[1..] {
        let run = with_config(*force, *threads, run_iknp);
        let arm = if *force { "scalar" } else { "simd" };
        assert_eq!(
            reference.0, run.0,
            "sender pairs diverged ({arm}, {threads}t)"
        );
        assert_eq!(
            reference.1, run.1,
            "receiver outputs diverged ({arm}, {threads}t)"
        );
        assert_eq!(
            reference.2, run.2,
            "transcript diverged ({arm}, {threads}t)"
        );
    }
}

/// The tile kernels over the scalar and the SIMD AES arms, at 1 and 4
/// threads: a segmented circuit and its flat unrolling garble to the same
/// bytes under each configuration, and every configuration to the same
/// bytes as the first.
#[test]
fn segmented_circuits_garble_like_their_unrolling_under_every_dispatch() {
    let _guard = CONFIG_LOCK.lock().unwrap();
    let circuits = [
        secyan_psi::matching_circuit(120, 32).0,
        unroll::running_sums(600),
    ];
    for (seed, circuit) in circuits.iter().enumerate() {
        let runs = CONFIGS.map(|(force_scalar, threads)| {
            with_config(force_scalar, threads, || {
                unroll::check_against_unrolling(circuit, seed as u64)
            })
        });
        for (run, config) in runs.iter().zip(CONFIGS).skip(1) {
            assert!(*run == runs[0], "circuit {seed} diverged under {config:?}");
        }
    }
}

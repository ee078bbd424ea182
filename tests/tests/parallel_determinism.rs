//! Thread-count determinism: the worker pool must not change a single
//! byte on the wire. Both parallelized hot paths (OPPRF hint
//! construction, tiled garbling) partition work on public sizes and
//! write results into pre-allocated slots in canonical order, so the
//! transcript of a full protocol run — and the outputs — are required to
//! be identical at any `SECYAN_THREADS` setting. These tests run the
//! same protocol at 1 and 4 threads over a recording channel and compare
//! full payload bytes, not just lengths.

#[path = "common/unroll.rs"]
mod unroll;

use rand::SeedableRng;
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_ot::{OtReceiver, OtSender};
use secyan_par as par;
use secyan_relation::{JoinTree, NaturalRing, Relation};
use secyan_transport::{run_protocol_captured, Role};
use std::sync::Mutex;

/// `set_threads` is process-global; serialize the tests that flip it so a
/// concurrently running test cannot observe a half-configured pool. (The
/// determinism property itself would mask such a race — which is exactly
/// why the lock is needed to keep a *failure* diagnosable.)
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(t: usize, f: impl FnOnce() -> T) -> T {
    par::set_threads(t);
    let out = f();
    par::set_threads(0);
    out
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

type Transcript = Vec<(Role, Vec<u8>)>;

/// Run the Example-1.1-shaped chain query (circuit PSI + GC reductions +
/// OSN underneath) and return the receiver's result plus the full
/// transcript bytes.
fn run_query() -> (Vec<Vec<u64>>, Vec<u64>, usize, Transcript) {
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
    (
        result.tuples,
        result.values,
        result.out_size,
        handle.messages(),
    )
}

#[test]
fn full_query_transcript_is_thread_count_invariant() {
    let _guard = THREAD_LOCK.lock().unwrap();
    let (tuples_1, values_1, size_1, transcript_1) = with_threads(1, run_query);
    let (tuples_4, values_4, size_4, transcript_4) = with_threads(4, run_query);
    assert_eq!(tuples_1, tuples_4, "result tuples diverged");
    assert_eq!(values_1, values_4, "result values diverged");
    assert_eq!(size_1, size_4, "public output size diverged");
    assert_eq!(
        transcript_1.len(),
        transcript_4.len(),
        "message count diverged: {} vs {}",
        transcript_1.len(),
        transcript_4.len()
    );
    for (i, (m1, m4)) in transcript_1.iter().zip(&transcript_4).enumerate() {
        assert_eq!(m1.0, m4.0, "message {i} direction diverged");
        assert_eq!(m1.1, m4.1, "message {i} payload diverged");
    }
}

/// OPPRF at a bin count crossing the hint construction's parallel threshold:
/// the hint polynomials (and therefore the wire bytes) must not depend
/// on how bins were scheduled across workers.
fn run_opprf() -> (Vec<u64>, Transcript) {
    const BINS: usize = 2048;
    const DEGREE: usize = 8;
    let programs: Vec<Vec<(u64, u64)>> = (0..BINS as u64)
        .map(|b| {
            (0..4)
                .map(|i| (b * 10 + i, b.wrapping_mul(31) ^ i))
                .collect()
        })
        .collect();
    let queries: Vec<secyan_psi::opprf::PsiItem> = (0..BINS as u64)
        .map(|b| secyan_psi::opprf::PsiItem::Real(b * 10))
        .collect();
    let ((), out, _, handle) = run_protocol_captured(
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
            let mut kkrt = secyan_ot::KkrtSender::setup(ch, &mut ot, &mut rng);
            secyan_psi::opprf::opprf_program(ch, &mut kkrt, &programs, DEGREE, &mut rng);
        },
        move |ch| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(32);
            let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::Aes);
            let mut kkrt = secyan_ot::KkrtReceiver::setup(ch, &mut ot);
            secyan_psi::opprf::opprf_evaluate(ch, &mut kkrt, &queries, DEGREE)
        },
    );
    (out, handle.messages())
}

#[test]
fn opprf_transcript_is_thread_count_invariant() {
    let _guard = THREAD_LOCK.lock().unwrap();
    let (out_1, transcript_1) = with_threads(1, run_opprf);
    let (out_4, transcript_4) = with_threads(4, run_opprf);
    assert_eq!(out_1, out_4, "OPPRF outputs diverged");
    assert_eq!(transcript_1, transcript_4, "OPPRF transcript diverged");
    // The programmed points must still hit their targets.
    for (b, &o) in out_1.iter().enumerate() {
        assert_eq!(o, (b as u64).wrapping_mul(31), "bin {b} missed its target");
    }
}

/// One *generated* differential instance (secyan-testkit) at 1 and 4
/// threads: results and per-direction transcript bytes must be
/// identical, composing the worker-pool determinism guarantee with the
/// fuzzer's query families (DESIGN.md §10). Per direction because the
/// global interleaving of the two directions is scheduler timing, not
/// protocol content.
#[test]
fn generated_instance_is_thread_count_deterministic() {
    use secyan_testkit::{run_secure, Instance};

    let _guard = THREAD_LOCK.lock().unwrap();
    let inst = Instance::generate(7);
    let one = with_threads(1, || run_secure(&inst));
    let four = with_threads(4, || run_secure(&inst));
    assert_eq!(one.result, four.result, "{}", inst.describe());
    assert_eq!(one.out_size, four.out_size, "{}", inst.describe());
    for dir in [Role::Alice, Role::Bob] {
        assert_eq!(
            one.sent_by(dir),
            four.sent_by(dir),
            "{dir:?}-side transcript bytes of {} differ between 1 and 4 threads",
            inst.describe()
        );
    }
}

/// Circuits as (template × count) against their flat unrolling — same
/// seed, byte-identical tables, zero-labels, decode bits and output labels,
/// all decoding to the plaintext result — at 1 thread and with tiles
/// fanned across 4: a per-bin circuit with shared outputs, one that
/// reveals its outputs, and a scan whose rows hand on a carry.
#[test]
fn segmented_circuits_garble_like_their_unrolling_at_any_thread_count() {
    let _guard = THREAD_LOCK.lock().unwrap();
    let circuits = [
        secyan_psi::matching_circuit(120, 32),
        secyan_psi::k_circuit(120, 300),
        unroll::running_sums(600),
    ];
    for (seed, circuit) in circuits.iter().enumerate() {
        let one = with_threads(1, || unroll::check_against_unrolling(circuit, seed as u64));
        let four = with_threads(4, || unroll::check_against_unrolling(circuit, seed as u64));
        assert!(
            one == four,
            "circuit {seed} garbles differently at 4 threads"
        );
    }
}

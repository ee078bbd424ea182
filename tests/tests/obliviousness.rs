//! Obliviousness tests: the transcript (sequence of message lengths and
//! directions) of every protocol must be a function of the *public*
//! parameters only. We run the same protocol twice with different private
//! data of identical public shape and require byte-identical transcript
//! structure — a direct, mechanical check of the property the paper's
//! security argument rests on.

use secyan_core::protocol::secure_yannakakis_shared;
use secyan_core::{run_offline, run_online, secure_yannakakis, QueryResult, SecureQuery, Session};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_relation::{JoinTree, NaturalRing, Relation};
use secyan_transport::{
    channel_pair, recorded, run_protocol, run_protocol_captured, run_protocol_on, tcp_channel_pair,
    Channel, CommStats, Phase, Role,
};

type MakePair = fn() -> (Channel, Channel);

/// Both pipes, each as a maker of fresh pairs: the transcript is recorded
/// above the pipe, so every property below must hold on either.
fn pipes() -> [(&'static str, MakePair); 2] {
    [
        ("in-process", channel_pair),
        ("tcp", || tcp_channel_pair().expect("loopback TCP pair")),
    ]
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// [`transcript_on`] a fresh in-process pair, revealed, lengths only.
fn transcript_of(
    r1_rows: Vec<(Vec<u64>, u64)>,
    r2_rows: Vec<(Vec<u64>, u64)>,
    r3_rows: Vec<(Vec<u64>, u64)>,
) -> Vec<(Role, usize)> {
    transcript_on(channel_pair(), secure_yannakakis, r1_rows, r2_rows, r3_rows).0
}

/// The revealed or the shared form of the driver.
type Driver = fn(&mut Session, &SecureQuery, &[Option<Relation<NaturalRing>>], Role) -> QueryResult;

/// Run Example-1.1-shaped query on given data over `pair` through
/// `driver`; return the transcript length sequence, the communication
/// stats and the receiver's OUT.
fn transcript_on(
    pair: (Channel, Channel),
    driver: Driver,
    r1_rows: Vec<(Vec<u64>, u64)>,
    r2_rows: Vec<(Vec<u64>, u64)>,
    r3_rows: Vec<(Vec<u64>, u64)>,
) -> (Vec<(Role, usize)>, CommStats, usize) {
    let ring = NaturalRing::paper_default();
    let r1 = Relation::from_rows(ring, strings(&["person"]), r1_rows);
    let r2 = Relation::from_rows(ring, strings(&["person", "disease"]), r2_rows);
    let r3 = Relation::from_rows(ring, strings(&["disease", "class"]), r3_rows);
    let query = SecureQuery::new(
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
    // Transcript recording is opt-in; a plain pair doesn't have it.
    let (pair, transcript) = recorded(pair);
    let (result, (), stats) = run_protocol_on(
        pair,
        move |ch| {
            let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::default(), 1);
            driver(&mut sess, &query, &[Some(r1), None, Some(r3)], Role::Alice)
        },
        move |ch| {
            let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::default(), 2);
            driver(&mut sess, &q2, &[None, Some(r2), None], Role::Alice);
        },
    );
    (transcript.lengths(), stats, result.out_size)
}

/// The wire-level meters that must be as data-independent as the lengths:
/// frames per direction and direction switches among them.
fn frame_shape(stats: &CommStats) -> (u64, u64, u64) {
    (
        stats.frames_alice_to_bob,
        stats.frames_bob_to_alice,
        stats.super_rounds,
    )
}

/// Two databases with identical public shape (relation sizes) but totally
/// different contents — including different join selectivities, different
/// numbers of groups, and different dangling-tuple patterns.
#[test]
fn transcript_depends_only_on_public_sizes() {
    for (pipe, pair) in pipes() {
        // Database A: everything joins, 2 classes.
        let (t_a, stats_a, _) = transcript_on(
            pair(),
            secure_yannakakis,
            vec![(vec![1], 10), (vec![2], 20), (vec![3], 30)],
            vec![
                (vec![1, 1], 5),
                (vec![2, 1], 6),
                (vec![3, 2], 7),
                (vec![1, 2], 8),
            ],
            vec![(vec![1, 100], 1), (vec![2, 200], 1)],
        );
        // Database B: same sizes; nothing joins at all, different values.
        let (t_b, stats_b, _) = transcript_on(
            pair(),
            secure_yannakakis,
            vec![(vec![91], 1), (vec![92], 1), (vec![93], 1)],
            vec![
                (vec![77, 5], 50),
                (vec![78, 5], 60),
                (vec![79, 6], 70),
                (vec![80, 6], 80),
            ],
            vec![(vec![40, 300], 1), (vec![41, 300], 1)],
        );
        assert_eq!(
            t_a.len(),
            t_b.len(),
            "{pipe}: different number of messages: {} vs {}",
            t_a.len(),
            t_b.len()
        );
        for (i, (ma, mb)) in t_a.iter().zip(&t_b).enumerate() {
            assert_eq!(ma.0, mb.0, "{pipe}: message {i} direction differs");
            assert_eq!(
                ma.1, mb.1,
                "{pipe}: message {i} length differs ({:?} vs {:?})",
                ma, mb
            );
        }
        // Frame boundaries are as data-independent as the messages in them.
        assert_eq!(frame_shape(&stats_a), frame_shape(&stats_b), "{pipe}");
    }
}

/// The shared form (§7's input), whose join reveals OUT to both parties:
/// two databases of equal relation sizes and equal OUT, with different
/// join partners, dangling tuples, groups and annotations, give equal
/// message lengths in each direction and equal frame shapes.
#[test]
fn shared_form_transcript_depends_only_on_sizes_and_out() {
    for (pipe, pair) in pipes() {
        // Database A: everything joins, 2 classes.
        let (t_a, stats_a, out_a) = transcript_on(
            pair(),
            secure_yannakakis_shared,
            vec![(vec![1], 10), (vec![2], 20), (vec![3], 30)],
            vec![
                (vec![1, 1], 5),
                (vec![2, 1], 6),
                (vec![3, 2], 7),
                (vec![1, 2], 8),
            ],
            vec![(vec![1, 100], 1), (vec![2, 200], 1)],
        );
        // Database B: same sizes, a dangling person and disease, the two
        // classes reached through other partners, other annotations.
        let (t_b, stats_b, out_b) = transcript_on(
            pair(),
            secure_yannakakis_shared,
            vec![(vec![4], 3), (vec![5], 9), (vec![6], 4)],
            vec![
                (vec![4, 7], 2),
                (vec![5, 8], 11),
                (vec![9, 7], 13),
                (vec![6, 9], 1),
            ],
            vec![(vec![7, 300], 2), (vec![8, 400], 5)],
        );
        assert_eq!((out_a, out_b), (2, 2), "{pipe}: OUT");
        for dir in [Role::Alice, Role::Bob] {
            let (a, b) = (lengths_from(&t_a, dir), lengths_from(&t_b, dir));
            assert_eq!(a, b, "{pipe}: {dir:?}-side message lengths differ");
        }
        assert_eq!(frame_shape(&stats_a), frame_shape(&stats_b), "{pipe}");
    }
}

/// Annotation values must not influence the transcript either (e.g. a
/// database where every annotation is zero = every tuple is a dummy).
#[test]
fn all_dummy_database_is_indistinguishable() {
    let t_real = transcript_of(
        vec![(vec![1], 10), (vec![2], 20)],
        vec![(vec![1, 1], 5), (vec![2, 2], 6)],
        vec![(vec![1, 9], 1), (vec![2, 8], 1)],
    );
    let t_dummy = transcript_of(
        vec![(vec![1], 0), (vec![2], 0)],
        vec![(vec![1, 1], 0), (vec![2, 2], 0)],
        vec![(vec![1, 9], 0), (vec![2, 8], 0)],
    );
    assert_eq!(t_real.len(), t_dummy.len());
    for (ma, mb) in t_real.iter().zip(&t_dummy) {
        assert_eq!(ma, mb);
    }
}

/// One direction's message lengths, in the sender's program order (how the
/// two directions interleave while both parties stage is scheduling).
fn lengths_from(transcript: &[(Role, usize)], dir: Role) -> Vec<usize> {
    let sent = transcript.iter().filter(|(r, _)| *r == dir);
    sent.map(|(_, n)| *n).collect()
}

/// The reduce-join product is OT multiplication whose choice bits are the
/// bits of annotation shares, so annotations of no set bit and of every
/// set bit, on otherwise identical databases, must give the same message
/// lengths in the same directions.
#[test]
fn annotation_bits_do_not_shape_the_transcript() {
    let with_annotations = |a: u64| {
        transcript_of(
            vec![(vec![1], a), (vec![2], a), (vec![3], a)],
            vec![
                (vec![1, 1], a),
                (vec![2, 1], a),
                (vec![3, 2], a),
                (vec![1, 2], a),
            ],
            vec![(vec![1, 100], a), (vec![2, 200], a)],
        )
    };
    // a = 1 keeps the revealed support of the all-ones run (whose products
    // are ±1 mod 2^32): only the bit patterns differ.
    let (ones, all_ones) = (with_annotations(1), with_annotations(u64::from(u32::MAX)));
    for dir in [Role::Alice, Role::Bob] {
        assert_eq!(lengths_from(&ones, dir), lengths_from(&all_ones, dir));
    }
}

/// The same at the step itself, where the shares can be set outright:
/// all-zero against all-ones shares flip every choice bit of
/// `Session::multiply` and move nothing on the wire, and the step's one
/// reply is ⌈ℓ/8⌉ bytes per OT — a function of the public n and ℓ alone.
#[test]
fn multiply_transcript_ignores_share_bits() {
    let (n, ell) = (9usize, 20u32);
    for v_plain in [false, true] {
        let run = |share: u64| {
            let party = move |seed: u64| {
                move |ch: &mut secyan_transport::Channel| {
                    let ring = RingCtx::new(ell);
                    let mut sess =
                        secyan_core::Session::new(ch, ring, TweakHasher::default(), seed);
                    let (v, z) = (vec![ring.reduce(share); n], vec![ring.reduce(share); n]);
                    sess.multiply(Role::Bob, &v, &z, v_plain);
                }
            };
            run_protocol_captured(party(5), party(6)).3.lengths()
        };
        let (zeros, ones) = (run(0), run(u64::MAX));
        for dir in [Role::Alice, Role::Bob] {
            let (zeros, ones) = (lengths_from(&zeros, dir), lengths_from(&ones, dir));
            assert_eq!(zeros, ones, "{dir:?}, v_plain = {v_plain}");
        }
        let ots = if v_plain { 1 } else { 2 } * n * ell as usize;
        assert_eq!(zeros.last(), Some(&(Role::Bob, 3 * ots)));
    }
}

/// Run the Example-1.1-shaped query in explicit offline/online phase-split
/// mode over `pair`; return the per-message `(sender, phase, length)`
/// transcript and the communication stats.
fn phased_transcript_of(
    pair: (Channel, Channel),
    r1_rows: Vec<(Vec<u64>, u64)>,
    r2_rows: Vec<(Vec<u64>, u64)>,
    r3_rows: Vec<(Vec<u64>, u64)>,
) -> (Vec<(Role, Phase, usize)>, CommStats) {
    let ring = NaturalRing::paper_default();
    let sizes = vec![r1_rows.len(), r2_rows.len(), r3_rows.len()];
    let r1 = Relation::from_rows(ring, strings(&["person"]), r1_rows);
    let r2 = Relation::from_rows(ring, strings(&["person", "disease"]), r2_rows);
    let r3 = Relation::from_rows(ring, strings(&["disease", "class"]), r3_rows);
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
    let s2 = sizes.clone();
    let (pair, handle) = recorded(pair);
    let ((), (), stats) = run_protocol_on(
        pair,
        move |ch| {
            let m = run_offline(
                ch,
                &query,
                &sizes,
                Role::Alice,
                RingCtx::new(32),
                TweakHasher::default(),
                1,
            );
            run_online(
                ch,
                &query,
                &[Some(r1), None, Some(r3)],
                Role::Alice,
                RingCtx::new(32),
                TweakHasher::default(),
                m,
            );
        },
        move |ch| {
            let m = run_offline(
                ch,
                &q2,
                &s2,
                Role::Alice,
                RingCtx::new(32),
                TweakHasher::default(),
                2,
            );
            run_online(
                ch,
                &q2,
                &[None, Some(r2), None],
                Role::Alice,
                RingCtx::new(32),
                TweakHasher::default(),
                m,
            );
        },
    );
    (handle.phased_lengths(), stats)
}

/// Per-phase obliviousness: in phase-split mode, the offline transcript
/// (which sees only public sizes) *and* the online transcript (which sees
/// the private data) must each be shape-identical across databases of the
/// same public shape — not just their concatenation. A length leak that
/// moved bytes between phases while preserving totals would be caught
/// here and nowhere else.
#[test]
fn per_phase_transcripts_depend_only_on_public_sizes() {
    for (pipe, pair) in pipes() {
        let (t_a, stats_a) = phased_transcript_of(
            pair(),
            vec![(vec![1], 10), (vec![2], 20), (vec![3], 30)],
            vec![
                (vec![1, 1], 5),
                (vec![2, 1], 6),
                (vec![3, 2], 7),
                (vec![1, 2], 8),
            ],
            vec![(vec![1, 100], 1), (vec![2, 200], 1)],
        );
        let (t_b, stats_b) = phased_transcript_of(
            pair(),
            vec![(vec![91], 1), (vec![92], 1), (vec![93], 1)],
            vec![
                (vec![77, 5], 50),
                (vec![78, 5], 60),
                (vec![79, 6], 70),
                (vec![80, 6], 80),
            ],
            vec![(vec![40, 300], 1), (vec![41, 300], 1)],
        );
        // Phase-split runs must tag every frame offline or online.
        assert!(
            t_a.iter().all(|(_, p, _)| *p != Phase::Single),
            "{pipe}: untagged frame in a phase-split run"
        );
        let shape = |t: &[(Role, Phase, usize)], p: Phase| -> Vec<(Role, usize)> {
            t.iter()
                .filter(|(_, q, _)| *q == p)
                .map(|(r, _, n)| (*r, *n))
                .collect()
        };
        let off_a = shape(&t_a, Phase::Offline);
        let off_b = shape(&t_b, Phase::Offline);
        let on_a = shape(&t_a, Phase::Online);
        let on_b = shape(&t_b, Phase::Online);
        assert!(
            !off_a.is_empty() && !on_a.is_empty(),
            "{pipe}: both phases must communicate ({} offline, {} online messages)",
            off_a.len(),
            on_a.len()
        );
        assert_eq!(off_a, off_b, "{pipe}: offline transcript shape differs");
        assert_eq!(on_a, on_b, "{pipe}: online transcript shape differs");
        // Round and frame structure of each phase is equally
        // data-independent.
        assert_eq!(
            (stats_a.offline_super_rounds, stats_a.online_super_rounds),
            (stats_b.offline_super_rounds, stats_b.online_super_rounds),
            "{pipe}"
        );
        assert_eq!(frame_shape(&stats_a), frame_shape(&stats_b), "{pipe}");
    }
}

/// Rounds must depend only on the query, not the data size — the paper's
/// constant-round claim. Doubling the data must not change the number of
/// direction switches.
#[test]
fn round_count_is_data_size_independent() {
    let ring = NaturalRing::paper_default();
    let mut rounds = Vec::new();
    for n in [4usize, 16] {
        let r1 = Relation::from_rows(
            ring,
            strings(&["a"]),
            (0..n as u64).map(|i| (vec![i], 1)).collect(),
        );
        let r2 = Relation::from_rows(
            ring,
            strings(&["a", "g"]),
            (0..n as u64).map(|i| (vec![i, i % 3], 2)).collect(),
        );
        let query = secyan_core::SecureQuery::new(
            vec![strings(&["a"]), strings(&["a", "g"])],
            vec![Role::Alice, Role::Bob],
            JoinTree::chain(2),
            strings(&["g"]),
        );
        let q2 = query.clone();
        let (_, _, stats) = run_protocol(
            move |ch| {
                let mut sess =
                    secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 3);
                secyan_core::secure_yannakakis(&mut sess, &query, &[Some(r1), None], Role::Alice)
            },
            move |ch| {
                let mut sess =
                    secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 4);
                secyan_core::secure_yannakakis(&mut sess, &q2, &[None, Some(r2)], Role::Alice)
            },
        );
        rounds.push(stats.super_rounds);
    }
    assert_eq!(rounds[0], rounds[1], "rounds grew with data size");
}

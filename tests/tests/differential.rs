//! Differential fuzzing: generated join-aggregate instances through all
//! four engines (naive oracle, plaintext Yannakakis, garbled-circuit
//! baseline, full secure protocol), plus the corner-case families the
//! paper's model makes awkward: annotation wrap-around in Z_{2^ℓ},
//! duplicate-heavy COUNT inputs, and obliviousness over *generated* (not
//! handcrafted) queries. The generated-instance thread-count determinism
//! check lives in `parallel_determinism.rs`, whose tests serialize the
//! process-global `par::set_threads` flips.
//!
//! Every failure message carries the instance seed; `Instance::generate(seed)`
//! (or `generate_chain(seed)`) reproduces the exact instance locally. See
//! README's "Running the fuzzer" and DESIGN.md §10.

mod common;

use secyan_core::join::join_tail_ot_count;
use secyan_core::protocol::secure_yannakakis_shared;
use secyan_core::{run_offline, run_online, run_online_leftover, QueryShape, Session};
use secyan_crypto::sha256::Sha256;
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_relation::{JoinTree, NaturalRing, Relation};
use secyan_testkit::{
    canonical_rows, check_instance, oracle, run_secure, run_secure_on, scalar_of, session_seeds,
    try_run_secure_on, AggKind, Instance, Run, SecureRun,
};
use secyan_tpch::queries::{canonical, run_plaintext_instance, run_secure_instance, PaperQuery};
use secyan_tpch::{Database, Scale};
use secyan_transport::{
    channel_pair, faulted, run_protocol, run_protocol_captured, tcp_channel_pair, Channel,
    FaultKind, FaultPlan, Phase, Role,
};

/// A phase-split run of `inst` on a fresh in-process pair.
fn run_secure_phase_split(inst: &Instance, shed: Option<(usize, usize)>) -> SecureRun {
    run_secure_on(inst, channel_pair(), Run::PhaseSplit { shed })
}

fn direction_lengths(run: &SecureRun, dir: Role) -> Vec<usize> {
    run.sent_by(dir).iter().map(|m| m.len()).collect()
}

// ---------------------------------------------------------------------------
// The CI sweep: 64 seeded instances, all four engines agreeing.
// ---------------------------------------------------------------------------

/// 48 instances from the general family: random trees over 2–6 relations,
/// SUM and COUNT, ℓ ∈ {32, 64}, skew/empty/dangling/near-wrap corners.
#[test]
fn differential_sweep_general_family() {
    for seed in 0..48 {
        check_instance(&Instance::generate(seed));
    }
}

/// 16 instances from the chain family, shaped so the garbled-circuit
/// baseline always runs — the sweep fails if any instance skipped it.
#[test]
fn differential_sweep_chain_family_exercises_baseline() {
    let mut baseline_runs = 0;
    for seed in 0..16 {
        let d = check_instance(&Instance::generate_chain(seed));
        baseline_runs += usize::from(d.baseline.is_some());
    }
    assert_eq!(
        baseline_runs, 16,
        "every chain-family instance must exercise the circuit baseline"
    );
}

/// The secure engine over a real localhost TCP socket, on a seeded subset
/// of both instance families. For every instance the revealed result must
/// match the plaintext oracle, and — because all staging, coalescing, and
/// metering live above the transport seam — the per-direction transcript
/// must be *byte-identical* to the in-process channel's, with every
/// communication counter equal.
#[test]
fn differential_sweep_tcp() {
    let instances = (0..8)
        .map(Instance::generate)
        .chain((0..4).map(Instance::generate_chain));
    for inst in instances {
        let expected = oracle(&inst);
        let mem = run_secure(&inst);
        let pair = tcp_channel_pair().expect("loopback TCP pair");
        let tcp = run_secure_on(&inst, pair, Run::Single);
        assert_eq!(
            tcp.result,
            expected,
            "TCP run diverged from the oracle on {}",
            inst.describe()
        );
        assert_eq!(tcp.result, mem.result, "{}", inst.describe());
        assert_eq!(tcp.out_size, mem.out_size, "{}", inst.describe());
        for dir in [Role::Alice, Role::Bob] {
            assert_eq!(
                tcp.sent_by(dir),
                mem.sent_by(dir),
                "{dir:?}-side transcript over TCP is not byte-identical \
                 to the in-process channel on {}",
                inst.describe()
            );
        }
        assert_eq!(
            tcp.stats,
            mem.stats,
            "communication meters diverged between TCP and in-process \
             transports on {}",
            inst.describe()
        );
    }
}

/// Each endpoint meters only its own wire and the harness reports Alice's,
/// so every instance of the sweep, over both pipes and in both coalesced
/// run modes, must leave Bob's view equal to Alice's field for field: no
/// message or frame is staged that the peer never consumes, and reporting
/// one party's view loses nothing. Uncoalesced runs are left out: each
/// endpoint counts super-rounds in its own program order, and there the
/// two orders may differ.
#[test]
fn both_endpoints_report_the_same_meters() {
    let instances = (0..48)
        .map(Instance::generate)
        .chain((0..16).map(Instance::generate_chain));
    for inst in instances {
        for run in [Run::Single, Run::PhaseSplit { shed: None }] {
            let pairs = [
                ("mpsc", channel_pair()),
                ("tcp", tcp_channel_pair().expect("loopback TCP pair")),
            ];
            for (pipe, pair) in pairs {
                let r = run_secure_on(&inst, pair, run);
                assert_eq!(
                    r.bob_stats,
                    r.stats,
                    "Bob's meters differ from Alice's ({run:?} over {pipe}) on {}",
                    inst.describe()
                );
            }
        }
    }
}

/// The shared form — what §7's composition consumes — on the sweep: with
/// the two parties' annotation shares added up, Alice's tuples must decode
/// to the oracle's answer. Plans that reduce to one survivor take the full
/// join here, a path the revealed form never runs.
#[test]
fn shared_form_reconstructs_to_the_oracle() {
    let instances = (0..24)
        .map(Instance::generate)
        .chain((0..8).map(Instance::generate_chain));
    for inst in instances {
        let (query, ring) = (inst.query(), inst.ring_ctx());
        let party = |seed: u64| {
            let (inst, query) = (&inst, &query);
            move |ch: &mut Channel| {
                let rels = inst.party_relations(ch.role());
                let mut sess = Session::new(ch, ring, TweakHasher::default(), seed);
                secure_yannakakis_shared(&mut sess, query, &rels, Role::Alice)
            }
        };
        let (sa, sb) = session_seeds(&inst);
        let (alice, bob, _) = run_protocol(party(sa), party(sb));
        assert_eq!(alice.out_size, bob.out_size, "{}", inst.describe());
        assert_eq!(alice.tuples.len(), alice.out_size, "{}", inst.describe());
        let values = alice
            .annot_shares
            .iter()
            .zip(&bob.annot_shares)
            .map(|(&a, &b)| ring.add(a, b));
        assert_eq!(
            canonical_rows(ring, &alice.schema, alice.tuples.clone(), values),
            oracle(&inst),
            "shared form disagrees with the oracle on {}",
            inst.describe()
        );
    }
}

/// SHA-256 over the messages of `transcript` that `dir` sent, each
/// prefixed with its length; with `bytes` false, over the lengths alone —
/// the message-length sequence, which moves only when a message boundary
/// or size does.
fn direction_digest<'a>(
    transcript: impl Iterator<Item = &'a (Role, Vec<u8>)>,
    dir: Role,
    bytes: bool,
) -> String {
    let mut h = Sha256::new();
    for (_, m) in transcript.filter(|(r, _)| *r == dir) {
        h.update(&(m.len() as u64).to_le_bytes());
        if bytes {
            h.update(m);
        }
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// TPC-H Q8 (two shared-result subqueries, `align_shared_groups`, the
/// ratio reveal) at `mb` megabytes: the captured transcript of both
/// parties. At 0.02 MB, seed 14, both subqueries end with OUT = 0, so the
/// shared form's join returns before its product; at 0.3 MB, seed 12,
/// each subquery joins to OUT = 2 (both years) and the answer has two
/// non-zero ratios, so that pin covers the §7 join's wire too.
fn q8_transcript(mb: f64, seed: u64) -> Vec<(Role, Vec<u8>)> {
    let db = Database::generate(Scale::mb(mb), seed);
    let spec = PaperQuery::Q8.build(&db, NaturalRing::paper_default());
    let party = |seed: u64| {
        let spec = &spec;
        move |ch: &mut Channel| {
            let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::default(), seed);
            run_secure_instance(&mut sess, spec)
        }
    };
    let (rows, _, _, handle) = run_protocol_captured(party(201), party(202));
    let want = run_plaintext_instance(&spec, NaturalRing::paper_default());
    assert_eq!(canonical(rows), canonical(want), "Q8 against its oracle");
    handle.messages()
}

/// Single-phase wire behaviour is pinned byte for byte: these digests of
/// `run_secure`'s per-direction transcripts only move when what a
/// bank-less run puts on the wire moves. Recorded when every OT came to
/// send one message: against the recording before it, each direction's
/// message lengths are the old ones except the OT corrections. A label
/// batch of m OTs sends 16·m bytes where it sent 32·m; an OSN's switch
/// batch sends 2·⌈ℓ/8⌉ bytes per permutation switch and ⌈ℓ/8⌉ per
/// duplication switch where it sent 32 per switch. The bytes after setup
/// all moved, because Δ, every pad and every OPRF output did.
/// Re-recorded once more when the OT-extension columns moved onto the
/// fixed-key AES stream: the contents of columns and pads moved, their
/// lengths did not. The per-direction length digests, recorded before
/// that move, pin the message-length sequences on their own.
/// (`gc_layer_wire_goldens` in `secyan-core` pins the circuits.)
#[test]
fn single_phase_transcript_goldens() {
    let run = |inst: Instance| (inst.describe(), run_secure(&inst).transcript);
    let goldens = [
        (
            run(Instance::generate(3)),
            "386875ad9b0536781a55fd98fa1132c43ecf97cb6f725ed2a11debe081779060",
            "cc5eceb0dcb9b2d2af57e37b58eaf7c7de0e5754dcf3d2fceb4d7b5682e564ab",
            [
                "956c5d8e5f6cb0dc898be0b05bfb3df52705e7782fff24030b31d896583194fb",
                "969b0bbce38a050721bb74231a5e182580a3beebae1c0827d9378a265fd29dec",
            ],
        ),
        (
            run(Instance::generate(7)),
            "ec2834045b0dd9c57409ef844b4133ef705d4bbf1ec5835d27b80693c9ba1f8a",
            "9ae551dddfef2c59802c7722c440594cafe282892a9919f07f43380f2e115dab",
            [
                "e49c7ed443040595f3d4fcf3636050388518b9d90cba94e5c42e5b7d4dfab8b6",
                "87bed11762474134f1b428cd83d7570d0f0e3f84dcdf65e57ae738ba6141ece8",
            ],
        ),
        (
            run(Instance::generate(18)),
            "6b31af187351512d2059df0e13382be49df42e885d4f8fa7598174503b965a7d",
            "9a248fd947c08ed7e67666e8219e4895ce70268c41519a2b05979bce4cb4f3ce",
            [
                "a97f6c463b2bfaa13d0fb61d621390dddb26567dcc0251e5adf3c5a5843155db",
                "6e34519e102844b2b3c5291a26ce5d6054a58a8cf8a35eeefc6d47a135df9638",
            ],
        ),
        (
            run(Instance::generate_chain(1)),
            "4508387aa7a7fd4bb4283ee7ee714bb0dc5d547b6d75f9250fb99a47f214dcf5",
            "8632b52e5fd8a012c6e986232979daf07341c4b12483072c22f14b0d3bef8cbe",
            [
                "b589e6023b89736759dbc56e841ab2f6a2a3a4185615ca1d48325f9785d98439",
                "7c838b5fbf1a4bec13a973df539d206b0708224a898e3d037b246980e78ba301",
            ],
        ),
        (
            ("TPC-H Q8 at 0.02 MB".to_string(), q8_transcript(0.02, 14)),
            "dd730598d5ef317b3c19935a62238e3e10323f0501ba5f4e2fe5315854f84773",
            "3ba534b9e6d46a312b2411656eddbf6ef68c2dee568b3948af32c64fa6dd1589",
            [
                "7323d97f883c46354d8b62ee9217b60599fdcb097fcd214c32f0b568fb5aaa29",
                "f9cd1077598de15f0640b153f48f66ac60a65766180bdc5c687d095a3ecf4ed0",
            ],
        ),
        (
            ("TPC-H Q8 at 0.3 MB".to_string(), q8_transcript(0.3, 12)),
            "19e8852a6b0157abfa7de365538ebef97a2f788f53b63861724400cd8737d3f0",
            "2c5ebb6fd4defeda110ac4ff03e42bb17f005f42b77f99ccced1d937a66a6a19",
            [
                "887d41ff652be4fadefcf5d1c0f15a840209a1bf16080b9cc8c65d1530cca9dd",
                "273be2945b187730bc602ccbf130e2d1c160f149f7f4ca1da3cd6da4ff6b5c3f",
            ],
        ),
    ];
    for ((what, transcript), alice, bob, lengths) in goldens {
        for (dir, want, want_lengths) in [
            (Role::Alice, alice, lengths[0]),
            (Role::Bob, bob, lengths[1]),
        ] {
            assert_eq!(
                direction_digest(transcript.iter(), dir, false),
                want_lengths,
                "{dir:?}-side single-phase message lengths of {what} changed"
            );
            assert_eq!(
                direction_digest(transcript.iter(), dir, true),
                want,
                "{dir:?}-side single-phase transcript of {what} changed"
            );
        }
    }
}

/// The phase-split sibling of [`single_phase_transcript_goldens`]: per
/// phase and direction, the digest of what `run_offline` then `run_online`
/// put on the wire — so the order in which banked OTs and pre-garbled
/// circuits are drawn is pinned too. Recorded when every OT came to send
/// one message: against the recording before it, the offline length
/// sequences are unchanged, and each online sequence differs only at the
/// OT corrections, shrunk as in [`single_phase_transcript_goldens`].
/// Re-recorded with it when the columns moved onto the AES stream; the
/// length digests (offline A, offline B, online A, online B) predate
/// that move.
#[test]
fn phase_split_transcript_goldens() {
    let goldens = [
        (
            Instance::generate(7),
            [
                "dba6e5ef69f69a58182dae39e79ff48511ff40cf03247df5b7df51689e4a969b",
                "ebd4dbad5a082650bf49d889805ba5286e905a3d5fe6c597d96f7c61a174d4d8",
                "738323c703f1ec7560b3138ec0287538e75db9f0dee22e26ae22198d77d8d9f0",
                "636f995a052d4062f0400db993857ad5ea53cb06126dde4885096e9fbe6a1138",
            ],
            [
                "a23d912d2314190f51e26036a78c257452d12c8aa2de67b149297705a568fc5e",
                "98ccc871a1c36e7b78965a02d2fbd6f4aa384a1b2d43e386c3d68e60d9c14071",
                "cf12058c028543056ce9596e2336291e153d5f171ba2e1a480140b367f94c15e",
                "bd84af570520062ece708eb01619f0080a73141f13aea26e448717af352797fa",
            ],
        ),
        (
            Instance::generate_chain(1),
            [
                "97312f9e9e0ed3ec74d2c2577f45dd475aac8984efa48ba4a72a5becb934c060",
                "253dd7593fdee89eb0321e633ac312cff85a6ff846e901b0230bb6f07feb8108",
                "8b932d24e81e5392ffd3a26ff4eb70cb11013ff35dcf3187b6ce00c2ca740d7a",
                "2da70f2c03ca70bffd486a3c8645251ec55e8d7012b77c52920946d61d149b7e",
            ],
            [
                "78e7897b874f4d10316f56548e4b22d90319e1f8553f06c29ac92c279775de8e",
                "35e61da0f80ae7adb6499805ebaccd15df02b0469bfcba77b3fe21f2aac48d92",
                "1904306a8ed89a723fb0b90ee44526a0ca90eea1315bc78c57c28d97f8be2fde",
                "665a4733527f6a9689c6c603bda9eac89529e7bc3345a00e6c43475b64c6c07f",
            ],
        ),
    ];
    for (inst, want, want_lengths) in goldens {
        let (ring, hasher) = (inst.ring_ctx(), TweakHasher::default());
        let party = |seed: u64| {
            let inst = &inst;
            move |ch: &mut Channel| {
                let (query, rels) = (inst.query(), inst.party_relations(ch.role()));
                let m = run_offline(ch, &query, &inst.sizes(), Role::Alice, ring, hasher, seed);
                run_online(ch, &query, &rels, Role::Alice, ring, hasher, m);
            }
        };
        let (sa, sb) = session_seeds(&inst);
        let ((), (), _, handle) = run_protocol_captured(party(sa), party(sb));
        let phases = handle.phased_lengths();
        let messages = handle.messages();
        let (mut got, mut lengths) = (Vec::new(), Vec::new());
        for phase in [Phase::Offline, Phase::Online] {
            let of_phase = || {
                messages
                    .iter()
                    .zip(&phases)
                    .filter(move |(_, (_, p, _))| *p == phase)
                    .map(|(m, _)| m)
            };
            got.push(direction_digest(of_phase(), Role::Alice, true));
            got.push(direction_digest(of_phase(), Role::Bob, true));
            for dir in [Role::Alice, Role::Bob] {
                lengths.push(direction_digest(of_phase(), dir, false));
            }
        }
        assert_eq!(
            lengths,
            want_lengths,
            "phase-split message lengths of {}",
            inst.describe()
        );
        assert_eq!(got, want, "phase-split transcript of {}", inst.describe());
    }
}

// ---------------------------------------------------------------------------
// Offline/online phase split (DESIGN.md §11).
// ---------------------------------------------------------------------------

/// What one party's material looked like after offline → online: the
/// circuits and OTs still banked (as sender/garbler, as
/// receiver/evaluator), and the OTs the online run had to extend inline.
#[derive(Debug, PartialEq, Eq)]
struct Leftover {
    circuits: (usize, usize),
    ot: (usize, usize),
    ot_inline: (u64, u64),
}

/// The plan is the schedule: after offline → online both parties hold
/// zero pre-garbled circuits and empty OT banks in either
/// direction, and the only OTs extended inline are the data-dependent
/// tail of the full join (none at all when the reduce phase leaves one
/// survivor) — no draw the shape could foresee fell back.
#[test]
fn phase_split_consumes_exactly_what_it_banks() {
    let instances = (0..64)
        .map(Instance::generate)
        .chain((0..16).map(Instance::generate_chain))
        .chain([common::chain3_bench_instance()]);
    for inst in instances {
        let (ring, ell) = (inst.ring_ctx(), inst.ell as usize);
        let (sa, sb) = session_seeds(&inst);
        let party = |seed: u64| {
            let (inst, hasher) = (&inst, TweakHasher::default());
            move |ch: &mut secyan_transport::Channel| {
                let (query, rels) = (inst.query(), inst.party_relations(ch.role()));
                let m = run_offline(ch, &query, &inst.sizes(), Role::Alice, ring, hasher, seed);
                let banked = m.ot_extended();
                let (res, left) = run_online_leftover(ch, &query, &rels, Role::Alice, ring, m);
                let extended = left.ot_extended();
                let leftover = Leftover {
                    circuits: left.circuits_banked(),
                    ot: left.ot_banked(),
                    ot_inline: (extended.0 - banked.0, extended.1 - banked.1),
                };
                (res.out_size, leftover)
            }
        };
        let ((out_size, alice), (_, bob), _) = run_protocol(party(sa), party(sb));
        // The tail's OTs all flow from the non-receiver (Bob) to Alice.
        let shape = QueryShape::derive(&inst.query(), &inst.sizes(), Role::Alice, ell);
        let tail = join_tail_ot_count(&shape.join_inputs, out_size, ell) as u64;
        let spent = |ot_inline| Leftover {
            circuits: (0, 0),
            ot: (0, 0),
            ot_inline,
        };
        assert_eq!(alice, spent((0, tail)), "Alice on {}", inst.describe());
        assert_eq!(bob, spent((tail, 0)), "Bob on {}", inst.describe());
    }
}

/// Every generated instance, run as offline-then-online, must produce a
/// result identical to the single-phase run, with the traffic split
/// reported per phase and the bulk of it shifted offline.
#[test]
fn phase_split_sweep_matches_single_phase() {
    for seed in (0..24).chain([1001, 1002]) {
        let inst = Instance::generate(seed);
        let single = run_secure(&inst);
        let split = run_secure_phase_split(&inst, None);
        assert_eq!(
            split.result,
            single.result,
            "phase-split result diverged from single-phase on {}",
            inst.describe()
        );
        assert_eq!(split.out_size, single.out_size);
        assert!(
            split.stats.offline_bytes > 0 && split.stats.online_bytes > 0,
            "both phases must carry tagged traffic on {}",
            inst.describe()
        );
        // The online phase must be strictly cheaper than doing everything
        // at query time: at minimum the session bootstrap and the banked
        // OT extensions moved offline. (It is NOT always below the offline
        // bytes — a full-join instance garbles its data-dependent product
        // tree inline online, which no shape-keyed plan can foresee.)
        assert!(
            split.stats.online_bytes < single.stats.total_bytes(),
            "online phase of {} is no cheaper than single-phase \
             (online {} vs single {})",
            inst.describe(),
            split.stats.online_bytes,
            single.stats.total_bytes()
        );
    }
}

/// The chain family (scalar aggregates, single-survivor reveal path)
/// through the phase split.
#[test]
fn phase_split_chain_family_matches_single_phase() {
    for seed in 0..8 {
        let inst = Instance::generate_chain(seed);
        let single = run_secure(&inst);
        let split = run_secure_phase_split(&inst, None);
        assert_eq!(split.result, single.result, "{}", inst.describe());
    }
}

/// A pool exhausted mid-online — pre-garbled entries consumed, OT banks
/// nearly dry — must degrade to per-step inline fallback on both parties
/// at once, still producing the correct result (slower, never wrong, never
/// hung). Sweeps partial and total exhaustion.
#[test]
fn pool_exhaustion_mid_online_falls_back_correctly() {
    for seed in [1, 5, 9] {
        let inst = Instance::generate(seed);
        let expected = oracle(&inst);
        for (label, shed) in [
            ("one circuit + capped OTs", (1, 64)),
            ("all circuits, empty banks", (usize::MAX >> 1, 0)),
        ] {
            let run = run_secure_phase_split(&inst, Some(shed));
            assert_eq!(
                run.result,
                expected,
                "exhausted pool ({label}) corrupted the result on {}",
                inst.describe()
            );
        }
    }
}

/// Transport faults landing in *either* phase of a split run must surface
/// as typed errors — never hangs, never untyped panics. Early indices hit
/// the offline bootstrap; indices near the horizon hit the online phase.
#[test]
fn phase_split_faults_surface_typed_errors_in_both_phases() {
    let inst = Instance::generate(1);
    let clean = run_secure_phase_split(&inst, None);
    for dir in [Role::Alice, Role::Bob] {
        // This direction's own *wire-frame* horizon — faults index frames,
        // and coalescing makes frames far scarcer than logical messages, so
        // an index past the frame count would never fire.
        let horizon = match dir {
            Role::Alice => clean.stats.frames_alice_to_bob,
            Role::Bob => clean.stats.frames_bob_to_alice,
        };
        for (phase, index) in [
            ("offline", 0),
            ("offline", 4),
            ("online", horizon.saturating_sub(2)),
        ] {
            for kind in [FaultKind::Truncate { keep: 10 }, FaultKind::Disconnect] {
                let pair = faulted(channel_pair(), &FaultPlan::single(dir, index, kind));
                match try_run_secure_on(&inst, pair, Run::PhaseSplit { shed: None }) {
                    Err(e) => {
                        let _ = e.to_string();
                    }
                    Ok(_) => panic!(
                        "{kind:?} on {dir:?} message {index} ({phase} phase) \
                         did not disrupt the split run"
                    ),
                }
            }
        }
    }
}

/// Nightly-style deep run: 1000 instances. Not part of the gating CI job
/// (`cargo test -q -- --ignored differential_deep` runs it on demand).
#[test]
#[ignore = "deep fuzz (~1k secure protocol runs); run explicitly with --ignored"]
fn differential_deep_fuzz() {
    for seed in 1_000..1_900 {
        check_instance(&Instance::generate(seed));
    }
    for seed in 1_000..1_100 {
        check_instance(&Instance::generate_chain(seed));
    }
}

// ---------------------------------------------------------------------------
// Obliviousness over generated families.
// ---------------------------------------------------------------------------

/// Replace every annotation with a different (seed-independent) value,
/// keeping tuples — and therefore every public size and the revealed
/// output support — fixed.
fn mutate_annotations(inst: &Instance) -> Instance {
    let ring = inst.ring_ctx();
    let mut out = inst.clone();
    for rel in &mut out.relations {
        for a in &mut rel.annots {
            // Odd multiplier, NO offset: a bijection on Z_{2^ℓ} that fixes
            // zero. The paper's leakage profile legitimately reveals each
            // row's nonzero support (reveal sizes scale with it), so a
            // transcript-invariance mutation must preserve the zero pattern
            // of every intermediate annotation. Multiplying all inputs by
            // one odd constant does: every monomial at a node has uniform
            // degree d, so each aggregate is scaled by the unit odd^d and
            // no zero is created or destroyed anywhere in the tree.
            *a = ring.reduce(a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }
    out
}

/// Apply a bijection to every key value in every tuple. The equality
/// structure (which tuples join with which) is preserved exactly, so the
/// instance is isomorphic — but no key byte on the wire may betray the
/// difference.
fn relabel_keys(inst: &Instance) -> Instance {
    let mut out = inst.clone();
    for rel in &mut out.relations {
        for t in &mut rel.tuples {
            for v in t.iter_mut() {
                // Odd multiplier + offset: a bijection on u64 (×2 would
                // collapse pairs of labels and change the join structure).
                *v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x5EED);
            }
        }
    }
    out
}

/// The transcript (per-message sender and length) must be identical
/// across instances of equal public shape that differ only in private
/// values: annotation contents and key labels. This extends the
/// handcrafted checks in `obliviousness.rs` to generated queries.
#[test]
fn generated_transcripts_depend_only_on_public_shape() {
    for seed in [0, 3, 7, 11, 19] {
        let base = Instance::generate(seed);
        let base_run = run_secure(&base);
        for (label, variant) in [
            ("annotation values", mutate_annotations(&base)),
            ("key labels", relabel_keys(&base)),
        ] {
            let run = run_secure(&variant);
            for dir in [Role::Alice, Role::Bob] {
                assert_eq!(
                    direction_lengths(&run, dir),
                    direction_lengths(&base_run, dir),
                    "{dir:?}-side transcript of {} changed when only {label} changed",
                    base.describe()
                );
            }
            assert_eq!(
                (run.stats.bytes_alice_to_bob, run.stats.bytes_bob_to_alice),
                (
                    base_run.stats.bytes_alice_to_bob,
                    base_run.stats.bytes_bob_to_alice
                ),
                "byte counters of {} changed when only {label} changed",
                base.describe()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Annotation overflow: exact wrap-around semantics in Z_{2^ℓ}.
// ---------------------------------------------------------------------------

/// A two-relation unary join `R1(a) ⋈ R2(a)` with a scalar SUM output:
/// the smallest query whose result is a product of two chosen
/// annotations, so wrap-around can be pinned to exact values.
fn product_instance(seed: u64, ell: u32, annot1: u64, annot2: u64) -> Instance {
    let ring = RingCtx::new(ell);
    let schemas = vec![vec!["a".to_string()], vec!["a".to_string()]];
    let relations = vec![
        Relation::from_rows(
            NaturalRing(ring),
            schemas[0].clone(),
            vec![(vec![1], ring.reduce(annot1))],
        ),
        Relation::from_rows(
            NaturalRing(ring),
            schemas[1].clone(),
            vec![(vec![1], ring.reduce(annot2))],
        ),
    ];
    Instance {
        seed,
        ell,
        agg: AggKind::Sum,
        schemas,
        owners: vec![Role::Alice, Role::Bob],
        tree: JoinTree::chain(2),
        output: Vec::new(),
        relations,
    }
}

/// SUM wraps *exactly* at 2^32: a product that overflows to a nonzero
/// residue, and one that overflows to exactly zero (the aggregate
/// vanishes — indistinguishable from an empty join).
#[test]
fn sum_wraps_exactly_at_ell_32() {
    // (2^32 - 1) * 7 ≡ 2^32 - 7 (mod 2^32)
    let d = check_instance(&product_instance(90_001, 32, (1u64 << 32) - 1, 7));
    assert_eq!(scalar_of(&d.expected), (1u64 << 32) - 7);

    // 2^31 * 2 ≡ 0 (mod 2^32): the whole aggregate wraps to nothing.
    let d = check_instance(&product_instance(90_002, 32, 1u64 << 31, 2));
    assert_eq!(scalar_of(&d.expected), 0);
}

/// The same two shapes at ℓ = 64, where the ring is the full u64 and the
/// wrap is native wrapping arithmetic.
#[test]
fn sum_wraps_exactly_at_ell_64() {
    // u64::MAX * 3 ≡ 2^64 - 3 (mod 2^64)
    let d = check_instance(&product_instance(90_003, 64, u64::MAX, 3));
    assert_eq!(scalar_of(&d.expected), u64::MAX - 2);

    // 2^63 * 2 ≡ 0 (mod 2^64)
    let d = check_instance(&product_instance(90_004, 64, 1u64 << 63, 2));
    assert_eq!(scalar_of(&d.expected), 0);
}

/// A grouped SUM whose per-group totals straddle the ℓ = 32 boundary:
/// one group wraps to zero (and must vanish from the canonical output),
/// one wraps to a nonzero residue, one stays below the modulus.
#[test]
fn grouped_sum_wraps_per_group_at_ell_32() {
    let ring = RingCtx::new(32);
    let m = 1u64 << 32;
    let schemas = vec![
        vec!["g".to_string(), "k".to_string()],
        vec!["k".to_string()],
    ];
    let r1 = Relation::from_rows(
        NaturalRing(ring),
        schemas[0].clone(),
        vec![
            // group 1: (2^31) + (2^31) ≡ 0 — must disappear.
            (vec![1, 10], ring.reduce(m / 2)),
            (vec![1, 11], ring.reduce(m / 2)),
            // group 2: (2^32 - 1) + 4 ≡ 3.
            (vec![2, 10], ring.reduce(m - 1)),
            (vec![2, 11], 4),
            // group 3: no wrap.
            (vec![3, 10], 5),
        ],
    );
    let r2 = Relation::from_rows(
        NaturalRing(ring),
        schemas[1].clone(),
        vec![(vec![10], 1), (vec![11], 1)],
    );
    let h = secyan_relation::Hypergraph::new(schemas.clone());
    let tree = secyan_relation::find_free_connex_tree(&h, &["g".to_string()])
        .expect("chain with group-by on g is free-connex");
    let inst = Instance {
        seed: 90_005,
        ell: 32,
        agg: AggKind::Sum,
        schemas,
        owners: vec![Role::Alice, Role::Bob],
        tree,
        output: vec!["g".to_string()],
        relations: vec![r1, r2],
    };
    let d = check_instance(&inst);
    assert_eq!(d.expected, vec![(vec![2], 3), (vec![3], 5)]);
}

/// COUNT over duplicate-heavy inputs: every annotation is 1, so the
/// result is the multiplicity product — checked against the saturating
/// `CountSemiring` oracle (which cannot wrap mid-aggregation) and pinned
/// to the hand-computed counts.
#[test]
fn count_duplicate_heavy_matches_oracle() {
    let ring = RingCtx::new(32);
    let schemas = vec![
        vec!["g".to_string(), "k".to_string()],
        vec!["k".to_string()],
    ];
    // 12 copies of (g=1, k=10) and 3 of (g=2, k=10); 6 copies of (k=10).
    let mut rows1 = vec![(vec![1, 10], 1); 12];
    rows1.extend(vec![(vec![2, 10], 1); 3]);
    let r1 = Relation::from_rows(NaturalRing(ring), schemas[0].clone(), rows1);
    let r2 = Relation::from_rows(
        NaturalRing(ring),
        schemas[1].clone(),
        vec![(vec![10], 1); 6],
    );
    let h = secyan_relation::Hypergraph::new(schemas.clone());
    let tree = secyan_relation::find_free_connex_tree(&h, &["g".to_string()])
        .expect("chain with group-by on g is free-connex");
    let inst = Instance {
        seed: 90_006,
        ell: 32,
        agg: AggKind::Count,
        schemas,
        owners: vec![Role::Bob, Role::Alice],
        tree,
        output: vec!["g".to_string()],
        relations: vec![r1, r2],
    };
    let d = check_instance(&inst);
    assert_eq!(d.expected, vec![(vec![1], 72), (vec![2], 18)]);
}

/// The generated COUNT family is duplicate-heavy by construction (tiny
/// key domains, larger relations); sweep a handful of those seeds
/// explicitly so a regression in COUNT semantics names this test.
#[test]
fn generated_count_family_matches_oracle() {
    let mut ran = 0;
    let mut seed = 0;
    while ran < 6 {
        let inst = Instance::generate(seed);
        seed += 1;
        if inst.agg == AggKind::Count {
            check_instance(&inst);
            ran += 1;
        }
    }
}

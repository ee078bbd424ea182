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
/// Re-recorded when the PSI senders' OPPRF masks came to shift the label
/// corrections: per bin the garbler-label message lost 2 048 B, and at
/// ℓ = 32 the matching circuit's label correction and column bundle lost
/// 512 B each; no message count and no other length moved. generate(3)
/// runs no PSI and is unchanged.
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
            "0d830e89b16a351c30e26f30efff1aeffea473c0a8813385904ff35943cdb26c",
            "462b52b145cad47240f07ac229b8c9cae4f7c2c4ab96873da106d3ff886c8b5c",
            [
                "72b9a74ac9503edb9bd119f46b25585402154784b0d6a1daef615c9ba38cf8c3",
                "a361bc586d669392c8b7c57b01a7501650bb530bf6154354d37d35c9ecda2a7d",
            ],
        ),
        (
            run(Instance::generate(18)),
            "8fb8b25ceaf5d663227974e9525e33896967db3b2490f3b6df99b247c9daf368",
            "b1470ae4dca0dd7148fd65eefc7b4f2eaf3f09f8f22cabf453580ced0d6f5fca",
            [
                "93a764f2697811cc31d1e0919cfb88624f50db1e0840021b3e6ebfb9c434e28c",
                "3a43fa389a8143a829a2fedf442286d0dac4b7224c7b56203607a32a1bae2ded",
            ],
        ),
        (
            run(Instance::generate_chain(1)),
            "39a57677b474b03e9618a38842621b70389b9b71d9cb67832e10385150d76cd0",
            "7f721966a7e42a2bfd94e1b687349eb2250b5f0ae4adc5b8def086d3f10e7553",
            [
                "b589e6023b89736759dbc56e841ab2f6a2a3a4185615ca1d48325f9785d98439",
                "803a8817bb955b57405210e6d48f625890e308aae52a1a9708ba9b57b172c574",
            ],
        ),
        (
            ("TPC-H Q8 at 0.02 MB".to_string(), q8_transcript(0.02, 14)),
            "7d268f32059e813e861d5f8f0fcf2685603378cd2ea7f165c9fb4f96a7281eb9",
            "ea24de1c240fccb716583c52eb5a8b5baeb5aad714085d77f03025476a189d55",
            [
                "b469ac73ea000106625ca7c239f698fa5f37802f4e4401af4a866fee0ce44f8a",
                "59b928014818158d17bf7f24f1823358a29085a215e7d89e5edf93e14a53c0b7",
            ],
        ),
        (
            ("TPC-H Q8 at 0.3 MB".to_string(), q8_transcript(0.3, 12)),
            "a1c3009d077ca5aebf19141095f6c103e13a246cc205073c5ea2ef01f6ea6201",
            "9f40f97f27b2d63c2248611b1a66cf11dbddcaf94735f415dee6f5f8e9461dfc",
            [
                "fd2d7a6c33df01dfe1be5fb00451c47f937f7a09d4ea72334f82844a3f506981",
                "1e3555e7ad825684944080ceb2b2e1ea12c005897a0dd80fed5da67c963f0edf",
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
/// that move. Re-recorded with it for the folded OPPRF masks: the offline
/// lengths did not move, the online ones only at the PSI messages.
#[test]
fn phase_split_transcript_goldens() {
    let goldens = [
        (
            Instance::generate(7),
            [
                "b543dd81adbdcd586f365db759afe5b963ae6d5396aa1ff09908ba84217bebe9",
                "c057c904964cdf4fbc053a4ac5d34e8413f589ce6faff5fe521d3d470782bb21",
                "5dfdb1781cde229a094fd3e8ebba6d95fbbfe39cd23e2cdca2080a96f11a3a00",
                "68dd3f5ede60ec37cf9b5a8f496417f7b5d45c8cbfd225f31d6092053cd0f160",
            ],
            [
                "a23d912d2314190f51e26036a78c257452d12c8aa2de67b149297705a568fc5e",
                "98ccc871a1c36e7b78965a02d2fbd6f4aa384a1b2d43e386c3d68e60d9c14071",
                "c37a9a6b311aab1148fe7edd93fc6e9077cfa59e7299b10869b74c47a5ecec6a",
                "8004b81d4a6b1c36cb5d9c39c6f3c36475900b15e719690d49aee555da6ae57a",
            ],
        ),
        (
            Instance::generate_chain(1),
            [
                "97312f9e9e0ed3ec74d2c2577f45dd475aac8984efa48ba4a72a5becb934c060",
                "6b2e51ce46d95dcddca69e869207004a070ca90e3ede18ae959cf57330caf373",
                "29ea3405679c499adb2cfc4e0547d964742cadb83c4898ab2cd104d18cae25a1",
                "4a8be3e8c52fb787263b0cc69c5d57d5671fb3f43d70f1c0db0c3890eae8b155",
            ],
            [
                "78e7897b874f4d10316f56548e4b22d90319e1f8553f06c29ac92c279775de8e",
                "35e61da0f80ae7adb6499805ebaccd15df02b0469bfcba77b3fe21f2aac48d92",
                "1904306a8ed89a723fb0b90ee44526a0ca90eea1315bc78c57c28d97f8be2fde",
                "87a69c1663c1d0a41b6711907e295e5de84b5fcc400ae19240f44d86b07ffd75",
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

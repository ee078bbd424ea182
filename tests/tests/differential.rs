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
use secyan_relation::{find_free_connex_tree, Hypergraph, JoinTree, NaturalRing, Relation};
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

/// The shared form of `inst` (what §7's composition consumes): the
/// captured transcript of both parties, checked against the oracle.
fn shared_transcript(inst: &Instance) -> Vec<(Role, Vec<u8>)> {
    let (query, ring) = (inst.query(), inst.ring_ctx());
    let party = |seed: u64| {
        let query = &query;
        move |ch: &mut Channel| {
            let rels = inst.party_relations(ch.role());
            let mut sess = Session::new(ch, ring, TweakHasher::default(), seed);
            secure_yannakakis_shared(&mut sess, query, &rels, Role::Alice)
        }
    };
    let (sa, sb) = session_seeds(inst);
    let (alice, bob, _, handle) = run_protocol_captured(party(sa), party(sb));
    let values = alice
        .annot_shares
        .iter()
        .zip(&bob.annot_shares)
        .map(|(&a, &b)| ring.add(a, b));
    let rows = canonical_rows(ring, &alice.schema, alice.tuples.clone(), values);
    assert_eq!(rows, oracle(inst), "shared form of {}", inst.describe());
    handle.messages()
}

/// A three-relation chain a–b, b–c, c–d with every attribute in the output:
/// no node folds into its parent, so all three survive the reduce phase
/// and the revealed join runs its product tree at k = 3 (OUT = 8). No seed
/// of `Instance::generate` below 3 000 reaches k ≥ 3, and the chain family
/// is scalar, so this instance is built by hand.
fn three_way_join() -> Instance {
    let attrs = |names: &[&str]| -> Vec<String> { names.iter().map(|a| a.to_string()).collect() };
    let schemas = vec![attrs(&["a", "b"]), attrs(&["b", "c"]), attrs(&["c", "d"])];
    let output = attrs(&["a", "b", "c", "d"]);
    let tree = find_free_connex_tree(&Hypergraph::new(schemas.clone()), &output)
        .expect("every attribute in the output is free-connex");
    let ring = RingCtx::new(32);
    let rows: [&[(u64, u64, u64)]; 3] = [
        &[(1, 1, 3), (2, 1, 5), (3, 2, 7)],
        &[(1, 5, 2), (2, 5, 11), (1, 6, 4)],
        &[(5, 7, 9), (6, 8, 1), (5, 9, 6), (4, 9, 8)],
    ];
    let relations = schemas
        .iter()
        .zip(rows)
        .map(|(schema, rows)| {
            let mut rel = Relation::new(NaturalRing(ring), schema.clone());
            for &(x, y, v) in rows {
                rel.push(vec![x, y], v);
            }
            rel
        })
        .collect();
    Instance {
        seed: 9001,
        ell: 32,
        agg: AggKind::Sum,
        schemas,
        owners: vec![Role::Alice, Role::Bob, Role::Alice],
        tree,
        output,
        relations,
    }
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
/// runs no PSI and is unchanged. Re-recorded, all but chain(1)'s Alice
/// lengths, when inline circuits came to garble on the evaluator's OT
/// rows: each garbler direction lost one 16·m-byte label-correction
/// message per inline circuit with m > 0 evaluator bits, and no other
/// length moved. Re-recorded, all but generate(3) (no PSI), when the PSI
/// came to its statistical widths (`secyan_psi::params`): no message
/// count moved, and the only lengths that did are the OPPRF hints
/// (bins · D · 8 B at the exact load bound), the PSI circuits' tables,
/// IKNP column bundles and derandomization bits (fewer membership and
/// index bits), and the k circuit's garbler labels and decode bits.
///
/// The shared form of generate(7) (its join at k = 2, OUT = 5, so
/// `garble_shared` runs on the product tree) and [`three_way_join`]
/// (revealed, k = 3) pin the join paths no other golden reaches; the
/// shared form of generate(17) (ℓ = 64, six relations over both owners,
/// one survivor, so its join runs at k = 1 with OUT = 3) pins a shared
/// matching circuit and two shared merge chains at ℓ = 64.
/// (`gc_layer_wire_goldens` in `secyan-core` pins the circuits.)
#[test]
fn single_phase_transcript_goldens() {
    let run = |inst: Instance| (inst.describe(), run_secure(&inst).transcript);
    let shared = |inst: Instance| {
        let what = format!("the shared form of {}", inst.describe());
        (what, shared_transcript(&inst))
    };
    let three_way = || {
        let inst = three_way_join();
        let run = run_secure(&inst);
        assert_eq!(run.out_size, 8, "the three-way join's OUT");
        assert_eq!(
            run.result,
            oracle(&inst),
            "three-way join against its oracle"
        );
        ("the three-way join".to_string(), run.transcript)
    };
    let goldens = [
        (
            run(Instance::generate(3)),
            "de290a89219643d38027c1aa124907e8755a95f209469088a8f771000c61c3f4",
            "e48a2e62067e10910552037c0d78c8d44154a97f72231c22795e50d3c36c9073",
            [
                "f52a3f52226363bd307115f19a5465fd67563ca137bafa7e092d8b59fb046f34",
                "29b82f25175aeda1e4f448b5204c3f55e091c54c4df5459f4a4c80d3c0f889be",
            ],
        ),
        (
            run(Instance::generate(7)),
            "0ccf6fa8e00b29a51e76d31c36e7936d427a092eb5dd082d1913bafac04a32ff",
            "789be14edad9113504e6807f57c662997113383276492ce5a4392c663fd41c3b",
            [
                "db4cd42a46ad0d1a0c9863d1ef70e8ecedfc11a5fd1a223967b0a00b77a4eb05",
                "d98bd48c833ac4c232ee0eaee4f40d14e3612eefd4cd269edd3475d00cf72abb",
            ],
        ),
        (
            run(Instance::generate(18)),
            "56db65c377ebf7232a477a53c9ff74915b4fba220b3d494bf42925283648ef11",
            "63eec6c7de0aee0b0d7fbfdefea88ded4a108b777a00efb23679da7a7f518117",
            [
                "3239847166b27944797a989c5903d59503f15475c46849285fd90237b5dd158e",
                "c1625c49ac9be61eeee02a1b77e63d8e6da1716c701f3b1cf3be1d27beff43a0",
            ],
        ),
        (
            run(Instance::generate_chain(1)),
            "1733dc18312f7603369c1ba7842bcb805e4337ce24d90486d664a330b293a500",
            "77d1538b0f2e70d28a4718fa0fca8b2a7843748ac0128ab6903d5ba643f8a013",
            [
                "b4b233b37493287b24aa8d4e2b5d7368256d60e6ba369229560ac872644a0511",
                "4c5a855227acfd91b30f08b661b857ec533f9725bc6c04e99e8c7811a07e1338",
            ],
        ),
        (
            ("TPC-H Q8 at 0.02 MB".to_string(), q8_transcript(0.02, 14)),
            "03c7654660e50c75cd57d083b0a9948660d7947c794f382269fc3e8ae029718c",
            "2c470d66c8cb0825cfd927f3314b7c952b1dcdca3a0109062822a83ba5c72b59",
            [
                "fbc4e503a024976b492f76a1ffb2342aa4aa2356eb41ed4822e19b6b470d628a",
                "62bfbf6144d9c76c62b30c384d432c9ce1956cff713edcc1231e5242b87e4493",
            ],
        ),
        (
            ("TPC-H Q8 at 0.3 MB".to_string(), q8_transcript(0.3, 12)),
            "b3efbb4b1eb1f8d20341d3b8e1a21ec37c4e149ed182fe143f1d120c9af3835c",
            "5b579eb0ed3ccf73e90f16d081c63a6c688fd6cc1f46ea9e76fae8722f050c68",
            [
                "f2211b066f83c2fbe379f659e53828daaddcda6c3c0bdef6db4e0e8604242c72",
                "7655c6e36b62f258c77f865370d9332892328370387a73b0ab4cbe791a171cfb",
            ],
        ),
        (
            shared(Instance::generate(7)),
            "0ccf6fa8e00b29a51e76d31c36e7936d427a092eb5dd082d1913bafac04a32ff",
            "d1f09dadba2659fe69ec3f0868fc0cdb8bbaf081570f30d204f2c604cbfdf066",
            [
                "db4cd42a46ad0d1a0c9863d1ef70e8ecedfc11a5fd1a223967b0a00b77a4eb05",
                "c039d8d1a89af7fe0a76e84227178c06da50b50f82b1562eef26abc6ecc38039",
            ],
        ),
        (
            shared(Instance::generate(17)),
            "5b5e7f5ebec282f506cc7e96fce983f2d0839c6891e52d8c9765dcda2e7adc85",
            "cfda826fc80e1a506003fa07d6291bbe90bd89cb2e38d556092b9f70762d2f90",
            [
                "0f4572c9568ed2b7c572c941e35c544a4e6b9f94e6bd591953da1574e57e6112",
                "e033b5f1336bba3ea0475474064a3ecd69b800b57ce58b96af54386e708c16c8",
            ],
        ),
        (
            three_way(),
            "7e52643bd27dc49b6ee4f2355fa6536b515d6bb6f2d731b12d9ef6fb4ceb663d",
            "ef35f2dbe758e1a02b3ee8cc18cb62d9d5ac8f9d1bf6fd0c9e23a494abdcdc97",
            [
                "42beafdeec5ca2345afce8b45d33ddb39bad591f890a16ce7df1f280550c1c5d",
                "1e2a78d48ff21ee8a9a210b7996f261162dfb9846632c6554c046319a6bfbd64",
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
/// lengths did not move, the online ones only at the PSI messages. When
/// inline circuits came to garble on the OT rows only generate(7)'s
/// online Bob side moved: the one circuit its plan could not bank (the
/// join's product tree) lost its label-correction message. Re-recorded
/// with it for the PSI's statistical widths: the same message counts,
/// lengths moved offline at the IKNP banks and the PSI circuits' tables,
/// online at the hints, the label corrections behind the banked PSI
/// tables, the derandomization bits and the k circuit's garbler labels
/// and decode bits.
#[test]
fn phase_split_transcript_goldens() {
    let goldens = [
        (
            Instance::generate(7),
            [
                "6871e041fb94b1d476e510516e994450bdb1aa9adad561f6c36a70aa5e42397b",
                "a8557900ade8a5b09bc3af7da51a921bf35ab12468e83363a7dcf90bffa68a77",
                "8a69fe74167b1149fe0b7aa58f66650916a185a0edf6aae3343126943a70e65e",
                "0f5e30f2821841efa17752f6096ad0eb650c9dbf22b85c254d32f1271725c197",
            ],
            [
                "2d6d220e12404c46900a52de5231623d2456dd98d5885b9ff5ea5b367d99d983",
                "e211d868b1a1168edf22d0fd458cd9a4f57a196e23ae2e579e9a6193124f0be4",
                "25feaf02b542a6a43017236cef991475d7667808291deba05ff695a5532c2f8f",
                "d84142a7fd63837d392df7b85b3a6b25b853020ed68cef621ae37a242af7695f",
            ],
        ),
        (
            Instance::generate_chain(1),
            [
                "a840dcea5285408b240e1151fc978afaf191bee99efd1b58fd3c2737a00b1d53",
                "c9024201283e1f364c2c7438db27f8155f53a6e502835e0864767d0dc64434aa",
                "45efea199b1abb0c03dd297c22c2825e2a3834d7030aee159201077640c1d0f4",
                "ee55e52a5dda2f5c20bea3b28f37ebfe58aba3b6cc406e59e89d3cc5adc15753",
            ],
            [
                "01d1433f1835df35ec2aa8fcb0e8099431fdcd3f6c0de9290ab55259c382eaf4",
                "4ac3b80b47908ac56019220d511b83b769a51e725944822440f0fd35b435f69b",
                "9d574d1d4824b0429ea80c1fa293dcda9387530b50dac58a6a8c703c041d4689",
                "86f7049036d0855bcad2c17ae77b42338726c9305ee6aaf8502cb413021d18ef",
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

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
/// Re-recorded, every digest, when each OEP stage came to its logical
/// size (arbitrary-size Waksman networks, `secyan_oep::network`) and the
/// same-owner reduce-join stopped drawing a nonce it never read: no
/// message count moved, and the only lengths that did are the OEPs' IKNP
/// column bundles, switch corrections and masked values (k words of
/// ⌈ℓ/8⌉ bytes, where 2^⌈log₂ k⌉ of 8 travelled).
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
            "2ae971ce081ef4e49ecb945aea7b1f113ae7a90fe2170b90fee7db34184c975e",
            "a30ffa6ae9c66df61c733dcc762ee17334e365cb2824e4e734bb6df7d2e23857",
            [
                "50245771218abc1cc406aa3363fe2923199a26df8d789774b658fc330104a361",
                "de96c4e192674eabafeec4c5e7fb07997728ad9af63b30d9304705414164a76e",
            ],
        ),
        (
            run(Instance::generate(7)),
            "c0f67d091de47a23196384c6c44f7d099e0687b6c501cf0e2bda0ad42e92d459",
            "0028ed5aad2b1f788a9b997008e043f1deed0a364f037c589aa0194aec2f80ce",
            [
                "986d776e77eeefff81877ae543d7beaea2be892c373901e377d4c162d909dc3e",
                "2e04f075d24d74b01700d6b30813964cc7093662c7bc8d876090da1656aed9e6",
            ],
        ),
        (
            run(Instance::generate(18)),
            "d0087a5de367dbfa79ac9f04c7bbc2df62943ad7e09aa89a0f80d7dfac864dc5",
            "e9a0c38c294df99c0733bb16db7b438bc6c95ea842ff3e77fbad4c38609649e2",
            [
                "f5d8b7606cc9ed30276fe9d8e50ddfb62e765d746f7af5e9c958b275465231f7",
                "8983fd1eee7e46cdb56569802b208e399e4fa908526ab6c5dec800a0b4e64597",
            ],
        ),
        (
            run(Instance::generate_chain(1)),
            "b8073a50d15745c1982e952603ad544712c2473dcdc79a220a846724d8f98c69",
            "05083c7602d0b0eee68569043c0177769434fbfd48254cb26bde538679ce090b",
            [
                "d680497441db7541999d73211a66f0dbcd67c1da93025b718182e1ea1bac018f",
                "b7cbe6b3b206290c18ff2b396fbe4969339c1d4dc18833fd5874b8416fa34c0d",
            ],
        ),
        (
            ("TPC-H Q8 at 0.02 MB".to_string(), q8_transcript(0.02, 14)),
            "7612c7fbbb2f5fa5a0b84305987bd13fef810bdc16767f8a2f30d3ee42a02b2c",
            "56d76d4a4e9ecf1704d0782dff1340387ec17cbcf2fbf317ed022372b0eb9a87",
            [
                "ca795fd1e0a6f72c4dc19367df0a1b03f7355d3995c687bd5143428531fb6e4c",
                "afdfee797133dafa740d30ae4283b681aec443f3d826bad9fad34eb7aedc4efa",
            ],
        ),
        (
            ("TPC-H Q8 at 0.3 MB".to_string(), q8_transcript(0.3, 12)),
            "c162cb1960e93c5fb83b407e41bf753de7c1a4058aa58c38326a7a5a4e177824",
            "8c029141644d75f86ec6d380222d56b05b4deb05f32d440fd70c51b3ec1ce42a",
            [
                "8f81303c40ebff5b8cb006574cfa1144c1c932d52218b93c796e786c77a3e83a",
                "87e59cffbc627d84363f69721492760ff77f8ff9efb55c838727542dc3fffec5",
            ],
        ),
        (
            shared(Instance::generate(7)),
            "c0f67d091de47a23196384c6c44f7d099e0687b6c501cf0e2bda0ad42e92d459",
            "3f1af39f47a3d4d961df0f0796337fea9df3f85e8888c84da603e3e696adf4a8",
            [
                "986d776e77eeefff81877ae543d7beaea2be892c373901e377d4c162d909dc3e",
                "d49da202efc8ab28b1a14ab6b775729e1af489ed445cd4d3bcd659f39a9d9a28",
            ],
        ),
        (
            shared(Instance::generate(17)),
            "69848b432eb486b3a8018d8a82cf29cd71c3defb7f4e3dcf7c4ca21270176fc3",
            "02b178a2085d2bd816c39108388d62bb9fe7bf83433af06d1072e44a2451a69e",
            [
                "4fe8f43f6414da8eda0b7aaa4ab2327e992aa5f260cc62166bf9e0e2d5675857",
                "139961441424ca9c55afc7b73a3cb7fe2dfeafc5e73760a6e6419caab0d1cdb4",
            ],
        ),
        (
            three_way(),
            "71361fa0cfd1016a6d6c499758ac6c089dcce0738257ae90f710553748f758fc",
            "f4faec69d7252ee1c5cdc8c2b54a046f8e6c721c802f816977d93054d01205d3",
            [
                "89630189c1f66c6b87f85cddce2e1b333613d83092183b2b6fda0c4afbc528f0",
                "1ac2a239331088882cbb2d7aadc28974e7f9dc6ac281c68332a00605768b81f9",
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
/// and decode bits. Re-recorded with it when each OEP stage came to its
/// logical size: the same message counts, and every digest but chain(1)'s
/// offline Bob lengths moved; lengths moved offline at the IKNP banks
/// (fewer switch OTs), online at the masked values, the switch
/// corrections and the derandomization bits.
#[test]
fn phase_split_transcript_goldens() {
    let goldens = [
        (
            Instance::generate(7),
            [
                "fcf2bc5f959503514b691bd91830d2fd6b6bb6c6b237b760b8f2d2b38cd5ddea",
                "3e9282b6367038e8a6ed6f7bcb9fbf28f8381c9c0a230f90a72aabbd641876cb",
                "e02ca782462b1819a2d7b6bb7794dddfbf4f41172c2dc89c3f8e237cf013b41f",
                "5a33e444e348b7c0be15125b13d49fbb1afa69a5349e426bf0aa25f7ba8d5c1d",
            ],
            [
                "4a73e9c0a22cb3f1fc047564505ff8ab5f1d14c6071710f449e30179afa859f3",
                "f0f9135d5d7367af3d2f215b6abbd04665c6e95c466f2c2153a351d3e94976ea",
                "3122f04d83ef413f623870063a49f764e60fc2b82bbb20c2d53cf0c568c03f7a",
                "d0ad71278dbee83bd7d7df4bd77fc3a42c1a2faf2e29e05141fb92836df5117d",
            ],
        ),
        (
            Instance::generate_chain(1),
            [
                "516d55a107df4da13fe0c01297f15a32e0df233b5e7d4ae3e2ccc7b885cb76e8",
                "e482913a656f1255dffcd5bbf12586c024979295d402229c8114a31acfb5fcbe",
                "54edeb6ccc13a6ad039b828dea24af3708b728b93dc386e87ccbf0b4a25787ee",
                "fea44669211ae95aad9ba6e58a207a87cd91186a3d6eab331502d19828cec09b",
            ],
            [
                "44dd579d8529de429219c0911e62841fb30dbd0fec0002026847dc57f376641c",
                "4ac3b80b47908ac56019220d511b83b769a51e725944822440f0fd35b435f69b",
                "5831c944a9110eab7e85bd7feab092572f7c24c5dc245a8a189a76a3ca40b8c8",
                "350b297d1283cd9d0e71461a05b29da65303e5294524717242d85c783a8d3383",
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

//! Golden round-count regression tests for the super-round transport.
//!
//! Two layers of protection:
//!
//! * **Golden counts** — for fixed instance shapes, the online/offline
//!   super-round counters are pinned exactly. Round counts are a function
//!   of the public query shape only (the protocol is oblivious), so these
//!   goldens are stable across seeds and machines; any drift means the
//!   protocol's communication structure changed and the BENCH numbers and
//!   DESIGN.md §14 need re-recording.
//! * **Coalescing differential** — the same instance runs with message
//!   coalescing on (default) and off (`Run::Uncoalesced`, one wire
//!   frame per staged message). Coalescing must change *wire framing
//!   only*: results, logical transcripts, and every stage-time meter are
//!   byte-identical; only the frame counters shrink.

mod common;

use common::chain3_bench_instance;
use secyan_core::{run_online_pooled, PreprocPool};
use secyan_crypto::TweakHasher;
use secyan_testkit::{
    canonical_result, oracle, run_secure, run_secure_on, session_seeds, Instance, Run, SecureRun,
};
use secyan_transport::{channel_pair, run_protocol_on, tcp_channel_pair, Channel, Role};

const PHASE_SPLIT: Run = Run::PhaseSplit { shed: None };

fn tcp_pair() -> (Channel, Channel) {
    tcp_channel_pair().expect("loopback TCP pair")
}

/// The ISSUE's acceptance bound for the benchmark chain3 online phase
/// (3x down from the 48-round pre-coalescing baseline).
const CHAIN3_ONLINE_SUPER_ROUND_BOUND: u64 = 16;

/// The measured dependency floor of the current operator pipeline: every
/// adjacent frame pair in the chain3 online trace is separated by a real
/// data dependency (OPPRF hints -> GC inputs -> OT corrections -> masked
/// pads -> permutation shares; see DESIGN.md §14 for the frame-by-frame
/// decode). Going lower requires restructuring an operator, not better
/// batching — so the golden pins the floor exactly.
const CHAIN3_ONLINE_SUPER_ROUNDS: u64 = 16;
/// Bootstrap and banking, then the pre-garbled tables in plan order, one
/// message each: Alice's (matching), then Bob's three (merge, matching,
/// reveal) — one switch. The two reduce-join products are multiplied on
/// the shares and pre-garble nothing, so no table of Alice's sits between
/// Bob's.
const CHAIN3_OFFLINE_SUPER_ROUNDS: u64 = 9;

#[test]
fn chain3_online_super_rounds_golden() {
    let run = run_secure_on(&chain3_bench_instance(), channel_pair(), PHASE_SPLIT);
    assert!(
        run.stats.online_super_rounds <= CHAIN3_ONLINE_SUPER_ROUND_BOUND,
        "chain3 online phase regressed past the acceptance bound: \
         {} super-rounds (bound {CHAIN3_ONLINE_SUPER_ROUND_BOUND})",
        run.stats.online_super_rounds,
    );
    assert_eq!(
        run.stats.online_super_rounds, CHAIN3_ONLINE_SUPER_ROUNDS,
        "chain3 online super-round count drifted — re-derive the frame \
         dependency chain in DESIGN.md §14 and re-record the sybench baseline",
    );
    assert_eq!(
        run.stats.offline_super_rounds, CHAIN3_OFFLINE_SUPER_ROUNDS,
        "chain3 offline super-round count drifted",
    );
}

/// A pooled hit is `run_online` plus the one availability exchange, whose
/// direction order is fixed by role — never two switches because both
/// parties spoke at once.
const CHAIN3_POOLED_ONLINE_SUPER_ROUNDS: u64 = CHAIN3_ONLINE_SUPER_ROUNDS + 1;

/// Provision one material per party, then one pooled online run of chain3
/// over `pair`; returns the online super-round count.
fn chain3_pooled_online_super_rounds(pair: (Channel, Channel)) -> u64 {
    let inst = chain3_bench_instance();
    let (query, sizes, ring) = (inst.query(), inst.sizes(), inst.ring_ctx());
    let hasher = TweakHasher::default();
    let party = |seed: u64| {
        let (inst, query, sizes) = (&inst, &query, &sizes);
        move |ch: &mut Channel| {
            let rels = inst.party_relations(ch.role());
            let mut pool = PreprocPool::new();
            pool.provision(ch, query, sizes, Role::Alice, ring, hasher, seed);
            let res = run_online_pooled(
                &mut pool,
                ch,
                query,
                sizes,
                &rels,
                Role::Alice,
                ring,
                hasher,
                seed ^ 1,
            );
            assert_eq!((pool.hits(), pool.misses()), (1, 0));
            res
        }
    };
    let (sa, sb) = session_seeds(&inst);
    let (res, _, stats) = run_protocol_on(pair, party(sa), party(sb));
    assert_eq!(canonical_result(ring, &res), oracle(&inst));
    stats.online_super_rounds
}

#[test]
fn chain3_pooled_super_rounds_are_pinned_and_repeat() {
    for run in 0..20 {
        assert_eq!(
            chain3_pooled_online_super_rounds(channel_pair()),
            CHAIN3_POOLED_ONLINE_SUPER_ROUNDS,
            "pooled chain3 online super-rounds drifted on run {run}",
        );
    }
}

/// Golden total super-round counts per generator family. Round structure
/// is public-shape-determined, so these only move when the protocol's
/// communication pattern changes.
#[test]
fn family_super_round_goldens() {
    let families = [
        ("chain(0)", Instance::generate_chain(0)),
        ("chain(1)", Instance::generate_chain(1)),
        ("random(0)", Instance::generate(0)),
        ("random(3)", Instance::generate(3)),
    ];
    let actual: Vec<u64> = families
        .iter()
        .map(|(_, inst)| run_secure(inst).stats.super_rounds)
        .collect();
    let golden: Vec<u64> = vec![9, 19, 25, 25];
    assert_eq!(
        actual,
        golden,
        "per-family super-round goldens drifted (order: {:?})",
        families.map(|(name, _)| name),
    );
}

fn direction_lengths(run: &SecureRun, dir: Role) -> Vec<usize> {
    run.transcript
        .iter()
        .filter(|(r, _)| *r == dir)
        .map(|(_, m)| m.len())
        .collect()
}

fn direction_stream(run: &SecureRun, dir: Role) -> Vec<u8> {
    run.transcript
        .iter()
        .filter(|(r, _)| *r == dir)
        .flat_map(|(_, m)| m.iter().copied())
        .collect()
}

/// Coalescing is a pure wire-framing optimization: with it disabled the
/// same seeds must produce byte-identical results and logical transcripts,
/// one frame per logical message, the same round structure — and strictly
/// more frames.
#[test]
fn coalescing_only_changes_wire_framing() {
    let instances = [
        Instance::generate_chain(0),
        Instance::generate(0),
        Instance::generate(5),
    ];
    for inst in &instances {
        let c = run_secure(inst);
        let u = run_secure_on(inst, channel_pair(), Run::Uncoalesced);

        // Same answer, same public output size.
        assert_eq!(c.result, u.result, "{}", inst.describe());
        assert_eq!(c.out_size, u.out_size, "{}", inst.describe());

        // The logical per-direction transcript (stage-time capture) is
        // identical message for message: coalescing never reorders or
        // rewrites payloads within a direction. (The merged two-direction
        // interleaving legitimately differs — whole coalesced runs arrive
        // at once — so it is not compared.)
        for dir in [Role::Alice, Role::Bob] {
            assert_eq!(
                direction_lengths(&c, dir),
                direction_lengths(&u, dir),
                "{dir:?} message boundaries changed on {}",
                inst.describe()
            );
            assert_eq!(
                direction_stream(&c, dir),
                direction_stream(&u, dir),
                "{dir:?} payload bytes changed on {}",
                inst.describe()
            );
        }

        // Stage-time per-direction meters are identical. (The *global*
        // `rounds`/`super_rounds` interleaving meters are not compared:
        // eager mode ships frames mid-computation, so both parties can be
        // staging concurrently and the cross-direction interleaving those
        // meters observe is scheduling-dependent. Per-direction counters
        // and streams are race-free in both modes.)
        assert_eq!(c.stats.bytes_alice_to_bob, u.stats.bytes_alice_to_bob);
        assert_eq!(c.stats.bytes_bob_to_alice, u.stats.bytes_bob_to_alice);
        assert_eq!(c.stats.messages_alice_to_bob, u.stats.messages_alice_to_bob);
        assert_eq!(c.stats.messages_bob_to_alice, u.stats.messages_bob_to_alice);
        assert_eq!(c.stats.online_bytes, u.stats.online_bytes);
        assert_eq!(c.stats.offline_bytes, u.stats.offline_bytes);

        // Coalescing can only merge same-direction frames, so the wire
        // round meter never exceeds the logical one.
        assert!(
            c.stats.super_rounds <= c.stats.rounds,
            "coalesced wire rounds exceed logical rounds ({} > {}) on {}",
            c.stats.super_rounds,
            c.stats.rounds,
            inst.describe()
        );

        // Uncoalesced mode ships exactly one frame per logical message;
        // coalescing must strictly reduce the frame count.
        assert_eq!(u.stats.frames_alice_to_bob, u.stats.messages_alice_to_bob);
        assert_eq!(u.stats.frames_bob_to_alice, u.stats.messages_bob_to_alice);
        assert!(
            c.stats.frames_alice_to_bob < u.stats.frames_alice_to_bob,
            "no Alice->Bob coalescing happened on {}",
            inst.describe()
        );
        assert!(
            c.stats.frames_bob_to_alice < u.stats.frames_bob_to_alice,
            "no Bob->Alice coalescing happened on {}",
            inst.describe()
        );
    }
}

// ---------------------------------------------------------------------------
// The same pins over a real localhost TCP socket. Round structure lives
// entirely above the transport seam, so every golden must hold unchanged.
// ---------------------------------------------------------------------------

/// The chain3 online/offline super-round pins are transport-independent:
/// the phase-split run over TCP reports exactly the in-process goldens,
/// and every other meter matches the in-process phase-split run.
#[test]
fn chain3_super_round_pins_hold_over_tcp() {
    let inst = chain3_bench_instance();
    let tcp = run_secure_on(&inst, tcp_pair(), PHASE_SPLIT);
    assert_eq!(
        tcp.stats.online_super_rounds, CHAIN3_ONLINE_SUPER_ROUNDS,
        "chain3 online super-round count changed when the frames crossed \
         a real socket — the transport seam is leaking into round structure",
    );
    assert_eq!(
        tcp.stats.offline_super_rounds, CHAIN3_OFFLINE_SUPER_ROUNDS,
        "chain3 offline super-round count changed over TCP",
    );
    let mem = run_secure_on(&inst, channel_pair(), PHASE_SPLIT);
    assert_eq!(tcp.result, mem.result);
    assert_eq!(
        tcp.stats, mem.stats,
        "phase-split meters diverged between TCP and in-process transports",
    );
}

#[test]
fn chain3_pooled_super_rounds_are_pinned_and_repeat_over_tcp() {
    for run in 0..20 {
        let pair = tcp_channel_pair().expect("loopback TCP pair");
        assert_eq!(
            chain3_pooled_online_super_rounds(pair),
            CHAIN3_POOLED_ONLINE_SUPER_ROUNDS,
            "pooled chain3 online super-rounds drifted over TCP on run {run}",
        );
    }
}

/// The per-family super-round goldens, re-measured over TCP.
#[test]
fn family_super_round_goldens_hold_over_tcp() {
    let families = [
        ("chain(0)", Instance::generate_chain(0)),
        ("chain(1)", Instance::generate_chain(1)),
        ("random(0)", Instance::generate(0)),
        ("random(3)", Instance::generate(3)),
    ];
    let actual: Vec<u64> = families
        .iter()
        .map(|(_, inst)| {
            run_secure_on(inst, tcp_pair(), Run::Single)
                .stats
                .super_rounds
        })
        .collect();
    let golden: Vec<u64> = vec![9, 19, 25, 25];
    assert_eq!(
        actual,
        golden,
        "per-family super-round goldens drifted over TCP (order: {:?})",
        families.map(|(name, _)| name),
    );
}

/// The coalesced-vs-eager differential holds over the socket exactly as
/// it does in process: byte-identical results and logical transcripts,
/// identical stage-time meters, strictly fewer frames when coalescing.
#[test]
fn tcp_coalescing_only_changes_wire_framing() {
    let instances = [Instance::generate_chain(0), Instance::generate(5)];
    for inst in &instances {
        let c = run_secure_on(inst, tcp_pair(), Run::Single);
        let u = run_secure_on(inst, tcp_pair(), Run::Uncoalesced);

        assert_eq!(c.result, u.result, "{}", inst.describe());
        assert_eq!(c.out_size, u.out_size, "{}", inst.describe());
        for dir in [Role::Alice, Role::Bob] {
            assert_eq!(
                direction_lengths(&c, dir),
                direction_lengths(&u, dir),
                "{dir:?} message boundaries changed on {}",
                inst.describe()
            );
            assert_eq!(
                direction_stream(&c, dir),
                direction_stream(&u, dir),
                "{dir:?} payload bytes changed on {}",
                inst.describe()
            );
        }
        assert_eq!(c.stats.bytes_alice_to_bob, u.stats.bytes_alice_to_bob);
        assert_eq!(c.stats.bytes_bob_to_alice, u.stats.bytes_bob_to_alice);
        assert_eq!(c.stats.messages_alice_to_bob, u.stats.messages_alice_to_bob);
        assert_eq!(c.stats.messages_bob_to_alice, u.stats.messages_bob_to_alice);

        // Eager mode: one TCP frame per logical message; coalescing must
        // strictly reduce the frame count even on a real socket.
        assert_eq!(u.stats.frames_alice_to_bob, u.stats.messages_alice_to_bob);
        assert_eq!(u.stats.frames_bob_to_alice, u.stats.messages_bob_to_alice);
        assert!(
            c.stats.frames_alice_to_bob < u.stats.frames_alice_to_bob,
            "no Alice->Bob coalescing happened over TCP on {}",
            inst.describe()
        );
        assert!(
            c.stats.frames_bob_to_alice < u.stats.frames_bob_to_alice,
            "no Bob->Alice coalescing happened over TCP on {}",
            inst.describe()
        );
    }
}

/// Structural pin in place of a timing test: the shape of `tpch_q3_cold`
/// (Q3 at 0.3 MB, lineitem pinned to four per order) plans four circuits
/// — two matchings, a merge and the reveal, 364 463 ANDs — and stores
/// their row templates, a few thousand gates, not their unrolling. The
/// two 450-row reduce-join products (450 × 1 055 and 450 × 1 086 ANDs
/// when they were circuits) plan no circuit: they draw the same
/// 450 · 32 and 450 · 64 OTs as their label transfers did, so the OT
/// budget is what it was.
#[test]
fn q3_shape_stores_templates_not_rows() {
    use secyan_relation::NaturalRing;
    use secyan_tpch::{Database, PaperQuery, Scale};
    let mut db = Database::generate(Scale::mb(0.3), 1);
    db.lineitem.rows.truncate(4 * db.orders.len());
    let again = db.lineitem.rows[0].clone();
    db.lineitem.rows.resize(4 * db.orders.len(), again);
    let spec = PaperQuery::Q3.build(&db, NaturalRing::paper_default());
    let sq = &spec.subqueries[0];
    let sizes: Vec<usize> = sq.relations.iter().map(|r| r.len()).collect();
    assert_eq!(sizes, [45, 450, 1800]);
    let shape = secyan_core::QueryShape::derive(&sq.to_secure_query(), &sizes, Role::Alice, 32);
    let circuits = || shape.planned.iter().map(|pc| &pc.circuit);
    let ands: Vec<u64> = circuits().map(|c| c.and_count()).collect();
    assert_eq!(ands, [89_804, 89_804, 70_555, 114_300]);
    let stored: usize = circuits()
        .flat_map(|c| c.segments())
        .map(|s| s.gates.len())
        .sum();
    assert!(stored < 50_000, "{stored} gates stored");
    assert_eq!(shape.ot_budget, 196_605);
}

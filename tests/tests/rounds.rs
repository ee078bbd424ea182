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
//!   only*: results, logical transcripts, and every byte and message meter
//!   are byte-identical; only the frame counters shrink.

mod common;

use common::chain3_bench_instance;
use secyan_core::{run_online_pooled, PreprocPool, QueryShape};
use secyan_crypto::TweakHasher;
use secyan_gc::evaluator_ot_count;
use secyan_oep::EpNetwork;
use secyan_psi::{bin_count, index_bits, max_bin_size, membership_bits};
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
/// Frame by frame: (1) Bob's base-OT offer; (2) Alice's blinded points
/// and her offer; (3) Bob's points and his KKRT seed bundle; (4) Alice's
/// KKRT seed bundle — session setup; (5) Bob's IKNP bank bundle (he runs
/// the receiver half first); (6) Alice's IKNP bank bundle with her
/// pre-garbled matching tables coalesced behind it; (7) Bob's three
/// tables (merge, matching, reveal). KKRT banks nothing, so no bundle
/// pair sits between the IKNP bank and the tables; the two reduce-join
/// products are multiplied on the shares and pre-garble nothing, so no
/// table of Alice's sits between Bob's.
const CHAIN3_OFFLINE_SUPER_ROUNDS: u64 = 7;

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

/// The permutation switches, duplication switches and wires of `net`'s
/// shape when all three stages ran at w = 2^⌈log₂ k⌉ wires: two Beneš
/// networks of w/2 · (2 log₂ w − 1) switches and w − 1 duplication
/// switches, the value holder sending w 8-byte masked values.
fn padded_oep(net: &EpNetwork) -> (usize, usize, usize) {
    let w = net.k.next_power_of_two();
    (w * (2 * w.trailing_zeros() as usize - 1), w - 1, w)
}

/// KKRT extends inline in both phases, and every OT sends one message.
/// Against chain3's recording from when KKRT was banked offline and
/// code-corrected online and every OT sent two 16-byte messages, the
/// offline phase lost each direction's KKRT bank bundle (512 · ⌈K/8⌉ bytes
/// for the K instances that direction keys); each online KKRT batch of m
/// instances sends its 512 · ⌈m/8⌉-byte column bundle in place of a
/// 64 · m-byte code correction; each (banked) label OT sends one 16-byte
/// correction where it sent 32; and each switch sends one ⌈ℓ/8⌉-byte word
/// per output it routes — two for a permutation switch, one for a
/// duplication switch — where it sent 32. And each bin of either PSI's
/// circuit no longer shares an indicator word: ℓ − 1 fewer mask-adder
/// ANDs (32 B of table each) offline, ℓ fewer garbler mask labels (16 B
/// each) and ℓ fewer decode bits online. Nor does it carry the garbler's
/// 128 labels of the OPPRF masks s, w, which shift the evaluator's label
/// corrections instead (16 B each online). Last, the PSI circuits read
/// their statistical widths (`secyan_psi::params`) where the recording
/// read 64-bit words, and the hints have the exact load bound's degree.
/// And every OEP stage runs at its logical size, where the recording
/// padded all three to the next power of two.
#[test]
fn kkrt_extends_inline_in_both_phases() {
    const BANKED_OFFLINE_BYTES: u64 = 1_667_232;
    const BANKED_ONLINE_BYTES: u64 = 1_320_384;
    let inst = chain3_bench_instance();
    let sizes = inst.sizes();
    // chain3 reduces R3 into R2 (Bob's R2 receives, Alice keys), then R2
    // into R1 (Alice's R1 receives, Bob keys); each PSI keys two batches
    // of one instance per cuckoo bin of the receiver's rows.
    let psis = [(sizes[1], Role::Alice), (sizes[0], Role::Bob)];
    let bundle = |m: usize| (512 * m.div_ceil(8)) as u64;
    let (mut keyed, mut online_growth) = ([0; 2], 0);
    for (receiver_rows, sender) in psis {
        let m = bin_count(receiver_rows);
        keyed[usize::from(sender == Role::Bob)] += 2 * m;
        online_growth += 2 * (bundle(m) - 64 * m as u64);
    }
    let shape = QueryShape::derive(&inst.query(), &sizes, Role::Alice, 64);
    assert_eq!(shape.kkrt_budget, keyed[0].max(keyed[1]));
    let banks: u64 = keyed.into_iter().map(bundle).sum();
    // Every circuit is planned, so the label OTs are their evaluator
    // inputs. The OEPs, each with its router, whose peer sends the OTs:
    // the first reduce-join routes its bins to R2's rows and the
    // aggregation onto R1's join key sorts R2 (Bob); the second PSI
    // carries shared payloads, so its circuit sits between two OEPs over
    // R2's rows plus the bins (Bob, then Alice), and its reduce-join
    // routes the bins to R1 (Alice).
    let labels: usize = shape
        .planned
        .iter()
        .map(|pc| evaluator_ot_count(&pc.circuit))
        .sum();
    let (bins, ext) = (
        [bin_count(sizes[1]), bin_count(sizes[0])],
        sizes[1] + bin_count(sizes[0]),
    );
    let oeps = [
        (bins[0], sizes[1], Role::Bob),
        (sizes[1], sizes[1], Role::Bob),
        (ext, ext, Role::Bob),
        (ext, bins[1], Role::Alice),
        (bins[1], sizes[0], Role::Alice),
    ];
    // Per OEP, the switches that padding added ([`padded_oep`]) left the
    // value holder's bank (by sender), and online their 8-byte
    // corrections, the padded masked values and their derandomization
    // bits.
    let word = 64 / 8;
    let octets = |n: usize| n.div_ceil(8) as u64;
    let (mut perm, mut dup, mut padded_perm, mut padded_dup) = (0, 0, 0, 0);
    let (mut padded_ots, mut padding_online) = ([0; 2], 0);
    for (n_in, n_out, router) in oeps {
        let net = EpNetwork::new(n_in, n_out);
        let (p, d, w) = padded_oep(&net);
        dup += net.dup_count();
        perm += net.switch_count() - net.dup_count();
        (padded_perm, padded_dup) = (padded_perm + p, padded_dup + d);
        padded_ots[usize::from(router == Role::Alice)] += p + d - net.switch_count();
        let words = 2 * (p - (net.switch_count() - net.dup_count())) + d - net.dup_count();
        padding_online +=
            (word * (words + w - net.k)) as u64 + octets(p + d) - octets(net.switch_count());
    }
    // What the shape banks is exactly these plus the two reduce-joins'
    // products: one plain term per receiver row, ℓ OTs each.
    let ot = shape.ot.from_alice + shape.ot.from_bob;
    assert_eq!(ot, labels + perm + dup + 64 * (sizes[1] + sizes[0]));
    // The matching circuit (Alice garbles) reads w of o′'s 64 bits, the k
    // circuit (Bob garbles) as many and i of p′'s. Each evaluator bit
    // dropped takes an AND table (32 B) and its bit of the IKNP bank's
    // columns (16 B per eight OTs of a direction, rounded up) offline,
    // and its label OT's 32 B (`online_shrink` halves only the bits still
    // fed) and derandomization bit online; each index bit the garbler's
    // label of d (16 B) and a decode bit. Each OPPRF's hints shrink from
    // the Chernoff form's D.
    let (w, i) = (bins.map(membership_bits), index_bits(ext));
    let dropped = [bins[0] * (64 - w[0]), bins[1] * (64 - w[1] + 64 - i)];
    let fed = [bins[0] * (w[0] + 64), bins[1] * (w[1] + i)];
    let sent = [shape.ot.from_alice, shape.ot.from_bob];
    let padded_sent = [sent[0] + padded_ots[0], sent[1] + padded_ots[1]];
    let columns: u64 = (0..2)
        .map(|k| 128 * (octets(padded_sent[k] + dropped[k]) - octets(padded_sent[k])))
        .sum();
    let padding_offline: u64 = (0..2)
        .map(|k| 128 * (octets(padded_sent[k]) - octets(sent[k])))
        .sum();
    let widths_offline = 32 * (dropped[0] + dropped[1]) as u64 + columns;
    let (chernoff_d, senders) = ([39, 53], [sizes[2], sizes[1]]);
    let hints = (0..2).map(|k| 16 * bins[k] * (chernoff_d[k] - max_bin_size(senders[k], bins[k])));
    let derandomization: u64 = (0..2).map(|k| octets(128 * bins[k]) - octets(fed[k])).sum();
    let widths_online = (32 * (dropped[0] + dropped[1]) + 16 * bins[1] * (64 - i)) as u64
        + derandomization
        + octets(64 * bins[1])
        - octets(i * bins[1])
        + hints.sum::<usize>() as u64;
    let online_shrink =
        (16 * labels + (32 - 2 * word) * padded_perm + (32 - word) * padded_dup) as u64;
    // The indicator word each PSI bin no longer shares, at ℓ = 64.
    let psi_bins = (bins[0] + bins[1]) as u64;
    let indicator_tables = 32 * 63 * psi_bins;
    let indicator_online = (16 * 64 + 64 / 8) * psi_bins;
    let folded_masks = 16 * 128 * psi_bins;
    let stats = run_secure_on(&inst, channel_pair(), PHASE_SPLIT).stats;
    assert_eq!(
        stats.offline_bytes,
        BANKED_OFFLINE_BYTES - banks - indicator_tables - widths_offline - padding_offline
    );
    assert_eq!(
        stats.online_bytes,
        BANKED_ONLINE_BYTES + online_growth
            - online_shrink
            - indicator_online
            - folded_masks
            - widths_online
            - padding_online
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
/// communication pattern changes. Session setup is four frames ending on
/// Alice's, so a query whose first frame is Alice's (chain(0), random(3))
/// continues her direction without a switch.
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
    let golden: Vec<u64> = vec![7, 19, 25, 23];
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
/// one frame per logical message, no fewer super-rounds — and strictly
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
        let u_tcp = run_secure_on(inst, tcp_pair(), Run::Uncoalesced);

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

        // Per-direction meters are identical.
        assert_eq!(c.stats.bytes_alice_to_bob, u.stats.bytes_alice_to_bob);
        assert_eq!(c.stats.bytes_bob_to_alice, u.stats.bytes_bob_to_alice);
        assert_eq!(c.stats.messages_alice_to_bob, u.stats.messages_alice_to_bob);
        assert_eq!(c.stats.messages_bob_to_alice, u.stats.messages_bob_to_alice);
        assert_eq!(c.stats.online_bytes, u.stats.online_bytes);
        assert_eq!(c.stats.offline_bytes, u.stats.offline_bytes);

        // Alice counts super-rounds in her own program order, so the
        // uncoalesced count is deterministic: the same over either pipe.
        // Coalescing can only merge same-direction frames, so it never
        // adds a super-round.
        assert_eq!(
            u.stats.super_rounds,
            u_tcp.stats.super_rounds,
            "uncoalesced super-rounds moved with the pipe on {}",
            inst.describe()
        );
        assert!(
            c.stats.super_rounds <= u.stats.super_rounds,
            "coalescing added super-rounds ({} > {}) on {}",
            c.stats.super_rounds,
            u.stats.super_rounds,
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
    let golden: Vec<u64> = vec![7, 19, 25, 23];
    assert_eq!(
        actual,
        golden,
        "per-family super-round goldens drifted over TCP (order: {:?})",
        families.map(|(name, _)| name),
    );
}

/// The coalesced-vs-eager differential holds over the socket exactly as
/// it does in process: byte-identical results and logical transcripts,
/// identical byte and message meters, strictly fewer frames when coalescing.
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
/// — two matchings, a merge and the reveal, 312 983 ANDs — and stores
/// their row templates, a few thousand gates, not their unrolling. The
/// two 450-row reduce-join products (450 × 1 055 and 450 × 1 086 ANDs
/// when they were circuits) plan no circuit: they draw the same
/// 450 · 32 and 450 · 64 OTs as their label transfers did. Each
/// matching circuit's 572 bins feed 32 payload bits fewer than the 64 the
/// OPPRF outputs, and 14 membership bits fewer (σ + ⌈log₂ 572⌉ = 50 of
/// 64, one `is_zero_word` AND each), so the budget is 2 · 572 · (32 + 14)
/// OTs below the 196 605 it was when they fed all 64 of both words. And
/// its three OEPs, 572 → 450 twice and 450 → 450, run each stage at its
/// logical size: S(k) + (n_out − 1) + S(n_out) switches with
/// S(n) = Σᵢ₌₁ⁿ ⌈log₂ i⌉, 8 685 and 7 527, where padding every stage to
/// 1 024 and 512 wires took 20 479 and 9 215. Budget: 118 705.
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
    // Each matching circuit's 572 bins read w = 50 of o′'s 64 bits.
    let w = membership_bits(572);
    assert_eq!(w, 50);
    let ands: Vec<u64> = circuits().map(|c| c.and_count()).collect();
    assert_eq!(ands, [64_064, 64_064, 70_555, 114_300]);
    let stored: usize = circuits()
        .flat_map(|c| c.segments())
        .map(|s| s.gates.len())
        .sum();
    assert!(stored < 50_000, "{stored} gates stored");
    let padding = |n_in: usize, n_out: usize| {
        let net = EpNetwork::new(n_in, n_out);
        let (perm, dup, _) = padded_oep(&net);
        perm + dup - net.switch_count()
    };
    let oeps = 2 * padding(572, 450) + padding(450, 450);
    assert_eq!(oeps, 2 * (20_479 - 8_685) + (9_215 - 7_527));
    assert_eq!(shape.ot_budget, 196_605 - 2 * 572 * (32 + 64 - w) - oeps);
    assert_eq!(shape.ot_budget, 118_705);
}

/// The two TPC-H benchmark instances, built as `sybench` builds them:
/// `query` at `mb`, seed 1, lineitem pinned to four lines per order by
/// cutting the surplus or repeating lines drawn at random.
fn tpch_bench_spec(
    query: secyan_tpch::PaperQuery,
    mb: f64,
) -> (
    secyan_tpch::queries::QuerySpec,
    secyan_relation::NaturalRing,
) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let ring = secyan_relation::NaturalRing::paper_default();
    let mut db = secyan_tpch::Database::generate(secyan_tpch::Scale::mb(mb), 1);
    let mut rng = StdRng::seed_from_u64(1);
    let target = 4 * db.orders.len();
    db.lineitem.rows.truncate(target);
    while db.lineitem.rows.len() < target {
        let again = db.lineitem.rows[rng.gen_range(0..db.lineitem.rows.len())].clone();
        db.lineitem.rows.push(again);
    }
    (query.build(&db, ring), ring)
}

/// The byte and super-round totals of `tpch_q3_cold` (Q3, 0.3 MB) and
/// `tpch_q18_tcp` (Q18, 0.1 MB), pinned in tier-1. Both follow from the
/// public sizes alone, so they are exact, and the pipe meters the same
/// payload bytes and super-rounds as the benchmark's loopback socket.
/// A byte claim on either workload moves these constants by exactly its
/// derived delta.
#[test]
fn tpch_bench_bytes_and_super_rounds_are_pinned() {
    use secyan_core::Session;
    use secyan_crypto::RingCtx;
    use secyan_tpch::queries::{canonical, run_plaintext_instance, run_secure_instance};
    use secyan_tpch::PaperQuery;
    // Per ℓ = 32 bin of a matching circuit, the garbler's 128 labels of
    // the folded OPPRF masks (2 048 B) and the column and correction of
    // the 32 payload bits the circuit drops (1 024 B) no longer travel:
    // Q3 runs 1 144 such bins, Q18 382. Every circuit of both runs is
    // garbled inline, on the evaluator's OT rows as its zero-labels, so
    // no evaluator bit takes a 16-byte label correction: 138 624 bits on
    // Q3, 41 472 on Q18.
    const FOLDED_Q3: u64 = 24_435_276 - 1_144 * (2_048 + 1_024) - 138_624 * 16;
    const FOLDED_Q18: u64 = 7_773_260 - 382 * (2_048 + 1_024) - 41_472 * 16;
    // Then the statistical widths (`secyan_psi::params`). The hints of
    // each OPPRF pair, 16 B per bin and degree, shrink to the exact load
    // bound: Q3's two PSIs of 572 bins from D = 80 to 42 and from 32 to
    // 10, Q18's two of 191 from 76 to 41. Each matching bin reads
    // σ + ⌈log₂ bins⌉ of o′'s 64 bits, 50 on Q3 and 48 on Q18; each bit
    // dropped takes its IKNP column (16 B) and its `is_zero_word` AND
    // (32 B).
    const Q3_BYTES: u64 = FOLDED_Q3 - 572 * (38 + 22) * 16 - 1_144 * 14 * 48;
    const Q18_BYTES: u64 = FOLDED_Q18 - 382 * 35 * 16 - 382 * 16 * 48;
    // Then every OEP stage at its logical size: S(k) + (n_out − 1) +
    // S(n_out) switches, S(n) = Σᵢ₌₁ⁿ ⌈log₂ i⌉, for k = max(n_in, n_out),
    // where all three stages ran at w = 2^⌈log₂ k⌉ wires ([`padded_oep`]).
    // Per OEP of m switches, d of them duplications, the router's IKNP
    // column bundle is 128 · ⌈m/8⌉ B, and the value holder sends 4 B
    // (ℓ = 32) per correction word (2 · (m − d) + d) and per masked value
    // (k, where it sent w of 8 B). Q3's 572 → 450 (twice) drops from
    // 20 479 OTs to 8 685 and its 450 → 450 from 9 215 to 7 527: 615 824 B,
    // to 16 769 212. Q18's 16 → 150 drops from 4 095 to 2 039 and its
    // 191 → 150 (twice) from 4 095 to 2 367: 135 032 B, to 5 293 876.
    let shed = |n_in: usize, n_out: usize| {
        let net = EpNetwork::new(n_in, n_out);
        let (m, d) = (net.switch_count(), net.dup_count());
        let (perm, dup, w) = padded_oep(&net);
        let padded = 128 * (perm + dup).div_ceil(8) + 4 * (2 * perm + dup) + 8 * w;
        (padded - 128 * m.div_ceil(8) - 4 * (2 * (m - d) + d + net.k)) as u64
    };
    let q3_bytes = Q3_BYTES - 2 * shed(572, 450) - shed(450, 450);
    let q18_bytes = Q18_BYTES - shed(16, 150) - 2 * shed(191, 150);
    assert_eq!((q3_bytes, q18_bytes), (16_769_212, 5_293_876));
    for (query, mb, bytes, super_rounds) in [
        (PaperQuery::Q3, 0.3, q3_bytes, 17),
        (PaperQuery::Q18, 0.1, q18_bytes, 19),
    ] {
        let (spec, ring) = tpch_bench_spec(query, mb);
        let spec = &spec;
        let party = |seed: u64| {
            move |ch: &mut Channel| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::default(), seed);
                run_secure_instance(&mut sess, spec)
            }
        };
        let (rows, _, stats) =
            run_protocol_on(channel_pair(), party(1 ^ 0xa11ce), party(1 ^ 0xb0b));
        assert_eq!(
            canonical(rows),
            canonical(run_plaintext_instance(spec, ring))
        );
        assert_eq!(
            (stats.total_bytes(), stats.super_rounds),
            (bytes, super_rounds),
            "{} bytes / super-rounds",
            query.name()
        );
    }
}

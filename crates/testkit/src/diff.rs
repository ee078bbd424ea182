//! The differential runner: every instance through every engine.
//!
//! Four engines evaluate the same instance:
//!
//! 1. the brute-force naive evaluator (`secyan-relation::naive`) — the
//!    oracle, chosen for being too simple to be wrong;
//! 2. plaintext 3-phase Yannakakis (`secyan-relation::yannakakis`);
//! 3. the naive garbled-circuit baseline (`secyan-baseline`), on instances
//!    matching its chain/scalar query shape;
//! 4. the full secure two-party protocol (`secyan-core`).
//!
//! [`check_instance`] asserts they all agree and returns the secure run's
//! transcript so obliviousness tests can compare instances of equal public
//! shape. Results are compared after canonicalization: rows sorted, equal
//! output tuples merged in the ring (the secure engine reveals one row per
//! surviving join row, the plaintext engines one per group — both are
//! valid decodings of the same aggregate), and zero-valued rows dropped
//! (a zero aggregate is indistinguishable from an absent row in every
//! engine's output contract).

use crate::gen::{AggKind, Instance};
use secyan_baseline::{naive_gc_evaluator, naive_gc_garbler, NaiveRows};
use secyan_core::{run_offline, run_online, secure_yannakakis, QueryResult, Session};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_ot::{OtReceiver, OtSender};
use secyan_relation::{naive::naive_join_aggregate, yannakakis, CountSemiring, Relation};
use secyan_transport::{
    channel_pair, recorded, run_protocol, try_run_protocol_on, Channel, CommStats, ProtocolError,
    Role,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Canonical query result: sorted `(tuple, value)` rows, no zero values.
pub type Rows = Vec<(Vec<u64>, u64)>;

/// Key bits used for baseline-compatible instances (keys are `< 256` by
/// [`Instance::baseline_rows`]'s check).
const BASELINE_KEY_BITS: usize = 8;

/// Permute tuple columns into sorted attribute-name order — the same
/// column order `Relation::canonical()` uses — so secure results (whose
/// `QueryResult::schema` is in protocol order) compare against plaintext
/// ones.
fn sorted_columns(schema: &[String], tuples: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    let mut order: Vec<usize> = (0..schema.len()).collect();
    order.sort_by(|&a, &b| schema[a].cmp(&schema[b]));
    tuples
        .into_iter()
        .map(|t| order.iter().map(|&i| t[i]).collect())
        .collect()
}

/// Canonicalize a secure run's revealed [`QueryResult`]: columns permuted
/// into sorted attribute-name order, rows sorted, equal tuples merged in
/// the ring, zero-valued rows dropped — the form every engine's output is
/// compared in. `secyan-client` uses this too, so a networked run prints
/// rows directly comparable with the oracle's.
pub fn canonical_result(ring: RingCtx, res: &QueryResult) -> Rows {
    canonical_nonzero(
        ring,
        sorted_columns(&res.schema, res.tuples.clone())
            .into_iter()
            .zip(res.values.iter().copied())
            .collect(),
    )
}

fn canonical_nonzero(ring: RingCtx, mut rows: Rows) -> Rows {
    rows.sort();
    let mut merged: Rows = Vec::with_capacity(rows.len());
    for (t, v) in rows {
        match merged.last_mut() {
            Some((last, acc)) if *last == t => *acc = ring.reduce(acc.wrapping_add(v)),
            _ => merged.push((t, v)),
        }
    }
    merged.retain(|(_, v)| *v != 0);
    merged
}

/// The oracle answer for an instance. SUM runs the naive evaluator in the
/// instance's own ring; COUNT runs it in the overflow-free saturating
/// counting semiring and reduces at the very end, so an engine that
/// wrapped *during* aggregation (instead of only at the boundary) would be
/// caught.
pub fn oracle(inst: &Instance) -> Rows {
    match inst.agg {
        AggKind::Sum => canonical_nonzero(
            inst.ring_ctx(),
            naive_join_aggregate(&inst.relations, &inst.output).canonical(),
        ),
        AggKind::Count => {
            let ring = inst.ring_ctx();
            let rels: Vec<Relation<CountSemiring>> = inst
                .relations
                .iter()
                .map(|r| {
                    Relation::from_rows(
                        CountSemiring,
                        r.schema.clone(),
                        r.tuples.iter().map(|t| (t.clone(), 1)).collect(),
                    )
                })
                .collect();
            canonical_nonzero(
                ring,
                naive_join_aggregate(&rels, &inst.output)
                    .canonical()
                    .into_iter()
                    .map(|(t, v)| (t, ring.reduce(v)))
                    .collect(),
            )
        }
    }
}

/// Engine 2: plaintext 3-phase Yannakakis over the instance's ring.
pub fn plaintext_yannakakis(inst: &Instance) -> Rows {
    canonical_nonzero(
        inst.ring_ctx(),
        yannakakis(&inst.relations, &inst.tree, &inst.output).canonical(),
    )
}

/// What a secure run produced, plus its public communication profile.
#[derive(Debug, Clone)]
pub struct SecureRun {
    /// Canonicalized receiver-side result.
    pub result: Rows,
    /// Public output size as revealed by the protocol.
    pub out_size: usize,
    /// Aggregate communication counters.
    pub stats: CommStats,
    /// Full payload transcript in wire order — obliviousness and
    /// thread-count-determinism tests compare these across runs.
    pub transcript: Vec<(Role, Vec<u8>)>,
}

impl SecureRun {
    /// One direction's wire stream: `dir`'s messages in program order.
    /// The *global* interleaving of the two directions is scheduler timing,
    /// not protocol content (both parties may send concurrently within a
    /// round), so cross-run comparisons are made per direction.
    pub fn sent_by(&self, dir: Role) -> Vec<&[u8]> {
        let sent = self.transcript.iter().filter(|(r, _)| *r == dir);
        sent.map(|(_, m)| m.as_slice()).collect()
    }
}

/// How a secure run is driven: one shot, one shot with message coalescing
/// off (every staged message ships as its own wire frame — the
/// pre-super-round behavior; same session seeds, so the result, the
/// logical transcript and every stage-time counter must match `Single`
/// byte for byte and only the frame/super-round counters may differ), or
/// the offline phase (shape-keyed precomputation) then the online phase
/// against the banked material. `shed` optionally exhausts the material in
/// between: `(circuits, ot_cap)` discards that many pre-garbled entries and
/// caps the OT banks, forcing per-step inline fallback mid-online (applied
/// symmetrically, as a real exhausted pool would be).
#[derive(Debug, Clone, Copy)]
pub enum Run {
    Single,
    Uncoalesced,
    PhaseSplit { shed: Option<(usize, usize)> },
}

/// Engine 4, the full secure two-party protocol: both parties of `inst`
/// over `pair`, Alice the receiver, session RNG seeds from
/// [`session_seeds`], the transcript recorded. The pair is the caller's —
/// `channel_pair()`, `tcp_channel_pair()`, either one `faulted` — so a
/// transport or a fault class is one more argument, not one more runner.
/// `Err` is a typed failure — never a hang or an untyped panic, on either
/// endpoint; `Ok` under a fault plan means the fault landed beyond the
/// run's frame horizon or degraded harmlessly.
pub fn try_run_secure_on(
    inst: &Instance,
    pair: (Channel, Channel),
    run: Run,
) -> Result<SecureRun, ProtocolError> {
    let (query, sizes, ring) = (inst.query(), inst.sizes(), inst.ring_ctx());
    let hasher = TweakHasher::default();
    let receiver = Role::Alice;
    let party = |seed: u64| {
        let (query, sizes) = (&query, &sizes);
        move |ch: &mut Channel| {
            ch.set_eager(matches!(run, Run::Uncoalesced));
            let rels = inst.party_relations(ch.role());
            match run {
                Run::Single | Run::Uncoalesced => {
                    let mut sess = Session::new(ch, ring, hasher, seed);
                    secure_yannakakis(&mut sess, query, &rels, receiver)
                }
                Run::PhaseSplit { shed } => {
                    let mut m = run_offline(ch, query, sizes, receiver, ring, hasher, seed);
                    if let Some((circuits, ot_cap)) = shed {
                        m.shed(circuits, ot_cap);
                    }
                    run_online(ch, query, &rels, receiver, ring, hasher, m)
                }
            }
        }
    };
    let (sa, sb) = session_seeds(inst);
    let (pair, transcript) = recorded(pair);
    let (res, _, stats) = try_run_protocol_on(pair, party(sa), party(sb))?;
    Ok(SecureRun {
        result: canonical_result(ring, &res),
        out_size: res.out_size,
        stats,
        transcript: transcript.messages(),
    })
}

/// [`try_run_secure_on`] for runs that must succeed.
pub fn run_secure_on(inst: &Instance, pair: (Channel, Channel), run: Run) -> SecureRun {
    try_run_secure_on(inst, pair, run)
        .unwrap_or_else(|e| panic!("secure run of {} failed: {e}", inst.describe()))
}

/// [`run_secure_on`] a fresh in-process pair, in one shot.
pub fn run_secure(inst: &Instance) -> SecureRun {
    run_secure_on(inst, channel_pair(), Run::Single)
}

/// Engine 3: the naive garbled-circuit baseline, on instances matching its
/// chain/scalar shape (`None` otherwise). Both parties must decode the
/// same aggregate; the caller compares it to the oracle's scalar.
pub fn run_baseline(inst: &Instance) -> Option<u64> {
    let rows = inst.baseline_rows()?;
    let sizes = inst.sizes();
    let owners = inst.owners.clone();
    let to_side = |who: Role| -> Vec<Option<NaiveRows>> {
        rows.iter()
            .zip(&owners)
            .map(|(r, &o)| if o == who { Some(r.clone()) } else { None })
            .collect()
    };
    let (alice_rows, bob_rows) = (to_side(Role::Alice), to_side(Role::Bob));
    let ell = inst.ell as usize;
    let (s2, o2) = (sizes.clone(), owners.clone());
    let (sa, sb) = session_seeds(inst);
    const HASHER: TweakHasher = TweakHasher::Aes;
    let (a, b, _) = run_protocol(
        move |ch| {
            let mut rng = StdRng::seed_from_u64(sa);
            let mut ot = OtSender::setup(ch, &mut rng, HASHER);
            naive_gc_garbler(
                ch,
                &sizes,
                &owners,
                &alice_rows,
                BASELINE_KEY_BITS,
                ell,
                &mut ot,
                &mut rng,
            )
        },
        move |ch| {
            let mut rng = StdRng::seed_from_u64(sb);
            let mut ot = OtReceiver::setup(ch, &mut rng, HASHER);
            naive_gc_evaluator(ch, &s2, &o2, &bob_rows, BASELINE_KEY_BITS, ell, &mut ot)
        },
    );
    assert_eq!(a, b, "baseline parties decode different aggregates");
    Some(a)
}

/// The scalar value of a canonicalized scalar-query result (`0` when the
/// aggregate vanished).
pub fn scalar_of(rows: &Rows) -> u64 {
    match rows.len() {
        0 => 0,
        1 => rows[0].1,
        n => panic!("scalar query produced {n} rows"),
    }
}

/// Everything [`check_instance`] established about one instance.
#[derive(Debug, Clone)]
pub struct Differential {
    /// The oracle's canonical answer.
    pub expected: Rows,
    /// The secure run (result already asserted equal to `expected`).
    pub secure: SecureRun,
    /// The baseline's aggregate, when the instance matched its shape.
    pub baseline: Option<u64>,
}

/// Run an instance through every engine and assert they agree. Panics
/// with the instance's reproduction handle on any mismatch.
pub fn check_instance(inst: &Instance) -> Differential {
    let expected = oracle(inst);
    let plain = plaintext_yannakakis(inst);
    assert_eq!(
        plain,
        expected,
        "plaintext yannakakis disagrees with the naive oracle on {}",
        inst.describe()
    );
    let secure = run_secure(inst);
    assert_eq!(
        secure.result,
        expected,
        "secure protocol disagrees with the oracle on {}",
        inst.describe()
    );
    let baseline = run_baseline(inst);
    if let Some(b) = baseline {
        assert_eq!(
            b,
            scalar_of(&expected),
            "circuit baseline disagrees with the oracle on {}",
            inst.describe()
        );
    }
    Differential {
        expected,
        secure,
        baseline,
    }
}

/// Derive the two parties' `(alice, bob)` session RNG seeds from the
/// instance seed — fixed so reruns of a seed are byte-identical, distinct
/// per party. Public because the networked runtime must derive the same
/// seeds in two different processes (`secyan-client` Alice's,
/// `secyan-server` Bob's) for a TCP run to be transcript-comparable with
/// an in-process one.
pub fn session_seeds(inst: &Instance) -> (u64, u64) {
    let base = inst.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (base ^ 0xA11C_E000, base ^ 0xB0B0_0000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_and_yannakakis_agree_widely() {
        // Plaintext-only sweep: cheap, so cover many seeds here; the
        // secure sweep lives in the integration suite.
        for seed in 0..150 {
            let inst = Instance::generate(seed);
            assert_eq!(
                plaintext_yannakakis(&inst),
                oracle(&inst),
                "{}",
                inst.describe()
            );
        }
    }

    #[test]
    fn secure_engine_agrees_on_a_sample() {
        for seed in [0, 1, 2, 3] {
            check_instance(&Instance::generate(seed));
        }
    }

    #[test]
    fn baseline_engine_agrees_on_chain_family() {
        let mut ran = 0;
        for seed in 0..4 {
            let inst = Instance::generate_chain(seed);
            let d = check_instance(&inst);
            ran += usize::from(d.baseline.is_some());
        }
        assert_eq!(ran, 4, "every chain instance must exercise the baseline");
    }

    #[test]
    fn scalar_of_rejects_non_scalars() {
        assert_eq!(scalar_of(&vec![]), 0);
        assert_eq!(scalar_of(&vec![(vec![], 7)]), 7);
    }
}

//! The offline/online phase split: precomputed-randomness pools.
//!
//! The paper's cost model (and every MPC deployment) separates *offline*
//! work — input-independent correlated randomness that can be produced at
//! any time — from the *online* critical path that must run once the data
//! arrives. This module packages the offline product per query shape:
//!
//! * [`run_offline`] bootstraps a full [`Session`] (2κ base OTs, OT
//!   extension, the KKRT OPRF seeded from it), banks exactly the random
//!   OTs the [`QueryShape`] walk recorded for each direction
//!   (Beaver-derandomized online; see [`secyan_ot::OtSender::bank`]), and
//!   pre-garbles every circuit of that walk, shipping the garbled tables
//!   ahead of time. It banks only what shortens the online wire, so KKRT
//!   batches extend inline online ([`secyan_ot::kkrt`] says why). The
//!   suspended session state *is* the offline material: a
//!   [`QueryMaterial`].
//! * [`run_online`] resumes a session from banked material and runs the
//!   standard driver; every operator transparently consumes banked OTs
//!   and pre-garbled circuits through [`Session`]'s digest-checked
//!   helpers, falling back inline (symmetrically on both parties) on any
//!   plan miss or bank exhaustion.
//! * [`PreprocPool`] keys materials by [`ShapeKey`] with strict
//!   single-use semantics: material is consumed on take and never
//!   revisited — reusing correlated randomness across executions would
//!   void every security argument. Banked secrets are `Secret`-wrapped
//!   throughout (OT rows, choice bits, garbling keys) and zeroize when
//!   consumed or dropped.
//!
//! Offline and online traffic travel under distinct phase tags in the
//! transport framing ([`secyan_transport::Phase`]), so a frame produced by
//! the wrong phase surfaces as a typed [`PhaseMismatch`] error instead of
//! silent misuse, and [`CommStats`] reports the two phases' bytes/rounds
//! separately.
//!
//! [`PhaseMismatch`]: secyan_transport::TransportError::PhaseMismatch
//! [`CommStats`]: secyan_transport::CommStats

use crate::protocol::{secure_yannakakis, QueryResult};
use crate::query::SecureQuery;
use crate::session::{in_role_order, Session};
use crate::shape::{QueryShape, ShapeKey};
use rand::rngs::StdRng;
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_gc::{evaluate_offline, garble_offline, EvalMaterial, GarbleMaterial};
use secyan_ot::{KkrtReceiver, KkrtSender, OtReceiver, OtSender};
use secyan_relation::{NaturalRing, Relation};
use secyan_transport::{Channel, Phase, Role};
use std::collections::{HashMap, VecDeque};

/// One shape's worth of offline material: a suspended protocol session
/// (bootstrapped OT extension and OPRF state, CSPRNG), the attached OT
/// banks, and the pre-garbled circuit schedule. Strictly single-use — the
/// pool hands it out at most once, and all banked key material zeroizes
/// on drop whether or not it was consumed.
pub struct QueryMaterial {
    key: ShapeKey,
    rng: StdRng,
    ot_send: OtSender,
    ot_recv: OtReceiver,
    kkrt_send: KkrtSender,
    kkrt_recv: KkrtReceiver,
    gc_garble: VecDeque<GarbleMaterial>,
    gc_eval: VecDeque<EvalMaterial>,
}

impl QueryMaterial {
    /// The shape this material was provisioned for.
    pub fn key(&self) -> ShapeKey {
        self.key
    }

    /// Banked random OTs remaining (send direction, receive direction).
    pub fn ot_banked(&self) -> (usize, usize) {
        (self.ot_send.bank_remaining(), self.ot_recv.bank_remaining())
    }

    /// Pre-garbled circuits held (as garbler, as evaluator).
    pub fn circuits_banked(&self) -> (usize, usize) {
        (self.gc_garble.len(), self.gc_eval.len())
    }

    /// Random OTs this party's extensions have produced so far (as sender,
    /// as receiver), banked and inline alike — so the growth across an
    /// online run is what that run could not take from its banks.
    pub fn ot_extended(&self) -> (u64, u64) {
        (self.ot_send.extended(), self.ot_recv.extended())
    }

    /// Fault-injection hook (used by the differential harness): discard
    /// the first `circuits` entries of each pre-garbled deque and cap each
    /// OT bank at `ot_cap` remaining instances, simulating material
    /// exhausted partway through an online run. Shed entries zeroize on
    /// the way out exactly like consumed ones. Both parties must shed
    /// identically for the per-step fallback decisions to stay mirrored —
    /// party A's `gc_garble[i]` pairs with party B's `gc_eval[i]`, so
    /// popping the front of both deques on both sides keeps the pairing.
    pub fn shed(&mut self, circuits: usize, ot_cap: usize) {
        for _ in 0..circuits.min(self.gc_garble.len().max(self.gc_eval.len())) {
            self.gc_garble.pop_front();
            self.gc_eval.pop_front();
        }
        self.ot_send.shed_bank_to(ot_cap);
        self.ot_recv.shed_bank_to(ot_cap);
    }

    /// Capture a session's protocol state, releasing its channel borrow.
    fn suspend(key: ShapeKey, sess: Session) -> QueryMaterial {
        let Session {
            rng,
            ot_send,
            ot_recv,
            kkrt_send,
            kkrt_recv,
            gc_garble,
            gc_eval,
            ..
        } = sess;
        QueryMaterial {
            key,
            rng,
            ot_send,
            ot_recv,
            kkrt_send,
            kkrt_recv,
            gc_garble,
            gc_eval,
        }
    }

    /// Rebuild a live session around `ch`, consuming the material.
    fn resume(self, ch: &mut Channel, ring: RingCtx) -> Session<'_> {
        Session {
            ch,
            ring,
            rng: self.rng,
            ot_send: self.ot_send,
            ot_recv: self.ot_recv,
            kkrt_send: self.kkrt_send,
            kkrt_recv: self.kkrt_recv,
            gc_garble: self.gc_garble,
            gc_eval: self.gc_eval,
        }
    }
}

/// Run the offline phase for one execution of `query` at the given public
/// per-relation `sizes`, revealing to `receiver`. Both parties call this
/// with identical public arguments. All traffic is tagged
/// [`Phase::Offline`].
///
/// The returned material covers: session bootstrap (κ base OTs per IKNP
/// direction, and the KKRT OPRF seeds extended from them — the
/// per-session fixed cost), exactly `shape.ot` random OTs in each
/// direction (derandomized online via Beaver-style corrections), and the
/// pre-garbled tables of every circuit of the walk. KKRT batches are not
/// banked; they extend inline online (see the module docs).
pub fn run_offline(
    ch: &mut Channel,
    query: &SecureQuery,
    sizes: &[usize],
    receiver: Role,
    ring: RingCtx,
    hasher: TweakHasher,
    rng_seed: u64,
) -> QueryMaterial {
    let shape = QueryShape::derive(query, sizes, receiver, ring.bits() as usize);
    ch.set_phase(Phase::Offline);
    let mut sess = Session::new(ch, ring, hasher, rng_seed);
    // Bank each direction's OTs, in the same role-fixed interleave as the
    // IKNP bootstrap so the two sides pair up.
    let me = sess.role();
    let (ot_out, ot_in) = (shape.ot.of(me), shape.ot.of(me.peer()));
    in_role_order(
        me,
        &mut sess,
        |s| s.ot_send.bank(s.ch, ot_out),
        |s| s.ot_recv.bank(s.ch, ot_in, &mut s.rng),
    );
    // Pre-garble the planned circuit schedule; tables cross the wire now
    // so the online phase only moves input-dependent messages.
    for pc in &shape.planned {
        if me == pc.garbler {
            let m = garble_offline(sess.ch, &pc.circuit, &sess.ot_send, &mut sess.rng);
            sess.gc_garble.push_back(m);
        } else {
            sess.gc_eval
                .push_back(evaluate_offline(sess.ch, &pc.circuit));
        }
    }
    let material = QueryMaterial::suspend(shape.key, sess);
    ch.set_phase(Phase::Single);
    material
}

/// Run the online phase against previously provisioned material. All
/// traffic is tagged [`Phase::Online`]. The driver is the unmodified
/// [`secure_yannakakis`]; banked material is consumed transparently and
/// any shortfall degrades to inline computation on both sides at once.
pub fn run_online(
    ch: &mut Channel,
    query: &SecureQuery,
    my_relations: &[Option<Relation<NaturalRing>>],
    receiver: Role,
    ring: RingCtx,
    _hasher: TweakHasher,
    material: QueryMaterial,
) -> QueryResult {
    run_online_leftover(ch, query, my_relations, receiver, ring, material).0
}

/// [`run_online`], handing back what the run left of its material instead
/// of dropping it — for auditing a plan against its execution (an exact
/// plan leaves no circuits and empty banks). The leftover is spent
/// material: consumed entries are gone and it pairs with nothing.
pub fn run_online_leftover(
    ch: &mut Channel,
    query: &SecureQuery,
    my_relations: &[Option<Relation<NaturalRing>>],
    receiver: Role,
    ring: RingCtx,
    material: QueryMaterial,
) -> (QueryResult, QueryMaterial) {
    ch.set_phase(Phase::Online);
    let key = material.key;
    let mut sess = material.resume(ch, ring);
    let out = secure_yannakakis(&mut sess, query, my_relations, receiver);
    let left = QueryMaterial::suspend(key, sess);
    ch.set_phase(Phase::Single);
    (out, left)
}

/// A shape-keyed pool of offline material. Entries are strictly
/// single-use: [`PreprocPool::take`] removes the material from the pool,
/// and whatever the online run does not consume zeroizes on drop.
#[derive(Default)]
pub struct PreprocPool {
    entries: HashMap<ShapeKey, Vec<QueryMaterial>>,
    hits: u64,
    misses: u64,
}

impl PreprocPool {
    pub fn new() -> PreprocPool {
        PreprocPool::default()
    }

    /// Run one offline phase and bank the material under its shape key.
    /// Returns the key for later lookups.
    #[expect(clippy::too_many_arguments)]
    pub fn provision(
        &mut self,
        ch: &mut Channel,
        query: &SecureQuery,
        sizes: &[usize],
        receiver: Role,
        ring: RingCtx,
        hasher: TweakHasher,
        rng_seed: u64,
    ) -> ShapeKey {
        let material = run_offline(ch, query, sizes, receiver, ring, hasher, rng_seed);
        let key = material.key;
        self.entries.entry(key).or_default().push(material);
        key
    }

    /// Materials currently banked for `key`.
    pub fn available(&self, key: ShapeKey) -> usize {
        self.entries.get(&key).map_or(0, Vec::len)
    }

    /// Take one material for `key` — consumed-on-take; a second `take`
    /// for the same provisioning returns `None`.
    pub fn take(&mut self, key: ShapeKey) -> Option<QueryMaterial> {
        let bank = self.entries.get_mut(&key)?;
        let material = bank.pop()?;
        if bank.is_empty() {
            self.entries.remove(&key);
        }
        self.hits += 1;
        Some(material)
    }

    /// Pool hits so far (successful takes).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Pool misses so far (pooled runs that fell back to inline offline
    /// computation).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Run a query online against the pool, using pooled material only when
/// *both* parties hold some for this shape; otherwise the run falls back
/// to a fresh inline session — correct, just without the offline speedup
/// — and the miss is counted.
///
/// The agreement costs exactly one super-round on top of [`run_online`]:
/// the owner of the plan-first relation opens the driver (its sizes are
/// the first driver frame), so its *peer* announces availability and the
/// opener answers with the joint verdict staged ahead of that frame. Were
/// both to announce at once, the round count would depend on whose frame
/// won the race.
#[expect(clippy::too_many_arguments)]
pub fn run_online_pooled(
    pool: &mut PreprocPool,
    ch: &mut Channel,
    query: &SecureQuery,
    sizes: &[usize],
    my_relations: &[Option<Relation<NaturalRing>>],
    receiver: Role,
    ring: RingCtx,
    hasher: TweakHasher,
    fallback_seed: u64,
) -> QueryResult {
    let key = ShapeKey::of(query, sizes, receiver, ring.bits() as usize);
    ch.set_phase(Phase::Online);
    let have = pool.available(key) > 0;
    let hit = if query.owners[0] == ch.role() {
        let hit = ch.recv_u64() != 0 && have;
        ch.send_u64(u64::from(hit));
        hit
    } else {
        ch.send_u64(u64::from(have));
        ch.recv_u64() != 0
    };
    let out = if hit {
        let material = pool.take(key).expect("availability just checked");
        let mut sess = material.resume(ch, ring);
        secure_yannakakis(&mut sess, query, my_relations, receiver)
    } else {
        pool.misses += 1;
        let mut sess = Session::new(ch, ring, hasher, fallback_seed);
        secure_yannakakis(&mut sess, query, my_relations, receiver)
    };
    ch.set_phase(Phase::Single);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_crypto::secret::{Secret, Zeroize};
    use secyan_relation::JoinTree;
    use secyan_transport::run_protocol;
    use std::collections::HashMap as StdHashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn example_query() -> SecureQuery {
        SecureQuery::new(
            vec![
                strings(&["person"]),
                strings(&["person", "disease"]),
                strings(&["disease", "class"]),
            ],
            vec![Role::Alice, Role::Bob, Role::Alice],
            JoinTree::chain(3),
            strings(&["class"]),
        )
    }

    fn example_rels() -> Vec<Relation<NaturalRing>> {
        let ring = NaturalRing::paper_default();
        vec![
            Relation::from_rows(
                ring,
                strings(&["person"]),
                vec![(vec![1], 80), (vec![2], 50), (vec![3], 70)],
            ),
            Relation::from_rows(
                ring,
                strings(&["person", "disease"]),
                vec![
                    (vec![1, 10], 1000),
                    (vec![1, 11], 500),
                    (vec![2, 10], 2000),
                    (vec![9, 10], 400),
                ],
            ),
            Relation::from_rows(
                ring,
                strings(&["disease", "class"]),
                vec![(vec![10, 7], 1), (vec![11, 8], 1), (vec![12, 9], 1)],
            ),
        ]
    }

    fn as_map(res: &QueryResult) -> StdHashMap<Vec<u64>, u64> {
        res.tuples
            .iter()
            .cloned()
            .zip(res.values.iter().copied())
            .collect()
    }

    #[test]
    fn offline_then_online_matches_single_phase() {
        let rels = example_rels();
        let query = example_query();
        let sizes = [3usize, 4, 3];
        let alice = vec![Some(rels[0].clone()), None, Some(rels[2].clone())];
        let bob = vec![None, Some(rels[1].clone()), None];
        let (q1, q2) = (query.clone(), query.clone());
        let (a1, b1) = (alice.clone(), bob.clone());
        // Single-phase reference.
        let (want, _, _) = run_protocol(
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 201);
                secure_yannakakis(&mut sess, &q1, &a1, Role::Alice)
            },
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 202);
                secure_yannakakis(&mut sess, &q2, &b1, Role::Alice)
            },
        );
        // Phase-split run.
        let (q1, q2) = (query.clone(), query);
        let (got, _, _) = run_protocol(
            move |ch| {
                let ring = RingCtx::new(32);
                let m = run_offline(ch, &q1, &sizes, Role::Alice, ring, TweakHasher::Aes, 203);
                assert!(m.ot_banked().0 > 0 && m.ot_banked().1 > 0);
                let (g, e) = m.circuits_banked();
                assert!(g + e > 0, "the chain plan must pre-garble something");
                let stats = ch.stats();
                assert!(stats.offline_bytes > 0, "offline traffic must be tagged");
                assert_eq!(stats.online_bytes, 0);
                let res = run_online(ch, &q1, &alice, Role::Alice, ring, TweakHasher::Aes, m);
                let stats = ch.stats();
                assert!(stats.online_bytes > 0, "online traffic must be tagged");
                assert!(
                    stats.online_bytes < stats.offline_bytes,
                    "precomputation must shift the bulk of the traffic offline \
                     (online {} vs offline {})",
                    stats.online_bytes,
                    stats.offline_bytes
                );
                res
            },
            move |ch| {
                let ring = RingCtx::new(32);
                let m = run_offline(ch, &q2, &sizes, Role::Alice, ring, TweakHasher::Aes, 204);
                run_online(ch, &q2, &bob, Role::Alice, ring, TweakHasher::Aes, m)
            },
        );
        assert_eq!(as_map(&got), as_map(&want));
        assert_eq!(got.out_size, want.out_size);
    }

    #[test]
    fn pool_round_trip_hits_then_misses() {
        let rels = example_rels();
        let query = example_query();
        let sizes = [3usize, 4, 3];
        let alice = vec![Some(rels[0].clone()), None, Some(rels[2].clone())];
        let bob = vec![None, Some(rels[1].clone()), None];
        let (q1, q2) = (query.clone(), query);
        let ((first, second, hits, misses), _, _) = run_protocol(
            move |ch| {
                let ring = RingCtx::new(32);
                let mut pool = PreprocPool::new();
                let key = pool.provision(ch, &q1, &sizes, Role::Alice, ring, TweakHasher::Aes, 301);
                assert_eq!(pool.available(key), 1);
                // First pooled run consumes the material (single-use)…
                let first = run_online_pooled(
                    &mut pool,
                    ch,
                    &q1,
                    &sizes,
                    &alice,
                    Role::Alice,
                    ring,
                    TweakHasher::Aes,
                    302,
                );
                assert_eq!(pool.available(key), 0);
                // …and the second run of the same shape falls back inline.
                let second = run_online_pooled(
                    &mut pool,
                    ch,
                    &q1,
                    &sizes,
                    &alice,
                    Role::Alice,
                    ring,
                    TweakHasher::Aes,
                    303,
                );
                (first, second, pool.hits(), pool.misses())
            },
            move |ch| {
                let ring = RingCtx::new(32);
                let mut pool = PreprocPool::new();
                pool.provision(ch, &q2, &sizes, Role::Alice, ring, TweakHasher::Aes, 304);
                run_online_pooled(
                    &mut pool,
                    ch,
                    &q2,
                    &sizes,
                    &bob,
                    Role::Alice,
                    ring,
                    TweakHasher::Aes,
                    305,
                );
                run_online_pooled(
                    &mut pool,
                    ch,
                    &q2,
                    &sizes,
                    &bob,
                    Role::Alice,
                    ring,
                    TweakHasher::Aes,
                    306,
                );
            },
        );
        assert_eq!(as_map(&first), as_map(&second));
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }

    #[test]
    fn asymmetric_pool_state_falls_back_without_hanging() {
        // Alice provisions, Bob does not: the availability handshake must
        // make both sides agree on inline fallback, and the leftover
        // material must stay banked on Alice's side.
        let rels = example_rels();
        let query = example_query();
        let sizes = [3usize, 4, 3];
        let alice = vec![Some(rels[0].clone()), None, Some(rels[2].clone())];
        let bob = vec![None, Some(rels[1].clone()), None];
        let (q1, q2) = (query.clone(), query);
        let ((res, leftover), _, _) = run_protocol(
            move |ch| {
                let ring = RingCtx::new(32);
                let mut pool = PreprocPool::new();
                let key = pool.provision(ch, &q1, &sizes, Role::Alice, ring, TweakHasher::Aes, 311);
                let res = run_online_pooled(
                    &mut pool,
                    ch,
                    &q1,
                    &sizes,
                    &alice,
                    Role::Alice,
                    ring,
                    TweakHasher::Aes,
                    312,
                );
                (res, pool.available(key))
            },
            move |ch| {
                let ring = RingCtx::new(32);
                // Bob must speak the offline phase for Alice's provisioning
                // to complete — he just discards his half of the material.
                let mut pool = PreprocPool::new();
                drop(run_offline(
                    ch,
                    &q2,
                    &sizes,
                    Role::Alice,
                    ring,
                    TweakHasher::Aes,
                    313,
                ));
                run_online_pooled(
                    &mut pool,
                    ch,
                    &q2,
                    &sizes,
                    &bob,
                    Role::Alice,
                    ring,
                    TweakHasher::Aes,
                    314,
                )
            },
        );
        assert_eq!(res.out_size, 2, "example 1.1 has two result classes");
        assert_eq!(leftover, 1, "unused material must stay pooled");
    }

    /// The zeroize-on-drop canary for pool entries. `QueryMaterial` keeps
    /// every banked secret inside `Secret<…>` wrappers (OT rows and choice
    /// bits in the banks, wire keys in pre-garbled material), so scrubbing
    /// reduces to `Secret`'s drop guarantee — which this canary observes
    /// directly: `Secret`'s `Drop` must invoke `Zeroize::zeroize` on the
    /// wrapped value before releasing it.
    #[test]
    fn dropped_secrets_are_zeroized_first() {
        struct Canary {
            scrubbed: Arc<AtomicU64>,
            data: u64,
        }
        impl Zeroize for Canary {
            fn zeroize(&mut self) {
                assert_ne!(self.data, 0, "zeroize must see the live value");
                self.data = 0;
                self.scrubbed.fetch_add(1, Ordering::SeqCst);
            }
        }
        let scrubbed = Arc::new(AtomicU64::new(0));
        let secret = Secret::new(Canary {
            scrubbed: Arc::clone(&scrubbed),
            data: 0xfeed,
        });
        assert_eq!(scrubbed.load(Ordering::SeqCst), 0);
        drop(secret);
        assert_eq!(
            scrubbed.load(Ordering::SeqCst),
            1,
            "dropping a Secret must zeroize its contents exactly once"
        );
    }
}

//! Oblivious semijoin and reduce-join (paper §6.2).
//!
//! The reduce-join `R ← R_F ⋈⊗ R_G` (with `R_G`'s attributes contained in
//! `R_F`'s, as in the reduce phase) keeps exactly `R_F`'s tuples and
//! replaces each annotation by `v_F(t) ⊗ v_G(t')` for the unique joining
//! `t' ∈ R_G` — or by 0 if none exists. The annotated semijoin
//! `R_F ⋉⊗ R_G` is the same thing applied to the support projection
//! π¹(R_G).
//!
//! Two variants, exactly as in the paper:
//! * **cross-party** — `R_F` and `R_G` owned by different parties: PSI
//!   (with plain payloads while `R_G`'s annotations are still owner-known,
//!   §6.5; with secret-shared payloads otherwise, §5.5) aligns `R_G`'s
//!   annotations with `R_F`'s cuckoo bins, then an OEP and a share
//!   multiplication finish the job;
//! * **same-party** — no PSI needed: the owner matches tuples locally and
//!   a single OEP + multiplication does the rest.
//!
//! The product `v ⊗ z` is ring arithmetic on additive shares, so it runs
//! on the shares ([`Session::multiply`]: correlated OTs), not in a circuit.

use crate::session::Session;
use crate::shape::{Draws, RelHeader};
use crate::srel::{dummy_key, SecureRelation};
use secyan_psi::CuckooTable;
use std::collections::HashMap;

/// Map each R_F row to the cuckoo bin holding its join key (bin 0 for
/// dummy rows — their annotation is 0, so the product kills the payload).
fn route_rows(cuckoo: &CuckooTable, key_of_row: &[Option<u64>]) -> Vec<usize> {
    let mut bin_of_key: HashMap<u64, usize> = HashMap::new();
    for (b, slot) in cuckoo.bins.iter().enumerate() {
        if let Some(e) = slot {
            bin_of_key.insert(*e, b);
        }
    }
    key_of_row
        .iter()
        .map(|k| match k {
            Some(k) => *bin_of_key.get(k).expect("key was cuckoo-placed"),
            None => 0,
        })
        .collect()
}

/// How a reduce-join aligns `R_G`'s annotations with `R_F`'s rows — a
/// function of the two public headers alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinPath {
    /// Same owner: it matches tuples locally; one OEP does the rest.
    SameOwner,
    /// Cross-party while `R_G`'s annotations are still owner-known: a
    /// circuit PSI with plain payloads (§6.5), then the ξ-OEP from cuckoo
    /// bins to rows.
    PlainPsi,
    /// Cross-party with `R_G`'s annotations already shared: the PSI with
    /// secret-shared payloads (§5.5), then the same ξ-OEP.
    SharedPsi,
}

/// The public step [`oblivious_reduce_join`] is about to run.
pub(crate) struct ReduceJoinStep {
    /// Header of the output: `R_F`'s, with the annotations now shared.
    pub out: RelHeader,
    pub path: JoinPath,
    /// `R_F`'s annotations are still owner-known, so its owner multiplies
    /// by them in the clear (§6.5).
    pub v_plain: bool,
    g_size: usize,
    ell: usize,
}

pub(crate) fn reduce_join_step(rf: &RelHeader, rg: &RelHeader, ell: usize) -> ReduceJoinStep {
    let path = if rf.owner == rg.owner {
        JoinPath::SameOwner
    } else if rg.is_plain {
        JoinPath::PlainPsi
    } else {
        JoinPath::SharedPsi
    };
    let out = RelHeader {
        is_plain: false,
        ..rf.clone()
    };
    ReduceJoinStep {
        out,
        path,
        v_plain: rf.is_plain,
        g_size: rg.size,
        ell,
    }
}

impl ReduceJoinStep {
    pub(crate) fn draws(&self) -> Draws {
        let mut d = Draws::default();
        let (f, n) = (self.out.owner, self.out.size);
        match self.path {
            // One extra slot catches non-matches.
            JoinPath::SameOwner => d.oep(f, self.g_size + 1, n),
            // `f` receives the PSI, then routes its bins to its rows.
            path => {
                let shared = path == JoinPath::SharedPsi;
                let bins = d.psi(f, n, self.g_size, self.ell, shared);
                d.oep(f, bins, n);
            }
        }
        d.multiply(f, n, self.ell, self.v_plain);
        d
    }
}

/// Oblivious reduce-join `R_F ⋈⊗ R_G` (see module docs). The real tuples
/// of `R_G` must be distinct on the shared attributes — guaranteed when
/// `R_G` is a projection-aggregation output, which is the only way the
/// Yannakakis driver calls this.
pub fn oblivious_reduce_join(
    sess: &mut Session,
    rf: &SecureRelation,
    mut rg: SecureRelation,
) -> SecureRelation {
    let ell = sess.ring.bits() as usize;
    let step = reduce_join_step(&rf.header(), &rg.header(), ell);
    let join_attrs: Vec<String> = rf
        .schema
        .iter()
        .filter(|a| rg.schema.contains(a))
        .cloned()
        .collect();
    let n = rf.size;
    let (f, i_own_f) = (rf.owner, rf.is_mine(sess));

    // Obtain my z-shares aligned with R_F's rows.
    let my_z: Vec<u64> = if step.path == JoinPath::SameOwner {
        rg.ensure_shared(sess);
        // Owner matches locally; one extra dummy slot catches non-matches.
        let mut g_shares = rg.annot_shares.clone();
        g_shares.push(0);
        let xi: Option<Vec<usize>> = i_own_f.then(|| {
            let pos_g = rg.positions(&join_attrs);
            let g_dummy = rg.dummy.as_ref().expect("owner side");
            let mut index: HashMap<u64, usize> = HashMap::new();
            let nonce = sess.random_u64();
            for (j, dummy) in g_dummy.iter().enumerate().take(rg.size) {
                if !dummy {
                    let k = rg.join_key(j, &pos_g, nonce);
                    assert!(
                        index.insert(k, j).is_none(),
                        "reduce-join requires distinct join keys in R_G"
                    );
                }
            }
            let pos_f = rf.positions(&join_attrs);
            let f_dummy = rf.dummy.as_ref().expect("owner side");
            (0..n)
                .map(|i| {
                    if f_dummy[i] {
                        rg.size // dummy slot
                    } else {
                        let k = rf.join_key(i, &pos_f, nonce);
                        index.get(&k).copied().unwrap_or(rg.size)
                    }
                })
                .collect()
        });
        sess.oep(f, xi.as_deref(), n, &g_shares)
    } else {
        // Cross-party: PSI aligns R_G's annotations to R_F's cuckoo bins,
        // with plain payloads while they are still owner-known (§6.5).
        let shared = step.path == JoinPath::SharedPsi;
        let nonce = sess.random_u64();
        if i_own_f {
            // Build X: distinct join keys of real R_F rows, padded to n.
            let pos_f = rf.positions(&join_attrs);
            let f_dummy = rf.dummy.as_ref().expect("owner side");
            let mut seen: HashMap<u64, ()> = HashMap::new();
            let mut x: Vec<u64> = Vec::with_capacity(n);
            let mut key_of_row: Vec<Option<u64>> = vec![None; n];
            for i in 0..n {
                if f_dummy[i] {
                    continue;
                }
                let k = rf.join_key(i, &pos_f, nonce);
                key_of_row[i] = Some(k);
                if seen.insert(k, ()).is_none() {
                    x.push(k);
                }
            }
            let mut pad = 0u64;
            while x.len() < n {
                x.push(dummy_key(nonce ^ 0x5eed, pad));
                pad += 1;
            }
            // Begin the PSI: once the cuckoo table is fixed (before the
            // PSI completes), ξ is derivable, so the ξ-OEP's OT
            // corrections ride the same outbound super-frame as the PSI's.
            // The sender consumes them in this order: PSI first, outer
            // OEP last — matching the staging order here.
            let psi = sess.psi_receiver_begin(&x, rg.my_annots(), shared);
            let xi = route_rows(psi.cuckoo(), &key_of_row);
            let oep = sess.oep_begin(&xi, psi.cuckoo().bins.len());
            let payload_shares = sess.psi_receiver_finish(psi);
            sess.oep_finish(oep, &payload_shares)
        } else {
            // R_G owner: PSI sender.
            debug_assert!(rg.is_mine(sess));
            let pos_g = rg.positions(&join_attrs);
            let g_dummy = rg.dummy.as_ref().expect("owner side");
            let keys: Vec<u64> = (0..rg.size)
                .map(|j| {
                    if g_dummy[j] {
                        dummy_key(nonce ^ 0x60, j as u64)
                    } else {
                        rg.join_key(j, &pos_g, nonce)
                    }
                })
                .collect();
            let payload_shares = sess.psi_sender(&keys, n, rg.my_annots(), shared);
            sess.oep(f, None, n, &payload_shares)
        }
    };

    // New annotations [v ⊗ z], multiplied on the shares.
    let out_shares = sess.multiply(f, rf.my_annots(), &my_z, step.v_plain);
    SecureRelation {
        tuples: rf.tuples.clone(),
        dummy: rf.dummy.clone(),
        ..SecureRelation::shared(step.out, None, out_shares)
    }
}

/// Oblivious annotated semijoin `R_F ⋉⊗ R_G` (paper §6.2): the support
/// projection of `R_G` on the shared attributes, then a reduce-join.
pub fn oblivious_semijoin(
    sess: &mut Session,
    rf: &SecureRelation,
    rg: &SecureRelation,
) -> SecureRelation {
    crate::protocol::semijoin(sess, rf, rg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::in_role_order;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_circuit::{words_to_bits, Circuit};
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_gc::{with_shared_rows, SharedOutputSpec};
    use secyan_relation::{NaturalRing, Relation};
    use secyan_transport::{run_protocol, Channel, Role};

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// The garbled multiplier [`Session::multiply`] replaced, kept as its
    /// reference: out_i = v_i ⊗ z_i as fresh shares, the garbler feeding
    /// v_i in the clear when `v_plain`.
    fn product_circuit(n: usize, ell: usize, v_plain: bool) -> (Circuit, SharedOutputSpec) {
        with_shared_rows(n, &[ell], |c| {
            let (va, za) = (c.alice(n, ell), c.alice(n, ell));
            let vb = (!v_plain).then(|| c.bob(n, ell));
            let zb = c.bob(n, ell);
            let product = c.segment(n, |b| {
                let (va, za) = (b.read(va), b.read(za));
                let vb = vb.map(|vb| b.read(vb));
                let zb = b.read(zb);
                let v = match vb {
                    Some(vb) => b.add_words(&va, &vb),
                    None => va,
                };
                let z = b.add_words(&za, &zb);
                let vz = b.mul_words(&v, &z);
                b.output_word(&vz);
            });
            vec![product]
        })
    }

    /// Shared inputs of one multiplication case: the values, and each
    /// party's `(v, z)` — the owner holding `v` in the clear when `v_plain`.
    type Shares = (Vec<u64>, Vec<u64>);
    fn shared_inputs(
        ring: RingCtx,
        n: usize,
        owner: Role,
        v_plain: bool,
        seed: u64,
    ) -> (Shares, Shares, Shares) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v: Vec<u64> = (0..n).map(|_| ring.random(&mut rng)).collect();
        let z: Vec<u64> = (0..n).map(|_| ring.random(&mut rng)).collect();
        let (mut v_own, mut v_peer) = ring.share_vec(&v, &mut rng);
        if v_plain {
            (v_own, v_peer) = (v.clone(), vec![0; n]);
        }
        let (z_own, z_peer) = ring.share_vec(&z, &mut rng);
        let (own, peer) = ((v_own, z_own), (v_peer, z_peer));
        match owner {
            Role::Alice => ((v, z), own, peer),
            Role::Bob => ((v, z), peer, own),
        }
    }

    type Multiplier = fn(&mut Session, Role, &[u64], &[u64], bool) -> Vec<u64>;
    const MULTIPLY: Multiplier = |sess, owner, v, z, v_plain| sess.multiply(owner, v, z, v_plain);

    /// The reference multiplier: the product circuit through
    /// `garble_shared`, fed v (unless it is plain and not mine) then z.
    fn garbled_product(
        sess: &mut Session,
        owner: Role,
        v: &[u64],
        z: &[u64],
        v_plain: bool,
    ) -> Vec<u64> {
        let ell = sess.ring.bits() as usize;
        let (circuit, spec) = product_circuit(v.len(), ell, v_plain);
        let v = if v_plain && sess.role() != owner {
            &[]
        } else {
            v
        };
        let bits = words_to_bits(&[v, z].concat(), ell);
        sess.garble_shared(&circuit, &spec, owner, &bits)
    }

    /// `Session::multiply` from a bank of exactly what `Draws::multiply`
    /// books, which it must empty without extending anything.
    fn banked_multiply(
        sess: &mut Session,
        owner: Role,
        v: &[u64],
        z: &[u64],
        v_plain: bool,
    ) -> Vec<u64> {
        let me = sess.role();
        let mut draws = Draws::default();
        draws.multiply(owner, v.len(), sess.ring.bits() as usize, v_plain);
        assert!(draws.circuits.is_empty() && draws.ot.of(owner.peer()) == 0);
        let (out, inn) = (draws.ot.of(me), draws.ot.of(me.peer()));
        in_role_order(
            me,
            sess,
            |s| s.ot_send.bank(s.ch, out),
            |s| s.ot_recv.bank(s.ch, inn, &mut s.rng),
        );
        let extended = |s: &Session| (s.ot_send.extended(), s.ot_recv.extended());
        let before = extended(sess);
        let shares = sess.multiply(owner, v, z, v_plain);
        assert_eq!(extended(sess), before, "the bank covers the step");
        let left = (sess.ot_send.bank_remaining(), sess.ot_recv.bank_remaining());
        assert_eq!(left, (0, 0), "the step empties the bank");
        shares
    }

    const CASES: [(bool, usize); 8] = [
        (false, 0),
        (false, 1),
        (false, 7),
        (false, 40),
        (true, 0),
        (true, 1),
        (true, 7),
        (true, 40),
    ];

    /// `Session::multiply` — single-shot and against a provisioned bank —
    /// agrees with the garbled multiplier and with `RingCtx::mul` on the
    /// same shared inputs.
    #[test]
    fn multiply_matches_the_garbled_product_and_the_ring() {
        let kinds: [(&str, Multiplier); 3] = [
            ("fresh", MULTIPLY),
            ("banked", banked_multiply),
            ("garbled", garbled_product),
        ];
        for (ell, owner) in [
            (1, Role::Alice),
            (20, Role::Bob),
            (32, Role::Alice),
            (32, Role::Bob),
            (64, Role::Alice),
            (64, Role::Bob),
        ] {
            let ring = RingCtx::new(ell);
            let party = |seed: u64| {
                move |ch: &mut Channel| {
                    let mut sess = Session::new(ch, ring, TweakHasher::Aes, seed);
                    let mut outs = Vec::new();
                    for (case, (v_plain, n)) in CASES.into_iter().enumerate() {
                        let (_, a, b) = shared_inputs(ring, n, owner, v_plain, case as u64);
                        let (v, z) = if sess.role() == Role::Alice { a } else { b };
                        outs.push(kinds.map(|(_, mult)| mult(&mut sess, owner, &v, &z, v_plain)));
                    }
                    outs
                }
            };
            let (a, b, _) = run_protocol(party(71), party(72));
            for (case, (v_plain, n)) in CASES.into_iter().enumerate() {
                let ((v, z), _, _) = shared_inputs(ring, n, owner, v_plain, case as u64);
                let want: Vec<u64> = v.iter().zip(&z).map(|(&v, &z)| ring.mul(v, z)).collect();
                for (k, (what, _)) in kinds.iter().enumerate() {
                    let got = ring.reconstruct_vec(&a[case][k], &b[case][k]);
                    assert_eq!(
                        got, want,
                        "{what}: ℓ={ell} {owner:?} v_plain={v_plain} n={n}"
                    );
                }
                // Fresh shares: overwhelmingly not the product itself.
                assert!(n < 7 || ell < 20 || a[case][0] != want);
            }
        }
    }

    /// What a product step no longer ships: the tables, the garbler's
    /// labels, the decode bits, and two labels per OT where one ring
    /// element now travels. The choice corrections are the same message.
    #[test]
    fn multiply_ships_one_word_per_ot_and_nothing_else() {
        let n = 7;
        for (ell, v_plain, ands_per_row) in [
            (32, false, 1086),
            (32, true, 1055),
            (64, false, 4222),
            (64, true, 4159),
        ] {
            let ring = RingCtx::new(ell as u32);
            let bytes = |mult: Multiplier| {
                let party = |seed: u64| {
                    move |ch: &mut Channel| {
                        let mut sess = Session::new(ch, ring, TweakHasher::Aes, seed);
                        let (_, a, b) = shared_inputs(ring, n, Role::Bob, v_plain, 5);
                        let (v, z) = if sess.role() == Role::Alice { a } else { b };
                        mult(&mut sess, Role::Bob, &v, &z, v_plain);
                    }
                };
                run_protocol(party(73), party(74)).2.total_bytes() as usize
            };
            let (circuit, _) = product_circuit(n, ell, v_plain);
            assert_eq!(circuit.and_count() as usize, ands_per_row * n);
            let ots = circuit.bob_inputs;
            let saved = 32 * ands_per_row * n
                + 16 * circuit.alice_inputs
                + circuit.output_count().div_ceil(8)
                + (32 - ell / 8) * ots;
            assert_eq!(bytes(garbled_product) - bytes(MULTIPLY), saved);
        }
    }

    /// A bank shed mid-query below the product step's batch: both parties
    /// fall back to a fresh extension for it at once, and the result holds.
    #[test]
    fn shed_bank_multiplies_on_a_fresh_extension() {
        use crate::preproc::{run_offline, run_online_leftover};
        let ring = NaturalRing::paper_default();
        let r1 = Relation::from_rows(
            ring,
            strings(&["a"]),
            (0..6).map(|i| (vec![i], i + 2)).collect(),
        );
        let r2 = Relation::from_rows(
            ring,
            strings(&["a", "b"]),
            (0..8).map(|i| (vec![i, 100 + i], 3 * i + 1)).collect(),
        );
        let want: u64 = (0..6).map(|i| (i + 2) * (3 * i + 1)).sum();
        let query = crate::SecureQuery::new(
            vec![strings(&["a"]), strings(&["a", "b"])],
            vec![Role::Alice, Role::Bob],
            secyan_relation::JoinTree::new(vec![Some(1), None]),
            Vec::new(),
        );
        // R2 ⋈ R1 multiplies 8 rows by plain v: 256 OTs, Bob sending.
        let step_ots = 8 * 32;
        let party = |seed: u64, rels: [Option<Relation<NaturalRing>>; 2]| {
            let query = &query;
            move |ch: &mut Channel| {
                let ring = RingCtx::new(32);
                let mut m = run_offline(
                    ch,
                    query,
                    &[6, 8],
                    Role::Alice,
                    ring,
                    TweakHasher::Aes,
                    seed,
                );
                m.shed(0, step_ots - 1);
                let before = m.ot_extended();
                let (res, left) = run_online_leftover(ch, query, &rels, Role::Alice, ring, m);
                let after = left.ot_extended();
                (res.values, (after.0 - before.0, after.1 - before.1))
            }
        };
        let ((values, alice), (_, bob), _) =
            run_protocol(party(75, [Some(r1), None]), party(76, [None, Some(r2)]));
        assert_eq!(values, [want]);
        assert!(
            bob.0 >= step_ots as u64,
            "Bob extended {} OTs inline",
            bob.0
        );
        assert_eq!(
            (alice.1, alice.0),
            bob,
            "both sides fell back on the same batches"
        );
    }

    /// Drive a reduce-join with R_F owned by Alice and R_G owned by
    /// `g_owner`; returns reconstructed output annotations in R_F order.
    fn run_reduce_join(
        f_rows: Vec<(Vec<u64>, u64)>,
        g_rows: Vec<(Vec<u64>, u64)>,
        f_schema: Vec<&str>,
        g_schema: Vec<&str>,
        g_owner: Role,
        force_shared: bool,
    ) -> Vec<u64> {
        let ring = NaturalRing::paper_default();
        let f_rel = Relation::from_rows(ring, strings(&f_schema), f_rows);
        let g_rel = Relation::from_rows(ring, strings(&g_schema), g_rows);
        let (fs, gs) = (strings(&f_schema), strings(&g_schema));
        let (fs2, gs2) = (fs.clone(), gs.clone());
        let g_rel2 = g_rel.clone();
        let (a_sh, b_sh, _) = run_protocol(
            move |ch| {
                let mut sess =
                    crate::session::Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 81);
                let mut rf = SecureRelation::load(&mut sess, Role::Alice, fs, Some(&f_rel));
                let mut rg = SecureRelation::load(
                    &mut sess,
                    g_owner,
                    gs,
                    (g_owner == Role::Alice).then_some(&g_rel),
                );
                if force_shared {
                    rf.ensure_shared(&mut sess);
                    rg.ensure_shared(&mut sess);
                }
                let out = oblivious_reduce_join(&mut sess, &rf, rg);
                out.annot_shares
            },
            move |ch| {
                let mut sess =
                    crate::session::Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 82);
                let mut rf = SecureRelation::load(&mut sess, Role::Alice, fs2, None);
                let mut rg = SecureRelation::load(
                    &mut sess,
                    g_owner,
                    gs2,
                    (g_owner == Role::Bob).then_some(&g_rel2),
                );
                if force_shared {
                    rf.ensure_shared(&mut sess);
                    rg.ensure_shared(&mut sess);
                }
                let out = oblivious_reduce_join(&mut sess, &rf, rg);
                out.annot_shares
            },
        );
        let ring = RingCtx::new(32);
        ring.reconstruct_vec(&a_sh, &b_sh)
    }

    #[test]
    fn cross_party_reduce_join() {
        for force_shared in [false, true] {
            let got = run_reduce_join(
                vec![
                    (vec![1, 100], 2),
                    (vec![2, 200], 3),
                    (vec![3, 300], 5),
                    (vec![1, 400], 7),
                ],
                vec![(vec![1], 10), (vec![3], 20)],
                vec!["k", "x"],
                vec!["k"],
                Role::Bob,
                force_shared,
            );
            // k=1 matches (×10), k=2 no match (→0), k=3 matches (×20).
            assert_eq!(got, vec![20, 0, 100, 70], "force_shared={force_shared}");
        }
    }

    #[test]
    fn same_party_reduce_join() {
        for force_shared in [false, true] {
            let got = run_reduce_join(
                vec![(vec![5, 1], 4), (vec![6, 2], 6)],
                vec![(vec![5], 100), (vec![7], 9)],
                vec!["k", "x"],
                vec!["k"],
                Role::Alice,
                force_shared,
            );
            assert_eq!(got, vec![400, 0], "force_shared={force_shared}");
        }
    }

    #[test]
    fn semijoin_zeroes_danglings_only() {
        // Semijoin keeps annotations where a nonzero partner exists.
        let ring = NaturalRing::paper_default();
        let f_rel = Relation::from_rows(
            ring,
            strings(&["k"]),
            vec![(vec![1], 11), (vec![2], 22), (vec![3], 33)],
        );
        // R_G has duplicate k values (semijoin aggregates them first) and
        // one zero-annotated partner.
        let g_rel = Relation::from_rows(
            ring,
            strings(&["k", "y"]),
            vec![(vec![1, 7], 1), (vec![1, 8], 1), (vec![2, 9], 0)],
        );
        let (a_sh, b_sh, _) = run_protocol(
            move |ch| {
                let mut sess =
                    crate::session::Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 83);
                let mut rf =
                    SecureRelation::load(&mut sess, Role::Alice, strings(&["k"]), Some(&f_rel));
                let mut rg = SecureRelation::load(&mut sess, Role::Bob, strings(&["k", "y"]), None);
                rf.ensure_shared(&mut sess);
                rg.ensure_shared(&mut sess);
                oblivious_semijoin(&mut sess, &rf, &rg).annot_shares
            },
            move |ch| {
                let mut sess =
                    crate::session::Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 84);
                let mut rf = SecureRelation::load(&mut sess, Role::Alice, strings(&["k"]), None);
                let mut rg =
                    SecureRelation::load(&mut sess, Role::Bob, strings(&["k", "y"]), Some(&g_rel));
                rf.ensure_shared(&mut sess);
                rg.ensure_shared(&mut sess);
                oblivious_semijoin(&mut sess, &rf, &rg).annot_shares
            },
        );
        let ring = RingCtx::new(32);
        let got = ring.reconstruct_vec(&a_sh, &b_sh);
        // k=1 kept (11), k=2 partner zero-annotated → 0, k=3 dangling → 0.
        assert_eq!(got, vec![11, 0, 0]);
    }
}

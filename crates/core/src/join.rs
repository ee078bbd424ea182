//! The oblivious join (paper §6.3) — the full-join phase.
//!
//! Precondition (established by the semijoin phase): every dangling tuple
//! is zero-annotated, so the nonzero support R*_F of each relation equals
//! its projection of the join result J* and may be revealed to the
//! designated receiver. The receiver then joins locally, announces
//! OUT = |J*| (public per §4), and per-relation OEPs + one product circuit
//! produce J*'s annotations — in shared form, so the result can feed query
//! composition (§7), or revealed when it *is* the final answer.

use crate::session::Session;
use crate::shape::{Draws, RelHeader};
use crate::srel::SecureRelation;
use secyan_circuit::{bits_to_u64, bits_to_words, words_to_bits, Circuit, Rows, Word};
use secyan_gc::{with_shared_rows, SharedOutputSpec};
use secyan_oep::oep_ot_count;
use secyan_transport::{Role, WriteExt};
use std::collections::HashMap;

/// Result of the oblivious join.
#[derive(Debug, Clone)]
pub struct JoinOutput {
    /// Combined schema (fold order, duplicates removed).
    pub schema: Vec<String>,
    /// Receiver side: the join tuples J*. Empty on the other side.
    pub tuples: Vec<Vec<u64>>,
    /// Annotation shares per output row (both sides), unless revealed.
    pub annot_shares: Vec<u64>,
    /// Revealed annotations (receiver side, only when `reveal` was set).
    pub values: Vec<u64>,
    /// Public output size.
    pub out_size: usize,
}

/// The public step of revealing a relation's rows to the receiver: per
/// row the nonzero indicator of its annotation (`values = false`, the
/// join's support reveal) or the annotation itself (`values = true`, the
/// driver's final reveal when one relation survives), plus — when the
/// receiver does not own the tuples — the tuple words gated by that
/// indicator. The non-receiver garbles; outputs reveal to the
/// receiver-evaluator. Zero-valued rows are indistinguishable from
/// dummies, exactly as the paper notes (a zero aggregate contributes
/// nothing to the result).
pub(crate) struct RevealStep {
    n: usize,
    ell: usize,
    attrs: usize,
    values: bool,
    /// The garbler (the non-receiver) owns the tuples and feeds them in.
    owner_is_garbler: bool,
    garbler: Role,
}

pub(crate) fn reveal_step(rel: &RelHeader, receiver: Role, ell: usize, values: bool) -> RevealStep {
    RevealStep {
        n: rel.size,
        ell,
        attrs: rel.schema.len(),
        values,
        owner_is_garbler: rel.owner != receiver,
        garbler: receiver.peer(),
    }
}

impl RevealStep {
    /// Garbler inputs: all v-shares, then all tuple words (when it owns
    /// them). Evaluator inputs: its v-shares.
    pub(crate) fn circuit(&self) -> Circuit {
        let (n, ell) = (self.n, self.ell);
        let tuple_bits = usize::from(self.owner_is_garbler) * self.attrs * 64;
        let mut c = Rows::new();
        let (va, ta) = (c.alice(n, ell), c.alice(n, tuple_bits));
        let vb = c.bob(n, ell);
        let revealed = c.segment(n, |b| {
            let (va, ta, vb) = (b.read(va), b.read(ta), b.read(vb));
            let v = b.add_words(&va, &vb);
            if self.values {
                b.output_word(&v);
                if !self.owner_is_garbler {
                    return;
                }
            }
            let ind = b.is_nonzero_word(&v);
            if !self.values {
                b.output(ind);
            }
            for w in ta.0.chunks(64) {
                let gated = b.and_word_bit(&Word(w.to_vec()), ind);
                b.output_word(&gated);
            }
        });
        c.output(revealed);
        c.finish()
    }

    pub(crate) fn draws(&self) -> Draws {
        let mut d = Draws::default();
        d.garble(self.circuit(), self.garbler);
        d
    }
}

/// The receiver's view of a revealed relation, indexed by the owner's
/// storage order: `Some((tuple, v))` for every row whose annotation is
/// nonzero, where `v` is the revealed annotation in `values` mode and 1
/// otherwise.
pub(crate) type RevealedRows = Vec<Option<(Vec<u64>, u64)>>;

/// Run a [`RevealStep`] on `rel`. `Some` on the receiver side only.
pub(crate) fn reveal_rows(
    sess: &mut Session,
    rel: &mut SecureRelation,
    receiver: Role,
    values: bool,
) -> Option<RevealedRows> {
    rel.ensure_shared(sess);
    let ell = sess.ring.bits() as usize;
    let step = reveal_step(&rel.header(), receiver, ell, values);
    let mut bits = words_to_bits(&rel.annot_shares, ell);
    if step.owner_is_garbler && rel.is_mine(sess) {
        let tuples = rel.tuples.as_ref().expect("owner side");
        let flat: Vec<u64> = tuples.iter().flatten().copied().collect();
        bits.extend(words_to_bits(&flat, 64));
    }
    let out = sess.garble(&step.circuit(), step.garbler, &bits)?;
    // Per row: the value (or its 1-bit indicator), then the tuple words
    // when they came through the circuit.
    let head = if values { ell } else { 1 };
    let stride = head + usize::from(step.owner_is_garbler) * step.attrs * 64;
    let rows = out
        .chunks(stride)
        .enumerate()
        .map(|(i, row)| {
            let v = bits_to_u64(&row[..head]);
            (v != 0).then(|| {
                let tuple = if step.owner_is_garbler {
                    bits_to_words(&row[head..], 64)
                } else {
                    rel.tuples.as_ref().expect("receiver owns the tuples")[i].clone()
                };
                (tuple, v)
            })
        })
        .collect();
    Some(rows)
}

/// OTs the data-dependent tail of the join draws once OUT is announced,
/// all with the non-receiver sending: one OEP per relation (of public size
/// `sizes[i]`) aligning its shares with J*'s rows, then the product
/// tree's evaluator labels. OUT is data, so no offline phase can bank
/// these and they always extend inline; exported so an audit can tell the
/// tail from a planned draw that fell back.
pub fn join_tail_ot_count(sizes: &[usize], out_size: usize, ell: usize) -> usize {
    if out_size == 0 {
        return 0;
    }
    let oeps: usize = sizes.iter().map(|&n| oep_ot_count(n, out_size)).sum();
    oeps + sizes.len() * out_size * ell
}

/// The k-way annotation product circuit over `out_size` rows. Garbler =
/// non-receiver. When `reveal`, outputs go to the receiver in the clear;
/// otherwise they leave as fresh shares.
pub(crate) fn product_tree_circuit(
    n: usize,
    k: usize,
    ell: usize,
    reveal: bool,
) -> (Circuit, Option<SharedOutputSpec>) {
    let product = |c: &mut Rows| {
        let (ga, gb) = (c.alice(n, k * ell), c.bob(n, k * ell));
        c.segment(n, |b| {
            let (ga, gb) = (b.read(ga), b.read(gb));
            let mut acc: Option<Word> = None;
            for (x, y) in ga.0.chunks(ell).zip(gb.0.chunks(ell)) {
                let v = b.add_words(&Word(x.to_vec()), &Word(y.to_vec()));
                acc = Some(match acc {
                    None => v,
                    Some(a) => b.mul_words(&a, &v),
                });
            }
            b.output_word(&acc.expect("k >= 1"));
        })
    };
    if reveal {
        let mut c = Rows::new();
        let products = product(&mut c);
        c.output(products);
        (c.finish(), None)
    } else {
        let (circuit, spec) = with_shared_rows(n, &[ell], |c| vec![product(c)]);
        (circuit, Some(spec))
    }
}

/// The oblivious join. `rels` must be ordered so that each prefix is
/// connected (the driver folds bottom-up along the join tree); all
/// dangling tuples must already be zero-annotated. `reveal` controls
/// whether the annotations are opened to the receiver or left shared.
pub fn oblivious_join(
    sess: &mut Session,
    rels: &mut [SecureRelation],
    receiver: Role,
    reveal: bool,
) -> JoinOutput {
    assert!(!rels.is_empty());
    let ell = sess.ring.bits() as usize;
    let i_am_receiver = sess.role() == receiver;
    // Step 1: reveal every relation's nonzero support to the receiver.
    let revealed: Vec<Option<RevealedRows>> = rels
        .iter_mut()
        .map(|r| reveal_rows(sess, r, receiver, false))
        .collect();
    // Step 2: the receiver joins locally, tracking per-relation provenance.
    let mut schema: Vec<String> = Vec::new();
    for r in rels.iter() {
        for a in &r.schema {
            if !schema.contains(a) {
                schema.push(a.clone());
            }
        }
    }
    let (tuples, prov, out_size) = if i_am_receiver {
        let mut acc: Vec<(HashMap<String, u64>, Vec<usize>)> = Vec::new();
        for (ri, rows) in revealed.iter().enumerate() {
            let rows = rows.as_ref().expect("receiver side");
            let rel_schema = &rels[ri].schema;
            if ri == 0 {
                for (idx, row) in rows.iter().enumerate() {
                    if let Some((t, _)) = row {
                        let vals: HashMap<String, u64> =
                            rel_schema.iter().cloned().zip(t.iter().copied()).collect();
                        acc.push((vals, vec![idx]));
                    }
                }
                continue;
            }
            // Hash the new relation on the shared attributes.
            let common: Vec<String> = rel_schema
                .iter()
                .filter(|a| acc.first().is_some_and(|(m, _)| m.contains_key(*a)))
                .cloned()
                .collect();
            let mut index: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
            for (idx, row) in rows.iter().enumerate() {
                if let Some((t, _)) = row {
                    let key: Vec<u64> = common
                        .iter()
                        .map(|a| {
                            let p = rel_schema.iter().position(|s| s == a).expect("common attr");
                            t[p]
                        })
                        .collect();
                    index.entry(key).or_default().push(idx);
                }
            }
            let mut next = Vec::new();
            for (vals, prov) in acc {
                let key: Vec<u64> = common.iter().map(|a| vals[a]).collect();
                if let Some(matches) = index.get(&key) {
                    for &idx in matches {
                        let (t, _) = rows[idx].as_ref().expect("indexed row is real");
                        let mut vals2 = vals.clone();
                        for (a, &v) in rel_schema.iter().zip(t.iter()) {
                            vals2.insert(a.clone(), v);
                        }
                        let mut prov2 = prov.clone();
                        prov2.push(idx);
                        next.push((vals2, prov2));
                    }
                }
            }
            acc = next;
        }
        let out_size = acc.len();
        sess.ch.send_u64(out_size as u64);
        let tuples: Vec<Vec<u64>> = acc
            .iter()
            .map(|(vals, _)| schema.iter().map(|a| vals[a]).collect())
            .collect();
        let prov: Vec<Vec<usize>> = acc.into_iter().map(|(_, p)| p).collect();
        (tuples, prov, out_size)
    } else {
        let out_size = crate::session::recv_declared_size(sess.ch, "join output");
        (Vec::new(), Vec::new(), out_size)
    };
    if out_size == 0 {
        return JoinOutput {
            schema,
            tuples,
            annot_shares: Vec::new(),
            values: Vec::new(),
            out_size,
        };
    }
    // Step 3: per-relation OEPs, routed by the receiver, align annotation
    // shares with J* rows.
    let k = rels.len();
    let aligned: Vec<Vec<u64>> = rels
        .iter()
        .enumerate()
        .map(|(ri, rel)| {
            let xi: Option<Vec<usize>> =
                i_am_receiver.then(|| prov.iter().map(|p| p[ri]).collect());
            sess.oep(receiver, xi.as_deref(), out_size, &rel.annot_shares)
        })
        .collect();
    // Step 4: product circuit, row-major inputs. Garbler = non-receiver.
    let (circuit, spec) = product_tree_circuit(out_size, k, ell, reveal);
    let words: Vec<u64> = (0..out_size)
        .flat_map(|i| aligned.iter().map(move |a| a[i]))
        .collect();
    let (garbler, bits) = (receiver.peer(), words_to_bits(&words, ell));
    let (annot_shares, values) = match spec {
        Some(spec) => (
            sess.garble_shared(&circuit, &spec, garbler, &bits),
            Vec::new(),
        ),
        None => {
            let out = sess.garble(&circuit, garbler, &bits);
            let values = out.map(|bits| bits_to_words(&bits, ell));
            (Vec::new(), values.unwrap_or_default())
        }
    };
    JoinOutput {
        schema,
        tuples,
        annot_shares,
        values,
        out_size,
    }
}

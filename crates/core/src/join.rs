//! The oblivious join (paper §6.3) — the full-join phase.
//!
//! Precondition (established by the semijoin phase): every dangling tuple
//! is zero-annotated, so the nonzero support R*_F of each relation equals
//! its projection of the join result J* and may be revealed to the
//! designated receiver. The receiver then joins locally, announces
//! OUT = |J*| (public per §4), and per-relation OEPs + one product circuit
//! produce J*'s annotations — in shared form, so the result can feed query
//! composition (§7), or revealed when it *is* the final answer.

use crate::protocol::QueryResult;
use crate::session::Session;
use crate::shape::{Draws, RelHeader};
use crate::srel::SecureRelation;
use secyan_circuit::{bits_to_u64, bits_to_words, words_to_bits, Circuit, Rows, Word};
use secyan_gc::with_shared_rows;
use secyan_oep::oep_ot_count;
use secyan_transport::Role;
use std::collections::HashMap;

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
    let step = reveal_step(&rel.header, receiver, ell, values);
    let mut bits = words_to_bits(&rel.annot_shares, ell);
    if let Some(rows) = rel.rows.as_ref().filter(|_| step.owner_is_garbler) {
        let flat: Vec<u64> = rows.iter().flat_map(|(t, _)| t).copied().collect();
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
                    rel.rows.as_ref().expect("receiver owns the tuples")[i]
                        .0
                        .clone()
                };
                (tuple, v)
            })
        })
        .collect();
    Some(rows)
}

/// OTs the data-dependent tail of the revealing join draws once OUT is
/// announced, all with the non-receiver sending: one OEP per relation (of
/// public size `sizes[i]`) aligning its shares with J*'s rows, then the
/// product tree's evaluator labels. OUT is data, so no offline phase can bank
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
pub(crate) fn product_tree_circuit(n: usize, k: usize, ell: usize, reveal: bool) -> Circuit {
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
        c.finish()
    } else {
        with_shared_rows(n, ell, product)
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
) -> QueryResult {
    assert!(!rels.is_empty());
    let ell = sess.ring.bits() as usize;
    let i_am_receiver = sess.role() == receiver;
    // Step 1: reveal every relation's nonzero support to the receiver.
    let revealed: Vec<Option<RevealedRows>> = rels
        .iter_mut()
        .map(|r| reveal_rows(sess, r, receiver, false))
        .collect();
    // The combined schema (fold order, duplicates removed) and, per
    // relation, the columns it shares with the join so far — (its
    // position, the join's) — and the positions it adds.
    let mut schema: Vec<String> = Vec::new();
    let mut columns = Vec::with_capacity(rels.len());
    for r in rels.iter() {
        let (mut shared, mut added) = (Vec::new(), Vec::new());
        for (p, a) in r.header.schema.iter().enumerate() {
            match schema.iter().position(|s| s == a) {
                Some(q) => shared.push((p, q)),
                None => {
                    added.push(p);
                    schema.push(a.clone());
                }
            }
        }
        columns.push((shared, added));
    }
    // Step 2: the receiver joins locally, tracking per-relation provenance:
    // from the single empty row, each relation in turn extends every row
    // so far by each of its real rows that agrees on the shared columns.
    let (tuples, prov, out_size) = if i_am_receiver {
        let mut acc: Vec<(Vec<u64>, Vec<usize>)> = vec![(Vec::new(), Vec::new())];
        for (rows, (shared, added)) in revealed.iter().zip(&columns) {
            let rows = rows.as_ref().expect("receiver side");
            let mut index: HashMap<Vec<u64>, Vec<(usize, &[u64])>> = HashMap::new();
            for (idx, row) in rows.iter().enumerate() {
                if let Some((t, _)) = row {
                    let key = shared.iter().map(|&(p, _)| t[p]).collect();
                    index.entry(key).or_default().push((idx, t));
                }
            }
            let mut next = Vec::new();
            for (vals, prov) in &acc {
                let key: Vec<u64> = shared.iter().map(|&(_, q)| vals[q]).collect();
                for &(idx, t) in index.get(&key).into_iter().flatten() {
                    let mut vals = vals.clone();
                    vals.extend(added.iter().map(|&p| t[p]));
                    let mut prov = prov.clone();
                    prov.push(idx);
                    next.push((vals, prov));
                }
            }
            acc = next;
        }
        sess.ch.send_u64(acc.len() as u64);
        let (tuples, prov): (Vec<_>, Vec<_>) = acc.into_iter().unzip();
        let out_size = tuples.len();
        (tuples, prov, out_size)
    } else {
        let out_size = crate::session::recv_declared_size(sess.ch, "join output");
        (Vec::new(), Vec::new(), out_size)
    };
    let mut res = QueryResult {
        schema,
        tuples,
        values: Vec::new(),
        annot_shares: Vec::new(),
        out_size,
    };
    if out_size == 0 {
        return res;
    }
    // Step 3: per-relation OEPs, routed by the receiver, align annotation
    // shares with J* rows.
    let k = rels.len();
    let mut aligned: Vec<Vec<u64>> = rels
        .iter()
        .enumerate()
        .map(|(ri, rel)| {
            let xi: Option<Vec<usize>> =
                i_am_receiver.then(|| prov.iter().map(|p| p[ri]).collect());
            sess.oep(receiver, xi.as_deref(), out_size, &rel.annot_shares)
        })
        .collect();
    // One relation left shared: its OEP output is already fresh shares of
    // the product, so no circuit re-shares it.
    if k == 1 && !reveal {
        res.annot_shares = aligned.pop().expect("one relation");
        return res;
    }
    // Step 4: product circuit, row-major inputs. Garbler = non-receiver.
    let circuit = product_tree_circuit(out_size, k, ell, reveal);
    let words: Vec<u64> = (0..out_size)
        .flat_map(|i| aligned.iter().map(move |a| a[i]))
        .collect();
    let (garbler, bits) = (receiver.peer(), words_to_bits(&words, ell));
    if reveal {
        let out = sess.garble(&circuit, garbler, &bits);
        res.values = out
            .map(|bits| bits_to_words(&bits, ell))
            .unwrap_or_default();
    } else {
        res.annot_shares = sess.garble_shared(&circuit, garbler, &bits);
    }
    res
}

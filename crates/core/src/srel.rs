//! Secure (shared-annotation) relations.
//!
//! A [`SecureRelation`] is the protocol-time form of an annotated relation
//! (paper §6 requirements (1)–(3)): its public `RelHeader` (schema,
//! owner, size, and whether the annotations are still owner-known), the
//! tuples held in the clear by exactly one party (the *owner*), and the
//! annotations as additive shares split between the two parties, aligned
//! by tuple index. While the annotations are owner-known (§6.5) that
//! sharing is the trivial one: the owner holds `v`, the peer 0. Dummy
//! tuples — padding whose annotation shares reconstruct to 0 — are flagged
//! on the owner side only; the other party cannot tell them apart from
//! real rows.

use crate::session::Session;
use crate::shape::RelHeader;
use secyan_crypto::sha256::{digest_to_u64, Sha256};
use secyan_relation::{NaturalRing, Relation};
use secyan_transport::Role;

/// One party's view of a secure relation.
#[derive(Debug)]
pub struct SecureRelation {
    /// Public: what the driver's control flow and every operator's step
    /// read.
    pub(crate) header: RelHeader,
    /// Owner side: one `(tuple, dummy)` row per public position, each
    /// tuple one `u64` per attribute. `None` on the other side.
    pub(crate) rows: Option<Vec<(Vec<u64>, bool)>>,
    /// My additive shares of the annotations, one per row. While
    /// `header.is_plain` the owner's are the clear annotations and the
    /// peer's are zeros: `(v, 0)` is a sharing of `v`.
    pub annot_shares: Vec<u64>,
}

/// One batched-load entry: public owner and schema, plus the relation
/// itself at the owner's position (`None` on the other side).
pub type RelationSpec<'a> = (Role, Vec<String>, Option<&'a Relation<NaturalRing>>);

impl SecureRelation {
    /// Load several relations in one declaration round: every size this
    /// side owns is staged before any peer declaration is received, so all
    /// size messages of one direction coalesce into a single super-frame
    /// instead of ping-ponging once per relation. Both parties call this
    /// with the same public `(owner, schema)` sequence; owners pass
    /// `Some(relation)` at their positions. Only the public sizes travel;
    /// the annotations stay owner-known (`is_plain`) until an operator
    /// needs them shared (§6.5 optimization).
    pub fn load_all(sess: &mut Session, specs: Vec<RelationSpec<'_>>) -> Vec<SecureRelation> {
        // Both parties arrive here with dependency-free declarations — a
        // simultaneous round. If both staged eagerly, the two opening
        // sends would race and the round meters would depend on thread
        // scheduling. Deterministic rule: only the plan-first relation's
        // owner declares eagerly; the peer defers each declaration to its
        // slot in pass 2, by which point it has already blocked on the
        // eager side's super-frame (its first slot is a receive). The
        // deferred declarations still coalesce — they stage ahead of
        // whatever this side sends next in the same direction.
        let i_go_first = specs
            .first()
            .is_none_or(|(owner, ..)| sess.role() == *owner);
        if i_go_first {
            // Pass 1: stage every owned size, in plan order.
            for (owner, _, rel) in &specs {
                if sess.role() == *owner {
                    let rel = rel.expect("owner must supply the relation");
                    sess.ch.send_u64(rel.len() as u64);
                }
            }
        }
        // Pass 2: build; the peer's declarations arrive in plan order.
        specs
            .into_iter()
            .map(|(owner, schema, rel)| {
                if sess.role() != owner {
                    let size = crate::session::recv_declared_size(sess.ch, "relation");
                    return SecureRelation {
                        header: RelHeader::loaded(schema, owner, size),
                        rows: None,
                        annot_shares: vec![0; size],
                    };
                }
                let rel = rel.expect("owner must supply the relation");
                if !i_go_first {
                    sess.ch.send_u64(rel.len() as u64);
                }
                assert_eq!(rel.schema, schema);
                SecureRelation {
                    header: RelHeader::loaded(schema, owner, rel.len()),
                    rows: Some(rel.tuples.iter().map(|t| (t.clone(), false)).collect()),
                    annot_shares: rel.annots.iter().map(|&v| sess.ring.reduce(v)).collect(),
                }
            })
            .collect()
    }

    /// Convert owner-known annotations into additive shares (no-op when
    /// already shared). The transition is part of the public plan, so both
    /// parties always agree on whether this communicates.
    pub fn ensure_shared(&mut self, sess: &mut Session) {
        if !self.header.is_plain {
            return;
        }
        if sess.role() == self.header.owner {
            let mut theirs = Vec::with_capacity(self.header.size);
            for v in &mut self.annot_shares {
                let (a, b) = sess.ring.share(*v, &mut sess.rng);
                *v = a;
                theirs.push(b);
            }
            sess.ch.send_u64_slice(&theirs);
        } else {
            self.annot_shares = sess.ch.recv_u64_vec(self.header.size);
        }
        self.header.is_plain = false;
    }

    /// The column positions of `attrs`.
    pub fn positions(&self, attrs: &[String]) -> Vec<usize> {
        let schema = &self.header.schema;
        attrs
            .iter()
            .map(|a| {
                schema
                    .iter()
                    .position(|s| s == a)
                    .unwrap_or_else(|| panic!("attribute {a} not in {schema:?}"))
            })
            .collect()
    }

    /// Owner side: per row, the 64-bit join key on `attrs`, or `None` for
    /// a dummy row. `None` on the other side.
    pub(crate) fn join_keys(&self, attrs: &[String]) -> Option<Vec<Option<u64>>> {
        let rows = self.rows.as_ref()?;
        let pos = self.positions(attrs);
        let key =
            |(t, dummy): &(Vec<u64>, bool)| (!dummy).then(|| key64(pos.iter().map(|&p| t[p])));
        Some(rows.iter().map(key).collect())
    }
}

/// Collision-resistant 64-bit encoding of a composite join key.
pub fn key64(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Sha256::new();
    h.update(b"join-key");
    for v in values {
        h.update(&v.to_le_bytes());
    }
    digest_to_u64(&h.finalize())
}

/// A fresh key guaranteed (whp) not to collide with any real join key.
pub fn dummy_key(nonce: u64, index: u64) -> u64 {
    let mut h = Sha256::new();
    h.update(b"dummy-key");
    h.update(&nonce.to_le_bytes());
    h.update(&index.to_le_bytes());
    digest_to_u64(&h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_transport::{run_protocol, CommStats};

    /// `ensure_shared` twice, with what each call moved on this endpoint.
    fn share_twice(s: &mut Session, r: &mut SecureRelation) -> [CommStats; 2] {
        [(); 2].map(|()| {
            let before = s.ch.stats();
            r.ensure_shared(s);
            s.ch.stats().since(&before)
        })
    }

    #[test]
    fn load_shares_annotations() {
        let ring = NaturalRing::paper_default();
        let rel = Relation::from_rows(
            ring,
            vec!["a".into()],
            vec![(vec![1], 10), (vec![2], 20), (vec![3], 30)],
        );
        let schema = vec!["a".to_string()];
        let (sa, sb) = (schema.clone(), schema.clone());
        let (a, b, _) = run_protocol(
            move |ch| {
                let mut s = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 1);
                let mut r =
                    SecureRelation::load_all(&mut s, vec![(Role::Alice, sa, Some(&rel))]).remove(0);
                let plain = r.annot_shares.clone();
                let moved = share_twice(&mut s, &mut r);
                (r, plain, moved)
            },
            move |ch| {
                let mut s = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 2);
                let mut r =
                    SecureRelation::load_all(&mut s, vec![(Role::Alice, sb, None)]).remove(0);
                let plain = r.annot_shares.clone();
                let moved = share_twice(&mut s, &mut r);
                (r, plain, moved)
            },
        );
        let ((a, a_plain, a_moved), (b, b_plain, b_moved)) = (a, b);
        assert_eq!(a.header.size, 3);
        assert_eq!(b.header.size, 3);
        assert!(a.rows.is_some());
        assert!(b.rows.is_none());
        assert!(!a.header.is_plain && !b.header.is_plain);
        // Owner-known annotations are the trivial sharing (v, 0).
        assert_eq!(a_plain, vec![10, 20, 30]);
        assert_eq!(b_plain, vec![0, 0, 0]);
        // The first call sends the peer's 3 shares as one 24-byte message;
        // the second is a no-op. Both endpoints count the same.
        for [first, second] in [a_moved, b_moved] {
            assert_eq!(first.messages, 1);
            assert_eq!(first.messages_alice_to_bob, 1);
            assert_eq!(first.bytes_alice_to_bob, 24);
            assert_eq!(first.bytes_bob_to_alice, 0);
            assert_eq!(second, CommStats::default());
        }
        let ring = RingCtx::new(32);
        let got = ring.reconstruct_vec(&a.annot_shares, &b.annot_shares);
        assert_eq!(got, vec![10, 20, 30]);
        // Shares alone are blinded.
        assert_ne!(a.annot_shares, vec![10, 20, 30]);
    }

    #[test]
    fn join_keys_distinguish_dummies() {
        let k1 = key64([1, 2]);
        let k2 = key64([1, 3]);
        assert_ne!(k1, k2);
        assert_ne!(dummy_key(5, 0), dummy_key(5, 1));
        assert_ne!(dummy_key(5, 0), k1);
    }

    #[test]
    fn load_bool_annotations_reduce_into_ring() {
        // NaturalRing values beyond the ring mask get reduced at load.
        let ring = NaturalRing(RingCtx::new(8));
        let rel = Relation::from_rows(ring, vec!["a".into()], vec![(vec![1], 300)]);
        let schema = vec!["a".to_string()];
        let (sa, sb) = (schema.clone(), schema.clone());
        let (a, b, _) = run_protocol(
            move |ch| {
                let mut s = Session::new(ch, RingCtx::new(8), TweakHasher::Aes, 3);
                let mut r =
                    SecureRelation::load_all(&mut s, vec![(Role::Alice, sa, Some(&rel))]).remove(0);
                r.ensure_shared(&mut s);
                r
            },
            move |ch| {
                let mut s = Session::new(ch, RingCtx::new(8), TweakHasher::Aes, 4);
                let mut r =
                    SecureRelation::load_all(&mut s, vec![(Role::Alice, sb, None)]).remove(0);
                r.ensure_shared(&mut s);
                r
            },
        );
        let ring = RingCtx::new(8);
        assert_eq!(
            ring.reconstruct(a.annot_shares[0], b.annot_shares[0]),
            300 % 256
        );
    }
}

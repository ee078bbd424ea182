//! Secure (shared-annotation) relations.
//!
//! A [`SecureRelation`] is the protocol-time form of an annotated relation
//! (paper §6 requirements (1)–(3)): the tuples are held in the clear by
//! exactly one party (the *owner*), the size and schema are public, and
//! the annotations exist only as additive shares split between the two
//! parties, aligned by tuple index. Dummy tuples — padding whose
//! annotation shares reconstruct to 0 — are tracked on the owner side
//! only; the other party cannot tell them apart from real rows.

use crate::session::Session;
use crate::shape::RelHeader;
use secyan_crypto::sha256::{digest_to_u64, Sha256};
use secyan_relation::{NaturalRing, Relation};
use secyan_transport::{ReadExt, Role, WriteExt};

/// One party's view of a secure relation.
#[derive(Debug, Clone)]
pub struct SecureRelation {
    /// Public: attribute names.
    pub schema: Vec<String>,
    /// Public: which party holds the tuples.
    pub owner: Role,
    /// Owner side: the tuple values (row-major, one `u64` per attribute).
    /// `None` on the non-owner side; the public length is `size`.
    pub tuples: Option<Vec<Vec<u64>>>,
    /// Owner side: dummy flags (same length as `tuples`).
    pub dummy: Option<Vec<bool>>,
    /// Public: number of rows.
    pub size: usize,
    /// My additive shares of the annotations (`size` entries; meaningful
    /// only once `is_plain` is false).
    pub annot_shares: Vec<u64>,
    /// Public plan-level flag (§6.5 optimization): true while the
    /// annotations are still fully known to the owner, letting
    /// aggregations run locally and PSI use plain payloads. Flips to
    /// false after [`SecureRelation::ensure_shared`].
    pub is_plain: bool,
    /// Owner side, valid while `is_plain`: the cleartext annotations.
    pub plain_annots: Option<Vec<u64>>,
}

/// One batched-load entry: public owner and schema, plus the relation
/// itself at the owner's position (`None` on the other side).
pub type RelationSpec<'a> = (Role, Vec<String>, Option<&'a Relation<NaturalRing>>);

impl SecureRelation {
    /// Load an owner-local annotated relation into the protocol. Only the
    /// public size travels; the annotations stay owner-known (`is_plain`)
    /// until an operator needs them shared (§6.5 optimization). Both
    /// parties call this with the same public `owner`; the owner passes
    /// `Some(relation)`.
    pub fn load(
        sess: &mut Session,
        owner: Role,
        schema: Vec<String>,
        rel: Option<&Relation<NaturalRing>>,
    ) -> SecureRelation {
        if sess.role() == owner {
            let rel = rel.expect("owner must supply the relation");
            sess.ch.send_u64(rel.len() as u64);
            Self::from_owned(sess, owner, schema, rel)
        } else {
            let size = crate::session::recv_declared_size(sess.ch, "relation");
            Self::from_declared(owner, schema, size, None)
        }
    }

    /// Load several relations in one declaration round: every size this
    /// side owns is staged before any peer declaration is received, so all
    /// size messages of one direction coalesce into a single super-frame
    /// instead of ping-ponging once per relation. Both parties call this
    /// with the same public `(owner, schema)` sequence; owners pass
    /// `Some(relation)` at their positions.
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
                if sess.role() == owner {
                    let rel = rel.expect("owner must supply the relation");
                    if !i_go_first {
                        sess.ch.send_u64(rel.len() as u64);
                    }
                    Self::from_owned(sess, owner, schema, rel)
                } else {
                    let size = crate::session::recv_declared_size(sess.ch, "relation");
                    Self::from_declared(owner, schema, size, None)
                }
            })
            .collect()
    }

    /// Owner-side constructor (size already declared on the wire).
    fn from_owned(
        sess: &mut Session,
        owner: Role,
        schema: Vec<String>,
        rel: &Relation<NaturalRing>,
    ) -> SecureRelation {
        assert_eq!(rel.schema, schema);
        let rows = rel
            .tuples
            .iter()
            .zip(&rel.annots)
            .map(|(t, &v)| (t.clone(), false, sess.ring.reduce(v)))
            .collect();
        Self::from_declared(owner, schema, rel.len(), Some(rows))
    }

    /// A freshly loaded relation of the declared public size.
    fn from_declared(
        owner: Role,
        schema: Vec<String>,
        size: usize,
        rows: Option<Vec<(Vec<u64>, bool, u64)>>,
    ) -> SecureRelation {
        let header = RelHeader {
            schema,
            owner,
            size,
            is_plain: true,
        };
        Self::plain(header, rows)
    }

    /// The public part: what the driver's control flow and every
    /// operator's step read.
    pub(crate) fn header(&self) -> RelHeader {
        RelHeader {
            schema: self.schema.clone(),
            owner: self.owner,
            size: self.size,
            is_plain: self.is_plain,
        }
    }

    /// A relation with owner-known annotations (`header.is_plain`), built
    /// from its public header plus, on the owner side, one
    /// `(tuple, dummy, annotation)` row per public position.
    pub(crate) fn plain(
        header: RelHeader,
        rows: Option<Vec<(Vec<u64>, bool, u64)>>,
    ) -> SecureRelation {
        debug_assert!(header.is_plain);
        let n = header.size;
        let (rows, plain_annots): (Option<Vec<_>>, Option<Vec<_>>) = rows
            .map(|r| r.into_iter().map(|(t, d, v)| ((t, d), v)).unzip())
            .unzip();
        SecureRelation {
            plain_annots,
            ..Self::shared(header, rows, vec![0; n])
        }
    }

    /// A relation built from its public header, this party's annotation
    /// shares and, on the owner side, one `(tuple, dummy)` row per public
    /// position.
    pub(crate) fn shared(
        header: RelHeader,
        rows: Option<Vec<(Vec<u64>, bool)>>,
        annot_shares: Vec<u64>,
    ) -> SecureRelation {
        let (tuples, dummy) = rows.map(|r| r.into_iter().unzip()).unzip();
        SecureRelation {
            schema: header.schema,
            owner: header.owner,
            tuples,
            dummy,
            size: header.size,
            annot_shares,
            is_plain: header.is_plain,
            plain_annots: None,
        }
    }

    /// Convert owner-known annotations into additive shares (no-op when
    /// already shared). The transition is part of the public plan, so both
    /// parties always agree on whether this communicates.
    pub fn ensure_shared(&mut self, sess: &mut Session) {
        if !self.is_plain {
            return;
        }
        if sess.role() == self.owner {
            let plain = self.plain_annots.take().expect("owner holds plain annots");
            let mut mine = Vec::with_capacity(self.size);
            let mut theirs = Vec::with_capacity(self.size);
            for &v in &plain {
                let (a, b) = sess.ring.share(v, &mut sess.rng);
                mine.push(a);
                theirs.push(b);
            }
            sess.ch.send_u64_slice(&theirs);
            self.annot_shares = mine;
        } else {
            self.annot_shares = sess.ch.recv_u64_vec(self.size);
        }
        self.is_plain = false;
    }

    /// This party's view of the annotations: the clear values on the
    /// owner's side while they are still owner-known, else my additive
    /// shares — all zero on the other side of a plain relation, `(v, 0)`
    /// being a sharing of `v`.
    pub(crate) fn my_annots(&self) -> &[u64] {
        self.plain_annots.as_deref().unwrap_or(&self.annot_shares)
    }

    /// Am I the owner?
    pub fn is_mine(&self, sess: &Session) -> bool {
        sess.role() == self.owner
    }

    /// The column positions of `attrs`.
    pub fn positions(&self, attrs: &[String]) -> Vec<usize> {
        attrs
            .iter()
            .map(|a| {
                self.schema
                    .iter()
                    .position(|s| s == a)
                    .unwrap_or_else(|| panic!("attribute {a} not in {:?}", self.schema))
            })
            .collect()
    }

    /// Owner-side: the 64-bit join key of row `i` on column positions
    /// `pos`. Dummy rows draw a fresh never-matching key from `nonce`.
    pub fn join_key(&self, i: usize, pos: &[usize], nonce: u64) -> u64 {
        let tuples = self.tuples.as_ref().expect("owner side");
        if self.dummy.as_ref().expect("owner side")[i] {
            return dummy_key(nonce, i as u64);
        }
        key64(pos.iter().map(|&p| tuples[i][p]))
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
    use secyan_transport::run_protocol;

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
                let mut r = SecureRelation::load(&mut s, Role::Alice, sa, Some(&rel));
                let plain = r.plain_annots.clone();
                r.ensure_shared(&mut s);
                (r, plain)
            },
            move |ch| {
                let mut s = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 2);
                let mut r = SecureRelation::load(&mut s, Role::Alice, sb, None);
                r.ensure_shared(&mut s);
                r
            },
        );
        let (a, plain) = a;
        assert_eq!(a.size, 3);
        assert_eq!(b.size, 3);
        assert!(a.tuples.is_some());
        assert!(b.tuples.is_none());
        assert!(!a.is_plain && !b.is_plain);
        assert_eq!(plain.as_deref(), Some(&[10u64, 20, 30][..]));
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
                let mut r = SecureRelation::load(&mut s, Role::Alice, sa, Some(&rel));
                r.ensure_shared(&mut s);
                r
            },
            move |ch| {
                let mut s = Session::new(ch, RingCtx::new(8), TweakHasher::Aes, 4);
                let mut r = SecureRelation::load(&mut s, Role::Alice, sb, None);
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

//! Query shapes: the public skeleton an offline phase can precompute for.
//!
//! Everything the secure Yannakakis driver *does* — which operator runs on
//! which node, which circuits get garbled, how much OT each step draws —
//! is a function of the public plan: the join tree, the schemas, the
//! per-relation sizes, the annotation ring width, and who receives the
//! result. That is the protocol's obliviousness property, and it is also
//! exactly what makes an offline/online split possible: two queries with
//! the same *shape* consume interchangeable precomputed material, no
//! matter how their private tuples differ.
//!
//! The schedule exists once. Every operator derives the public *step* it
//! is about to run from relation headers (`RelHeader`) and dispatches on
//! it; the driver's reduce/semijoin/reveal walk (`protocol::walk`) is
//! generic over who answers its operator calls. A
//! [`crate::session::Session`] executes them. [`QueryShape::derive`]
//! answers them with the same steps' headers and adds up what each step
//! draws: the pre-garblable circuits in execution order and the exact OT
//! and KKRT counts per direction. The OT counts are what an offline phase
//! banks; KKRT always extends inline ([`secyan_ot::kkrt`] says why), so
//! its count is a budget only. What the walk cannot foresee is the tail of
//! the full join — its row count is the data-dependent join output size,
//! announced online — and it runs inline. Consumption stays
//! digest-checked ([`secyan_circuit::Circuit::digest`]) as the fault detector: a
//! bank that does not match falls back inline on both parties at once.

use crate::agg::{agg_step, AggKind};
use crate::join::reveal_step;
use crate::protocol::{walk, Operators};
use crate::query::SecureQuery;
use crate::semijoin::reduce_join_step;
use secyan_circuit::Circuit;
use secyan_crypto::sha256::{digest_to_u64, Sha256};
use secyan_gc::evaluator_ot_count;
use secyan_oep::oep_ot_count;
use secyan_psi::psi_cost;
use secyan_transport::Role;

/// Canonical 64-bit fingerprint of a query shape: join-tree topology,
/// schemas, owners, per-relation sizes, annotation bit width, and the
/// receiving party. Two runs with equal keys execute byte-identical
/// public transcript skeletons and can share precomputed material.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeKey(pub u64);

impl ShapeKey {
    /// Compute the key alone, without planning circuits — the cheap lookup
    /// path for pool queries ([`crate::preproc::PreprocPool`]).
    pub fn of(query: &SecureQuery, sizes: &[usize], receiver: Role, ell: usize) -> ShapeKey {
        assert_eq!(sizes.len(), query.len(), "one size per relation");
        shape_key(query, sizes, receiver, ell)
    }
}

/// The public header of a relation mid-protocol: exactly the fields the
/// driver's control flow and every operator's step read. A
/// [`crate::srel::SecureRelation`] carries one alongside its private data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RelHeader {
    pub schema: Vec<String>,
    pub owner: Role,
    pub size: usize,
    /// True while the annotations are still owner-known (§6.5).
    pub is_plain: bool,
}

impl RelHeader {
    /// A freshly loaded relation: its annotations are still owner-known.
    pub(crate) fn loaded(schema: Vec<String>, owner: Role, size: usize) -> RelHeader {
        RelHeader {
            schema,
            owner,
            size,
            is_plain: true,
        }
    }
}

/// One count per direction, indexed by the *sending* role: the OT sender
/// of an IKNP batch, the OPRF key holder of a KKRT batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerDirection {
    pub from_alice: usize,
    pub from_bob: usize,
}

impl PerDirection {
    /// The count for batches `sender` sends.
    pub fn of(&self, sender: Role) -> usize {
        match sender {
            Role::Alice => self.from_alice,
            Role::Bob => self.from_bob,
        }
    }

    pub(crate) fn add(&mut self, sender: Role, n: usize) {
        match sender {
            Role::Alice => self.from_alice += n,
            Role::Bob => self.from_bob += n,
        }
    }

    /// The larger direction.
    pub fn max(&self) -> usize {
        self.from_alice.max(self.from_bob)
    }
}

/// One garbled circuit the online driver will run, in execution order.
#[derive(Debug, Clone)]
pub struct PlannedCircuit {
    /// The exact circuit the operator's step builds online, so the
    /// digests match.
    pub circuit: Circuit,
    /// Which party garbles it; the other evaluates.
    pub garbler: Role,
}

/// What an operator step (or a whole walk of them) draws from material an
/// offline phase can prepare: the circuits it garbles, in execution
/// order, and its exact OT and KKRT instance counts per direction.
#[derive(Debug, Clone, Default)]
pub(crate) struct Draws {
    pub circuits: Vec<PlannedCircuit>,
    pub ot: PerDirection,
    pub kkrt: PerDirection,
}

/// One method per [`crate::session::Session`] verb, counting what that
/// call consumes — a step's `draws()` reads as the sequence its executor
/// runs.
impl Draws {
    /// A circuit with `garbler` garbling: the circuit itself plus the OTs
    /// carrying the evaluator's input labels, garbler sending.
    pub(crate) fn garble(&mut self, circuit: Circuit, garbler: Role) {
        self.ot.add(garbler, evaluator_ot_count(&circuit));
        self.circuits.push(PlannedCircuit { circuit, garbler });
    }

    /// A shared OEP from `n_in` inputs to `n_out` outputs with `router`
    /// holding ξ: one OT per switch, the router's peer sending.
    pub(crate) fn oep(&mut self, router: Role, n_in: usize, n_out: usize) {
        self.ot.add(router.peer(), oep_ot_count(n_in, n_out));
    }

    /// A PSI with `receiver` cuckoo-hashing `receiver_size` elements
    /// against its peer's `sender_size`, payloads `shared` or plain: the
    /// sender keys the KKRT batches and garbles; the OTs are the circuit's
    /// labels plus, for shared payloads, the two inner OEPs. Returns the
    /// bin count, the length of the PSI's output.
    pub(crate) fn psi(
        &mut self,
        receiver: Role,
        receiver_size: usize,
        sender_size: usize,
        ell: usize,
        shared: bool,
    ) -> usize {
        let sender = receiver.peer();
        let psi = psi_cost(receiver_size, sender_size, ell, shared);
        self.kkrt.add(sender, psi.kkrt);
        self.ot.add(sender, psi.ot_from_sender);
        self.ot.add(receiver, psi.ot_from_receiver);
        self.circuits.push(PlannedCircuit {
            circuit: psi.circuit,
            garbler: sender,
        });
        psi.bins
    }

    /// A share multiplication of `n` rows with `owner` sending: ℓ
    /// correlated OTs per cross term per row — one term when `v_plain` —
    /// and no circuit.
    pub(crate) fn multiply(&mut self, owner: Role, n: usize, ell: usize, v_plain: bool) {
        self.ot.add(owner, if v_plain { 1 } else { 2 } * n * ell);
    }

    fn absorb(&mut self, step: Draws) {
        self.circuits.extend(step.circuits);
        for sender in [Role::Alice, Role::Bob] {
            self.ot.add(sender, step.ot.of(sender));
            self.kkrt.add(sender, step.kkrt.of(sender));
        }
    }
}

/// A derived query shape: the pool key and everything the driver's walk
/// draws that can be prepared before the data arrives.
#[derive(Debug, Clone)]
pub struct QueryShape {
    pub key: ShapeKey,
    /// Garbled circuits of the reduce/semijoin/reveal steps, in the order
    /// the online driver executes them.
    pub planned: Vec<PlannedCircuit>,
    /// Random OTs the larger direction draws (see `exact` for each).
    pub ot_budget: usize,
    /// KKRT OPRF instances the larger direction draws (all extended
    /// inline).
    pub kkrt_budget: usize,
    /// The walk's OT draws per direction — what
    /// [`crate::preproc::run_offline`] banks, instance for instance.
    pub ot: PerDirection,
    /// Public sizes of the relations entering the full join, in fold
    /// order; empty when the reduce phase leaves a single survivor. The
    /// join's tail runs at the data-dependent output size and is the one
    /// part of the schedule no shape can plan
    /// ([`crate::join::join_tail_ot_count`] prices it once OUT is known).
    pub join_inputs: Vec<usize>,
}

impl QueryShape {
    /// Derive the shape of running `query` with the given public
    /// per-relation sizes, revealing to `receiver`, over an `ell`-bit
    /// annotation ring: the driver's own walk, with every operator call
    /// answered by the step it would run. Both parties must call this with
    /// identical arguments (all public), and the result is deterministic.
    pub fn derive(query: &SecureQuery, sizes: &[usize], receiver: Role, ell: usize) -> QueryShape {
        assert_eq!(sizes.len(), query.len(), "one size per relation");
        let loaded = (0..query.len())
            .map(|i| RelHeader::loaded(query.schemas[i].clone(), query.owners[i], sizes[i]))
            .collect();
        let mut rec = Recorder {
            ell,
            draws: Draws::default(),
            join_inputs: Vec::new(),
        };
        walk(&mut rec, query, loaded, receiver, true);
        let Draws { circuits, ot, kkrt } = rec.draws;
        QueryShape {
            key: shape_key(query, sizes, receiver, ell),
            planned: circuits,
            ot_budget: ot.max(),
            kkrt_budget: kkrt.max(),
            ot,
            join_inputs: rec.join_inputs,
        }
    }
}

/// Answers the walk's operator calls with headers only, adding up what
/// the published steps draw.
struct Recorder {
    ell: usize,
    draws: Draws,
    join_inputs: Vec<usize>,
}

impl Operators for Recorder {
    type Rel = RelHeader;
    type Output = ();

    fn header(rel: &RelHeader) -> &RelHeader {
        rel
    }

    fn project_agg(&mut self, rel: &RelHeader, attrs: &[String], kind: AggKind) -> RelHeader {
        let step = agg_step(rel, attrs, kind, self.ell);
        self.draws.absorb(step.draws());
        step.out
    }

    fn reduce_join(&mut self, rf: &mut RelHeader, rg: RelHeader) {
        let step = reduce_join_step(rf, &rg, self.ell);
        self.draws.absorb(step.draws());
        *rf = step.out;
    }

    fn reveal(&mut self, rel: &mut RelHeader, receiver: Role) {
        let step = reveal_step(rel, receiver, self.ell, true);
        self.draws.absorb(step.draws());
    }

    /// The product tree runs at the data-dependent OUT whether it reveals
    /// or shares, so `reveal` changes nothing that can be planned.
    fn join(&mut self, rels: &mut [RelHeader], receiver: Role, _reveal: bool) {
        for rel in rels.iter() {
            let step = reveal_step(rel, receiver, self.ell, false);
            self.draws.absorb(step.draws());
            self.join_inputs.push(rel.size);
        }
    }
}

/// Hash every public component of the plan into the pool key. Length
/// prefixes keep the encoding injective.
fn shape_key(query: &SecureQuery, sizes: &[usize], receiver: Role, ell: usize) -> ShapeKey {
    let mut h = Sha256::new();
    h.update(b"secyan-shape-v1");
    h.update(&(ell as u64).to_le_bytes());
    h.update(&[receiver.is_alice() as u8]);
    h.update(&(query.len() as u64).to_le_bytes());
    for (i, &size) in sizes.iter().enumerate().take(query.len()) {
        h.update(&[query.owners[i].is_alice() as u8]);
        h.update(&(size as u64).to_le_bytes());
        h.update(&(query.schemas[i].len() as u64).to_le_bytes());
        for a in &query.schemas[i] {
            h.update(&(a.len() as u64).to_le_bytes());
            h.update(a.as_bytes());
        }
        // Parent index (or the node's own index for the root) pins the
        // tree topology.
        let p = query.tree.parent(i).unwrap_or(i);
        h.update(&(p as u64).to_le_bytes());
    }
    h.update(&(query.output.len() as u64).to_le_bytes());
    for a in &query.output {
        h.update(&(a.len() as u64).to_le_bytes());
        h.update(a.as_bytes());
    }
    ShapeKey(digest_to_u64(&h.finalize()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_relation::JoinTree;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn chain_query() -> SecureQuery {
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

    #[test]
    fn key_is_deterministic_and_size_sensitive() {
        let q = chain_query();
        let a = QueryShape::derive(&q, &[3, 4, 3], Role::Alice, 32);
        let b = QueryShape::derive(&q, &[3, 4, 3], Role::Alice, 32);
        assert_eq!(a.key, b.key);
        assert_eq!(a.planned.len(), b.planned.len());
        let c = QueryShape::derive(&q, &[3, 5, 3], Role::Alice, 32);
        assert_ne!(a.key, c.key, "sizes must be part of the key");
        let d = QueryShape::derive(&q, &[3, 4, 3], Role::Bob, 32);
        assert_ne!(a.key, d.key, "receiver must be part of the key");
        let e = QueryShape::derive(&q, &[3, 4, 3], Role::Alice, 16);
        assert_ne!(a.key, e.key, "ring width must be part of the key");
    }

    #[test]
    fn scalar_root_plans_no_merge_circuit() {
        // R1(a) ⋈ R2(a,b), O = ∅: R1 folds into the root, leaving R2
        // secret-shared with (a, b) still to aggregate away. π⊕_∅ is linear
        // — each party sums its own shares — so the plan is the fold's
        // matching PSI (its product draws OTs, not a circuit), then the
        // reveal, and nothing in between.
        let q = SecureQuery::new(
            vec![strings(&["a"]), strings(&["a", "b"])],
            vec![Role::Alice, Role::Bob],
            JoinTree::new(vec![Some(1), None]),
            Vec::new(),
        );
        let shape = QueryShape::derive(&q, &[3, 4], Role::Alice, 32);
        let garblers: Vec<Role> = shape.planned.iter().map(|pc| pc.garbler).collect();
        assert_eq!(garblers, [Role::Alice, Role::Bob]);
        assert!(shape.join_inputs.is_empty());
        // The reveal opens one 32-bit total per public row and no tuple
        // words (the output schema is empty).
        let reveal = &shape.planned[1].circuit;
        assert_eq!(reveal.output_count(), 4 * 32);
        assert_eq!(shape.ot_budget, shape.ot.max());
    }

    #[test]
    fn chain_plan_ends_with_a_reveal_and_has_budget() {
        let shape = QueryShape::derive(&chain_query(), &[3, 4, 3], Role::Alice, 32);
        // The paper's chain collapses to a single survivor: the schedule
        // must be non-empty and end with the reveal garbled by Bob (the
        // non-receiver).
        assert!(!shape.planned.is_empty());
        assert_eq!(shape.planned.last().unwrap().garbler, Role::Bob);
        assert!(shape.ot_budget > 0);
    }
}

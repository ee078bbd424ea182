//! The paper's five TPC-H benchmark queries (§8.1) as secure query plans.
//!
//! Each query becomes one or more free-connex join-aggregate *subqueries*
//! plus a post-processing step, mirroring the paper's rewrites exactly:
//!
//! * **Q3** (Figure 2) — vanilla free-connex query; private selections are
//!   dummied out; the reduce phase collapses the tree to one node.
//! * **Q10** (Figure 3) — `nation` folded away as public knowledge;
//!   group-by customer.
//! * **Q18** (Figure 4) — the `having`-subquery is evaluated locally by
//!   the lineitem owner and padded to |lineitem| to hide its selectivity.
//! * **Q8** (Figure 5) — two sum aggregates composed into a ratio via a
//!   final garbled division circuit, aligned on the public year domain.
//! * **Q9** (Figure 6) — not free-connex: decomposed into 25 per-nation
//!   queries, each further split into two sums whose difference is taken
//!   on shares and only then revealed.
//!
//! Relations are partitioned between the parties in the worst possible way
//! (every join edge crosses the ownership boundary), as in the paper's
//! experiments.

use crate::gen::{day, year_of, Database, Table, NATIONS, Q8_NATION, Q8_REGION_NATIONS};
use secyan_core::ext::{align_shared_groups, reveal_ratios, reveal_shares};
use secyan_core::protocol::{secure_yannakakis, secure_yannakakis_shared};
use secyan_core::{SecureQuery, Session};
use secyan_relation::{yannakakis, JoinTree, NaturalRing, Relation};
use secyan_transport::Role;
use std::collections::HashMap;

/// The five queries from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperQuery {
    Q3,
    Q10,
    Q18,
    Q8,
    Q9,
}

impl PaperQuery {
    /// All queries, in figure order.
    pub fn all() -> [PaperQuery; 5] {
        [
            PaperQuery::Q3,
            PaperQuery::Q10,
            PaperQuery::Q18,
            PaperQuery::Q8,
            PaperQuery::Q9,
        ]
    }

    /// The paper figure this query's results reproduce.
    pub fn figure(&self) -> u32 {
        match self {
            PaperQuery::Q3 => 2,
            PaperQuery::Q10 => 3,
            PaperQuery::Q18 => 4,
            PaperQuery::Q8 => 5,
            PaperQuery::Q9 => 6,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PaperQuery::Q3 => "Q3",
            PaperQuery::Q10 => "Q10",
            PaperQuery::Q18 => "Q18",
            PaperQuery::Q8 => "Q8",
            PaperQuery::Q9 => "Q9",
        }
    }
}

/// One free-connex join-aggregate subquery with its data.
#[derive(Debug, Clone)]
pub struct SubQuery {
    pub schemas: Vec<Vec<String>>,
    pub owners: Vec<Role>,
    pub tree: JoinTree,
    pub output: Vec<String>,
    pub relations: Vec<Relation<NaturalRing>>,
}

impl SubQuery {
    /// The public plan.
    pub fn to_secure_query(&self) -> SecureQuery {
        SecureQuery::new(
            self.schemas.clone(),
            self.owners.clone(),
            self.tree.clone(),
            self.output.clone(),
        )
    }

    /// The relations this party supplies to the protocol.
    pub fn my_relations(&self, role: Role) -> Vec<Option<Relation<NaturalRing>>> {
        self.relations
            .iter()
            .zip(&self.owners)
            .map(|(r, &o)| (o == role).then(|| r.clone()))
            .collect()
    }

    /// Total input tuples IN.
    pub fn input_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }
}

/// Post-processing after the subqueries (paper §7 composition).
#[derive(Debug, Clone)]
pub enum Post {
    /// One subquery; its revealed rows are the answer.
    Reveal,
    /// Two subqueries (numerator, denominator): reveal scale·num/den per
    /// public-domain group.
    Ratio { scale: u64, domain: Vec<Vec<u64>> },
    /// Pairs of subqueries, one pair per label: reveal (sum1 − sum2) per
    /// public-domain group, labelled.
    GroupedDifference {
        domain: Vec<Vec<u64>>,
        labels: Vec<u64>,
    },
}

/// A fully instantiated paper query: subqueries + post-processing.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub query: PaperQuery,
    pub subqueries: Vec<SubQuery>,
    pub post: Post,
}

impl QuerySpec {
    /// Total input tuples across subqueries (the IN of the figures).
    pub fn input_tuples(&self) -> usize {
        self.subqueries.iter().map(|s| s.input_tuples()).sum()
    }

    /// Effective input bytes: involved columns plus annotation, 4 bytes
    /// each, like the paper's "effective input size" axis.
    pub fn effective_bytes(&self) -> u64 {
        self.subqueries
            .iter()
            .flat_map(|s| s.relations.iter())
            .map(|r| (r.schema.len() as u64 + 1) * r.len() as u64 * 4)
            .sum()
    }
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// Project `table` onto named columns, annotating each row via `annot`.
fn annotated(
    ring: NaturalRing,
    table: &Table,
    cols: &[&str],
    annot: impl Fn(&[u64]) -> u64,
) -> Relation<NaturalRing> {
    let pos: Vec<usize> = cols.iter().map(|c| table.col(c)).collect();
    let mut rel = Relation::new(ring, strings(cols));
    for row in &table.rows {
        rel.push(pos.iter().map(|&p| row[p]).collect(), annot(row));
    }
    rel
}

impl PaperQuery {
    /// Instantiate against a database. `ring` is the annotation ring
    /// shared with the protocol session.
    pub fn build(&self, db: &Database, ring: NaturalRing) -> QuerySpec {
        match self {
            PaperQuery::Q3 => build_q3(db, ring),
            PaperQuery::Q10 => build_q10(db, ring),
            PaperQuery::Q18 => build_q18(db, ring),
            PaperQuery::Q8 => build_q8(db, ring),
            PaperQuery::Q9 => build_q9(db, ring),
        }
    }
}

/// Revenue annotation: extendedprice · (100 − discount%), integer cents
/// scale (the paper's ×100 fixed-point trick from Example 3.1).
fn revenue(row: &[u64], price_col: usize, disc_col: usize) -> u64 {
    row[price_col] * (100 - row[disc_col])
}

fn build_q3(db: &Database, ring: NaturalRing) -> QuerySpec {
    let cutoff = day(1995, 3, 13);
    let (pc, dc) = (
        db.lineitem.col("l_extendedprice"),
        db.lineitem.col("l_discount"),
    );
    let seg = db.customer.col("c_mktsegment");
    let od = db.orders.col("o_orderdate");
    let sd = db.lineitem.col("l_shipdate");
    // All selections private: non-matching rows become zero-annotated.
    let customer = annotated(ring, &db.customer, &["custkey"], |r| (r[seg] == 0) as u64);
    let orders = annotated(
        ring,
        &db.orders,
        &["custkey", "orderkey", "o_orderdate", "o_shippriority"],
        |r| (r[od] < cutoff) as u64,
    );
    let lineitem = annotated(ring, &db.lineitem, &["orderkey"], |r| {
        if r[sd] > cutoff {
            revenue(r, pc, dc)
        } else {
            0
        }
    });
    QuerySpec {
        query: PaperQuery::Q3,
        subqueries: vec![SubQuery {
            schemas: vec![
                strings(&["custkey"]),
                strings(&["custkey", "orderkey", "o_orderdate", "o_shippriority"]),
                strings(&["orderkey"]),
            ],
            owners: vec![Role::Alice, Role::Bob, Role::Alice],
            tree: JoinTree::new(vec![Some(1), None, Some(1)]),
            output: strings(&["orderkey", "o_orderdate", "o_shippriority"]),
            relations: vec![customer, orders, lineitem],
        }],
        post: Post::Reveal,
    }
}

fn build_q10(db: &Database, ring: NaturalRing) -> QuerySpec {
    let lo = day(1993, 8, 1);
    let hi = day(1993, 11, 1);
    let od = db.orders.col("o_orderdate");
    let rf = db.lineitem.col("l_returnflag");
    let (pc, dc) = (
        db.lineitem.col("l_extendedprice"),
        db.lineitem.col("l_discount"),
    );
    let customer = annotated(ring, &db.customer, &["custkey", "c_nationkey"], |_| 1);
    let orders = annotated(ring, &db.orders, &["custkey", "orderkey"], |r| {
        (r[od] >= lo && r[od] < hi) as u64
    });
    // l_returnflag == 'R' is flag value 3.
    let lineitem = annotated(ring, &db.lineitem, &["orderkey"], |r| {
        if r[rf] == 3 {
            revenue(r, pc, dc)
        } else {
            0
        }
    });
    QuerySpec {
        query: PaperQuery::Q10,
        subqueries: vec![SubQuery {
            schemas: vec![
                strings(&["custkey", "c_nationkey"]),
                strings(&["custkey", "orderkey"]),
                strings(&["orderkey"]),
            ],
            owners: vec![Role::Alice, Role::Bob, Role::Alice],
            tree: JoinTree::new(vec![None, Some(0), Some(1)]),
            output: strings(&["custkey", "c_nationkey"]),
            relations: vec![customer, orders, lineitem],
        }],
        post: Post::Reveal,
    }
}

/// Q18's `having sum(l_quantity) > threshold`. The classic query uses 300;
/// our quantity generator (uniform 1..=50, ≤7 items) makes 200 the value
/// with comparable selectivity, which only changes plaintext answers, not
/// protocol cost.
pub const Q18_THRESHOLD: u64 = 200;

fn build_q18(db: &Database, ring: NaturalRing) -> QuerySpec {
    let qt = db.lineitem.col("l_quantity");
    let customer = annotated(ring, &db.customer, &["custkey"], |_| 1);
    let orders = annotated(
        ring,
        &db.orders,
        &["custkey", "orderkey", "o_orderdate", "o_totalprice"],
        |_| 1,
    );
    let lineitem = annotated(ring, &db.lineitem, &["orderkey"], |r| r[qt]);
    // The lineitem owner evaluates the having-subquery locally, then pads
    // to |lineitem| so its result size reveals nothing (paper §8.1).
    let mut sums: HashMap<u64, u64> = HashMap::new();
    for row in &db.lineitem.rows {
        *sums.entry(row[0]).or_insert(0) += row[qt];
    }
    let mut subq = Relation::new(ring, strings(&["orderkey"]));
    for (&okey, &total) in &sums {
        subq.push(vec![okey], (total > Q18_THRESHOLD) as u64);
    }
    let mut pad = 0u64;
    while subq.len() < db.lineitem.len() {
        // Reserved never-joining key region for padding.
        subq.push(vec![(1 << 40) + pad], 0);
        pad += 1;
    }
    QuerySpec {
        query: PaperQuery::Q18,
        subqueries: vec![SubQuery {
            schemas: vec![
                strings(&["custkey"]),
                strings(&["custkey", "orderkey", "o_orderdate", "o_totalprice"]),
                strings(&["orderkey"]),
                strings(&["orderkey"]),
            ],
            owners: vec![Role::Bob, Role::Bob, Role::Alice, Role::Alice],
            tree: JoinTree::new(vec![Some(1), None, Some(1), Some(1)]),
            output: strings(&["custkey", "orderkey", "o_orderdate", "o_totalprice"]),
            relations: vec![customer, orders, lineitem, subq],
        }],
        post: Post::Reveal,
    }
}

/// Q8's public year domain (the orderdate selection restricts to these).
pub fn q8_years() -> Vec<Vec<u64>> {
    vec![vec![1995], vec![1996]]
}

fn build_q8(db: &Database, ring: NaturalRing) -> QuerySpec {
    let lo = day(1995, 1, 1);
    let hi = day(1996, 12, 31);
    let ptype = db.part.col("p_type");
    let snat = db.supplier.col("s_nationkey");
    let od = db.orders.col("o_orderdate");
    let cnat = db.customer.col("c_nationkey");
    let (pc, dc) = (
        db.lineitem.col("l_extendedprice"),
        db.lineitem.col("l_discount"),
    );
    let mk_sub = |target_nation_only: bool| -> SubQuery {
        let part = annotated(ring, &db.part, &["partkey"], |r| (r[ptype] == 37) as u64);
        let supplier = annotated(ring, &db.supplier, &["suppkey"], |r| {
            if target_nation_only {
                (r[snat] == Q8_NATION) as u64
            } else {
                1
            }
        });
        let lineitem = annotated(
            ring,
            &db.lineitem,
            &["orderkey", "partkey", "suppkey"],
            |r| revenue(r, pc, dc),
        );
        // o_year as a virtual column, per the paper's rewrite.
        let mut orders = Relation::new(ring, strings(&["orderkey", "custkey", "o_year"]));
        for r in &db.orders.rows {
            let sel = (r[od] >= lo && r[od] <= hi) as u64;
            orders.push(vec![r[0], r[1], year_of(r[od])], sel);
        }
        let customer = annotated(ring, &db.customer, &["custkey"], |r| {
            Q8_REGION_NATIONS.contains(&r[cnat]) as u64
        });
        SubQuery {
            schemas: vec![
                strings(&["partkey"]),
                strings(&["suppkey"]),
                strings(&["orderkey", "partkey", "suppkey"]),
                strings(&["orderkey", "custkey", "o_year"]),
                strings(&["custkey"]),
            ],
            owners: vec![Role::Alice, Role::Bob, Role::Alice, Role::Bob, Role::Alice],
            tree: JoinTree::new(vec![Some(2), Some(2), Some(3), None, Some(3)]),
            output: strings(&["o_year"]),
            relations: vec![part, supplier, lineitem, orders, customer],
        }
    };
    QuerySpec {
        query: PaperQuery::Q8,
        subqueries: vec![mk_sub(true), mk_sub(false)],
        post: Post::Ratio {
            scale: 1000,
            domain: q8_years(),
        },
    }
}

/// Q9's public year domain.
pub fn q9_years() -> Vec<Vec<u64>> {
    (1992..=1998).map(|y| vec![y]).collect()
}

fn build_q9(db: &Database, ring: NaturalRing) -> QuerySpec {
    let green = db.part.col("p_green");
    let snat = db.supplier.col("s_nationkey");
    let od = db.orders.col("o_orderdate");
    let (pc, dc) = (
        db.lineitem.col("l_extendedprice"),
        db.lineitem.col("l_discount"),
    );
    let qt = db.lineitem.col("l_quantity");
    let cost = db.partsupp.col("ps_supplycost");
    let mk_sub = |nation: u64, first: bool| -> SubQuery {
        let part = annotated(ring, &db.part, &["partkey"], |r| r[green]);
        let supplier = annotated(ring, &db.supplier, &["suppkey"], |r| {
            (r[snat] == nation) as u64
        });
        let lineitem = annotated(
            ring,
            &db.lineitem,
            &["orderkey", "partkey", "suppkey"],
            |r| if first { revenue(r, pc, dc) } else { r[qt] },
        );
        let partsupp = annotated(ring, &db.partsupp, &["partkey", "suppkey"], |r| {
            if first {
                1
            } else {
                // ×100 keeps both sums on the paper's cents fixed-point.
                r[cost] * 100
            }
        });
        let mut orders = Relation::new(ring, strings(&["orderkey", "o_year"]));
        for r in &db.orders.rows {
            orders.push(vec![r[0], year_of(r[od])], 1);
        }
        SubQuery {
            schemas: vec![
                strings(&["partkey"]),
                strings(&["partkey", "suppkey"]),
                strings(&["orderkey", "partkey", "suppkey"]),
                strings(&["suppkey"]),
                strings(&["orderkey", "o_year"]),
            ],
            owners: vec![Role::Alice, Role::Bob, Role::Alice, Role::Bob, Role::Bob],
            tree: JoinTree::new(vec![Some(1), Some(2), Some(4), Some(2), None]),
            output: strings(&["o_year"]),
            relations: vec![part, partsupp, lineitem, supplier, orders],
        }
    };
    let mut subqueries = Vec::with_capacity(2 * NATIONS as usize);
    for n in 0..NATIONS {
        subqueries.push(mk_sub(n, true));
        subqueries.push(mk_sub(n, false));
    }
    QuerySpec {
        query: PaperQuery::Q9,
        subqueries,
        post: Post::GroupedDifference {
            domain: q9_years(),
            labels: (0..NATIONS).collect(),
        },
    }
}

/// One output row of a paper query: group values (labels first for Q9)
/// and the aggregate, signed (Q9's amount can be negative).
pub type ResultRow = (Vec<u64>, i64);

/// Run a paper query through the secure protocol. Alice receives; the Bob
/// side returns an empty vector. Both parties call this symmetrically.
pub fn run_secure_instance(sess: &mut Session, spec: &QuerySpec) -> Vec<ResultRow> {
    let me = sess.role();
    match &spec.post {
        Post::Reveal => {
            let sq = &spec.subqueries[0];
            let res = secure_yannakakis(
                sess,
                &sq.to_secure_query(),
                &sq.my_relations(me),
                Role::Alice,
            );
            res.tuples
                .into_iter()
                .zip(res.values)
                .map(|(t, v)| (t, sess.ring.to_signed(v)))
                .collect()
        }
        Post::Ratio { scale, domain } => {
            let mut aligned = Vec::new();
            for sq in &spec.subqueries {
                let res = secure_yannakakis_shared(
                    sess,
                    &sq.to_secure_query(),
                    &sq.my_relations(me),
                    Role::Alice,
                );
                aligned.push(align_shared_groups(
                    sess,
                    &res.tuples,
                    &res.annot_shares,
                    domain,
                    Role::Alice,
                ));
            }
            let q = reveal_ratios(sess, &aligned[0], &aligned[1], *scale, Role::Alice);
            let sentinel = sess.ring.reduce(u64::MAX); // division-by-zero marker
            domain
                .iter()
                .zip(q)
                .filter(|(_, v)| *v != sentinel)
                .map(|(g, v)| (g.clone(), v as i64))
                .collect()
        }
        Post::GroupedDifference { domain, labels } => {
            let mut rows = Vec::new();
            for (pair, &label) in spec.subqueries.chunks_exact(2).zip(labels) {
                let mut aligned = Vec::new();
                for sq in pair {
                    let res = secure_yannakakis_shared(
                        sess,
                        &sq.to_secure_query(),
                        &sq.my_relations(me),
                        Role::Alice,
                    );
                    aligned.push(align_shared_groups(
                        sess,
                        &res.tuples,
                        &res.annot_shares,
                        domain,
                        Role::Alice,
                    ));
                }
                // Linear post-processing on shares: local subtraction.
                let diff: Vec<u64> = aligned[0]
                    .iter()
                    .zip(&aligned[1])
                    .map(|(&a, &b)| sess.ring.sub(a, b))
                    .collect();
                let vals = reveal_shares(sess, &diff, Role::Alice);
                if me == Role::Alice {
                    for (g, v) in domain.iter().zip(vals) {
                        if v != 0 {
                            let mut key = vec![label];
                            key.extend_from_slice(g);
                            rows.push((key, sess.ring.to_signed(v)));
                        }
                    }
                }
            }
            rows
        }
    }
}

/// Plaintext reference evaluation of a paper query (the figures' MySQL
/// baseline and the correctness oracle for the secure runner).
pub fn run_plaintext_instance(spec: &QuerySpec, ring: NaturalRing) -> Vec<ResultRow> {
    let run_sub = |sq: &SubQuery| -> HashMap<Vec<u64>, u64> {
        let out = yannakakis(&sq.relations, &sq.tree, &sq.output);
        out.tuples
            .iter()
            .cloned()
            .zip(out.annots.iter().copied())
            .collect()
    };
    match &spec.post {
        Post::Reveal => {
            let m = run_sub(&spec.subqueries[0]);
            m.into_iter()
                .map(|(t, v)| (t, ring.0.to_signed(v)))
                .collect()
        }
        Post::Ratio { scale, domain } => {
            let num = run_sub(&spec.subqueries[0]);
            let den = run_sub(&spec.subqueries[1]);
            domain
                .iter()
                .filter_map(|g| {
                    let d = den.get(g).copied().unwrap_or(0);
                    if d == 0 {
                        return None;
                    }
                    let n = num.get(g).copied().unwrap_or(0);
                    Some((g.clone(), (ring.0.mul(n, *scale) / d) as i64))
                })
                .collect()
        }
        Post::GroupedDifference { domain, labels } => {
            let mut rows = Vec::new();
            for (pair, &label) in spec.subqueries.chunks_exact(2).zip(labels) {
                let s1 = run_sub(&pair[0]);
                let s2 = run_sub(&pair[1]);
                for g in domain {
                    let a = s1.get(g).copied().unwrap_or(0);
                    let b = s2.get(g).copied().unwrap_or(0);
                    let d = ring.0.sub(a, b);
                    if d != 0 {
                        let mut key = vec![label];
                        key.extend_from_slice(g);
                        rows.push((key, ring.0.to_signed(d)));
                    }
                }
            }
            rows
        }
    }
}

/// Canonicalize result rows for comparisons.
pub fn canonical(mut rows: Vec<ResultRow>) -> Vec<ResultRow> {
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Scale;
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_transport::run_protocol;

    fn ring() -> NaturalRing {
        NaturalRing::paper_default()
    }

    /// Secure run vs plaintext oracle on a small database.
    fn check_query(q: PaperQuery, mb: f64, seed: u64) {
        let db = Database::generate(Scale::mb(mb), seed);
        let spec = q.build(&db, ring());
        let want = canonical(run_plaintext_instance(&spec, ring()));
        assert!(!want.is_empty(), "{} at {mb} MB has no rows", q.name());
        let spec2 = spec.clone();
        let (got, _, _) = run_protocol(
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 201);
                run_secure_instance(&mut sess, &spec)
            },
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 202);
                run_secure_instance(&mut sess, &spec2)
            },
        );
        assert_eq!(canonical(got), want, "{} at {mb} MB", q.name());
    }

    #[test]
    fn q3_secure_matches_plaintext() {
        check_query(PaperQuery::Q3, 0.02, 20);
    }

    #[test]
    fn q10_secure_matches_plaintext() {
        check_query(PaperQuery::Q10, 0.02, 1);
    }

    #[test]
    fn q18_secure_matches_plaintext() {
        check_query(PaperQuery::Q18, 0.02, 13);
    }

    #[test]
    fn q8_secure_matches_plaintext() {
        check_query(PaperQuery::Q8, 0.02, 5);
    }

    #[test]
    fn all_plans_validate_as_free_connex() {
        let db = Database::generate(Scale::tiny(), 5);
        for q in PaperQuery::all() {
            let spec = q.build(&db, ring());
            for sq in &spec.subqueries {
                // SecureQuery::new asserts free-connexity.
                let _ = sq.to_secure_query();
            }
        }
    }

    #[test]
    fn plaintext_q3_has_results() {
        // Sanity: the workload actually produces output rows at 1 MB.
        let db = Database::generate(Scale::mb(1.0), 6);
        let spec = PaperQuery::Q3.build(&db, ring());
        let rows = run_plaintext_instance(&spec, ring());
        assert!(!rows.is_empty());
        // Revenue values are positive sums.
        assert!(rows.iter().all(|(_, v)| *v > 0));
    }

    #[test]
    fn plaintext_q9_produces_negative_and_positive_amounts() {
        let db = Database::generate(Scale::mb(0.3), 8);
        let spec = PaperQuery::Q9.build(&db, ring());
        let rows = run_plaintext_instance(&spec, ring());
        assert!(!rows.is_empty());
        // amount = revenue − cost·qty·100 swings both ways on this data.
        assert!(rows.iter().any(|(_, v)| *v != 0));
    }

    #[test]
    fn effective_bytes_scale_with_input() {
        let small = PaperQuery::Q3.build(&Database::generate(Scale::mb(0.1), 9), ring());
        let large = PaperQuery::Q3.build(&Database::generate(Scale::mb(1.0), 9), ring());
        assert!(large.effective_bytes() > 5 * small.effective_bytes());
        assert!(large.input_tuples() > 5 * small.input_tuples());
    }
}

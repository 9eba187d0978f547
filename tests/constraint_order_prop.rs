//! Join order is a cost decision, never a semantic one: on random small
//! graphs (compact, and live with an un-compacted overlay) and random
//! basic graph patterns, `select_distinct`, `{v | satisfies(v)}` and a
//! brute-force enumeration of every variable assignment agree — under the
//! orders the planner chose and under every permutation of them. And the
//! canonical text a constraint is cached and recompiled by parses back to
//! the query it was written from, whatever its constants hold.

use kgreach::SubstructureConstraint;
use kgreach_graph::fxhash::FxHashSet;
use kgreach_graph::{Graph, LabelId, UpdateBatch, VertexId};
use kgreach_integration::random_graph;
use kgreach_sparql::{eval, parse, NodeRef, Plan, PredRef, SelectQuery, Term, TriplePattern};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Node variables other than `?x`, and predicate variables, a generated
/// pattern draws from. Small pools make shared variables (joins, `?v <p>
/// ?v`, one predicate variable on two patterns) the common case.
const NODE_VARS: [&str; 3] = ["x", "a", "b"];
const PRED_VARS: [&str; 2] = ["p", "q"];

/// Layers an un-compacted overlay over `g`: deletes some base edges and
/// inserts others, one of them to a vertex the base never interned.
fn with_overlay(mut g: Graph, rng: &mut SmallRng) -> Graph {
    let base: Vec<_> = g.to_triples().collect();
    let names: Vec<String> = g.vertices().map(|v| g.vertex_name(v).to_owned()).collect();
    let mut batch = UpdateBatch::new();
    for t in &base {
        if rng.gen_bool(0.2) {
            batch.delete(&t.subject, &t.predicate, &t.object);
        }
    }
    for _ in 0..rng.gen_range(1..6) {
        let s = &names[rng.gen_range(0..names.len())];
        let o = &names[rng.gen_range(0..names.len())];
        batch.insert(s, &format!("l{}", rng.gen_range(0..4)), o);
    }
    batch.insert(&names[0], "l0", "fresh");
    g.apply_update(&batch).expect("labels fit");
    assert!(g.has_overlay());
    g
}

/// A random subject/object term: a variable, a vertex of the graph, or
/// (rarely) a name the graph does not hold.
fn node_term(g: &Graph, rng: &mut SmallRng) -> Term {
    match rng.gen_range(0..10) {
        0..=5 => Term::var(NODE_VARS[rng.gen_range(0..NODE_VARS.len())]),
        6..=8 => Term::constant(g.vertex_name(VertexId(rng.gen_range(0..g.num_vertices()) as u32))),
        _ => Term::constant("ghost"),
    }
}

/// A random BGP of `len` patterns projecting `?x`, which the first pattern
/// is made to mention (a plan must bind its projection somewhere).
fn random_bgp(g: &Graph, len: usize, rng: &mut SmallRng) -> SelectQuery {
    let mut patterns = Vec::with_capacity(len);
    for i in 0..len {
        let (mut s, mut o) = (node_term(g, rng), node_term(g, rng));
        if i == 0 {
            match rng.gen_range(0..3) {
                0 => s = Term::var("x"),
                1 => o = Term::var("x"),
                _ => (s, o) = (Term::var("x"), Term::var("x")),
            }
        }
        let p = match rng.gen_range(0..10) {
            0..=6 => Term::constant(format!("l{}", rng.gen_range(0..g.num_labels()))),
            7..=8 => Term::var(PRED_VARS[rng.gen_range(0..PRED_VARS.len())]),
            _ => Term::constant("unknownPredicate"),
        };
        patterns.push(TriplePattern::new(s, p, o));
    }
    SelectQuery { projection: vec!["x".into()], patterns }
}

/// Every embedding of `plan.patterns`, by trying every assignment of
/// vertices to node variables and labels to predicate variables against
/// the edge set: returns the distinct values of `?x` (ascending) and the
/// embedding count. Shares nothing with the evaluator but the resolved
/// patterns.
fn brute_force(g: &Graph, plan: &Plan) -> (Vec<VertexId>, usize) {
    if plan.unsatisfiable {
        return (Vec::new(), 0);
    }
    let edges: FxHashSet<(VertexId, LabelId, VertexId)> =
        g.edges().map(|e| (e.src, e.label, e.dst)).collect();
    let (n, labels) = (g.num_vertices(), g.num_labels());
    let x = plan.projection[0] as usize;
    let mut nodes = vec![0usize; plan.num_node_vars];
    let mut preds = vec![0usize; plan.num_pred_vars];
    let mut found = FxHashSet::default();
    let mut embeddings = 0;
    // Odometers over both assignment spaces (each yields the all-zero
    // assignment exactly once when it has no variables).
    let advance = |digits: &mut [usize], base: usize| -> bool {
        for d in digits.iter_mut() {
            *d += 1;
            if *d < base {
                return true;
            }
            *d = 0;
        }
        false
    };
    loop {
        loop {
            let node = |r: NodeRef| match r {
                NodeRef::Const(v) => v,
                NodeRef::Var(i) => VertexId(nodes[i as usize] as u32),
            };
            let holds = plan.patterns.iter().all(|p| {
                let l = match p.p {
                    PredRef::Const(l) => l,
                    PredRef::Var(i) => LabelId(preds[i as usize] as u16),
                };
                edges.contains(&(node(p.s), l, node(p.o)))
            });
            if holds {
                embeddings += 1;
                found.insert(VertexId(nodes[x] as u32));
            }
            if !advance(&mut preds, labels) {
                break;
            }
        }
        if !advance(&mut nodes, n) {
            break;
        }
    }
    let mut found: Vec<VertexId> = found.into_iter().collect();
    found.sort_unstable();
    (found, embeddings)
}

fn satisfying(g: &Graph, plan: &Plan) -> Vec<VertexId> {
    g.vertices().filter(|&v| eval::satisfies(g, plan, v)).collect()
}

/// Every permutation of `items` (Heap's algorithm).
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    fn heap<T: Clone>(k: usize, a: &mut Vec<T>, out: &mut Vec<Vec<T>>) {
        if k <= 1 {
            out.push(a.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, a, out);
            a.swap(if k % 2 == 0 { i } else { 0 }, k - 1);
        }
    }
    let mut out = Vec::new();
    heap(items.len(), &mut items.to_vec(), &mut out);
    out
}

/// The whole property for one `(graph, query)` pair.
fn check(g: &Graph, query: &SelectQuery) -> Result<(), TestCaseError> {
    let plan = Plan::compile(g, query).expect("?x occurs in a node position");
    let (expected, embeddings) = brute_force(g, &plan);
    prop_assert_eq!(&eval::select_distinct(g, &plan), &expected, "V(S,G) of {}", query);
    prop_assert_eq!(&satisfying(g, &plan), &expected, "SCck of {}", query);
    prop_assert_eq!(eval::count_embeddings(g, &plan, usize::MAX), embeddings, "{}", query);
    if plan.unsatisfiable {
        return Ok(());
    }
    for order in permutations(&plan.patterns) {
        let mut permuted = plan.clone();
        permuted.scck_order.clone_from(&order);
        permuted.vsg_order = order;
        prop_assert_eq!(
            &eval::select_distinct(g, &permuted),
            &expected,
            "V(S,G) of {} walked as {:?}",
            query,
            &permuted.vsg_order
        );
        prop_assert_eq!(
            &satisfying(g, &permuted),
            &expected,
            "SCck of {} walked as {:?}",
            query,
            &permuted.scck_order
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    #[test]
    fn every_order_yields_the_brute_force_answer(
        seed in 0u64..1_000_000,
        n in 2usize..8,
        density in 1usize..4,
        labels in 1usize..4,
        len in 1usize..5,
        overlay in 0usize..2,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = random_graph(n, n * density, labels, seed);
        if overlay == 1 {
            g = with_overlay(g, &mut rng);
        }
        let query = random_bgp(&g, len, &mut rng);
        check(&g, &query)?;
    }
}

/// The shapes the generator is meant to reach, pinned: a run of random
/// cases that happened to miss one would still pass, this cannot.
#[test]
fn named_shapes_agree_on_a_live_graph() {
    let mut rng = SmallRng::seed_from_u64(7);
    let compact = random_graph(7, 24, 3, 7);
    let live = with_overlay(compact.clone(), &mut rng);
    let (v, c) = (Term::var, Term::constant);
    let shapes: Vec<Vec<TriplePattern>> = vec![
        // predicate variables, one shared by two patterns
        vec![
            TriplePattern::new(v("x"), v("p"), v("a")),
            TriplePattern::new(v("a"), v("p"), c("n1")),
        ],
        // ?x <p> ?x, bound and unbound
        vec![TriplePattern::new(v("x"), c("l0"), v("x"))],
        vec![
            TriplePattern::new(v("x"), c("l1"), v("a")),
            TriplePattern::new(v("a"), v("q"), v("a")),
        ],
        // constants on both ends of ?x
        vec![
            TriplePattern::new(c("n0"), c("l0"), v("x")),
            TriplePattern::new(v("x"), c("l1"), c("n2")),
        ],
        // an all-constant context edge, present and absent
        vec![
            TriplePattern::new(c("n0"), c("l0"), c("fresh")),
            TriplePattern::new(v("x"), c("l0"), v("a")),
        ],
        vec![
            TriplePattern::new(c("n3"), c("l2"), c("n3")),
            TriplePattern::new(v("x"), v("p"), v("a")),
        ],
        // a component no pattern connects to ?x
        vec![
            TriplePattern::new(v("x"), c("l0"), c("n1")),
            TriplePattern::new(v("a"), c("l1"), v("b")),
        ],
        // unresolvable constants in every position
        vec![TriplePattern::new(v("x"), c("l0"), c("ghost"))],
        vec![TriplePattern::new(c("ghost"), v("p"), v("x"))],
        vec![TriplePattern::new(v("x"), c("unknownPredicate"), v("a"))],
    ];
    for g in [&compact, &live] {
        for patterns in &shapes {
            let query = SelectQuery { projection: vec!["x".into()], patterns: patterns.clone() };
            check(g, &query).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}

/// What a generated constant is drawn from: name characters, every byte
/// the canonical writer must quote or escape (whitespace, `"`, `\`, `>`),
/// the lexer's other punctuation, and text outside ASCII — accented,
/// astral, and Unicode whitespace.
const CONSTANT_CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ':',
    '_',
    '-',
    '/',
    '#',
    '@',
    '.',
    ' ',
    '\t',
    '\n',
    '"',
    '\'',
    '\\',
    '>',
    '<',
    '{',
    '}',
    '?',
    'é',
    'Ω',
    '\u{1F600}',
    '\u{a0}',
    '\u{3000}',
];

/// A random query whose constants draw from [`CONSTANT_CHARS`]: up to
/// four patterns, any term a constant or one of three variables, and a
/// projection of variables the patterns use.
fn random_text_query(rng: &mut SmallRng) -> SelectQuery {
    let vars = ["x", "yé", "z_1"];
    let term = |rng: &mut SmallRng| {
        if rng.gen_bool(0.4) {
            Term::var(vars[rng.gen_range(0..vars.len())])
        } else {
            let len = rng.gen_range(0..6);
            Term::constant(
                (0..len)
                    .map(|_| CONSTANT_CHARS[rng.gen_range(0..CONSTANT_CHARS.len())])
                    .collect::<String>(),
            )
        }
    };
    let mut patterns: Vec<TriplePattern> = (0..rng.gen_range(1..5))
        .map(|_| TriplePattern::new(term(rng), term(rng), term(rng)))
        .collect();
    patterns[0].subject = Term::var("x");
    let mut projection = vec!["x".to_owned()];
    for v in &vars[1..] {
        if rng.gen_bool(0.3) && patterns.iter().any(|p| p.variables().any(|u| u == *v)) {
            projection.push((*v).to_owned());
        }
    }
    SelectQuery { projection, patterns }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    fn canonical_text_parses_back_to_its_query(seed in 0u64..1_000_000) {
        let query = random_text_query(&mut SmallRng::seed_from_u64(seed));
        let text = query.canonical_text();
        prop_assert_eq!(&text, &query.to_string());
        let back = parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&query), "{}", text);
        if query.projection.len() == 1 {
            let constraint = SubstructureConstraint::from_query(query).unwrap();
            let again = SubstructureConstraint::parse(constraint.sparql_text());
            prop_assert_eq!(again.as_ref(), Ok(&constraint), "{}", text);
        }
    }
}

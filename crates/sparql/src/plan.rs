//! Query planning: name resolution and cost-based join ordering.
//!
//! A parsed [`SelectQuery`] refers to vertices and predicates by string;
//! a [`Plan`] resolves them against a concrete [`Graph`] into dense ids and
//! fixes the order the backtracking evaluator joins the patterns in.
//!
//! # Two orders, one rule
//!
//! The evaluator is entered in two binding states, and the cheapest order
//! differs between them: `SCck(v, S)` ([`eval::satisfies`]) starts with
//! `?x` bound, `V(S,G)` ([`eval::select_distinct`]) starts with nothing
//! bound. [`Plan::compile`] therefore runs the same greedy ordering twice
//! — [`Plan::scck_order`] with `?x` in the bound set, [`Plan::vsg_order`]
//! with the bound set empty — and each entry point walks the order its real
//! binding state calls for. For the paper's S3,
//! `?x rdf:type Undergrad . ?x takesCourse ?y . ?y rdf:type Course`, the
//! difference is a join that enumerates every `Course` per undergraduate
//! against one that follows the student's handful of `takesCourse` edges
//! and probes each target's type.
//!
//! # The cost model
//!
//! Each greedy step places the pending pattern that enumerates the fewest
//! edges under the variables bound so far, estimated from statistics the
//! graph already holds (O(1) or one O(log d) run lookup each):
//!
//! | endpoints of the pattern | charged |
//! |---|---|
//! | both bound (constants or placed variables) | nothing — a filter, placed at once |
//! | one constant, other unbound | the exact label-run length at that vertex (`rdf:type <C>` is `C`'s in-run); its degree under a predicate variable |
//! | one placed variable, other unbound | the label's average fan-out `histogram[l] / label_vertex_counts[l]` (fan-in through the object); `|E| / |V|` under a predicate variable |
//! | nothing bound | `histogram[l]` (`|E|` under a predicate variable) — a full scan, the last resort |
//!
//! Connectivity dominates cost: a pattern with a bound endpoint always
//! precedes one without. Ties keep query order, so equal text compiles to
//! an equal `Plan`.
//!
//! [`eval::satisfies`]: crate::eval::satisfies
//! [`eval::select_distinct`]: crate::eval::select_distinct

use crate::ast::{SelectQuery, Term};
use crate::error::{Result, SparqlError};
use kgreach_graph::{Graph, LabelId, VertexId};

/// A subject/object slot in a resolved pattern.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum NodeRef {
    /// A concrete vertex.
    Const(VertexId),
    /// A node variable, by dense index.
    Var(u16),
}

/// A predicate slot in a resolved pattern.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PredRef {
    /// A concrete label.
    Const(LabelId),
    /// A predicate variable, by dense index (separate namespace from
    /// node variables).
    Var(u16),
}

/// A triple pattern with ids resolved and variables numbered.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ResolvedPattern {
    /// Subject slot.
    pub s: NodeRef,
    /// Predicate slot.
    pub p: PredRef,
    /// Object slot.
    pub o: NodeRef,
}

/// An executable plan: the resolved patterns and the two join orders the
/// evaluator walks (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct Plan {
    /// The resolved patterns, in query order.
    pub patterns: Vec<ResolvedPattern>,
    /// The patterns in the order `SCck` joins them: the first projected
    /// variable starts bound.
    pub scck_order: Vec<ResolvedPattern>,
    /// The patterns in the order `V(S,G)` (and embedding counting) joins
    /// them: nothing starts bound.
    pub vsg_order: Vec<ResolvedPattern>,
    /// Number of node variables.
    pub num_node_vars: usize,
    /// Number of predicate variables.
    pub num_pred_vars: usize,
    /// Node-variable indices of the projected variables, in query order.
    pub projection: Vec<u16>,
    /// Node-variable names (index → name), for diagnostics.
    pub node_var_names: Vec<String>,
    /// Whether some constant failed to resolve — the query matches nothing.
    pub unsatisfiable: bool,
}

impl Plan {
    /// Compiles `query` against `graph`.
    ///
    /// Unknown constants do not error — they make the plan
    /// [`unsatisfiable`](Plan::unsatisfiable) (the query simply has no
    /// matches in this graph), mirroring SPARQL set semantics.
    pub fn compile(graph: &Graph, query: &SelectQuery) -> Result<Plan> {
        if query.patterns.is_empty() {
            return Err(SparqlError::EmptyPattern);
        }
        let mut node_var_names: Vec<String> = Vec::new();
        let mut pred_var_names: Vec<String> = Vec::new();
        let mut unsatisfiable = false;

        fn node_ref(
            graph: &Graph,
            t: &Term,
            names: &mut Vec<String>,
            unsatisfiable: &mut bool,
        ) -> NodeRef {
            match t {
                Term::Constant(c) => match graph.vertex_id(c) {
                    Some(v) => NodeRef::Const(v),
                    None => {
                        *unsatisfiable = true;
                        NodeRef::Const(VertexId(0))
                    }
                },
                Term::Variable(v) => {
                    let idx = match names.iter().position(|n| n == v) {
                        Some(i) => i,
                        None => {
                            names.push(v.clone());
                            names.len() - 1
                        }
                    };
                    NodeRef::Var(idx as u16)
                }
            }
        }

        let mut patterns = Vec::with_capacity(query.patterns.len());
        for p in &query.patterns {
            let s = node_ref(graph, &p.subject, &mut node_var_names, &mut unsatisfiable);
            let o = node_ref(graph, &p.object, &mut node_var_names, &mut unsatisfiable);
            let pred = match &p.predicate {
                Term::Constant(c) => match graph.label_id(c) {
                    Some(l) => PredRef::Const(l),
                    None => {
                        unsatisfiable = true;
                        PredRef::Const(LabelId(0))
                    }
                },
                Term::Variable(v) => {
                    if node_var_names.iter().any(|n| n == v) {
                        return Err(SparqlError::Parse {
                            message: format!(
                                "variable ?{v} is used in both node and predicate position"
                            ),
                        });
                    }
                    let idx = match pred_var_names.iter().position(|n| n == v) {
                        Some(i) => i,
                        None => {
                            pred_var_names.push(v.clone());
                            pred_var_names.len() - 1
                        }
                    };
                    PredRef::Var(idx as u16)
                }
            };
            patterns.push(ResolvedPattern { s, p: pred, o });
        }

        let mut projection = Vec::with_capacity(query.projection.len());
        for v in &query.projection {
            match node_var_names.iter().position(|n| n == v) {
                Some(i) => projection.push(i as u16),
                None => {
                    // Either unused (caught by the parser) or predicate-only.
                    return Err(SparqlError::Parse {
                        message: format!(
                            "projected variable ?{v} must occur in a subject/object position"
                        ),
                    });
                }
            }
        }

        // An unsatisfiable plan is never evaluated, and its placeholder
        // ids must not reach the graph's statistics: keep query order. A
        // single pattern has nothing to order.
        let (scck_order, vsg_order) = if unsatisfiable || patterns.len() == 1 {
            (patterns.clone(), patterns.clone())
        } else {
            // One scratch buffer for both runs: which node variables are
            // bound, then which patterns are placed.
            let mut scratch = vec![false; node_var_names.len() + patterns.len()];
            let vsg_order = order_patterns(graph, &patterns, &mut scratch, None);
            scratch.fill(false);
            let scck_order =
                order_patterns(graph, &patterns, &mut scratch, projection.first().copied());
            (scck_order, vsg_order)
        };
        Ok(Plan {
            patterns,
            scck_order,
            vsg_order,
            num_node_vars: node_var_names.len(),
            num_pred_vars: pred_var_names.len(),
            projection,
            node_var_names,
            unsatisfiable,
        })
    }
}

/// Greedy cost-based ordering of `patterns` with the node variable
/// `pre_bound` (if any) bound from the start. Each step places the
/// unplaced pattern with the smallest [`Cost`] (the first such in query
/// order) and binds its variables. `scratch` holds one all-false flag per node variable followed by
/// one per pattern.
fn order_patterns(
    g: &Graph,
    patterns: &[ResolvedPattern],
    scratch: &mut [bool],
    pre_bound: Option<u16>,
) -> Vec<ResolvedPattern> {
    let (bound, placed) = scratch.split_at_mut(scratch.len() - patterns.len());
    if let Some(x) = pre_bound {
        bound[x as usize] = true;
    }
    let mut ordered = Vec::with_capacity(patterns.len());
    for _ in 0..patterns.len() {
        // A strict comparison in query order: ties keep query order.
        let mut best: Option<(usize, Cost)> = None;
        for (i, &p) in patterns.iter().enumerate() {
            if !placed[i] {
                let c = cost(g, p, bound);
                if best.map_or(true, |(_, b)| c < b) {
                    best = Some((i, c));
                }
            }
        }
        let (i, _) = best.expect("an unplaced pattern per round");
        placed[i] = true;
        for n in [patterns[i].s, patterns[i].o] {
            if let NodeRef::Var(v) = n {
                bound[v as usize] = true;
            }
        }
        ordered.push(patterns[i]);
    }
    ordered
}

/// What placing a pattern next would cost, compared in declaration order
/// of the variants first (connectivity dominates), then by the estimated
/// number of edges the evaluator enumerates.
#[derive(Copy, Clone, PartialEq, PartialOrd, Debug)]
enum Cost {
    /// Both endpoints bound: an existence probe.
    Filter,
    /// One endpoint bound: its label run (exact for a constant, the
    /// label's average fan-out for a variable).
    Connected(f64),
    /// Neither endpoint bound: a scan of every edge carrying the label.
    Scan(f64),
}

fn cost(g: &Graph, p: ResolvedPattern, bound: &[bool]) -> Cost {
    /// An endpoint as the ordering sees it.
    enum End {
        Const(VertexId),
        BoundVar,
        Free,
    }
    let end = |n: NodeRef| match n {
        NodeRef::Const(v) => End::Const(v),
        NodeRef::Var(v) if bound[v as usize] => End::BoundVar,
        NodeRef::Var(_) => End::Free,
    };
    let label = match p.p {
        PredRef::Const(l) => Some(l),
        PredRef::Var(_) => None,
    };
    // Edges carrying the label, and the average number of them per vertex
    // that has any, in the direction given by `per_vertex`.
    let edges = label.map_or(g.num_edges(), |l| g.label_histogram()[l.index()]) as f64;
    let fan = |per_vertex: &[usize]| match label {
        Some(l) => edges / per_vertex[l.index()].max(1) as f64,
        None => edges / g.num_vertices().max(1) as f64,
    };
    match (end(p.s), end(p.o)) {
        (End::Free, End::Free) => Cost::Scan(edges),
        (End::Const(s), End::Free) => Cost::Connected(match label {
            Some(l) => g.out_neighbors_with_label(s, l).len(),
            None => g.out_degree(s),
        } as f64),
        (End::Free, End::Const(o)) => Cost::Connected(match label {
            Some(l) => g.in_neighbors_with_label(o, l).len(),
            None => g.in_degree(o),
        } as f64),
        (End::BoundVar, End::Free) => Cost::Connected(fan(g.label_vertex_counts())),
        (End::Free, End::BoundVar) => Cost::Connected(fan(g.label_in_vertex_counts())),
        _ => Cost::Filter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use kgreach_graph::GraphBuilder;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.add_triple("b", "q", "c");
        b.add_triple("a", "q", "c");
        b.build().unwrap()
    }

    #[test]
    fn compile_resolves_ids() {
        let g = graph();
        let q = parse("SELECT ?x WHERE { ?x <p> <b> . }").unwrap();
        let plan = Plan::compile(&g, &q).unwrap();
        assert!(!plan.unsatisfiable);
        assert_eq!(plan.num_node_vars, 1);
        assert_eq!(plan.projection, vec![0]);
        match plan.patterns[0] {
            ResolvedPattern { s: NodeRef::Var(0), p: PredRef::Const(l), o: NodeRef::Const(v) } => {
                assert_eq!(l, g.label_id("p").unwrap());
                assert_eq!(v, g.vertex_id("b").unwrap());
            }
            other => panic!("unexpected pattern {other:?}"),
        }
    }

    #[test]
    fn unknown_constant_is_unsatisfiable_not_error() {
        let g = graph();
        let q = parse("SELECT ?x WHERE { ?x <p> <missing> . }").unwrap();
        let plan = Plan::compile(&g, &q).unwrap();
        assert!(plan.unsatisfiable);
        let q = parse("SELECT ?x WHERE { ?x <missingpred> <b> . }").unwrap();
        assert!(Plan::compile(&g, &q).unwrap().unsatisfiable);
    }

    #[test]
    fn ordering_prefers_connected_patterns() {
        let g = graph();
        // ?y <q> ?z is disconnected from ?x until ?x <p> ?y runs.
        let q = parse("SELECT ?x WHERE { ?y <q> ?z . ?x <p> ?y . }").unwrap();
        let plan = Plan::compile(&g, &q).unwrap();
        assert_eq!(plan.patterns, [plan.scck_order[1], plan.scck_order[0]], "query order kept");
        // With ?x bound the first pattern must touch ?x.
        match plan.scck_order[0] {
            ResolvedPattern { s: NodeRef::Var(v), .. } => {
                assert_eq!(plan.node_var_names[v as usize], "x");
            }
            ref other => panic!("unexpected first pattern {other:?}"),
        }
    }

    /// A LUBM-shaped fixture: two departments of 20 undergraduates and 4
    /// graduate students each, 6 courses, every student taking two.
    fn campus() -> Graph {
        let mut b = GraphBuilder::new();
        for c in 0..6 {
            b.add_triple(&format!("course{c}"), "rdf:type", "Course");
        }
        for d in 0..2 {
            for i in 0..24 {
                let (name, class) = if i < 20 {
                    (format!("ug{i}.dept{d}"), "UndergraduateStudent")
                } else {
                    (format!("grad{i}.dept{d}"), "GraduateStudent")
                };
                b.add_triple(&name, "rdf:type", class);
                b.add_triple(&format!("dept{d}"), "hasMember", &name);
                b.add_triple(&name, "takesCourse", &format!("course{}", i % 6));
                b.add_triple(&name, "takesCourse", &format!("course{}", (i + 1) % 6));
            }
        }
        b.build().unwrap()
    }

    /// The patterns of `order`, as their positions in the query text.
    fn positions(plan: &Plan, order: &[ResolvedPattern]) -> Vec<usize> {
        order.iter().map(|p| plan.patterns.iter().position(|q| q == p).unwrap()).collect()
    }

    #[test]
    fn s3_scck_follows_the_students_courses() {
        let g = campus();
        let q = parse(
            "SELECT ?x WHERE { ?x <rdf:type> <UndergraduateStudent> . \
             ?y <rdf:type> <Course> . ?x <takesCourse> ?y . }",
        )
        .unwrap();
        let plan = Plan::compile(&g, &q).unwrap();
        // ?x bound: the type test is a probe, then the student's two
        // takesCourse edges (fan-out 2) beat Course's in-run (6), which
        // then is a probe as well.
        assert_eq!(positions(&plan, &plan.scck_order), [0, 2, 1]);
        // Nothing bound: the smallest constant run first, and never the
        // per-undergraduate enumeration of every Course.
        assert_eq!(positions(&plan, &plan.vsg_order), [1, 2, 0]);
    }

    #[test]
    fn vsg_starts_from_the_smaller_constant_run() {
        let g = campus();
        let q = parse(
            "SELECT ?x WHERE { ?x <rdf:type> <UndergraduateStudent> . <dept1> <hasMember> ?x . }",
        )
        .unwrap();
        let plan = Plan::compile(&g, &q).unwrap();
        // 24 members against 40 undergraduates.
        assert_eq!(positions(&plan, &plan.vsg_order), [1, 0]);
        // With ?x bound both are probes: query order.
        assert_eq!(positions(&plan, &plan.scck_order), [0, 1]);
    }

    #[test]
    fn equal_costs_keep_query_order() {
        let g = campus();
        let text = "SELECT ?x WHERE { ?x <takesCourse> ?a . ?x <takesCourse> ?b . \
                    ?x <takesCourse> ?c . ?x <takesCourse> ?d . }";
        let plan = Plan::compile(&g, &parse(text).unwrap()).unwrap();
        assert_eq!(plan.scck_order, plan.patterns);
        // Nothing bound: the first pattern is a scan, the rest tie behind it.
        assert_eq!(plan.vsg_order, plan.patterns);
        let again = Plan::compile(&g, &parse(text).unwrap()).unwrap();
        assert_eq!((again.scck_order, again.vsg_order), (plan.scck_order, plan.vsg_order));
    }

    #[test]
    fn unsatisfiable_plans_skip_the_statistics() {
        // The placeholder ids of unresolved constants never index the
        // graph — not even an empty one.
        let g = GraphBuilder::new().build().unwrap();
        let q = parse("SELECT ?x WHERE { ?x <p> <nowhere> . <nobody> ?q ?x . }").unwrap();
        let plan = Plan::compile(&g, &q).unwrap();
        assert!(plan.unsatisfiable);
        assert_eq!(plan.scck_order, plan.patterns);
        assert_eq!(plan.vsg_order, plan.patterns);
    }

    #[test]
    fn predicate_variable_namespace_is_separate() {
        let g = graph();
        let q = parse("SELECT ?x WHERE { ?x ?p <b> . }").unwrap();
        let plan = Plan::compile(&g, &q).unwrap();
        assert_eq!(plan.num_node_vars, 1);
        assert_eq!(plan.num_pred_vars, 1);
    }

    #[test]
    fn shared_node_and_pred_variable_rejected() {
        let g = graph();
        let q = parse("SELECT ?x WHERE { ?x ?x <b> . }").unwrap();
        assert!(Plan::compile(&g, &q).is_err());
    }

    #[test]
    fn projection_must_be_node_position() {
        let g = graph();
        let q = parse("SELECT ?p WHERE { <a> ?p <b> . }").unwrap();
        assert!(Plan::compile(&g, &q).is_err());
    }
}

//! Backtracking evaluation of resolved plans.
//!
//! The evaluator enumerates embeddings of a basic graph pattern into the
//! graph by depth-first join: each pattern of the walked order extends the
//! current partial binding with every compatible edge. Three entry points
//! cover everything the LSCR algorithms need, and each walks the order the
//! planner computed for its binding state (see [`Plan`]):
//!
//! * [`satisfies`] — the paper's `SCck(v, S)`: does binding the projection
//!   variable `?x := v` extend to a full embedding? Walks
//!   [`Plan::scck_order`]. Allocation-free for plans within the inline
//!   `Bindings` capacity.
//! * [`select_distinct`] — the paper's `V(S,G)`: all distinct values of
//!   `?x`. Walks [`Plan::vsg_order`] and prunes any branch whose `?x` is
//!   already in the result set, so the cost is bounded by embeddings *per
//!   distinct* `?x` prefix rather than total embeddings.
//! * [`count_embeddings`] — total embedding count (tests/diagnostics).
//!
//! How a pattern is matched depends on what is bound when the join reaches
//! it. One bound endpoint: its label run is enumerated (a binary-searched
//! sub-slice of the adjacency). Both endpoints and the predicate bound: no
//! enumeration at all, one [`Graph::has_edge`] probe — a binary search of
//! the shorter endpoint's adjacency, so `<dept> hasMember ?x` under a bound
//! `?x` costs O(log d) of the student's degree, not a walk over the
//! department's members. Nothing bound: every edge carrying the label is
//! scanned; the cost model ranks that last, so it is reached first only by
//! patterns no constant and no earlier pattern connects to.

use crate::plan::{NodeRef, Plan, PredRef, ResolvedPattern};
use kgreach_graph::fxhash::FxHashSet;
use kgreach_graph::{Dir, Graph, LabelId, VertexId};

/// Node variables a [`Bindings`] holds without touching the heap (the
/// paper's largest constraint, S4, has eight).
const INLINE_NODE_VARS: usize = 8;
/// Predicate variables a [`Bindings`] holds without touching the heap.
const INLINE_PRED_VARS: usize = 2;

/// A partial assignment of node and predicate variables: fixed inline
/// arrays, with a heap fallback only for plans with more variables than
/// those hold.
#[derive(Clone, Debug)]
pub(crate) struct Bindings {
    nodes: Slots<VertexId, INLINE_NODE_VARS>,
    preds: Slots<LabelId, INLINE_PRED_VARS>,
}

/// `len` optional values: inline when `len <= N`, spilled otherwise.
#[derive(Clone, Debug)]
struct Slots<T, const N: usize> {
    inline: [Option<T>; N],
    spill: Vec<Option<T>>,
    len: usize,
}

impl<T: Copy, const N: usize> Slots<T, N> {
    fn new(len: usize) -> Self {
        let spill = if len > N { vec![None; len] } else { Vec::new() };
        Slots { inline: [None; N], spill, len }
    }

    fn as_mut_slice(&mut self) -> &mut [Option<T>] {
        if self.len > N {
            &mut self.spill
        } else {
            &mut self.inline[..self.len]
        }
    }
}

impl Bindings {
    /// Fresh all-unbound bindings sized for `plan`.
    pub(crate) fn for_plan(plan: &Plan) -> Self {
        Bindings { nodes: Slots::new(plan.num_node_vars), preds: Slots::new(plan.num_pred_vars) }
    }
}

/// Search control returned by solution visitors.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Control {
    /// Keep enumerating.
    Continue,
    /// Stop the whole search.
    Stop,
}

/// `SCck(v, S)`: whether binding the first projected variable to `x`
/// extends to a full embedding of the plan.
pub fn satisfies(g: &Graph, plan: &Plan, x: VertexId) -> bool {
    if plan.unsatisfiable {
        return false;
    }
    let var = match plan.projection.first() {
        Some(&v) => v,
        None => return false,
    };
    let mut b = Bindings::for_plan(plan);
    b.nodes.as_mut_slice()[var as usize] = Some(x);
    let mut exists = Exists(false);
    Join::new(g, &plan.scck_order, &mut b, &mut exists).solve(0);
    exists.0
}

/// `V(S,G)`: all distinct values of the first projected variable, in
/// ascending vertex-id order (callers that need the paper's "disordered"
/// semantics shuffle explicitly).
pub fn select_distinct(g: &Graph, plan: &Plan) -> Vec<VertexId> {
    if plan.unsatisfiable {
        return Vec::new();
    }
    let var = match plan.projection.first() {
        Some(&v) => v,
        None => return Vec::new(),
    };
    let mut distinct = Distinct { var, found: FxHashSet::default() };
    let mut b = Bindings::for_plan(plan);
    Join::new(g, &plan.vsg_order, &mut b, &mut distinct).solve(0);
    let mut out: Vec<VertexId> = distinct.found.into_iter().collect();
    out.sort_unstable();
    out
}

/// Counts full embeddings, stopping at `limit` (use `usize::MAX` for all).
pub fn count_embeddings(g: &Graph, plan: &Plan, limit: usize) -> usize {
    if plan.unsatisfiable || limit == 0 {
        return 0;
    }
    let mut count = Count { count: 0, limit };
    let mut b = Bindings::for_plan(plan);
    Join::new(g, &plan.vsg_order, &mut b, &mut count).solve(0);
    count.count
}

/// What a join does with the embeddings it finds. Static dispatch: each
/// entry point instantiates its own copy of the recursion.
trait Visitor {
    /// Whether the subtree under the partial binding `nodes` is known to
    /// add nothing.
    fn prune(&self, _nodes: &[Option<VertexId>]) -> bool {
        false
    }

    /// Called with every full embedding.
    fn solution(&mut self, nodes: &[Option<VertexId>]) -> Control;
}

/// [`satisfies`]: the first embedding settles it.
struct Exists(bool);

impl Visitor for Exists {
    fn solution(&mut self, _nodes: &[Option<VertexId>]) -> Control {
        self.0 = true;
        Control::Stop
    }
}

/// [`count_embeddings`].
struct Count {
    count: usize,
    limit: usize,
}

impl Visitor for Count {
    fn solution(&mut self, _nodes: &[Option<VertexId>]) -> Control {
        self.count += 1;
        if self.count >= self.limit {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// [`select_distinct`]: collects the values of `var`, and prunes branches
/// whose `var` is bound to an already-collected value (the subtree can only
/// repeat it).
struct Distinct {
    var: u16,
    found: FxHashSet<VertexId>,
}

impl Visitor for Distinct {
    fn prune(&self, nodes: &[Option<VertexId>]) -> bool {
        nodes[self.var as usize].is_some_and(|x| self.found.contains(&x))
    }

    fn solution(&mut self, nodes: &[Option<VertexId>]) -> Control {
        if let Some(x) = nodes[self.var as usize] {
            self.found.insert(x);
        }
        Control::Continue
    }
}

/// A subject/object slot under the current bindings.
#[derive(Copy, Clone)]
enum Slot {
    Bound(VertexId),
    Free(u16),
}

/// One depth-first join over `order`.
struct Join<'a, V> {
    g: &'a Graph,
    order: &'a [ResolvedPattern],
    nodes: &'a mut [Option<VertexId>],
    preds: &'a mut [Option<LabelId>],
    visitor: &'a mut V,
}

impl<'a, V: Visitor> Join<'a, V> {
    fn new(
        g: &'a Graph,
        order: &'a [ResolvedPattern],
        b: &'a mut Bindings,
        visitor: &'a mut V,
    ) -> Self {
        Join { g, order, nodes: b.nodes.as_mut_slice(), preds: b.preds.as_mut_slice(), visitor }
    }

    fn slot(&self, n: NodeRef) -> Slot {
        match n {
            NodeRef::Const(v) => Slot::Bound(v),
            NodeRef::Var(i) => match self.nodes[i as usize] {
                Some(v) => Slot::Bound(v),
                None => Slot::Free(i),
            },
        }
    }

    /// Joins `order[depth..]` under the current bindings, reporting every
    /// full embedding to the visitor; leaves the bindings as it found
    /// them. Returns `Stop` as soon as the visitor does.
    fn solve(&mut self, depth: usize) -> Control {
        if self.visitor.prune(self.nodes) {
            return Control::Continue;
        }
        let Some(&pat) = self.order.get(depth) else {
            return self.visitor.solution(self.nodes);
        };
        let g = self.g;
        let p: Option<LabelId> = match pat.p {
            PredRef::Const(l) => Some(l),
            PredRef::Var(i) => self.preds[i as usize],
        };
        // A vertex's edges in one direction, label-filtered when possible.
        let edges = |dir, v| match p {
            Some(l) => g.neighbors_with_label(dir, v, l),
            None => g.neighbors(dir, v),
        };
        match (self.slot(pat.s), self.slot(pat.o), p) {
            // Everything known: an existence probe, nothing to bind.
            (Slot::Bound(sv), Slot::Bound(ov), Some(l)) => {
                if g.has_edge(sv, l, ov) {
                    self.solve(depth + 1)
                } else {
                    Control::Continue
                }
            }
            // Subject known: scan its out-edges.
            (Slot::Bound(sv), _, _) => {
                for t in edges(Dir::Out, sv) {
                    if self.extend(depth, pat, sv, t.label, t.vertex) == Control::Stop {
                        return Control::Stop;
                    }
                }
                Control::Continue
            }
            // Object known: scan its in-edges.
            (Slot::Free(_), Slot::Bound(ov), _) => {
                for t in edges(Dir::In, ov) {
                    if self.extend(depth, pat, t.vertex, t.label, ov) == Control::Stop {
                        return Control::Stop;
                    }
                }
                Control::Continue
            }
            // Nothing known: full edge scan (ordered last by the planner;
            // first only when no constant or earlier pattern connects).
            (Slot::Free(_), Slot::Free(_), _) => {
                for sv in g.vertices() {
                    for t in edges(Dir::Out, sv) {
                        if self.extend(depth, pat, sv, t.label, t.vertex) == Control::Stop {
                            return Control::Stop;
                        }
                    }
                }
                Control::Continue
            }
        }
    }

    /// Unifies `pat` with the edge `(src, label, dst)`: checks what is
    /// bound, binds what is free, joins the rest of the order, and
    /// restores the bindings.
    fn extend(
        &mut self,
        depth: usize,
        pat: ResolvedPattern,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
    ) -> Control {
        let mut bound_s = None;
        match self.slot(pat.s) {
            Slot::Bound(v) if v != src => return Control::Continue,
            Slot::Bound(_) => {}
            Slot::Free(i) => {
                self.nodes[i as usize] = Some(src);
                bound_s = Some(i);
            }
        }
        // Resolved after the subject is bound: when both slots are the
        // *same* free variable (`?x <p> ?x`) the object is checked against
        // the value the subject just took.
        let mut bound_o = None;
        let mut matches = true;
        match self.slot(pat.o) {
            Slot::Bound(v) => matches = v == dst,
            Slot::Free(i) => {
                self.nodes[i as usize] = Some(dst);
                bound_o = Some(i);
            }
        }
        let mut bound_p = None;
        if matches {
            match pat.p {
                PredRef::Const(l) => matches = l == label,
                PredRef::Var(i) => match self.preds[i as usize] {
                    Some(l) => matches = l == label,
                    None => {
                        self.preds[i as usize] = Some(label);
                        bound_p = Some(i);
                    }
                },
            }
        }
        let flow = if matches { self.solve(depth + 1) } else { Control::Continue };
        if let Some(i) = bound_p {
            self.preds[i as usize] = None;
        }
        if let Some(i) = bound_o {
            self.nodes[i as usize] = None;
        }
        if let Some(i) = bound_s {
            self.nodes[i as usize] = None;
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Plan};
    use kgreach_graph::GraphBuilder;

    /// Figure 3's running example: v1 and v2 satisfy S0.
    ///
    /// Edges reconstructed from the paper's worked examples (see
    /// `kgreach::fixtures::figure3` for the derivation).
    fn figure3() -> Graph {
        let mut b = GraphBuilder::new();
        for (s, p, o) in [
            ("v0", "friendOf", "v1"),
            ("v0", "likes", "v2"),
            ("v0", "advisorOf", "v2"),
            ("v1", "friendOf", "v3"),
            ("v2", "friendOf", "v3"),
            ("v2", "follows", "v4"),
            ("v3", "likes", "v4"),
            ("v4", "hates", "v1"),
        ] {
            b.add_triple(s, p, o);
        }
        b.build().unwrap()
    }

    fn plan_of(g: &Graph, q: &str) -> Plan {
        Plan::compile(g, &parse(q).unwrap()).unwrap()
    }

    #[test]
    fn paper_s0_select_matches_figure3() {
        let g = figure3();
        // S0: SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }");
        let vs = select_distinct(&g, &plan);
        let names: Vec<&str> = vs.iter().map(|&v| g.vertex_name(v)).collect();
        assert_eq!(names, vec!["v1", "v2"]); // the paper's V(S0, G0)
    }

    #[test]
    fn paper_s0_satisfies() {
        let g = figure3();
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }");
        let v1 = g.vertex_id("v1").unwrap();
        let v2 = g.vertex_id("v2").unwrap();
        let v3 = g.vertex_id("v3").unwrap();
        let v4 = g.vertex_id("v4").unwrap();
        assert!(satisfies(&g, &plan, v1));
        assert!(satisfies(&g, &plan, v2));
        assert!(!satisfies(&g, &plan, v3));
        assert!(!satisfies(&g, &plan, v4));
    }

    #[test]
    fn v0_reaches_v3_by_friendship_but_does_not_satisfy_s0() {
        // v0's friendOf edges reach v3 only transitively (via v1), so v0
        // does *not* satisfy S0 even though M(v0,v3) = {{friendOf}}.
        let g = figure3();
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }");
        let v0 = g.vertex_id("v0").unwrap();
        assert!(!satisfies(&g, &plan, v0));
        assert!(!select_distinct(&g, &plan).contains(&v0));
    }

    #[test]
    fn count_embeddings_with_limit() {
        let g = figure3();
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x <friendOf> <v3> . }");
        assert_eq!(count_embeddings(&g, &plan, usize::MAX), 2);
        assert_eq!(count_embeddings(&g, &plan, 1), 1);
        assert_eq!(count_embeddings(&g, &plan, 0), 0);
    }

    #[test]
    fn unsatisfiable_plan_yields_nothing() {
        let g = figure3();
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x <friendOf> <nonexistent> . }");
        assert!(plan.unsatisfiable);
        assert!(select_distinct(&g, &plan).is_empty());
        assert!(!satisfies(&g, &plan, VertexId(0)));
        assert_eq!(count_embeddings(&g, &plan, usize::MAX), 0);
    }

    #[test]
    fn same_variable_subject_and_object() {
        // self-loop matching: ?x <p> ?x
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "a");
        b.add_triple("a", "p", "b");
        let g = b.build().unwrap();
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x <p> ?x . }");
        let vs = select_distinct(&g, &plan);
        assert_eq!(vs.len(), 1);
        assert_eq!(g.vertex_name(vs[0]), "a");
    }

    #[test]
    fn predicate_variable_joins() {
        // ?x ?p v3 and v3 ?p v4 — same predicate variable must unify.
        let mut b = GraphBuilder::new();
        b.add_triple("a", "likes", "m");
        b.add_triple("m", "likes", "z");
        b.add_triple("b", "hates", "m");
        b.add_triple("m", "adores", "z2");
        let g = b.build().unwrap();
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x ?p <m> . <m> ?p ?y . }");
        let vs = select_distinct(&g, &plan);
        let names: Vec<&str> = vs.iter().map(|&v| g.vertex_name(v)).collect();
        assert_eq!(names, vec!["a"]); // b's 'hates' has no m-outgoing match
    }

    #[test]
    fn multi_hop_star_pattern() {
        let g = figure3();
        // vertices with an out-edge to something that likes v4
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x ?p ?m . ?m <likes> <v4> . }");
        let vs = select_distinct(&g, &plan);
        let names: Vec<&str> = vs.iter().map(|&v| g.vertex_name(v)).collect();
        // v3 likes v4; who points at v3? v1 and v2 (friendOf).
        assert_eq!(names, vec!["v1", "v2"]);
    }

    #[test]
    fn disconnected_pattern_cartesian() {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.add_triple("c", "q", "d");
        let g = b.build().unwrap();
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x <p> ?y . ?z <q> ?w . }");
        let vs = select_distinct(&g, &plan);
        assert_eq!(vs.len(), 1);
        assert_eq!(g.vertex_name(vs[0]), "a");
        // and if the disconnected side is empty, nothing matches
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x <p> ?y . ?z <q> <a> . }");
        assert!(select_distinct(&g, &plan).is_empty());
    }

    #[test]
    fn bindings_accessors() {
        let g = figure3();
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x ?p <v3> . }");
        let mut b = Bindings::for_plan(&plan);
        assert_eq!(b.nodes.as_mut_slice(), [None]);
        assert_eq!(b.preds.as_mut_slice(), [None]);
    }

    #[test]
    fn dedup_prunes_duplicate_branches() {
        // One ?x with many ?y continuations: the dedup search must still
        // return exactly one ?x (correctness; perf is asserted elsewhere).
        let mut b = GraphBuilder::new();
        for i in 0..50 {
            b.add_triple("hub", "p", &format!("t{i}"));
        }
        let g = b.build().unwrap();
        let plan = plan_of(&g, "SELECT ?x WHERE { ?x <p> ?y . }");
        let vs = select_distinct(&g, &plan);
        assert_eq!(vs.len(), 1);
    }
}

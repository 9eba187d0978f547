//! The engine's constraint plans: validating and compiling queries, with
//! plans shared by constraint text across sessions and threads.
//!
//! The plans live in the engine state beside the graph they were compiled
//! for, so the one write that swaps in a graph (an update or a reload)
//! also swaps in its empty plans, and a state's plans are only ever plans
//! for its graph. They follow the local index's install rule: a plan is
//! compiled outside the lock for the pin its caller holds, and installed
//! only if that pin is still the state's graph; otherwise it serves its
//! caller uncached.

use super::LscrEngine;
use crate::constraint::{CompiledConstraint, SubstructureConstraint};
use crate::query::{CompiledLscrQuery, LscrQuery, QueryError};
use kgreach_graph::{Graph, LabelSet, VertexId};
use kgreach_sync::Arc;

/// Distinct constraint plans retained per graph. Once full, new
/// constraint texts compile per-query instead of being cached, bounding
/// engine memory under workloads with unbounded distinct constraints
/// (e.g. per-entity generated patterns).
const PLAN_CACHE_CAP: usize = 4096;

impl LscrEngine {
    /// Validates `query` and compiles its constraint through the served
    /// graph's plans: constraints with identical SPARQL text share one
    /// compiled plan across queries, sessions and threads. A hit is one
    /// probe keyed by the constraint's precomputed canonical text, and
    /// allocates nothing; at most 4096 plans are kept — beyond that, new
    /// texts compile per-query without being retained.
    ///
    /// The query is compiled for the graph current at the call; answer it
    /// on a graph pinned with [`graph`](Self::graph), as
    /// [`Session::answer_compiled`](crate::Session::answer_compiled)
    /// describes.
    pub fn compile(&self, query: &LscrQuery) -> Result<CompiledLscrQuery, QueryError> {
        Ok(self.compile_pinned(query)?.1)
    }

    /// [`compile`](Self::compile), returned with the graph it pinned to
    /// compile on, under one state read when the plan is cached.
    pub(crate) fn compile_pinned(
        &self,
        query: &LscrQuery,
    ) -> Result<(Arc<Graph>, CompiledLscrQuery), QueryError> {
        let c = &query.constraint;
        let ids = Ok::<_, QueryError>((query.source, query.target, query.label_constraint));
        let (graph, compiled, _) = self.pin_and_plan(c.sparql_text(), Some(c), |_| ids)?;
        Ok((graph, compiled))
    }

    /// [`compile`](Self::compile) for a constraint still in SPARQL text,
    /// as a server receives it. One state read pins the served graph and
    /// looks the text up, as sent, among its plans; `resolve` then maps
    /// the query's names to `(source, target, labels)` on the pin. Only a
    /// miss parses `sparql`, then looks up or compiles its plan under its
    /// canonical text ([`SubstructureConstraint::sparql_text`]). So a
    /// canonical text whose plan is cached costs one probe and no
    /// allocation, and any other spelling shares that plan after one
    /// parse.
    ///
    /// Returns the pin, the query compiled for it, and whether `sparql`
    /// was parsed; the caller answers on that pin. A `resolve` error is
    /// returned as is, before `sparql` is parsed.
    pub fn compile_text<E: From<QueryError>>(
        &self,
        sparql: &str,
        resolve: impl FnOnce(&Graph) -> Result<(VertexId, VertexId, LabelSet), E>,
    ) -> Result<(Arc<Graph>, CompiledLscrQuery, bool), E> {
        self.pin_and_plan(sparql, None, resolve)
    }

    /// The one compile path. `key` is probed in the same state read that
    /// pins the graph; `parsed` is its constraint when the caller already
    /// holds it, and then `key` is that constraint's canonical text.
    fn pin_and_plan<E: From<QueryError>>(
        &self,
        key: &str,
        parsed: Option<&SubstructureConstraint>,
        resolve: impl FnOnce(&Graph) -> Result<(VertexId, VertexId, LabelSet), E>,
    ) -> Result<(Arc<Graph>, CompiledLscrQuery, bool), E> {
        let (graph, hit) = {
            let st = self.read();
            (Arc::clone(&st.graph), st.plans.get(key).map(Arc::clone))
        };
        let (source, target, label_constraint) = resolve(&graph)?;
        graph.check_vertex(source).and(graph.check_vertex(target)).map_err(QueryError::from)?;
        let (constraint, was_parsed) = match hit {
            Some(plan) => (plan, false),
            None => self.plan_for(&graph, key, parsed)?,
        };
        Ok((graph, CompiledLscrQuery { source, target, label_constraint, constraint }, was_parsed))
    }

    /// The plan for constraint text `key` on `graph`, a pin, outside the
    /// pinning read: a held query's rebind, and a miss of
    /// [`pin_and_plan`](Self::pin_and_plan). `parsed` is `key`'s
    /// constraint when the caller holds it. Otherwise `key` is probed
    /// among `graph`'s plans, then parsed, and its canonical text probed
    /// if it differs. Then the plan is compiled, and installed under the
    /// canonical text if `graph` is still served, the text has no plan
    /// yet and the cap allows. The flag says whether `key` was parsed.
    pub(crate) fn plan_for(
        &self,
        graph: &Arc<Graph>,
        key: &str,
        parsed: Option<&SubstructureConstraint>,
    ) -> Result<(Arc<CompiledConstraint>, bool), QueryError> {
        let owned;
        let constraint = match parsed {
            Some(constraint) => constraint,
            None => {
                if let Some(hit) = self.cached_plan(graph, key) {
                    return Ok((hit, false));
                }
                owned = SubstructureConstraint::parse(key)?;
                if owned.sparql_text() != key {
                    if let Some(hit) = self.cached_plan(graph, owned.sparql_text()) {
                        return Ok((hit, true));
                    }
                }
                &owned
            }
        };
        let key = constraint.sparql_text();
        let compiled = Arc::new(constraint.compile(graph)?);
        let mut st = self.write();
        let plan = match st.plans.get(key) {
            // The pin was replaced: serve its caller uncached.
            _ if !Arc::ptr_eq(&st.graph, graph) => compiled,
            // A racing compiler won; keep its plan.
            Some(winner) => Arc::clone(winner),
            None if st.plans.len() < PLAN_CACHE_CAP => {
                st.plans.insert(key.to_owned(), Arc::clone(&compiled));
                compiled
            }
            None => compiled, // cache full: serve uncached
        };
        Ok((plan, parsed.is_none()))
    }

    /// The plan keyed `key` if `graph` is still the served graph.
    fn cached_plan(&self, graph: &Arc<Graph>, key: &str) -> Option<Arc<CompiledConstraint>> {
        let st = self.read();
        st.plans.get(key).filter(|_| Arc::ptr_eq(&st.graph, graph)).map(Arc::clone)
    }

    /// Number of distinct constraint plans the served graph holds.
    pub fn cached_plans(&self) -> usize {
        self.read().plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{all_labels_query, answer, figure3};
    use crate::query::QueryOptions;
    use crate::Algorithm;

    #[test]
    fn plans_share_compiled_constraints() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        assert_eq!(engine.cached_plans(), 0);
        let q1 = all_labels_query(&g, "v0", "v4");
        let q2 = all_labels_query(&g, "v3", "v4"); // same constraint text
        let c1 = engine.compile(&q1).unwrap();
        let c2 = engine.compile(&q2).unwrap();
        assert_eq!(engine.cached_plans(), 1);
        assert!(Arc::ptr_eq(&c1.constraint, &c2.constraint), "plans must be shared");
        // A different constraint gets its own cache slot.
        let q3 = LscrQuery::new(
            q1.source,
            q1.target,
            q1.label_constraint,
            SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> ?y . }").unwrap(),
        );
        engine.compile(&q3).unwrap();
        assert_eq!(engine.cached_plans(), 2);
    }

    #[test]
    fn plan_lookup_by_text_shares_plans_tracks_epochs_and_survives_a_full_cache() {
        let engine = LscrEngine::new(figure3());
        let q = all_labels_query(&engine.graph(), "v0", "v4");
        let compile_text = |source, text: &str| {
            let ids = (source, q.target, q.label_constraint);
            engine
                .compile_text(text, |_| Ok::<_, QueryError>(ids))
                .map(|(_, c, parsed)| (c, parsed))
        };
        let by_text = |text: &str| compile_text(q.source, text).unwrap();
        let canonical = q.constraint.sparql_text();
        let spelled = canonical.replace(' ', "\n\t");
        assert_ne!(spelled, canonical);

        // Cold, the canonical text is parsed once; warm, it is a hit that
        // shares `compile`'s plan. Another spelling is parsed every time
        // and shares the same plan.
        let (cold, parsed) = by_text(canonical);
        assert!(parsed, "a cold text is parsed");
        let (warm, parsed) = by_text(canonical);
        assert!(!parsed, "a cached canonical text is not parsed");
        let compiled = engine.compile(&q).unwrap();
        assert!(Arc::ptr_eq(&warm.constraint, &compiled.constraint));
        assert!(Arc::ptr_eq(&cold.constraint, &compiled.constraint));
        for _ in 0..2 {
            let (other, parsed) = by_text(&spelled);
            assert!(parsed, "a non-canonical spelling is parsed");
            assert!(Arc::ptr_eq(&other.constraint, &compiled.constraint));
        }
        assert_eq!(engine.cached_plans(), 1);
        assert!(compile_text(VertexId(99), canonical).is_err());
        assert!(matches!(compile_text(q.source, "SELECT nonsense"), Err(QueryError::Sparql(_))));
        // A resolve error is returned as is, before the text is parsed.
        let unresolved =
            engine.compile_text("SELECT nonsense", |_| Err(QueryError::IdSpaceMismatch));
        assert!(matches!(unresolved, Err(QueryError::IdSpaceMismatch)));

        // After an update the replaced graph's plan is never served: both
        // spellings compile at the new epoch and answer as `compile` does.
        let purged = Arc::clone(&compiled.constraint);
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("v2", "follows", "v4");
        engine.apply_update(&batch).unwrap();
        assert_eq!(engine.cached_plans(), 0, "the swap discards the plans");
        let mut session = engine.session();
        for text in [canonical, &spelled, canonical] {
            let (fresh, _) = by_text(text);
            assert_eq!(fresh.constraint.graph_epoch(), engine.graph_epoch());
            assert!(!Arc::ptr_eq(&fresh.constraint, &purged), "served the purged plan");
            let opts = QueryOptions::default();
            let out =
                session.answer_compiled(&engine.graph(), &fresh, Algorithm::Auto, &opts).unwrap();
            assert_eq!(out.answer, answer(&engine, &q, Algorithm::Oracle).unwrap().answer);
        }
        assert!(!by_text(canonical).1, "the recompiled plan is cached again");

        // A full cache still answers a new text, uncached.
        for i in engine.cached_plans()..PLAN_CACHE_CAP {
            by_text(&format!("SELECT ?x WHERE {{ ?x <likes> <c{i}> . }}"));
        }
        assert_eq!(engine.cached_plans(), PLAN_CACHE_CAP);
        let text = "SELECT ?x WHERE { ?x <follows> ?y . }";
        let (first, parsed) = by_text(text);
        assert!(parsed);
        let (second, parsed) = by_text(text);
        assert!(parsed, "an uncached text is parsed every time");
        assert!(!Arc::ptr_eq(&first.constraint, &second.constraint));
        assert_eq!(engine.cached_plans(), PLAN_CACHE_CAP);
        let uncached = LscrQuery::new(
            q.source,
            q.target,
            q.label_constraint,
            SubstructureConstraint::parse(text).unwrap(),
        );
        let out = session.answer_compiled(
            &engine.graph(),
            &first,
            Algorithm::Auto,
            &QueryOptions::default(),
        );
        assert_eq!(
            out.unwrap().answer,
            answer(&engine, &uncached, Algorithm::Oracle).unwrap().answer
        );
    }

    #[test]
    fn a_plan_for_an_older_pin_never_displaces_the_current_one() {
        let engine = LscrEngine::new(figure3());
        let old = engine.graph();
        let q = all_labels_query(&old, "v0", "v4");
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("v2", "follows", "v4");
        engine.apply_update(&batch).unwrap();
        let current = engine.compile(&q).unwrap();
        assert_eq!(current.constraint.graph_epoch(), 1);

        // Compiled for the older pin, the plan serves its query and is
        // not cached: the current graph's plan keeps the slot.
        let text = current.constraint.sparql_text();
        let pinned = CompiledLscrQuery {
            constraint: engine.plan_for(&old, text, None).unwrap().0,
            ..current
        };
        assert_eq!(pinned.constraint.graph_epoch(), 0);
        assert!(Arc::ptr_eq(&engine.compile(&q).unwrap().constraint, &current.constraint));
        assert_eq!(engine.cached_plans(), 1);
        let opts = QueryOptions::default();
        let mut session = engine.session();
        for (g, plan) in [(&old, &pinned), (&engine.graph(), &current)] {
            let out = session.answer_compiled(g, plan, Algorithm::Uis, &opts).unwrap();
            assert_eq!(out.answer, crate::oracle::answer(g, plan).answer);
        }
    }
}

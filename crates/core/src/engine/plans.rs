//! The engine's constraint-plan cache: validating and compiling queries,
//! with plans shared by constraint text across sessions and threads.

use super::LscrEngine;
use crate::constraint::{CompiledConstraint, SubstructureConstraint};
use crate::query::{CompiledLscrQuery, LscrQuery, QueryError};
use kgreach_graph::{Graph, LabelSet, VertexId};
use kgreach_sync::Arc;

/// Distinct constraint plans retained in the plan cache. Once full, new
/// constraint texts compile per-query instead of being cached, bounding
/// engine memory under workloads with unbounded distinct constraints
/// (e.g. per-entity generated patterns).
const PLAN_CACHE_CAP: usize = 4096;

impl LscrEngine {
    /// Validates `query` and compiles its constraint through the plan
    /// cache: constraints with identical SPARQL text share one compiled
    /// plan across queries, sessions and threads. A hit is one probe keyed
    /// by the constraint's precomputed canonical text, and allocates
    /// nothing; the cache holds at most 4096 plans — beyond that,
    /// new texts compile per-query without being retained.
    ///
    /// The query is compiled for the graph current at the call; answer it
    /// on a graph pinned with [`graph`](Self::graph), as
    /// [`Session::answer_compiled`](crate::Session::answer_compiled)
    /// describes.
    pub fn compile(&self, query: &LscrQuery) -> Result<CompiledLscrQuery, QueryError> {
        self.compile_on(&self.graph(), query)
    }

    /// [`compile`](Self::compile) for `graph`, a graph the caller pinned.
    pub(crate) fn compile_on(
        &self,
        graph: &Graph,
        query: &LscrQuery,
    ) -> Result<CompiledLscrQuery, QueryError> {
        graph.check_vertex(query.source)?;
        graph.check_vertex(query.target)?;
        let constraint = &query.constraint;
        let (plan, _) = self.plan(graph, constraint.sparql_text(), Some(constraint))?;
        Ok(query.with_constraint(plan))
    }

    /// [`compile`](Self::compile) for a constraint still in SPARQL text,
    /// as a server receives it. The text is looked up in the plan cache as
    /// sent, and only a miss parses it, then looks up or compiles its plan
    /// under its canonical text ([`SubstructureConstraint::sparql_text`]).
    /// So a canonical text whose plan is cached costs one probe and no
    /// allocation, and any other spelling shares that plan after one
    /// parse. Returns the compiled query and whether `sparql` was parsed.
    ///
    /// `graph` is the graph the caller pinned with [`graph`](Self::graph)
    /// and resolved `source`, `target` and `label_constraint` against; the
    /// plan is bound to it, and the caller answers on the same pin.
    pub fn compile_text(
        &self,
        graph: &Graph,
        source: VertexId,
        target: VertexId,
        label_constraint: LabelSet,
        sparql: &str,
    ) -> Result<(CompiledLscrQuery, bool), QueryError> {
        graph.check_vertex(source)?;
        graph.check_vertex(target)?;
        let (constraint, parsed) = self.plan(graph, sparql, None)?;
        Ok((CompiledLscrQuery { source, target, label_constraint, constraint }, parsed))
    }

    /// The one plan-cache path. `key` is probed first; `parsed` is its
    /// constraint when the caller already holds it, and then `key` is that
    /// constraint's canonical text. On a miss an unparsed `key` is parsed,
    /// its canonical text probed if it differs, and the plan compiled and
    /// inserted under the canonical text, unless the cache holds a plan
    /// for a newer graph under it: the engine's epoch only grows, across
    /// updates and reloads, so a caller on an older pin is served its plan
    /// without displacing the current graph's. The flag says whether `key`
    /// was parsed.
    fn plan(
        &self,
        graph: &Graph,
        key: &str,
        parsed: Option<&SubstructureConstraint>,
    ) -> Result<(Arc<CompiledConstraint>, bool), QueryError> {
        if let Some(hit) = self.cached_plan(graph, key) {
            return Ok((hit, false));
        }
        let owned;
        let constraint = match parsed {
            Some(constraint) => constraint,
            None => {
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
        let mut cache = self.plan_cache.write().expect("plan cache lock");
        let shared = match cache.get(key) {
            // A racing compiler won; keep its plan.
            Some(winner) if winner.is_bound_to(graph) => Arc::clone(winner),
            Some(newer) if newer.graph_epoch() > compiled.graph_epoch() => compiled,
            Some(_) => {
                cache.insert(key.to_owned(), Arc::clone(&compiled));
                compiled
            }
            None if cache.len() < PLAN_CACHE_CAP => {
                cache.insert(key.to_owned(), Arc::clone(&compiled));
                compiled
            }
            None => compiled, // cache full: serve uncached
        };
        drop(cache);
        Ok((shared, parsed.is_none()))
    }

    /// The cached plan keyed `key`, if it is bound to `graph`'s lineage
    /// and epoch. Entries compiled before an update or a reload are purged
    /// with it, but a probe can race the purge, and a caller may pin an
    /// older graph — hence the guard on the binding.
    fn cached_plan(&self, graph: &Graph, key: &str) -> Option<Arc<CompiledConstraint>> {
        let cache = self.plan_cache.read().expect("plan cache lock");
        cache.get(key).filter(|plan| plan.is_bound_to(graph)).map(Arc::clone)
    }

    /// Number of distinct constraint plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.read().expect("plan cache lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{all_labels_query, answer, figure3};
    use crate::query::QueryOptions;
    use crate::Algorithm;

    #[test]
    fn plan_cache_shares_compiled_constraints() {
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
        let by_text = |text: &str| {
            engine
                .compile_text(&engine.graph(), q.source, q.target, q.label_constraint, text)
                .unwrap()
        };
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
        assert!(engine
            .compile_text(&engine.graph(), VertexId(99), q.target, q.label_constraint, canonical)
            .is_err());
        assert!(matches!(
            engine.compile_text(
                &engine.graph(),
                q.source,
                q.target,
                q.label_constraint,
                "SELECT nonsense"
            ),
            Err(QueryError::Sparql(_))
        ));

        // After an update the purged plan is never served, not even when a
        // probe races the purge and still finds it: both spellings compile
        // at the new epoch and answer as `compile` does.
        let purged = Arc::clone(&compiled.constraint);
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("v2", "follows", "v4");
        engine.apply_update(&batch).unwrap();
        let stale = canonical.to_owned();
        engine.plan_cache.write().unwrap().insert(stale, Arc::clone(&purged));
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
        let text = q.constraint.sparql_text();
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("v2", "follows", "v4");
        engine.apply_update(&batch).unwrap();
        let current = engine.compile(&q).unwrap();
        assert_eq!(current.constraint.graph_epoch(), 1);

        // Compiled for the older pin, the plan serves its query and is
        // not cached: the current graph's plan keeps the slot.
        let (pinned, _) =
            engine.compile_text(&old, q.source, q.target, q.label_constraint, text).unwrap();
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

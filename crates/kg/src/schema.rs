//! The RDFS schema layer `LS` of a knowledge graph.
//!
//! The paper's KG definition is a quadruple `G = (V, E, 𝓛, LS)` where `LS`
//! holds the RDFS triples. The schema matters operationally in two places:
//!
//! 1. **Landmark selection** (Algorithm 3, line 1): INS picks landmarks by
//!    first sampling *classes* from `LS` and then marking instances of those
//!    classes — rather than simply taking the highest-degree vertices, which
//!    in a KG are class/vocabulary hubs whose incident edges carry only RDF
//!    vocabulary labels (paper §5.1.2).
//! 2. **Random substructure-constraint generation** (§6.2): constraints are
//!    seeded from an instance vertex and its schema neighborhood.
//!
//! `Schema` records which label ids correspond to the RDFS vocabulary, which
//! vertices are classes, and the instance list of every class.
//!
//! ```
//! use kgreach_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! b.add_triple("alice", "rdf:type", "Person");
//! let g = b.build().unwrap();
//! let person = g.vertex_id("Person").unwrap();
//! assert!(g.schema().is_class(person));
//! assert_eq!(g.schema().instances_of(person).len(), 1);
//! ```

use crate::fxhash::FxHashMap;
use crate::ids::{LabelId, VertexId};
use crate::labelset::LabelSet;
use crate::triples::vocab;
use std::sync::Arc;

/// The RDFS schema view over an edge-labeled graph.
///
/// Instance lists live behind per-class `Arc`s, so cloning a schema costs
/// O(#classes) — not O(#instance assertions) — and a dynamic update only
/// copies the lists of the classes it actually touches (copy-on-write via
/// [`Arc::make_mut`]). This keeps the engine's pre-swap graph clone
/// O(delta) on typed graphs.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    /// Label id of `rdf:type`, if the graph has typed vertices.
    pub type_label: Option<LabelId>,
    /// Label id of `rdfs:subClassOf`, if present.
    pub subclass_label: Option<LabelId>,
    /// Label id of `rdfs:domain`, if present.
    pub domain_label: Option<LabelId>,
    /// Label id of `rdfs:range`, if present.
    pub range_label: Option<LabelId>,
    classes: Vec<VertexId>,
    class_pos: FxHashMap<VertexId, usize>,
    instances: Vec<Arc<Vec<VertexId>>>,
}

impl Schema {
    /// The set of RDFS vocabulary labels present in the graph, as a
    /// [`LabelSet`]. Landmark selection avoids relying on these labels.
    pub fn vocabulary_labels(&self) -> LabelSet {
        [self.type_label, self.subclass_label, self.domain_label, self.range_label]
            .into_iter()
            .flatten()
            .collect()
    }

    /// Wires `label`, interned as `name`, into the RDFS vocabulary slot
    /// `name` spells (either form, see [`vocab`]), unless an
    /// earlier-interned spelling holds it: the first spelling wins, in a
    /// graph built at once as in one grown by updates.
    pub(crate) fn note_label(&mut self, label: LabelId, name: &str) {
        let slot = if vocab::is_type(name) {
            &mut self.type_label
        } else if vocab::is_subclass_of(name) {
            &mut self.subclass_label
        } else if vocab::is_domain(name) {
            &mut self.domain_label
        } else if vocab::is_range(name) {
            &mut self.range_label
        } else {
            return;
        };
        slot.get_or_insert(label);
    }

    /// Registers `class` as a class vertex (idempotent).
    pub(crate) fn add_class(&mut self, class: VertexId) {
        if !self.class_pos.contains_key(&class) {
            self.class_pos.insert(class, self.classes.len());
            self.classes.push(class);
            self.instances.push(Arc::default());
        }
    }

    /// Registers `instance rdf:type class`.
    pub(crate) fn add_instance(&mut self, class: VertexId, instance: VertexId) {
        self.add_class(class);
        let pos = self.class_pos[&class];
        Arc::make_mut(&mut self.instances[pos]).push(instance);
    }

    /// Unregisters `instance rdf:type class` (dynamic-update path). The
    /// class itself stays known — class registration is monotone — but
    /// its instance list shrinks. No-op if the pair was never recorded.
    pub(crate) fn remove_instance(&mut self, class: VertexId, instance: VertexId) {
        if let Some(&pos) = self.class_pos.get(&class) {
            if let Some(i) = self.instances[pos].iter().position(|&v| v == instance) {
                Arc::make_mut(&mut self.instances[pos]).remove(i);
            }
        }
    }

    /// All class vertices, in first-seen order.
    pub fn classes(&self) -> &[VertexId] {
        &self.classes
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Whether `v` is a class vertex.
    pub fn is_class(&self, v: VertexId) -> bool {
        self.class_pos.contains_key(&v)
    }

    /// The instances of `class` (empty if `class` is unknown).
    pub fn instances_of(&self, class: VertexId) -> &[VertexId] {
        match self.class_pos.get(&class) {
            Some(&pos) => &self.instances[pos],
            None => &[],
        }
    }

    /// Total number of `rdf:type` assertions recorded.
    pub fn num_instance_assertions(&self) -> usize {
        self.instances.iter().map(|v| v.len()).sum()
    }

    /// Iterates `(class, instances)` pairs.
    pub fn iter_classes(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> {
        self.classes.iter().zip(self.instances.iter()).map(|(&c, i)| (c, i.as_slice()))
    }

    /// Approximate heap footprint in bytes. `Arc`-shared instance lists
    /// are counted in full — the figure models a standalone graph, not
    /// marginal cost over clones.
    pub fn heap_bytes(&self) -> usize {
        let inst: usize =
            self.instances.iter().map(|v| v.capacity() * std::mem::size_of::<VertexId>()).sum();
        inst + self.classes.capacity() * std::mem::size_of::<VertexId>()
            + self.class_pos.capacity()
                * (std::mem::size_of::<VertexId>() + std::mem::size_of::<usize>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_instances() {
        let mut s = Schema::default();
        s.add_instance(VertexId(10), VertexId(1));
        s.add_instance(VertexId(10), VertexId(2));
        s.add_instance(VertexId(20), VertexId(3));
        assert_eq!(s.num_classes(), 2);
        assert!(s.is_class(VertexId(10)));
        assert!(!s.is_class(VertexId(1)));
        assert_eq!(s.instances_of(VertexId(10)), &[VertexId(1), VertexId(2)]);
        assert_eq!(s.instances_of(VertexId(99)), &[] as &[VertexId]);
        assert_eq!(s.num_instance_assertions(), 3);
    }

    #[test]
    fn add_class_is_idempotent() {
        let mut s = Schema::default();
        s.add_class(VertexId(5));
        s.add_class(VertexId(5));
        assert_eq!(s.num_classes(), 1);
    }

    #[test]
    fn vocabulary_labels_collects_present_ids() {
        let mut s = Schema::default();
        assert!(s.vocabulary_labels().is_empty());
        s.type_label = Some(LabelId(0));
        s.subclass_label = Some(LabelId(3));
        let v = s.vocabulary_labels();
        assert!(v.contains(LabelId(0)));
        assert!(v.contains(LabelId(3)));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn iter_classes_pairs_up() {
        let mut s = Schema::default();
        s.add_instance(VertexId(7), VertexId(1));
        let pairs: Vec<_> = s.iter_classes().collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, VertexId(7));
        assert_eq!(pairs[0].1, &[VertexId(1)]);
    }
}

//! A LUBM-style synthetic university-domain KG generator.
//!
//! Mirrors the Lehigh University Benchmark ontology \[4\] that the paper's
//! §6.1 experiments run on: universities contain departments; departments
//! employ full/associate/assistant professors who teach courses, hold
//! degrees and research interests; undergraduate and graduate students
//! take courses; graduate students have advisors; publications have
//! authors. The predicate vocabulary is exactly the one used by the
//! paper's substructure constraints S1–S5 (Table 3).
//!
//! Entity counts per department are tuned so the S1–S5 selectivities match
//! the paper's ratios:
//!
//! * `|V(S1,D)| / |V| ≈ 1‰` — faculty are ~18% of vertices and research
//!   interests are uniform over `NUM_RESEARCH_INTERESTS` topics;
//! * `|V(S2,D)| / |V(S1,D)| ≈ 50%` — associate professors are half the
//!   faculty;
//! * `|V(S3,D)| / |V(S1,D)| ≈ 120` — 48 undergraduates per department all
//!   take courses;
//! * `|V(S4,D)| / |V(S1,D)| ≈ 1` — graduate-student names cycle over 24
//!   values, so ≈ 0.42 *GraduateStudent4*s per department ≈ the S1 rate;
//! * `|V(S5,D)| = 1` — exactly one
//!   `FullProfessor0@Department0.University0.edu`.
//!
//! The generated graph's density is `|E|/|V| ≈ 3.5`, matching the paper's
//! datasets (Table 2: 3.54–3.59).

use kgreach_graph::{Graph, GraphBuilder, Result, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of distinct research-interest topics (`Research0..59`).
pub(crate) const NUM_RESEARCH_INTERESTS: usize = 60;
/// Graduate-student names cycle over this many values.
pub(crate) const NUM_GRAD_NAMES: usize = 24;

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct LubmConfig {
    /// Number of universities.
    pub universities: usize,
    /// Departments per university.
    pub departments: usize,
    /// RNG seed (generation is deterministic given the seed).
    pub seed: u64,
}

impl Default for LubmConfig {
    fn default() -> Self {
        LubmConfig { universities: 2, departments: 6, seed: 0xacade31a }
    }
}

impl LubmConfig {
    /// A config sized to roughly `target_vertices` (≈ 129 vertices per
    /// department, 6 departments per university).
    pub fn sized(target_vertices: usize, seed: u64) -> Self {
        let departments = 6usize;
        let per_univ = 129 * departments;
        let universities = (target_vertices / per_univ).max(1);
        LubmConfig { universities, departments, seed }
    }

    /// A config sized to *at least* `target_edges` deduplicated edges.
    /// Each department emits ~500 edges before deduplication; the divisor
    /// here is deliberately conservative (440) so the target is a floor,
    /// not an estimate — the scale tier's "≥ 5M edges" contract depends
    /// on that.
    pub fn sized_edges(target_edges: usize, seed: u64) -> Self {
        let departments = 6usize;
        let per_univ = 440 * departments;
        let universities = target_edges.div_ceil(per_univ).max(1);
        LubmConfig { universities, departments, seed }
    }
}

/// Generates a LUBM-style KG: the [`emit`] stream into a
/// [`GraphBuilder`] sized for it.
pub fn generate(config: &LubmConfig) -> Result<Graph> {
    // ~129 vertices and ~460 edges per department.
    let depts = config.universities * config.departments;
    let mut b = GraphBuilder::with_capacity(depts * 140, depts * 480);
    emit(config, &mut b);
    b.build()
}

/// [`generate`] with an explicit builder chunk size instead of capacity
/// hints — the same graph, byte for byte, for any `chunk_edges`.
/// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
pub fn generate_streaming(config: &LubmConfig, chunk_edges: usize) -> Result<Graph> {
    let mut b = GraphBuilder::with_chunk_edges(chunk_edges);
    emit(config, &mut b);
    b.build()
}

/// Emits the LUBM-style event stream for `config` into a
/// [`GraphBuilder`], one department at a time. Event order (and the
/// single RNG's consumption sequence) is part of the generator's
/// determinism contract: equal configs produce identical streams, and so
/// — intern order being id order — identical ids.
pub fn emit(config: &LubmConfig, b: &mut GraphBuilder) {
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // Shared literal vertices for research interests.
    let interests: Vec<VertexId> =
        (0..NUM_RESEARCH_INTERESTS).map(|i| b.intern_vertex(&format!("Research{i}"))).collect();

    // Predicates (interned once).
    let p_type = b.intern_label("rdf:type");
    let p_subclass = b.intern_label("rdfs:subClassOf");
    let p_suborg = b.intern_label("ub:subOrganizationOf");
    let p_worksfor = b.intern_label("ub:worksFor");
    let p_memberof = b.intern_label("ub:memberOf");
    let p_advisor = b.intern_label("ub:advisor");
    let p_takes = b.intern_label("ub:takesCourse");
    let p_teaches = b.intern_label("ub:teacherOf");
    let p_interest = b.intern_label("ub:researchInterest");
    let p_name = b.intern_label("ub:name");
    let p_email = b.intern_label("ub:emailAddress");
    let p_ugdegree = b.intern_label("ub:undergraduateDegreeFrom");
    let p_msdegree = b.intern_label("ub:mastersDegreeFrom");
    let p_phddegree = b.intern_label("ub:doctoralDegreeFrom");
    let p_author = b.intern_label("ub:publicationAuthor");
    let p_headof = b.intern_label("ub:headOf");
    let p_ta = b.intern_label("ub:teachingAssistantOf");
    // Inverse containment edges, as RDF stores commonly materialize them.
    // They give the graph the deep reachability the paper's §6.1.1 query
    // protocol relies on (targets beyond a log|V|-expansion BFS ball).
    let p_hasmember = b.intern_label("ub:hasMember");
    let p_hasdept = b.intern_label("ub:hasDepartment");

    // Class vertices and hierarchy.
    let c_university = b.intern_vertex("ub:University");
    let c_department = b.intern_vertex("ub:Department");
    let c_professor = b.intern_vertex("ub:Professor");
    let c_fullprof = b.intern_vertex("ub:FullProfessor");
    let c_assocprof = b.intern_vertex("ub:AssociateProfessor");
    let c_asstprof = b.intern_vertex("ub:AssistantProfessor");
    let c_ugstudent = b.intern_vertex("ub:UndergraduateStudent");
    let c_gradstudent = b.intern_vertex("ub:GraduateStudent");
    let c_course = b.intern_vertex("ub:Course");
    let c_publication = b.intern_vertex("ub:Publication");
    let c_rgroup = b.intern_vertex("ub:ResearchGroup");
    let c_person = b.intern_vertex("ub:Person");
    let c_student = b.intern_vertex("ub:Student");
    for (sub, sup) in [
        (c_fullprof, c_professor),
        (c_assocprof, c_professor),
        (c_asstprof, c_professor),
        (c_professor, c_person),
        (c_ugstudent, c_student),
        (c_gradstudent, c_student),
        (c_student, c_person),
    ] {
        b.add_edge(sub, p_subclass, sup);
    }

    let mut grad_counter = 0usize;
    let mut faculty_counter = 0usize;
    let universities: Vec<VertexId> = (0..config.universities)
        .map(|u| {
            let univ = b.intern_vertex(&format!("University{u}"));
            b.add_edge(univ, p_type, c_university);
            univ
        })
        .collect();

    for (u, &univ) in universities.iter().enumerate() {
        for d in 0..config.departments {
            let dept = b.intern_vertex(&format!("Department{d}.University{u}"));
            b.add_edge(dept, p_type, c_department);
            b.add_edge(dept, p_suborg, univ);
            b.add_edge(univ, p_hasdept, dept);

            let rgroup = b.intern_vertex(&format!("ResearchGroup0.Department{d}.University{u}"));
            b.add_edge(rgroup, p_type, c_rgroup);
            b.add_edge(rgroup, p_suborg, dept);

            // Courses first so faculty/students can reference them.
            let courses: Vec<VertexId> = (0..16)
                .map(|c| {
                    let course = b.intern_vertex(&format!("Course{c}.Department{d}.University{u}"));
                    b.add_edge(course, p_type, c_course);
                    course
                })
                .collect();

            // Faculty: 6 full, 12 associate, 6 assistant.
            let mut faculty = Vec::with_capacity(24);
            for (class, kind, count) in [
                (c_fullprof, "FullProfessor", 6usize),
                (c_assocprof, "AssociateProfessor", 12),
                (c_asstprof, "AssistantProfessor", 6),
            ] {
                for i in 0..count {
                    let prof = b.intern_vertex(&format!("{kind}{i}.Department{d}.University{u}"));
                    b.add_edge(prof, p_type, class);
                    b.add_edge(prof, p_worksfor, dept);
                    b.add_edge(dept, p_hasmember, prof);
                    // Round-robin interests keep the S1/S2 selectivities at
                    // their tuned values deterministically.
                    let topic = interests[faculty_counter % NUM_RESEARCH_INTERESTS];
                    faculty_counter += 1;
                    b.add_edge(prof, p_interest, topic);
                    let course = courses[rng.gen_range(0..courses.len())];
                    b.add_edge(prof, p_teaches, course);
                    // Degrees from random universities (possibly this one).
                    for degree in [p_ugdegree, p_msdegree, p_phddegree] {
                        let from = universities[rng.gen_range(0..universities.len())];
                        b.add_edge(prof, degree, from);
                    }
                    if kind == "FullProfessor" {
                        let email =
                            b.intern_vertex(&format!("{kind}{i}@Department{d}.University{u}.edu"));
                        b.add_edge(prof, p_email, email);
                    }
                    faculty.push(prof);
                }
            }
            // Department head.
            b.add_edge(faculty[0], p_headof, dept);

            // Undergraduates: 48, each takes a course.
            for i in 0..48 {
                let s = b
                    .intern_vertex(&format!("UndergraduateStudent{i}.Department{d}.University{u}"));
                b.add_edge(s, p_type, c_ugstudent);
                b.add_edge(s, p_memberof, dept);
                b.add_edge(dept, p_hasmember, s);
                let course = courses[rng.gen_range(0..courses.len())];
                b.add_edge(s, p_takes, course);
            }

            // Graduates: 10, named over a cycling window, with advisors.
            for i in 0..10 {
                let s =
                    b.intern_vertex(&format!("GraduateStudentV{i}.Department{d}.University{u}"));
                b.add_edge(s, p_type, c_gradstudent);
                b.add_edge(s, p_memberof, dept);
                b.add_edge(dept, p_hasmember, s);
                let name =
                    b.intern_vertex(&format!("GraduateStudent{}", grad_counter % NUM_GRAD_NAMES));
                grad_counter += 1;
                b.add_edge(s, p_name, name);
                let advisor = faculty[rng.gen_range(0..faculty.len())];
                b.add_edge(s, p_advisor, advisor);
                let course = courses[rng.gen_range(0..courses.len())];
                b.add_edge(s, p_takes, course);
                let ta_course = courses[rng.gen_range(0..courses.len())];
                b.add_edge(s, p_ta, ta_course);
            }

            // Publications: 12, each authored by two department members.
            for i in 0..12 {
                let p = b.intern_vertex(&format!("Publication{i}.Department{d}.University{u}"));
                b.add_edge(p, p_type, c_publication);
                for _ in 0..2 {
                    let author = faculty[rng.gen_range(0..faculty.len())];
                    b.add_edge(p, p_author, author);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgreach_graph::GraphStats;

    fn small() -> Graph {
        generate(&LubmConfig { universities: 2, departments: 4, seed: 7 }).unwrap()
    }

    #[test]
    fn density_matches_paper() {
        let g = small();
        let d = g.density();
        assert!((3.0..4.2).contains(&d), "density {d}");
    }

    #[test]
    fn vocabulary_is_s1_to_s5_complete() {
        let g = small();
        for p in [
            "rdf:type",
            "ub:researchInterest",
            "ub:takesCourse",
            "ub:advisor",
            "ub:memberOf",
            "ub:teacherOf",
            "ub:worksFor",
            "ub:subOrganizationOf",
            "ub:name",
            "ub:emailAddress",
            "ub:undergraduateDegreeFrom",
            "ub:mastersDegreeFrom",
            "ub:doctoralDegreeFrom",
        ] {
            assert!(g.label_id(p).is_some(), "missing predicate {p}");
        }
        for c in ["ub:AssociateProfessor", "ub:UndergraduateStudent", "ub:Course"] {
            assert!(g.vertex_id(c).is_some(), "missing class {c}");
        }
        assert!(g.vertex_id("Research12").is_some());
        assert!(g.vertex_id("GraduateStudent4").is_some());
        assert!(g.vertex_id("FullProfessor0@Department0.University0.edu").is_some());
    }

    #[test]
    fn schema_layer_populated() {
        let g = small();
        let schema = g.schema();
        assert!(schema.type_label.is_some());
        assert!(schema.subclass_label.is_some());
        assert!(schema.num_classes() >= 10);
        let assoc = g.vertex_id("ub:AssociateProfessor").unwrap();
        // 12 associates per department × 8 departments.
        assert_eq!(schema.instances_of(assoc).len(), 96);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        let c = generate(&LubmConfig { universities: 2, departments: 4, seed: 8 }).unwrap();
        // Different seed: same shape, different wiring.
        assert_eq!(a.num_vertices(), c.num_vertices());
    }

    #[test]
    fn sized_config_hits_target() {
        let cfg = LubmConfig::sized(5_000, 1);
        let g = generate(&cfg).unwrap();
        let n = g.num_vertices() as f64;
        assert!((2_500.0..9_000.0).contains(&n), "sized {n}");
    }

    #[test]
    fn sized_edges_is_a_floor() {
        let cfg = LubmConfig::sized_edges(50_000, 1);
        let g = generate(&cfg).unwrap();
        let e = g.num_edges();
        assert!(e >= 50_000, "sized_edges produced only {e} edges");
        assert!(e <= 150_000, "sized_edges overshot to {e} edges");
    }

    #[test]
    fn streaming_build_is_identical() {
        let cfg = LubmConfig { universities: 2, departments: 3, seed: 11 };
        let a = generate(&cfg).unwrap();
        // Tiny chunk to force many intermediate compactions.
        let b = generate_streaming(&cfg, 64).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.num_vertices(), b.num_vertices());
        // Same ids, not just the same names: intern order is shared.
        for v in a.vertices() {
            assert_eq!(a.vertex_name(v), b.vertex_name(v));
        }
    }

    #[test]
    fn scale_free_ish() {
        let g = small();
        let stats = GraphStats::compute(&g);
        // Class and department hubs dominate the average degree.
        assert!(stats.hub_dominance() > 10.0, "{}", stats.hub_dominance());
        assert_eq!(stats.isolated_vertices, 0);
    }

    #[test]
    fn label_count_fits_bitset() {
        let g = small();
        assert!(g.num_labels() <= 64);
        assert!(g.num_labels() >= 15);
    }

    #[test]
    fn exactly_one_s5_professor() {
        let g = small();
        let email = g.vertex_id("FullProfessor0@Department0.University0.edu").unwrap();
        assert_eq!(g.in_degree(email), 1);
    }
}

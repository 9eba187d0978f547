//! LSCR queries on a generated LUBM-style university KG, showcasing the
//! paper's S1–S5 substructure constraints and the INS local index.
//!
//! Run with: `cargo run -p kgreach-examples --release --bin academic_advisor`

use kgreach::{Algorithm, LscrEngine, LscrQuery, QueryOptions};
use kgreach_datagen::constraints::all_lubm_constraints;
use kgreach_datagen::lubm::{generate, LubmConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub(crate) fn main() {
    let engine = LscrEngine::new(
        generate(&LubmConfig { universities: 3, departments: 6, seed: 2024 }).unwrap(),
    );
    let g = engine.graph();
    println!(
        "LUBM-style KG: {} vertices, {} edges, {} predicates, {} classes",
        g.num_vertices(),
        g.num_edges(),
        g.num_labels(),
        g.schema().num_classes()
    );

    // Force the shared index build up front so its cost is visible.
    let stats = engine.local_index().stats().clone();
    println!(
        "local index: {} landmarks, {} II pairs, {} EIT pairs, {:.2} KiB, built in {:?}\n",
        stats.num_landmarks,
        stats.ii_pairs,
        stats.eit_pairs,
        stats.bytes as f64 / 1024.0,
        stats.elapsed
    );

    let mut rng = SmallRng::seed_from_u64(7);
    let labels = g.label_set(&[
        "ub:advisor",
        "ub:takesCourse",
        "ub:memberOf",
        "ub:hasMember",
        "ub:worksFor",
        "ub:teacherOf",
        "ub:subOrganizationOf",
        "ub:hasDepartment",
    ]);

    for (name, constraint) in all_lubm_constraints() {
        let compiled = constraint.compile(&g).unwrap();
        let vsg = compiled.satisfying_vertices(&g).len();
        // A random student and a random university as endpoints.
        let s = g
            .vertex_id(&format!(
                "UndergraduateStudent{}.Department0.University0",
                rng.gen_range(0..48)
            ))
            .unwrap();
        let t = g.vertex_id("University2").unwrap();
        let q = engine.compile(&LscrQuery::new(s, t, labels, constraint)).unwrap();
        print!("{name} (|V(S,G)| = {vsg:>3}): ");
        let mut agreed = None;
        let mut session = engine.session();
        for alg in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            let out = session.answer_compiled(&g, &q, alg, &QueryOptions::default()).unwrap();
            match alg {
                Algorithm::Auto => print!(
                    "Auto→{}={} ({:?})  ",
                    out.stats.algorithm.expect("recorded").name(),
                    out.answer,
                    out.elapsed
                ),
                _ => print!("{}={} ({:?})  ", alg.name(), out.answer, out.elapsed),
            }
            if let Some(prev) = agreed {
                assert_eq!(prev, out.answer, "{name}: algorithms disagree");
            }
            agreed = Some(out.answer);
        }
        println!();
    }

    println!("\nAll five constraints answered consistently by UIS, UIS*, INS and Auto.");
}

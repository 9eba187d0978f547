//! Figures 10–14 — LSCR query performance on LUBM: for each substructure
//! constraint S1–S5 (one figure each), the average running time and
//! average passed-vertex number of UIS, UIS\* and INS over true- and
//! false-query groups on datasets D1'–D5'. The `UIS` row is the paper's
//! Algorithm 1 (one frontier); `UIS (default)` is the library's
//! default, shown beside it (see `kgreach_bench::figure_rows`).
//!
//! Expected shapes (paper §6.1.2):
//! * all three algorithms grow ~linearly with the KG scale;
//! * UIS\* is usually *slower* than UIS on true queries (unordered
//!   `V(S,G)` → bad directions), most extremely under S5;
//! * INS beats both by a wide margin throughout;
//! * S2/S4 selectivity barely moves the needle vs S1; S3's huge `V(S,G)`
//!   and S5's singleton one do.
//!
//! Usage: `cargo run -p kgreach-bench --release --bin fig10_14 --
//!         [--constraint s1|s2|s3|s4|s5|all] [--queries 15] [--scale 1.0]
//!         [--datasets 5]`
//!
//! Every answer is checked against the workload's ground truth. After
//! printing its tables the program exits 1 if any row's `wrong` is not 0.

use kgreach_bench::{
    build_local_index, build_workload, engine_with_index, figure_rows, lubm_datasets, ms, outln,
    print_header, print_row, run_group,
};
use kgreach_datagen::constraints;
use kgreach_serve::cli::{parses, Args, Flags};

/// Every flag fig10_14 reads, with the test its value must pass.
const FLAGS: &Flags = &[
    (&["scale"], parses::<f64>),
    (&["queries", "datasets"], parses::<usize>),
    (&["constraint"], |_| true),
];

fn main() {
    let args = Args::parse(FLAGS);
    let scale: f64 = args.get("scale", 1.0);
    let queries: usize = args.get("queries", 15);
    let num_datasets: usize = args.get("datasets", 5);
    let which = args.get_str("constraint").unwrap_or("all").to_lowercase();

    let selected: Vec<(&str, kgreach::SubstructureConstraint)> =
        constraints::all_lubm_constraints()
            .into_iter()
            .filter(|(name, _)| which == "all" || name.to_lowercase() == which)
            .collect();
    if selected.is_empty() {
        eprintln!("unknown --constraint {which}; use s1..s5 or all");
        std::process::exit(2);
    }

    // D1'..D5' (skip the indexing-only D0').
    let datasets: Vec<_> = lubm_datasets(scale).into_iter().skip(1).take(num_datasets).collect();

    // Figure number bookkeeping: S1 → Fig 10 … S5 → Fig 14.
    let mut wrong = 0;
    for (name, constraint) in &selected {
        let fig = 10 + name[1..].parse::<usize>().unwrap_or(1) - 1;
        outln!("\n# Figure {fig} — substructure constraint {name}: {}", constraint.to_sparql());
        print_header(&[
            "Dataset",
            "|V|",
            "|E|",
            "|V(S,G)|",
            "group",
            "algo",
            "avg time(ms)",
            "avg passed-vertex",
            "queries",
            "wrong",
        ]);
        for spec in &datasets {
            let g = kgreach_bench::build_lubm(spec);
            let (index, _) = build_local_index(&g, spec.seed);
            let vsg =
                constraint.compile(&g).expect("constraint compiles").satisfying_vertices(&g).len();
            let w = build_workload(&g, constraint, queries, spec.seed ^ 0x51);
            let engine = engine_with_index(g, index);
            let graph = engine.graph();
            let g = &*graph;
            for (group_name, group) in [("true", &w.true_queries), ("false", &w.false_queries)] {
                for (row, alg, opts) in figure_rows() {
                    let r = run_group(&engine, group, alg, &opts);
                    wrong += r.wrong;
                    print_row(&[
                        spec.name.clone(),
                        format!("{}", g.num_vertices()),
                        format!("{}", g.num_edges()),
                        format!("{vsg}"),
                        group_name.into(),
                        row.into(),
                        ms(r.avg_time),
                        format!("{:.0}", r.avg_passed),
                        format!("{}", r.queries),
                        format!("{}", r.wrong),
                    ]);
                }
            }
        }
    }
    outln!("\n# expected shape: linear growth in dataset scale; INS fastest;");
    outln!("# UIS* worst on true queries (random V(S,G) order); wrong must be 0;");
    outln!("# Auto should track the best manual column per constraint.");
    if wrong > 0 {
        eprintln!("fig10_14: {wrong} answers disagree with the ground truth");
        std::process::exit(1);
    }
}

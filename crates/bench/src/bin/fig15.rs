//! Figure 15 — random substructure constraints on the YAGO-like KG: query
//! performance as a function of the `|V(S,G)|` order of magnitude
//! `m ∈ {10¹, 10², …}`.
//!
//! Expected shapes (paper §6.2): UIS true-query time drifts *down* as `m`
//! grows (satisfying vertices are met earlier); false-query time is flat;
//! UIS\* trails UIS; INS is orders of magnitude faster than both. Also
//! prints the local-index build cost on the YAGO-like graph (the paper:
//! 4,993 s / 86 MB on real YAGO).
//!
//! Usage: `cargo run -p kgreach-bench --release --bin fig15 --
//!         [--entities 30000] [--queries 15] [--max-magnitude 4]
//!         [--constraints-per-magnitude 4]`
//!
//! Every answer is checked against the workload's ground truth. After
//! printing its table the program exits 1 if any row's `wrong` is not 0.

use kgreach_bench::{
    build_local_index, engine_with_index, figure_rows, mib, ms, outln, print_header, print_row,
    run_group,
};
use kgreach_datagen::queries::{generate_workload, QueryGenConfig};
use kgreach_datagen::{random_constraint_with_magnitude, yago::YagoConfig};
use kgreach_serve::cli::{parses, Args, Flags};

/// Every flag fig15 reads, with the test its value must pass.
const FLAGS: &Flags = &[
    (&["entities", "queries", "constraints-per-magnitude"], parses::<usize>),
    (&["max-magnitude"], parses::<u32>),
];

fn main() {
    let args = Args::parse(FLAGS);
    let entities: usize = args.get("entities", 30_000);
    let queries: usize = args.get("queries", 15);
    let max_mag: u32 = args.get("max-magnitude", 4);
    let per_mag: usize = args.get("constraints-per-magnitude", 4);

    // Generated once, memoized as a binary snapshot under
    // target/kg-snapshots (the key is derived from the config so editing
    // any knob can never serve a stale cached graph).
    let config =
        YagoConfig { entities, edges_per_entity: 3, num_labels: 24, num_classes: 30, seed: 0x1a60 };
    let key = format!(
        "yago-{}-{}-{}-{}-{:x}",
        config.entities,
        config.edges_per_entity,
        config.num_labels,
        config.num_classes,
        config.seed
    );
    let g = kgreach_bench::cached_graph(&key, || {
        kgreach_datagen::yago::generate(&config).expect("generation fits")
    });
    outln!(
        "# YAGO-like graph: |V|={} |E|={} |L|={}",
        g.num_vertices(),
        g.num_edges(),
        g.num_labels()
    );

    let (index, build_time) = build_local_index(&g, 7);
    outln!(
        "# local index on YAGO-like graph: {:.2}s, {} MB, {} landmarks",
        build_time.as_secs_f64(),
        mib(index.stats().bytes),
        index.stats().num_landmarks
    );
    let engine = engine_with_index(g, index);
    let g = engine.graph();

    outln!("\n# Figure 15 — random constraints by |V(S,G)| magnitude\n");
    print_header(&[
        "magnitude",
        "avg |V(S,G)|",
        "group",
        "algo",
        "avg time(ms)",
        "avg passed-vertex",
        "queries",
        "wrong",
    ]);

    let mut wrong = 0;
    for mag in 1..=max_mag {
        let m = 10usize.pow(mag);
        if m * 2 > g.num_vertices() {
            eprintln!("# magnitude 10^{mag} skipped: graph too small");
            continue;
        }
        // A pool of random constraints at this magnitude, cycled across
        // the workload (the paper draws a fresh constraint per query; a
        // pool keeps generation affordable, a departure from its protocol).
        let mut pool = Vec::new();
        for i in 0..per_mag {
            if let Some((c, count)) =
                random_constraint_with_magnitude(&g, m, 0xF15 + (mag as u64) * 131 + i as u64)
            {
                pool.push((c, count));
            }
        }
        if pool.is_empty() {
            eprintln!("# magnitude 10^{mag}: no constraint found, skipped");
            continue;
        }
        let avg_vsg: f64 = pool.iter().map(|(_, c)| *c as f64).sum::<f64>() / pool.len() as f64;

        // Merge workloads from the pool.
        let mut true_queries = Vec::new();
        let mut false_queries = Vec::new();
        let share = queries.div_ceil(pool.len());
        for (i, (c, _)) in pool.iter().enumerate() {
            let w = generate_workload(
                &g,
                c,
                &QueryGenConfig {
                    num_true: share,
                    num_false: share,
                    seed: 0xAB + i as u64,
                    max_attempts: share * 6_000,
                    enforce_difficulty: true,
                },
            );
            true_queries.extend(w.true_queries);
            false_queries.extend(w.false_queries);
        }
        true_queries.truncate(queries);
        false_queries.truncate(queries);

        for (group_name, group) in [("true", &true_queries), ("false", &false_queries)] {
            for (row, alg, opts) in figure_rows() {
                let r = run_group(&engine, group, alg, &opts);
                wrong += r.wrong;
                print_row(&[
                    format!("10^{mag}"),
                    format!("{avg_vsg:.0}"),
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
    outln!("\n# expected shape: UIS true-time drifts down with magnitude; false flat;");
    outln!("# INS far below both; wrong must be 0.");
    if wrong > 0 {
        eprintln!("fig15: {wrong} answers disagree with the ground truth");
        std::process::exit(1);
    }
}

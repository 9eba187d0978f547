//! Figure 5 — Sampling-Tree (\[6\]-style) indexing time.
//!
//! (a) fixed `|V|`, density `D = |E|/|V|` swept over 2.0–5.0: indexing
//!     time grows roughly linearly in density;
//! (b) fixed density `D = 1.5`, `|V|` swept geometrically: indexing time
//!     grows super-linearly in `|V|` (the paper plots it on a log axis
//!     reaching ~10^6 s at 100k vertices on their testbed).
//!
//! Usage: `cargo run -p kgreach-bench --release --bin fig5 --
//!         [--vertices 4000] [--labels 8] [--budget-secs 120]
//!         [--sweep-base 1000]`

use kgreach_bench::{outln, print_header, print_row};
use kgreach_datagen::yago::{self, YagoConfig};
use kgreach_lcr::{Budget, SamplingTreeIndex};
use kgreach_serve::cli::{parses, Args, Flags};
use std::time::Duration;

/// Every flag fig5 reads, with the test its value must pass.
const FLAGS: &Flags =
    &[(&["vertices", "labels", "sweep-base"], parses::<usize>), (&["budget-secs"], parses::<u64>)];

fn main() {
    let args = Args::parse(FLAGS);
    let fixed_v: usize = args.get("vertices", 4_000);
    let labels: usize = args.get("labels", 8);
    let budget = Duration::from_secs(args.get("budget-secs", 120));

    outln!("# Figure 5(a) — Sampling-Tree indexing time vs density, |V| = {fixed_v}\n");
    print_header(&["D=|E|/|V|", "|V|", "|E|", "Indexing time(s)"]);
    for density_x2 in 4..=10 {
        // density 2.0, 2.5, …, 5.0 — the paper's sweep.
        let density = density_x2 as f64 / 2.0;
        let g = yago::generate(&YagoConfig {
            entities: fixed_v,
            edges_per_entity: density.round() as usize,
            num_labels: labels,
            num_classes: 12,
            seed: 500 + density_x2,
        })
        .expect("generation fits");
        let row = match SamplingTreeIndex::build(&g, Budget::with_limit(budget)) {
            Ok(idx) => format!("{:.2}", idx.build_time.as_secs_f64()),
            Err(_) => "budget".into(),
        };
        print_row(&[
            format!("{:.1}", g.density()),
            format!("{}", g.num_vertices()),
            format!("{}", g.num_edges()),
            row,
        ]);
    }

    outln!("\n# Figure 5(b) — Sampling-Tree indexing time vs |V|, D = 1.5\n");
    print_header(&["|V| target", "|V|", "|E|", "Indexing time(s)"]);
    let base: usize = args.get("sweep-base", 1_000);
    for step in 0..5 {
        let v = base * (1 << step); // 1k, 2k, 4k, 8k, 16k by default

        // D = 1.5: entities × 1.5 edges. edges_per_entity is integral, so
        // alternate 1 and 2 via the ratio knob: use 2 then trim by density
        // of preferential attachment (type edges add ~1): ≈1.5 overall with
        // edges_per_entity = 1 plus the rdf:type edge per entity.
        let g = yago::generate(&YagoConfig {
            entities: v,
            edges_per_entity: 1,
            num_labels: labels,
            num_classes: 12,
            seed: 600 + step as u64,
        })
        .expect("generation fits");
        let row = match SamplingTreeIndex::build(&g, Budget::with_limit(budget)) {
            Ok(idx) => format!("{:.2}", idx.build_time.as_secs_f64()),
            Err(_) => "budget".into(),
        };
        print_row(&[
            format!("{v}"),
            format!("{}", g.num_vertices()),
            format!("{}", g.num_edges()),
            row,
        ]);
    }
    outln!("\n# expected shape: (a) ~linear growth in density;");
    outln!("# (b) super-linear growth in |V| (log-scale blow-up in the paper).");
}

//! Table 2 — indexing time and space: local index vs traditional landmark
//! indexing on the scaled D0'–D5' LUBM datasets.
//!
//! The paper's Table 2 shows the traditional method \[19\] taking 27,171 s /
//! 11.7 GB on the *smallest* dataset and timing out (8 h) on all others,
//! while the local index grows linearly (23 s → 7,699 s, 4 MB → 684 MB).
//! This harness reproduces the shape at laptop scale: the traditional
//! build gets a time budget (default 30 s, the scaled stand-in for 8 h)
//! and is expected to blow it from D1' on.
//!
//! Usage: `cargo run -p kgreach-bench --release --bin table2 --
//!         [--scale 1.0] [--budget-secs 30]`

use kgreach_bench::{build_local_index, lubm_datasets, mib, outln, print_header, print_row};
use kgreach_lcr::{Budget, LandmarkConfig, LandmarkIndex};
use kgreach_serve::cli::{parses, Args, Flags};
use std::time::Duration;

/// Every flag table2 reads, with the test its value must pass.
const FLAGS: &Flags = &[(&["scale"], parses::<f64>), (&["budget-secs"], parses::<u64>)];

fn main() {
    let args = Args::parse(FLAGS);
    let scale: f64 = args.get("scale", 1.0);
    let budget_secs: u64 = args.get("budget-secs", 30);

    outln!("# Table 2 — synthetic datasets: indexing time (IT) and space (IS)");
    outln!("# traditional budget: {budget_secs}s (scaled stand-in for the paper's 8h cap)\n");
    print_header(&[
        "Dataset",
        "Vertex",
        "Edge",
        "Local IT(s)",
        "Local IS(MB)",
        "Trad IT(s)",
        "Trad IS(MB)",
    ]);

    for spec in lubm_datasets(scale) {
        let g = kgreach_bench::build_lubm(&spec);

        let (local, local_time) = build_local_index(&g, spec.seed);
        let local_bytes = local.stats().bytes;

        // The traditional method only gets attempted within the budget;
        // the paper likewise caps it and reports '-' beyond D0.
        let trad = LandmarkIndex::build(
            &g,
            &LandmarkConfig::default(),
            Budget::with_limit(Duration::from_secs(budget_secs)),
        );
        let (trad_it, trad_is) = match &trad {
            Ok(idx) => (format!("{:.2}", idx.build_time.as_secs_f64()), mib(idx.heap_bytes())),
            Err(_) => ("-".into(), "-".into()),
        };

        print_row(&[
            spec.name.clone(),
            format!("{}", g.num_vertices()),
            format!("{}", g.num_edges()),
            format!("{:.2}", local_time.as_secs_f64()),
            mib(local_bytes),
            trad_it,
            trad_is,
        ]);
    }
    outln!("\n# expected shape: local IT/IS grow ~linearly with |V|;");
    outln!("# traditional succeeds only on D0' and hits the budget ('-') beyond it.");
}

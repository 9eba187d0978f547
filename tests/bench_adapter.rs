//! Compiles the benchmark's product adapter as part of tier-1.
//!
//! `crates/kgbench` is a workspace of its own, so `cargo build` and
//! `cargo test` at the repository root never compile it, and a change to
//! the product's public surface could break the command in
//! `BENCHMARK.json` unnoticed. `api.rs` is the one file through which the
//! benchmark names product items (and it names nothing of its own crate),
//! so including it here turns any such break into a tier-1 compile error.

#[allow(dead_code, unused_imports, unreachable_pub)]
#[path = "../crates/kgbench/src/api.rs"]
mod api;

#[test]
fn adapter_compiles_against_the_product() {
    assert_eq!(api::PLAN_CACHE_CAP, 4096);
}

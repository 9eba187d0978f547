//! Deterministic funnel fixtures for the meet-in-the-middle search.
//!
//! Searching from both ends pays exactly when the two ends of a query
//! have wildly different frontier growth: a source that fans out into a
//! wide region while the target is fed through a narrow chain (or the
//! mirror image). A unidirectional search from the wide end must touch
//! the whole spray region before it finds the funnel; UIS's two-frontier
//! race explores the narrow end at one vertex per step and meets (or
//! exhausts, proving a negative) after a handful of edges.
//!
//! This generator is **fully deterministic** — no RNG, stable vertex
//! names — so differential tests can pin exact queries against it:
//!
//! * `src` sprays over `fan` vertices `fan{i}` (label `spray`), each with
//!   `leaves_per_fan` leaves `leaf{i}_{j}` connected both ways under
//!   `chaff` — a label the canonical queries never use, so `{spray,
//!   needle}` stays mask-selective (in both orientations);
//! * only `fan0` enters the funnel: a `depth`-long chain `gate0 → … →
//!   gate{depth-1} → dst`, every edge labeled `needle`; the default
//!   `depth` makes the gate chain — which is also `V(S,G)` — long (81
//!   candidates), so UIS's endpoint sides meet in the middle long before
//!   its candidate sides would be short enough to seed;
//! * every gate carries a `marker → anchor` edge, so the constraint
//!   `SELECT ?x WHERE { ?x <marker> <anchor> . }` materializes `V(S,G)`
//!   = the gates — candidates that sit *on* the witness path;
//! * `leaf0_0` also carries the marker: a decoy candidate in the spray
//!   region that reaches nothing and must not flip an answer.
//!
//! Canonical queries over the forward fixture (`mirrored: false`):
//!
//! * `src ⇝ dst` under `{spray, needle}` — **true**; the backward
//!   frontier is the gate chain plus the funnel mouth, tiny next to the
//!   spray region.
//! * `src ⇝ dst` under `{spray}` — **false** by the target-side mask
//!   precheck (no in-edge of `dst` is labeled `spray`).
//! * `src ⇝ dst` under `{needle}` — **false** by the source-side mask
//!   precheck (no out-edge of `src` is labeled `needle`).
//!
//! With `mirrored: true` every edge is reversed and the `src`/`dst`
//! names swap, so `src ⇝ dst` keeps the same answers but the *narrow*
//! region now hangs off the source — exercising the opposite arm of the
//! smaller-frontier alternation.

use kgreach_graph::{Graph, GraphBuilder, Result};

/// Funnel fixture configuration. All fields are structural — the same
/// config always yields the identical graph.
#[derive(Clone, Debug)]
pub struct FunnelConfig {
    /// Spray width: out-degree of `src` into the wide region.
    pub fan: usize,
    /// Leaves per fan vertex (connected both ways under `chaff`).
    pub leaves_per_fan: usize,
    /// Funnel length: number of `gate{d}` vertices between the wide
    /// region and `dst`. Also `|V(S,G)| - 1`.
    pub depth: usize,
    /// Reverse every edge and swap `src`/`dst`, putting the narrow
    /// funnel on the source side instead.
    pub mirrored: bool,
}

impl Default for FunnelConfig {
    fn default() -> Self {
        FunnelConfig { fan: 24, leaves_per_fan: 5, depth: 80, mirrored: false }
    }
}

/// Generates the funnel fixture described in the module docs.
pub fn generate(config: &FunnelConfig) -> Result<Graph> {
    assert!(config.fan >= 1, "need at least one fan vertex");
    assert!(config.depth >= 1, "need at least one gate");
    let mut triples: Vec<(String, &str, String)> = Vec::new();
    for i in 0..config.fan {
        triples.push(("src".into(), "spray", format!("fan{i}")));
        for j in 0..config.leaves_per_fan {
            triples.push((format!("fan{i}"), "chaff", format!("leaf{i}_{j}")));
            // The back-edge keeps leaves non-sink in both orientations:
            // `expansion_selective` compares the expandable region
            // against *non-sink* vertices, and a long default funnel
            // needs the spray region to outweigh the gate chain there.
            triples.push((format!("leaf{i}_{j}"), "chaff", format!("fan{i}")));
        }
    }
    triples.push(("fan0".into(), "needle", "gate0".into()));
    for d in 1..config.depth {
        triples.push((format!("gate{}", d - 1), "needle", format!("gate{d}")));
    }
    triples.push((format!("gate{}", config.depth - 1), "needle", "dst".into()));
    for d in 0..config.depth {
        triples.push((format!("gate{d}"), "marker", "anchor".into()));
    }
    triples.push(("leaf0_0".into(), "marker", "anchor".into()));

    let mut b = GraphBuilder::with_capacity(triples.len() + 2, triples.len());
    let swap = |name: &str| -> String {
        match name {
            "src" if config.mirrored => "dst".into(),
            "dst" if config.mirrored => "src".into(),
            other => other.into(),
        }
    };
    for (s, p, o) in &triples {
        // The marker edges encode candidacy, not connectivity: they keep
        // their direction so the same constraint works on both fixtures.
        if config.mirrored && *p != "marker" {
            b.add_triple(&swap(o), p, &swap(s));
        } else {
            b.add_triple(&swap(s), p, &swap(o));
        }
    }
    b.build()
}

/// The SPARQL constraint whose `V(S,G)` is the gate chain plus the
/// `leaf0_0` decoy, on either fixture orientation.
pub const GATE_CONSTRAINT: &str = "SELECT ?x WHERE { ?x <marker> <anchor> . }";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_fixture_shape() {
        let cfg = FunnelConfig::default();
        let g = generate(&cfg).unwrap();
        let src = g.vertex_id("src").unwrap();
        let dst = g.vertex_id("dst").unwrap();
        assert_eq!(g.out_degree(src), cfg.fan);
        assert_eq!(g.in_degree(dst), 1, "dst is fed only through the funnel");
        let needle = g.label_id("needle").unwrap();
        let spray = g.label_id("spray").unwrap();
        assert!(!g.out_label_mask(src).contains(needle));
        assert!(!g.in_label_mask(dst).contains(spray));
        // The whole point of the fixture: the canonical label set is
        // mask-selective, so both of UIS's endpoint sides expand through
        // the masks.
        assert!(g.expansion_selective(g.label_set(&["spray", "needle"])));
    }

    #[test]
    fn mirrored_fixture_swaps_the_narrow_side() {
        let cfg = FunnelConfig { mirrored: true, ..Default::default() };
        let g = generate(&cfg).unwrap();
        let src = g.vertex_id("src").unwrap();
        let dst = g.vertex_id("dst").unwrap();
        assert_eq!(g.out_degree(src), 1, "src exits only through the funnel");
        assert_eq!(g.in_degree(dst), cfg.fan);
        // Marker edges kept their direction: the constraint still holds.
        assert!(g.vertex_id("anchor").is_some());
        assert_eq!(g.out_degree(g.vertex_id("gate0").unwrap()), 2); // chain + marker
        assert!(g.expansion_selective(g.label_set(&["spray", "needle"])));
    }

    #[test]
    fn determinism() {
        let cfg = FunnelConfig::default();
        let a = generate(&cfg).unwrap();
        let b = generate(&cfg).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}

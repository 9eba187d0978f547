//! Loading and saving graphs in the line-oriented triple format.
//!
//! Generated datasets can be persisted so expensive benchmark graphs are
//! built once. I/O is buffered end to end (the substrate guide's rule:
//! never issue one syscall per triple).

use crate::error::Result;
use crate::graph::{Graph, GraphBuilder};
use crate::triples::parse_line;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Reads a graph from any reader producing `<s> <p> <o> .` lines,
/// streaming them into a [`GraphBuilder`] — one line buffer is reused, so
/// nothing string-level outlives its line.
pub fn read_graph<R: Read>(reader: R) -> Result<Graph> {
    let mut builder = GraphBuilder::new();
    let mut buf = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        let n = buf.read_line(&mut line)?;
        if n == 0 {
            return builder.build();
        }
        lineno += 1;
        if let Some(t) = parse_line(&line, lineno)? {
            builder.add_triple(&t.subject, &t.predicate, &t.object);
        }
    }
}

/// Loads a graph from a file path.
pub fn load_graph(path: impl AsRef<Path>) -> Result<Graph> {
    read_graph(File::open(path)?)
}

/// Former name of [`load_graph`].
/// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
pub fn load_graph_streaming(path: impl AsRef<Path>) -> Result<Graph> {
    load_graph(path)
}

/// Writes a graph's edges to any writer, one triple per line.
pub fn write_graph<W: Write>(g: &Graph, writer: W) -> Result<()> {
    let mut out = BufWriter::new(writer);
    for t in g.to_triples() {
        writeln!(out, "{t}")?;
    }
    out.flush()?;
    Ok(())
}

/// Saves a graph to a file path.
pub fn save_graph(g: &Graph, path: impl AsRef<Path>) -> Result<()> {
    write_graph(g, File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_triple("alice", "knows", "bob");
        b.add_triple("bob", "knows", "carol");
        b.add_triple("alice", "rdf:type", "Person");
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_through_bytes() {
        let g = sample_graph();
        let mut bytes = Vec::new();
        write_graph(&g, &mut bytes).unwrap();
        let g2 = read_graph(&bytes[..]).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.num_labels(), g.num_labels());
        // Semantics preserved: same edge set by name.
        let alice = g2.vertex_id("alice").unwrap();
        let bob = g2.vertex_id("bob").unwrap();
        let knows = g2.label_id("knows").unwrap();
        assert!(g2.has_edge(alice, knows, bob));
        // Schema re-derived.
        assert!(g2.schema().type_label.is_some());
    }

    #[test]
    fn roundtrip_through_file() {
        let g = sample_graph();
        let dir = std::env::temp_dir().join("kgreach_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.nt");
        save_graph(&g, &path).unwrap();
        let g2 = load_graph(&path).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_preserves_hostile_names() {
        // Vertex/label names with spaces, angle brackets, quotes and line
        // breaks must survive the text format losslessly (it is the
        // fallback interchange path and has to be trustworthy).
        let mut b = GraphBuilder::new();
        b.add_triple("name with space", "label<with>brackets", "multi\nline\nname");
        b.add_triple("quote\"and\\slash", "p", "name with space");
        let g = b.build().unwrap();
        let mut bytes = Vec::new();
        write_graph(&g, &mut bytes).unwrap();
        let g2 = read_graph(&bytes[..]).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for v in g.vertices() {
            let name = g.vertex_name(v);
            assert!(g2.vertex_id(name).is_some(), "lost vertex {name:?}");
        }
        let s = g2.vertex_id("name with space").unwrap();
        let l = g2.label_id("label<with>brackets").unwrap();
        let t = g2.vertex_id("multi\nline\nname").unwrap();
        assert!(g2.has_edge(s, l, t));
    }

    #[test]
    fn read_skips_comments() {
        let text = "# header\n<a> <p> <b> .\n\n<b> <p> <c> .\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn read_reports_parse_errors() {
        let text = "<a> <p> <b> .\n<broken\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_graph("/nonexistent/kgreach.nt").unwrap_err();
        assert!(matches!(err, crate::error::GraphError::Io(_)));
    }

    #[test]
    fn write_triples_direct() {
        let mut b = GraphBuilder::new();
        b.add_triple("x", "p", "y");
        b.add_triple("y", "p", "literal with space");
        let mut bytes = Vec::new();
        write_graph(&b.build().unwrap(), &mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("\"literal with space\""));
        assert_eq!(text.lines().count(), 2);
    }
}

//! RDF-style triples and a minimal N-Triples-like text format.
//!
//! KGs are "stored by RDF triples and formatted by RDFS" (paper §2). This
//! module provides the string-level triple type the generators emit and a
//! line-oriented serialization (`<s> <p> <o> .` with `"literal"` objects)
//! used by [`crate::io`] to persist generated datasets.
//!
//! ```
//! use kgreach_graph::triples::parse_line;
//!
//! let t = parse_line("<a> <p> <b> .", 1).unwrap().unwrap();
//! assert_eq!((t.subject.as_str(), t.predicate.as_str(), t.object.as_str()), ("a", "p", "b"));
//! ```

use crate::error::{GraphError, Result};
use std::fmt;

/// Well-known RDF/RDFS vocabulary IRIs, in the short prefixed form used
/// throughout the paper's figures.
pub(crate) mod vocab {
    /// `rdf:type` — instance-of edges.
    pub(crate) const RDF_TYPE: &str = "rdf:type";
    /// `rdfs:subClassOf` — class hierarchy edges.
    pub(crate) const RDFS_SUBCLASS_OF: &str = "rdfs:subClassOf";
    /// `rdfs:domain` — predicate domain declarations.
    pub(crate) const RDFS_DOMAIN: &str = "rdfs:domain";
    /// `rdfs:range` — predicate range declarations.
    pub(crate) const RDFS_RANGE: &str = "rdfs:range";

    /// Full-IRI spellings accepted as aliases of the prefixed forms.
    pub(crate) const RDF_TYPE_IRI: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// Full IRI for `rdfs:subClassOf`.
    pub(crate) const RDFS_SUBCLASS_OF_IRI: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    /// Full IRI for `rdfs:domain`.
    pub(crate) const RDFS_DOMAIN_IRI: &str = "http://www.w3.org/2000/01/rdf-schema#domain";
    /// Full IRI for `rdfs:range`.
    pub(crate) const RDFS_RANGE_IRI: &str = "http://www.w3.org/2000/01/rdf-schema#range";

    /// Whether `p` spells `rdf:type` (either form).
    pub(crate) fn is_type(p: &str) -> bool {
        p == RDF_TYPE || p == RDF_TYPE_IRI
    }

    /// Whether `p` spells `rdfs:subClassOf` (either form).
    pub(crate) fn is_subclass_of(p: &str) -> bool {
        p == RDFS_SUBCLASS_OF || p == RDFS_SUBCLASS_OF_IRI
    }

    /// Whether `p` spells `rdfs:domain` (either form).
    pub(crate) fn is_domain(p: &str) -> bool {
        p == RDFS_DOMAIN || p == RDFS_DOMAIN_IRI
    }

    /// Whether `p` spells `rdfs:range` (either form).
    pub(crate) fn is_range(p: &str) -> bool {
        p == RDFS_RANGE || p == RDFS_RANGE_IRI
    }
}

/// A string-level triple `(subject, predicate, object)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Triple {
    /// Subject IRI.
    pub subject: String,
    /// Predicate IRI (edge label).
    pub predicate: String,
    /// Object IRI or literal.
    pub object: String,
}

impl Triple {
    /// Creates a triple.
    pub fn new(
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: impl Into<String>,
    ) -> Self {
        Triple { subject: subject.into(), predicate: predicate.into(), object: object.into() }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} .",
            escape_term(&self.subject),
            escape_term(&self.predicate),
            escape_term(&self.object)
        )
    }
}

/// Serializes a term: IRIs in angle brackets, anything the bracket form
/// cannot carry losslessly — spaces, quotes, angle brackets (which would
/// terminate or nest the bracket form) and line breaks (which would break
/// the line framing) — as a quoted literal with `\\`, `\"`, `\n`, `\r`
/// escapes. Together with [`parse_line`], every vertex/label name
/// round-trips exactly.
fn escape_term(t: &str) -> String {
    if t.contains([' ', '"', '<', '>', '\n', '\r']) {
        let mut out = String::with_capacity(t.len() + 2);
        out.push('"');
        for c in t.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                _ => out.push(c),
            }
        }
        out.push('"');
        out
    } else {
        format!("<{t}>")
    }
}

/// Parses one term starting at `input`, returning `(term, rest)`.
fn parse_term(input: &str, line: usize) -> Result<(String, &str)> {
    let input = input.trim_start();
    let mut chars = input.char_indices();
    match chars.next() {
        Some((_, '<')) => {
            let end = input.find('>').ok_or_else(|| GraphError::Parse {
                line,
                message: "unterminated IRI (missing '>')".into(),
            })?;
            Ok((input[1..end].to_string(), &input[end + 1..]))
        }
        Some((_, '"')) => {
            let mut out = String::new();
            let mut escaped = false;
            for (i, c) in chars {
                if escaped {
                    // `\n`/`\r`/`\t` decode to their control characters
                    // (the writer emits the first two); any other escaped
                    // character stands for itself, so pre-escaping files
                    // (`\\`, `\"` only) parse unchanged.
                    out.push(match c {
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        _ => c,
                    });
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    return Ok((out, &input[i + 1..]));
                } else {
                    out.push(c);
                }
            }
            Err(GraphError::Parse { line, message: "unterminated literal (missing '\"')".into() })
        }
        Some(_) => {
            // Bare token up to whitespace (lenient mode).
            let end = input.find(char::is_whitespace).unwrap_or(input.len());
            Ok((input[..end].to_string(), &input[end..]))
        }
        None => {
            Err(GraphError::Parse { line, message: "expected a term, found end of line".into() })
        }
    }
}

/// Parses one `<s> <p> <o> .` line. Empty lines and `#` comments yield
/// `Ok(None)`.
pub fn parse_line(raw: &str, line: usize) -> Result<Option<Triple>> {
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let (s, rest) = parse_term(trimmed, line)?;
    let (p, rest) = parse_term(rest, line)?;
    let (o, rest) = parse_term(rest, line)?;
    let rest = rest.trim();
    if !rest.is_empty() && rest != "." {
        return Err(GraphError::Parse {
            line,
            message: format!("trailing content after triple: {rest:?}"),
        });
    }
    Ok(Some(Triple { subject: s, predicate: p, object: o }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let t = Triple::new("eg:Walker", "eg:workWith", "eg:Taylor");
        let line = t.to_string();
        assert_eq!(line, "<eg:Walker> <eg:workWith> <eg:Taylor> .");
        let back = parse_line(&line, 1).unwrap().unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn literal_roundtrip() {
        let t = Triple::new("eg:p", "ub:name", "Graduate Student \"4\"");
        let line = t.to_string();
        let back = parse_line(&line, 1).unwrap().unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn hostile_terms_roundtrip() {
        // Spaces, quotes, angle brackets, backslashes and line breaks all
        // survive one serialize/parse cycle exactly.
        for term in [
            "has space",
            "angle<bracket",
            "closing>bracket",
            "<both>",
            "quote\"inside",
            "back\\slash",
            "line\nbreak",
            "carriage\rreturn",
            "tab\tand space",
            "mix <\"\\\n> all",
            "",
        ] {
            let t = Triple::new(term, term, term);
            let line = t.to_string();
            assert!(!line.contains('\n'), "line framing broken for {term:?}: {line:?}");
            let back = parse_line(&line, 1).unwrap().unwrap();
            assert_eq!(back, t, "term {term:?} did not round-trip via {line:?}");
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        assert_eq!(parse_line("", 1).unwrap(), None);
        assert_eq!(parse_line("   # comment", 2).unwrap(), None);
    }

    #[test]
    fn bare_tokens_accepted() {
        let t = parse_line("a b c .", 1).unwrap().unwrap();
        assert_eq!(t, Triple::new("a", "b", "c"));
        // also without the trailing dot
        let t = parse_line("a b c", 1).unwrap().unwrap();
        assert_eq!(t, Triple::new("a", "b", "c"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_line("<unterminated", 7).unwrap_err();
        match e {
            GraphError::Parse { line, .. } => assert_eq!(line, 7),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(parse_line("<a> <b>", 1).is_err());
        assert!(parse_line("<a> <b> <c> junk", 1).is_err());
        assert!(parse_line("\"open literal", 3).is_err());
    }

    #[test]
    fn vocab_recognition() {
        assert!(vocab::is_type("rdf:type"));
        assert!(vocab::is_type(vocab::RDF_TYPE_IRI));
        assert!(vocab::is_subclass_of("rdfs:subClassOf"));
        assert!(vocab::is_domain(vocab::RDFS_DOMAIN_IRI));
        assert!(vocab::is_range("rdfs:range"));
        assert!(!vocab::is_type("ub:advisor"));
    }
}

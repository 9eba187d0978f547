//! Abstract syntax for the SPARQL subset.
//!
//! The engine supports exactly what substructure constraints need (paper §2,
//! Table 3): `SELECT ?vars WHERE { basic graph pattern }`, where a pattern
//! term is an IRI, a quoted literal, or a variable. This is the fragment
//! the paper compiles substructure constraints into.

use std::fmt;

/// A term in a triple pattern.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A concrete IRI or literal (both name graph vertices).
    Constant(String),
    /// A variable, stored without the leading `?`.
    Variable(String),
}

impl Term {
    /// Convenience constructor for a constant term.
    pub fn constant(s: impl Into<String>) -> Self {
        Term::Constant(s.into())
    }

    /// Convenience constructor for a variable term (no leading `?`).
    pub fn var(s: impl Into<String>) -> Self {
        Term::Variable(s.into())
    }

    /// The variable name, if this is a variable.
    pub(crate) fn as_variable(&self) -> Option<&str> {
        match self {
            Term::Variable(v) => Some(v),
            Term::Constant(_) => None,
        }
    }

    /// Whether constant `c` is written `"c"`: it holds whitespace, `"`,
    /// `\` or `>`, which `<c>` cannot. A byte scan, folded without an
    /// early exit so that it vectorizes, and a char scan only for
    /// non-ASCII text (`char::is_whitespace` covers U+000B,
    /// `u8::is_ascii_whitespace` does not).
    fn is_quoted(c: &str) -> bool {
        c.bytes().fold(false, |q, b| q | matches!(b, b'\t'..=b'\r' | b' ' | b'"' | b'\\' | b'>'))
            || (!c.is_ascii() && c.contains(char::is_whitespace))
    }

    /// The length of the text [`push_to`](Self::push_to) writes.
    fn text_len(&self) -> usize {
        match self {
            Term::Variable(v) => 1 + v.len(),
            Term::Constant(c) if Self::is_quoted(c) => {
                2 + c.len() + c.bytes().filter(|&b| b == b'"' || b == b'\\').count()
            }
            Term::Constant(c) => 2 + c.len(),
        }
    }

    /// Appends the term as the lexer reads it back: `?v`, `<c>`, or — for
    /// a quoted constant — `"c"` with its `\` and `"` escaped. Runs between
    /// escapes are appended whole.
    fn push_to(&self, out: &mut String) {
        match self {
            Term::Variable(v) => {
                out.push('?');
                out.push_str(v);
            }
            Term::Constant(c) if Self::is_quoted(c) => {
                out.push('"');
                let mut rest = c.as_str();
                while let Some(i) = rest.find(['"', '\\']) {
                    out.push_str(&rest[..i]);
                    out.push('\\');
                    out.push_str(&rest[i..=i]);
                    rest = &rest[i + 1..];
                }
                out.push_str(rest);
                out.push('"');
            }
            Term::Constant(c) => {
                out.push('<');
                out.push_str(c);
                out.push('>');
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::with_capacity(self.text_len());
        self.push_to(&mut text);
        f.write_str(&text)
    }
}

/// One triple pattern `subject predicate object`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TriplePattern {
    /// Subject term.
    pub subject: Term,
    /// Predicate term (usually a constant; variables are supported).
    pub predicate: Term,
    /// Object term.
    pub object: Term,
}

impl TriplePattern {
    /// Creates a pattern.
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        TriplePattern { subject, predicate, object }
    }

    /// Iterates the variable names used by this pattern.
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        [&self.subject, &self.predicate, &self.object].into_iter().filter_map(|t| t.as_variable())
    }

    /// The length of the text [`push_to`](Self::push_to) writes.
    fn text_len(&self) -> usize {
        self.subject.text_len() + self.predicate.text_len() + self.object.text_len() + 4
    }

    /// Appends `s p o .`, each term as [`Term`]'s `Display` writes it.
    fn push_to(&self, out: &mut String) {
        self.subject.push_to(out);
        out.push(' ');
        self.predicate.push_to(out);
        out.push(' ');
        self.object.push_to(out);
        out.push_str(" .");
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::with_capacity(self.text_len());
        self.push_to(&mut text);
        f.write_str(&text)
    }
}

/// A `SELECT … WHERE { … }` query over a basic graph pattern.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SelectQuery {
    /// Projected variable names (without `?`), in query order.
    pub projection: Vec<String>,
    /// The basic graph pattern.
    pub patterns: Vec<TriplePattern>,
}

impl SelectQuery {
    /// All distinct variable names in pattern order of first occurrence.
    pub fn variables(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for p in &self.patterns {
            for v in p.variables() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    }

    /// The canonical text: `SELECT ?v … WHERE { p . … }`, every term as
    /// [`Term`]'s `Display` writes it. It parses back to this query, and
    /// equal queries have equal texts. Its exact length is summed first,
    /// then the text is appended into one buffer of that size.
    pub fn canonical_text(&self) -> String {
        let projection: usize = self.projection.iter().map(|v| 2 + v.len()).sum();
        let patterns: usize = self.patterns.iter().map(|p| p.text_len() + 1).sum();
        let mut out = String::with_capacity("SELECT WHERE { }".len() + projection + patterns);
        out.push_str("SELECT");
        for v in &self.projection {
            out.push_str(" ?");
            out.push_str(v);
        }
        out.push_str(" WHERE { ");
        for p in &self.patterns {
            p.push_to(&mut out);
            out.push(' ');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for SelectQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_display() {
        assert_eq!(Term::constant("ub:Course").to_string(), "<ub:Course>");
        assert_eq!(Term::constant("Research 12").to_string(), "\"Research 12\"");
        assert_eq!(Term::var("x").to_string(), "?x");
        // Neither fits between angle brackets; both must re-lex as written.
        assert_eq!(Term::constant("a>b").to_string(), r#""a>b""#);
        assert_eq!(Term::constant(r#"a\b"c"#).to_string(), r#""a\\b\"c""#);
        assert_eq!(Term::constant("tab\there").to_string(), "\"tab\there\"");
        // Whitespace to `char`, and so quoted, though not to `u8` (U+000B)
        // or outside ASCII (U+00A0, U+3000).
        for c in ["a\u{0B}b", "a\u{A0}b", "a\u{3000}b"] {
            assert_eq!(Term::constant(c).to_string(), format!("\"{c}\""));
        }
        assert_eq!(Term::constant("Zoë").to_string(), "<Zoë>");
    }

    #[test]
    fn canonical_text_is_display_in_one_exact_buffer() {
        for sparql in [
            r#"SELECT ?x WHERE { ?x <p> "a>b" . ?x ?q 'Zoë \\ "y"' }"#,
            "SELECT ?x WHERE { ?x <p> \"a\u{0B}b\" . \"c\u{A0}d\" ?q ?x . }",
        ] {
            let q = crate::parse(sparql).unwrap();
            let text = q.canonical_text();
            assert_eq!(text, q.to_string());
            assert_eq!(text.capacity(), text.len());
            assert_eq!(crate::parse(&text).unwrap(), q);
        }
    }

    #[test]
    fn term_predicates() {
        assert_eq!(Term::var("x").as_variable(), Some("x"));
        assert_eq!(Term::constant("a").as_variable(), None);
    }

    #[test]
    fn pattern_variables() {
        let p = TriplePattern::new(Term::var("x"), Term::constant("p"), Term::var("y"));
        let vars: Vec<_> = p.variables().collect();
        assert_eq!(vars, vec!["x", "y"]);
    }

    #[test]
    fn query_variables_deduped_in_order() {
        let q = SelectQuery {
            projection: vec!["x".into()],
            patterns: vec![
                TriplePattern::new(Term::var("x"), Term::constant("p"), Term::var("y")),
                TriplePattern::new(Term::var("y"), Term::constant("q"), Term::var("x")),
            ],
        };
        assert_eq!(q.variables(), vec!["x", "y"]);
    }

    #[test]
    fn query_display_roundtrips_through_parser() {
        let q = SelectQuery {
            projection: vec!["x".into()],
            patterns: vec![TriplePattern::new(
                Term::var("x"),
                Term::constant("ub:researchInterest"),
                Term::constant("Research12"),
            )],
        };
        let text = q.to_string();
        assert!(text.starts_with("SELECT ?x WHERE {"));
        let back = crate::parse(&text).unwrap();
        assert_eq!(back, q);
    }
}

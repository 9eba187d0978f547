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

    /// Whether the term is a variable.
    pub fn is_variable(&self) -> bool {
        matches!(self, Term::Variable(_))
    }

    /// The variable name, if this is a variable.
    pub fn as_variable(&self) -> Option<&str> {
        match self {
            Term::Variable(v) => Some(v),
            Term::Constant(_) => None,
        }
    }

    /// Writes the term as the lexer reads it back: `?v`, `<c>`, or — for
    /// a constant containing whitespace, `"`, `\` or `>`, which `<c>`
    /// cannot hold — `"c"` with its `\` and `"` escaped. Runs between
    /// escapes are written whole.
    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Term::Variable(v) => {
                out.write_char('?')?;
                out.write_str(v)
            }
            Term::Constant(c)
                if c.contains(|ch: char| ch.is_whitespace() || matches!(ch, '"' | '\\' | '>')) =>
            {
                out.write_char('"')?;
                let mut rest = c.as_str();
                while let Some(i) = rest.find(['"', '\\']) {
                    out.write_str(&rest[..i])?;
                    out.write_char('\\')?;
                    out.write_str(&rest[i..=i])?;
                    rest = &rest[i + 1..];
                }
                out.write_str(rest)?;
                out.write_char('"')
            }
            Term::Constant(c) => {
                out.write_char('<')?;
                out.write_str(c)?;
                out.write_char('>')
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
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

    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.subject.write_to(out)?;
        out.write_char(' ')?;
        self.predicate.write_to(out)?;
        out.write_char(' ')?;
        self.object.write_to(out)?;
        out.write_str(" .")
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
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
    /// equal queries have equal texts. Measured first, then written into
    /// one buffer of exactly that size.
    pub fn canonical_text(&self) -> String {
        /// Counts the bytes a writer is handed.
        struct Len(usize);
        impl fmt::Write for Len {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut len = Len(0);
        let _ = self.write_to(&mut len);
        let mut out = String::with_capacity(len.0);
        let _ = self.write_to(&mut out); // writing to a `String` cannot fail
        out
    }

    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("SELECT")?;
        for v in &self.projection {
            out.write_str(" ?")?;
            out.write_str(v)?;
        }
        out.write_str(" WHERE { ")?;
        for p in &self.patterns {
            p.write_to(out)?;
            out.write_char(' ')?;
        }
        out.write_char('}')
    }
}

impl fmt::Display for SelectQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
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
    }

    #[test]
    fn canonical_text_is_display_in_one_exact_buffer() {
        let q = crate::parse(r#"SELECT ?x WHERE { ?x <p> "a>b" . ?x ?q 'Zoë \\ "y"' }"#).unwrap();
        let text = q.canonical_text();
        assert_eq!(text, q.to_string());
        assert_eq!(text.capacity(), text.len());
        assert_eq!(crate::parse(&text).unwrap(), q);
    }

    #[test]
    fn term_predicates() {
        assert!(Term::var("x").is_variable());
        assert!(!Term::constant("a").is_variable());
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

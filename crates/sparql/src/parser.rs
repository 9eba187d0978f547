//! Recursive-descent parser for the SPARQL subset.

use crate::ast::{SelectQuery, Term, TriplePattern};
use crate::error::{Result, SparqlError};
use crate::lexer::{Lexer, Token};

/// Parses a `SELECT … WHERE { … }` query.
pub fn parse(input: &str) -> Result<SelectQuery> {
    Parser { lexer: Lexer::new(input), peeked: None }.query()
}

/// Pulls tokens from the lexer one at a time and moves each into the
/// tree: a term's text is copied once, into its [`Term`], and no token is
/// cloned or collected.
struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Option<Token<'a>>,
}

impl<'a> Parser<'a> {
    fn peek(&mut self) -> Result<Option<&Token<'a>>> {
        if self.peeked.is_none() {
            self.peeked = self.lexer.next_token()?;
        }
        Ok(self.peeked.as_ref())
    }

    fn next(&mut self) -> Result<Option<Token<'a>>> {
        match self.peeked.take() {
            Some(t) => Ok(Some(t)),
            None => self.lexer.next_token(),
        }
    }

    fn expect(&mut self, want: &Token<'_>, context: &str) -> Result<()> {
        match self.next()? {
            Some(ref t) if t == want => Ok(()),
            other => Err(SparqlError::Parse {
                message: format!("expected {want:?} {context}, found {other:?}"),
            }),
        }
    }

    fn query(&mut self) -> Result<SelectQuery> {
        self.expect(&Token::Select, "at start of query")?;
        if matches!(self.peek()?, Some(Token::Distinct)) {
            self.next()?; // results are set-semantics anyway
        }
        let mut projection = Vec::new();
        while let Some(&Token::Variable(v)) = self.peek()? {
            projection.push(v.to_owned());
            self.next()?;
        }
        if projection.is_empty() {
            return Err(SparqlError::Parse {
                message: "SELECT must project at least one variable".into(),
            });
        }
        self.expect(&Token::Where, "after projection")?;
        self.expect(&Token::LBrace, "to open the pattern group")?;

        let mut patterns = Vec::new();
        loop {
            match self.peek()? {
                Some(Token::RBrace) => {
                    self.next()?;
                    break;
                }
                None => {
                    return Err(SparqlError::Parse {
                        message: "unexpected end of query inside pattern group".into(),
                    })
                }
                _ => {
                    let s = self.term("subject")?;
                    let p = self.term("predicate")?;
                    let o = self.term("object")?;
                    patterns.push(TriplePattern::new(s, p, o));
                    // The trailing dot is optional before '}'.
                    if matches!(self.peek()?, Some(Token::Dot)) {
                        self.next()?;
                    }
                }
            }
        }

        if patterns.is_empty() {
            return Err(SparqlError::EmptyPattern);
        }
        if let Some(t) = self.peek()? {
            return Err(SparqlError::Parse {
                message: format!("trailing token {t:?} after query"),
            });
        }

        // Every projected variable must occur in some pattern.
        for v in &projection {
            if !patterns.iter().any(|p| p.variables().any(|u| u == v)) {
                return Err(SparqlError::UnboundProjection { variable: v.clone() });
            }
        }
        Ok(SelectQuery { projection, patterns })
    }

    fn term(&mut self, role: &str) -> Result<Term> {
        match self.next()? {
            Some(Token::Variable(v)) => Ok(Term::Variable(v.to_owned())),
            Some(Token::Constant(c)) => Ok(Term::Constant(c.into_owned())),
            other => Err(SparqlError::Parse {
                message: format!("expected a term as {role}, found {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_pattern() {
        let q = parse("SELECT ?x WHERE { ?x <ub:researchInterest> \"Research12\" . }").unwrap();
        assert_eq!(q.projection, vec!["x"]);
        assert_eq!(q.patterns.len(), 1);
        assert_eq!(q.patterns[0].subject, Term::var("x"));
        assert_eq!(q.patterns[0].object, Term::constant("Research12"));
    }

    #[test]
    fn parses_paper_s4_shape() {
        let q = parse(
            "SELECT ?x WHERE { ?x <ub:name> 'GraduateStudent4' . ?x <ub:takesCourse> ?y1 . \
             ?x <ub:advisor> ?y2 . ?x <ub:memberOf> ?y3 . ?z1 <ub:takesCourse> ?y1 . \
             ?y2 <ub:teacherOf> ?z2 . ?y2 <ub:worksFor> ?z3 . ?y3 <ub:subOrganizationOf> ?z4 . }",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 8);
        assert_eq!(q.variables().len(), 8);
    }

    #[test]
    fn optional_final_dot() {
        let q = parse("SELECT ?x WHERE { ?x <p> ?y }").unwrap();
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn distinct_is_accepted() {
        let q = parse("SELECT DISTINCT ?x WHERE { ?x <p> <o> . }").unwrap();
        assert_eq!(q.projection, vec!["x"]);
    }

    #[test]
    fn multi_projection() {
        let q = parse("SELECT ?x ?y WHERE { ?x <p> ?y . }").unwrap();
        assert_eq!(q.projection, vec!["x", "y"]);
    }

    #[test]
    fn rejects_empty_pattern() {
        assert_eq!(parse("SELECT ?x WHERE { }"), Err(SparqlError::EmptyPattern));
    }

    #[test]
    fn rejects_unbound_projection() {
        assert_eq!(
            parse("SELECT ?z WHERE { ?x <p> ?y . }"),
            Err(SparqlError::UnboundProjection { variable: "z".into() })
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("WHERE { ?x <p> ?y }").is_err());
        assert!(parse("SELECT WHERE { ?x <p> ?y }").is_err());
        assert!(parse("SELECT ?x { ?x <p> ?y }").is_err());
        assert!(parse("SELECT ?x WHERE { ?x <p> }").is_err());
        assert!(parse("SELECT ?x WHERE { ?x <p> ?y").is_err());
        assert!(parse("SELECT ?x WHERE { ?x <p> ?y } extra").is_err());
    }

    #[test]
    fn predicate_variables_allowed() {
        let q = parse("SELECT ?x WHERE { ?x ?p <target> . }").unwrap();
        assert!(q.patterns[0].predicate.is_variable());
    }
}

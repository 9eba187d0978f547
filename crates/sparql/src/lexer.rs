//! Tokenizer for the SPARQL subset.
//!
//! Accepts the spelling of the paper's Table 3 queries, e.g.
//! `SELECT ?x WHERE { ?x <ub:researchInterest> "Research12" . }`.
//! Angle-bracket IRIs, double- or single-quoted literals, `?var`s, bare
//! prefixed names (`ub:takesCourse`), braces and dots.

use crate::error::{Result, SparqlError};

/// A lexical token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Token {
    /// `SELECT` (case-insensitive).
    Select,
    /// `WHERE` (case-insensitive).
    Where,
    /// `DISTINCT` (case-insensitive; accepted and ignored by the parser).
    Distinct,
    /// `?name`.
    Variable(String),
    /// `<iri>`, `"literal"`, `'literal'` or a bare prefixed name.
    Constant(String),
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `.`.
    Dot,
}

/// Tokenizes `input` into a vector of tokens. Positions are byte offsets
/// on `char` boundaries: an ASCII byte is its own `char`, anything else is
/// decoded, so text outside ASCII lexes like any other.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = char_at(input, i);
        match c {
            c if c.is_whitespace() => i += c.len_utf8(),
            '{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '<' => {
                let rest = &input[i + 1..];
                let end = rest.find('>').ok_or_else(|| SparqlError::Lex {
                    position: i,
                    message: "unterminated IRI (missing '>')".into(),
                })?;
                tokens.push(Token::Constant(rest[..end].to_string()));
                i += end + 2;
            }
            '"' | '\'' => {
                // Quotes and backslashes are ASCII, and no byte of a
                // multi-byte `char` is, so the scan can go byte by byte and
                // copy each run between escapes whole.
                let mut out = String::new();
                let (mut j, mut run) = (i + 1, i + 1);
                loop {
                    match bytes.get(j) {
                        Some(b'\\') if j + 1 < bytes.len() => {
                            out.push_str(&input[run..j]);
                            let escaped = char_at(input, j + 1);
                            out.push(escaped);
                            j += 1 + escaped.len_utf8();
                            run = j;
                        }
                        Some(&b) if b == c as u8 => break,
                        Some(_) => j += 1,
                        None => {
                            return Err(SparqlError::Lex {
                                position: i,
                                message: "unterminated literal".into(),
                            })
                        }
                    }
                }
                out.push_str(&input[run..j]);
                tokens.push(Token::Constant(out));
                i = j + 1;
            }
            '?' => {
                let end = name_end(input, i + 1);
                if end == i + 1 {
                    return Err(SparqlError::Lex {
                        position: i,
                        message: "'?' must be followed by a variable name".into(),
                    });
                }
                tokens.push(Token::Variable(input[i + 1..end].to_string()));
                i = end;
            }
            c if is_name_char(c) => {
                let end = name_end(input, i);
                let word = &input[i..end];
                let token = match word.to_ascii_uppercase().as_str() {
                    "SELECT" => Token::Select,
                    "WHERE" => Token::Where,
                    "DISTINCT" => Token::Distinct,
                    _ => Token::Constant(word.to_string()),
                };
                tokens.push(token);
                i = end;
            }
            other => {
                return Err(SparqlError::Lex {
                    position: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(tokens)
}

/// The `char` starting at byte `i`, a `char` boundary of `s`.
fn char_at(s: &str, i: usize) -> char {
    match s.as_bytes()[i] {
        b if b.is_ascii() => b as char,
        _ => s[i..].chars().next().expect("i is a char boundary"),
    }
}

/// The byte offset where the name starting at `start` ends.
fn name_end(s: &str, start: usize) -> usize {
    let mut j = start;
    while j < s.len() {
        let c = char_at(s, j);
        if !is_name_char(c) {
            break;
        }
        j += c.len_utf8();
    }
    j
}

/// Characters allowed in bare names, prefixed names and variable names.
/// Deliberately generous: IRIs like `ub:subOrganizationOf` and literals
/// like `FullProfessor0@Department0.University0.edu` appear in the paper —
/// but `.` is excluded (it terminates patterns); dotted names must be
/// quoted or bracketed.
fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '/' | '#' | '@')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_case_insensitive() {
        let t = tokenize("select ?x WHERE distinct").unwrap();
        assert_eq!(
            t,
            vec![Token::Select, Token::Variable("x".into()), Token::Where, Token::Distinct]
        );
    }

    #[test]
    fn iris_literals_and_names() {
        let t = tokenize("<ub:Course> \"Research12\" 'Research13' ub:advisor").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Constant("ub:Course".into()),
                Token::Constant("Research12".into()),
                Token::Constant("Research13".into()),
                Token::Constant("ub:advisor".into()),
            ]
        );
    }

    #[test]
    fn punctuation() {
        let t = tokenize("{ . }").unwrap();
        assert_eq!(t, vec![Token::LBrace, Token::Dot, Token::RBrace]);
    }

    #[test]
    fn escaped_literal() {
        let t = tokenize(r#""a \"quoted\" thing""#).unwrap();
        assert_eq!(t, vec![Token::Constant("a \"quoted\" thing".into())]);
    }

    #[test]
    fn full_paper_query_tokenizes() {
        let q = r#"SELECT ?x WHERE { ?x <ub:researchInterest> "Research12" .
                   ?x <rdf:type> <ub:AssociateProfessor> . }"#;
        let t = tokenize(q).unwrap();
        assert_eq!(t.len(), 13);
    }

    #[test]
    fn errors() {
        assert!(matches!(tokenize("<oops"), Err(SparqlError::Lex { .. })));
        assert!(matches!(tokenize("\"oops"), Err(SparqlError::Lex { .. })));
        assert!(matches!(tokenize("? x"), Err(SparqlError::Lex { .. })));
        assert!(matches!(tokenize("|"), Err(SparqlError::Lex { .. })));
    }

    #[test]
    fn non_ascii_literals_keep_their_text() {
        let t = tokenize("\"Müller\" 'Zoë'").unwrap();
        assert_eq!(t, vec![Token::Constant("Müller".into()), Token::Constant("Zoë".into())]);
    }

    #[test]
    fn non_ascii_variables_lex() {
        let t = tokenize("?é ?x").unwrap();
        assert_eq!(t, vec![Token::Variable("é".into()), Token::Variable("x".into())]);
    }

    #[test]
    fn non_ascii_bare_names_lex() {
        let t = tokenize("ub:Zoë . Ünïcode").unwrap();
        assert_eq!(
            t,
            vec![Token::Constant("ub:Zoë".into()), Token::Dot, Token::Constant("Ünïcode".into())]
        );
    }

    #[test]
    fn email_literals_lex_as_one_token() {
        let t = tokenize("'FullProfessor0@Department0.University0.edu'").unwrap();
        assert_eq!(t, vec![Token::Constant("FullProfessor0@Department0.University0.edu".into())]);
    }
}

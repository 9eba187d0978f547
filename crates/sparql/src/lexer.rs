//! Tokenizer for the SPARQL subset.
//!
//! Accepts the spelling of the paper's Table 3 queries, e.g.
//! `SELECT ?x WHERE { ?x <ub:researchInterest> "Research12" . }`.
//! Angle-bracket IRIs, double- or single-quoted literals, `?var`s, bare
//! prefixed names (`ub:takesCourse`), braces and dots.
//!
//! Tokens borrow the query text: a [`Lexer`] hands them out one at a time
//! and copies nothing, except a literal with a backslash escape, whose
//! unescaped text is the one token that owns its bytes.

use crate::error::{Result, SparqlError};
use std::borrow::Cow;

/// A lexical token, borrowing from the text it was read from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Token<'a> {
    /// `SELECT` (case-insensitive).
    Select,
    /// `WHERE` (case-insensitive).
    Where,
    /// `DISTINCT` (case-insensitive; accepted and ignored by the parser).
    Distinct,
    /// `?name`.
    Variable(&'a str),
    /// `<iri>`, `"literal"`, `'literal'` or a bare prefixed name; owned
    /// only when a literal's escapes had to be undone.
    Constant(Cow<'a, str>),
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `.`.
    Dot,
}

/// Tokenizes all of `input` (see [`Lexer`] for the one-at-a-time form).
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    Lexer::new(input).collect()
}

/// Reads tokens off a query text one at a time. Positions are byte
/// offsets on `char` boundaries: an ASCII byte is its own `char`, anything
/// else is decoded, so text outside ASCII lexes like any other. After an
/// error the lexer yields nothing more.
#[derive(Clone, Debug)]
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    /// The next token, `Ok(None)` at the end of the input.
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>> {
        let token = self.lex();
        if token.is_err() {
            self.pos = self.input.len();
        }
        token
    }

    fn lex(&mut self) -> Result<Option<Token<'a>>> {
        let input = self.input;
        let bytes = input.as_bytes();
        let lex_error = |position: usize, message: String| SparqlError::Lex { position, message };
        loop {
            let i = self.pos;
            if i >= bytes.len() {
                return Ok(None);
            }
            let c = char_at(input, i);
            let (token, end) = match c {
                c if c.is_whitespace() => {
                    self.pos += c.len_utf8();
                    continue;
                }
                '{' => (Token::LBrace, i + 1),
                '}' => (Token::RBrace, i + 1),
                '.' => (Token::Dot, i + 1),
                '<' => {
                    let rest = &input[i + 1..];
                    let end = rest
                        .find('>')
                        .ok_or_else(|| lex_error(i, "unterminated IRI (missing '>')".into()))?;
                    (Token::Constant(Cow::Borrowed(&rest[..end])), i + end + 2)
                }
                '"' | '\'' => {
                    let (text, end) = quoted(input, i, c as u8)
                        .ok_or_else(|| lex_error(i, "unterminated literal".into()))?;
                    (Token::Constant(text), end)
                }
                '?' => {
                    let end = name_end(input, i + 1);
                    if end == i + 1 {
                        return Err(lex_error(i, "'?' must be followed by a variable name".into()));
                    }
                    (Token::Variable(&input[i + 1..end]), end)
                }
                c if is_name_char(c) => {
                    let end = name_end(input, i);
                    let word = &input[i..end];
                    let token = if word.eq_ignore_ascii_case("SELECT") {
                        Token::Select
                    } else if word.eq_ignore_ascii_case("WHERE") {
                        Token::Where
                    } else if word.eq_ignore_ascii_case("DISTINCT") {
                        Token::Distinct
                    } else {
                        Token::Constant(Cow::Borrowed(word))
                    };
                    (token, end)
                }
                other => return Err(lex_error(i, format!("unexpected character {other:?}"))),
            };
            self.pos = end;
            return Ok(Some(token));
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_token().transpose()
    }
}

/// The literal opening with the `quote` byte at `open`, and the offset
/// just past its closing quote; `None` if it never closes. A backslash
/// takes the next `char` literally. Quotes and backslashes are ASCII, and
/// no byte of a multi-byte `char` is, so the scan jumps from one of them
/// to the next and the text between is borrowed, or copied whole as a run
/// once an escape forces an owned copy.
fn quoted(input: &str, open: usize, quote: u8) -> Option<(Cow<'_, str>, usize)> {
    let bytes = input.as_bytes();
    let start = open + 1;
    let mut owned: Option<String> = None;
    let (mut run, mut j) = (start, start);
    loop {
        j += bytes[j..].iter().position(|&b| b == quote || b == b'\\')?;
        if bytes[j] == quote {
            let text = match owned {
                None => Cow::Borrowed(&input[start..j]),
                Some(mut out) => {
                    out.push_str(&input[run..j]);
                    Cow::Owned(out)
                }
            };
            return Some((text, j + 1));
        }
        if j + 1 == bytes.len() {
            return None;
        }
        let out = owned.get_or_insert_with(String::new);
        out.push_str(&input[run..j]);
        let escaped = char_at(input, j + 1);
        out.push(escaped);
        j += 1 + escaped.len_utf8();
        run = j;
    }
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

    fn constant(s: &str) -> Token<'_> {
        Token::Constant(Cow::Borrowed(s))
    }

    #[test]
    fn keywords_case_insensitive() {
        let t = tokenize("select ?x WHERE distinct").unwrap();
        assert_eq!(t, vec![Token::Select, Token::Variable("x"), Token::Where, Token::Distinct]);
    }

    #[test]
    fn iris_literals_and_names() {
        let t = tokenize("<ub:Course> \"Research12\" 'Research13' ub:advisor").unwrap();
        assert_eq!(
            t,
            vec![
                constant("ub:Course"),
                constant("Research12"),
                constant("Research13"),
                constant("ub:advisor"),
            ]
        );
        assert!(
            t.iter().all(|t| matches!(t, Token::Constant(Cow::Borrowed(_)))),
            "unescaped tokens borrow the input"
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
        assert_eq!(t, vec![constant("a \"quoted\" thing")]);
        assert!(matches!(t[0], Token::Constant(Cow::Owned(_))), "escapes own their text");
        let t = tokenize(r#"'\\' "\é" "a\\b\"c""#).unwrap();
        assert_eq!(t, vec![constant("\\"), constant("é"), constant("a\\b\"c")]);
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
        assert!(matches!(tokenize("\"oops\\"), Err(SparqlError::Lex { .. })));
        assert!(matches!(tokenize("? x"), Err(SparqlError::Lex { .. })));
        assert!(matches!(tokenize("|"), Err(SparqlError::Lex { .. })));
    }

    #[test]
    fn lexer_stops_after_an_error() {
        let mut lexer = Lexer::new("?x | ?y");
        assert_eq!(lexer.next_token(), Ok(Some(Token::Variable("x"))));
        assert!(matches!(lexer.next_token(), Err(SparqlError::Lex { position: 3, .. })));
        assert_eq!(lexer.next_token(), Ok(None));
    }

    #[test]
    fn non_ascii_literals_keep_their_text() {
        let t = tokenize("\"Müller\" 'Zoë'").unwrap();
        assert_eq!(t, vec![constant("Müller"), constant("Zoë")]);
    }

    #[test]
    fn non_ascii_variables_lex() {
        let t = tokenize("?é ?x").unwrap();
        assert_eq!(t, vec![Token::Variable("é"), Token::Variable("x")]);
    }

    #[test]
    fn non_ascii_bare_names_lex() {
        let t = tokenize("ub:Zoë . Ünïcode").unwrap();
        assert_eq!(t, vec![constant("ub:Zoë"), Token::Dot, constant("Ünïcode")]);
    }

    #[test]
    fn email_literals_lex_as_one_token() {
        let t = tokenize("'FullProfessor0@Department0.University0.edu'").unwrap();
        assert_eq!(t, vec![constant("FullProfessor0@Department0.University0.edu")]);
    }
}

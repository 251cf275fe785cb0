//! Tokenizer for the practical query language of Section IV.

use crate::error::{QueryError, Result};

/// A lexical token of the practical query language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An identifier or keyword (`MATCH`, `ON`, `AND`, `FWD`, variable names, …).
    Ident(String),
    /// A quoted string literal, e.g. `'pos'`.
    Str(String),
    /// An unsigned integer literal.
    Number(u64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `-`
    Dash,
    /// `/`
    Slash,
    /// `+`
    Plus,
    /// `*`
    Star,
    /// `_`
    Underscore,
}

/// A token together with the byte offset at which it starts, for error reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset of the first character of the token in the query text.
    pub position: usize,
}

/// Splits the query text into tokens.  Outside string literals the language is
/// ASCII: any other character is a positioned [`QueryError::Parse`].
pub fn tokenize(input: &str) -> Result<Vec<Spanned>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    // Every token below is ASCII or ends at an ASCII quote, so `i` always
    // stays on a character boundary.
    while let Some(c) = input[i..].chars().next() {
        let start = i;
        match c {
            other if !other.is_ascii() => return Err(unexpected(other, start)),
            c if c.is_whitespace() => {
                i += 1;
            }
            '(' => push(&mut tokens, Token::LParen, start, &mut i),
            ')' => push(&mut tokens, Token::RParen, start, &mut i),
            '{' => push(&mut tokens, Token::LBrace, start, &mut i),
            '}' => push(&mut tokens, Token::RBrace, start, &mut i),
            '[' => push(&mut tokens, Token::LBracket, start, &mut i),
            ']' => push(&mut tokens, Token::RBracket, start, &mut i),
            ':' => push(&mut tokens, Token::Colon, start, &mut i),
            ',' => push(&mut tokens, Token::Comma, start, &mut i),
            '=' => push(&mut tokens, Token::Eq, start, &mut i),
            '-' => push(&mut tokens, Token::Dash, start, &mut i),
            '/' => push(&mut tokens, Token::Slash, start, &mut i),
            '+' => push(&mut tokens, Token::Plus, start, &mut i),
            '*' => push(&mut tokens, Token::Star, start, &mut i),
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Spanned { token: Token::Le, position: start });
                    i += 2;
                } else {
                    push(&mut tokens, Token::Lt, start, &mut i);
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Spanned { token: Token::Ge, position: start });
                    i += 2;
                } else {
                    push(&mut tokens, Token::Gt, start, &mut i);
                }
            }
            '\'' => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(QueryError::Parse {
                        message: "unterminated string literal".to_owned(),
                        position: start,
                    });
                }
                tokens.push(Spanned {
                    token: Token::Str(input[i + 1..j].to_owned()),
                    position: start,
                });
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let value: u64 = input[i..j].parse().map_err(|_| QueryError::Parse {
                    message: format!("number '{}' is out of range", &input[i..j]),
                    position: start,
                })?;
                tokens.push(Spanned { token: Token::Number(value), position: start });
                i = j;
            }
            '_' => {
                // A lone underscore is the "_" of open-ended occurrence indicators;
                // an underscore starting an identifier is part of the identifier.
                if bytes.get(i + 1).is_none_or(|&b| !b.is_ascii_alphanumeric() && b != b'_') {
                    push(&mut tokens, Token::Underscore, start, &mut i);
                } else {
                    let (ident, next) = read_ident(input, i);
                    tokens.push(Spanned { token: Token::Ident(ident), position: start });
                    i = next;
                }
            }
            c if c.is_ascii_alphabetic() => {
                let (ident, next) = read_ident(input, i);
                tokens.push(Spanned { token: Token::Ident(ident), position: start });
                i = next;
            }
            other => return Err(unexpected(other, start)),
        }
    }
    Ok(tokens)
}

fn unexpected(c: char, position: usize) -> QueryError {
    QueryError::Parse { message: format!("unexpected character '{c}'"), position }
}

fn push(tokens: &mut Vec<Spanned>, token: Token, start: usize, i: &mut usize) {
    tokens.push(Spanned { token, position: start });
    *i += 1;
}

fn read_ident(input: &str, start: usize) -> (String, usize) {
    let bytes = input.as_bytes();
    let mut j = start;
    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    (input[start..j].to_owned(), j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<Token> {
        tokenize(input).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn tokenizes_a_node_pattern() {
        let toks = kinds("(x:Person {risk = 'high'})");
        assert_eq!(
            toks,
            vec![
                Token::LParen,
                Token::Ident("x".into()),
                Token::Colon,
                Token::Ident("Person".into()),
                Token::LBrace,
                Token::Ident("risk".into()),
                Token::Eq,
                Token::Str("high".into()),
                Token::RBrace,
                Token::RParen,
            ]
        );
    }

    #[test]
    fn tokenizes_regex_operators_and_indicators() {
        let toks = kinds("-/FWD/:meets/FWD/NEXT[0,12]/-");
        assert!(toks.contains(&Token::Slash));
        assert!(toks.contains(&Token::LBracket));
        assert!(toks.contains(&Token::Number(12)));
        let toks = kinds("PREV[0,_]* <= >=");
        assert_eq!(
            toks,
            vec![
                Token::Ident("PREV".into()),
                Token::LBracket,
                Token::Number(0),
                Token::Comma,
                Token::Underscore,
                Token::RBracket,
                Token::Star,
                Token::Le,
                Token::Ge,
            ]
        );
    }

    #[test]
    fn underscore_identifiers_are_not_confused_with_wildcards() {
        assert_eq!(kinds("_name"), vec![Token::Ident("_name".into())]);
        assert_eq!(kinds("x_time"), vec![Token::Ident("x_time".into())]);
        assert_eq!(kinds("_"), vec![Token::Underscore]);
    }

    #[test]
    fn errors_are_reported_with_positions() {
        let err = tokenize("(x:Person {risk = 'high})  @").unwrap_err();
        assert!(matches!(err, QueryError::Parse { .. }));
        let err = tokenize("abc @ def").unwrap_err();
        match err {
            QueryError::Parse { position, .. } => assert_eq!(position, 4),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn numbers_and_positions() {
        let toks = tokenize("time < '10'").unwrap();
        assert_eq!(toks[0].token, Token::Ident("time".into()));
        assert_eq!(toks[1].token, Token::Lt);
        assert_eq!(toks[2].token, Token::Str("10".into()));
        assert_eq!(toks[2].position, 7);
        assert_eq!(kinds("42"), vec![Token::Number(42)]);
    }

    #[test]
    fn non_ascii_text_outside_literals_is_a_positioned_error() {
        for (input, c, position) in [
            ("MATCH (x:Personé) ON g", 'é', 15),
            ("MATCH (x:Person) ON gà", 'à', 21),
            ("MATCH (x:Person) ON g😀", '😀', 21),
            ("(é)", 'é', 1),
            ("_é", 'é', 1),
        ] {
            match tokenize(input) {
                Err(QueryError::Parse { message, position: at }) => {
                    assert_eq!(message, format!("unexpected character '{c}'"), "{input}");
                    assert_eq!(at, position, "{input}");
                }
                other => panic!("{input}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_ascii_text_inside_literals_still_tokenizes() {
        let toks = tokenize("{name = 'Zoë 😀'} x").unwrap();
        assert_eq!(toks[3].token, Token::Str("Zoë 😀".into()));
        assert_eq!(toks[5], Spanned { token: Token::Ident("x".into()), position: 21 });
    }
}

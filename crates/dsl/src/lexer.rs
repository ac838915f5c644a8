//! Lexer for the textual connector syntax of Sect. IV-B (Figs. 8/9).

use std::fmt;

use reo_core::Name;

/// A token with its source position (for error messages).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub kind: Tok,
    pub line: u32,
    pub col: u32,
}

/// Token kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    Ident(Name),
    Int(i64),
    // Keywords.
    Mult,
    Prod,
    If,
    Else,
    Main,
    Among,
    Forall,
    And,
    // Punctuation.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    Eq,
    Comma,
    Semi,
    Colon,
    Dot,
    DotDot,
    Hash,
    Plus,
    Minus,
    Star,
    AndAnd,
    OrOr,
    Bang,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(i) => write!(f, "integer `{i}`"),
            Tok::Mult => write!(f, "`mult`"),
            Tok::Prod => write!(f, "`prod`"),
            Tok::If => write!(f, "`if`"),
            Tok::Else => write!(f, "`else`"),
            Tok::Main => write!(f, "`main`"),
            Tok::Among => write!(f, "`among`"),
            Tok::Forall => write!(f, "`forall`"),
            Tok::And => write!(f, "`and`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::Ne => write!(f, "`!=`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::DotDot => write!(f, "`..`"),
            Tok::Hash => write!(f, "`#`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::AndAnd => write!(f, "`&&`"),
            Tok::OrOr => write!(f, "`||`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A lexical error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    pub message: String,
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize a source string. `//` starts a line comment.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let (mut line, mut col) = (1u32, 1u32);

    macro_rules! push {
        ($kind:expr, $len:expr) => {{
            tokens.push(Token {
                kind: $kind,
                line,
                col,
            });
            i += $len;
            col += $len as u32;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push!(Tok::LParen, 1),
            ')' => push!(Tok::RParen, 1),
            '{' => push!(Tok::LBrace, 1),
            '}' => push!(Tok::RBrace, 1),
            '[' => push!(Tok::LBracket, 1),
            ']' => push!(Tok::RBracket, 1),
            ',' => push!(Tok::Comma, 1),
            ';' => push!(Tok::Semi, 1),
            ':' => push!(Tok::Colon, 1),
            '#' => push!(Tok::Hash, 1),
            '+' => push!(Tok::Plus, 1),
            '-' => push!(Tok::Minus, 1),
            '*' => push!(Tok::Star, 1),
            '.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    push!(Tok::DotDot, 2);
                } else {
                    push!(Tok::Dot, 1);
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::EqEq, 2);
                } else {
                    push!(Tok::Eq, 1);
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::Ne, 2);
                } else {
                    push!(Tok::Bang, 1);
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::Le, 2);
                } else {
                    push!(Tok::Lt, 1);
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::Ge, 2);
                } else {
                    push!(Tok::Gt, 1);
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    push!(Tok::AndAnd, 2);
                } else {
                    return Err(LexError {
                        message: "expected `&&`".into(),
                        line,
                        col,
                    });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    push!(Tok::OrOr, 2);
                } else {
                    return Err(LexError {
                        message: "expected `||`".into(),
                        line,
                        col,
                    });
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let value: i64 = text.parse().map_err(|_| LexError {
                    message: format!("integer `{text}` out of range"),
                    line,
                    col,
                })?;
                tokens.push(Token {
                    kind: Tok::Int(value),
                    line,
                    col,
                });
                col += (i - start) as u32;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let text = &src[start..i];
                let kind = match text {
                    "mult" => Tok::Mult,
                    "prod" => Tok::Prod,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "main" => Tok::Main,
                    "among" => Tok::Among,
                    "forall" => Tok::Forall,
                    "and" => Tok::And,
                    _ => Tok::Ident(text.into()),
                };
                tokens.push(Token { kind, line, col });
                col += (i - start) as u32;
            }
            _ => {
                // Every arm above steps over ASCII only, so `i` starts a
                // character: name all of it, not its first byte.
                let other = src[i..].chars().next().expect("`i` is in bounds");
                return Err(LexError {
                    message: format!("unexpected character `{other}`"),
                    line,
                    col,
                });
            }
        }
    }
    tokens.push(Token {
        kind: Tok::Eof,
        line,
        col,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_identifiers() {
        assert_eq!(
            kinds("mult prod Fifo1 if else"),
            vec![
                Tok::Mult,
                Tok::Prod,
                Tok::Ident("Fifo1".into()),
                Tok::If,
                Tok::Else,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn fig9_line_tokenizes() {
        let ks = kinds("prod (i:1..#tl) X(tl[i];prev[i],next[i],hd[i])");
        assert!(ks.contains(&Tok::Prod));
        assert!(ks.contains(&Tok::DotDot));
        assert!(ks.contains(&Tok::Hash));
        assert!(ks.contains(&Tok::Semi));
        assert_eq!(ks.iter().filter(|k| **k == Tok::LBracket).count(), 4);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("== != <= >= < > ="),
            vec![
                Tok::EqEq,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::Eq,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // comment with mult prod\nb"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn dotted_names_lex_as_parts() {
        assert_eq!(
            kinds("Tasks.a"),
            vec![
                Tok::Ident("Tasks".into()),
                Tok::Dot,
                Tok::Ident("a".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn bad_character_reported_with_position() {
        let err = lex("a @").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.col, 3);
    }

    #[test]
    fn a_refused_character_is_named_whole() {
        let err = lex("Fifo1(a;é)").unwrap_err();
        assert_eq!(err.message, "unexpected character `é`");
        assert_eq!((err.line, err.col), (1, 9));
        let err = lex("a → b").unwrap_err();
        assert_eq!(err.message, "unexpected character `→`");
    }

    #[test]
    fn lone_ampersand_rejected() {
        assert!(lex("a & b").is_err());
    }
}

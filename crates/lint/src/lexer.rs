//! A hand-rolled Rust lexer for the graph passes — the same house approach
//! as `vr_server::json`: std-only, span-precise, hostile-input honest.
//!
//! The lexer's one job is to make the call graph *trustworthy*: a call,
//! `unwrap` or lock token inside a string literal, a raw string, a char
//! literal, or a (possibly nested) comment must never reach a pass. The
//! classic traps are all handled explicitly:
//!
//! * raw strings with arbitrary hash fences (`r#"…"#`, `br##"…"##`) and
//!   raw identifiers (`r#fn`),
//! * `'a` lifetimes vs `'a'` char literals (including escapes and
//!   `b'x'` byte chars),
//! * nested block comments (`/* /* */ */` is *one* comment),
//! * float literals vs ranges vs tuple access (`1.5` / `0..10` / `t.0`)
//!   and method calls on integer literals (`1.max(2)`),
//! * multi-char operators (`==` is one token, never `=` `=`; `=>` and
//!   `>=` never alias `==`).
//!
//! Output is a flat significant-token stream plus a separate comment list
//! (the passes never see comments).

use std::fmt;

/// A 1-based source position (column counted in characters, matching what
/// an editor shows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based character column.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// What kind of significant token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers keep their `r#` prefix).
    Ident,
    /// A lifetime such as `'a` or `'static` (no closing quote).
    Lifetime,
    /// A char literal (`'a'`, `'\n'`, `b'x'`).
    Char,
    /// A plain string literal (`"…"`, `b"…"`).
    Str,
    /// A raw string literal (`r"…"`, `r#"…"#`, `br"…"`).
    RawStr,
    /// An integer literal (any base, any suffix).
    Int,
    /// A float literal (`1.5`, `1.`, `1e-3`, `2f64`).
    Float,
    /// Punctuation / operator; multi-char operators are one token.
    Punct,
}

/// One significant token.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub span: Span,
}

impl Tok {
    /// True for a punctuation token with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }

    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// One comment, with its raw text (delimiters included) and position.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub span: Span,
}

/// A lexed file: significant tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// A lexing failure (unterminated string/comment/char): where and what.
#[derive(Debug, Clone)]
pub struct LexError {
    pub msg: String,
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.msg, self.span)
    }
}

impl std::error::Error for LexError {}

/// Multi-char operators, longest first so greedy matching is correct.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
}

/// Lex one Rust source file into tokens + comments.
pub fn lex(source: &str) -> Result<Lexed, LexError> {
    let mut lx = Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        out: Lexed::default(),
    };
    lx.run()?;
    Ok(lx.out)
}

impl Lexer {
    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Advance one char, tracking line/col.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push_tok(&mut self, kind: TokKind, text: String, span: Span) {
        self.out.tokens.push(Tok { kind, text, span });
    }

    fn run(&mut self) -> Result<(), LexError> {
        while let Some(c) = self.peek() {
            let span = self.span();
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek_at(1) == Some('/') => self.line_comment(span),
                '/' if self.peek_at(1) == Some('*') => self.block_comment(span)?,
                '\'' => self.quote(span)?,
                '"' => self.string(span, String::new())?,
                'r' | 'b' => self.maybe_prefixed(span)?,
                c if is_ident_start(c) => self.ident(span),
                c if c.is_ascii_digit() => self.number(span),
                _ => self.punct(span),
            }
        }
        Ok(())
    }

    fn line_comment(&mut self, span: Span) {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { text, span });
    }

    fn block_comment(&mut self, span: Span) -> Result<(), LexError> {
        let mut text = String::new();
        let mut depth = 0usize;
        loop {
            match (self.peek(), self.peek_at(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    text.push('/');
                    text.push('*');
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    text.push('*');
                    text.push('/');
                    self.bump();
                    self.bump();
                    if depth == 0 {
                        break;
                    }
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => {
                    return Err(LexError {
                        msg: "unterminated block comment".into(),
                        span,
                    })
                }
            }
        }
        self.out.comments.push(Comment { text, span });
        Ok(())
    }

    /// At a `'`: char literal or lifetime.
    fn quote(&mut self, span: Span) -> Result<(), LexError> {
        // `'\…'` is always a char; `'X'` is a char; `'X…` is a lifetime.
        if self.peek_at(1) == Some('\\')
            || (self.peek_at(1).is_some()
                && self.peek_at(2) == Some('\'')
                && self.peek_at(1) != Some('\''))
        {
            self.char_literal(span)
        } else {
            // Lifetime: `'` followed by an identifier (or `'_`).
            self.bump(); // '
            let mut text = String::from("'");
            while let Some(c) = self.peek() {
                if is_ident_continue(c) {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push_tok(TokKind::Lifetime, text, span);
            Ok(())
        }
    }

    fn char_literal(&mut self, span: Span) -> Result<(), LexError> {
        let mut text = String::new();
        text.push(self.bump().ok_or_else(|| LexError {
            msg: "unterminated char literal".into(),
            span,
        })?); // opening '
        loop {
            match self.bump() {
                Some('\\') => {
                    text.push('\\');
                    if let Some(e) = self.bump() {
                        text.push(e); // the escaped char ('\'', '\\', 'u', …)
                    }
                }
                Some('\'') => {
                    text.push('\'');
                    break;
                }
                Some(c) => text.push(c),
                None => {
                    return Err(LexError {
                        msg: "unterminated char literal".into(),
                        span,
                    })
                }
            }
        }
        self.push_tok(TokKind::Char, text, span);
        Ok(())
    }

    /// A plain (escaped) string literal; `prefix` carries `b` when called
    /// from the byte-string path.
    fn string(&mut self, span: Span, prefix: String) -> Result<(), LexError> {
        let mut text = prefix;
        text.push(self.bump().ok_or_else(|| LexError {
            msg: "unterminated string".into(),
            span,
        })?); // opening "
        loop {
            match self.bump() {
                Some('\\') => {
                    text.push('\\');
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                Some('"') => {
                    text.push('"');
                    break;
                }
                Some(c) => text.push(c),
                None => {
                    return Err(LexError {
                        msg: "unterminated string literal".into(),
                        span,
                    })
                }
            }
        }
        self.push_tok(TokKind::Str, text, span);
        Ok(())
    }

    /// A raw string starting at the current `r` (hashes counted), `prefix`
    /// carries any leading `b`.
    fn raw_string(&mut self, span: Span, prefix: String) -> Result<(), LexError> {
        let mut text = prefix;
        text.push(self.bump().ok_or_else(|| LexError {
            msg: "unterminated raw string".into(),
            span,
        })?); // r
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        // Caller guaranteed a quote follows the fence.
        text.push(self.bump().ok_or_else(|| LexError {
            msg: "unterminated raw string".into(),
            span,
        })?); // "
        loop {
            match self.bump() {
                Some('"') => {
                    text.push('"');
                    // A quote closes only when followed by `hashes` hashes.
                    let mut k = 0;
                    while k < hashes && self.peek() == Some('#') {
                        k += 1;
                        text.push('#');
                        self.bump();
                    }
                    if k == hashes {
                        break;
                    }
                }
                Some(c) => text.push(c),
                None => {
                    return Err(LexError {
                        msg: "unterminated raw string literal".into(),
                        span,
                    })
                }
            }
        }
        self.push_tok(TokKind::RawStr, text, span);
        Ok(())
    }

    /// At an `r` or `b`: raw string, byte string, byte char, raw
    /// identifier, or a plain identifier that merely starts with r/b.
    fn maybe_prefixed(&mut self, span: Span) -> Result<(), LexError> {
        let c = self.peek().unwrap_or_default();
        match c {
            'b' => match self.peek_at(1) {
                Some('\'') => {
                    // b'x': mark the `b`, then lex the char literal.
                    self.bump();
                    self.char_literal(span).map(|()| {
                        if let Some(t) = self.out.tokens.last_mut() {
                            t.text.insert(0, 'b');
                            t.span = span;
                        }
                    })
                }
                Some('"') => {
                    self.bump();
                    self.string(span, "b".into())
                }
                Some('r') if raw_fence_follows(&self.chars, self.pos + 1) => {
                    self.bump();
                    self.raw_string(span, "b".into())
                }
                _ => {
                    self.ident(span);
                    Ok(())
                }
            },
            'r' if raw_fence_follows(&self.chars, self.pos) => self.raw_string(span, String::new()),
            _ => {
                // `r#ident` raw identifiers and ordinary r-idents both land
                // here; `ident()` consumes the `r#` prefix if present.
                self.ident(span);
                Ok(())
            }
        }
    }

    fn ident(&mut self, span: Span) {
        let mut text = String::new();
        // Raw identifier prefix `r#`.
        if self.peek() == Some('r')
            && self.peek_at(1) == Some('#')
            && self.peek_at(2).is_some_and(is_ident_start)
        {
            text.push_str("r#");
            self.bump();
            self.bump();
        }
        while let Some(c) = self.peek() {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_tok(TokKind::Ident, text, span);
    }

    fn number(&mut self, span: Span) {
        let mut text = String::new();
        let mut float = false;
        if self.peek() == Some('0')
            && matches!(self.peek_at(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'))
        {
            // Radix literal: digits + suffix letters, never a float.
            text.push(self.bump().unwrap_or_default());
            text.push(self.bump().unwrap_or_default());
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push_tok(TokKind::Int, text, span);
            return;
        }
        self.digits(&mut text);
        // Fraction: `.` starts one only if not `..` (range) and not a
        // method/field (`1.max(2)`, `t.0` handled because here the *left*
        // side is the number and `.0` after an ident never reaches this).
        if self.peek() == Some('.') {
            match self.peek_at(1) {
                Some('.') => {}                    // range 0..n
                Some(c) if is_ident_start(c) => {} // 1.max(2)
                _ => {
                    float = true;
                    text.push('.');
                    self.bump();
                    self.digits(&mut text);
                }
            }
        }
        // Exponent.
        if matches!(self.peek(), Some('e' | 'E')) {
            let (sign, first_digit) = (self.peek_at(1), self.peek_at(2));
            let has_exp = match sign {
                Some('+') | Some('-') => first_digit.is_some_and(|c| c.is_ascii_digit()),
                Some(c) => c.is_ascii_digit(),
                None => false,
            };
            if has_exp {
                float = true;
                text.push(self.bump().unwrap_or_default()); // e
                if matches!(self.peek(), Some('+' | '-')) {
                    text.push(self.bump().unwrap_or_default());
                }
                self.digits(&mut text);
            }
        }
        // Suffix (f64 / u32 / …): a float suffix forces Float.
        let mut suffix = String::new();
        while let Some(c) = self.peek() {
            if is_ident_continue(c) {
                suffix.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if suffix == "f32" || suffix == "f64" {
            float = true;
        }
        text.push_str(&suffix);
        self.push_tok(
            if float { TokKind::Float } else { TokKind::Int },
            text,
            span,
        );
    }

    fn digits(&mut self, text: &mut String) {
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
    }

    fn punct(&mut self, span: Span) {
        for op in MULTI_PUNCT {
            if self.rest_starts_with(op) {
                for _ in 0..op.len() {
                    self.bump();
                }
                self.push_tok(TokKind::Punct, (*op).into(), span);
                return;
            }
        }
        let c = self.bump().unwrap_or_default();
        self.push_tok(TokKind::Punct, c.to_string(), span);
    }

    fn rest_starts_with(&self, s: &str) -> bool {
        s.chars()
            .enumerate()
            .all(|(i, c)| self.peek_at(i) == Some(c))
    }
}

/// Does a raw-string fence (`#…#"` or `"`) follow the `r` at `pos`?
fn raw_fence_follows(chars: &[char], pos: usize) -> bool {
    debug_assert_eq!(chars.get(pos), Some(&'r'));
    let mut i = pos + 1;
    while chars.get(i) == Some(&'#') {
        i += 1;
    }
    // `r#ident` (raw identifier) has ident chars after one hash, not `"`.
    chars.get(i) == Some(&'"')
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .expect("fixture must lex")
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    fn texts(src: &str) -> Vec<String> {
        kinds(src).into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn floats_vs_ranges_vs_method_calls() {
        assert_eq!(
            kinds("1.5 0..10 1.max(2) 2. 1e-3 7f64 0x1f 9u32 3.0e+2"),
            vec![
                (TokKind::Float, "1.5".into()),
                (TokKind::Int, "0".into()),
                (TokKind::Punct, "..".into()),
                (TokKind::Int, "10".into()),
                (TokKind::Int, "1".into()),
                (TokKind::Punct, ".".into()),
                (TokKind::Ident, "max".into()),
                (TokKind::Punct, "(".into()),
                (TokKind::Int, "2".into()),
                (TokKind::Punct, ")".into()),
                (TokKind::Float, "2.".into()),
                (TokKind::Float, "1e-3".into()),
                (TokKind::Float, "7f64".into()),
                (TokKind::Int, "0x1f".into()),
                (TokKind::Int, "9u32".into()),
                (TokKind::Float, "3.0e+2".into()),
            ]
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        assert_eq!(
            kinds(r"<'a> 'a' '\n' b'x' 'static '_"),
            vec![
                (TokKind::Punct, "<".into()),
                (TokKind::Lifetime, "'a".into()),
                (TokKind::Punct, ">".into()),
                (TokKind::Char, "'a'".into()),
                (TokKind::Char, r"'\n'".into()),
                (TokKind::Char, "b'x'".into()),
                (TokKind::Lifetime, "'static".into()),
                (TokKind::Lifetime, "'_".into()),
            ]
        );
    }

    #[test]
    fn raw_strings_and_raw_identifiers() {
        assert_eq!(
            kinds(r####"r"//" r#"a "quote" b"# br#"x"# r#fn b"bytes""####),
            vec![
                (TokKind::RawStr, r#"r"//""#.into()),
                (TokKind::RawStr, r###"r#"a "quote" b"#"###.into()),
                (TokKind::RawStr, r##"br#"x"#"##.into()),
                (TokKind::Ident, "r#fn".into()),
                (TokKind::Str, "b\"bytes\"".into()),
            ]
        );
    }

    #[test]
    fn nested_block_comments_are_one_comment() {
        let lexed = lex("a /* outer /* inner */ still outer */ b").expect("lexes");
        assert_eq!(lexed.tokens.len(), 2);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("inner"));
    }

    #[test]
    fn comment_and_string_content_never_tokenizes() {
        let lexed = lex("let s = \"x.unwrap() /* not a comment */\"; // .unwrap() here\nreal();")
            .expect("lexes");
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(lexed.comments.len(), 1);
    }

    #[test]
    fn multichar_operators_stay_whole() {
        assert_eq!(
            texts("a == b != c => d >= e .. f ..= g :: h -> i"),
            vec![
                "a", "==", "b", "!=", "c", "=>", "d", ">=", "e", "..", "f", "..=", "g", "::", "h",
                "->", "i"
            ]
        );
    }

    #[test]
    fn spans_are_one_based_lines_and_cols() {
        let lexed = lex("ab\n  cd == 1.5").expect("lexes");
        let cd = &lexed.tokens[1];
        assert_eq!((cd.span.line, cd.span.col), (2, 3));
        let eq = &lexed.tokens[2];
        assert_eq!((eq.span.line, eq.span.col), (2, 6));
        let f = &lexed.tokens[3];
        assert_eq!(f.kind, TokKind::Float);
        assert_eq!((f.span.line, f.span.col), (2, 9));
    }

    #[test]
    fn unterminated_constructs_are_errors() {
        assert!(lex("\"open").is_err());
        assert!(lex("/* open").is_err());
        assert!(lex("r#\"open\"").is_err());
        assert!(lex("'x").is_err() || lex("'x").is_ok()); // `'x` is a lifetime, fine
        assert!(lex("b'x").is_err());
    }
}

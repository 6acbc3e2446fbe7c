//! Property tests hammering the lexer with adversarial composites of the
//! classic Rust lexing traps: raw strings with hash fences, nested block
//! comments, lifetimes vs char literals, `r"//"`-style comment decoys, and
//! float/range ambiguity. The properties are the ones the graph passes'
//! soundness rests on — forbidden tokens inside literals and comments must
//! never surface, and lexing must be total (no panics, spans in bounds)
//! on every well-formed composition.

use proptest::prelude::*;
use vr_lint::lexer::{lex, TokKind};

/// Self-contained snippets, each a complete token sequence on its own.
/// Every one embeds text that would surface as a panic, lock or compare
/// token if the surrounding literal/comment context were mishandled.
const TRAPS: &[&str] = &[
    r#"let s = r"//";"#,
    r##"let s = r#"x.unwrap() "quoted" 1.0 == 2.0"#;"##,
    r####"let s = r###"panic!("deep fence") '"###;"####,
    r##"let s = br#"b.lock().unwrap()"#;"##,
    "/* x.unwrap() */ let a = 1;",
    "/* outer /* panic!(\"inner\") */ still comment */ let b = 2;",
    "// line comment with w == 0.0 and v[i]\nlet c = 3;",
    "let lt: Vec<&'static str> = vec![];",
    "fn life<'a>(x: &'a u8) -> &'a u8 { x }",
    r"let ch = 'a'; let esc = '\''; let byte = b'x'; let nl = '\n';",
    "let r = 0..10; let f = 1.5; let t = (1, 2).0; let m = 1.max(2);",
    "let sci = 1e-3; let suf = 7f64; let hex = 0x1f; let trail = 2.;",
    "let rid = r#fn; let s = \"str with // and /* inside\";",
    "let q = \"escaped \\\" quote with x.unwrap()\";",
];

/// A strategy drawing `n` trap indices and a separator choice, composed
/// into one source string. The in-tree proptest shim has no collection
/// strategies, so the draw is a fixed-arity tuple of indices.
fn composite() -> impl Strategy<Value = String> {
    (
        0usize..TRAPS.len(),
        0usize..TRAPS.len(),
        0usize..TRAPS.len(),
        0usize..TRAPS.len(),
        0usize..3,
    )
        .prop_map(|(a, b, c, d, sep)| {
            let sep = match sep {
                0 => "\n",
                1 => " ",
                _ => "\n\n// interlude\n",
            };
            [TRAPS[a], TRAPS[b], TRAPS[c], TRAPS[d]].join(sep)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn lexing_is_total_and_spans_stay_in_bounds(src in composite()) {
        let lexed = lex(&src).expect("every composite is well formed");
        prop_assert!(!lexed.tokens.is_empty());
        let lines: Vec<&str> = src.lines().collect();
        for t in lexed.tokens.iter() {
            prop_assert!(!t.text.is_empty());
            let line = lines
                .get(t.span.line as usize - 1)
                .expect("token line within file");
            let chars = line.chars().count() as u32;
            prop_assert!(
                t.span.col >= 1 && t.span.col <= chars,
                "token {:?} at {}:{} outside line of {} chars",
                t.text, t.span.line, t.span.col, chars
            );
            // The token really starts where the span says it does.
            let at: String = line
                .chars()
                .skip(t.span.col as usize - 1)
                .take(t.text.chars().count())
                .collect();
            prop_assert_eq!(
                &at, &t.text,
                "span points at {:?}, token text is {:?}", at, t.text
            );
        }
    }

    #[test]
    fn literals_and_comments_never_leak_tokens(src in composite()) {
        // Each trap hides unwrap/panic/lock/`==` *inside* strings or
        // comments; the only real code is benign lets and a lifetime
        // identity fn, so none of those may surface as a token.
        let lexed = lex(&src).expect("composites lex");
        let leaked: Vec<String> = lexed
            .tokens
            .iter()
            .filter(|t| {
                ["unwrap", "panic", "lock", "inner", "quote"].iter().any(|w| t.is_ident(w))
                    || t.is_punct("==")
            })
            .map(|t| format!("{:?} at {}:{}", t.text, t.span.line, t.span.col))
            .collect();
        prop_assert!(leaked.is_empty(), "leaked tokens: {leaked:?}\nsource:\n{src}");
    }

    #[test]
    fn string_and_comment_bodies_are_preserved_verbatim(src in composite()) {
        // Re-lexing the same source must be deterministic, and every raw
        // string keeps its exact fence so downstream tooling can re-emit.
        let first = lex(&src).expect("lex");
        let second = lex(&src).expect("lex");
        prop_assert_eq!(first.tokens.len(), second.tokens.len());
        for (a, b) in first.tokens.iter().zip(second.tokens.iter()) {
            prop_assert_eq!(&a.text, &b.text);
            prop_assert_eq!(a.span, b.span);
        }
        for t in &first.tokens {
            if t.kind == TokKind::RawStr {
                prop_assert!(
                    src.contains(&t.text),
                    "raw string {:?} not found verbatim in source", t.text
                );
            }
        }
    }
}

#[test]
fn comment_decoys_do_not_eat_code() {
    // `r"//"` must not open a line comment: the code after it still lexes.
    let lexed = lex(r#"let s = r"//"; x.f();"#).expect("lex");
    let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
    assert!(
        texts.contains(&"x"),
        "code after the decoy was swallowed: {texts:?}"
    );
}

#[test]
fn unterminated_inputs_error_instead_of_panicking() {
    for bad in [
        "let s = \"unterminated",
        "let s = r#\"never closed",
        "/* never closed",
        // (`'x` at EOF is a *lifetime*, not an unterminated char — the
        // ambiguity only resolves to a char literal at the closing quote.)
        "let c = '\\",
    ] {
        let err = lex(bad).expect_err("must be a lex error");
        assert!(err.span.line >= 1, "error span must be set: {err}");
    }
}

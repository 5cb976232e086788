//! Property test: the lexer takes any source without panicking, and its
//! tokens tile it — every byte lands in exactly one token or in the
//! whitespace between two, and each token carries the line it starts on.
//! The fragment pool leans into the hard cases: raw-string fences, nested
//! comments, chars vs lifetimes, multi-byte UTF-8, bare `r`/`b`/`#`
//! tokens and unterminated strings.

use kinet_lint::lexer::lex;
use proptest::prelude::*;

fn arb_source() -> impl Strategy<Value = String> {
    let fragment = prop::sample::select(vec![
        "fn main() {",
        "}",
        "// line comment with HashMap\n",
        "/* block /* nested */ done */",
        "let s = \"str with // not a comment\";",
        "let r = r#\"raw \" body\"#;",
        "let r2 = r\"no fence\";",
        "let by = b\"bytes\";",
        "let c = 'x';",
        "let nl = '\\n';",
        "fn f<'a>(v: &'a str) {}",
        "1.5e3_f32",
        "0xff_u8",
        "// ünïcode — em-dash\n",
        "let u = \"∀x\";",
        "Instant::now()",
        "vec![1, 2]",
        "unsafe {}",
        "\n",
        " ",
        "#",
        "#[derive(Debug)]",
        "r",
        "b",
        "br",
        "\"open",
    ]);
    prop::collection::vec(fragment, 0..24).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tokens_tile_the_source(src in arb_source()) {
        let mut rest = src.as_str();
        let mut line = 1;
        for tok in lex(&src) {
            let trimmed = rest.trim_start_matches(|c: char| c.is_ascii_whitespace());
            line += rest[..rest.len() - trimmed.len()].matches('\n').count();
            prop_assert!(trimmed.starts_with(&tok.text), "{:?} at {:?}", tok, trimmed);
            prop_assert_eq!(tok.line, line);
            line += tok.text.matches('\n').count();
            rest = &trimmed[tok.text.len()..];
        }
        prop_assert!(rest.trim().is_empty(), "untokenized tail {:?}", rest);
    }
}

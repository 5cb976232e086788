//! A hand-rolled Rust lexer, just deep enough for invariant linting.
//!
//! The rules in [`crate::rules`] match on *code* tokens — identifiers,
//! punctuation, literals — so a `HashMap` inside a doc comment or a
//! `"KINET_THREADS"` mention in a test-fixture string never produces a
//! false finding. The lexer therefore has to get exactly the hard parts of
//! Rust's surface syntax right: line and (nested) block comments, plain and
//! raw strings with arbitrary `#` fences, byte strings, char literals vs.
//! lifetimes, and multi-byte UTF-8 text.
//!
//! It is deliberately *not* a full grammar: numbers are lumped greedily,
//! keywords are ordinary identifiers, and every other byte is a single-char
//! punctuation token. That is enough to recognize every pattern the rules
//! hunt for while staying a few hundred lines of dependency-free code.

/// What a token is, as far as the lint rules care.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `unsafe`, `fn`, …).
    Ident,
    /// String or byte-string literal, plain or raw; `text` keeps the quotes.
    Str,
    /// Character literal (`'x'`, `'\n'`).
    Char,
    /// Lifetime (`'a`); kept distinct so `'x'` disambiguation is explicit.
    Lifetime,
    /// Numeric literal, greedily lumped (`0xff`, `1.5e3` minus the sign).
    Num,
    /// `// …` comment (doc comments included), without the newline.
    LineComment,
    /// `/* … */` comment, nesting handled.
    BlockComment,
    /// Any other single character (`:`, `<`, `{`, …).
    Punct,
}

/// One lexed token with its location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// Kind of token.
    pub kind: TokKind,
    /// Raw source text of the token.
    pub text: String,
    /// 1-based line of the token's first byte.
    pub line: usize,
}

impl Token {
    /// `true` for an identifier with exactly this text.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// `true` for a punctuation token with exactly this character.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }

    /// `true` for a comment of either flavor.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// `true` for tokens the rules match on (everything but comments).
    pub fn is_code(&self) -> bool {
        !self.is_comment()
    }
}

/// Lexes a complete source file into tokens (comments included,
/// whitespace skipped — adjacency checks like `vec` `!` or `Instant` `::`
/// `now` see only meaningful tokens).
pub fn lex(src: &str) -> Vec<Token> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut line = 1usize;
    let bytes = src.as_bytes();
    while pos < bytes.len() {
        // Whitespace separates tokens but is not one.
        if bytes[pos].is_ascii_whitespace() {
            if bytes[pos] == b'\n' {
                line += 1;
            }
            pos += 1;
            continue;
        }
        let start = pos;
        let start_line = line;
        let kind = scan_one(src, &mut pos, &mut line);
        out.push(Token {
            kind,
            text: src[start..pos].to_string(),
            line: start_line,
        });
    }
    out
}

/// Scans the single token starting at `*pos`, advancing `pos` and `line`.
/// An unterminated string or block comment extends to end of input, so
/// the tail is always one well-defined token.
fn scan_one(src: &str, pos: &mut usize, line: &mut usize) -> TokKind {
    let bytes = src.as_bytes();
    let c = bytes[*pos];
    // Comments.
    if c == b'/' && peek(bytes, *pos + 1) == Some(b'/') {
        while *pos < bytes.len() && bytes[*pos] != b'\n' {
            *pos += 1;
        }
        return TokKind::LineComment;
    }
    if c == b'/' && peek(bytes, *pos + 1) == Some(b'*') {
        *pos += 2;
        let mut depth = 1usize;
        while *pos < bytes.len() && depth > 0 {
            if bytes[*pos] == b'/' && peek(bytes, *pos + 1) == Some(b'*') {
                depth += 1;
                *pos += 2;
            } else if bytes[*pos] == b'*' && peek(bytes, *pos + 1) == Some(b'/') {
                depth -= 1;
                *pos += 2;
            } else {
                if bytes[*pos] == b'\n' {
                    *line += 1;
                }
                *pos += advance_len(src, *pos);
            }
        }
        return TokKind::BlockComment;
    }
    // Raw / byte string prefixes: r" r#" br" br#" b" — checked before
    // identifiers so `r` and `b` do not lex as a plain ident.
    if let Some(len) = raw_prefix_len(bytes, *pos) {
        *pos += len;
        return scan_raw_string(src, pos, line);
    }
    if (c == b'"') || (c == b'b' && peek(bytes, *pos + 1) == Some(b'"')) {
        if c == b'b' {
            *pos += 1;
        }
        return scan_string(src, pos, line);
    }
    if c == b'b' && peek(bytes, *pos + 1) == Some(b'\'') {
        *pos += 1;
        return scan_char_or_lifetime(src, pos, line);
    }
    // Identifiers and keywords.
    if c.is_ascii_alphabetic() || c == b'_' {
        while *pos < bytes.len()
            && (bytes[*pos].is_ascii_alphanumeric() || bytes[*pos] == b'_' || bytes[*pos] >= 0x80)
        {
            *pos += advance_len(src, *pos);
        }
        return TokKind::Ident;
    }
    // Numbers (greedy lump: hex, suffixes, float dots).
    if c.is_ascii_digit() {
        while *pos < bytes.len()
            && (bytes[*pos].is_ascii_alphanumeric() || bytes[*pos] == b'_' || bytes[*pos] == b'.')
        {
            *pos += 1;
        }
        return TokKind::Num;
    }
    // Char literal or lifetime.
    if c == b'\'' {
        return scan_char_or_lifetime(src, pos, line);
    }
    // Single punctuation character (multi-byte UTF-8 safe; ASCII
    // whitespace never reaches here — the caller skips it).
    *pos += advance_len(src, *pos);
    TokKind::Punct
}

/// Byte length of the char starting at `pos` (1 for ASCII).
fn advance_len(src: &str, pos: usize) -> usize {
    let b = src.as_bytes()[pos];
    if b < 0x80 {
        1
    } else {
        src[pos..].chars().next().map(char::len_utf8).unwrap_or(1)
    }
}

fn peek(bytes: &[u8], pos: usize) -> Option<u8> {
    bytes.get(pos).copied()
}

/// Length of a raw-string opener (`r"`, `r###"`, `br#"`) at `pos`, if one
/// starts there. Returns the length up to but not including the quote.
fn raw_prefix_len(bytes: &[u8], pos: usize) -> Option<usize> {
    let mut p = pos;
    if peek(bytes, p) == Some(b'b') {
        p += 1;
    }
    if peek(bytes, p) != Some(b'r') {
        return None;
    }
    p += 1;
    while peek(bytes, p) == Some(b'#') {
        p += 1;
    }
    if peek(bytes, p) == Some(b'"') {
        Some(p - pos)
    } else {
        None
    }
}

/// Scans a raw string; `pos` sits on the opening quote with the fence
/// hashes immediately before it.
fn scan_raw_string(src: &str, pos: &mut usize, line: &mut usize) -> TokKind {
    let bytes = src.as_bytes();
    // Count the fence by walking back over the hashes just consumed.
    let mut hashes = 0usize;
    let mut back = *pos;
    while back > 0 && bytes[back - 1] == b'#' {
        hashes += 1;
        back -= 1;
    }
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    while *pos < bytes.len() {
        if bytes[*pos] == b'"' {
            let mut p = *pos + 1;
            let mut seen = 0usize;
            while seen < hashes && peek(bytes, p) == Some(b'#') {
                seen += 1;
                p += 1;
            }
            if seen == hashes {
                *pos = p;
                return TokKind::Str;
            }
        }
        if bytes[*pos] == b'\n' {
            *line += 1;
        }
        *pos += advance_len(src, *pos);
    }
    TokKind::Str // unterminated: extends to end of input
}

/// Scans a plain (escaped) string; `pos` sits on the opening quote.
fn scan_string(src: &str, pos: &mut usize, line: &mut usize) -> TokKind {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'\\' => {
                *pos += 1;
                if *pos < bytes.len() {
                    if bytes[*pos] == b'\n' {
                        *line += 1;
                    }
                    *pos += advance_len(src, *pos);
                }
            }
            b'"' => {
                *pos += 1;
                return TokKind::Str;
            }
            b'\n' => {
                *line += 1;
                *pos += 1;
            }
            _ => *pos += advance_len(src, *pos),
        }
    }
    TokKind::Str // unterminated
}

/// Scans either a char literal (`'x'`, `'\u{1f600}'`) or a lifetime
/// (`'static`); `pos` sits on the quote.
fn scan_char_or_lifetime(src: &str, pos: &mut usize, line: &mut usize) -> TokKind {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes[*pos], b'\'');
    let after = *pos + 1;
    // Lifetime: quote, ident-start, ident-continue*, and *no* closing quote.
    if after < bytes.len() && (bytes[after].is_ascii_alphabetic() || bytes[after] == b'_') {
        let mut p = after;
        while p < bytes.len() && (bytes[p].is_ascii_alphanumeric() || bytes[p] == b'_') {
            p += 1;
        }
        if peek(bytes, p) != Some(b'\'') {
            *pos = p;
            return TokKind::Lifetime;
        }
    }
    // Char literal: consume up to the closing quote, honoring escapes.
    *pos += 1;
    if peek(bytes, *pos) == Some(b'\\') {
        *pos += 1;
        if *pos < bytes.len() {
            *pos += advance_len(src, *pos);
        }
        // `\u{...}` payload.
        while *pos < bytes.len() && bytes[*pos] != b'\'' && bytes[*pos] != b'\n' {
            *pos += advance_len(src, *pos);
        }
    } else if *pos < bytes.len() {
        if bytes[*pos] == b'\n' {
            *line += 1;
        }
        *pos += advance_len(src, *pos);
    }
    if peek(bytes, *pos) == Some(b'\'') {
        *pos += 1;
    }
    TokKind::Char
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_are_not_code() {
        let toks = lex("a // HashMap\n/* unsafe /* nested */ still */ b");
        let code: Vec<&Token> = toks.iter().filter(|t| t.is_code()).collect();
        let idents: Vec<&str> = code
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["a", "b"]);
        assert!(toks.iter().any(|t| t.kind == TokKind::LineComment));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::BlockComment && t.text.contains("nested")));
    }

    #[test]
    fn strings_swallow_their_contents() {
        let cases = [
            r#"let s = "un*safe // not a comment";"#,
            r##"let s = r#"raw "quoted" body"#;"##,
            r#"let s = b"bytes";"#,
            "let s = r\"no hashes\";",
        ];
        for src in cases {
            let toks = lex(src);
            assert_eq!(
                toks.iter().filter(|t| t.kind == TokKind::Str).count(),
                1,
                "{src}"
            );
            assert!(
                !toks.iter().any(|t| t.is_comment()),
                "string body leaked a comment: {src}"
            );
        }
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds(r"let c: char = 'x'; fn f<'a>(v: &'a str) { let q = '\''; }");
        let chars = toks.iter().filter(|(k, _)| *k == TokKind::Char).count();
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(chars, 2);
        assert_eq!(lifetimes, ["'a", "'a"]);
    }

    #[test]
    fn line_numbers_track_all_token_forms() {
        let src = "a\n\"two\nline\"\n/* c\nc */ b\n";
        let toks = lex(src);
        let find = |text: &str| toks.iter().find(|t| t.text == text).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("\"two\nline\""), 2);
        assert_eq!(find("b"), 5);
    }

    #[test]
    fn multibyte_text_lexes_cleanly() {
        let toks = lex("// em — dash\nlet s = \"∀x\"; // ünïcode");
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
        assert!(toks.iter().filter(|t| t.is_comment()).count() == 2);
    }

    #[test]
    fn unterminated_forms_extend_to_eof() {
        assert_eq!(lex("\"open").len(), 1);
        assert_eq!(lex("/* open").len(), 1);
        assert_eq!(lex("r#\"open\"").len(), 1);
    }
}

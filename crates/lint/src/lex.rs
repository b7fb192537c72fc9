//! A lightweight Rust tokenizer, sufficient for the invariant rules.
//!
//! This is not a full lexer: it only has to tell identifiers, punctuation
//! and literals apart, skip the insides of strings and comments (so that
//! `".unwrap("` inside a string never matches a rule), track line numbers,
//! and surface line comments so the `lint: allow` escape hatch can be read
//! back out. Nested block comments, raw strings (`r#"…"#`), byte strings
//! and the lifetime-vs-char-literal ambiguity are all handled, because a
//! single mislexed quote would desynchronize everything after it.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`unwrap`, `match`, `HashMap`, `_`, …).
    Ident(String),
    /// A single punctuation character (`.`, `[`, `::` arrives as two `:`).
    Punct(char),
    /// A string, char, byte or numeric literal (contents dropped).
    Literal,
    /// A lifetime such as `'a` (distinct from a char literal).
    Lifetime,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens outside comments and string/char literal bodies.
    pub tokens: Vec<Spanned>,
    /// Line comments as `(line, text-after-slashes)`, in order.
    pub comments: Vec<(u32, String)>,
}

impl Lexed {
    /// The identifier text of token `i`, if it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i) {
            Some(Spanned { tok: Tok::Ident(s), .. }) => Some(s),
            _ => None,
        }
    }

    /// `true` when token `i` is the punctuation `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i), Some(Spanned { tok: Tok::Punct(p), .. }) if *p == c)
    }
}

/// Lex `src` into tokens and line comments.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = String::from_utf8_lossy(&b[start..i]).into_owned();
                out.comments.push((line, text));
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comment.
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start_line = line;
                i = skip_string(b, i + 1, &mut line);
                out.tokens.push(Spanned { tok: Tok::Literal, line: start_line });
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let next = b.get(i + 1).copied();
                let after = b.get(i + 2).copied();
                let is_lifetime = matches!(next, Some(n) if n == b'_' || n.is_ascii_alphabetic())
                    && after != Some(b'\'');
                if is_lifetime {
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    out.tokens.push(Spanned { tok: Tok::Lifetime, line });
                } else {
                    let start_line = line;
                    i += 1;
                    while i < b.len() && b[i] != b'\'' {
                        if b[i] == b'\\' {
                            i += 1; // skip the escaped character
                        }
                        if i < b.len() && b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1; // closing quote
                    out.tokens.push(Spanned { tok: Tok::Literal, line: start_line });
                }
            }
            c if c.is_ascii_digit() => {
                i += 1;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric()
                        || b[i] == b'_'
                        // One decimal point, but never the `..` of a range.
                        || (b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit)))
                {
                    i += 1;
                }
                out.tokens.push(Spanned { tok: Tok::Literal, line });
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                let ident = &src[start..i];
                // A string-prefix identifier glued to a quote starts a
                // (possibly raw) string or byte-char literal.
                if matches!(ident, "r" | "b" | "br" | "c" | "cr") {
                    match b.get(i).copied() {
                        Some(b'"') => {
                            let start_line = line;
                            if ident.contains('r') {
                                i = skip_raw_string(b, i, &mut line);
                            } else {
                                i = skip_string(b, i + 1, &mut line);
                            }
                            out.tokens.push(Spanned { tok: Tok::Literal, line: start_line });
                            continue;
                        }
                        Some(b'#') if ident.contains('r') => {
                            let start_line = line;
                            i = skip_raw_string(b, i, &mut line);
                            out.tokens.push(Spanned { tok: Tok::Literal, line: start_line });
                            continue;
                        }
                        Some(b'\'') if ident == "b" => {
                            let start_line = line;
                            i += 1; // opening quote
                            while i < b.len() && b[i] != b'\'' {
                                if b[i] == b'\\' {
                                    i += 1;
                                }
                                i += 1;
                            }
                            i += 1;
                            out.tokens.push(Spanned { tok: Tok::Literal, line: start_line });
                            continue;
                        }
                        _ => {}
                    }
                }
                out.tokens.push(Spanned { tok: Tok::Ident(ident.to_owned()), line });
            }
            c => {
                out.tokens.push(Spanned { tok: Tok::Punct(c as char), line });
                i += 1;
            }
        }
    }
    out
}

/// Skip a normal (escaped) string body; `i` points just past the opening
/// quote. Returns the index just past the closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() && b[i] != b'"' {
        if b[i] == b'\\' {
            i += 1; // skip the escaped character
        }
        if i < b.len() && b[i] == b'\n' {
            *line += 1;
        }
        i += 1;
    }
    i + 1
}

/// Skip a raw string starting at `i` (pointing at `#` or `"` after the `r`
/// prefix). Returns the index just past the closing delimiter.
fn skip_raw_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i < b.len() && b[i] == b'"' {
        i += 1;
    }
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"'
            && b[i + 1..].len() >= hashes
            && b[i + 1..i + 1 + hashes].iter().all(|&h| h == b'#')
        {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    i
}

/// Line ranges (inclusive) covered by `#[cfg(test)]` items — test modules
/// and test-only functions are exempt from the unit and lock rules.
pub fn test_line_ranges(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // Match `# [ cfg ( test ) ]`.
        let is_cfg_test = lexed.is_punct(i, '#')
            && lexed.is_punct(i + 1, '[')
            && lexed.ident(i + 2) == Some("cfg")
            && lexed.is_punct(i + 3, '(')
            && lexed.ident(i + 4) == Some("test")
            && lexed.is_punct(i + 5, ')')
            && lexed.is_punct(i + 6, ']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let mut j = i + 7;
        // Skip any further attributes on the same item.
        while lexed.is_punct(j, '#') && lexed.is_punct(j + 1, '[') {
            let mut depth = 0i32;
            j += 1;
            while j < toks.len() {
                if lexed.is_punct(j, '[') {
                    depth += 1;
                } else if lexed.is_punct(j, ']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // The item body is the next braced block (or the item ends at `;`).
        let mut end_line = start_line;
        while j < toks.len() {
            if lexed.is_punct(j, ';') {
                end_line = toks[j].line;
                break;
            }
            if lexed.is_punct(j, '{') {
                let mut depth = 0i32;
                while j < toks.len() {
                    if lexed.is_punct(j, '{') {
                        depth += 1;
                    } else if lexed.is_punct(j, '}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                end_line = toks.get(j).map_or(start_line, |t| t.line);
                break;
            }
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j.max(i + 1);
    }
    ranges
}

/// `true` when `line` falls inside any of the `ranges`.
pub fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|s| match s.tok {
                Tok::Ident(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r###"
            let a = ".unwrap("; // .expect( in a comment
            /* .unwrap( in a block /* nested */ comment */
            let b = r#"raw .unwrap( body"#;
            let c = b"bytes .unwrap(";
        "###;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "unwrap" || i == "expect"), "{ids:?}");
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nfoo();\n";
        let lexed = lex(src);
        let foo = lexed
            .tokens
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(i) if i == "foo"))
            .map(|t| t.line);
        assert_eq!(foo, Some(3));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lexed = lex(src);
        let lifetimes = lexed.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        assert_eq!(lifetimes, 2);
        // The trailing 'x' is a literal, and `str`/`char` survive as idents.
        assert!(idents(src).iter().any(|i| i == "char"));
    }

    #[test]
    fn escaped_quotes_do_not_desync() {
        let src = r#"let s = "a\"b"; let t = unwrap_me;"#;
        assert!(idents(src).iter().any(|i| i == "unwrap_me"));
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let src = "foo();\n// lint: allow(unit, \"safe\")\nbar();\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].0, 2);
        assert!(lexed.comments[0].1.contains("lint: allow"));
    }

    #[test]
    fn numeric_ranges_lex_cleanly() {
        let src = "for i in 0..10 { x(1.5); }";
        let lexed = lex(src);
        // `0..10` must produce two literals and two dots, not eat the range.
        let dots = lexed.tokens.iter().filter(|t| t.tok == Tok::Punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn cfg_test_ranges_cover_module_bodies() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
fn also_prod() {}
";
        let lexed = lex(src);
        let ranges = test_line_ranges(&lexed);
        assert_eq!(ranges.len(), 1);
        assert!(in_ranges(&ranges, 5));
        assert!(!in_ranges(&ranges, 1));
        assert!(!in_ranges(&ranges, 7));
    }
}

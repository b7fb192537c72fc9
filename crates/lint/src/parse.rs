//! A lightweight `fn`-item parser on top of [`crate::lex`].
//!
//! This is not a full Rust parser: it recovers exactly the structure the
//! lock rule needs — every `fn` item with its body token span and whether
//! it is test code — while staying dependency-free. Constructs it does not
//! model degrade gracefully: a `fn $name` inside `macro_rules!` is simply
//! not an item.

use crate::lex::{in_ranges, Lexed, Tok};

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, exclusive of the braces. `None` for
    /// bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// `true` when the fn sits inside a `#[cfg(test)]` range.
    pub is_test: bool,
}

/// The parsed structure of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnInfo>,
}

/// Parse one lexed file into its `fn` items.
pub fn parse_file(lexed: &Lexed, tests: &[(u32, u32)]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut depth = 0i32;
    // Open bodies, innermost last: (fn index, brace depth outside the body).
    let mut open: Vec<(usize, i32)> = Vec::new();
    // The fn whose signature is being scanned: (fn index, paren depth).
    let mut pending: Option<(usize, i32)> = None;
    for (i, t) in lexed.tokens.iter().enumerate() {
        if let Some((fidx, ref mut paren)) = pending {
            match &t.tok {
                Tok::Punct('(') => *paren += 1,
                Tok::Punct(')') => *paren -= 1,
                // Bodyless trait-method declaration.
                Tok::Punct(';') if *paren == 0 => pending = None,
                Tok::Punct('{') if *paren == 0 => {
                    if let Some(f) = out.fns.get_mut(fidx) {
                        f.body = Some((i + 1, i + 1));
                    }
                    open.push((fidx, depth));
                    depth += 1;
                    pending = None;
                }
                _ => {}
            }
            continue;
        }
        match &t.tok {
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(name) = lexed.ident(i + 1) {
                    out.fns.push(FnInfo {
                        name: name.to_owned(),
                        line: t.line,
                        body: None,
                        is_test: in_ranges(tests, t.line),
                    });
                    pending = Some((out.fns.len() - 1, 0));
                }
            }
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if let Some(&(fidx, d)) = open.last() {
                    if d == depth {
                        if let Some(f) = out.fns.get_mut(fidx) {
                            f.body = f.body.map(|(start, _)| (start, i));
                        }
                        open.pop();
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex, test_line_ranges};

    fn parse(src: &str) -> ParsedFile {
        let lexed = lex(src);
        let tests = test_line_ranges(&lexed);
        parse_file(&lexed, &tests)
    }

    #[test]
    fn macro_rules_bodies_do_not_create_fn_items() {
        let src = "\
macro_rules! getter {
    ($name:ident) => {
        fn $name() {}
    };
}
fn real() {}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn bodyless_trait_decls_have_no_body() {
        let src = "trait T { fn required(&self) -> u8; fn provided(&self) {} }";
        let p = parse(src);
        assert_eq!(p.fns[0].body, None);
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn fn_pointer_types_in_a_signature_are_not_items() {
        let src = "fn apply(f: fn(u8) -> u8, x: u8) -> u8 { f(x) }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "apply");
    }

    #[test]
    fn nested_fn_bodies_close_inside_the_outer_body() {
        let src = "\
fn outer() {
    fn inner() { deep_call(); }
    outer_call();
}
";
        let p = parse(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        let (os, oe) = outer.body.unwrap();
        let (is, ie) = inner.body.unwrap();
        assert!(os < is && ie < oe, "{outer:?} {inner:?}");
    }

    /// The token at `i` of `src`'s lexed stream.
    fn tok_at(src: &str, i: usize) -> Tok {
        lex(src).tokens[i].tok.clone()
    }

    #[test]
    fn fn_lines_are_the_lines_of_the_fn_keyword() {
        let src = "\
/// Docs.
#[inline]
pub(crate) async unsafe
fn spread(
    x: u8,
) {}
const fn second() {}
";
        let p = parse(src);
        let lines: Vec<(&str, u32)> = p.fns.iter().map(|f| (f.name.as_str(), f.line)).collect();
        assert_eq!(lines, [("spread", 4), ("second", 7)]);
    }

    #[test]
    fn body_span_lies_between_the_braces() {
        let src = "fn f(a: u8) -> u8 { let b = a; b }";
        let p = parse(src);
        let (start, end) = p.fns[0].body.unwrap();
        assert_eq!(tok_at(src, start - 1), Tok::Punct('{'));
        assert_eq!(tok_at(src, end), Tok::Punct('}'));
        assert_eq!(end - start, 6, "let b = a ; b");
        let empty = parse("fn e() {}");
        let (s, e) = empty.fns[0].body.unwrap();
        assert_eq!(s, e, "an empty body is an empty span");
    }

    #[test]
    fn generics_and_where_clauses_reach_the_body() {
        let src = "\
fn apply<F, T>(f: F, x: T) -> T
where
    F: Fn(T) -> T,
{
    f(x)
}
fn next() {}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        let (start, end) = p.fns[0].body.unwrap();
        assert_eq!(end - start, 4, "f ( x )");
        assert_eq!(p.fns[1].name, "next");
    }

    #[test]
    fn blocks_closures_and_braces_in_strings_stay_inside_the_body() {
        let src = "\
fn busy(v: &[u8]) -> usize {
    let s = \"}}{\";
    let n = v.iter().map(|x| { *x as usize }).sum::<usize>();
    match n { 0 => { 1 } _ => n }
}
fn after() {}
";
        let p = parse(src);
        let (_, end) = p.fns[0].body.unwrap();
        let lexed = lex(src);
        assert_eq!(lexed.tokens[end].line, 5, "the body closes on the fn's last line");
        assert_eq!(p.fns[1].name, "after");
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn impl_and_trait_methods_are_items_in_source_order() {
        let src = "\
struct S;
impl S {
    fn one(&self) {}
    pub fn two() -> Self { S }
}
trait T { fn three(&self) { } fn four(&self); }
";
        let names: Vec<String> = parse(src).fns.into_iter().map(|f| f.name).collect();
        assert_eq!(names, ["one", "two", "three", "four"]);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
        let p = parse(src);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }
}

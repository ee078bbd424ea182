//! A lightweight token-level parser on top of [`crate::lexer`].
//!
//! The analyser (see [`crate::taint`]) needs more structure than lines:
//! function boundaries, parameter lists, `let` bindings and assignments
//! with their right-hand sides, and delimiter matching for call arguments,
//! conditions and index expressions. This module supplies
//! exactly that — a flat token stream per file (built from the lexer's
//! comment-stripped, string-blanked code channel, so tokens never come from
//! literal or comment text) plus function/binding extraction.
//!
//! It is deliberately *not* a Rust grammar. Everything downstream is a
//! may-analysis: over-approximating an expression boundary costs a false
//! positive at worst (caught by the fixture self-test), never a panic.

use crate::lexer::ScannedFile;
use std::ops::Range;

/// One token: its 0-based source line and its text. Identifiers and number
/// literals are multi-char tokens; operators are greedily grouped (`==`,
/// `..=`, `<<=`, …); everything else is a single punctuation char.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// 0-based line index into the scanned file.
    pub line: usize,
    /// Token text.
    pub text: String,
}

impl Tok {
    /// Is this token an identifier or number (word-shaped)?
    pub fn is_word(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

/// Multi-char operators, longest first so greedy matching is correct.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Tokenize the code channel of a scanned file. String/char literal bodies
/// were already blanked by the lexer, so a string literal appears as the
/// two-char token `""` and contributes no identifiers.
pub fn tokenize(scan: &ScannedFile) -> Vec<Tok> {
    let mut out = Vec::new();
    for (line, code) in scan.code.iter().enumerate() {
        let bytes = code.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < bytes.len() && {
                    let c = bytes[i] as char;
                    c.is_alphanumeric() || c == '_'
                } {
                    i += 1;
                }
                out.push(Tok {
                    line,
                    text: code[start..i].to_string(),
                });
                continue;
            }
            if c == '"' && bytes.get(i + 1) == Some(&b'"') {
                // Blanked string literal.
                out.push(Tok {
                    line,
                    text: "\"\"".to_string(),
                });
                i += 2;
                continue;
            }
            if let Some(op) = OPERATORS.iter().find(|op| code[i..].starts_with(*op)) {
                out.push(Tok {
                    line,
                    text: (*op).to_string(),
                });
                i += op.len();
                continue;
            }
            let ch_len = code[i..].chars().next().map_or(1, char::len_utf8);
            out.push(Tok {
                line,
                text: code[i..i + ch_len].to_string(),
            });
            i += ch_len;
        }
    }
    out
}

/// Given `toks[open]` an opening delimiter (`(`, `[`, or `{`), return the
/// index of its matching close, or `toks.len()` if unbalanced.
pub fn matching_close(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open,
    };
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.text == o {
            depth += 1;
        } else if t.text == c {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// Scan forward from `i` for the first token equal to `what` at delimiter
/// depth 0 relative to `i` (parens, brackets, and braces all count).
/// Returns `toks.len()` if not found before `end`.
pub fn find_at_depth0(toks: &[Tok], i: usize, end: usize, what: &[&str]) -> usize {
    let mut depth = 0i32;
    for j in i..end.min(toks.len()) {
        let t = toks[j].text.as_str();
        // Match before adjusting depth, so a search for an opener (`{`)
        // finds it at the depth where it *starts* a group.
        if depth == 0 && what.contains(&t) {
            return j;
        }
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return toks.len();
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    toks.len()
}

/// A parsed function item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Parameter binding names (pattern identifiers, `self` excluded).
    pub params: Vec<String>,
    /// Token index range of the body, *inside* the braces.
    pub body: Range<usize>,
    /// Token index of the `fn` keyword.
    pub start: usize,
}

/// Extract every `fn` item (including nested ones — callers should mask
/// nested bodies out of enclosing ones via [`FnItem::body`] containment).
pub fn parse_fns(toks: &[Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if !name_tok.is_word() {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        // Skip generics to the parameter list.
        let mut j = i + 2;
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut angle = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    "(" => {
                        // `Fn(...)` bounds inside generics: skip the group.
                        j = matching_close(toks, j);
                    }
                    _ => {}
                }
                j += 1;
                if angle <= 0 {
                    break;
                }
            }
        }
        if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
            i += 1;
            continue;
        }
        let params_close = matching_close(toks, j);
        let params = param_names(&toks[j + 1..params_close.min(toks.len())]);
        // Find the body `{` (or `;` for a trait/extern declaration).
        let mut k = params_close + 1;
        let mut body = None;
        while k < toks.len() {
            match toks[k].text.as_str() {
                ";" => break,
                "(" | "[" => k = matching_close(toks, k),
                "{" => {
                    body = Some((k + 1)..matching_close(toks, k));
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if let Some(body) = body {
            let next = body.start;
            out.push(FnItem {
                name,
                params,
                body,
                start: i,
            });
            // Continue *inside* the body so nested fns are found too.
            i = next;
        } else {
            i = k;
        }
    }
    out
}

/// Words that appear in patterns/parameter lists but never bind values.
const PATTERN_KEYWORDS: &[&str] = &["mut", "ref", "box", "self", "dyn", "impl", "_"];

/// Extract binding names from a parameter token slice: identifiers at
/// paren/bracket depth 0 that are directly followed by `:` (i.e. the
/// pattern side of `name: Type`), plus destructured names inside tuple
/// patterns (`(a, b): (T, U)`).
fn param_names(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    // `in_type` is true between a depth-0 `:` and the next depth-0 `,`.
    let mut in_type = false;
    for (j, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            ":" if depth == 0 => in_type = true,
            "," if depth == 0 => in_type = false,
            _ => {
                if !in_type
                    && t.is_word()
                    && !PATTERN_KEYWORDS.contains(&t.text.as_str())
                    && !t.text.chars().next().is_some_and(|c| c.is_uppercase())
                    && !t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && toks.get(j + 1).map(|n| n.text.as_str()) != Some("::")
                {
                    out.push(t.text.clone());
                }
            }
        }
    }
    out
}

/// Extract binding names from a pattern token slice (`let` patterns,
/// `for` patterns, `if let` patterns): lowercase identifiers that are not
/// keywords, not enum/struct constructors (uppercase), not paths.
pub fn pattern_names(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    for (j, t) in toks.iter().enumerate() {
        if !t.is_word() || PATTERN_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let first = t.text.chars().next().unwrap_or('_');
        if first.is_uppercase() || first.is_ascii_digit() {
            continue;
        }
        // Skip path segments (`std::mem`) and struct field labels
        // (`Foo { field: pat }` — the label is followed by `:`).
        if toks.get(j + 1).map(|n| n.text.as_str()) == Some("::")
            || (j > 0 && toks[j - 1].text == "::")
        {
            continue;
        }
        if toks.get(j + 1).map(|n| n.text.as_str()) == Some(":") {
            continue;
        }
        out.push(t.text.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::ScannedFile;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(&ScannedFile::scan(src))
    }

    #[test]
    fn tokenizes_operators_greedily() {
        let t = toks("a ..= b << c <<= d == e");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "..=", "b", "<<", "c", "<<=", "d", "==", "e"]);
    }

    #[test]
    fn strings_are_single_blank_tokens() {
        let t = toks("f(\"secret body\")");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["f", "(", "\"\"", ")"]);
    }

    #[test]
    fn lines_tracked() {
        let t = toks("a\nb\nc");
        assert_eq!(t[0].line, 0);
        assert_eq!(t[1].line, 1);
        assert_eq!(t[2].line, 2);
    }

    #[test]
    fn parses_simple_fn() {
        let t = toks("fn add(a: u32, b: u32) -> u32 { a + b }");
        let fns = parse_fns(&t);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "add");
        assert_eq!(fns[0].params, ["a", "b"]);
        let body: Vec<&str> = t[fns[0].body.clone()]
            .iter()
            .map(|x| x.text.as_str())
            .collect();
        assert_eq!(body, ["a", "+", "b"]);
    }

    #[test]
    fn parses_generic_fn_with_self() {
        let t = toks("impl X { fn go<T: Into<Vec<u8>>>(&mut self, seed: T) -> bool { true } }");
        let fns = parse_fns(&t);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "go");
        assert_eq!(fns[0].params, ["seed"]);
    }

    #[test]
    fn trait_decl_without_body_skipped() {
        let t = toks("trait T { fn a(&self); fn b(&self) -> u8 { 0 } }");
        let fns = parse_fns(&t);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "b");
    }

    #[test]
    fn nested_fn_found() {
        let t = toks("fn outer() { fn inner(x: u8) -> u8 { x } inner(1); }");
        let fns = parse_fns(&t);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        // inner's body is contained in outer's.
        assert!(fns[0].body.start <= fns[1].body.start && fns[1].body.end <= fns[0].body.end);
    }

    #[test]
    fn tuple_params_destructure() {
        let t = toks("fn f((a, b): (u8, u8)) -> u8 { a ^ b }");
        let fns = parse_fns(&t);
        assert_eq!(fns[0].params, ["a", "b"]);
    }

    #[test]
    fn pattern_names_skip_constructors_and_paths() {
        let t = toks("Some(x)");
        assert_eq!(pattern_names(&t), ["x"]);
        let t = toks("Foo { len: n, .. }");
        assert_eq!(pattern_names(&t), ["n"]);
        let t = toks("(a, mut b)");
        assert_eq!(pattern_names(&t), ["a", "b"]);
    }

    #[test]
    fn matching_close_finds_balance() {
        let t = toks("f(a[1], g(2))");
        assert_eq!(matching_close(&t, 1), t.len() - 1);
    }
}

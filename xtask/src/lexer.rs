//! A minimal Rust surface scanner.
//!
//! Splits a source file into three per-line channels — *code* (which
//! [`crate::parse`] tokenizes), *comment* text (for `ct-ok:` suppressions
//! and SAFETY justifications) and *string-literal* text (for the
//! Debug-format sink) — and marks the lines that sit inside `#[cfg(test)]`
//! / `#[test]` regions, where the secret-value rules do not apply (tests may
//! compare and print freely).
//!
//! Hand-rolled on purpose: the linter must build with zero dependencies so
//! it runs in offline CI images that carry only the workspace itself.

/// Per-line decomposition of a source file.
pub struct ScannedFile {
    /// Code with comments removed and string/char literal *contents*
    /// blanked (the delimiting quotes remain so token shapes survive).
    pub code: Vec<String>,
    /// Comment text per line (both `//` and `/* */` bodies).
    pub comments: Vec<String>,
    /// String-literal contents per line (format strings live here).
    pub strings: Vec<String>,
    /// True for lines inside a `#[cfg(test)]` or `#[test]` region.
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

impl ScannedFile {
    /// Scan `src` into per-line code/comment/string channels.
    pub fn scan(src: &str) -> ScannedFile {
        let mut code = Vec::new();
        let mut comments = Vec::new();
        let mut strings = Vec::new();
        let mut cur_code = String::new();
        let mut cur_comment = String::new();
        let mut cur_string = String::new();
        let mut state = State::Code;
        let chars: Vec<char> = src.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            if c == '\n' {
                code.push(std::mem::take(&mut cur_code));
                comments.push(std::mem::take(&mut cur_comment));
                strings.push(std::mem::take(&mut cur_string));
                if state == State::LineComment {
                    state = State::Code;
                }
                i += 1;
                continue;
            }
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        cur_code.push('"');
                        state = State::Str;
                        i += 1;
                    }
                    'r' | 'b' if is_raw_string_start(&chars, i) => {
                        // r"..."  r#"..."#  br"..."  — count the hashes.
                        let mut j = i + 1;
                        if chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        cur_code.push('"');
                        state = State::RawStr(hashes);
                        i = j + 1;
                    }
                    '\'' => {
                        // Lifetime (`'a`) vs char literal (`'a'`): a lifetime
                        // is `'` + ident not followed by a closing quote.
                        let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                            && chars.get(i + 2) != Some(&'\'');
                        if is_lifetime {
                            cur_code.push('\'');
                            i += 1;
                        } else {
                            cur_code.push('\'');
                            state = State::Char;
                            i += 1;
                        }
                    }
                    _ => {
                        cur_code.push(c);
                        i += 1;
                    }
                },
                State::LineComment => {
                    cur_comment.push(c);
                    i += 1;
                }
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            // Keep token separation where the comment sat.
                            cur_code.push(' ');
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        cur_comment.push(c);
                        i += 1;
                    }
                }
                State::Str => match c {
                    '\\' => {
                        cur_string.push(c);
                        // An escaped newline (string line continuation) must
                        // not be consumed here: the physical line still ends,
                        // and the top-of-loop newline branch emits the line
                        // break. Consuming it desynchronizes every following
                        // line number (findings, fixtures, test masks).
                        if next == Some('\n') {
                            i += 1;
                        } else {
                            if let Some(n) = next {
                                cur_string.push(n);
                            }
                            i += 2;
                        }
                    }
                    '"' => {
                        cur_code.push('"');
                        state = State::Code;
                        i += 1;
                    }
                    _ => {
                        cur_string.push(c);
                        i += 1;
                    }
                },
                State::RawStr(hashes) => {
                    if c == '"' && raw_str_closes(&chars, i, hashes) {
                        cur_code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                    } else {
                        cur_string.push(c);
                        i += 1;
                    }
                }
                State::Char => match c {
                    '\\' => {
                        // Same escaped-newline guard as in strings: never
                        // consume a `\n` inside an escape skip.
                        i += if next == Some('\n') { 1 } else { 2 };
                    }
                    '\'' => {
                        cur_code.push('\'');
                        state = State::Code;
                        i += 1;
                    }
                    _ => {
                        i += 1;
                    }
                },
            }
        }
        code.push(cur_code);
        comments.push(cur_comment);
        strings.push(cur_string);
        let in_test = mark_test_regions(&code);
        ScannedFile {
            code,
            comments,
            strings,
            in_test,
        }
    }
}

/// Does position `i` (at `r` or `b`) start a raw string literal? Require the
/// previous char not be part of an identifier (`var` vs `r"..."`).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let p = chars[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) != Some(&'r') {
            return false;
        }
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Does the `"` at position `i` close a raw string with `hashes` hashes?
fn raw_str_closes(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Mark every line inside a `#[cfg(test)]` or `#[test]` item.
///
/// Brace-based: from the attribute, find the next `{` and mark lines until
/// its matching `}`. Attributes on items without braces (rare for tests)
/// simply mark through the next `;`.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut line = 0usize;
    while line < code.len() {
        let l = &code[line];
        if l.contains("#[cfg(test)]") || l.contains("#[test]") || l.contains("#[bench]") {
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = line;
            'outer: while j < code.len() {
                mask[j] = true;
                for ch in code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth -= 1;
                            if opened && depth <= 0 {
                                break 'outer;
                            }
                        }
                        ';' if !opened => break 'outer,
                        _ => {}
                    }
                }
                j += 1;
            }
            line = j + 1;
        } else {
            line += 1;
        }
    }
    mask
}

/// Split an identifier into lowercase words: `wire_label` → [wire, label],
/// `KkrtSenderKey` → [kkrt, sender, key].
pub fn ident_words(ident: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut cur = String::new();
    let mut prev_lower = false;
    for c in ident.chars() {
        if c == '_' {
            if !cur.is_empty() {
                words.push(std::mem::take(&mut cur));
            }
            prev_lower = false;
        } else if c.is_uppercase() {
            if prev_lower && !cur.is_empty() {
                words.push(std::mem::take(&mut cur));
            }
            cur.extend(c.to_lowercase());
            prev_lower = false;
        } else {
            cur.push(c);
            prev_lower = c.is_lowercase();
        }
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_strings() {
        let s = ScannedFile::scan("let x = \"secret text\"; // trailing\nlet y = 2; /* mid */ z");
        assert_eq!(s.code[0], "let x = \"\"; ");
        assert_eq!(s.comments[0], " trailing");
        assert_eq!(s.strings[0], "secret text");
        assert_eq!(s.code[1], "let y = 2;   z");
        assert_eq!(s.comments[1], " mid ");
    }

    #[test]
    fn raw_strings_and_chars() {
        let s =
            ScannedFile::scan("let a = r#\"raw \"inner\" body\"#; let c = '\"'; let l: &'a u8;");
        assert_eq!(s.code[0], "let a = \"\"; let c = '\'; let l: &'a u8;");
        assert_eq!(s.strings[0], "raw \"inner\" body");
    }

    #[test]
    fn byte_strings() {
        let s = ScannedFile::scan("h.update(b\"tag\"); let r = br\"raw\";");
        assert!(!s.strings[0].is_empty());
        assert!(!s.code[0].contains("tag"));
    }

    #[test]
    fn test_region_masking() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let s = ScannedFile::scan(src);
        assert_eq!(s.in_test, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn nested_block_comments() {
        let s = ScannedFile::scan("a /* x /* y */ z */ b");
        assert_eq!(s.code[0], "a   b");
    }

    /// Every scan must produce exactly one code/comment/string entry per
    /// source line — downstream line numbers (findings, `ct-expect:`
    /// fixtures) depend on it. Checks the channel lengths against the raw
    /// newline count.
    fn assert_line_sync(src: &str) {
        let want = src.split('\n').count();
        let s = ScannedFile::scan(src);
        assert_eq!(s.code.len(), want, "code lines desynced for {src:?}");
        assert_eq!(s.comments.len(), want, "comment lines desynced");
        assert_eq!(s.strings.len(), want, "string lines desynced");
    }

    #[test]
    fn string_line_continuation_keeps_line_sync() {
        // A `\` before the newline continues the string literal onto the
        // next line; the newline must still produce a line break in the
        // scanned channels.
        let src = "let a = \"x\\\ny\";\nlet seed = 1;\n";
        assert_line_sync(src);
        let s = ScannedFile::scan(src);
        // `let seed = 1;` must land on line 3 (index 2), not shift up.
        assert!(s.code[2].contains("seed"));
    }

    #[test]
    fn multi_line_raw_string_keeps_line_sync() {
        let src = "let a = r#\"one\ntwo\nthree\"#;\nlet key = 9;\n";
        assert_line_sync(src);
        let s = ScannedFile::scan(src);
        assert!(s.code[3].contains("key"));
        // The raw string body must live in the string channel, not code.
        assert!(s.strings[1].contains("two"));
        assert!(!s.code[1].contains("two"));
    }

    #[test]
    fn raw_string_with_comment_markers_inside() {
        let src = "let a = r#\"// not a comment /* nor this\"#; let b = 1;";
        let s = ScannedFile::scan(src);
        assert!(s.code[0].contains("let b = 1;"), "code: {:?}", s.code[0]);
        assert!(s.comments[0].is_empty());
    }

    #[test]
    fn two_raw_strings_one_line() {
        let s = ScannedFile::scan("f(r#\"a\"#, r\"b\"); g();");
        assert!(s.code[0].contains("g();"));
        assert_eq!(s.strings[0], "ab");
    }

    #[test]
    fn block_comment_with_quote_inside() {
        let src = "/* \"unclosed */ let x = 1;\nlet y = 2;\n";
        assert_line_sync(src);
        let s = ScannedFile::scan(src);
        assert!(s.code[0].contains("let x = 1;"));
    }

    #[test]
    fn string_with_comment_opener_inside() {
        let s = ScannedFile::scan("let s = \"/* //\"; let y = 2;");
        assert!(s.code[0].contains("let y = 2;"));
        assert!(s.comments[0].is_empty());
    }

    #[test]
    fn nested_block_comment_spanning_lines() {
        let src = "a /* x\n/* y\n*/ z\n*/ b\nc\n";
        assert_line_sync(src);
        let s = ScannedFile::scan(src);
        assert!(s.code[3].contains('b'));
        assert!(s.code[4].contains('c'));
        assert!(!s.code[2].contains('z'), "still inside depth-2 comment");
    }

    #[test]
    fn char_literal_escapes() {
        let src = "let a = '\\''; let b = '\\\\'; let c = '\\u{41}'; done();";
        let s = ScannedFile::scan(src);
        assert!(s.code[0].contains("done();"), "code: {:?}", s.code[0]);
    }

    #[test]
    fn raw_string_followed_by_line_comment() {
        let src = "let a = r\"body\"; // trailing seed note\nlet b = 1;\n";
        assert_line_sync(src);
        let s = ScannedFile::scan(src);
        assert!(s.comments[0].contains("trailing"));
        assert!(s.code[1].contains("let b"));
    }

    #[test]
    fn ident_word_split() {
        assert_eq!(ident_words("wire_label"), ["wire", "label"]);
        assert_eq!(ident_words("KkrtSenderKey"), ["kkrt", "sender", "key"]);
        assert_eq!(ident_words("SBOX"), ["sbox"]);
        assert_eq!(
            ident_words("input_zero_labels"),
            ["input", "zero", "labels"]
        );
    }
}

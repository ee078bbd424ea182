//! Lexer stress: raw strings, nested block comments, escaped quotes, and
//! string line-continuations must not desynchronize line tracking. The
//! seeded violation at the bottom only matches its annotation if every
//! line number above is exact, so any scanner desync fails the fixture
//! check as a false-positive/false-negative pair.

/// Raw strings may contain quote marks, comment markers, and words that
/// look like violations — all invisible to the lint.
pub fn raw_strings() -> usize {
    let a = r#"seed == key " // not a comment"#;
    let b = r##"nested "#raw"# body with if key == 0 {"##;
    a.len() + b.len()
}

/// Nested block comments must track depth, escaped quotes must not end
/// the string early, and a trailing backslash continues the string onto
/// the next line without eating the newline.
pub fn tricky_spans() -> usize {
    /* outer /* inner == key */ still a comment */
    let c = "escaped \" quote and line \
continuation";
    let d = 'x';
    c.len() + d as usize
}

/// The annotated violation: if any construct above shifted the line map,
/// this finding lands on the wrong line and the self-test fails.
pub fn seeded(key: u64, other: u64) -> bool {
    // ct-expect: EQ
    key == other
}

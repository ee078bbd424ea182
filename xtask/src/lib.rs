//! ct-lint: the secret-hygiene static analyser for the secyan workspace.
//!
//! Run as `cargo xtask ct-lint`. Walks every workspace source file through
//! the one pass in [`taint`] (rule catalogue: [`rules::RULES`]) and matches
//! the findings against the checked-in `ct-lint.allow` baseline at the repo
//! root: baselined findings are tolerated (they are reviewed, justified
//! exceptions — the software-AES table lookups, for instance), anything new
//! fails the run, and so does a baseline entry or an inline `ct-ok:`
//! comment that matches nothing. CI runs this as a required job, so the
//! baseline can only shrink silently, never grow.
//!
//! Self-test: `cargo xtask ct-lint --fixtures` lints the seeded-violation
//! tree in `tests/ct_lint_fixtures/` and checks every `ct-expect:`
//! annotation fired — and nothing else did. The same check runs under
//! `cargo test -p xtask`.

pub mod lexer;
pub mod parse;
pub mod sarif;
pub mod taint;

use rules::{Finding, DEAD_OK};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
pub use taint::lint_source;

/// Directories under the workspace root that hold lintable sources.
/// Outside `crates/` only UNSAFE applies (see [`taint`]).
const SOURCE_ROOTS: &[&str] = &["crates", "examples", "sybench", "tests", "xtask"];

/// Path fragments that are never linted (fixtures are linted only by the
/// fixtures mode; `target` holds build products).
const EXCLUDED: &[&str] = &["ct_lint_fixtures", "target"];

/// Recursively collect `.rs` files under `dir`, paths relative to `root`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if EXCLUDED.contains(&name) {
            continue;
        }
        if path.is_dir() {
            collect_rs(root, &path, out);
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
}

/// Every `.rs` file under `root/sub` as (path relative to `root` with `/`
/// separators, source text), in path order.
fn read_sources(root: &Path, sub: &str) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(root, &root.join(sub), &mut files);
    files
        .into_iter()
        .map(|rel| {
            let src = fs::read_to_string(root.join(&rel))?;
            Ok((
                rel.to_string_lossy()
                    .replace(std::path::MAIN_SEPARATOR, "/"),
                src,
            ))
        })
        .collect()
}

/// Lint the whole workspace tree rooted at `root`. Returns findings in
/// path/line order.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for sub in SOURCE_ROOTS {
        for (rel, src) in read_sources(root, sub)? {
            findings.extend(lint_source(&rel, &src));
        }
    }
    Ok(findings)
}

/// The code-line metric ROADMAP.md sizes every PR by: the lines of `src`
/// before its first line that starts with `#[cfg(test)]` and that are
/// neither blank nor `//` comments.
pub fn code_lines(src: &str) -> usize {
    src.lines()
        .map(str::trim_start)
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// [`code_lines`] of every `.rs` file under `root/sub`, summed per
/// directory one level below `sub` (per crate, for `crates`).
pub fn loc_by_dir(root: &Path, sub: &str) -> std::io::Result<BTreeMap<String, usize>> {
    let mut by_dir = BTreeMap::new();
    for (rel, src) in read_sources(root, sub)? {
        let dir = rel.split('/').nth(1).unwrap_or_default().to_string();
        *by_dir.entry(dir).or_default() += code_lines(&src);
    }
    Ok(by_dir)
}

/// Parse a baseline file into key → allowed-count.
pub fn parse_baseline(text: &str) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        *map.entry(line.to_string()).or_insert(0) += 1;
    }
    map
}

/// Result of matching findings against a baseline.
pub struct BaselineDiff {
    /// Findings not covered by the baseline — these fail the run.
    pub new: Vec<Finding>,
    /// Baseline keys that matched nothing — stale entries to prune.
    pub stale: Vec<String>,
}

/// Match `findings` against the baseline map.
pub fn diff_baseline(findings: Vec<Finding>, baseline: &BTreeMap<String, usize>) -> BaselineDiff {
    let mut budget = baseline.clone();
    let mut new = Vec::new();
    for f in findings {
        match budget.get_mut(&f.key()) {
            Some(n) if *n > 0 => *n -= 1,
            _ => new.push(f),
        }
    }
    let stale = budget
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|(k, _)| k)
        .collect();
    BaselineDiff { new, stale }
}

/// Serialize findings as a baseline file body. A dead `ct-ok:` comment is
/// never baselined: it is deleted, not tolerated.
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut out = String::from(
        "# ct-lint baseline: reviewed, justified findings the lint tolerates.\n\
         # One finding per line: rule<TAB>path<TAB>normalized snippet.\n\
         # Regenerate with `cargo xtask ct-lint --update-baseline`; new code\n\
         # must come in clean (or carry an inline `// ct-ok:` justification).\n",
    );
    for f in findings.iter().filter(|f| f.rule != DEAD_OK) {
        out.push_str(&f.key());
        out.push('\n');
    }
    out
}

/// Fixture check: lint every `.rs` file under `dir` and verify the
/// `ct-expect: <RULE>...` annotations. An annotation on line N expects each
/// named rule (or `DEAD-OK`) to fire on line N+1; any finding without a
/// matching annotation is an error (false positive), any annotation without
/// its finding is an error (false negative). Returns problem descriptions.
///
/// Paths are taken relative to `dir`, so the fixture tree mirrors the
/// workspace layout (`<dir>/crates/ot/src/...` lints with the scoping of
/// `crates/ot/src/...`).
pub fn check_fixtures(dir: &Path) -> std::io::Result<Vec<String>> {
    const EXPECT_TAG: &str = "ct-expect:";
    let sources = read_sources(dir, "")?;
    let mut problems = Vec::new();
    if sources.is_empty() {
        problems.push(format!("no fixture files found under {}", dir.display()));
    }
    for (rel, src) in sources {
        let scan = lexer::ScannedFile::scan(&src);
        let findings = lint_source(&rel, &src);
        // Gather expectations: (line, rule) pairs, where line is the line
        // *after* the annotation comment.
        let mut expected: Vec<(usize, String, bool)> = Vec::new();
        for (i, comment) in scan.comments.iter().enumerate() {
            if let Some(pos) = comment.find(EXPECT_TAG) {
                for rule in comment[pos + EXPECT_TAG.len()..].split_whitespace() {
                    expected.push((i + 2, rule.to_string(), false));
                }
            }
        }
        for f in &findings {
            match expected
                .iter_mut()
                .find(|(line, rule, used)| *line == f.line && rule == f.rule && !*used)
            {
                Some(slot) => slot.2 = true,
                None => problems.push(format!(
                    "unexpected finding (false positive): {} {}:{} `{}`",
                    f.rule, f.path, f.line, f.snippet
                )),
            }
        }
        for (line, rule, used) in expected {
            if !used {
                problems.push(format!(
                    "missed expected finding (false negative): {rule} {rel}:{line}"
                ));
            }
        }
    }
    Ok(problems)
}

/// Locate the workspace root: walk up from `start` to the first directory
/// containing a `Cargo.toml` with a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

/// The rule catalogue: what a finding is, which names mark a secret and
/// where, and the eight rule ids — one per sink of the pass in [`taint`].
pub mod rules {
    /// Identifier words that mark a value as secret-bearing. An identifier
    /// matches if any of its snake/camel-case words equals a marker (so
    /// `wire_label`, `input_zero_labels`, and `KkrtSenderKey` all match).
    ///
    /// Deliberately conservative: single-letter secrets (`s`, `c`) evade the
    /// heuristic — naming secrets descriptively is part of the discipline
    /// this lint enforces (see DESIGN.md).
    pub const SECRET_MARKERS: &[&str] = &[
        "label", "labels", "seed", "seeds", "delta", "pad", "pads", "share", "shares", "choice",
        "choices", "secret", "secrets", "key", "keys",
    ];

    /// Crates where marker identifiers are secret (and marker-named
    /// parameters seed the taint).
    pub const SECRET_SCOPE: &[&str] = &[
        "crates/crypto/",
        "crates/ot/",
        "crates/gc/",
        "crates/psi/",
        "crates/oep/",
    ];

    /// The rules, one per sink, with the one-line description SARIF shows.
    pub const RULES: &[(&str, &str)] = &[
        ("EQ", "Variable-time equality on a secret"),
        ("BRANCH", "Control flow conditioned on a secret"),
        ("LOOP", "Loop trip count bounded by a secret"),
        (
            "INDEX",
            "Memory address from a secret or a const-table lookup",
        ),
        ("DEBUG", "Debug formatting of a secret"),
        (
            "COMM",
            "Message length from a secret, or a round trip per loop iteration",
        ),
        (
            "PAR",
            "Nondeterministic capture in a parallel dispatch closure",
        ),
        ("UNSAFE", "unsafe without a SAFETY justification"),
    ];

    /// Not a rule: a `ct-ok:` comment that suppresses no finding. Reported
    /// as a finding so a dead suppression fails the run, as a stale
    /// baseline entry does.
    pub const DEAD_OK: &str = "DEAD-OK";

    /// One finding, keyed for baseline matching by (rule, path, snippet).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Finding {
        /// Rule identifier from [`RULES`], or [`DEAD_OK`].
        pub rule: &'static str,
        /// Workspace-relative path with `/` separators.
        pub path: String,
        /// 1-based line number (display only; not part of the baseline key,
        /// so unrelated edits shifting lines do not invalidate the baseline).
        pub line: usize,
        /// The offending source line, trimmed.
        pub snippet: String,
    }

    impl Finding {
        /// Baseline key: rule + path + whitespace-normalized snippet.
        pub fn key(&self) -> String {
            let normalized: String = self
                .snippet
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ");
            format!("{}\t{}\t{}", self.rule, self.path, normalized)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::lint_source as lint;

        fn rules_of(f: &[Finding]) -> Vec<&'static str> {
            f.iter().map(|x| x.rule).collect()
        }

        #[test]
        fn eq_on_secret_flagged() {
            let f = lint(
                "crates/ot/src/x.rs",
                "fn f(a_label: u64, b: u64) -> bool { a_label == b }",
            );
            assert_eq!(rules_of(&f), ["EQ"]);
        }

        #[test]
        fn eq_outside_scope_not_flagged() {
            let f = lint(
                "crates/relation/src/x.rs",
                "fn f(key: u64, b: u64) -> bool { key == b }",
            );
            assert!(f.is_empty());
        }

        #[test]
        fn eq_in_tests_not_flagged() {
            let f = lint(
                "crates/ot/src/x.rs",
                "#[cfg(test)]\nmod tests {\n fn f(seed: u64) { assert!(seed == 3); }\n}\n",
            );
            assert!(f.is_empty());
        }

        #[test]
        fn len_is_public() {
            let f = lint(
                "crates/ot/src/x.rs",
                "fn f(keys: &[u8]) { assert!(keys.len() == 4); }",
            );
            assert!(f.is_empty());
        }

        #[test]
        fn branch_on_secret_flagged() {
            let f = lint(
                "crates/gc/src/x.rs",
                "fn f(choice: bool) { if choice { g(); } }",
            );
            assert_eq!(rules_of(&f), ["BRANCH"]);
        }

        #[test]
        fn branch_on_public_not_flagged() {
            let f = lint(
                "crates/gc/src/x.rs",
                "fn f(n: usize) { if n == 0 { g(); } }",
            );
            assert!(f.is_empty());
        }

        #[test]
        fn derive_on_secret_type_flagged() {
            let f = lint(
                "crates/crypto/src/x.rs",
                "#[derive(Debug, Clone, PartialEq)]\npub struct WireLabel(u128);\n",
            );
            assert_eq!(rules_of(&f), ["DEBUG", "EQ"]);
        }

        #[test]
        fn debug_format_of_secret_flagged() {
            let f = lint(
                "crates/ot/src/x.rs",
                "fn f(pad: u128) { println!(\"pad = {:?}\", pad); }",
            );
            assert_eq!(rules_of(&f), ["DEBUG"]);
        }

        #[test]
        fn const_table_index_flagged_in_crypto() {
            let f = lint(
                "crates/crypto/src/x.rs",
                "fn f(x: u8) -> u8 { SBOX[x as usize] }",
            );
            assert_eq!(rules_of(&f), ["INDEX"]);
        }

        #[test]
        fn const_table_literal_index_ok() {
            let f = lint("crates/crypto/src/x.rs", "fn f() -> u32 { RCON[0] }");
            assert!(f.is_empty());
        }

        #[test]
        fn secret_index_flagged_in_scope() {
            let f = lint(
                "crates/ot/src/x.rs",
                "fn f(v: &[u8], choice: usize) -> u8 { v[choice] }",
            );
            assert_eq!(rules_of(&f), ["INDEX"]);
        }

        #[test]
        fn unsafe_without_safety_flagged() {
            let f = lint("crates/core/src/x.rs", "fn f() { unsafe { g() } }");
            assert_eq!(rules_of(&f), ["UNSAFE"]);
        }

        #[test]
        fn unsafe_with_safety_ok() {
            let f = lint(
                "crates/core/src/x.rs",
                "// SAFETY: g has no preconditions.\nfn f() { unsafe { g() } }",
            );
            assert!(f.is_empty());
        }

        #[test]
        fn unsafe_flagged_even_in_tests() {
            let f = lint(
                "crates/core/src/x.rs",
                "#[cfg(test)]\nmod tests {\n fn f() { unsafe { g() } }\n}\n",
            );
            assert_eq!(rules_of(&f), ["UNSAFE"]);
        }

        #[test]
        fn ct_ok_suppresses() {
            let f = lint(
                "crates/ot/src/x.rs",
                "// ct-ok: public protocol seed, sent on the wire anyway.\nfn f(seed: u64) { if seed > 0 { g(); } }",
            );
            assert!(f.is_empty());
        }

        #[test]
        fn dead_ct_ok_reported() {
            let f = lint(
                "crates/ot/src/x.rs",
                "// ct-ok: nothing here is secret.\nfn f(n: u64) { if n > 0 { g(); } }",
            );
            assert_eq!(rules_of(&f), [DEAD_OK]);
            assert_eq!(f[0].line, 1);
        }

        #[test]
        fn multi_line_condition_is_one_branch() {
            let f = lint(
                "crates/ot/src/x.rs",
                "fn f(&self, n: u64) {\n if n > 0\n && self.choice_bit {\n g();\n }\n}",
            );
            assert_eq!(rules_of(&f), ["BRANCH"]);
            assert_eq!(f[0].line, 2);
        }

        #[test]
        fn string_contents_do_not_fake_idents() {
            let f = lint(
                "crates/ot/src/x.rs",
                "fn f(x: u64) { h.update(b\"key-label\"); let y = x == 3; }",
            );
            assert!(f.is_empty());
        }

        #[test]
        fn finding_key_is_line_independent() {
            let a = Finding {
                rule: "EQ",
                path: "p.rs".into(),
                line: 3,
                snippet: "a ==  b".into(),
            };
            let b = Finding {
                rule: "EQ",
                path: "p.rs".into(),
                line: 9,
                snippet: "a == b".into(),
            };
            assert_eq!(a.key(), b.key());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_lines_stop_at_the_test_module() {
        let src = "//! doc\n\nuse a;\n  // note\nfn f() {}\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(code_lines(src), 2);
        // Mentioning the attribute is not the attribute.
        let src = "/// Runs before `#[cfg(test)]`.\nfn f() {}\n    #[cfg(test)]\nmod tests {}\n";
        assert_eq!(code_lines(src), 1);
    }

    #[test]
    fn baseline_roundtrip() {
        let f = Finding {
            rule: "EQ",
            path: "crates/x/src/a.rs".into(),
            line: 10,
            snippet: "seed == other".into(),
        };
        let body = render_baseline(std::slice::from_ref(&f));
        let map = parse_baseline(&body);
        let diff = diff_baseline(vec![f], &map);
        assert!(diff.new.is_empty());
        assert!(diff.stale.is_empty());
    }

    #[test]
    fn unbaselined_finding_is_new() {
        let f = Finding {
            rule: "EQ",
            path: "a.rs".into(),
            line: 1,
            snippet: "seed == 1".into(),
        };
        let diff = diff_baseline(vec![f], &BTreeMap::new());
        assert_eq!(diff.new.len(), 1);
    }

    #[test]
    fn stale_entries_reported() {
        let map = parse_baseline("EQ\ta.rs\tgone == 1\n");
        let diff = diff_baseline(Vec::new(), &map);
        assert_eq!(diff.stale.len(), 1);
    }

    #[test]
    fn duplicate_baseline_lines_budget_counts() {
        let map = parse_baseline("EQ\ta.rs\tx == 1\nEQ\ta.rs\tx == 1\n");
        let mk = |line| Finding {
            rule: "EQ",
            path: "a.rs".into(),
            line,
            snippet: "x == 1".into(),
        };
        let diff = diff_baseline(vec![mk(1), mk(2), mk(3)], &map);
        assert_eq!(diff.new.len(), 1, "two budgeted, third is new");
    }
}

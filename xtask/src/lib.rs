//! ct-lint: secret-hygiene static analysis for the secyan workspace.
//!
//! Run as `cargo xtask ct-lint`. Walks every workspace source file and
//! reports constant-time / secret-hygiene violations (see [`rules`] for the
//! rule catalogue). Findings are matched against the checked-in
//! `ct-lint.allow` baseline at the repo root: baselined findings are
//! tolerated (they are reviewed, justified exceptions — the software-AES
//! table lookups, for instance), anything new fails the run. CI runs this
//! as a required job, so the baseline can only shrink silently, never grow.
//!
//! Self-test: `cargo xtask ct-lint --fixtures` lints the seeded-violation
//! tree in `tests/ct_lint_fixtures/` and checks every `ct-expect:`
//! annotation fired — and nothing else did. The same check runs under
//! `cargo test -p xtask`.

pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod taint;

use rules::Finding;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that hold lintable sources.
const SOURCE_ROOTS: &[&str] = &["crates", "examples", "tests", "xtask"];

/// Path fragments that are never linted (fixtures are linted only by the
/// dedicated fixtures mode; `target` holds build products).
const EXCLUDED: &[&str] = &["ct_lint_fixtures", "taint_fixtures", "target"];

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

/// Lint one file's source text.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let scan = lexer::ScannedFile::scan(src);
    let raw: Vec<&str> = src.lines().collect();
    rules::lint_scanned(rel_path, &scan, &raw)
}

/// Lint the whole workspace tree rooted at `root`. Returns findings in
/// path/line order.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for sub in SOURCE_ROOTS {
        collect_rs(root, &root.join(sub), &mut files);
    }
    let mut findings = Vec::new();
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        findings.extend(lint_source(&rel_str, &src));
    }
    Ok(findings)
}

/// The code-line metric ROADMAP.md sizes every PR by: the lines of `src`
/// before its first `#[cfg(test)]` that are neither blank nor `//`
/// comments.
pub fn code_lines(src: &str) -> usize {
    src.lines()
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .map(str::trim_start)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// [`code_lines`] of every `.rs` file under `crates/`, summed per crate
/// directory.
pub fn loc_by_crate(root: &Path) -> std::io::Result<BTreeMap<String, usize>> {
    let mut files = Vec::new();
    collect_rs(root, &root.join("crates"), &mut files);
    let mut by_crate = BTreeMap::new();
    for rel in files {
        let krate = rel.iter().nth(1).unwrap_or_default().to_string_lossy();
        let lines = code_lines(&fs::read_to_string(root.join(&rel))?);
        *by_crate.entry(krate.into_owned()).or_default() += lines;
    }
    Ok(by_crate)
}

/// Run the taint pass (see [`taint`]) over the whole workspace tree rooted
/// at `root`. Returns findings in path/line order.
pub fn taint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for sub in SOURCE_ROOTS {
        collect_rs(root, &root.join(sub), &mut files);
    }
    let mut findings = Vec::new();
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        findings.extend(taint::taint_source(&rel_str, &src));
    }
    Ok(findings)
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

/// Serialize findings as a baseline file body. `tool` names the xtask
/// subcommand (`ct-lint` / `taint`) and `ok_tag` the inline suppression
/// comment tag (`ct-ok:` / `taint-ok:`) quoted in the header.
pub fn render_baseline(tool: &str, ok_tag: &str, findings: &[Finding]) -> String {
    let mut out = format!(
        "# {tool} baseline: reviewed, justified findings the lint tolerates.\n\
         # One finding per line: rule<TAB>path<TAB>normalized snippet.\n\
         # Regenerate with `cargo xtask {tool} --update-baseline`; new code\n\
         # must come in clean (or carry an inline `// {ok_tag}` justification).\n",
    );
    for f in findings {
        out.push_str(&f.key());
        out.push('\n');
    }
    out
}

/// Fixture check against the ct-lint rules and `ct-expect:` annotations.
/// See [`check_fixtures_with`].
pub fn check_fixtures(dir: &Path) -> std::io::Result<Vec<String>> {
    check_fixtures_with(dir, "ct-expect:", &|rel, src| lint_source(rel, src))
}

/// Fixture check against the taint rules and `taint-expect:` annotations.
/// See [`check_fixtures_with`].
pub fn check_taint_fixtures(dir: &Path) -> std::io::Result<Vec<String>> {
    check_fixtures_with(dir, "taint-expect:", &|rel, src| {
        taint::taint_source(rel, src)
    })
}

/// Fixture check: lint every `.rs` file under `dir` with `lint` and verify
/// the `<expect_tag> <RULE>...` annotations. An annotation on line N
/// expects each named rule to fire on line N+1; any finding without a
/// matching annotation is an error (false positive), any annotation without
/// its finding is an error (false negative). Returns problem descriptions.
///
/// Paths are taken relative to `dir`, so the fixture tree mirrors the
/// workspace layout (`<dir>/crates/ot/src/...` lints with the scoping of
/// `crates/ot/src/...`).
pub fn check_fixtures_with(
    dir: &Path,
    expect_tag: &str,
    lint: &dyn Fn(&str, &str) -> Vec<Finding>,
) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect_rs(dir, dir, &mut files);
    let mut problems = Vec::new();
    let mut saw_any = false;
    for rel in files {
        let abs = dir.join(&rel);
        let src = fs::read_to_string(&abs)?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        saw_any = true;
        let scan = lexer::ScannedFile::scan(&src);
        let findings = lint(&rel_str, &src);
        // Gather expectations: (line, rule) pairs, where line is the line
        // *after* the annotation comment.
        let mut expected: Vec<(usize, String, bool)> = Vec::new();
        for (i, comment) in scan.comments.iter().enumerate() {
            if let Some(pos) = comment.find(expect_tag) {
                for rule in comment[pos + expect_tag.len()..].split_whitespace() {
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
                    "missed expected finding (false negative): {rule} {rel_str}:{line}"
                ));
            }
        }
    }
    if !saw_any {
        problems.push(format!("no fixture files found under {}", dir.display()));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_lines_stop_at_the_test_module() {
        let src = "//! doc\n\nuse a;\n  // note\nfn f() {}\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(code_lines(src), 2);
    }

    #[test]
    fn baseline_roundtrip() {
        let f = Finding {
            rule: "R-EQ",
            path: "crates/x/src/a.rs".into(),
            line: 10,
            snippet: "seed == other".into(),
        };
        let body = render_baseline("ct-lint", "ct-ok:", std::slice::from_ref(&f));
        let map = parse_baseline(&body);
        let diff = diff_baseline(vec![f], &map);
        assert!(diff.new.is_empty());
        assert!(diff.stale.is_empty());
    }

    #[test]
    fn unbaselined_finding_is_new() {
        let f = Finding {
            rule: "R-EQ",
            path: "a.rs".into(),
            line: 1,
            snippet: "seed == 1".into(),
        };
        let diff = diff_baseline(vec![f], &BTreeMap::new());
        assert_eq!(diff.new.len(), 1);
    }

    #[test]
    fn stale_entries_reported() {
        let map = parse_baseline("R-EQ\ta.rs\tgone == 1\n");
        let diff = diff_baseline(Vec::new(), &map);
        assert_eq!(diff.stale.len(), 1);
    }

    #[test]
    fn duplicate_baseline_lines_budget_counts() {
        let map = parse_baseline("R-EQ\ta.rs\tx == 1\nR-EQ\ta.rs\tx == 1\n");
        let mk = |line| Finding {
            rule: "R-EQ",
            path: "a.rs".into(),
            line,
            snippet: "x == 1".into(),
        };
        let diff = diff_baseline(vec![mk(1), mk(2), mk(3)], &map);
        assert_eq!(diff.new.len(), 1, "two budgeted, third is new");
    }
}

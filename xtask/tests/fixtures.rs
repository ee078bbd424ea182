//! Self-test: the lint catches every seeded violation in
//! `tests/ct_lint_fixtures/` and flags nothing in the clean files. This is
//! the same check `cargo xtask ct-lint --fixtures` runs, wired into
//! `cargo test` so the tier-1 suite exercises the linter end to end.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    xtask::find_workspace_root(here.parent().expect("xtask has a parent"))
        .expect("workspace root above xtask/")
}

#[test]
fn fixtures_all_caught_no_false_positives() {
    let dir = workspace_root().join("tests/ct_lint_fixtures");
    let problems = xtask::check_fixtures(&dir).expect("fixtures readable");
    assert!(
        problems.is_empty(),
        "ct-lint fixture mismatches:\n{}",
        problems.join("\n")
    );
}

#[test]
fn fixture_findings_cover_every_rule() {
    let dir = workspace_root().join("tests/ct_lint_fixtures");
    let mut rules: Vec<&str> = Vec::new();
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).expect("readable").flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                let rel = p
                    .strip_prefix(&dir)
                    .expect("under fixtures dir")
                    .to_string_lossy()
                    .replace(std::path::MAIN_SEPARATOR, "/");
                let src = std::fs::read_to_string(&p).expect("readable");
                for f in xtask::lint_source(&rel, &src) {
                    rules.push(f.rule);
                }
            }
        }
    }
    for (expected, _) in xtask::rules::RULES {
        assert!(
            rules.contains(expected),
            "no fixture exercises {expected}; got {rules:?}"
        );
    }
}

#[test]
fn workspace_lint_matches_checked_in_baseline() {
    let root = workspace_root();
    let findings = xtask::lint_workspace(&root).expect("workspace readable");
    let baseline_text = std::fs::read_to_string(root.join("ct-lint.allow")).unwrap_or_default();
    let baseline = xtask::parse_baseline(&baseline_text);
    let diff = xtask::diff_baseline(findings, &baseline);
    assert!(
        diff.new.is_empty(),
        "new ct-lint findings (fix or justify):\n{}",
        diff.new
            .iter()
            .map(|f| format!("{} {}:{}: {}", f.rule, f.path, f.line, f.snippet))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        diff.stale.is_empty(),
        "stale ct-lint.allow entries (prune):\n{}",
        diff.stale.join("\n")
    );
}

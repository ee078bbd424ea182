//! Workspace automation entry point: `cargo xtask <command>`.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{
    check_fixtures, diff_baseline, find_workspace_root, lint_workspace, loc_by_dir, parse_baseline,
    render_baseline, sarif,
};

const USAGE: &str = "\
Usage: cargo xtask ct-lint [options]
       cargo xtask loc [--root <dir>]

Secret-hygiene static analysis over the workspace sources, and the
code-line count ROADMAP.md sizes PRs by.

  ct-lint   one pass: secret dataflow plus secret-marker names, one rule
            per sink (EQ, BRANCH, LOOP, INDEX, DEBUG, COMM, PAR, UNSAFE),
            baseline ct-lint.allow, inline suppression `// ct-ok: <why>`
  loc       code lines per crate under crates/ and their total, then
            xtask/: non-blank lines not starting with //, before the
            first line of a file that starts with #[cfg(test)]

Options:
  --update-baseline   rewrite ct-lint.allow from current findings
  --fixtures          self-test against tests/ct_lint_fixtures annotations
  --root <dir>        workspace root (default: auto-detected)
  --sarif <path>      also write findings as SARIF 2.1.0 (for CI upload)

Exit codes: 0 clean, 1 findings / stale baseline / dead ct-ok: / fixture
mismatch, 2 usage or IO error.";

const BASELINE: &str = "ct-lint.allow";

struct Opts {
    update: bool,
    fixtures: bool,
    root: Option<PathBuf>,
    sarif: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        update: false,
        fixtures: false,
        root: None,
        sarif: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--update-baseline" => opts.update = true,
            "--fixtures" => opts.fixtures = true,
            "--root" => match it.next() {
                Some(p) => opts.root = Some(PathBuf::from(p)),
                None => return Err("--root needs a path".into()),
            },
            "--sarif" => match it.next() {
                Some(p) => opts.sarif = Some(PathBuf::from(p)),
                None => return Err("--sarif needs a path".into()),
            },
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd != "ct-lint" && cmd != "loc" {
        eprintln!("unknown command `{cmd}`\n{USAGE}");
        return ExitCode::from(2);
    }
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let root = opts.root.clone().or_else(|| {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        find_workspace_root(here.parent().unwrap_or(&here))
    });
    let Some(root) = root else {
        eprintln!("{cmd}: could not locate the workspace root");
        return ExitCode::from(2);
    };

    if cmd == "loc" {
        let loc = loc_by_dir(&root, "crates").and_then(|c| Ok((c, loc_by_dir(&root, "xtask")?)));
        return match loc {
            Ok((by_crate, xtask)) => {
                for (krate, lines) in &by_crate {
                    println!("{lines:>6}  crates/{krate}");
                }
                println!("{:>6}  total", by_crate.values().sum::<usize>());
                println!("{:>6}  xtask", xtask.values().sum::<usize>());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("loc: {e}");
                ExitCode::from(2)
            }
        };
    }

    if opts.fixtures {
        return match check_fixtures(&root.join("tests/ct_lint_fixtures")) {
            Ok(problems) if problems.is_empty() => {
                println!("{cmd} fixtures: all seeded violations caught, no false positives");
                ExitCode::SUCCESS
            }
            Ok(problems) => {
                for p in &problems {
                    eprintln!("{cmd} fixtures: {p}");
                }
                eprintln!("{cmd} fixtures: {} problem(s)", problems.len());
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("{cmd} fixtures: {e}");
                ExitCode::from(2)
            }
        };
    }

    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{cmd}: {e}");
            return ExitCode::from(2);
        }
    };

    let baseline_path = root.join(BASELINE);
    if opts.update {
        let body = render_baseline(&findings);
        if let Err(e) = std::fs::write(&baseline_path, body) {
            eprintln!("{cmd}: writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "{cmd}: wrote {} entries to {}",
            findings.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => parse_baseline(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Default::default(),
        Err(e) => {
            eprintln!("{cmd}: reading {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    let diff = diff_baseline(findings, &baseline);

    if let Some(path) = &opts.sarif {
        let doc = sarif::render(&format!("secyan-{cmd}"), &diff.new);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("{cmd}: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("{cmd}: wrote SARIF to {}", path.display());
    }

    // Stale entries are a hard failure: the baseline must describe the code
    // as it is, or the diff it tolerates silently drifts.
    for k in &diff.stale {
        eprintln!("{cmd}: stale {BASELINE} entry matches nothing (prune it): {k}");
    }
    if diff.new.is_empty() && diff.stale.is_empty() {
        println!(
            "{cmd}: clean ({} baselined exception(s))",
            baseline.values().sum::<usize>()
        );
        return ExitCode::SUCCESS;
    }
    for f in &diff.new {
        eprintln!("{} {}:{}: {}", f.rule, f.path, f.line, f.snippet);
    }
    if !diff.new.is_empty() {
        eprintln!(
            "{cmd}: {} new finding(s). Fix with the ct_eq/ct_select/Secret APIs in \
             secyan-crypto::secret, route lengths through public shape metadata \
             (QueryShape / declared sizes), delete a DEAD-OK comment, suppress a \
             reviewed exception with an inline `// ct-ok: <reason>`, or (for bulk \
             legacy code) re-run with --update-baseline and justify the diff in review.",
            diff.new.len()
        );
    }
    if !diff.stale.is_empty() {
        eprintln!(
            "{cmd}: {} stale baseline entr(ies) — regenerate with --update-baseline \
             or delete the dead lines.",
            diff.stale.len()
        );
    }
    ExitCode::from(1)
}

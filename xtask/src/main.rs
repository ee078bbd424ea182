//! Workspace automation entry point: `cargo xtask <command>`.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{
    check_fixtures, check_taint_fixtures, diff_baseline, find_workspace_root, lint_workspace,
    loc_by_crate, parse_baseline, render_baseline, sarif, taint_workspace,
};

const USAGE: &str = "\
Usage: cargo xtask <ct-lint|taint> [options]
       cargo xtask loc [--root <dir>]

Secret-hygiene static analysis over the workspace sources, and the
code-line count ROADMAP.md sizes PRs by.

  ct-lint   token-level constant-time rules (R-EQ, R-BRANCH, R-DEBUG,
            R-INDEX, R-UNSAFE), baseline ct-lint.allow
  taint     intraprocedural secret-taint dataflow + communication-shape
            rules (T-BRANCH, T-LOOP, T-INDEX, T-COMM, D-PAR), baseline
            taint.allow
  loc       code lines per crate under crates/ and in total: lines before
            a file's first #[cfg(test)], non-blank, not starting with //

Options:
  --update-baseline   rewrite the command's .allow file from current findings
  --fixtures          self-test against the command's fixture annotations
  --root <dir>        workspace root (default: auto-detected)
  --sarif <path>      also write findings as SARIF 2.1.0 (for CI upload)

Exit codes: 0 clean, 1 findings / stale baseline / fixture mismatch,
2 usage or IO error.";

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
    let taint_mode = match cmd {
        "ct-lint" | "loc" => false,
        "taint" => true,
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
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
        return match loc_by_crate(&root) {
            Ok(by_crate) => {
                for (krate, lines) in &by_crate {
                    println!("{lines:>6}  crates/{krate}");
                }
                println!("{:>6}  total", by_crate.values().sum::<usize>());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("loc: {e}");
                ExitCode::from(2)
            }
        };
    }

    // Tool-specific wiring: fixture directory, baseline file, suppression
    // tag, and the remediation hint printed on failure.
    let (fixture_dir, baseline_file, ok_tag, hint) = if taint_mode {
        (
            "tests/taint_fixtures",
            "taint.allow",
            "taint-ok:",
            "Route the length through public shape metadata (QueryShape / \
             declared sizes), pad to a public bound, or suppress a reviewed \
             exception with an inline `// taint-ok: <reason>`.",
        )
    } else {
        (
            "tests/ct_lint_fixtures",
            "ct-lint.allow",
            "ct-ok:",
            "Fix with the ct_eq/ct_select/Secret APIs in secyan-crypto::secret, \
             suppress a reviewed exception with an inline `// ct-ok: <reason>`, \
             or (for bulk legacy code) re-run with --update-baseline and \
             justify the diff in review.",
        )
    };

    if opts.fixtures {
        let dir = root.join(fixture_dir);
        let result = if taint_mode {
            check_taint_fixtures(&dir)
        } else {
            check_fixtures(&dir)
        };
        return match result {
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

    let findings = if taint_mode {
        taint_workspace(&root)
    } else {
        lint_workspace(&root)
    };
    let findings = match findings {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{cmd}: {e}");
            return ExitCode::from(2);
        }
    };

    let baseline_path = root.join(baseline_file);
    if opts.update {
        let body = render_baseline(cmd, ok_tag, &findings);
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
        eprintln!("{cmd}: stale {baseline_file} entry matches nothing (prune it): {k}");
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
        eprintln!("{cmd}: {} new finding(s). {hint}", diff.new.len());
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

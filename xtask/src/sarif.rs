//! Minimal SARIF 2.1.0 serialization for lint findings.
//!
//! Hand-rolled JSON (the linter builds with zero dependencies) covering
//! exactly the subset GitHub code scanning consumes: one run, one driver,
//! a rule table, and one result per finding with a physical location. CI
//! uploads the file via `github/codeql-action/upload-sarif`, which turns
//! each finding into an inline PR annotation.

use crate::rules::{Finding, RULES};
use std::collections::BTreeMap;

/// Escape a string for a JSON string literal body.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One-line description for the rule table: the catalogue's, or — for the
/// one id outside it, a dead suppression — its own.
fn rule_description(rule: &str) -> &'static str {
    RULES
        .iter()
        .find(|(id, _)| *id == rule)
        .map_or("ct-ok: comment that suppresses no finding", |(_, d)| d)
}

/// Render findings as a SARIF 2.1.0 document.
pub fn render(tool_name: &str, findings: &[Finding]) -> String {
    // Stable rule table: each distinct rule once, indexed.
    let mut rule_index: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        let next = rule_index.len();
        rule_index.entry(f.rule).or_insert(next);
    }
    let mut rules_json = Vec::new();
    for rule in rule_index.keys() {
        rules_json.push(format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            esc(rule),
            esc(rule_description(rule))
        ));
    }
    let mut results_json = Vec::new();
    for f in findings {
        let idx = rule_index[f.rule];
        results_json.push(format!(
            concat!(
                "{{\"ruleId\":\"{}\",\"ruleIndex\":{},\"level\":\"error\",",
                "\"message\":{{\"text\":\"{}: {}\"}},",
                "\"locations\":[{{\"physicalLocation\":{{",
                "\"artifactLocation\":{{\"uri\":\"{}\"}},",
                "\"region\":{{\"startLine\":{}}}}}}}]}}"
            ),
            esc(f.rule),
            idx,
            esc(rule_description(f.rule)),
            esc(&f.snippet),
            esc(&f.path),
            f.line.max(1)
        ));
    }
    format!(
        concat!(
            "{{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/",
            "Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{{",
            "\"tool\":{{\"driver\":{{\"name\":\"{}\",\"informationUri\":",
            "\"https://github.com/secyan/secyan\",\"rules\":[{}]}}}},",
            "\"results\":[{}]}}]}}\n"
        ),
        esc(tool_name),
        rules_json.join(","),
        results_json.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_shape() {
        let f = Finding {
            rule: "COMM",
            path: "crates/ot/src/iknp.rs".into(),
            line: 12,
            snippet: "let buf = vec![0u8; n]; // \"quote\"".into(),
        };
        let s = render("secyan-ct-lint", &[f]);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"ruleId\":\"COMM\""));
        assert!(s.contains("\"startLine\":12"));
        assert!(s.contains("\\\"quote\\\""));
        // Balanced braces as a cheap well-formedness check (no braces in
        // the escaped content here).
        let opens = s.matches('{').count();
        let closes = s.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_findings_render() {
        let s = render("secyan-ct-lint", &[]);
        assert!(s.contains("\"results\":[]"));
    }
}

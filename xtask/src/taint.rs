//! The secret-hygiene analyser: one pass over one token stream, one
//! predicate for "secret", one rule per sink.
//!
//! **Secret.** A token is secret if it is a *dataflow-tainted binding* or,
//! in the secret-scope crates ([`SECRET_SCOPE`]), a *secret-marker
//! identifier* — any identifier with a [`SECRET_MARKERS`] word
//! (`wire_label`, `self.choice_bit`, `KkrtSenderKey`). The marker rule
//! applies at the sink only and is not propagated. ALL-CAPS identifiers are
//! consts — public parameters (`KAPPA`, `ROUND_KEYS`) — and never
//! marker-secret; `.len()`, `.is_empty()` and `.capacity()` project a
//! secret to its *public* size (the protocol invariant: sizes are public
//! shape), so those uses are neither secret nor propagated.
//!
//! **Sources** of taint, followed by an intraprocedural, flow-insensitive
//! worklist propagation over the bindings of each function:
//! - results of calls on the source list ([`SOURCES`]) — `expose` (the
//!   `Secret<T>` / `SecretBlock` declassification point), `draw_rows` (the
//!   raw IKNP rows every OT is built on), `label_delta` (the free-XOR Δ),
//!   `derive_key` (base-OT key derivation), `input_label` (GC label
//!   lookup);
//! - parameters whose names carry a marker word, in the secret scope.
//!
//! **Propagation**: `let` bindings, assignments (plain and compound),
//! `for`/`if let`/`while let` pattern bindings, `match` arm bindings,
//! buffer-mutation methods (`push`, `extend`, …), output-buffer writers
//! ([`WRITERS`]: the column stream's `stream_into`), and closure
//! parameters fed from a tainted prefix of the same statement.
//!
//! **Sinks** (the rules, catalogued in [`crate::rules::RULES`]):
//! - `EQ` — `==` / `!=` with a secret in its statement (a `let`'s own
//!   pattern names the result and does not count), or a derived
//!   `PartialEq` on a marker-named type: variable-time comparison. Use
//!   `CtEq::ct_eq`;
//! - `BRANCH` — an `if`/`while`/`match` condition (all of it, however many
//!   lines it spans) with a secret: control flow must never depend on
//!   secrets. Use `CtChoice` masks or `CtSelect::ct_select`;
//! - `LOOP` — a `for` whose iterable is a *range* bounded by a secret
//!   (`0..n`): trip counts are timing-visible. Iterating a collection of
//!   secret elements is fine — that reveals only its length (and
//!   `enumerate` position indices are likewise public);
//! - `INDEX` — a secret index or slice bound, and in `crates/crypto` any
//!   ALL-CAPS const table indexed by a non-literal (the software-AES S-box
//!   and T-tables): memory addresses are cache-timing-visible;
//! - `DEBUG` — a secret on a line that `{:?}`-formats or `dbg!`s, or a
//!   derived `Debug` on a marker-named type: key material must never reach
//!   logs;
//! - `COMM` — the communication-shape rule: a secret in a
//!   *length-determining position* of data that reaches `send` / `stage` /
//!   `send_labels` / `send_words` / `send_bytes` (`vec![_; n]`,
//!   `with_capacity`, `resize`, `truncate`, `take`, `set_len`, slice
//!   bounds, and `to_le_bytes` length-header construction) — message
//!   lengths must be a function of the public query shape only, the
//!   static mirror of the transcript-invariance tests — and a send in a
//!   loop that also receives or flushes: one wire round trip per
//!   iteration;
//! - `PAR` — determinism of `secyan-par` dispatch closures: no RNG, no
//!   channel I/O, no clocks, no spawns inside `pool.map`/`chunks_mut`/
//!   `ranges`/`broadcast` closures (statically enforcing the DESIGN.md §9
//!   three-rule contract);
//! - `UNSAFE` — `unsafe` without `SAFETY` (or a `# Safety` doc section) in
//!   its comment block. Lexical, and the one rule that runs on every file,
//!   tests included.
//!
//! The other seven rules run on `crates/` only, and skip `#[cfg(test)]` /
//! `#[test]` regions (tests expose, compare and print freely).
//!
//! Suppression: `// ct-ok: <why>` on the finding line or the contiguous
//! comment/attribute block above. An ok-comment that suppresses nothing is
//! reported as [`DEAD_OK`]; bulk reviewed exceptions live in
//! `ct-lint.allow`.

use crate::lexer::{ident_words, ScannedFile};
use crate::parse::{
    find_at_depth0, matching_close, parse_fns, pattern_names, tokenize, FnItem, Tok,
};
use crate::rules::{Finding, DEAD_OK, SECRET_MARKERS, SECRET_SCOPE};
use std::collections::BTreeSet;
use std::ops::Range;

/// The inline suppression tag.
const OK_TAG: &str = "ct-ok:";

/// Call names whose results are secret-tainted: the reviewed source list.
pub const SOURCES: &[&str] = &[
    "expose",
    "draw_rows",
    "label_delta",
    "derive_key",
    "input_label",
];

/// Send-like calls whose payload shape is wire-visible. `stage` is the
/// channel's slice send.
const SEND_SINKS: &[&str] = &[
    "send",
    "send_labels",
    "send_bytes",
    "send_with",
    "send_words",
    "stage",
];

/// Buffer-mutation methods: `recv.meth(args)` makes `args` flow into
/// `recv` (forward taint) and `recv`'s wire exposure flow into `args`
/// (backward flows-to-send).
const MUTATORS: &[&str] = &[
    "push",
    "extend",
    "extend_from_slice",
    "insert",
    "append",
    "copy_from_slice",
    "clone_from",
    "clone_from_slice",
    "fill",
    "push_str",
    "write",
    "write_all",
];

/// Calls that write a function of their other arguments into their last,
/// an output buffer: `f(.., &mut out)` makes the other arguments flow into
/// `out`. The column stream expands secret seeds into its output.
pub const WRITERS: &[&str] = &["stream_into"];

/// Pool dispatch methods whose closures are the parallel sections bound by
/// the determinism contract.
const POOL_DISPATCH: &[&str] = &["map", "chunks_mut", "ranges", "broadcast"];

/// Identifiers forbidden inside pool dispatch closures: clocks, RNG entry
/// points, channel I/O, and thread control are all schedule-visible.
const PAR_FORBIDDEN: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "gen_range",
    "gen_bool",
    "fill_bytes",
    "now",
    "elapsed",
    "sleep",
    "spawn",
    "recv",
    "try_recv",
    "send",
    "channel",
    "Instant",
    "SystemTime",
];

/// Length-position methods: `buf.meth(n, ..)` makes `n` determine `buf`'s
/// observable size.
const LEN_METHODS: &[&str] = &["resize", "truncate", "take", "set_len", "split_off"];

/// Keywords that may directly precede `[` without making it an index
/// expression (`let [a, b] = ..` is a slice pattern, `return [a, b]` an
/// array literal). `vec` covers the `vec![..]` macro.
const NONVALUE_BEFORE_BRACKET: &[&str] = &[
    "let", "vec", "in", "return", "else", "move", "as", "mut", "ref", "box", "if", "while",
    "match", "for", "loop", "break", "continue", "use", "pub", "fn", "struct", "enum", "impl",
    "where", "unsafe", "await", "dyn", "const", "static", "type", "crate", "mod", "trait",
];

/// One value-flow event: `lhs` receives the value of the tokens in `rhs`.
struct Event {
    lhs: Vec<String>,
    rhs: Range<usize>,
}

/// A control-flow sink collected during the statement walk.
struct Sink {
    rule: &'static str,
    cond: Range<usize>,
    line: usize,
}

/// Findings of one file keyed by (0-based line, rule): a set, so a sink
/// seen twice on one line — by name and by dataflow, or by two index
/// expressions — reports once.
type Keyed = BTreeSet<(usize, &'static str)>;

/// What the sinks of one file share.
struct FileCtx<'a> {
    toks: &'a [Tok],
    /// Marker identifiers are secret: the file is in the secret scope.
    markers: bool,
    /// Const-table lookups are INDEX sinks: the file is in `crates/crypto`.
    crypto: bool,
    /// Lines that `{:?}`-format or `dbg!` — where a secret is a DEBUG sink.
    debug_lines: Vec<bool>,
}

/// Lint one file's source text; `rel_path` is workspace-relative with `/`
/// separators and decides which rules apply. Findings in line order.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let scan = ScannedFile::scan(src);
    let toks = tokenize(&scan);
    let mut keyed = Keyed::new();
    for t in &toks {
        let safety = |c: &str| c.contains("SAFETY") || c.contains("Safety");
        if t.text == "unsafe" && covering_comment(&scan, t.line, safety).is_none() {
            keyed.insert((t.line, "UNSAFE"));
        }
    }
    if rel_path.starts_with("crates/") {
        let markers = SECRET_SCOPE.iter().any(|p| rel_path.starts_with(p));
        let mut debug_lines: Vec<bool> = scan
            .strings
            .iter()
            .map(|s| s.contains(":?}") || s.contains(":#?}"))
            .collect();
        for w in toks.windows(2) {
            if w[0].text == "dbg" && w[1].text == "!" {
                debug_lines[w[0].line] = true;
            }
        }
        let file = FileCtx {
            toks: &toks,
            markers,
            crypto: rel_path.starts_with("crates/crypto/"),
            debug_lines,
        };
        let mask = attribute_mask(&toks);
        let fns = parse_fns(&toks);
        for f in &fns {
            if scan.in_test[toks[f.start].line] {
                continue;
            }
            // Mask out nested fns, header to closing brace, so each
            // function is analyzed once.
            let mut fmask = mask.clone();
            for g in &fns {
                if f.body.start < g.start && g.body.end <= f.body.end {
                    fmask[g.start..=g.body.end.min(toks.len() - 1)].fill(true);
                }
            }
            analyze_fn(f, &file, &fmask, &mut keyed);
        }
        if markers {
            derive_sinks(&toks, &scan, &mut keyed);
        }
    }

    let raw: Vec<&str> = src.lines().collect();
    let finding = |rule, line: usize| Finding {
        rule,
        path: rel_path.to_string(),
        line: line + 1,
        snippet: raw
            .get(line)
            .map_or(String::new(), |l| l.trim().to_string()),
    };
    let mut used = BTreeSet::new();
    let mut out = Vec::new();
    for (line, rule) in keyed {
        match covering_comment(&scan, line, is_ok_comment) {
            Some(ok) => {
                used.insert(ok);
            }
            None => out.push(finding(rule, line)),
        }
    }
    for (j, c) in scan.comments.iter().enumerate() {
        if is_ok_comment(c) && !used.contains(&j) {
            out.push(finding(DEAD_OK, j));
        }
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

/// Is this comment a suppression — does its text open with [`OK_TAG`]?
/// (Prose that merely mentions the tag is not one.)
fn is_ok_comment(comment: &str) -> bool {
    comment
        .trim_start_matches(['/', '!'])
        .trim_start()
        .starts_with(OK_TAG)
}

/// The line whose comment satisfies `hit`, looking at line `i` itself and
/// then up the contiguous run of comment/attribute lines directly above it
/// — where a `ct-ok:` suppression or a SAFETY justification sits.
fn covering_comment(scan: &ScannedFile, i: usize, hit: impl Fn(&str) -> bool) -> Option<usize> {
    let mut j = i;
    loop {
        if scan.comments.get(j).is_some_and(|c| hit(c)) {
            return Some(j);
        }
        if j == 0 {
            return None;
        }
        j -= 1;
        let code_above = scan.code[j].trim();
        if !(code_above.is_empty() || code_above.starts_with("#[")) {
            return None;
        }
    }
}

/// Mark attribute token ranges (`#[...]` / `#![...]`): their `=` and
/// bracket tokens must not be parsed as assignments or index sinks.
fn attribute_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "!") {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.text == "[") {
                let close = matching_close(toks, j);
                for m in mask.iter_mut().take(close.min(toks.len() - 1) + 1).skip(i) {
                    *m = true;
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Does the identifier carry a secret-marker word? ALL-CAPS consts never
/// do: they are compile-time public parameters.
fn is_marker(id: &str) -> bool {
    !is_const_name(id)
        && ident_words(id)
            .iter()
            .any(|w| SECRET_MARKERS.contains(&w.as_str()))
}

/// Is the identifier ALL-CAPS (a const or static)?
fn is_const_name(id: &str) -> bool {
    id.chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// EQ / DEBUG on a `#[derive(PartialEq)]` / `#[derive(Debug)]` of a
/// marker-named type: the derived impls compare and print its secret
/// fields.
fn derive_sinks(toks: &[Tok], scan: &ScannedFile, keyed: &mut Keyed) {
    for (k, t) in toks.iter().enumerate() {
        if t.text != "derive"
            || scan.in_test[t.line]
            || toks.get(k + 1).map(|n| n.text.as_str()) != Some("(")
        {
            continue;
        }
        let close = matching_close(toks, k + 1);
        // The derived type's name follows the next `struct`/`enum`/`union`,
        // unless a `{` or `;` ends the search first.
        let name = (close..toks.len())
            .find(|&j| {
                matches!(
                    toks[j].text.as_str(),
                    "struct" | "enum" | "union" | "{" | ";"
                )
            })
            .filter(|&j| toks[j].is_word())
            .and_then(|j| toks.get(j + 1));
        if !name.is_some_and(|n| is_marker(&n.text)) {
            continue;
        }
        for tr in &toks[k + 2..close] {
            let rule = match tr.text.as_str() {
                "PartialEq" => "EQ",
                "Debug" => "DEBUG",
                _ => continue,
            };
            keyed.insert((t.line, rule));
        }
    }
}

/// The one predicate for "secret", over one function's tokens.
struct Secrets<'a> {
    toks: &'a [Tok],
    mask: &'a [bool],
    /// Dataflow-tainted binding names.
    tainted: BTreeSet<String>,
    /// Do marker identifiers count (secret scope, and sinks only)?
    markers: bool,
}

impl Secrets<'_> {
    /// Is token `j` a secret use — a source call, a tainted binding or a
    /// marker identifier — and not projected to its public size by a
    /// `.len()`-style call?
    fn at(&self, j: usize) -> bool {
        let toks = self.toks;
        if self.mask[j] || !toks[j].is_word() {
            return false;
        }
        let t = toks[j].text.as_str();
        if SOURCES.contains(&t) && toks.get(j + 1).is_some_and(|n| n.text == "(") {
            return !len_escaped(toks, matching_close(toks, j + 1) + 1);
        }
        (self.tainted.contains(t) || self.markers && is_marker(t)) && !len_escaped(toks, j + 1)
    }

    /// Does `range` hold a secret use?
    fn any(&self, range: Range<usize>) -> bool {
        (range.start..range.end.min(self.toks.len())).any(|j| self.at(j))
    }
}

/// Analyze one function body; findings accumulate as `(line, rule)` keys.
fn analyze_fn(f: &FnItem, file: &FileCtx, mask: &[bool], keyed: &mut Keyed) {
    let toks = file.toks;
    let body = f.body.start..f.body.end.min(toks.len());
    let (events, sinks) = collect_events(toks, mask, body.clone());

    // --- Forward taint fixpoint (markers seed it through parameters only) -
    let mut secret = Secrets {
        toks,
        mask,
        tainted: BTreeSet::new(),
        markers: false,
    };
    if file.markers {
        secret
            .tainted
            .extend(f.params.iter().filter(|p| is_marker(p)).cloned());
    }
    loop {
        let before = secret.tainted.len();
        for ev in &events {
            if secret.any(ev.rhs.clone()) {
                secret.tainted.extend(ev.lhs.iter().cloned());
            }
        }
        if secret.tainted.len() == before {
            break;
        }
    }
    secret.markers = file.markers;

    // --- Backward flows-to-send fixpoint ----------------------------------
    let mut fs: BTreeSet<String> = BTreeSet::new();
    let send_args = send_call_args(toks, mask, body.clone());
    for r in &send_args {
        for j in r.clone() {
            if !mask[j] && toks[j].is_word() {
                fs.insert(toks[j].text.clone());
            }
        }
    }
    loop {
        let before = fs.len();
        for ev in &events {
            if ev.lhs.iter().any(|l| fs.contains(l)) {
                for j in ev.rhs.clone() {
                    if j < toks.len() && !mask[j] && toks[j].is_word() {
                        fs.insert(toks[j].text.clone());
                    }
                }
            }
        }
        if fs.len() == before {
            break;
        }
    }

    // --- Control-flow sinks -----------------------------------------------
    for s in &sinks {
        if secret.any(s.cond.clone()) {
            keyed.insert((s.line, s.rule));
        }
    }

    // --- Equality and Debug-format sinks ----------------------------------
    let stmt_end = |k: &usize| matches!(toks[*k].text.as_str(), ";" | "{" | "}");
    for j in body.clone() {
        if !mask[j] && matches!(toks[j].text.as_str(), "==" | "!=") {
            // The operator's statement: bounded by `;` / `{` / `}`.
            let mut start = (body.start..j)
                .rev()
                .find(stmt_end)
                .map_or(body.start, |k| k + 1);
            // A `let` pattern names the result, it is no operand.
            if toks[start].text == "let" {
                start = find_at_depth0(toks, start, j, &["="]).min(j);
            }
            let end = (j..body.end).find(stmt_end).unwrap_or(body.end);
            if secret.any(start..end) {
                keyed.insert((toks[j].line, "EQ"));
            }
        }
        if file.debug_lines[toks[j].line] && secret.at(j) {
            keyed.insert((toks[j].line, "DEBUG"));
        }
    }

    // --- Index sinks -------------------------------------------------------
    for j in body.clone() {
        if mask[j] || toks[j].text != "[" || j == 0 {
            continue;
        }
        let prev = &toks[j - 1];
        // An index receiver is a value: identifier, call result, or prior
        // index. Macro brackets (`vec![`, `matches![`) have `!` before the
        // bracket, and a keyword before `[` means a slice pattern or array
        // literal — neither is a lookup.
        let is_recv = (prev.is_word() && !NONVALUE_BEFORE_BRACKET.contains(&prev.text.as_str()))
            || prev.text == ")"
            || prev.text == "]";
        if !is_recv {
            continue;
        }
        let close = matching_close(toks, j);
        let const_table = file.crypto
            && prev.text.len() >= 2
            && prev.text.chars().any(|c| c.is_ascii_uppercase())
            && is_const_name(&prev.text)
            && close > j + 1
            && !(close == j + 2 && toks[j + 1].text.starts_with(|c: char| c.is_ascii_digit()));
        if const_table || secret.any(j + 1..close) {
            keyed.insert((toks[j].line, "INDEX"));
        }
    }

    // --- Communication-shape sinks ----------------------------------------
    for r in &send_args {
        // `send_with(len, ..)`: the whole argument is the message length.
        let name = &toks[r.start - 2];
        if name.text == "send_with" && secret.any(r.clone()) {
            keyed.insert((name.line, "COMM"));
        }
        for (lp, line) in len_positions(toks, mask, r.clone()) {
            if secret.any(lp) {
                keyed.insert((line, "COMM"));
            }
        }
    }
    for ev in &events {
        if ev.lhs.iter().any(|l| fs.contains(l)) {
            for (lp, line) in len_positions(toks, mask, ev.rhs.clone()) {
                if secret.any(lp) {
                    keyed.insert((line, "COMM"));
                }
            }
        }
    }
    // Direct length mutation of a wire-bound buffer: `buf.resize(n, _)`
    // where `buf` flows to a send and `n` is secret.
    for j in body.clone() {
        if mask[j] || j < 2 {
            continue;
        }
        if toks[j - 1].text != "."
            || !LEN_METHODS.contains(&toks[j].text.as_str())
            || !toks[j - 2].is_word()
            || !fs.contains(&toks[j - 2].text)
            || toks.get(j + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        let close = matching_close(toks, j + 1);
        let first_end = find_at_depth0(toks, j + 2, close, &[","]).min(close);
        if secret.any(j + 2..first_end) {
            keyed.insert((toks[j].line, "COMM"));
        }
    }

    // --- Round-discipline: per-iteration wire round trips -----------------
    loop_roundtrips(toks, mask, body.clone(), keyed);

    // --- Pool-closure determinism -----------------------------------------
    for j in body {
        if mask[j] || j < 2 {
            continue;
        }
        if toks[j - 1].text != "." || !POOL_DISPATCH.contains(&toks[j].text.as_str()) {
            continue;
        }
        if !ident_words(&toks[j - 2].text).iter().any(|w| w == "pool") {
            continue;
        }
        if toks.get(j + 1).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        let close = matching_close(toks, j + 1);
        for t in &toks[j + 2..close.min(toks.len())] {
            let is_forbidden = t.is_word()
                && (PAR_FORBIDDEN.contains(&t.text.as_str())
                    || ident_words(&t.text).iter().any(|w| w == "rng"));
            if is_forbidden {
                keyed.insert((t.line, "PAR"));
            }
        }
    }
}

/// COMM round-discipline scan: a send-like method call inside a loop
/// whose body also blocks on the wire (any `.recv*(..)`) or forces a frame
/// (`.flush()`) pays one wire round trip *per iteration* — the per-edge
/// ping-pong the staged `send`/`flush` transport API exists to eliminate,
/// and the exact shape that regresses super-round counts. Batch the sends
/// (stage the whole loop's worth, then receive), or split the operator
/// into a stage-all `*_begin` / receive-only `*_finish` pair. Loops that
/// only send are fine: staged messages coalesce into one super-frame.
fn loop_roundtrips(toks: &[Tok], mask: &[bool], body: Range<usize>, keyed: &mut Keyed) {
    let end = body.end.min(toks.len());
    let mut i = body.start;
    while i < end {
        if mask[i] || !matches!(toks[i].text.as_str(), "for" | "while" | "loop") {
            i += 1;
            continue;
        }
        let brace = find_at_depth0(toks, i + 1, end, &["{"]);
        if brace >= end {
            i += 1;
            continue;
        }
        let close = matching_close(toks, brace);
        let mut send_lines = Vec::new();
        let mut blocks = false;
        for j in brace + 1..close.min(toks.len()) {
            // Method-call position only: `recv.x(..)`. Free functions and
            // definitions (`fn send_frame`) are not wire calls.
            if mask[j]
                || !toks[j].is_word()
                || j == 0
                || toks[j - 1].text != "."
                || toks.get(j + 1).map(|t| t.text.as_str()) != Some("(")
            {
                continue;
            }
            let name = toks[j].text.as_str();
            // `send*` and `stage` stage outbound data; `recv*` blocks on a
            // frame and `flush` forces one — inside a loop these defeat
            // staging.
            if name.starts_with("send") || name == "stage" {
                send_lines.push(toks[j].line);
            } else if name.starts_with("recv") || name == "flush" {
                blocks = true;
            }
        }
        if blocks {
            for l in send_lines {
                keyed.insert((l, "COMM"));
            }
        }
        // Descend past the header so nested loops are scanned on their own.
        i = brace + 1;
    }
}

/// Collect value-flow events and control-flow sinks from a body range.
fn collect_events(toks: &[Tok], mask: &[bool], body: Range<usize>) -> (Vec<Event>, Vec<Sink>) {
    let mut events = Vec::new();
    let mut sinks = Vec::new();
    let end = body.end.min(toks.len());
    let mut stmt_start = body.start;
    let mut i = body.start;
    while i < end {
        if mask[i] {
            i += 1;
            continue;
        }
        let t = toks[i].text.as_str();
        match t {
            ";" | "{" | "}" => {
                stmt_start = i + 1;
                i += 1;
            }
            "let" => {
                let eq = find_at_depth0(toks, i + 1, end, &["="]);
                let semi = find_at_depth0(toks, i + 1, end, &[";"]);
                let colon = find_at_depth0(toks, i + 1, end, &[":"]);
                let pat_end = eq.min(semi).min(colon);
                let lhs = pattern_names(&toks[i + 1..pat_end.min(end)]);
                if eq < semi {
                    let rhs_end = semi.min(end);
                    events.push(Event {
                        lhs,
                        rhs: eq + 1..rhs_end,
                    });
                    i = eq + 1;
                } else {
                    i = pat_end.min(end);
                }
            }
            "for" => {
                let kw_in = find_at_depth0(toks, i + 1, end, &["in"]);
                let brace = find_at_depth0(toks, kw_in.saturating_add(1), end, &["{"]);
                if kw_in < end && brace <= end {
                    let iterable = kw_in + 1..brace;
                    events.push(Event {
                        lhs: iter_pattern_names(&toks[i + 1..kw_in], toks, iterable.clone()),
                        rhs: iterable.clone(),
                    });
                    // A loop leaks its trip count only when a tainted value
                    // *bounds* a range (`0..n`). Iterating a collection of
                    // tainted elements directly reveals only its length —
                    // public shape by protocol invariant.
                    if has_range_op(toks, iterable.clone()) {
                        sinks.push(Sink {
                            rule: "LOOP",
                            cond: iterable,
                            line: toks[i].line,
                        });
                    }
                    i = brace;
                } else {
                    i += 1;
                }
            }
            "if" | "while" => {
                if toks.get(i + 1).is_some_and(|n| n.text == "let") {
                    let eq = find_at_depth0(toks, i + 2, end, &["="]);
                    let brace = find_at_depth0(toks, eq.saturating_add(1), end, &["{"]);
                    if eq < end && brace <= end {
                        let lhs = pattern_names(&toks[i + 2..eq]);
                        events.push(Event {
                            lhs,
                            rhs: eq + 1..brace,
                        });
                        // The pattern too: a marker name bound there is a
                        // branch on the secret it names.
                        sinks.push(Sink {
                            rule: "BRANCH",
                            cond: i + 2..brace,
                            line: toks[i].line,
                        });
                        i = brace;
                    } else {
                        i += 1;
                    }
                } else {
                    let brace = find_at_depth0(toks, i + 1, end, &["{"]);
                    if brace <= end {
                        sinks.push(Sink {
                            rule: "BRANCH",
                            cond: i + 1..brace,
                            line: toks[i].line,
                        });
                        i = brace;
                    } else {
                        i += 1;
                    }
                }
            }
            "match" => {
                let brace = find_at_depth0(toks, i + 1, end, &["{"]);
                if brace <= end {
                    let scrut = i + 1..brace;
                    sinks.push(Sink {
                        rule: "BRANCH",
                        cond: scrut.clone(),
                        line: toks[i].line,
                    });
                    // Arm patterns bind from the scrutinee: collect names
                    // between arm boundaries and `=>` inside the match body.
                    let close = matching_close(toks, brace);
                    let mut a = brace + 1;
                    while a < close {
                        let arrow = find_at_depth0(toks, a, close, &["=>"]);
                        if arrow >= close {
                            break;
                        }
                        let lhs = pattern_names(&toks[a..arrow]);
                        if !lhs.is_empty() {
                            events.push(Event {
                                lhs,
                                rhs: scrut.clone(),
                            });
                        }
                        // Skip the arm body: to the `,` at depth 0 of the
                        // match block, or a braced body.
                        let next = find_at_depth0(toks, arrow + 1, close, &[","]);
                        a = if next >= close { close } else { next + 1 };
                    }
                    i = brace + 1;
                } else {
                    i += 1;
                }
            }
            "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => {
                // A statement-level assignment (lets advanced past their own
                // `=`). LHS base: first non-`self` word of the statement.
                let lhs: Vec<String> = toks[stmt_start..i]
                    .iter()
                    .find(|t| t.is_word() && t.text != "self" && t.text != "mut")
                    .map(|t| vec![t.text.clone()])
                    .unwrap_or_default();
                let semi = find_at_depth0(toks, i + 1, end, &[";"]).min(end);
                if !lhs.is_empty() {
                    events.push(Event {
                        lhs,
                        rhs: i + 1..semi,
                    });
                }
                i += 1;
            }
            "|" | "||" => {
                // Closure position: `|` not after a value-producing token.
                let closure_pos = i == 0
                    || !(toks[i - 1].is_word()
                        || toks[i - 1].text == ")"
                        || toks[i - 1].text == "]");
                if closure_pos {
                    let params_end = if t == "||" {
                        i
                    } else {
                        find_at_depth0(toks, i + 1, end, &["|"])
                    };
                    if params_end < end || t == "||" {
                        // Closure params are fed by the statement prefix
                        // (e.g. `tainted.iter().map(|x| ..)`). Start the
                        // prefix after the last statement-level `=`, so a
                        // `let out = tainted_thing.map(|x| ..)` binding does
                        // not feed `out`'s own (fixpoint-)taint back into x.
                        let mut feed_start = stmt_start;
                        for (k, tok) in toks.iter().enumerate().take(i).skip(stmt_start) {
                            if tok.text == "=" {
                                feed_start = k + 1;
                            }
                        }
                        let lhs = if t == "||" {
                            Vec::new()
                        } else {
                            iter_pattern_names(&toks[i + 1..params_end], toks, feed_start..i)
                        };
                        if !lhs.is_empty() && feed_start < i {
                            events.push(Event {
                                lhs,
                                rhs: feed_start..i,
                            });
                        }
                        i = if t == "||" { i + 1 } else { params_end + 1 };
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
            _ => {
                // Mutation methods: `recv.meth(args)`.
                if toks[i].is_word()
                    && MUTATORS.contains(&t)
                    && i >= 2
                    && toks[i - 1].text == "."
                    && toks[i - 2].is_word()
                    && toks.get(i + 1).is_some_and(|n| n.text == "(")
                {
                    let close = matching_close(toks, i + 1);
                    events.push(Event {
                        lhs: vec![toks[i - 2].text.clone()],
                        rhs: i + 2..close,
                    });
                }
                // Output-buffer writers: `writer(args.., &mut out)`.
                if WRITERS.contains(&t) && toks.get(i + 1).is_some_and(|n| n.text == "(") {
                    let close = matching_close(toks, i + 1);
                    // The last depth-0 comma opens the output argument.
                    let mut last = i + 1;
                    loop {
                        let k = find_at_depth0(toks, last + 1, close, &[","]);
                        if k >= close {
                            break;
                        }
                        last = k;
                    }
                    let out = toks[last + 1..close]
                        .iter()
                        .find(|t| t.is_word() && t.text != "mut");
                    if let Some(out) = out {
                        events.push(Event {
                            lhs: vec![out.text.clone()],
                            rhs: i + 2..last,
                        });
                    }
                }
                i += 1;
            }
        }
    }
    (events, sinks)
}

/// Does the token range contain a range operator (`..` / `..=`) at any
/// depth? Used to tell `for i in 0..n` (trip count = n) from `for x in xs`
/// (trip count = public length).
fn has_range_op(toks: &[Tok], range: Range<usize>) -> bool {
    toks[range.start..range.end.min(toks.len())]
        .iter()
        .any(|t| t.text == ".." || t.text == "..=")
}

/// Pattern names for bindings fed by an iterator expression. When the
/// feeding expression ends in `.enumerate()`, the first binding is the
/// position index — a public value even over secret elements — so it is
/// dropped from the taint-receiving set.
fn iter_pattern_names(pat: &[Tok], toks: &[Tok], feed: Range<usize>) -> Vec<String> {
    let mut names = pattern_names(pat);
    let enumerated = toks[feed.start..feed.end.min(toks.len())]
        .iter()
        .any(|t| t.text == "enumerate");
    if enumerated && names.len() > 1 {
        names.remove(0);
    }
    names
}

/// Token ranges of arguments to send-like calls in `body`. Of
/// `send_with(len, fill)` only `len` counts: `fill` writes into a buffer of
/// exactly that length, so nothing in it can shape the message.
fn send_call_args(toks: &[Tok], mask: &[bool], body: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for j in body {
        if j >= toks.len() || mask[j] {
            continue;
        }
        if !SEND_SINKS.contains(&toks[j].text.as_str()) {
            continue;
        }
        // `fn send(...)` is a definition, not a call site.
        if j > 0 && toks[j - 1].text == "fn" {
            continue;
        }
        if toks.get(j + 1).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        let mut close = matching_close(toks, j + 1);
        if toks[j].text == "send_with" {
            close = find_at_depth0(toks, j + 2, close, &[","]).min(close);
        }
        out.push(j + 2..close);
    }
    out
}

/// Length-determining sub-expressions inside `range`:
/// `vec![_; LEN]`, `with_capacity(LEN)`, `.resize(LEN, ..)` and friends,
/// slice bounds `[A..B]`, and `x.to_le_bytes()` length-header encoding.
fn len_positions(toks: &[Tok], mask: &[bool], range: Range<usize>) -> Vec<(Range<usize>, usize)> {
    let mut out = Vec::new();
    let end = range.end.min(toks.len());
    let mut j = range.start;
    while j < end {
        if mask[j] {
            j += 1;
            continue;
        }
        let t = toks[j].text.as_str();
        // vec![elem; LEN]
        if t == "vec"
            && toks.get(j + 1).is_some_and(|n| n.text == "!")
            && toks.get(j + 2).is_some_and(|n| n.text == "[")
        {
            let close = matching_close(toks, j + 2);
            let semi = find_at_depth0(toks, j + 3, close, &[";"]);
            if semi < close {
                out.push((semi + 1..close, toks[j].line));
            }
            j = close + 1;
            continue;
        }
        // with_capacity(LEN)
        if t == "with_capacity" && toks.get(j + 1).is_some_and(|n| n.text == "(") {
            let close = matching_close(toks, j + 1);
            out.push((j + 2..close, toks[j].line));
            j = close + 1;
            continue;
        }
        // .resize(LEN, ..) / .truncate(LEN) / .take(LEN) / ...
        if j > 0
            && toks[j - 1].text == "."
            && LEN_METHODS.contains(&t)
            && toks.get(j + 1).is_some_and(|n| n.text == "(")
        {
            let close = matching_close(toks, j + 1);
            let first_end = find_at_depth0(toks, j + 2, close, &[","]).min(close);
            out.push((j + 2..first_end, toks[j].line));
            j += 2;
            continue;
        }
        // slice bounds: `[ .. ]` ranges inside an index expression
        if t == "[" && j > 0 && (toks[j - 1].is_word() || toks[j - 1].text == ")") {
            let close = matching_close(toks, j);
            let dots = find_at_depth0(toks, j + 1, close, &["..", "..="]);
            if dots < close {
                out.push((j + 1..close, toks[j].line));
                j = close + 1;
                continue;
            }
        }
        // length-header construction: `x.to_le_bytes()` / `x.to_be_bytes()`
        if (t == "to_le_bytes" || t == "to_be_bytes") && j >= 2 && toks[j - 1].text == "." {
            let recv_start = if toks[j - 2].text == ")" {
                // Walk back to the matching `(`.
                let mut depth = 0i32;
                let mut k = j - 2;
                loop {
                    match toks[k].text.as_str() {
                        ")" => depth += 1,
                        "(" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                k
            } else {
                j - 2
            };
            out.push((recv_start..j - 1, toks[j].line));
        }
        j += 1;
    }
    out
}

/// Is the token at `j` the start of a `.len()` / `.is_empty()` /
/// `.capacity()` public-size projection?
fn len_escaped(toks: &[Tok], j: usize) -> bool {
    toks.get(j).is_some_and(|t| t.text == ".")
        && toks
            .get(j + 1)
            .is_some_and(|t| t.text == "len" || t.text == "is_empty" || t.text == "capacity")
        && toks.get(j + 2).is_some_and(|t| t.text == "(")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taint(path: &str, src: &str) -> Vec<Finding> {
        lint_source(path, src)
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn direct_expose_in_branch() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<u64>) { if s.expose() > 0 { g(); } }",
        );
        assert_eq!(rules_of(&f), ["BRANCH"]);
    }

    #[test]
    fn two_hop_flow_into_branch() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<u64>) {\n let a = s.expose();\n let b = a + 1;\n if b > 0 { g(); }\n}",
        );
        assert_eq!(rules_of(&f), ["BRANCH"]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn len_of_exposed_is_public() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<Vec<u8>>) {\n let n = s.expose().len();\n if n > 0 { g(); }\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn tainted_index_flagged() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<usize>, v: &[u8]) {\n let i = s.expose();\n let x = v[i];\n}",
        );
        assert_eq!(rules_of(&f), ["INDEX"]);
    }

    #[test]
    fn tainted_loop_bound_flagged() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<usize>) {\n let n = s.expose();\n for _i in 0..n { g(); }\n}",
        );
        assert_eq!(rules_of(&f), ["LOOP"]);
    }

    #[test]
    fn tainted_vec_len_to_send_flagged() {
        let f = taint(
            "crates/transport/src/x.rs",
            "fn f(ch: &mut Channel, s: Secret<usize>) {\n let n = s.expose();\n let buf = vec![0u8; n];\n ch.send(buf);\n}",
        );
        assert_eq!(rules_of(&f), ["COMM"]);
    }

    #[test]
    fn public_len_to_send_clean() {
        let f = taint(
            "crates/transport/src/x.rs",
            "fn f(ch: &mut Channel, m: usize) {\n let buf = vec![0u8; m * 16];\n ch.send(buf);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn tainted_length_header_flagged() {
        let f = taint(
            "crates/transport/src/x.rs",
            "fn f(ch: &mut Channel, s: Secret<u32>) {\n let n = s.expose();\n ch.send(n.to_le_bytes().to_vec());\n}",
        );
        assert_eq!(rules_of(&f), ["COMM"]);
    }

    #[test]
    fn marker_param_taints_in_scope() {
        let f = taint(
            "crates/gc/src/x.rs",
            "fn f(delta: u128) { if delta > 0 { g(); } }",
        );
        assert_eq!(rules_of(&f), ["BRANCH"]);
    }

    #[test]
    fn marker_param_public_outside_scope() {
        let f = taint(
            "crates/relation/src/x.rs",
            "fn f(key: u64) { if key > 0 { g(); } }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn match_on_tainted_flagged_and_arm_binds() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<Option<usize>>, v: &[u8]) {\n let o = s.expose();\n match o {\n Some(i) => { let _ = v[i]; }\n None => {}\n }\n}",
        );
        let mut r = rules_of(&f);
        r.sort();
        assert_eq!(r, ["BRANCH", "INDEX"]);
    }

    #[test]
    fn closure_param_fed_by_tainted_receiver() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<Vec<u64>>) {\n let vals = s.expose();\n let _ = vals.iter().map(|x| if *x > 0 { 1 } else { 0 }).sum::<u64>();\n}",
        );
        assert_eq!(rules_of(&f), ["BRANCH"]);
    }

    #[test]
    fn taint_ok_suppresses() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<u64>) {\n let a = s.expose();\n // ct-ok: declassified protocol output, public by design.\n if a > 0 { g(); }\n}",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn tests_are_skipped() {
        let f = taint(
            "crates/ot/src/x.rs",
            "#[cfg(test)]\nmod tests {\n fn f(s: Secret<u64>) { if s.expose() > 0 { g(); } }\n}",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn rng_in_pool_closure_flagged() {
        let f = taint(
            "crates/psi/src/x.rs",
            "fn f(pool: &Pool, xs: &[u8]) {\n let _ = pool.map(xs, 1, |_, x| rng.gen_range(0..2) + *x as u64);\n}",
        );
        assert_eq!(rules_of(&f), ["PAR"]);
    }

    #[test]
    fn clean_pool_closure_ok() {
        let f = taint(
            "crates/psi/src/x.rs",
            "fn f(pool: &Pool, xs: &[u8]) {\n let _ = pool.map(xs, 1, |_, x| *x as u64 + 1);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn channel_io_in_pool_closure_flagged() {
        let f = taint(
            "crates/oep/src/x.rs",
            "fn f(pool: &Pool, ch: &mut Channel, xs: &[u8]) {\n let _ = pool.map(xs, 1, |_, x| { ch.send(vec![*x]); 0u8 });\n}",
        );
        assert!(rules_of(&f).contains(&"PAR"));
    }

    #[test]
    fn resize_on_sent_buffer_with_tainted_len() {
        let f = taint(
            "crates/transport/src/x.rs",
            "fn f(ch: &mut Channel, s: Secret<usize>) {\n let n = s.expose();\n let mut buf = Vec::new();\n buf.resize(n, 0u8);\n ch.send(buf);\n}",
        );
        assert_eq!(rules_of(&f), ["COMM"]);
    }

    #[test]
    fn slice_pattern_is_not_an_index() {
        let f = taint(
            "crates/gc/src/x.rs",
            "fn f(s: Secret<[u64; 2]>) -> u64 {\n let [a, b] = s.expose();\n a ^ b\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn iterating_tainted_collection_is_public_length() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<Vec<u64>>) -> u64 {\n let vals = s.expose();\n let mut acc = 0;\n for v in vals.iter() {\n acc ^= v;\n }\n acc\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn enumerate_index_is_public() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<Vec<u64>>, out: &mut [u64]) {\n let vals = s.expose();\n for (i, v) in vals.iter().enumerate() {\n out[i] = v ^ 1;\n }\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn enumerate_closure_index_is_public() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<Vec<u64>>, out: &[u64]) -> u64 {\n let vals = s.expose();\n vals.iter().enumerate().map(|(j, v)| out[j] ^ v).sum()\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn let_binding_does_not_self_feed_closure() {
        // `results` becomes tainted through its rhs; that must not loop
        // back into the closure parameters via the statement prefix.
        let f = taint(
            "crates/gc/src/x.rs",
            "fn f(delta: u64, xs: &[u64], zs: &[u64]) -> u64 {\n let results = xs.iter().map(|x| x ^ delta).sum::<u64>();\n let picked = xs.iter().map(|x| zs[(*x as usize) % zs.len()]).sum::<u64>();\n results ^ picked\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn send_recv_loop_flagged() {
        let f = taint(
            "crates/oep/src/x.rs",
            "fn f(ch: &mut Channel, xs: &[u64]) {\n for x in xs {\n ch.send_u64(*x);\n let _ = ch.recv_u64();\n }\n}",
        );
        assert_eq!(rules_of(&f), ["COMM"]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn send_flush_loop_flagged() {
        let f = taint(
            "crates/oep/src/x.rs",
            "fn f(ch: &mut Channel, xs: &[u64]) {\n while xs.len() > 0 {\n ch.send_u64(1);\n ch.flush();\n }\n}",
        );
        assert_eq!(rules_of(&f), ["COMM"]);
    }

    #[test]
    fn send_only_loop_is_staged_and_clean() {
        let f = taint(
            "crates/oep/src/x.rs",
            "fn f(ch: &mut Channel, xs: &[u64]) {\n for x in xs {\n ch.send_u64(*x);\n }\n let _ = ch.recv_u64();\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn recv_only_loop_clean() {
        let f = taint(
            "crates/oep/src/x.rs",
            "fn f(ch: &mut Channel, n: usize) -> u64 {\n let mut acc = 0;\n for _x in 0..n {\n acc ^= ch.recv_u64();\n }\n acc\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn roundtrip_loop_taint_ok_suppresses() {
        let f = taint(
            "crates/oep/src/x.rs",
            "fn f(ch: &mut Channel, xs: &[u64]) {\n for x in xs {\n // ct-ok: genuinely adaptive — each query depends on the last reply.\n ch.send_u64(*x);\n let _ = ch.recv_u64();\n }\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn outside_crates_skipped() {
        let f = taint(
            "examples/src/x.rs",
            "fn f(s: Secret<u64>) { if s.expose() > 0 { g(); } }",
        );
        assert!(f.is_empty());
    }
}

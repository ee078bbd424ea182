//! Secret-taint dataflow analysis and communication-shape linting.
//!
//! Where ct-lint's rules are line-local patterns, this pass follows values:
//! an intraprocedural, flow-insensitive worklist propagation over the
//! bindings of each function. A `Secret::expose()` whose result flows
//! through two `let`s into a branch condition is invisible to ct-lint and
//! caught here.
//!
//! **Sources**:
//! - results of calls on the source list ([`SOURCES`]) — `expose` (the `Secret<T>` /
//!   `SecretBlock` declassification point), `draw_pads` (IKNP pad
//!   derivation), `derive_key` (base-OT key derivation), `input_label`
//!   (GC label lookup);
//! - parameters whose names carry a secret-marker word
//!   ([`crate::rules::SECRET_MARKERS`]) in the secret-scope crates
//!   ([`crate::rules::SECRET_SCOPE`]).
//!
//! **Propagation**: `let` bindings, assignments (plain and compound),
//! `for`/`if let`/`while let` pattern bindings, `match` arm bindings,
//! buffer-mutation methods (`push`, `extend`, …), and closure parameters
//! fed from a tainted prefix of the same statement. Calling `.len()`,
//! `.is_empty()`, or `.capacity()` on a tainted value yields a *public*
//! size (the protocol invariant: sizes are public shape), so those uses do
//! not propagate.
//!
//! **Sinks** (the rules):
//! - `T-BRANCH` — `if`/`while`/`match` condition on a tainted value
//!   (control flow must never depend on secrets);
//! - `T-LOOP` — a `for` whose iterable is a *range* bounded by a tainted
//!   value (`0..n`): trip counts are timing-visible. Iterating a
//!   collection of tainted elements is fine — that reveals only its
//!   length, public shape by protocol invariant (and `enumerate` position
//!   indices are likewise public);
//! - `T-INDEX` — a tainted index or slice bound (memory addresses are
//!   cache-timing-visible);
//! - `T-COMM` — the communication-shape rule: a tainted value in a
//!   *length-determining position* of data that reaches `send` /
//!   `send_blocks` / `send_bytes` (`vec![_; n]`, `with_capacity`,
//!   `resize`, `truncate`, `take`, `set_len`, slice bounds, and
//!   `to_le_bytes` length-header construction). Message lengths must be a
//!   function of the public query shape only — the static mirror of the
//!   transcript-invariance tests;
//! - `D-PAR` — determinism of `secyan-par` dispatch closures: no RNG, no
//!   channel I/O, no clocks, no spawns inside `pool.map`/`chunks_mut`/
//!   `zip_chunks_mut`/`broadcast` closures (statically enforcing the
//!   DESIGN.md §9 three-rule contract).
//!
//! Suppression: `// taint-ok: <why>` on the finding line or the contiguous
//! comment block above; bulk reviewed exceptions live in `taint.allow`.
//! `#[cfg(test)]` / `#[test]` regions are skipped (tests expose and branch
//! freely), as is everything outside `crates/`.

use crate::lexer::{ident_words, ScannedFile};
use crate::parse::{find_at_depth0, matching_close, parse_fns, pattern_names, tokenize, Tok};
use crate::rules::{Finding, SECRET_MARKERS, SECRET_SCOPE};
use std::collections::BTreeSet;
use std::ops::Range;

/// Call names whose results are secret-tainted: the reviewed source list.
pub const SOURCES: &[&str] = &["expose", "draw_pads", "derive_key", "input_label"];

/// Send-like calls whose payload shape is wire-visible.
const SEND_SINKS: &[&str] = &[
    "send",
    "send_blocks",
    "send_bytes",
    "send_with",
    "send_words",
];

/// Method names that block on (or force) a wire frame: any `recv*` fetch,
/// plus an explicit `flush`. Inside a loop these defeat send staging.
fn is_blocking_name(name: &str) -> bool {
    name.starts_with("recv") || name == "flush"
}

/// Method names that stage outbound data (`send`, `send_u64`,
/// `send_u64_slice`, `send_bits`, …).
fn is_send_name(name: &str) -> bool {
    name.starts_with("send")
}

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

/// Pool dispatch methods whose closures are the parallel sections bound by
/// the determinism contract.
const POOL_DISPATCH: &[&str] = &["map", "chunks_mut", "zip_chunks_mut", "broadcast"];

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

/// Run the taint pass over one file's source text.
pub fn taint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    if !rel_path.starts_with("crates/") {
        return Vec::new();
    }
    let scan = ScannedFile::scan(src);
    let toks = tokenize(&scan);
    let raw: Vec<&str> = src.lines().collect();
    let mask = attribute_mask(&toks);
    let fns = parse_fns(&toks);
    let in_scope = SECRET_SCOPE.iter().any(|p| rel_path.starts_with(p));

    let mut keyed: BTreeSet<(usize, &'static str)> = BTreeSet::new();
    for (fi, f) in fns.iter().enumerate() {
        if scan.in_test.get(f.line).copied().unwrap_or(false) {
            continue;
        }
        // Mask out nested fn bodies so each function is analyzed once.
        let mut fmask = mask.clone();
        for (gi, g) in fns.iter().enumerate() {
            if gi != fi && f.body.start <= g.body.start && g.body.end <= f.body.end {
                // Mask from the nested header's start; its `fn` token sits
                // a few tokens before the body — walk back to it.
                let mut h = g.body.start;
                while h > f.body.start
                    && toks[h - 1].text != ";"
                    && toks[h - 1].text != "}"
                    && toks[h - 1].text != "{"
                {
                    h -= 1;
                    if toks[h].text == "fn" {
                        break;
                    }
                }
                for m in fmask.iter_mut().take(g.body.end + 1).skip(h) {
                    *m = true;
                }
            }
        }
        analyze_fn(f, &toks, &fmask, in_scope, &mut keyed);
    }

    let mut out = Vec::new();
    for (line, rule) in keyed {
        if suppressed_by(&scan, line, "taint-ok:") {
            continue;
        }
        out.push(Finding {
            rule,
            path: rel_path.to_string(),
            line: line + 1,
            snippet: raw
                .get(line)
                .map_or(String::new(), |l| l.trim().to_string()),
        });
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

/// True if a `<tag> <reason>` comment covers line `i`: on the line itself
/// or in the contiguous run of comment/attribute lines directly above.
pub fn suppressed_by(scan: &ScannedFile, i: usize, tag: &str) -> bool {
    let hit = |j: usize| scan.comments.get(j).is_some_and(|c| c.contains(tag));
    if hit(i) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let code_above = scan.code[j].trim();
        if !(code_above.is_empty() || code_above.starts_with("#[")) {
            return false;
        }
        if hit(j) {
            return true;
        }
    }
    false
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

/// Analyze one function body; findings accumulate as `(line, rule)` keys.
fn analyze_fn(
    f: &crate::parse::FnItem,
    toks: &[Tok],
    mask: &[bool],
    in_scope: bool,
    keyed: &mut BTreeSet<(usize, &'static str)>,
) {
    let body = f.body.clone();
    let (events, sinks) = collect_events(toks, mask, body.clone());

    // --- Forward taint fixpoint -------------------------------------------
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    if in_scope {
        for p in &f.params {
            if ident_words(p)
                .iter()
                .any(|w| SECRET_MARKERS.contains(&w.as_str()))
            {
                tainted.insert(p.clone());
            }
        }
    }
    loop {
        let before = tainted.len();
        for ev in &events {
            if range_tainted(toks, mask, ev.rhs.clone(), &tainted) {
                for l in &ev.lhs {
                    tainted.insert(l.clone());
                }
            }
        }
        if tainted.len() == before {
            break;
        }
    }

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
        if range_tainted(toks, mask, s.cond.clone(), &tainted) {
            keyed.insert((s.line, s.rule));
        }
    }

    // --- Index sinks -------------------------------------------------------
    for j in body.clone() {
        if j >= toks.len() || mask[j] || toks[j].text != "[" || j == 0 {
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
        if range_tainted(toks, mask, j + 1..close, &tainted) {
            keyed.insert((toks[j].line, "T-INDEX"));
        }
    }

    // --- Communication-shape sinks ----------------------------------------
    for r in &send_args {
        // `send_with(len, ..)`: the whole argument is the message length.
        let name = &toks[r.start - 2];
        if name.text == "send_with" && range_tainted(toks, mask, r.clone(), &tainted) {
            keyed.insert((name.line, "T-COMM"));
        }
        for (lp, line) in len_positions(toks, mask, r.clone()) {
            if range_tainted(toks, mask, lp, &tainted) {
                keyed.insert((line, "T-COMM"));
            }
        }
    }
    for ev in &events {
        if ev.lhs.iter().any(|l| fs.contains(l)) {
            for (lp, line) in len_positions(toks, mask, ev.rhs.clone()) {
                if range_tainted(toks, mask, lp, &tainted) {
                    keyed.insert((line, "T-COMM"));
                }
            }
        }
    }
    // Direct length mutation of a wire-bound buffer: `buf.resize(n, _)`
    // where `buf` flows to a send and `n` is tainted.
    for j in body.clone() {
        if j >= toks.len() || mask[j] || j < 2 {
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
        if range_tainted(toks, mask, j + 2..first_end, &tainted) {
            keyed.insert((toks[j].line, "T-COMM"));
        }
    }

    // --- Round-discipline: per-iteration wire round trips -----------------
    loop_roundtrips(toks, mask, body.clone(), keyed);

    // --- Pool-closure determinism -----------------------------------------
    for j in body.clone() {
        if j >= toks.len() || mask[j] || j < 2 {
            continue;
        }
        if toks[j - 1].text != "." || !POOL_DISPATCH.contains(&toks[j].text.as_str()) {
            continue;
        }
        if !ident_words(&toks[j - 2].text).iter().any(|w| w == "pool") {
            continue;
        }
        let Some(open) = toks.get(j + 1).filter(|t| t.text == "(") else {
            continue;
        };
        let _ = open;
        let close = matching_close(toks, j + 1);
        for k in j + 2..close.min(toks.len()) {
            if mask[k] {
                continue;
            }
            let t = &toks[k];
            if !t.is_word() {
                continue;
            }
            let is_forbidden = PAR_FORBIDDEN.contains(&t.text.as_str())
                || ident_words(&t.text).iter().any(|w| w == "rng");
            if is_forbidden {
                keyed.insert((t.line, "D-PAR"));
            }
        }
    }
}

/// T-COMM round-discipline scan: a send-like method call inside a loop
/// whose body also blocks on the wire (any `.recv*(..)`) or forces a frame
/// (`.flush()`) pays one wire round trip *per iteration* — the per-edge
/// ping-pong the staged `send`/`flush` transport API exists to eliminate,
/// and the exact shape that regresses super-round counts. Batch the sends
/// (stage the whole loop's worth, then receive), or split the operator
/// into a stage-all `*_begin` / receive-only `*_finish` pair. Loops that
/// only send are fine: staged messages coalesce into one super-frame.
fn loop_roundtrips(
    toks: &[Tok],
    mask: &[bool],
    body: Range<usize>,
    keyed: &mut BTreeSet<(usize, &'static str)>,
) {
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
            if is_send_name(name) {
                send_lines.push(toks[j].line);
            } else if is_blocking_name(name) {
                blocks = true;
            }
        }
        if blocks {
            for l in send_lines {
                keyed.insert((l, "T-COMM"));
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
                            rule: "T-LOOP",
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
                        sinks.push(Sink {
                            rule: "T-BRANCH",
                            cond: eq + 1..brace,
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
                            rule: "T-BRANCH",
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
                        rule: "T-BRANCH",
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

/// Does `range` mention a tainted value? True if it contains a tainted
/// identifier (not behind a `.len()`-style public-size escape) or a direct
/// source call.
fn range_tainted(
    toks: &[Tok],
    mask: &[bool],
    range: Range<usize>,
    tainted: &BTreeSet<String>,
) -> bool {
    let end = range.end.min(toks.len());
    for j in range.start..end {
        if mask[j] || !toks[j].is_word() {
            continue;
        }
        let t = toks[j].text.as_str();
        let is_source_call = SOURCES.contains(&t) && toks.get(j + 1).is_some_and(|n| n.text == "(");
        if is_source_call {
            let close = matching_close(toks, j + 1);
            if !len_escaped(toks, close + 1) {
                return true;
            }
            continue;
        }
        if tainted.contains(t) && !len_escaped(toks, j + 1) {
            return true;
        }
    }
    false
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
        taint_source(path, src)
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
        assert_eq!(rules_of(&f), ["T-BRANCH"]);
    }

    #[test]
    fn two_hop_flow_into_branch() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<u64>) {\n let a = s.expose();\n let b = a + 1;\n if b > 0 { g(); }\n}",
        );
        assert_eq!(rules_of(&f), ["T-BRANCH"]);
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
        assert_eq!(rules_of(&f), ["T-INDEX"]);
    }

    #[test]
    fn tainted_loop_bound_flagged() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<usize>) {\n let n = s.expose();\n for _i in 0..n { g(); }\n}",
        );
        assert_eq!(rules_of(&f), ["T-LOOP"]);
    }

    #[test]
    fn tainted_vec_len_to_send_flagged() {
        let f = taint(
            "crates/transport/src/x.rs",
            "fn f(ch: &mut Channel, s: Secret<usize>) {\n let n = s.expose();\n let buf = vec![0u8; n];\n ch.send(buf);\n}",
        );
        assert_eq!(rules_of(&f), ["T-COMM"]);
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
        assert_eq!(rules_of(&f), ["T-COMM"]);
    }

    #[test]
    fn marker_param_taints_in_scope() {
        let f = taint(
            "crates/gc/src/x.rs",
            "fn f(delta: u128) { if delta > 0 { g(); } }",
        );
        assert_eq!(rules_of(&f), ["T-BRANCH"]);
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
        assert_eq!(r, ["T-BRANCH", "T-INDEX"]);
    }

    #[test]
    fn closure_param_fed_by_tainted_receiver() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<Vec<u64>>) {\n let vals = s.expose();\n let _ = vals.iter().map(|x| if *x > 0 { 1 } else { 0 }).sum::<u64>();\n}",
        );
        assert_eq!(rules_of(&f), ["T-BRANCH"]);
    }

    #[test]
    fn taint_ok_suppresses() {
        let f = taint(
            "crates/ot/src/x.rs",
            "fn f(s: Secret<u64>) {\n let a = s.expose();\n // taint-ok: declassified protocol output, public by design.\n if a > 0 { g(); }\n}",
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
        assert_eq!(rules_of(&f), ["D-PAR"]);
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
        assert!(rules_of(&f).contains(&"D-PAR"));
    }

    #[test]
    fn resize_on_sent_buffer_with_tainted_len() {
        let f = taint(
            "crates/transport/src/x.rs",
            "fn f(ch: &mut Channel, s: Secret<usize>) {\n let n = s.expose();\n let mut buf = Vec::new();\n buf.resize(n, 0u8);\n ch.send(buf);\n}",
        );
        assert_eq!(rules_of(&f), ["T-COMM"]);
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
        assert_eq!(rules_of(&f), ["T-COMM"]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn send_flush_loop_flagged() {
        let f = taint(
            "crates/oep/src/x.rs",
            "fn f(ch: &mut Channel, xs: &[u64]) {\n while xs.len() > 0 {\n ch.send_u64(1);\n ch.flush();\n }\n}",
        );
        assert_eq!(rules_of(&f), ["T-COMM"]);
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
            "fn f(ch: &mut Channel, xs: &[u64]) {\n for x in xs {\n // taint-ok: genuinely adaptive — each query depends on the last reply.\n ch.send_u64(*x);\n let _ = ch.recv_u64();\n }\n}",
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

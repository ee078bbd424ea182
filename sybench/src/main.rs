//! `sybench`: the one benchmark of the whole stack, declared in the
//! repository's `BENCHMARK.json`.
//!
//! One invocation runs one workload in its own process:
//!
//! ```text
//! sybench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! It builds the workload's inputs from the seed, measures closed-loop
//! repetitions for the given number of seconds, checks every revealed
//! result against a plaintext oracle, and prints one JSON object as the
//! last line of standard output. With `--trace 0` that object holds the
//! end-to-end metrics, measured with the span recorder off. With
//! `--trace 1` it holds the per-layer metrics: repetitions alternate
//! between recorder off and on, the unit-cost probes of `probes.rs` run,
//! and the spans go to a file beside the executable.
//!
//! The benchmark measures every layer from outside, through the crates'
//! public functions; see `README.md` in this directory for the workloads,
//! the metrics, and which layer should move which number.

mod chain3;
mod probes;
mod serve;
mod tpch;
mod trace;
mod workload;

use secyan_core::QueryShape;
use secyan_transport::Role;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Op, Tally, Workload};

/// Set-up is repeated this often and `setup_s` is the median, so that one
/// slow start does not pass for a regression.
const SETUPS: usize = 3;

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub fn put(metrics: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    metrics.push((name.into(), value, unit));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sybench --workload <{}> --seed <u64> --seconds <1..=60> --trace <0|1>",
        workload::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else { usage() };
        match flag.as_str() {
            "--workload" if workload::NAMES.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s| (1..=60).contains(s)),
            "--trace" => trace = ["0", "1"].iter().position(|&v| v == value).map(|p| p == 1),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear interpolation between order statistics; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// `part / whole`, or 0 when there is no whole: a metric that does not
/// apply to a workload reads 0 there.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Peak resident set of this process, from the kernel's own high-water mark.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, when the checkout is a git repository.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match commit.trim() {
        "" => "unknown".to_string(),
        c => c.to_string(),
    }
}

/// One closed-loop repetition as measured: whether the recorder was on, the
/// wall time, and the units of work it completed.
struct Rep {
    traced: bool,
    wall_s: f64,
    ops: Vec<Op>,
}

/// Closed-loop repetitions until `seconds` have passed; the repetition in
/// flight at the deadline is completed. With `alternate`, every other
/// repetition runs with the recorder on, and each is kept to one cycle so
/// that both kinds get their share.
fn measure(w: &mut dyn Workload, seconds: f64, alternate: bool, tracer: &Tracer) -> Vec<Rep> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut reps = Vec::new();
    while reps.is_empty() || Instant::now() < deadline {
        let traced = alternate && reps.len() % 2 == 1;
        tracer.set_on(traced);
        let t = Instant::now();
        let ops = w.rep(tracer, if alternate { t } else { deadline });
        let wall_s = t.elapsed().as_secs_f64();
        tracer.set_on(false);
        reps.push(Rep {
            traced,
            wall_s,
            ops,
        });
    }
    reps
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Two parties run side by side, so each gets half the cores.
    let threads_per_party = (nproc / 2).max(1);
    secyan_par::set_threads(threads_per_party);
    let features = secyan_crypto::cpu::features();
    println!(
        "{{\"sybench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"threads_per_party\": {threads_per_party}, \"hasher\": \"{:?}\", \
         \"cpu\": \"{features:?}\", \"force_scalar\": {}, \"commit\": \"{}\", \
         \"links\": \"tcp is host loopback; the WAN is a sleep model\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::hasher(),
        secyan_crypto::cpu::force_scalar(),
        git_commit(),
    );

    let tracer = Tracer::new();
    let total = Instant::now();

    // Set-up: inputs, query, oracle, server start and one warm-up
    // repetition, all over again each time.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm_ups: Vec<Op> = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(built.take());
        let t = Instant::now();
        tracer.set_on(args.trace);
        let (w, ops) = workload::set_up(&args.workload, args.seed, &tracer);
        tracer.set_on(false);
        setups.push(t.elapsed().as_secs_f64());
        warm_ups.extend(ops);
        built = Some(w);
    }
    let mut w = built.expect("set-up ran at least once");

    let seconds = args.seconds as f64;
    let (metrics, reps, tally) = if args.trace {
        // Half the time on the workload, alternating recorder off and on;
        // the probes take the rest.
        let reps = measure(w.as_mut(), seconds / 2.0, true, &tracer);
        let tally = w.finish();
        let metrics = layer_metrics(w.as_ref(), &reps, &tally, &tracer, threads_per_party);
        let file = trace_file(&args.workload);
        match tracer.write_json(&file) {
            Ok(()) => eprintln!("sybench: spans written to {}", file.display()),
            Err(e) => eprintln!("sybench: could not write {}: {e}", file.display()),
        }
        (metrics, reps, tally)
    } else {
        let reps = measure(w.as_mut(), seconds, false, &tracer);
        let tally = w.finish();
        let metrics = end_to_end_metrics(&reps, median(&setups));
        (metrics, reps, tally)
    };
    drop(w);

    let checked = || warm_ups.iter().chain(reps.iter().flat_map(|rep| &rep.ops));
    let attempted = checked().count();
    let failed = checked().filter(|op| !op.ok).count() + tally.not_completed as usize;
    let correct = failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    eprintln!(
        "sybench: {} finished in {:.1} s, {attempted} units attempted, {failed} failed",
        args.workload,
        total.elapsed().as_secs_f64()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The span file sits beside the executable, inside the build directory.
fn trace_file(workload: &str) -> std::path::PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    dir.join(format!("sybench-trace-{workload}.json"))
}

fn end_to_end_metrics(reps: &[Rep], setup_s: f64) -> Vec<Metric> {
    let good: Vec<&Op> = reps
        .iter()
        .flat_map(|rep| &rep.ops)
        .filter(|op| op.ok)
        .collect();
    let latencies: Vec<f64> = good.iter().map(|op| op.ms).collect();
    // Throughput is taken per repetition and the median reported: one
    // repetition that a neighbour on a shared machine stretched then costs
    // one sample, not its whole length out of the window.
    let rates: Vec<f64> = reps
        .iter()
        .map(|rep| rep.ops.iter().filter(|op| op.ok).count() as f64 / rep.wall_s)
        .collect();
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("query_ms_p50".into(), median(&latencies), "ms"),
        ("ops_per_s".into(), median(&rates), "1/s"),
        (
            "comm_bytes".into(),
            mean(good.iter().map(|op| op.stats.total_bytes() as f64)),
            "bytes",
        ),
        (
            "super_rounds".into(),
            mean(good.iter().map(|op| op.stats.super_rounds as f64)),
            "count",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

/// Everything `--trace 1` reports: counts read off the workload's units of
/// work and shapes, span self times, and the unit-cost probes.
fn layer_metrics(
    w: &dyn Workload,
    reps: &[Rep],
    tally: &Tally,
    tracer: &Tracer,
    threads_per_party: usize,
) -> Vec<Metric> {
    let good = |traced: bool| {
        reps.iter()
            .filter(move |rep| rep.traced == traced)
            .flat_map(|rep| &rep.ops)
            .filter(|op| op.ok)
    };
    let plain_ms: Vec<f64> = good(false).map(|op| op.ms).collect();
    let traced_ms: Vec<f64> = good(true).map(|op| op.ms).collect();
    let busy_ms = mean(good(false).map(|op| op.busy_ms));
    let per_op = |f: &dyn Fn(&Op) -> u64| mean(good(false).map(|op| f(op) as f64));
    let mut m: Vec<Metric> = Vec::new();

    // Shape counts: what the planner foresees for one unit of work.
    tracer.set_on(true);
    let shapes: Vec<(QueryShape, f64)> = w
        .shapes()
        .iter()
        .map(|s| {
            let shape = tracer.within("core.shape_derive", || {
                QueryShape::derive(&s.query, &s.sizes, Role::Alice, s.ell)
            });
            (shape, s.runs)
        })
        .collect();
    tracer.set_on(false);
    // Per unit of work: each shape's count times how often a unit runs it.
    let per_unit = |count: &dyn Fn(&QueryShape) -> usize| -> f64 {
        shapes.iter().map(|(s, runs)| runs * count(s) as f64).sum()
    };
    let planned_ands = per_unit(&|s| {
        s.planned
            .iter()
            .map(|pc| pc.circuit.and_count() as usize)
            .sum()
    });
    let ot_budget = per_unit(&|s| s.ot_budget);
    let kkrt_budget = per_unit(&|s| s.kkrt_budget);
    // One OT per evaluator input bit of a planned circuit: the OTs a
    // single-shot run is sure to make. The budget above is what a
    // provisioned run banks, and is generous by design.
    let label_ots = per_unit(&|s| s.planned.iter().map(|pc| pc.circuit.bob_inputs).sum());
    put(&mut m, "core.planned_ands", planned_ands, "count");
    put(&mut m, "core.ot_budget", ot_budget, "count");
    put(&mut m, "core.kkrt_budget", kkrt_budget, "count");
    put(
        &mut m,
        "core.offline_bytes",
        per_op(&|op| op.stats.offline_bytes),
        "bytes",
    );
    put(
        &mut m,
        "core.online_bytes",
        per_op(&|op| op.stats.online_bytes),
        "bytes",
    );
    put(
        &mut m,
        "core.offline_super_rounds",
        per_op(&|op| op.stats.offline_super_rounds),
        "count",
    );
    put(
        &mut m,
        "core.online_super_rounds",
        per_op(&|op| op.stats.online_super_rounds),
        "count",
    );
    let lookups = tally.pool_hits + tally.pool_misses;
    put(
        &mut m,
        "core.pool_hit_ratio",
        share(tally.pool_hits as f64, lookups as f64),
        "ratio",
    );

    // Traffic shape and the share of the busy time the link model claims.
    let frames = per_op(&|op| op.stats.frames_alice_to_bob + op.stats.frames_bob_to_alice);
    put(&mut m, "transport.frames_per_query", frames, "count");
    let modeled_ms = w.net_model().map_or(0.0, |net| {
        per_op(&|op| op.stats.total_bytes()) * 8.0 / net.bandwidth_bits_per_sec as f64 * 1e3
            + per_op(&|op| op.stats.super_rounds) * net.one_way_latency_us as f64 / 1e3
    });
    put(
        &mut m,
        "transport.netmodel_share",
        share(modeled_ms, busy_ms),
        "ratio",
    );

    // Sessions by run mode, as the server workload's clients saw them.
    for (name, kind) in [
        ("server.single_session_ms_p50", "single"),
        ("server.phase_split_session_ms_p50", "phase_split"),
        ("server.pooled_session_ms_p50", "pooled"),
    ] {
        let of_kind: Vec<f64> = good(false)
            .filter(|op| op.kind == kind)
            .map(|op| op.ms)
            .collect();
        put(&mut m, name, median(&of_kind), "ms");
    }
    let sessions: Vec<f64> = good(false)
        .filter(|op| op.kind != "query")
        .map(|op| op.ms)
        .collect();
    put(
        &mut m,
        "server.session_ms_p95",
        quantile(&sessions, 0.95),
        "ms",
    );
    put(
        &mut m,
        "server.pool_left_total",
        tally.pool_left as f64,
        "count",
    );
    put(
        &mut m,
        "server.protocol_failed",
        tally.protocol_failed as f64,
        "count",
    );

    // Span self times, per occurrence; 0 where the workload never opens one.
    let self_ms = tracer.self_ms_by_name();
    for span in [
        "tpch.generate",
        "tpch.build",
        "relation.oracle",
        "server.start",
        "transport.connect",
        "transport.handshake",
        "core.shape_derive",
        "core.session_new",
        "core.query",
        "core.offline",
        "core.online",
        "bench.check",
    ] {
        put(
            &mut m,
            &format!("{span}_ms"),
            self_ms.get(span).copied().unwrap_or(0.0),
            "ms",
        );
    }
    put(
        &mut m,
        "trace.overhead_ratio",
        share(median(&traced_ms), median(&plain_ms)),
        "ratio",
    );

    // Unit costs of the layers below, at fixed sizes.
    put(
        &mut m,
        "par.threads_per_party",
        threads_per_party as f64,
        "count",
    );
    let unit = probes::run_all();
    let cost = |name: &str| {
        unit.iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    // What the outside probes can account for in one unit of work: a fresh
    // session's set-up, the planned circuits garbled and evaluated with
    // their input-label OTs, and the budgeted OPRF instances in both
    // directions. The rest — further OTs, PSI hashing and hints, OEP,
    // unplanned join circuits, driver glue, the link — is the share a later
    // in-program trace has to explain.
    let explained_ms = self_ms.get("core.session_new").copied().unwrap_or(0.0)
        + planned_ands * (cost("gc.garble_ns_per_and") + cost("gc.eval_ns_per_and")) / 1e6
        + label_ots * cost("ot.iknp_ns_per_ot") / 1e6
        + 2.0 * kkrt_budget * cost("ot.kkrt_ns_per_oprf") / 1e6;
    m.push((
        "core.unattributed_share".into(),
        if busy_ms > 0.0 {
            1.0 - explained_ms / busy_ms
        } else {
            0.0
        },
        "ratio",
    ));
    m.extend(unit);
    m
}

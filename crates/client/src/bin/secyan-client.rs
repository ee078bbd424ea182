//! `secyan-client` — run one query session against a `secyan-server`.
//!
//! ```text
//! secyan-client --addr 127.0.0.1:7979 [--family random|chain] [--seed N]
//!               [--mode single|phase-split|pooled] [--runs N] [--check]
//! ```
//!
//! Prints the revealed rows and the session's communication profile.
//! `--check` additionally evaluates the plaintext oracle locally and
//! exits nonzero if the revealed result disagrees.

use secyan_client::{run_session, ClientConfig};
use secyan_server::{QuerySpec, RunMode, SessionRequest};
use secyan_testkit::oracle;

fn usage() -> ! {
    eprintln!(
        "usage: secyan-client --addr HOST:PORT [--family random|chain] [--seed N] \
         [--mode single|phase-split|pooled] [--runs N] [--check]"
    );
    std::process::exit(2)
}

fn main() {
    let mut addr = None;
    let mut family = "random".to_string();
    let mut seed = 0u64;
    let mut mode = RunMode::Single;
    let mut runs = 1u32;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--check" {
            check = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--addr" => addr = Some(value.parse().unwrap_or_else(|_| usage())),
            "--family" => family = value,
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--mode" => {
                mode = match value.as_str() {
                    "single" => RunMode::Single,
                    "phase-split" => RunMode::PhaseSplit,
                    "pooled" => RunMode::Pooled,
                    _ => usage(),
                }
            }
            "--runs" => runs = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let spec = match family.as_str() {
        "random" => QuerySpec::Random { seed },
        "chain" => QuerySpec::Chain { seed },
        _ => usage(),
    };
    let req = SessionRequest { spec, mode, runs };
    let cfg = ClientConfig::new(addr);
    let out = match run_session(&cfg, &req) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("secyan-client: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "revealed {} row(s) (public out_size {}):",
        out.rows.len(),
        out.out_size
    );
    for (tuple, value) in &out.rows {
        println!("  {tuple:?} -> {value}");
    }
    println!(
        "comm: {} bytes ({} a->b, {} b->a), {} messages, {} super-rounds",
        out.stats.total_bytes(),
        out.stats.bytes_alice_to_bob,
        out.stats.bytes_bob_to_alice,
        out.stats.messages,
        out.stats.super_rounds,
    );
    if check {
        let expected = oracle(&req.spec.instance());
        if out.rows == expected {
            println!("check: revealed result matches the plaintext oracle");
        } else {
            eprintln!("check: MISMATCH against the plaintext oracle");
            eprintln!("  expected: {expected:?}");
            eprintln!("  revealed: {:?}", out.rows);
            std::process::exit(1);
        }
    }
}

//! `secyan-server` — serve secure Yannakakis sessions over TCP.
//!
//! ```text
//! secyan-server [--addr 127.0.0.1:7979] [--hello-timeout-ms 3000] [--io-timeout-ms 10000]
//! ```
//!
//! Accepts concurrent two-party sessions (the server plays Bob) and
//! prints one line per finished session. Stop with Ctrl-C.

use secyan_server::{serve, ServerConfig, SessionOutcome};
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: secyan-server [--addr HOST:PORT] [--hello-timeout-ms N] [--io-timeout-ms N]");
    std::process::exit(2)
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7979".parse().expect("static addr"),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--addr" => config.addr = value.parse().unwrap_or_else(|_| usage()),
            "--hello-timeout-ms" => {
                config.hello_timeout =
                    Duration::from_millis(value.parse().unwrap_or_else(|_| usage()))
            }
            "--io-timeout-ms" => {
                config.io_timeout = Duration::from_millis(value.parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }
    let handle = match serve(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("secyan-server: cannot bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!("secyan-server listening on {}", handle.addr());
    let mut printed = 0;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let (reports, pushed) = handle.reports_since(printed);
        for report in &reports {
            let peer = report
                .peer
                .map_or_else(|| "?".to_string(), |p| p.to_string());
            match &report.outcome {
                SessionOutcome::Completed { runs, out_size } => {
                    let stats = report.stats.unwrap_or_default();
                    println!(
                        "session {} from {peer}: completed {runs} run(s), out_size {out_size}, \
                         shape {:#x}, pool {}h/{}m, {} bytes / {} rounds",
                        report.id,
                        report.shape_key.map_or(0, |k| k.0),
                        report.pool_hits,
                        report.pool_misses,
                        stats.total_bytes(),
                        stats.rounds,
                    );
                }
                SessionOutcome::HandshakeFailed(detail) => {
                    println!(
                        "session {} from {peer}: handshake failed: {detail}",
                        report.id
                    );
                }
                SessionOutcome::ProtocolFailed(detail) => {
                    println!(
                        "session {} from {peer}: protocol failed: {detail}",
                        report.id
                    );
                }
            }
        }
        printed = pushed;
    }
}

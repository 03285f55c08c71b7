//! The `ldsd` binary: parse the config, start the daemon, serve until a
//! client asks for shutdown.
//!
//! Exit codes: `0` clean shutdown, `1` runtime failure, `2` bad usage or
//! bad configuration. Config problems print exactly one
//! `ldsd: config error: …` line — never a panic, never a half-started
//! daemon.

use ldsd::{Config, Daemon, DaemonError};
use std::time::Duration;

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut args = std::env::args().skip(1);
    let mut config_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" | "-c" => match args.next() {
                Some(path) => config_path = Some(path),
                None => {
                    eprintln!("ldsd: --config needs a path");
                    return 2;
                }
            },
            "--help" | "-h" => {
                println!("usage: ldsd --config <path.toml>");
                println!();
                println!("Runs one LDS storage daemon. The config file names this");
                println!("daemon's listen addresses, the deployment's protocol");
                println!("parameters and the full server membership; see the");
                println!("README's multi-host recipe for a complete example.");
                return 0;
            }
            other => {
                eprintln!("ldsd: unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }
    let Some(config_path) = config_path else {
        eprintln!("ldsd: missing --config <path.toml>");
        return 2;
    };

    let text = match std::fs::read_to_string(&config_path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("ldsd: config error: cannot read {config_path}: {error}");
            return 2;
        }
    };
    let config = match Config::parse(&text) {
        Ok(config) => config,
        Err(error) => {
            eprintln!("ldsd: config error: {error}");
            return 2;
        }
    };

    let daemon = match Daemon::start(config) {
        Ok(daemon) => daemon,
        Err(error @ DaemonError::Config(_)) => {
            eprintln!("ldsd: {error}");
            return 2;
        }
        Err(error) => {
            eprintln!("ldsd: {error}");
            return 1;
        }
    };
    let config = daemon.config();
    let topology = &config.topology;
    let [l1, l2] = topology.local_servers();
    println!(
        "ldsd: daemon {} of {} up — mesh {}, rpc {}, http {} (L1 {l1:?}, L2 {l2:?}), gf kernel {}",
        topology.index,
        topology.daemons(),
        config.daemon.listen,
        daemon.client_addr(),
        daemon.http_addr(),
        daemon.store().admin().metrics().gf_kernel,
    );

    // Serve until a client sends the Shutdown RPC.
    while !daemon.wait_shutdown(Duration::from_secs(3600)) {}
    println!("ldsd: shutdown requested, stopping");
    daemon.stop();
    0
}

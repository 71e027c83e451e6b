//! `seafl-client`: one worker process for a `seafl-server` run.
//!
//! ```text
//! seafl-client --addr-file /tmp/seafl.addr --seed 11 --algorithm seafl \
//!     --link 0 --loss-drop 0.05 --disconnect-after 40
//! ```
//!
//! The flags it shares with `seafl-server` are parsed by
//! [`seafl_net::preset::apply_shared_flag`]; a bad value exits 2 naming it.
//! `--seed`/`--algorithm`/`--codec` must match the server's — the handshake
//! verifies it via the config state-hash, so a mismatched worker is
//! rejected instead of silently corrupting the run. `--link` gives each
//! worker its own deterministic loss stream; `--disconnect-after N`
//! forcibly fails the link after N sent frames (once), and
//! `--die-after-assigns N` makes the process exit silently on its Nth
//! assignment — the two fault hooks the loopback resilience tests drive.

use seafl_core::ExperimentConfig;
use seafl_net::preset;
use seafl_net::NetClient;
use std::time::{Duration, Instant};

struct Args {
    /// The preset with every config flag applied; `transport.connect` is
    /// `--connect`, and `None` until the addr file is read.
    cfg: ExperimentConfig,
    addr_file: Option<String>,
    link: u64,
    die_after_assigns: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: seafl-client (--connect <tcp://host:port|uds://path> | --addr-file PATH) \
         [--seed N] [--algorithm NAME] [--codec LABEL] [--link N] [--chunk-bytes N] [--replay-history N] \
         [--rto-base SECS] [--loss-drop P] [--loss-dup P] [--loss-reorder P] \
         [--disconnect-after N] [--die-after-assigns N]"
    );
    std::process::exit(2);
}

/// Report a bad flag value and exit 2, like an unknown flag.
fn bad_value<T>(e: impl std::fmt::Display) -> T {
    eprintln!("seafl-client: {e}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args =
        Args { cfg: preset::base_config(), addr_file: None, link: 0, die_after_assigns: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        let cfg = &mut args.cfg;
        match flag.as_str() {
            "--connect" => cfg.transport.connect = Some(value),
            "--addr-file" => args.addr_file = Some(value),
            "--link" => args.link = preset::parse_value(&flag, &value).unwrap_or_else(bad_value),
            "--disconnect-after" => {
                let n = preset::parse_value(&flag, &value).unwrap_or_else(bad_value);
                cfg.transport.loss.disconnect_after = Some(n);
            }
            "--die-after-assigns" => {
                let n = preset::parse_value(&flag, &value).unwrap_or_else(bad_value);
                args.die_after_assigns = Some(n);
            }
            _ => {
                if !preset::apply_shared_flag(cfg, &flag, &value).unwrap_or_else(bad_value) {
                    usage()
                }
            }
        }
    }
    if args.cfg.transport.connect.is_none() && args.addr_file.is_none() {
        usage();
    }
    // Checked before waiting on an addr file, so a bad value fails at once.
    args.cfg.transport.validate().unwrap_or_else(bad_value);
    args
}

/// Poll the server's addr file into existence (it is written atomically).
fn resolve_endpoint(args: &Args) -> String {
    if let Some(ep) = &args.cfg.transport.connect {
        return ep.clone();
    }
    let path = args.addr_file.as_ref().expect("checked in parse_args");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match std::fs::read_to_string(path) {
            Ok(s) if !s.trim().is_empty() => return s.trim().to_string(),
            _ if Instant::now() >= deadline => {
                eprintln!("seafl-client: addr file {path} never appeared");
                std::process::exit(1);
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn main() {
    let mut args = parse_args();
    args.cfg.transport.connect = Some(resolve_endpoint(&args));
    let cfg = args.cfg;
    cfg.validate();

    let mut client = NetClient::new(cfg, args.link, args.die_after_assigns).unwrap_or_else(|e| {
        eprintln!("seafl-client[{}]: {e}", args.link);
        std::process::exit(1);
    });
    match client.run() {
        Ok(()) => eprintln!("seafl-client[{}]: done", args.link),
        Err(e) => {
            eprintln!("seafl-client[{}]: {e}", args.link);
            std::process::exit(1);
        }
    }
}

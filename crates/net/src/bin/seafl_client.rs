//! `seafl-client`: one worker process for a `seafl-server` run.
//!
//! ```text
//! seafl-client --addr-file /tmp/seafl.addr --seed 11 --algorithm seafl \
//!     --link 0 --loss-drop 0.05 --disconnect-after 40
//! ```
//!
//! `--seed`/`--algorithm`/`--codec` must match the server's — the handshake
//! verifies it via the config state-hash, so a mismatched worker is
//! rejected instead of silently corrupting the run. `--link` gives each
//! worker its own deterministic loss stream; `--disconnect-after N`
//! forcibly fails the link after N sent frames (once), and
//! `--die-after-assigns N` makes the process exit silently on its Nth
//! assignment — the two fault hooks the loopback resilience tests drive.

use seafl_net::preset;
use seafl_net::NetClient;
use std::time::{Duration, Instant};

struct Args {
    connect: Option<String>,
    addr_file: Option<String>,
    seed: u64,
    algorithm: String,
    codec: String,
    link: u64,
    chunk_bytes: Option<usize>,
    replay_history: Option<usize>,
    rto_base: Option<f64>,
    loss_drop: Option<f64>,
    loss_dup: Option<f64>,
    loss_reorder: Option<f64>,
    loss_delay: Option<f64>,
    delay_ms: Option<u64>,
    disconnect_after: Option<u64>,
    die_after_assigns: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: seafl-client (--connect <tcp://host:port|uds://path> | --addr-file PATH) \
         [--seed N] [--algorithm NAME] [--codec LABEL] [--link N] [--chunk-bytes N] [--replay-history N] \
         [--rto-base SECS] [--loss-drop P] [--loss-dup P] [--loss-reorder P] [--loss-delay P] \
         [--delay-ms MS] [--disconnect-after N] [--die-after-assigns N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        connect: None,
        addr_file: None,
        seed: 11,
        algorithm: "seafl".into(),
        codec: "identity".into(),
        link: 0,
        chunk_bytes: None,
        replay_history: None,
        rto_base: None,
        loss_drop: None,
        loss_dup: None,
        loss_reorder: None,
        loss_delay: None,
        delay_ms: None,
        disconnect_after: None,
        die_after_assigns: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--connect" => args.connect = Some(val()),
            "--addr-file" => args.addr_file = Some(val()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--algorithm" => args.algorithm = val(),
            "--codec" => args.codec = val(),
            "--link" => args.link = val().parse().unwrap_or_else(|_| usage()),
            "--chunk-bytes" => args.chunk_bytes = Some(val().parse().unwrap_or_else(|_| usage())),
            "--replay-history" => {
                args.replay_history = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--rto-base" => args.rto_base = Some(val().parse().unwrap_or_else(|_| usage())),
            "--loss-drop" => args.loss_drop = Some(val().parse().unwrap_or_else(|_| usage())),
            "--loss-dup" => args.loss_dup = Some(val().parse().unwrap_or_else(|_| usage())),
            "--loss-reorder" => args.loss_reorder = Some(val().parse().unwrap_or_else(|_| usage())),
            "--loss-delay" => args.loss_delay = Some(val().parse().unwrap_or_else(|_| usage())),
            "--delay-ms" => args.delay_ms = Some(val().parse().unwrap_or_else(|_| usage())),
            "--disconnect-after" => {
                args.disconnect_after = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--die-after-assigns" => {
                args.die_after_assigns = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }
    if args.connect.is_none() && args.addr_file.is_none() {
        usage();
    }
    args
}

/// Poll the server's addr file into existence (it is written atomically).
fn resolve_endpoint(args: &Args) -> String {
    if let Some(ep) = &args.connect {
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
    let args = parse_args();
    // Report a bad flag value and exit 2, like an unparsable one.
    let bad_value = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("seafl-client[{}]: {e}", args.link);
        std::process::exit(2);
    };
    let mut cfg =
        preset::loopback_config(args.seed, &args.algorithm).unwrap_or_else(|e| bad_value(&e));
    cfg.codec = preset::codec_by_name(&args.codec).unwrap_or_else(|e| bad_value(&e));
    cfg.transport.connect = args.connect.clone();
    if let Some(v) = args.chunk_bytes {
        cfg.transport.chunk_bytes = v;
    }
    if let Some(v) = args.replay_history {
        cfg.transport.replay_history = v;
    }
    if let Some(v) = args.rto_base {
        cfg.transport.rto_base = v;
    }
    if let Some(v) = args.loss_drop {
        cfg.transport.loss.drop_prob = v;
    }
    if let Some(v) = args.loss_dup {
        cfg.transport.loss.dup_prob = v;
    }
    if let Some(v) = args.loss_reorder {
        cfg.transport.loss.reorder_prob = v;
    }
    if let Some(v) = args.loss_delay {
        cfg.transport.loss.delay_prob = v;
    }
    if let Some(v) = args.delay_ms {
        cfg.transport.loss.delay_ms = v;
    }
    cfg.transport.loss.disconnect_after = args.disconnect_after;
    // Checked before waiting on an addr file, so a bad value fails at once.
    cfg.transport.validate().unwrap_or_else(|e| bad_value(&e));
    cfg.transport.connect = Some(resolve_endpoint(&args));
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

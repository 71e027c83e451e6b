//! `seafl-server`: run the shared loopback experiment with training
//! farmed out to `seafl-client` worker processes over the wire protocol.
//!
//! ```text
//! seafl-server --listen tcp://127.0.0.1:0 --workers 4 --seed 11 \
//!     --algorithm seafl --addr-file /tmp/seafl.addr \
//!     --report-file /tmp/seafl.report
//! ```
//!
//! The experiment itself is the fixed preset from
//! [`seafl_net::preset::loopback_config`]. Only the flags both binaries
//! share, which [`seafl_net::preset::apply_shared_flag`] parses, and the
//! server's own endpoint, worker count, idle timeout and file paths are
//! configurable, so server, workers and any in-process reference run
//! agree on the science by construction. The report file is plain
//! `key=value` lines (model/trace digests, rounds, wire counters) for
//! scripts and CI to diff against a simulated run.

use seafl_core::engine::event_loop::run_loop;
use seafl_core::engine::setup::Environment;
use seafl_core::{build_policy, ExperimentConfig};
use seafl_net::preset;
use seafl_net::server::{NetServer, NetStats};
use seafl_net::transport::Endpoint;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Args {
    /// The preset with every config flag applied; `transport.listen` is
    /// `--listen`.
    cfg: ExperimentConfig,
    workers: usize,
    addr_file: Option<String>,
    report_file: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: seafl-server --listen <tcp://host:port|uds://path> [--workers N] \
         [--seed N] [--algorithm NAME] [--codec LABEL] [--addr-file PATH] [--report-file PATH] \
         [--chunk-bytes N] [--replay-history N] [--idle-timeout SECS] [--rto-base SECS] \
         [--loss-drop P] [--loss-dup P] [--loss-reorder P]"
    );
    std::process::exit(2);
}

/// Report a bad flag value and exit 2, like an unknown flag.
fn bad_value<T>(e: impl std::fmt::Display) -> T {
    eprintln!("seafl-server: {e}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut cfg = preset::base_config();
    cfg.transport.listen = Some("tcp://127.0.0.1:0".into());
    let mut args = Args { cfg, workers: 1, addr_file: None, report_file: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        let cfg = &mut args.cfg;
        match flag.as_str() {
            "--listen" => cfg.transport.listen = Some(value),
            "--workers" => {
                args.workers = preset::parse_value(&flag, &value).unwrap_or_else(bad_value)
            }
            "--addr-file" => args.addr_file = Some(value),
            "--report-file" => args.report_file = Some(value),
            "--idle-timeout" => {
                cfg.transport.idle_timeout =
                    preset::parse_value(&flag, &value).unwrap_or_else(bad_value)
            }
            _ => {
                if !preset::apply_shared_flag(cfg, &flag, &value).unwrap_or_else(bad_value) {
                    usage()
                }
            }
        }
    }
    args.cfg.transport.validate().unwrap_or_else(bad_value);
    args.cfg.validate();
    args
}

/// Write `path` atomically (tmp + rename) so a polling reader never sees
/// a half-written file.
fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn main() {
    let args = parse_args();
    let cfg = &args.cfg;
    let listen = cfg.transport.listen.as_deref().expect("set in parse_args");
    let ep = Endpoint::parse(listen).unwrap_or_else(|e| {
        eprintln!("seafl-server: {e}");
        std::process::exit(2);
    });
    let stats = Arc::new(Mutex::new(NetStats::default()));
    let mut server = NetServer::bind(&ep, cfg, stats.clone()).unwrap_or_else(|e| {
        eprintln!("seafl-server: {e}");
        std::process::exit(1);
    });
    let actual = server.local_endpoint().to_string();
    eprintln!("seafl-server: listening on {actual}, waiting for {} workers", args.workers);
    if let Some(path) = &args.addr_file {
        if let Err(e) = write_atomic(path, &actual) {
            eprintln!("seafl-server: cannot write addr file {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = server.wait_for_workers(args.workers, Duration::from_secs(120)) {
        eprintln!("seafl-server: {e}");
        std::process::exit(1);
    }
    eprintln!("seafl-server: {} workers connected, starting run", args.workers);

    let mut env = Environment::build(cfg);
    env.trainer = Some(Box::new(server));
    let result = run_loop(cfg, &mut env, build_policy(cfg));
    if let Some(trainer) = env.trainer.as_mut() {
        trainer.shutdown();
    }

    // The wire counters are measured (retransmits and handshakes
    // included); the engine's `net_*` obs counters stay the modeled ones.
    let s = *stats.lock().unwrap();

    let report = format!(
        "algorithm={}\ncodec={}\nmodel_digest={:016x}\ntrace_digest={:016x}\nrounds={}\n\
         total_updates={}\ncodec_bytes_raw={}\ncodec_bytes_encoded={}\nnet_bytes_sent={}\n\
         net_bytes_received={}\nnet_retransmits={}\n\
         net_reconnects={}\nnet_workers_quarantined={}\n",
        result.algorithm,
        cfg.codec.label(),
        result.model_digest,
        result.trace.digest(),
        result.rounds,
        result.total_updates,
        result.codec_bytes_raw,
        result.codec_bytes_encoded,
        s.bytes_sent,
        s.bytes_received,
        s.retransmits,
        s.reconnects,
        s.workers_quarantined,
    );
    if let Some(path) = &args.report_file {
        if let Err(e) = write_atomic(path, &report) {
            eprintln!("seafl-server: cannot write report file {path}: {e}");
            std::process::exit(1);
        }
    }
    print!("{report}");
}

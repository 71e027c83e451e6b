//! End-to-end loopback resilience: real server + client processes over
//! real sockets must reproduce the in-process simulator's run **bit for
//! bit**, under injected packet loss, a forced mid-transfer disconnect,
//! and a worker that dies outright.
//!
//! These tests spawn the actual `seafl-server`/`seafl-client` binaries
//! (cargo provides their paths via `CARGO_BIN_EXE_*`), so they cover the
//! full stack: argument parsing, handshake, fragmented transfers, the
//! sequenced link's replay, RTO retransmits, quarantine and the report
//! file format that CI diffs. One test drives an in-process `NetServer`
//! with a raw socket instead: a hostile peer's trickled handshake.

use seafl_core::run_experiment;
use seafl_net::preset::loopback_config;
use seafl_net::server::HANDSHAKE_WAIT;
use seafl_net::{Endpoint, Frame, FrameKind, NetServer};
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SERVER: &str = env!("CARGO_BIN_EXE_seafl-server");
const CLIENT: &str = env!("CARGO_BIN_EXE_seafl-client");

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seafl-loopback-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn(bin: &str, args: &[String]) -> Child {
    Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn wait_timeout(mut child: Child, what: &str, secs: u64) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not finish within {secs}s");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn read_report(path: &Path) -> HashMap<String, String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("report {} unreadable: {e}", path.display()));
    text.lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn report_u64(report: &HashMap<String, String>, key: &str) -> u64 {
    report
        .get(key)
        .unwrap_or_else(|| panic!("report missing {key}: {report:?}"))
        .parse()
        .unwrap_or_else(|e| panic!("report {key} not a number: {e}"))
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// A flag value the preset or the transport config refuses ends either
/// binary with exit code 2 and a message naming the value, before any
/// socket is bound or dialled. Every flag the two binaries share is
/// refused the same way by both; a flag neither knows exits 2 with usage.
#[test]
fn bad_flag_values_exit_2_naming_the_value() {
    let shared: [(&str, &str, &str); 9] = [
        ("--seed", "x1", "--seed: bad value \"x1\""),
        ("--algorithm", "nope", "\"nope\""),
        ("--codec", "zstd", "\"zstd\""),
        ("--chunk-bytes", "-1", "--chunk-bytes: bad value \"-1\""),
        ("--replay-history", "many", "--replay-history: bad value \"many\""),
        ("--rto-base", "5", "rto_base 5 above the 2 s"),
        ("--loss-drop", "2", "loss.drop_prob 2 outside [0,1]"),
        ("--loss-dup", "1.5", "loss.dup_prob 1.5"),
        ("--loss-reorder", "-0.5", "loss.reorder_prob -0.5 outside [0,1]"),
    ];
    let mut cases: Vec<(&str, Vec<&str>, &str)> = Vec::new();
    for (flag, value, want) in shared {
        cases.push((SERVER, vec![flag, value], want));
        cases.push((CLIENT, vec!["--connect", "tcp://127.0.0.1:1", flag, value], want));
    }
    // The loss model has no delay fate: its old flag is unknown to both.
    cases.push((SERVER, vec!["--loss-delay", "0.1"], "usage: seafl-server"));
    cases.push((CLIENT, vec!["--connect", "tcp://127.0.0.1:1", "--loss-delay", "0.1"], "usage:"));
    // Refused before the client waits for a server's addr file.
    cases.push((
        CLIENT,
        vec!["--addr-file", "/nonexistent/seafl.addr", "--algorithm", "nope"],
        "\"nope\"",
    ));
    for (bin, flags, want) in cases {
        let out = Command::new(bin).args(&flags).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {flags:?}: {stderr}");
        assert!(stderr.contains(want), "{bin} {flags:?}: want {want:?} in {stderr:?}");
    }
}

/// A peer that sends a valid `Hello` header and then trickles its payload
/// a byte every 100 ms keeps every single read inside the handshake wait.
/// The server must still drop it once [`HANDSHAKE_WAIT`] has passed in
/// total, so `wait_for_workers` (and the pump, which accepts the same way)
/// is held no longer than that.
#[test]
fn trickled_hello_cannot_hold_the_pump() {
    let cfg = loopback_config(1, "seafl").unwrap();
    let ep = Endpoint::parse("tcp://127.0.0.1:0").unwrap();
    let mut server = NetServer::bind(&ep, &cfg, Default::default()).unwrap();
    let Endpoint::Tcp(addr) = server.local_endpoint().clone() else { unreachable!() };
    // The header announces a 1 MB payload, which never completes.
    let payload = vec![0u8; 1 << 20];
    let hello = Frame::new(FrameKind::Hello, 0, payload.clone()).encode();
    let header_len = hello.len() - payload.len();
    let mut peer = TcpStream::connect(addr).unwrap();
    peer.write_all(&hello[..header_len]).unwrap();
    let trickler = std::thread::spawn(move || {
        let stop = Instant::now() + Duration::from_secs(15);
        for &b in &hello[header_len..] {
            std::thread::sleep(Duration::from_millis(100));
            // Ends once the server has hung up on it.
            if Instant::now() >= stop || peer.write_all(&[b]).is_err() {
                return;
            }
        }
    });
    let t = Instant::now();
    let waited = server.wait_for_workers(1, Duration::from_secs(1));
    let elapsed = t.elapsed();
    assert!(waited.is_err(), "a trickling peer is not a worker");
    assert!(elapsed < HANDSHAKE_WAIT + Duration::from_secs(1), "held for {elapsed:?}");
    trickler.join().unwrap();
}

/// Four TCP workers under seeded drop/duplicate/reorder loss on both
/// directions, plus one forced mid-transfer disconnect: the run must
/// complete with the simulator's exact model digest, at least one resume,
/// and at least one server-side retransmit. Duplicate deliveries must not
/// inflate admission: rounds and accepted updates match the simulator
/// exactly (the engine's counters never see the wire chaos).
#[test]
fn tcp_lossy_fleet_matches_simulator_digest() {
    let seed = 11;
    let sim = run_experiment(&loopback_config(seed, "seafl").unwrap());
    let dir = scratch_dir("tcp");
    let addr = dir.join("server.addr");
    let report_path = dir.join("server.report");

    let server = spawn(
        SERVER,
        &args(&[
            "--listen",
            "tcp://127.0.0.1:0",
            "--workers",
            "4",
            "--seed",
            "11",
            "--algorithm",
            "seafl",
            "--chunk-bytes",
            "8192",
            "--addr-file",
            addr.to_str().unwrap(),
            "--report-file",
            report_path.to_str().unwrap(),
            // Server-side loss makes model chunks drop, which only the
            // RTO retransmit path can repair — so retransmits > 0 is a
            // structural guarantee, not a timing accident.
            "--loss-drop",
            "0.04",
            "--loss-dup",
            "0.04",
            "--loss-reorder",
            "0.04",
        ]),
    );
    let mut clients = Vec::new();
    for link in 0..4 {
        let mut cl = args(&[
            "--addr-file",
            addr.to_str().unwrap(),
            "--seed",
            "11",
            "--algorithm",
            "seafl",
            "--chunk-bytes",
            "8192",
            "--loss-drop",
            "0.08",
            "--loss-dup",
            "0.05",
            "--loss-reorder",
            "0.05",
        ]);
        cl.push("--link".into());
        cl.push(link.to_string());
        if link == 2 {
            // Hard-kill this worker's connection partway through a
            // transfer; it must resume via replay, not restart. The trip
            // needs this process to attempt more sends than the count,
            // and jobs follow handshake arrival order, so the worker
            // admitted last of four may get a single job. One job is at
            // least 15 sends at 8 KiB fragments: the 12 730-parameter
            // model (50 937 B as a message) arrives as 7 frames plus the
            // Assign, 8 acks; the outcome goes back as 7 more. Send #12
            // therefore always exists, inside the first job: in its
            // upload, or among the acks if loss made the server repeat
            // frames.
            cl.push("--disconnect-after".into());
            cl.push("11".into());
        }
        clients.push(spawn(CLIENT, &cl));
    }
    for (i, c) in clients.into_iter().enumerate() {
        let status = wait_timeout(c, &format!("client {i}"), 300);
        assert!(status.success(), "client {i} exited with {status}");
    }
    let status = wait_timeout(server, "server", 300);
    assert!(status.success(), "server exited with {status}");

    let report = read_report(&report_path);
    assert_eq!(
        report["model_digest"],
        format!("{:016x}", sim.model_digest),
        "wire run must end on the simulator's exact model bits"
    );
    assert_eq!(report_u64(&report, "rounds"), sim.rounds);
    assert_eq!(report_u64(&report, "total_updates"), sim.total_updates as u64);
    assert!(report_u64(&report, "net_reconnects") >= 1, "forced disconnect must resume");
    assert!(report_u64(&report, "net_retransmits") >= 1, "loss must force retransmits");
    assert!(report_u64(&report, "net_bytes_sent") > 0);
    assert!(report_u64(&report, "net_bytes_received") > 0);
    assert_eq!(report_u64(&report, "net_workers_quarantined"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two workers over a unix-domain socket with a clean link: both digests
/// (model *and* trace) must match the simulator — no reconnect/quarantine
/// events means even the event trace is bit-identical.
#[cfg(unix)]
#[test]
fn uds_clean_fleet_matches_simulator_trace() {
    let seed = 23;
    let sim = run_experiment(&loopback_config(seed, "fedbuff").unwrap());
    let dir = scratch_dir("uds");
    let sock = dir.join("server.sock");
    let listen = format!("uds://{}", sock.display());
    let report_path = dir.join("server.report");

    let server = spawn(
        SERVER,
        &args(&[
            "--listen",
            &listen,
            "--workers",
            "2",
            "--seed",
            "23",
            "--algorithm",
            "fedbuff",
            "--report-file",
            report_path.to_str().unwrap(),
        ]),
    );
    let mut clients = Vec::new();
    for link in 0..2 {
        let mut cl = args(&["--connect", &listen, "--seed", "23", "--algorithm", "fedbuff"]);
        cl.push("--link".into());
        cl.push(link.to_string());
        clients.push(spawn(CLIENT, &cl));
    }
    for (i, c) in clients.into_iter().enumerate() {
        let status = wait_timeout(c, &format!("client {i}"), 300);
        assert!(status.success(), "client {i} exited with {status}");
    }
    let status = wait_timeout(server, "server", 300);
    assert!(status.success(), "server exited with {status}");

    let report = read_report(&report_path);
    assert_eq!(report["model_digest"], format!("{:016x}", sim.model_digest));
    assert_eq!(
        report["trace_digest"],
        format!("{:016x}", sim.trace.digest()),
        "a clean wire run must replay the simulator's exact event trace"
    );
    assert_eq!(report_u64(&report, "net_reconnects"), 0);
    assert_eq!(report_u64(&report, "net_workers_quarantined"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two TCP workers with the top-k codec armed, under mild seeded loss:
/// compressed update blobs cross the socket, yet the run must end on the
/// in-process engine's exact model digest for the same codec config —
/// client-side wire encoding and the engine's local-slot projection are
/// the same single application of the codec. The report's byte counters
/// must show real compression (encoded < raw).
#[test]
fn tcp_lossy_codec_fleet_matches_in_process_digest() {
    let seed = 41;
    let mut cfg = loopback_config(seed, "seafl").unwrap();
    cfg.codec = seafl_net::preset::codec_by_name("topk").unwrap();
    let sim = run_experiment(&cfg);
    assert!(
        sim.codec_bytes_encoded < sim.codec_bytes_raw,
        "top-k must compress in-process too ({} vs {})",
        sim.codec_bytes_encoded,
        sim.codec_bytes_raw
    );
    let dir = scratch_dir("codec");
    let addr = dir.join("server.addr");
    let report_path = dir.join("server.report");

    let server = spawn(
        SERVER,
        &args(&[
            "--listen",
            "tcp://127.0.0.1:0",
            "--workers",
            "2",
            "--seed",
            "41",
            "--algorithm",
            "seafl",
            "--codec",
            "topk",
            "--addr-file",
            addr.to_str().unwrap(),
            "--report-file",
            report_path.to_str().unwrap(),
            "--loss-drop",
            "0.03",
            "--loss-dup",
            "0.03",
        ]),
    );
    let mut clients = Vec::new();
    for link in 0..2 {
        let mut cl = args(&[
            "--addr-file",
            addr.to_str().unwrap(),
            "--seed",
            "41",
            "--algorithm",
            "seafl",
            "--codec",
            "topk",
            "--loss-drop",
            "0.05",
        ]);
        cl.push("--link".into());
        cl.push(link.to_string());
        clients.push(spawn(CLIENT, &cl));
    }
    for (i, c) in clients.into_iter().enumerate() {
        let status = wait_timeout(c, &format!("client {i}"), 300);
        assert!(status.success(), "client {i} exited with {status}");
    }
    let status = wait_timeout(server, "server", 300);
    assert!(status.success(), "server exited with {status}");

    let report = read_report(&report_path);
    assert_eq!(report["codec"], "topk");
    assert_eq!(
        report["model_digest"],
        format!("{:016x}", sim.model_digest),
        "coded wire run must end on the in-process engine's exact model bits"
    );
    assert_eq!(report_u64(&report, "rounds"), sim.rounds);
    assert_eq!(report_u64(&report, "codec_bytes_raw"), sim.codec_bytes_raw);
    assert_eq!(report_u64(&report, "codec_bytes_encoded"), sim.codec_bytes_encoded);
    assert!(
        report_u64(&report, "codec_bytes_encoded") < report_u64(&report, "codec_bytes_raw"),
        "compressed bytes must actually be smaller on the wire"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that accepts an assignment and then dies without replying:
/// the idle timeout must quarantine it, its jobs must fail over (to the
/// surviving worker or the server's local pool), and the run must still
/// finish on the simulator's exact model digest.
#[test]
fn dead_worker_quarantined_and_run_completes() {
    let seed = 37;
    let sim = run_experiment(&loopback_config(seed, "seafl").unwrap());
    let dir = scratch_dir("quarantine");
    let addr = dir.join("server.addr");
    let report_path = dir.join("server.report");

    let server = spawn(
        SERVER,
        &args(&[
            "--listen",
            "tcp://127.0.0.1:0",
            "--workers",
            "2",
            "--seed",
            "37",
            "--algorithm",
            "seafl",
            "--idle-timeout",
            "3",
            "--addr-file",
            addr.to_str().unwrap(),
            "--report-file",
            report_path.to_str().unwrap(),
        ]),
    );
    let healthy = spawn(
        CLIENT,
        &args(&[
            "--addr-file",
            addr.to_str().unwrap(),
            "--seed",
            "37",
            "--algorithm",
            "seafl",
            "--link",
            "0",
        ]),
    );
    let doomed = spawn(
        CLIENT,
        &args(&[
            "--addr-file",
            addr.to_str().unwrap(),
            "--seed",
            "37",
            "--algorithm",
            "seafl",
            "--link",
            "1",
            "--die-after-assigns",
            "1",
        ]),
    );
    let status = wait_timeout(doomed, "doomed client", 300);
    assert!(status.success(), "doomed client exited with {status}");
    let status = wait_timeout(healthy, "healthy client", 300);
    assert!(status.success(), "healthy client exited with {status}");
    let status = wait_timeout(server, "server", 300);
    assert!(status.success(), "server exited with {status}");

    let report = read_report(&report_path);
    assert_eq!(
        report["model_digest"],
        format!("{:016x}", sim.model_digest),
        "failover must preserve the exact result"
    );
    assert_eq!(report_u64(&report, "rounds"), sim.rounds);
    assert_eq!(
        report_u64(&report, "net_workers_quarantined"),
        1,
        "the dead worker — and only it — must be quarantined"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

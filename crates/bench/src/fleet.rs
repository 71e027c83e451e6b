//! Fleet-scale coordination-spine sweep: 10k → 1M registered clients.
//!
//! Drives the engine's spine alone — event queue, struct-of-arrays
//! [`FleetTable`], lazy device profiles and per-client RNG streams — with a
//! small active cohort over a huge registered fleet, the shape of a
//! cross-device deployment. The queue holds one event per active client,
//! so its depth is the cohort, never the fleet. Model training is absent:
//! the point is that *registering* a million clients costs a handful of
//! bytes each, and that event throughput stays flat as the fleet grows.
//! Smoke scale sweeps 10k/100k clients and pumps 200k events per size; std
//! adds 1M and pumps 1M.

use crate::{arg_value, list_from_args, Scale};
use rand::Rng;
use seafl_core::{ClientPhase, FleetTable};
use seafl_sim::rng::streams;
use seafl_sim::{ClientId, EventQueue, Fleet, FleetConfig, LazyStreams, SimTime};
use std::time::Instant;

/// Bytes of model traffic each simulated upload carries (only feeds the
/// per-device upload-time formula; nothing is allocated).
const MODEL_BYTES: usize = 50_000;

/// Resident set in MB from the `/proc/self/status` line `key` (`VmRSS:`
/// now, `VmHWM:` peak); 0.0 where the file is unavailable (non-Linux).
fn rss_mb(key: &str) -> f64 {
    let body = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = body.lines().find(|l| l.starts_with(key)).and_then(|l| l.split_whitespace().nth(1));
    kb.and_then(|kb| kb.parse::<f64>().ok()).map_or(0.0, |kb| kb / 1024.0)
}

/// Pump `total_events` through the spine with `cohort` of `n` clients
/// active and print the size's table row. Only the cohort's table rows and
/// RNG streams are ever touched (the resident column). Returns the
/// resident set, the next size's bytes-per-client baseline.
fn run_spine(n: usize, cohort: usize, total_events: u64, last_rss: f64) -> f64 {
    let seed = 42;
    let t_build = Instant::now();
    let fleet = Fleet::lazy(FleetConfig::pareto_fleet(n), seed);
    let mut table = FleetTable::new(n);
    let mut streams = LazyStreams::new(seed, streams::CLIENT_BASE, n);
    let mut queue: EventQueue<ClientId> = EventQueue::new();
    let build_ms = t_build.elapsed().as_secs_f64() * 1e3;

    // One full idle-pool scan over all n registered clients — the bitset
    // walk the engine performs at every refill.
    let t_scan = Instant::now();
    let idle = table.idle_clients();
    let idle_scan_ms = t_scan.elapsed().as_secs_f64() * 1e3;
    assert_eq!(idle.len(), n, "fresh table must be fully idle");

    let dispatch = |table: &mut FleetTable,
                    streams: &mut LazyStreams,
                    queue: &mut EventQueue<ClientId>,
                    k: usize,
                    now: SimTime| {
        let cid = ClientId::new(k);
        table.bump_generation(cid);
        table.set_phase(cid, ClientPhase::Training);
        let profile = fleet.profile(cid);
        let jitter: f64 = streams.get_mut(k).gen();
        let dt = profile.upload_time(MODEL_BYTES) + profile.speed_factor * (0.5 + jitter);
        queue.schedule(now.after(dt), cid);
    };

    for &k in idle.iter().take(cohort) {
        dispatch(&mut table, &mut streams, &mut queue, k, SimTime::ZERO);
    }
    drop(idle); // the engine drops its scan after selection; mirror that

    let t_pump = Instant::now();
    let mut processed = 0u64;
    while processed < total_events {
        let (now, cid) = queue.pop().expect("steady-state queue ran dry");
        processed += 1;
        table.set_phase(cid, ClientPhase::Idle);
        dispatch(&mut table, &mut streams, &mut queue, cid.index(), now);
    }
    let events_per_sec = processed as f64 / t_pump.elapsed().as_secs_f64();

    // Incremental RSS across ascending sizes, attributed per client — the
    // sub-linear-memory headline (dense columns only; profiles, RNG
    // streams and fault rows stay lazy).
    let rss = rss_mb("VmRSS:");
    println!(
        "{n:>9} | {build_ms:>8.1} | {idle_scan_ms:>9.2} | {events_per_sec:>12.0} | {:>12} | \
         {rss:>8.1} | {:>8.1} | {:>8.1}",
        table.resident_records(),
        rss_mb("VmHWM:"),
        (rss - last_rss).max(0.0) * 1048576.0 / n as f64,
    );
    rss
}

/// The sweep: one table row per fleet size, then the `--assert-peak-rss-mb`
/// ceiling check.
pub fn run(scale: Scale) {
    let mut sizes: Vec<usize> = list_from_args("clients");
    if sizes.is_empty() {
        sizes = match scale {
            Scale::Smoke => vec![10_000, 100_000],
            Scale::Std => vec![10_000, 100_000, 1_000_000],
        };
    }
    let cohort: usize = arg_value("cohort").map_or(256, |v| v.parse().expect("bad --cohort"));
    let default_events = if scale == Scale::Smoke { 200_000 } else { 1_000_000 };
    let events: u64 =
        arg_value("events").map_or(default_events, |v| v.parse().expect("bad --events"));

    println!(
        "{:>9} | {:>8} | {:>9} | {:>12} | {:>12} | {:>8} | {:>8} | {:>8}",
        "clients", "build ms", "scan ms", "events/s", "resident", "rss MB", "peak MB", "B/client"
    );
    println!("{}", "-".repeat(96));
    let mut rss = rss_mb("VmRSS:");
    for &n in &sizes {
        rss = run_spine(n, cohort.min(n), events, rss);
    }

    if let Some(ceiling) = arg_value("assert-peak-rss-mb") {
        let ceiling: f64 = ceiling.parse().expect("bad --assert-peak-rss-mb");
        let peak = rss_mb("VmHWM:");
        if peak > ceiling {
            eprintln!("FAIL: peak RSS {peak:.1} MB exceeds the {ceiling:.1} MB ceiling");
            std::process::exit(1);
        }
        println!("peak RSS {peak:.1} MB within the {ceiling:.1} MB ceiling");
    }
}

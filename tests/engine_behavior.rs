//! Behavioural tests of the unified event-driven engine across every
//! [`ServerPolicy`]: protocol invariants (buffering, staleness bounds,
//! partial training, concurrency), determinism, fault injection and
//! resilience, plus the custom-policy extension seam.
//!
//! These started life as inline `#[cfg(test)]` tests of the
//! semi-asynchronous engine; they moved here when the engines were unified,
//! and share their config builder with the digest fixtures through
//! `seafl::core::test_support`.

use seafl::core::test_support::{fixture_cases, tiny_cfg};
use seafl::core::{
    run_experiment, run_with_policy, Admission, Algorithm, ModelUpdate, ServerPolicy,
};
use seafl::sim::{CorruptionKind, TerminationReason, TraceEvent};

#[test]
fn fedbuff_runs_and_aggregates() {
    let r = run_experiment(&tiny_cfg(0, Algorithm::fedbuff(6, 3)));
    assert_eq!(r.algorithm, "fedbuff");
    assert_eq!(r.rounds, 30);
    assert!(r.total_updates >= 90, "updates: {}", r.total_updates);
    assert_eq!(r.partial_updates, 0);
    assert_eq!(r.notifications, 0);
    assert!(r.sim_time_end > 0.0);
}

#[test]
fn seafl_runs_and_improves_accuracy() {
    let mut cfg = tiny_cfg(1, Algorithm::seafl(6, 3, Some(10)));
    cfg.max_rounds = 60;
    let r = run_experiment(&cfg);
    assert_eq!(r.algorithm, "seafl");
    let first = r.accuracy.first().unwrap().1;
    let best = r.best_accuracy();
    assert!(best > first + 0.2, "no learning: {first} -> {best}");
}

#[test]
fn fedasync_aggregates_every_upload() {
    let r = run_experiment(&tiny_cfg(2, Algorithm::fedasync(6)));
    assert_eq!(r.algorithm, "fedasync");
    // K = 1: every upload triggers an aggregation.
    assert_eq!(r.rounds as usize, r.total_updates);
}

#[test]
fn seafl2_produces_partial_updates_under_tight_beta() {
    let mut cfg = tiny_cfg(3, Algorithm::seafl2(8, 3, 1));
    cfg.max_rounds = 50;
    let r = run_experiment(&cfg);
    assert_eq!(r.algorithm, "seafl2");
    assert!(r.notifications > 0, "no notifications sent");
    assert!(r.partial_updates > 0, "no partial updates");
}

#[test]
fn seafl_wait_bounds_aggregated_staleness() {
    let mut cfg = tiny_cfg(4, Algorithm::seafl(8, 3, Some(2)));
    cfg.max_rounds = 50;
    let r = run_experiment(&cfg);
    // Reconstruct aggregated staleness from the trace: every Upload's
    // born_round vs the round counter at its consuming Aggregate.
    let mut pending: std::collections::HashMap<usize, u64> = Default::default();
    let mut max_staleness = 0u64;
    for (_, ev) in r.trace.entries() {
        match ev {
            TraceEvent::Upload { id, born_round, .. } => {
                pending.insert(id.index(), *born_round);
            }
            TraceEvent::Aggregate { round, .. } => {
                let at = round - 1; // round counter before increment
                for (_, born) in pending.drain() {
                    max_staleness = max_staleness.max(at.saturating_sub(born));
                }
            }
            _ => {}
        }
    }
    assert!(max_staleness <= 2, "aggregated staleness {max_staleness} exceeded beta=2");
}

#[test]
fn drop_policy_discards_stale_and_still_learns() {
    let mut cfg = tiny_cfg(11, Algorithm::seafl_drop(8, 3, 1));
    cfg.max_rounds = 50;
    let r = run_experiment(&cfg);
    assert_eq!(r.algorithm, "seafl-drop");
    assert!(r.dropped_updates > 0, "tight beta never dropped anything");
    // Dropped updates never reach an aggregation: reconstruct from the
    // trace that every aggregated update obeyed the limit.
    let mut pending: std::collections::HashMap<usize, u64> = Default::default();
    for (_, ev) in r.trace.entries() {
        match ev {
            TraceEvent::Upload { id, born_round, .. } => {
                pending.insert(id.index(), *born_round);
            }
            TraceEvent::Drop { id, .. } => {
                pending.remove(&id.index());
            }
            TraceEvent::Aggregate { round, .. } => {
                let at = round - 1;
                for (_, born) in pending.drain() {
                    assert!(at.saturating_sub(born) <= 1, "stale update aggregated");
                }
            }
            _ => {}
        }
    }
    assert!(r.best_accuracy() > 0.4, "drop policy prevented learning");
}

#[test]
fn deterministic_across_runs() {
    let cfg = tiny_cfg(5, Algorithm::seafl(6, 3, Some(10)));
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.total_updates, b.total_updates);
}

#[test]
fn different_seeds_give_different_schedules() {
    let a = run_experiment(&tiny_cfg(6, Algorithm::fedbuff(6, 3)));
    let b = run_experiment(&tiny_cfg(7, Algorithm::fedbuff(6, 3)));
    assert_ne!(a.accuracy, b.accuracy);
}

#[test]
fn stop_at_accuracy_halts_early() {
    let mut cfg = tiny_cfg(8, Algorithm::fedbuff(6, 3));
    cfg.stop_at_accuracy = Some(0.05); // trivially reachable
    cfg.max_rounds = 1000;
    let r = run_experiment(&cfg);
    assert!(r.rounds < 1000, "did not stop early");
    assert_eq!(r.termination, TerminationReason::TargetAccuracy);
}

#[test]
fn concurrency_respected_in_trace() {
    let cfg = tiny_cfg(9, Algorithm::fedbuff(4, 2));
    let r = run_experiment(&cfg);
    // Active session count never exceeds concurrency = 4.
    let mut active = 0i64;
    for (_, ev) in r.trace.entries() {
        match ev {
            TraceEvent::ClientStart { .. } => {
                active += 1;
                assert!(active <= 4, "concurrency exceeded");
            }
            TraceEvent::Upload { .. } => active -= 1,
            _ => {}
        }
    }
}

#[test]
fn fedstale_boosts_and_still_learns() {
    let mut cfg = tiny_cfg(10, Algorithm::fedstale(6, 3));
    cfg.max_rounds = 60;
    let r = run_experiment(&cfg);
    assert_eq!(r.algorithm, "fedstale");
    assert_eq!(r.rounds, 60);
    let first = r.accuracy.first().unwrap().1;
    let best = r.best_accuracy();
    assert!(best > first + 0.2, "no learning: {first} -> {best}");
}

// ---- fault injection & resilience ----

#[test]
fn fault_free_runs_report_zero_fault_counters() {
    let r = run_experiment(&tiny_cfg(0, Algorithm::fedbuff(6, 3)));
    assert_eq!(r.crashes, 0);
    assert_eq!(r.upload_failures, 0);
    assert_eq!(r.retries, 0);
    assert_eq!(r.timeouts, 0);
    assert_eq!(r.quarantined, 0);
    assert_eq!(r.rejected_updates, 0);
    assert_eq!(r.termination, TerminationReason::MaxRounds);
    assert_eq!(r.trace.termination(), Some(TerminationReason::MaxRounds));
}

#[test]
fn universal_crash_with_timeout_drains_instead_of_hanging() {
    let mut cfg = tiny_cfg(20, Algorithm::seafl(6, 3, Some(5)));
    cfg.faults.crash_prob = 1.0;
    // Sessions in this config take ~0.5–5 s; every device dies within
    // the first few of them.
    cfg.faults.crash_window = (0.0, 5.0);
    cfg.resilience.session_timeout = Some(20.0);
    let r = run_experiment(&cfg);
    assert!(r.crashes > 0, "no crash ever materialized");
    assert!(r.timeouts > 0, "no session was reclaimed");
    assert!(r.quarantined > 0, "no client was quarantined");
    // Every client eventually crashes and is quarantined; the clock runs
    // dry instead of the run hanging on WaitForStale.
    assert!(
        matches!(r.termination, TerminationReason::QueueDrained | TerminationReason::Starved),
        "unexpected termination: {:?}",
        r.termination
    );
}

#[test]
fn all_corrupted_updates_are_rejected() {
    let mut cfg = tiny_cfg(21, Algorithm::fedbuff(6, 3));
    cfg.faults.corrupt_prob = 1.0;
    cfg.faults.corruption = CorruptionKind::NanBurst { count: 4 };
    // No aggregation will ever succeed, so the run lasts until the
    // clock cap; keep it short.
    cfg.max_sim_time = 50.0;
    let r = run_experiment(&cfg);
    assert!(r.rejected_updates > 0, "sanitizer never fired");
    // Every device corrupts, so nothing is ever aggregated and the
    // global model never goes non-finite.
    assert_eq!(r.rounds, 0);
    for (_, acc) in &r.accuracy {
        assert!(acc.is_finite());
    }
}

#[test]
fn transient_upload_loss_retries_and_still_finishes() {
    let mut cfg = tiny_cfg(22, Algorithm::fedbuff(6, 3));
    cfg.faults.upload_drop_prob = 0.3;
    let r = run_experiment(&cfg);
    assert!(r.upload_failures > 0, "no upload was ever dropped");
    assert!(r.retries > 0, "no retry was scheduled");
    assert_eq!(r.rounds, 30, "retries failed to keep the run progressing");
}

#[test]
fn straggler_spikes_stretch_the_schedule() {
    let base = tiny_cfg(24, Algorithm::fedbuff(6, 3));
    let mut slow = base.clone();
    slow.faults.straggler_prob = 1.0;
    slow.faults.straggler_window = (0.0, 1.0);
    slow.faults.straggler_duration = 1e9; // effectively the whole run
    slow.faults.straggler_factor = 4.0;
    slow.max_sim_time = 1_000_000.0; // room to still finish 30 rounds
    let a = run_experiment(&base);
    let b = run_experiment(&slow);
    assert_eq!(a.rounds, b.rounds);
    assert!(
        b.sim_time_end > a.sim_time_end,
        "4x compute spike did not slow the run: {} vs {}",
        a.sim_time_end,
        b.sim_time_end
    );
}

#[test]
fn superseded_uploads_never_double_consume() {
    // Tight beta makes SEAFL² reschedule uploads, leaving dangling
    // events; each must be ignored exactly once and never consume a
    // later session (per-client generations are monotonic).
    let mut cfg = tiny_cfg(3, Algorithm::seafl2(8, 3, 1));
    cfg.max_rounds = 50;
    let r = run_experiment(&cfg);
    assert!(r.notifications > 0, "no reschedules happened");
    assert!(r.superseded_uploads > 0, "no dangling event was ever popped");
    // Trace invariant: per client, ClientStart/Upload strictly
    // alternate — a session is consumed at most once.
    let mut outstanding = vec![0i64; cfg.num_clients];
    for (_, ev) in r.trace.entries() {
        match ev {
            TraceEvent::ClientStart { id, .. } => {
                outstanding[id.index()] += 1;
                assert_eq!(outstanding[id.index()], 1, "client {id} restarted mid-session");
            }
            TraceEvent::Upload { id, .. } => {
                outstanding[id.index()] -= 1;
                assert_eq!(outstanding[id.index()], 0, "client {id} session consumed twice");
            }
            _ => {}
        }
    }
}

#[test]
fn faulty_runs_are_deterministic() {
    let mut cfg = tiny_cfg(23, Algorithm::seafl(6, 3, Some(10)));
    cfg.faults.crash_prob = 0.25;
    cfg.faults.crash_window = (0.0, 30.0);
    cfg.faults.upload_drop_prob = 0.2;
    cfg.faults.corrupt_prob = 0.15;
    cfg.resilience.session_timeout = Some(25.0);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.crashes, b.crashes);
    assert_eq!(a.timeouts, b.timeouts);
    assert_eq!(a.rejected_updates, b.rejected_updates);
    assert_eq!(a.trace.entries(), b.trace.entries());
}

/// FedAvg's rounds are barriers on the event-driven engine: a cohort starts
/// together, at the aggregation that closed the previous round (t = 0 for
/// the first), and its round closes at its last upload with every member's
/// update in it.
#[test]
fn fedavg_rounds_are_barriers() {
    let c = 6;
    let r = run_experiment(&tiny_cfg(0, Algorithm::fedavg(c)));
    assert_eq!(r.rounds, 30);
    let (mut barrier, mut last_upload) = (0.0, None);
    let (mut starts, mut uploads) = (0, 0);
    for (t, ev) in r.trace.entries() {
        let t = t.as_secs();
        match ev {
            TraceEvent::ClientStart { .. } => {
                assert_eq!(t, barrier, "a cohort member started off the barrier");
                starts += 1;
            }
            TraceEvent::Upload { .. } => {
                last_upload = Some(t);
                uploads += 1;
            }
            TraceEvent::Aggregate { round, num_updates } => {
                assert_eq!((*num_updates, starts, uploads), (c, c, c), "round {round}");
                assert_eq!(Some(t), last_upload, "round {round} closed off its last upload");
                (barrier, starts, uploads) = (t, 0, 0);
            }
            _ => {}
        }
    }
}

/// Under the shared fault overlay FedAvg's devices crash, lose uploads and
/// time out like every other policy's, and the run leaves the clean one.
#[test]
fn fedavg_pays_the_fault_tax() {
    let run = |key: &str| {
        let case = fixture_cases().into_iter().find(|c| c.key() == key);
        run_experiment(&case.unwrap_or_else(|| panic!("no fixture case {key}")).cfg)
    };
    let (clean, faulty) = (run("fedavg/clean"), run("fedavg/faults"));
    assert!(faulty.crashes > 0, "no device crashed");
    assert!(faulty.timeouts > 0, "no session timed out");
    assert!(faulty.upload_failures > 0, "no upload was lost");
    assert_ne!(faulty.model_digest, clean.model_digest, "faults left the model untouched");
    assert_ne!(faulty.trace.digest(), clean.trace.digest(), "faults left the trace untouched");
}

// ---- the custom-policy seam ----

/// A caller-defined policy the [`Algorithm`] enum knows nothing about:
/// FedBuff aggregation, but every other arriving update is turned away at
/// admission. Exercises `run_with_policy` plus the engine's
/// [`Admission::Drop`] path (count, Drop trace, client straight back to the
/// idle pool) without a single engine edit.
struct DropEveryOther {
    seen: usize,
}

impl ServerPolicy for DropEveryOther {
    fn name(&self) -> &'static str {
        "drop-every-other"
    }

    fn concurrency(&self) -> usize {
        6
    }

    fn buffer_k(&self) -> usize {
        2
    }

    fn on_update_received(&mut self, _update: &ModelUpdate, _round: u64) -> Admission {
        self.seen += 1;
        if self.seen.is_multiple_of(2) {
            Admission::Drop
        } else {
            Admission::Admit
        }
    }

    fn weights_for_buffer(
        &self,
        updates: &[ModelUpdate],
        _global: &[f32],
        _round: u64,
    ) -> Vec<f32> {
        vec![1.0 / updates.len() as f32; updates.len()]
    }

    fn mix_into_global(&self, global: &[f32], avg: &[f32]) -> Vec<f32> {
        seafl::core::mix(global, avg, 0.8)
    }
}

#[test]
fn custom_policy_admission_drops_are_counted_and_traced() {
    // The config's algorithm is only used for validation; the custom policy
    // decides everything else.
    let cfg = tiny_cfg(12, Algorithm::fedbuff(6, 2));
    let r = run_with_policy(&cfg, Box::new(DropEveryOther { seen: 0 }));
    assert_eq!(r.algorithm, "drop-every-other");
    assert_eq!(r.rounds, 30, "dropped admissions stalled the run");
    assert!(r.dropped_updates > 0, "no admission was ever refused");
    // Every second update was dropped (total counts both verdicts).
    assert_eq!(r.dropped_updates, r.total_updates / 2);
    // A dropped arrival leaves a Drop trace right after its Upload trace,
    // and the client goes back to the idle pool (ClientStart/Upload still
    // strictly alternate per client).
    let drops =
        r.trace.entries().iter().filter(|(_, ev)| matches!(ev, TraceEvent::Drop { .. })).count();
    assert_eq!(drops, r.dropped_updates);
    let mut outstanding = vec![0i64; cfg.num_clients];
    for (_, ev) in r.trace.entries() {
        match ev {
            TraceEvent::ClientStart { id, .. } => outstanding[id.index()] += 1,
            TraceEvent::Upload { id, .. } => outstanding[id.index()] -= 1,
            _ => {}
        }
        assert!(outstanding.iter().all(|&n| (0..=1).contains(&n)));
    }
}

//! Structured event trace of a simulation run.

use crate::bin::{BinReader, BinWriter, CodecError};
use crate::faults::AttackKind;
use crate::id::ClientId;
use crate::time::SimTime;

/// Why a run stopped (recorded in the terminal trace event and surfaced in
/// the engine's run result).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationReason {
    /// `stop_at_accuracy` was reached.
    TargetAccuracy,
    /// The `max_rounds` aggregation budget was exhausted.
    MaxRounds,
    /// The `max_sim_time` clock budget was exhausted.
    MaxSimTime,
    /// The event queue drained with an empty update buffer — no client had
    /// anything left in flight.
    QueueDrained,
    /// The event queue drained while updates were still buffered below the
    /// aggregation trigger: the engine starved (e.g. every remaining
    /// in-flight client crashed, or a staleness wait could never be
    /// satisfied). Before this was recorded the engine exited silently.
    Starved,
    /// The fault plan's server-crash round was reached: the server process
    /// died mid-run (fault injection). A run ending this way is resumable
    /// from its latest checkpoint.
    ServerCrash,
}

/// Why the server rejected an update before aggregation (hygiene sanitizer
/// or Byzantine-robust screening).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCause {
    /// The update contained NaN or infinite parameters.
    NonFinite,
    /// The update's distance from the global model exceeded the configured
    /// norm bound.
    NormExploded,
    /// The robust aggregation layer screened the update as a suspected
    /// Byzantine outlier (e.g. Krum's pairwise-distance selection).
    RobustScreened,
}

/// One recorded simulation event.
///
/// Note: there is deliberately no per-epoch event. The event-driven engine
/// precomputes a session's training eagerly and only materializes the
/// upload arrival on the virtual clock, so epoch boundaries never pass
/// through the (time-ordered, append-only) trace; they are recoverable
/// from the device timing model when needed (see DESIGN.md §"Fault model &
/// resilience").
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Client `id` started local training on global round `round`.
    ClientStart { id: ClientId, round: u64 },
    /// Client `id` uploaded an update born at round `born_round`, having
    /// completed `epochs` local epochs (may be < E under partial training).
    Upload { id: ClientId, born_round: u64, epochs: usize },
    /// Server notified client `id` that it exceeded the staleness limit
    /// (SEAFL² partial-training path).
    Notify { id: ClientId },
    /// Server discarded client `id`'s buffered update because its staleness
    /// exceeded the limit (SAFA-style drop policy).
    Drop { id: ClientId, staleness: u64 },
    /// Server aggregated `num_updates` updates into global round `round`.
    Aggregate { round: u64, num_updates: usize },
    /// Global model evaluated: test accuracy at this instant.
    Eval { round: u64, accuracy: f64 },
    /// Device `id` permanently crashed (fault injection): nothing it had in
    /// flight will ever arrive.
    Crash { id: ClientId },
    /// Client `id`'s upload attempt `attempt` (0-based) was lost in
    /// transit (fault injection).
    UploadFailed { id: ClientId, attempt: u32 },
    /// Client `id` rescheduled its lost upload; `attempt` is the upcoming
    /// attempt number (retry with capped exponential backoff).
    Retry { id: ClientId, attempt: u32 },
    /// The server's session timeout fired for client `id`: its in-flight
    /// session was reclaimed and the client excluded from staleness scans.
    Timeout { id: ClientId },
    /// Client `id` was quarantined after repeated session timeouts and will
    /// no longer be selected.
    Quarantine { id: ClientId },
    /// The update sanitizer (or the robust aggregation layer) rejected
    /// client `id`'s update before aggregation.
    Rejected { id: ClientId, cause: RejectCause },
    /// Adversarial device `id` tampered with the update it uploaded (fault
    /// injection; `kind` is the attack applied).
    Attacked { id: ClientId, kind: AttackKind },
    /// Terminal event: why the run stopped, and how many updates were still
    /// sitting in the buffer at that point.
    Terminated { reason: TerminationReason, buffered: usize },
    /// A remote training worker's link dropped and was resumed via the wire
    /// protocol's replay history (real-transport runs only: the simulator
    /// itself never emits this, so simulated trace digests are unaffected).
    NetReconnect { worker: usize },
    /// A remote training worker went idle past the transport timeout and
    /// was quarantined; its outstanding jobs failed over to another worker
    /// or to local compute (real-transport runs only).
    NetQuarantine { worker: usize },
}

impl TraceEvent {
    /// Stable snake_case kind label, bridging trace events to structured
    /// observability records (`TraceLog::kind_counts`, the obs summary).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ClientStart { .. } => "client_start",
            TraceEvent::Upload { .. } => "upload",
            TraceEvent::Notify { .. } => "notify",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Aggregate { .. } => "aggregate",
            TraceEvent::Eval { .. } => "eval",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::UploadFailed { .. } => "upload_failed",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::Timeout { .. } => "timeout",
            TraceEvent::Quarantine { .. } => "quarantine",
            TraceEvent::Rejected { .. } => "rejected",
            TraceEvent::Attacked { .. } => "attacked",
            TraceEvent::Terminated { .. } => "terminated",
            TraceEvent::NetReconnect { .. } => "net_reconnect",
            TraceEvent::NetQuarantine { .. } => "net_quarantine",
        }
    }

    /// Write this event, tag-encoded.
    pub(crate) fn encode(&self, w: &mut BinWriter) {
        match *self {
            TraceEvent::ClientStart { id, round } => {
                w.u8(0);
                w.client_id(id);
                w.u64(round);
            }
            TraceEvent::Upload { id, born_round, epochs } => {
                w.u8(1);
                w.client_id(id);
                w.u64(born_round);
                w.usize(epochs);
            }
            TraceEvent::Notify { id } => {
                w.u8(2);
                w.client_id(id);
            }
            TraceEvent::Drop { id, staleness } => {
                w.u8(3);
                w.client_id(id);
                w.u64(staleness);
            }
            TraceEvent::Aggregate { round, num_updates } => {
                w.u8(4);
                w.u64(round);
                w.usize(num_updates);
            }
            TraceEvent::Eval { round, accuracy } => {
                w.u8(5);
                w.u64(round);
                w.f64(accuracy);
            }
            TraceEvent::Crash { id } => {
                w.u8(6);
                w.client_id(id);
            }
            TraceEvent::UploadFailed { id, attempt } => {
                w.u8(7);
                w.client_id(id);
                w.u32(attempt);
            }
            TraceEvent::Retry { id, attempt } => {
                w.u8(8);
                w.client_id(id);
                w.u32(attempt);
            }
            TraceEvent::Timeout { id } => {
                w.u8(9);
                w.client_id(id);
            }
            TraceEvent::Quarantine { id } => {
                w.u8(10);
                w.client_id(id);
            }
            TraceEvent::Rejected { id, cause } => {
                w.u8(11);
                w.client_id(id);
                w.u8(match cause {
                    RejectCause::NonFinite => 0,
                    RejectCause::NormExploded => 1,
                    RejectCause::RobustScreened => 2,
                });
            }
            TraceEvent::Attacked { id, kind } => {
                w.u8(13);
                w.client_id(id);
                match kind {
                    AttackKind::SignFlip => w.u8(0),
                    AttackKind::ScaledBoost { lambda } => {
                        w.u8(1);
                        w.f32(lambda);
                    }
                    AttackKind::Collude => w.u8(2),
                    AttackKind::StaleReplay => w.u8(3),
                }
            }
            TraceEvent::NetReconnect { worker } => {
                w.u8(14);
                w.usize(worker);
            }
            TraceEvent::NetQuarantine { worker } => {
                w.u8(15);
                w.usize(worker);
            }
            TraceEvent::Terminated { reason, buffered } => {
                w.u8(12);
                w.u8(match reason {
                    TerminationReason::TargetAccuracy => 0,
                    TerminationReason::MaxRounds => 1,
                    TerminationReason::MaxSimTime => 2,
                    TerminationReason::QueueDrained => 3,
                    TerminationReason::Starved => 4,
                    TerminationReason::ServerCrash => 5,
                });
                w.usize(buffered);
            }
        }
    }

    /// Read one event written by [`TraceEvent::encode`].
    pub(crate) fn decode(r: &mut BinReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => TraceEvent::ClientStart { id: r.client_id()?, round: r.u64()? },
            1 => {
                TraceEvent::Upload { id: r.client_id()?, born_round: r.u64()?, epochs: r.usize()? }
            }
            2 => TraceEvent::Notify { id: r.client_id()? },
            3 => TraceEvent::Drop { id: r.client_id()?, staleness: r.u64()? },
            4 => TraceEvent::Aggregate { round: r.u64()?, num_updates: r.usize()? },
            5 => TraceEvent::Eval { round: r.u64()?, accuracy: r.f64()? },
            6 => TraceEvent::Crash { id: r.client_id()? },
            7 => TraceEvent::UploadFailed { id: r.client_id()?, attempt: r.u32()? },
            8 => TraceEvent::Retry { id: r.client_id()?, attempt: r.u32()? },
            9 => TraceEvent::Timeout { id: r.client_id()? },
            10 => TraceEvent::Quarantine { id: r.client_id()? },
            11 => TraceEvent::Rejected {
                id: r.client_id()?,
                cause: match r.u8()? {
                    0 => RejectCause::NonFinite,
                    1 => RejectCause::NormExploded,
                    2 => RejectCause::RobustScreened,
                    b => return Err(CodecError(format!("invalid RejectCause tag {b}"))),
                },
            },
            13 => TraceEvent::Attacked {
                id: r.client_id()?,
                kind: match r.u8()? {
                    0 => AttackKind::SignFlip,
                    1 => AttackKind::ScaledBoost { lambda: r.f32()? },
                    2 => AttackKind::Collude,
                    3 => AttackKind::StaleReplay,
                    b => return Err(CodecError(format!("invalid AttackKind tag {b}"))),
                },
            },
            14 => TraceEvent::NetReconnect { worker: r.usize()? },
            15 => TraceEvent::NetQuarantine { worker: r.usize()? },
            12 => TraceEvent::Terminated {
                reason: match r.u8()? {
                    0 => TerminationReason::TargetAccuracy,
                    1 => TerminationReason::MaxRounds,
                    2 => TerminationReason::MaxSimTime,
                    3 => TerminationReason::QueueDrained,
                    4 => TerminationReason::Starved,
                    5 => TerminationReason::ServerCrash,
                    b => return Err(CodecError(format!("invalid TerminationReason tag {b}"))),
                },
                buffered: r.usize()?,
            },
            b => return Err(CodecError(format!("invalid TraceEvent tag {b}"))),
        })
    }
}

/// One trace record: the virtual time of an event and the event.
pub(crate) type Entry = (SimTime, TraceEvent);

/// Where two traces first disagree: the index of the first differing entry
/// and each trace's entry there (`None` past a trace's end), or `None` when
/// the traces are equal. Names the event behind two differing
/// [`TraceLog::digest`]s.
pub fn first_divergence<'a>(
    a: &'a [Entry],
    b: &'a [Entry],
) -> Option<(usize, Option<&'a Entry>, Option<&'a Entry>)> {
    let i = a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    (i < a.len().max(b.len())).then(|| (i, a.get(i), b.get(i)))
}

/// Time-stamped append-only trace.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    entries: Vec<Entry>,
}

impl TraceLog {
    pub fn new() -> Self {
        TraceLog { entries: Vec::new() }
    }

    pub fn push(&mut self, time: SimTime, ev: TraceEvent) {
        if let Some((last, _)) = self.entries.last() {
            debug_assert!(time >= *last, "trace must be time-ordered");
        }
        self.entries.push((time, ev));
    }

    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.entries.iter().filter(|(_, e)| pred(e)).count()
    }

    /// Distinct client ids rejected with `cause`, sorted — e.g. the robust
    /// layer's detection set for precision/recall against the ground-truth
    /// attacker set.
    pub fn rejected_clients(&self, cause: RejectCause) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .entries
            .iter()
            .filter_map(|(_, e)| match e {
                TraceEvent::Rejected { id, cause: c } if *c == cause => Some(id.index()),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Write the full trace: a count, then `(time, event)` per entry.
    pub fn encode(&self, w: &mut BinWriter) {
        w.usize(self.entries.len());
        for (t, e) in &self.entries {
            w.sim_time(*t);
            e.encode(w);
        }
    }

    /// Read a trace written by [`TraceLog::encode`].
    pub fn decode(r: &mut BinReader<'_>) -> Result<Self, CodecError> {
        let n = r.count(8 + 1)?;
        let entries = (0..n).map(|_| Ok((r.sim_time()?, TraceEvent::decode(r)?)));
        Ok(TraceLog { entries: entries.collect::<Result<_, CodecError>>()? })
    }

    /// The terminal event's reason, if one was recorded.
    pub fn termination(&self) -> Option<TerminationReason> {
        self.entries.iter().rev().find_map(|(_, e)| match e {
            TraceEvent::Terminated { reason, .. } => Some(*reason),
            _ => None,
        })
    }

    /// Order-sensitive digest of the full trace, folding each entry's exact
    /// `Debug` rendering (timestamps print with millisecond precision, but
    /// `SimTime` values are themselves derived bit-exactly, so any real
    /// divergence shows up). Two runs whose digests match executed the same
    /// event sequence — the quantity the resume bit-identity guarantee and
    /// the CI kill-and-resume job compare.
    pub fn digest(&self) -> u64 {
        let mut h = crate::digest::FNV_OFFSET;
        for (t, e) in &self.entries {
            h = crate::digest::fnv1a64_extend(h, &t.as_secs().to_bits().to_le_bytes());
            h = crate::digest::fnv1a64_extend(h, format!("{e:?};").as_bytes());
        }
        h
    }

    /// Event tallies by `TraceEvent::kind`, in kind order — the
    /// trace-to-structured-record bridge consumed by the obs summary.
    pub fn kind_counts(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut out = std::collections::BTreeMap::new();
        for (_, e) in &self.entries {
            *out.entry(e.kind()).or_insert(0u64) += 1;
        }
        out
    }

    /// All `(time, accuracy)` evaluation points, for accuracy-vs-time curves.
    pub fn accuracy_series(&self) -> Vec<(f64, f64)> {
        self.entries
            .iter()
            .filter_map(|(t, e)| match e {
                TraceEvent::Eval { accuracy, .. } => Some((t.as_secs(), *accuracy)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(k: usize) -> ClientId {
        ClientId::new(k)
    }

    #[test]
    fn push_and_count() {
        let mut log = TraceLog::new();
        log.push(SimTime::from_secs(1.0), TraceEvent::ClientStart { id: cid(0), round: 0 });
        log.push(
            SimTime::from_secs(2.0),
            TraceEvent::Upload { id: cid(0), born_round: 0, epochs: 5 },
        );
        log.push(SimTime::from_secs(2.0), TraceEvent::Aggregate { round: 1, num_updates: 1 });
        log.push(SimTime::from_secs(2.5), TraceEvent::Eval { round: 1, accuracy: 0.5 });
        assert_eq!(log.len(), 4);
        assert_eq!(log.count(|e| matches!(e, TraceEvent::Aggregate { .. })), 1);
        assert_eq!(log.count(|e| matches!(e, TraceEvent::Notify { .. })), 0);
        assert_eq!(log.accuracy_series(), vec![(2.5, 0.5)]);
    }

    #[test]
    fn fault_counters_and_termination() {
        let mut log = TraceLog::new();
        let t = SimTime::from_secs(1.0);
        log.push(t, TraceEvent::Crash { id: cid(3) });
        log.push(t, TraceEvent::UploadFailed { id: cid(1), attempt: 0 });
        log.push(t, TraceEvent::Retry { id: cid(1), attempt: 1 });
        log.push(t, TraceEvent::Timeout { id: cid(3) });
        log.push(t, TraceEvent::Rejected { id: cid(2), cause: RejectCause::NonFinite });
        assert_eq!(log.termination(), None);
        log.push(t, TraceEvent::Terminated { reason: TerminationReason::Starved, buffered: 2 });
        assert_eq!(log.count(|e| matches!(e, TraceEvent::Crash { .. })), 1);
        assert_eq!(log.count(|e| matches!(e, TraceEvent::Rejected { .. })), 1);
        assert_eq!(log.rejected_clients(RejectCause::NonFinite), vec![2]);
        assert_eq!(log.kind_counts().values().sum::<u64>(), 6);
        assert_eq!(log.termination(), Some(TerminationReason::Starved));
    }

    #[test]
    fn first_divergence_names_the_first_differing_entry() {
        let t = |s| SimTime::from_secs(s);
        let start = |k| TraceEvent::ClientStart { id: cid(k), round: 0 };
        let a = [(t(1.0), start(0)), (t(1.0), start(1)), (t(2.0), start(2))];
        assert_eq!(first_divergence(&a, &a), None);
        assert_eq!(first_divergence(&[], &[]), None);
        // Same event, different time.
        let mut b = a.clone();
        b[1].0 = t(1.5);
        assert_eq!(first_divergence(&a, &b), Some((1, Some(&a[1]), Some(&b[1]))));
        // Same time, different event; only the first difference is named.
        let mut c = a.clone();
        c[0].1 = start(5);
        c[2].1 = start(6);
        assert_eq!(first_divergence(&a, &c), Some((0, Some(&a[0]), Some(&c[0]))));
        // One trace is a prefix of the other.
        assert_eq!(first_divergence(&a, &a[..2]), Some((2, Some(&a[2]), None)));
        assert_eq!(first_divergence(&a[..0], &a), Some((0, None, Some(&a[0]))));
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mk = |swap: bool| {
            let mut log = TraceLog::new();
            let (a, b) = if swap { (cid(1), cid(0)) } else { (cid(0), cid(1)) };
            log.push(SimTime::from_secs(1.0), TraceEvent::ClientStart { id: a, round: 0 });
            log.push(SimTime::from_secs(1.0), TraceEvent::ClientStart { id: b, round: 0 });
            log
        };
        assert_eq!(TraceLog::new().digest(), TraceLog::new().digest());
        assert_eq!(mk(false).digest(), mk(false).digest());
        assert_ne!(mk(false).digest(), mk(true).digest(), "digest blind to event order");
        assert_ne!(mk(false).digest(), TraceLog::new().digest());
    }

    #[test]
    fn kind_counts_tally_every_event() {
        let mut log = TraceLog::new();
        let t = SimTime::from_secs(1.0);
        log.push(t, TraceEvent::ClientStart { id: cid(0), round: 0 });
        log.push(t, TraceEvent::ClientStart { id: cid(1), round: 0 });
        log.push(t, TraceEvent::Upload { id: cid(0), born_round: 0, epochs: 5 });
        log.push(t, TraceEvent::Aggregate { round: 1, num_updates: 1 });
        log.push(t, TraceEvent::Quarantine { id: cid(1) });
        let counts = log.kind_counts();
        assert_eq!(counts["client_start"], 2);
        assert_eq!(counts["upload"], 1);
        assert_eq!(counts["aggregate"], 1);
        assert_eq!(counts["quarantine"], 1);
        assert_eq!(counts.values().sum::<u64>(), log.len() as u64);
        assert_eq!(TraceLog::new().kind_counts().len(), 0);
    }

    #[test]
    fn accuracy_series_in_order() {
        let mut log = TraceLog::new();
        for (i, acc) in [0.2, 0.4, 0.6].iter().enumerate() {
            log.push(
                SimTime::from_secs(i as f64),
                TraceEvent::Eval { round: i as u64, accuracy: *acc },
            );
        }
        let s = log.accuracy_series();
        assert_eq!(s.len(), 3);
        assert!(s.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn every_trace_event_roundtrips() {
        let mut log = TraceLog::new();
        let t = SimTime::from_secs(2.0);
        let events = vec![
            TraceEvent::ClientStart { id: cid(1), round: 2 },
            TraceEvent::Upload { id: cid(3), born_round: 1, epochs: 5 },
            TraceEvent::Notify { id: cid(4) },
            TraceEvent::Drop { id: cid(5), staleness: 9 },
            TraceEvent::Aggregate { round: 3, num_updates: 4 },
            TraceEvent::Eval { round: 3, accuracy: 0.625 },
            TraceEvent::Crash { id: cid(6) },
            TraceEvent::UploadFailed { id: cid(7), attempt: 0 },
            TraceEvent::Retry { id: cid(7), attempt: 1 },
            TraceEvent::Timeout { id: cid(8) },
            TraceEvent::Quarantine { id: cid(8) },
            TraceEvent::Rejected { id: cid(9), cause: RejectCause::NormExploded },
            TraceEvent::Rejected { id: cid(10), cause: RejectCause::RobustScreened },
            TraceEvent::Attacked { id: cid(11), kind: AttackKind::SignFlip },
            TraceEvent::Attacked { id: cid(12), kind: AttackKind::ScaledBoost { lambda: 10.0 } },
            TraceEvent::Attacked { id: cid(13), kind: AttackKind::Collude },
            TraceEvent::Attacked { id: cid(14), kind: AttackKind::StaleReplay },
            TraceEvent::NetReconnect { worker: 2 },
            TraceEvent::NetQuarantine { worker: 3 },
            TraceEvent::Terminated { reason: TerminationReason::ServerCrash, buffered: 2 },
        ];
        for e in &events {
            log.push(t, e.clone());
        }
        let mut w = BinWriter::new();
        log.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        let back = TraceLog::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.entries(), log.entries());
        assert_eq!(back.digest(), log.digest());
    }

    #[test]
    fn bad_tags_are_errors() {
        let mut w = BinWriter::new();
        w.usize(1);
        w.f64(1.0); // time
        w.u8(99); // bogus event tag
        let bytes = w.into_bytes();
        let e = TraceLog::decode(&mut BinReader::new(&bytes)).unwrap_err();
        assert!(e.0.contains("invalid TraceEvent tag"), "{}", e.0);
    }
}

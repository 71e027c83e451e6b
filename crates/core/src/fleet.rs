//! Dense struct-of-arrays bookkeeping for million-client fleets.
//!
//! The engine used to scatter per-client state across half a dozen parallel
//! `Vec`s (`phase`, `next_generation`, `next_session_seq`,
//! `consecutive_timeouts`, `crash_scheduled`) plus a `Vec<Option<Session>>`
//! whose slots are almost all `None` — a semi-async server only ever has a
//! cohort-sized subset in flight. [`FleetTable`] consolidates all of it into
//! one table keyed by [`ClientId`]:
//!
//! * **Dense columns** for the cheap monotone counters, one cache-friendly
//!   array per field (~30 bytes/client all-in), instead of per-client
//!   heap objects.
//! * **Bitsets** for the booleans: `idle` mirrors `phase == Idle` so the
//!   refill scan walks 64 clients per word instead of one enum per client,
//!   and `touched` records which rows ever left their default state so
//!   checkpoints can serialize only those (sparse by construction: the
//!   touched set is bounded by clients that ever trained, not by N).
//! * **A sorted map** for the heavyweight in-flight [`Session`]s; iterating
//!   it yields sessions in ascending client order, which is exactly the
//!   order the policy hooks and the old dense scan observed.
//!
//! Per-phase counts make `active()` O(1), and the idle scan shards over
//! fixed bitset word blocks on rayon — blocks are concatenated in block
//! order, so the result is bit-identical to the sequential scan at any
//! thread count.

use crate::checkpoint::{BinReader, BinWriter, CodecError};
use crate::client::TrainOutcome;
use rayon::prelude::*;
use seafl_sim::{ClientId, SimTime};
use std::collections::BTreeMap;

/// One in-flight local training session.
pub struct Session {
    /// Round the session was dispatched in (staleness anchor).
    pub born_round: u64,
    /// Per-client monotonic session counter (timeout matching).
    pub seq: u64,
    /// Currently valid upload generation. Per-client monotonic across
    /// sessions, so an upload event from a reclaimed session can never be
    /// mistaken for a later session's upload.
    pub generation: u64,
    /// Absolute completion time of each local epoch (empty for lockstep
    /// sessions — the barrier carries the timing).
    pub epoch_ends: Vec<SimTime>,
    /// Pre-computed training result (per-epoch snapshots iff partial
    /// training can interrupt this session).
    pub outcome: TrainOutcome,
    /// Epochs included in the currently scheduled upload.
    pub scheduled_epochs: usize,
    /// Whether a partial-upload notification superseded the full upload.
    pub notified: bool,
}

impl Session {
    fn encode(&self, w: &mut BinWriter) {
        w.u64(self.born_round);
        w.u64(self.seq);
        w.u64(self.generation);
        w.usize(self.epoch_ends.len());
        for &t in &self.epoch_ends {
            w.sim_time(t);
        }
        self.outcome.encode(w);
        w.usize(self.scheduled_epochs);
        w.bool(self.notified);
    }

    fn decode(r: &mut BinReader<'_>) -> Result<Self, CodecError> {
        let (born_round, seq, generation) = (r.u64()?, r.u64()?, r.u64()?);
        let n_ends = r.count(8)?;
        Ok(Session {
            born_round,
            seq,
            generation,
            epoch_ends: (0..n_ends).map(|_| r.sim_time()).collect::<Result<_, _>>()?,
            outcome: TrainOutcome::decode(r)?,
            scheduled_epochs: r.usize()?,
            notified: r.bool()?,
        })
    }
}

/// Where a client is in the train → upload → aggregate protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientPhase {
    /// Available for selection.
    Idle,
    /// Local training in progress.
    Training,
    /// Update uploaded, sitting in the server buffer.
    Buffered,
    /// Excluded from selection after repeated session timeouts.
    Quarantined,
}

impl ClientPhase {
    fn tag(self) -> u8 {
        match self {
            ClientPhase::Idle => 0,
            ClientPhase::Training => 1,
            ClientPhase::Buffered => 2,
            ClientPhase::Quarantined => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ClientPhase::Idle,
            1 => ClientPhase::Training,
            2 => ClientPhase::Buffered,
            3 => ClientPhase::Quarantined,
            _ => return None,
        })
    }
}

/// Bitset word blocks per rayon task in the sharded idle scan. 4096 words =
/// 262 144 clients per block keeps per-task output buffers contiguous and
/// the fork/join overhead negligible next to the scan itself.
const IDLE_SCAN_BLOCK_WORDS: usize = 4096;

/// Struct-of-arrays per-client state for the unified engine (module docs).
pub struct FleetTable {
    len: usize,
    phase: Vec<ClientPhase>,
    /// Per-client monotonic upload-generation counters. Never reset, so a
    /// dangling upload event from a consumed or reclaimed session can never
    /// collide with a later session's generation (the double-consume bug).
    next_generation: Vec<u64>,
    /// Per-client monotonic session counters (timeout matching).
    next_session_seq: Vec<u64>,
    /// Consecutive session timeouts per client (quarantine trigger; reset
    /// on any successful upload).
    consecutive_timeouts: Vec<u32>,
    /// Upload transit-loss attempts consumed so far, the counter behind
    /// `FaultPlan::upload_attempt_fails` (advanced only while the client's
    /// drop channel is armed, so fault-free runs never touch a row here).
    fault_attempts: Vec<u64>,
    /// Bit k: client k's crash instant is already on the clock.
    crash_scheduled: Vec<u64>,
    /// Bit k: `phase[k] == Idle`. Maintained exclusively by `set_phase`.
    idle: Vec<u64>,
    /// Bit k: row k ever left its default state (sparse-checkpoint set).
    touched: Vec<u64>,
    /// In-flight sessions, sparse by client id; ordered iteration gives the
    /// ascending-client-order views the policies expect.
    sessions: BTreeMap<u32, Session>,
    /// Client count per phase, indexed by `ClientPhase::tag()`.
    counts: [usize; 4],
}

fn bit_get(words: &[u64], k: usize) -> bool {
    words[k / 64] >> (k % 64) & 1 != 0
}

fn bit_set(words: &mut [u64], k: usize, v: bool) {
    if v {
        words[k / 64] |= 1 << (k % 64);
    } else {
        words[k / 64] &= !(1 << (k % 64));
    }
}

/// Indices of set bits in `words` offset by `base`, ascending, appended to
/// `out`. `limit` caps indices (the last word may cover past `len`).
fn collect_set_bits(words: &[u64], base: usize, limit: usize, out: &mut Vec<usize>) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let k = base + wi * 64 + w.trailing_zeros() as usize;
            if k >= limit {
                return;
            }
            out.push(k);
            w &= w - 1;
        }
    }
}

impl std::fmt::Debug for FleetTable {
    /// Summary form only — a full column dump of a million-client table
    /// would be pathological in test failure output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTable")
            .field("len", &self.len)
            .field("counts", &self.counts)
            .field("resident_records", &self.resident_records())
            .field("sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

impl FleetTable {
    /// A table of `n` clients, all idle with zeroed counters.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FleetTable: zero clients");
        let words = n.div_ceil(64);
        let mut idle = vec![u64::MAX; words];
        // Mask the tail word so idle-scan popcounts never see ghost clients.
        if n % 64 != 0 {
            idle[words - 1] = (1u64 << (n % 64)) - 1;
        }
        FleetTable {
            len: n,
            phase: vec![ClientPhase::Idle; n],
            next_generation: vec![0; n],
            next_session_seq: vec![0; n],
            consecutive_timeouts: vec![0; n],
            fault_attempts: vec![0; n],
            crash_scheduled: vec![0; words],
            idle,
            touched: vec![0; words],
            sessions: BTreeMap::new(),
            counts: [n, 0, 0, 0],
        }
    }

    /// Registered clients N.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Never true: construction rejects empty tables.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows that ever left their default state — what a sparse checkpoint
    /// serializes, and what the `resident_records` gauge reports.
    pub fn resident_records(&self) -> usize {
        self.touched.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn check(&self, id: ClientId) -> usize {
        let k = id.index();
        assert!(k < self.len, "client {k} outside table of {}", self.len);
        k
    }

    fn touch(&mut self, k: usize) {
        bit_set(&mut self.touched, k, true);
    }

    /// Client `id`'s protocol phase.
    pub fn phase(&self, id: ClientId) -> ClientPhase {
        self.phase[self.check(id)]
    }

    /// Move client `id` to `phase`, maintaining the idle bitset and the
    /// per-phase counts.
    pub fn set_phase(&mut self, id: ClientId, phase: ClientPhase) {
        let k = self.check(id);
        let old = self.phase[k];
        if old == phase {
            return;
        }
        self.counts[old.tag() as usize] -= 1;
        self.counts[phase.tag() as usize] += 1;
        self.phase[k] = phase;
        bit_set(&mut self.idle, k, phase == ClientPhase::Idle);
        self.touch(k);
    }

    /// Number of clients currently training, O(1).
    pub fn active(&self) -> usize {
        self.counts[ClientPhase::Training.tag() as usize]
    }

    /// Idle clients in ascending order. Large fleets shard the bitset scan
    /// over fixed word blocks on rayon; blocks concatenate in block order,
    /// so the result is identical to the sequential scan at any thread
    /// count (runs on whatever rayon pool is installed at the call site).
    pub fn idle_clients(&self) -> Vec<usize> {
        if self.idle.len() <= IDLE_SCAN_BLOCK_WORDS {
            let mut out = Vec::with_capacity(self.counts[0]);
            collect_set_bits(&self.idle, 0, self.len, &mut out);
            return out;
        }
        let blocks: Vec<Vec<usize>> = self
            .idle
            .par_chunks(IDLE_SCAN_BLOCK_WORDS)
            .enumerate()
            .map(|(b, words)| {
                let mut out = Vec::new();
                collect_set_bits(words, b * IDLE_SCAN_BLOCK_WORDS * 64, self.len, &mut out);
                out
            })
            .collect();
        blocks.concat()
    }

    /// Client `id`'s next upload generation (pre-increment value).
    pub fn bump_generation(&mut self, id: ClientId) -> u64 {
        let k = self.check(id);
        self.touch(k);
        let g = self.next_generation[k];
        self.next_generation[k] += 1;
        g
    }

    /// Client `id`'s next session sequence number (pre-increment value).
    pub fn bump_session_seq(&mut self, id: ClientId) -> u64 {
        let k = self.check(id);
        self.touch(k);
        let s = self.next_session_seq[k];
        self.next_session_seq[k] += 1;
        s
    }

    /// Consecutive-timeout streak after recording one more (post-increment).
    pub fn record_timeout(&mut self, id: ClientId) -> u32 {
        let k = self.check(id);
        self.touch(k);
        self.consecutive_timeouts[k] += 1;
        self.consecutive_timeouts[k]
    }

    /// Reset client `id`'s timeout streak (on any successful upload).
    pub fn reset_timeouts(&mut self, id: ClientId) {
        let k = self.check(id);
        if self.consecutive_timeouts[k] != 0 {
            self.touch(k);
            self.consecutive_timeouts[k] = 0;
        }
    }

    /// Consume one upload-loss attempt index for client `id` (pre-increment
    /// value; feeds `FaultPlan::upload_attempt_fails`).
    pub fn take_fault_attempt(&mut self, id: ClientId) -> u64 {
        let k = self.check(id);
        self.touch(k);
        let a = self.fault_attempts[k];
        self.fault_attempts[k] += 1;
        a
    }

    /// Whether client `id`'s crash instant is already on the clock.
    pub fn crash_scheduled(&self, id: ClientId) -> bool {
        bit_get(&self.crash_scheduled, self.check(id))
    }

    /// Record that client `id`'s crash instant has been put on the clock.
    pub fn mark_crash_scheduled(&mut self, id: ClientId) {
        let k = self.check(id);
        bit_set(&mut self.crash_scheduled, k, true);
        self.touch(k);
    }

    /// Client `id`'s in-flight session, if any.
    pub fn session(&self, id: ClientId) -> Option<&Session> {
        self.sessions.get(&id.raw())
    }

    /// Mutable access to client `id`'s in-flight session.
    pub fn session_mut(&mut self, id: ClientId) -> Option<&mut Session> {
        self.sessions.get_mut(&id.raw())
    }

    /// Install client `id`'s session (replacing any previous one).
    pub fn insert_session(&mut self, id: ClientId, s: Session) {
        let k = self.check(id);
        self.touch(k);
        self.sessions.insert(id.raw(), s);
    }

    /// Remove and return client `id`'s session.
    pub fn remove_session(&mut self, id: ClientId) -> Option<Session> {
        self.sessions.remove(&id.raw())
    }

    /// In-flight sessions in ascending client order.
    pub fn sessions(&self) -> impl Iterator<Item = (ClientId, &Session)> {
        self.sessions.iter().map(|(&k, s)| (ClientId::from_raw(k), s))
    }

    /// Number of in-flight sessions.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Serialize only the rows that ever left their default state, plus the
    /// in-flight sessions. A 1M-client table with a 100-client working set
    /// costs ~100 rows on disk, not 1M.
    pub fn encode(&self, w: &mut BinWriter) {
        w.usize(self.len);
        w.usize(self.resident_records());
        let mut rows = Vec::new();
        collect_set_bits(&self.touched, 0, self.len, &mut rows);
        for k in rows {
            w.u32(k as u32);
            w.u8(self.phase[k].tag());
            w.u64(self.next_generation[k]);
            w.u64(self.next_session_seq[k]);
            w.u32(self.consecutive_timeouts[k]);
            w.u64(self.fault_attempts[k]);
            w.bool(bit_get(&self.crash_scheduled, k));
        }
        w.usize(self.sessions.len());
        for (&k, s) in &self.sessions {
            w.u32(k);
            s.encode(w);
        }
    }

    /// Rebuild a table of `n` clients from [`FleetTable::encode`] output.
    /// Any structural defect (wrong fleet size, out-of-range or unsorted
    /// row ids, bad phase tags) is a [`CodecError`], never a panic.
    pub fn decode(r: &mut BinReader<'_>, n: usize) -> Result<Self, CodecError> {
        let stored_n = r.usize()?;
        if stored_n != n {
            return Err(CodecError(format!(
                "fleet table has {stored_n} clients, this experiment has {n}"
            )));
        }
        let mut table = FleetTable::new(n);
        r.ascending_ids("fleet row", n, |r, raw| {
            let k = raw as usize;
            let phase = ClientPhase::from_tag(r.u8()?)
                .ok_or_else(|| CodecError(format!("invalid client phase for row {raw}")))?;
            table.set_phase(ClientId::from_raw(raw), phase);
            table.next_generation[k] = r.u64()?;
            table.next_session_seq[k] = r.u64()?;
            table.consecutive_timeouts[k] = r.u32()?;
            table.fault_attempts[k] = r.u64()?;
            bit_set(&mut table.crash_scheduled, k, r.bool()?);
            table.touch(k);
            Ok(())
        })?;
        r.ascending_ids("session", n, |r, raw| {
            table.insert_session(ClientId::from_raw(raw), Session::decode(r)?);
            Ok(())
        })?;
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(k: usize) -> ClientId {
        ClientId::new(k)
    }

    #[test]
    fn fresh_table_is_all_idle() {
        let t = FleetTable::new(100);
        assert_eq!(t.len(), 100);
        assert_eq!(t.active(), 0);
        assert_eq!(t.resident_records(), 0);
        assert_eq!(t.idle_clients(), (0..100).collect::<Vec<_>>());
        assert_eq!(t.phase(cid(99)), ClientPhase::Idle);
    }

    #[test]
    fn phase_moves_maintain_idle_set_and_counts() {
        let mut t = FleetTable::new(70); // tail word partially used
        t.set_phase(cid(3), ClientPhase::Training);
        t.set_phase(cid(64), ClientPhase::Buffered);
        t.set_phase(cid(69), ClientPhase::Quarantined);
        assert_eq!(t.active(), 1);
        let idle = t.idle_clients();
        assert_eq!(idle.len(), 67);
        assert!(!idle.contains(&3) && !idle.contains(&64) && !idle.contains(&69));
        t.set_phase(cid(3), ClientPhase::Idle);
        assert_eq!(t.active(), 0);
        assert!(t.idle_clients().contains(&3));
        assert_eq!(t.resident_records(), 3);
    }

    #[test]
    fn counters_are_per_client_and_monotone() {
        let mut t = FleetTable::new(8);
        assert_eq!(t.bump_generation(cid(2)), 0);
        assert_eq!(t.bump_generation(cid(2)), 1);
        assert_eq!(t.bump_generation(cid(3)), 0);
        assert_eq!(t.bump_session_seq(cid(2)), 0);
        assert_eq!(t.record_timeout(cid(5)), 1);
        assert_eq!(t.record_timeout(cid(5)), 2);
        t.reset_timeouts(cid(5));
        assert_eq!(t.record_timeout(cid(5)), 1);
        assert_eq!(t.take_fault_attempt(cid(1)), 0);
        assert_eq!(t.take_fault_attempt(cid(1)), 1);
        assert_eq!(t.take_fault_attempt(cid(0)), 0);
        assert!(!t.crash_scheduled(cid(4)));
        t.mark_crash_scheduled(cid(4));
        assert!(t.crash_scheduled(cid(4)));
        // Rows 0..=5 were touched, 6 and 7 never were.
        assert_eq!(t.resident_records(), 6);
    }

    #[test]
    fn sessions_iterate_in_ascending_client_order() {
        let mut t = FleetTable::new(16);
        for k in [9usize, 1, 12] {
            t.insert_session(
                cid(k),
                Session {
                    born_round: k as u64,
                    seq: 0,
                    generation: 0,
                    epoch_ends: Vec::new(),
                    outcome: TrainOutcome { snapshots: Vec::new(), epoch_losses: vec![0.5] },
                    scheduled_epochs: 1,
                    notified: false,
                },
            );
        }
        let order: Vec<usize> = t.sessions().map(|(id, _)| id.index()).collect();
        assert_eq!(order, vec![1, 9, 12]);
        assert_eq!(t.num_sessions(), 3);
        assert!(t.remove_session(cid(9)).is_some());
        assert!(t.session(cid(9)).is_none());
        assert_eq!(t.num_sessions(), 2);
    }

    #[test]
    fn sharded_idle_scan_matches_sequential_order() {
        // Cross the parallel threshold so the rayon path actually runs.
        let n = IDLE_SCAN_BLOCK_WORDS * 64 + 321;
        let mut t = FleetTable::new(n);
        for k in (0..n).step_by(977) {
            t.set_phase(cid(k), ClientPhase::Training);
        }
        let mut expect = Vec::new();
        collect_set_bits(&t.idle, 0, n, &mut expect);
        assert_eq!(t.idle_clients(), expect);
        assert!(expect.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sparse_roundtrip_preserves_touched_rows_only() {
        let mut t = FleetTable::new(1000);
        t.set_phase(cid(7), ClientPhase::Training);
        t.bump_generation(cid(7));
        t.bump_session_seq(cid(7));
        t.record_timeout(cid(400));
        t.take_fault_attempt(cid(999));
        t.mark_crash_scheduled(cid(999));
        t.insert_session(
            cid(7),
            Session {
                born_round: 3,
                seq: 0,
                generation: 0,
                epoch_ends: vec![SimTime::from_secs(1.5)],
                outcome: TrainOutcome {
                    snapshots: vec![vec![1.0, f32::NAN]],
                    epoch_losses: vec![0.25],
                },
                scheduled_epochs: 1,
                notified: true,
            },
        );
        let mut w = BinWriter::new();
        t.encode(&mut w);
        let bytes = w.into_bytes();
        // Sparse: 3 touched rows out of 1000; the payload must not scale
        // with the fleet (3 rows ≈ 34 bytes each plus one session).
        assert!(bytes.len() < 300, "payload {} bytes is not sparse", bytes.len());
        let mut r = BinReader::new(&bytes);
        let back = FleetTable::decode(&mut r, 1000).unwrap();
        r.finish().unwrap();
        assert_eq!(back.resident_records(), 3);
        assert_eq!(back.phase(cid(7)), ClientPhase::Training);
        assert_eq!(back.next_generation[7], 1);
        assert_eq!(back.next_session_seq[7], 1);
        assert_eq!(back.consecutive_timeouts[400], 1);
        assert_eq!(back.fault_attempts[999], 1);
        assert!(back.crash_scheduled(cid(999)));
        assert_eq!(back.active(), 1);
        assert_eq!(back.idle_clients().len(), 999);
        let s = back.session(cid(7)).unwrap();
        assert_eq!(s.born_round, 3);
        assert!(s.notified);
        assert_eq!(s.outcome.snapshots[0][1].to_bits(), f32::NAN.to_bits());
        assert_eq!(back.phase(cid(500)), ClientPhase::Idle);
    }

    #[test]
    fn decode_rejects_structural_defects() {
        let t = FleetTable::new(10);
        let mut w = BinWriter::new();
        t.encode(&mut w);
        let bytes = w.into_bytes();
        // Wrong fleet size.
        let mut r = BinReader::new(&bytes);
        let e = FleetTable::decode(&mut r, 11).unwrap_err();
        assert!(e.0.contains("10 clients"), "{}", e.0);
        // Out-of-range row id.
        let mut w = BinWriter::new();
        w.usize(10);
        w.usize(1);
        w.u32(10); // row id == n
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        let e = FleetTable::decode(&mut r, 10).unwrap_err();
        assert!(e.0.contains("fleet row id 10 outside 0..10"), "{}", e.0);
        // Session ids out of order (no rows, two sessions: 3 then 3).
        let mut w = BinWriter::new();
        w.usize(10);
        w.usize(0);
        w.usize(2);
        for _ in 0..2 {
            w.u32(3);
            Session {
                born_round: 0,
                seq: 0,
                generation: 0,
                epoch_ends: Vec::new(),
                outcome: TrainOutcome { snapshots: Vec::new(), epoch_losses: Vec::new() },
                scheduled_epochs: 1,
                notified: false,
            }
            .encode(&mut w);
        }
        let bytes = w.into_bytes();
        let e = FleetTable::decode(&mut BinReader::new(&bytes), 10).unwrap_err();
        assert!(e.0.contains("session ids not") && e.0.ends_with("at 3"), "{}", e.0);
    }

    #[test]
    #[should_panic(expected = "outside table")]
    fn out_of_range_access_panics() {
        let mut t = FleetTable::new(4);
        t.bump_generation(cid(4));
    }
}

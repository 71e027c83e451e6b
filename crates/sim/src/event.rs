//! The event queue: a hierarchical timer wheel over (time, sequence) with
//! deterministic FIFO tie-breaking, so simulations replay identically.
//!
//! # Why a wheel
//!
//! The queue used to be a `BinaryHeap`, which pays O(log n) pointer-chasing
//! comparisons per schedule and per pop — heap churn that dominates the
//! event loop once the fleet holds hundreds of thousands of in-flight
//! timers. The wheel replaces it with a radix structure over the timestamp
//! bits: O(1) schedule, O(1) amortized pop, and memory proportional to the
//! number of *pending* events, not the fleet size.
//!
//! # Layout
//!
//! A timestamp maps to a 64-bit key via `f64::to_bits` — for the
//! non-negative finite values [`SimTime`] admits, the IEEE-754 bit pattern
//! is monotone in the value, so key order is exactly time order (and equal
//! times share one key). The wheel has 8 levels of 256 slots, one level per
//! key byte. An event lives at level ℓ, slot `byte_ℓ(key)`, where ℓ is the
//! *highest* byte in which its key differs from the current clock key:
//! near-future events sit in level 0 (where every entry in a slot shares
//! the exact key), far-future events sit high. When the clock must advance,
//! the lowest occupied level's first occupied slot is drained and its
//! entries re-inserted relative to the new clock — each event can only move
//! to strictly lower levels, so it relocates at most 7 times over its
//! lifetime (the O(1) amortized bound). Entries that land *on* the clock
//! key go to a `due` list, sorted by sequence number, preserving the exact
//! `(time, seq)` total order of the old heap.
//!
//! [`EventQueue::encode`] serializes the pending set in sequence-number
//! order — the same canonical form the heap used — so restore semantics are
//! unchanged.

use crate::bin::{BinReader, BinWriter, CodecError};
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

const LEVELS: usize = 8;
const SLOTS: usize = 256;
/// Occupancy bitmap words per level (256 slots / 64 bits).
const WORDS: usize = SLOTS / 64;

/// Order-preserving key for a [`SimTime`]: the IEEE-754 bit pattern, with
/// negative zero normalized so the map is injective on admitted values.
fn time_key(t: SimTime) -> u64 {
    let s = t.as_secs();
    if s == 0.0 {
        0
    } else {
        s.to_bits()
    }
}

fn byte_of(key: u64, level: usize) -> usize {
    ((key >> (8 * level)) & 0xff) as usize
}

struct Entry<E> {
    key: u64,
    seq: u64,
    time: SimTime,
    event: E,
}

/// A scheduled event rejected for lying in the simulation's past. Carries
/// the full context — the frozen clock, the offending timestamp and the
/// event itself — so the violation is diagnosable at the call site.
pub struct ScheduleError<E> {
    /// The simulation "now" (time of the most recently popped event).
    pub now: SimTime,
    /// The offending timestamp, strictly before `now`.
    pub time: SimTime,
    /// The rejected event, returned to the caller.
    pub event: E,
}

impl<E: fmt::Debug> fmt::Display for ScheduleError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheduling at {:?} before current time {:?} (event: {:?})",
            self.time, self.now, self.event
        )
    }
}

impl<E: fmt::Debug> fmt::Debug for ScheduleError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl<E: fmt::Debug> std::error::Error for ScheduleError<E> {}

/// Discrete-event queue delivering events in nondecreasing time order, FIFO
/// among equal timestamps. Implemented as a hierarchical timer wheel (see
/// the module docs); the public contract is identical to the historical
/// binary-heap queue, pinned by the property tests below.
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` buckets, flattened: `slots[level * SLOTS + slot]`.
    slots: Vec<Vec<Entry<E>>>,
    /// One bit per slot, per level, for O(1) next-occupied-slot scans.
    occupancy: [[u64; WORDS]; LEVELS],
    /// Events at exactly the current clock key, sorted by `seq`; popped
    /// from the front. Refilled by [`cascade`](Self::cascade) only when
    /// empty, so appends (which carry fresh, maximal seqs) keep it sorted.
    due: VecDeque<Entry<E>>,
    /// Key of the wheel's placement reference; equals
    /// `time_key(last_popped)` at every pop boundary.
    current_key: u64,
    len: usize,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [[0; WORDS]; LEVELS],
            due: VecDeque::new(),
            current_key: 0,
            len: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `event` at absolute time `time`. Scheduling earlier than the
    /// last popped event is a logic error (it would be delivered "in the
    /// past") and panics with the full [`ScheduleError`] context; use
    /// [`try_schedule`](Self::try_schedule) to handle it as a value.
    pub fn schedule(&mut self, time: SimTime, event: E)
    where
        E: fmt::Debug,
    {
        if let Err(e) = self.try_schedule(time, event) {
            panic!("{e}");
        }
    }

    /// [`schedule`](Self::schedule), reporting a past-time violation as an
    /// error carrying the clock, the offending time and the event instead
    /// of panicking.
    pub fn try_schedule(&mut self, time: SimTime, event: E) -> Result<(), ScheduleError<E>> {
        if time < self.last_popped {
            return Err(ScheduleError { now: self.last_popped, time, event });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Entry { key: time_key(time), seq, time, event });
        Ok(())
    }

    /// Place an entry relative to `current_key`. The entry's key must be
    /// `>= current_key` (guaranteed by the monotone schedule check and by
    /// cascade invariants).
    fn insert(&mut self, entry: Entry<E>) {
        debug_assert!(entry.key >= self.current_key, "entry key below the wheel clock");
        self.len += 1;
        let diff = entry.key ^ self.current_key;
        if diff == 0 {
            // Exactly on the clock: due now. Appends arrive in increasing
            // seq order (fresh schedules and seq-sorted decodes), keeping
            // the list sorted.
            self.due.push_back(entry);
            return;
        }
        let level = (63 - diff.leading_zeros() as usize) / 8;
        let slot = byte_of(entry.key, level);
        self.slots[level * SLOTS + slot].push(entry);
        self.occupancy[level][slot / 64] |= 1 << (slot % 64);
    }

    /// First occupied slot index at `level`, if any.
    fn first_occupied(&self, level: usize) -> Option<usize> {
        for (w, &bits) in self.occupancy[level].iter().enumerate() {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    fn drain_slot(&mut self, level: usize, slot: usize) -> Vec<Entry<E>> {
        self.occupancy[level][slot / 64] &= !(1 << (slot % 64));
        std::mem::take(&mut self.slots[level * SLOTS + slot])
    }

    /// Advance the wheel to the next pending key, refilling `due`. Called
    /// only when `due` is empty; no-op when the wheel is empty.
    fn cascade(&mut self) {
        debug_assert!(self.due.is_empty());
        for level in 0..LEVELS {
            let Some(slot) = self.first_occupied(level) else { continue };
            debug_assert!(
                slot > byte_of(self.current_key, level),
                "occupied slot at or below the clock cursor"
            );
            let mut entries = self.drain_slot(level, slot);
            if level == 0 {
                // Level-0 slots hold exactly one key (all bytes above byte 0
                // match the clock): the whole slot becomes due.
                self.current_key = (self.current_key & !0xff) | slot as u64;
                debug_assert!(entries.iter().all(|e| e.key == self.current_key));
                entries.sort_unstable_by_key(|e| e.seq);
                self.due.extend(entries);
            } else {
                // Higher level: the slot's minimum key is the global
                // minimum. Advance the clock to it and re-insert the rest
                // relative to the new clock — every entry moves to a
                // strictly lower level, bounding total relocations.
                let min_key = entries.iter().map(|e| e.key).min().expect("occupied slot empty");
                self.current_key = min_key;
                self.len -= entries.len();
                let mut now_due: Vec<Entry<E>> = Vec::new();
                for e in entries {
                    if e.key == min_key {
                        now_due.push(e);
                    } else {
                        self.insert(e);
                    }
                }
                self.len += now_due.len();
                now_due.sort_unstable_by_key(|e| e.seq);
                self.due.extend(now_due);
            }
            return;
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() {
            self.cascade();
        }
        let e = self.due.pop_front()?;
        self.len -= 1;
        debug_assert!(e.time >= self.last_popped, "wheel violated monotonicity");
        self.last_popped = e.time;
        Some((e.time, e.event))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.due.front() {
            return Some(e.time);
        }
        for level in 0..LEVELS {
            let Some(slot) = self.first_occupied(level) else { continue };
            let entries = &self.slots[level * SLOTS + slot];
            // Level 0: one shared key per slot. Higher levels: the first
            // occupied slot of the lowest occupied level contains the
            // global minimum (lower levels are empty, later slots and
            // higher levels hold strictly larger keys).
            return entries.iter().map(|e| e.time).min();
        }
        None
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The time of the most recently popped event (the simulation "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Serialize the queue: the frozen clock, the next sequence number and
    /// the pending events as `(time, seq, event)`, each event body written
    /// by `event`.
    ///
    /// Entries go out sorted by sequence number — a canonical order
    /// independent of the wheel's internal layout, so two queues holding the
    /// same pending events always encode to identical bytes.
    pub fn encode(&self, w: &mut BinWriter, mut event: impl FnMut(&mut BinWriter, &E)) {
        let mut entries: Vec<&Entry<E>> =
            self.due.iter().chain(self.slots.iter().flatten()).collect();
        entries.sort_by_key(|e| e.seq);
        w.sim_time(self.last_popped);
        w.u64(self.next_seq);
        w.usize(entries.len());
        for e in entries {
            w.sim_time(e.time);
            w.u64(e.seq);
            event(w, &e.event);
        }
    }

    /// Rebuild a queue from [`EventQueue::encode`] output, each event body
    /// read by `event`.
    ///
    /// Re-inserts the recorded `(time, seq)` pairs directly (bypassing
    /// [`EventQueue::schedule`], which would re-assign sequence numbers);
    /// since pop order is a total order on `(time, seq)`, the restored
    /// queue delivers the exact remaining event sequence of the original.
    /// An entry in the clock's past, or out of sequence order, is an error.
    pub fn decode(
        r: &mut BinReader<'_>,
        mut event: impl FnMut(&mut BinReader<'_>) -> Result<E, CodecError>,
    ) -> Result<Self, CodecError> {
        let mut q = EventQueue::new();
        q.last_popped = r.sim_time()?;
        q.next_seq = r.u64()?;
        q.current_key = time_key(q.last_popped);
        let mut floor = 0;
        for _ in 0..r.count(8 + 8)? {
            let (time, seq) = (r.sim_time()?, r.u64()?);
            if time < q.last_popped || seq < floor || seq >= q.next_seq {
                return Err(CodecError(format!(
                    "clock entry (time {time:?}, seq {seq}) does not fit a queue at {:?} with \
                     sequence numbers {floor}..{}",
                    q.last_popped, q.next_seq
                )));
            }
            floor = seq + 1;
            q.insert(Entry { key: time_key(time), seq, time, event: event(r)? });
        }
        Ok(q)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), "c");
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2.0));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn try_schedule_reports_context_and_returns_the_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), "late");
        q.pop();
        let err = q.try_schedule(SimTime::from_secs(0.5), "late").unwrap_err();
        assert_eq!(err.now, SimTime::from_secs(2.0));
        assert_eq!(err.time, SimTime::from_secs(0.5));
        assert_eq!(err.event, "late");
        let msg = err.to_string();
        assert!(msg.contains("before current time"), "{msg}");
        assert!(msg.contains("0.500s") && msg.contains("2.000s") && msg.contains("late"), "{msg}");
        // The rejected event consumed no sequence number.
        q.schedule(SimTime::from_secs(2.0), "ok");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.5)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), SimTime::ZERO);
    }

    /// Encode → decode with `u32` event bodies.
    fn roundtrip(q: &EventQueue<u32>) -> EventQueue<u32> {
        let mut w = BinWriter::new();
        q.encode(&mut w, |w, &e| w.u32(e));
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        let back = EventQueue::decode(&mut r, |r| r.u32()).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn encode_roundtrip_preserves_pop_order_and_clock() {
        let mut q = EventQueue::new();
        for (t, e) in [(4.0, 4), (1.0, 1), (2.0, 2), (2.0, 22), (9.0, 9)] {
            q.schedule(SimTime::from_secs(t), e);
        }
        q.pop(); // advance the clock to 1.0 so last_popped is non-trivial
        let mut restored = roundtrip(&q);
        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.len(), q.len());
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b, "restored queue replayed a different event sequence");
    }

    #[test]
    fn decode_rejects_entries_that_do_not_fit_the_clock() {
        let entry = |w: &mut BinWriter, t: f64, seq: u64| {
            w.sim_time(SimTime::from_secs(t));
            w.u64(seq);
            w.u32(0);
        };
        // Clock at 2.0, next_seq 5; each case holds one offending entry.
        for (entries, why) in [
            (vec![(1.0, 0)], "in the clock's past"),
            (vec![(3.0, 5)], "seq not below next_seq"),
            (vec![(3.0, 2), (4.0, 2)], "seq repeated"),
            (vec![(3.0, 3), (4.0, 1)], "seq descending"),
        ] {
            let mut w = BinWriter::new();
            w.sim_time(SimTime::from_secs(2.0));
            w.u64(5);
            w.usize(entries.len());
            for (t, seq) in entries {
                entry(&mut w, t, seq);
            }
            let bytes = w.into_bytes();
            let got = EventQueue::decode(&mut BinReader::new(&bytes), |r| r.u32());
            assert!(got.is_err(), "accepted an entry {why}");
        }
    }

    #[test]
    fn restored_queue_accepts_new_events_with_fresh_seqs() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(3.0);
        q.schedule(t, 0);
        q.schedule(t, 1);
        let mut restored = roundtrip(&q);
        // New events at the same timestamp must still sort after the
        // restored ones (next_seq carried over).
        restored.schedule(t, 2);
        let order: Vec<u32> = std::iter::from_fn(|| restored.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn interleaved_pops_and_near_future_schedules() {
        // Exercises due-list appends at the exact clock key and cascades
        // across byte boundaries of the f64 bit pattern.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), 0);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        // Same time as the clock: delivered next, in schedule order.
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(1.0 + 1e-12), 2);
        q.schedule(SimTime::from_secs(1.0), 3);
        q.schedule(SimTime::from_secs(1e9), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 2, 4]);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn zero_time_events_deliver_before_everything() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(0.5), "b");
        q.schedule(SimTime::ZERO, "a");
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b"]);
    }

    /// The historical binary-heap queue, kept verbatim as the reference
    /// model the wheel is property-tested against.
    mod reference {
        use crate::time::SimTime;
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        struct Scheduled<E> {
            time: SimTime,
            seq: u64,
            event: E,
        }
        impl<E> PartialEq for Scheduled<E> {
            fn eq(&self, other: &Self) -> bool {
                self.time == other.time && self.seq == other.seq
            }
        }
        impl<E> Eq for Scheduled<E> {}
        impl<E> PartialOrd for Scheduled<E> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<E> Ord for Scheduled<E> {
            fn cmp(&self, other: &Self) -> Ordering {
                other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
            }
        }

        pub struct HeapQueue<E> {
            heap: BinaryHeap<Scheduled<E>>,
            next_seq: u64,
            last_popped: SimTime,
        }

        impl<E> HeapQueue<E> {
            pub fn new() -> Self {
                HeapQueue { heap: BinaryHeap::new(), next_seq: 0, last_popped: SimTime::ZERO }
            }
            pub fn schedule(&mut self, time: SimTime, event: E) {
                assert!(time >= self.last_popped);
                self.heap.push(Scheduled { time, seq: self.next_seq, event });
                self.next_seq += 1;
            }
            pub fn pop(&mut self) -> Option<(SimTime, E)> {
                let s = self.heap.pop()?;
                self.last_popped = s.time;
                Some((s.time, s.event))
            }
            pub fn now(&self) -> SimTime {
                self.last_popped
            }
        }
    }

    /// Interpret one op stream against both queues. `times` values index a
    /// small palette to force equal-time bursts; `restore_at` encodes and
    /// decodes the wheel mid-stream (the heap has no such form — identical
    /// replay after restore is exactly what's being proven).
    fn run_against_reference(ops: &[(u8, u8)], restore_at: Option<usize>) {
        let palette =
            [0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 17.0, 1e-9, 1e6, 1e6, 3.0e3, 255.75, 256.0, 65_536.5];
        let mut wheel = EventQueue::new();
        let mut heap = reference::HeapQueue::new();
        let mut payload = 0u32;
        for (i, &(op, t)) in ops.iter().enumerate() {
            if Some(i) == restore_at {
                wheel = roundtrip(&wheel);
            }
            if op % 4 == 0 {
                // Pop from both; results must match exactly.
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "wheel and heap diverged at op {i}");
                assert_eq!(wheel.now(), heap.now());
            } else {
                // Schedule at a palette time at or after the clock.
                let base = heap.now().as_secs();
                let time = SimTime::from_secs(base + palette[t as usize % palette.len()]);
                wheel.schedule(time, payload);
                heap.schedule(time, payload);
                payload += 1;
            }
        }
        // Drain both to the end.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b, "wheel and heap diverged during drain");
            if a.is_none() {
                break;
            }
        }
    }

    proptest! {
        #[test]
        fn prop_pop_order_nondecreasing(times in proptest::collection::vec(0.0f64..1000.0, 1..100)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule(SimTime::from_secs(t), ());
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        #[test]
        fn prop_wheel_matches_heap(ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..200)) {
            run_against_reference(&ops, None);
        }

        #[test]
        fn prop_wheel_matches_heap_across_restore(
            ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..200),
            cut in any::<proptest::sample::Index>(),
        ) {
            run_against_reference(&ops, Some(cut.index(ops.len())));
        }
    }
}

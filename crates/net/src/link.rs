//! The sequenced link: one endpoint type, [`Link`], that both the server
//! (one per worker) and the client hold, turning a lossy, droppable byte
//! pipe into exactly-once, in-order **message** delivery.
//!
//! * the **sender** half ([`SendLink`]) stamps each frame with the next
//!   sequence offset and retains it in a bounded history until the peer's
//!   cumulative ack passes it — retained frames answer both RTO
//!   retransmits and resume-after-reconnect replay;
//! * the **receiver** half ([`RecvLink`]) delivers frames strictly in
//!   offset order, parking out-of-order arrivals and silently swallowing
//!   duplicates (so a retransmitted or replayed frame is processed at most
//!   once);
//! * [`Link`] owns both halves, the current connection, the go-back-N RTO
//!   clock and **fragmentation**: [`Link::push`] splits a message into
//!   `Part` frames closed by one `Data` frame, and because delivery is
//!   already ordered and exactly-once the receiver reassembles by plain
//!   appending — no indices, no per-message table — under the single
//!   [`MAX_MESSAGE`] cap.
//!
//! A reconnecting peer announces the next offset it expects; the sender
//! replays from there, or reports a [`ReplayGap`] if the bounded history
//! has already evicted the requested range (the connection can then only
//! be rejected — state was lost). Every failed read or write drops the
//! connection and nothing else: history, receive position and the
//! half-assembled message all survive into the next [`Link::attach`].

use crate::frame::{Frame, FrameError, FrameKind, DEFAULT_MAX_PAYLOAD};
use crate::lossy::LossyTransport;
use crate::transport::{StreamTransport, Transport};
use crate::NetError;
use seafl_core::TransportConfig;
use seafl_sim::LossConfig;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Sender half of a sequenced link.
#[derive(Debug)]
pub struct SendLink {
    next_offset: u64,
    acked: u64,
    history: VecDeque<Frame>,
    cap: usize,
}

/// A resume request reached back past the bounded replay history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayGap {
    /// Offset the peer asked to resume from.
    pub requested: u64,
    /// Oldest offset still retained.
    pub oldest: u64,
}

impl SendLink {
    /// Fresh sender keeping at most `cap` unacked frames for replay.
    pub fn new(cap: usize) -> Self {
        SendLink { next_offset: 0, acked: 0, history: VecDeque::new(), cap: cap.max(1) }
    }

    /// Stamp `payload` as the next sequenced frame (`Part` or `Data`) and
    /// retain it for replay. If the history is full the oldest retained
    /// frame is evicted — past that point a peer needing it back can only
    /// be refused.
    pub fn stamp(&mut self, kind: FrameKind, payload: Vec<u8>) -> &Frame {
        self.history.push_back(Frame::new(kind, self.next_offset, payload));
        self.next_offset += 1;
        while self.history.len() > self.cap {
            self.history.pop_front();
        }
        self.history.back().expect("cap >= 1 keeps the newest frame")
    }

    /// Process a cumulative ack: everything below `upto` is delivered and
    /// can be dropped from the history. Returns `true` if the ack advanced
    /// (i.e. new frames were confirmed).
    pub fn on_ack(&mut self, upto: u64) -> bool {
        if upto <= self.acked {
            return false;
        }
        self.acked = upto.min(self.next_offset);
        while self.history.front().is_some_and(|f| f.offset < self.acked) {
            self.history.pop_front();
        }
        true
    }

    /// Frames sent but not yet covered by a cumulative ack, oldest first
    /// (the go-back-N retransmit set).
    pub fn unacked(&self) -> impl Iterator<Item = &Frame> {
        self.history.iter().filter(move |f| f.offset >= self.acked)
    }

    /// Number of unacked frames in flight.
    pub fn in_flight(&self) -> usize {
        (self.next_offset - self.acked) as usize
    }

    /// Replay every retained frame from `from` (the resuming peer's next
    /// expected offset) onward, or report the gap if the bounded history
    /// no longer reaches back that far.
    pub fn replay_from(&self, from: u64) -> Result<Vec<Frame>, ReplayGap> {
        if from >= self.next_offset {
            return Ok(Vec::new());
        }
        let oldest = self.next_offset - self.history.len() as u64;
        if from < oldest {
            return Err(ReplayGap { requested: from, oldest });
        }
        Ok(self.history.iter().filter(|f| f.offset >= from).cloned().collect())
    }

    /// Next sequence offset to be assigned.
    pub fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// Highest cumulative ack seen.
    pub fn acked(&self) -> u64 {
        self.acked
    }
}

/// Receiver half of a sequenced link.
#[derive(Debug, Default)]
pub struct RecvLink {
    next: u64,
    pending: BTreeMap<u64, Frame>,
}

impl RecvLink {
    /// Fresh receiver expecting offset 0.
    pub fn new() -> Self {
        RecvLink::default()
    }

    /// Accept one sequenced frame. Returns the frames now deliverable in
    /// order (possibly none, if `frame` arrived ahead of a gap) and
    /// whether `frame` was a duplicate of something already delivered or
    /// parked (duplicates produce no deliveries and mutate nothing).
    pub fn accept(&mut self, frame: Frame) -> (Vec<Frame>, bool) {
        if frame.offset < self.next || self.pending.contains_key(&frame.offset) {
            return (Vec::new(), true);
        }
        self.pending.insert(frame.offset, frame);
        let mut ready = Vec::new();
        while let Some(f) = self.pending.remove(&self.next) {
            self.next += 1;
            ready.push(f);
        }
        (ready, false)
    }

    /// Cumulative ack to advertise: the next offset this receiver expects.
    pub fn cumulative_ack(&self) -> u64 {
        self.next
    }
}

/// Largest message a [`Link`] reassembles (64 MiB — a 16 M-parameter
/// model). The one size cap above the per-frame payload cap: a peer that
/// streams fragments past it is cut off ([`FrameError::Oversized`])
/// before the buffer grows.
pub const MAX_MESSAGE: usize = 64 << 20;

/// What one [`Link::poll`] saw.
#[derive(Debug, Default)]
pub struct Polled {
    /// Wire bytes of the frame read (0: the wait elapsed, or the link is
    /// down).
    pub received: u64,
    /// Wire bytes of the ack written in reply.
    pub sent: u64,
    /// Messages this frame completed, in order.
    pub messages: Vec<Vec<u8>>,
}

/// One end of a resumable, sequenced, fragmenting link (see module docs).
pub struct Link {
    /// `None` while down; pushes still land in the replay history.
    transport: Option<Box<dyn Transport>>,
    send: SendLink,
    recv: RecvLink,
    chunk: usize,
    rto_base: f64,
    rto_cap: f64,
    rto: f64,
    rto_deadline: Option<Instant>,
    /// Fragments of the message being reassembled.
    partial: Vec<u8>,
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.001))
}

/// Write `frame` if the link is up, returning the bytes handed to the
/// transport; a failed write drops the connection. (A free function so a
/// frame borrowed from the history can be written without a copy.)
fn write(transport: &mut Option<Box<dyn Transport>>, frame: &Frame) -> u64 {
    match transport.as_mut().map(|t| t.send(frame)) {
        Some(Ok(())) => frame.wire_len() as u64,
        Some(Err(e)) => {
            eprintln!("seafl-net: {e}");
            *transport = None;
            0
        }
        None => 0,
    }
}

impl Link {
    /// A link with no connection yet, configured from the transport knobs
    /// (replay history, fragment size, RTO base and cap).
    pub fn new(knobs: &TransportConfig) -> Link {
        Link {
            transport: None,
            send: SendLink::new(knobs.replay_history),
            recv: RecvLink::new(),
            chunk: knobs.chunk_bytes.clamp(1, DEFAULT_MAX_PAYLOAD),
            rto_base: knobs.rto_base,
            rto_cap: knobs.rto_cap,
            rto: knobs.rto_base,
            rto_deadline: None,
            partial: Vec::new(),
        }
    }

    /// Whether a connection is attached.
    pub fn is_up(&self) -> bool {
        self.transport.is_some()
    }

    /// Drop the connection (the peer may resume on a new one).
    pub fn detach(&mut self) {
        self.transport = None;
    }

    /// Frames sent and not yet acked.
    pub fn in_flight(&self) -> usize {
        self.send.in_flight()
    }

    /// Next offset this end expects — what a handshake tells the peer to
    /// replay from.
    pub fn recv_next(&self) -> u64 {
        self.recv.cumulative_ack()
    }

    /// The gap, if a peer expecting `peer_next` can no longer be served
    /// from the replay history. Check before [`Link::attach`]: a handshake
    /// must refuse such a peer, not welcome it.
    pub fn replay_gap(&self, peer_next: u64) -> Option<ReplayGap> {
        self.send.replay_from(peer_next).err()
    }

    /// Adopt a freshly handshaken `stream`: wrap it in the loss model
    /// (fates drawn from `(seed, loss_link)`), replay everything from
    /// `peer_next` on and restart the RTO clock. Returns the bytes
    /// replayed. Panics if `peer_next` lies in a [`Link::replay_gap`].
    pub fn attach(
        &mut self,
        stream: StreamTransport,
        loss: LossConfig,
        seed: u64,
        loss_link: u64,
        peer_next: u64,
    ) -> u64 {
        let transport: Box<dyn Transport> = if loss.is_noop() {
            Box::new(stream)
        } else {
            Box::new(LossyTransport::new(stream, loss, seed, loss_link))
        };
        self.resume(transport, peer_next)
    }

    fn resume(&mut self, transport: Box<dyn Transport>, peer_next: u64) -> u64 {
        let replay = self.send.replay_from(peer_next).expect("caller checked replay_gap");
        self.transport = Some(transport);
        self.reset_rto();
        replay.iter().map(|f| write(&mut self.transport, f)).sum()
    }

    /// Back to the base RTO; the clock runs exactly while frames are in
    /// flight.
    fn reset_rto(&mut self) {
        self.rto = self.rto_base;
        self.rto_deadline = (self.send.in_flight() > 0).then(|| Instant::now() + secs(self.rto));
    }

    /// Queue one message: split it at the fragment size into `Part` frames
    /// closed by a `Data` frame, stamp each into the replay history and
    /// write it if the link is up. Returns the bytes written — a down link
    /// only means "delivered after the reconnect", never "lost". Panics
    /// past [`MAX_MESSAGE`]: the peer would refuse the message.
    pub fn push(&mut self, message: &[u8]) -> u64 {
        assert!(message.len() <= MAX_MESSAGE, "message of {} bytes exceeds cap", message.len());
        let mut sent = 0;
        let mut rest = message;
        loop {
            let (head, tail) = rest.split_at(rest.len().min(self.chunk));
            let kind = if tail.is_empty() { FrameKind::Data } else { FrameKind::Part };
            sent += write(&mut self.transport, self.send.stamp(kind, head.to_vec()));
            if tail.is_empty() {
                break;
            }
            rest = tail;
        }
        let rto = self.rto;
        self.rto_deadline.get_or_insert_with(|| Instant::now() + secs(rto));
        sent
    }

    /// Wait up to `wait` for one frame and process it. An ack advances the
    /// sender (resetting the RTO if it confirmed something); a sequenced
    /// frame is accepted, **always** re-acked — the ack covering a
    /// duplicate may itself have been lost — and what it makes deliverable
    /// is appended to the message under reassembly, handed up when its
    /// `Data` frame lands. A peer whose fragments outgrow [`MAX_MESSAGE`]
    /// is cut off — connection and partial message dropped — before any
    /// growth past the cap.
    pub fn poll(&mut self, wait: Duration) -> Result<Polled, FrameError> {
        let mut out = Polled::default();
        let Some(t) = self.transport.as_mut() else { return Ok(out) };
        let frame = match t.recv(wait) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(out),
            Err(e) => {
                // A peer closing is how every run ends; a fault earns a line.
                if !matches!(e, NetError::Disconnected { .. }) {
                    eprintln!("seafl-net: {e}");
                }
                self.transport = None;
                return Ok(out);
            }
        };
        out.received = frame.wire_len() as u64;
        match frame.kind {
            FrameKind::Ack => {
                if self.send.on_ack(frame.offset) {
                    self.reset_rto();
                }
            }
            FrameKind::Data | FrameKind::Part => {
                let (ready, _dup) = self.recv.accept(frame);
                let ack = Frame::new(FrameKind::Ack, self.recv.cumulative_ack(), Vec::new());
                out.sent = write(&mut self.transport, &ack);
                for f in ready {
                    let len = self.partial.len() + f.payload.len();
                    if len > MAX_MESSAGE {
                        self.partial = Vec::new();
                        self.transport = None;
                        return Err(FrameError::Oversized { len: len as u32, max: MAX_MESSAGE });
                    }
                    self.partial.extend_from_slice(&f.payload);
                    if f.kind == FrameKind::Data {
                        out.messages.push(std::mem::take(&mut self.partial));
                    }
                }
            }
            // Handshake frames are meaningless mid-session.
            FrameKind::Hello | FrameKind::Welcome | FrameKind::Reject => {}
        }
        Ok(out)
    }

    /// Go-back-N: if the link is up and the RTO clock has run out at
    /// `now`, rewrite every unacked frame and double the RTO up to its
    /// cap. Returns `(frames, bytes)` rewritten.
    pub fn retransmit_due(&mut self, now: Instant) -> (u64, u64) {
        if self.transport.is_none() || !self.rto_deadline.is_some_and(|d| now >= d) {
            return (0, 0);
        }
        let (mut frames, mut bytes) = (0, 0);
        for f in self.send.unacked() {
            let n = write(&mut self.transport, f);
            if n == 0 {
                break;
            }
            frames += 1;
            bytes += n;
        }
        self.rto = (self.rto * 2.0).min(self.rto_cap);
        self.rto_deadline = Some(now + secs(self.rto));
        (frames, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn data(link: &mut SendLink, byte: u8) -> Frame {
        link.stamp(FrameKind::Data, vec![byte]).clone()
    }

    type Queue = Arc<Mutex<VecDeque<Frame>>>;

    /// One direction-pair of an in-memory wire: `send` appends to `tx`,
    /// `recv` pops from `rx`; after `writes_left` sends every write fails.
    struct Pipe {
        tx: Queue,
        rx: Queue,
        writes_left: usize,
    }

    impl Transport for Pipe {
        fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
            if self.writes_left == 0 {
                return Err(NetError::Disconnected { peer: "pipe".into() });
            }
            self.writes_left -= 1;
            self.tx.lock().unwrap().push_back(frame.clone());
            Ok(())
        }
        fn recv(&mut self, _wait: Duration) -> Result<Option<Frame>, NetError> {
            Ok(self.rx.lock().unwrap().pop_front())
        }
        fn peer(&self) -> &str {
            "pipe"
        }
    }

    /// Two connected pipe ends; the first may write `a_writes` frames.
    fn pipes(a_writes: usize) -> (Pipe, Pipe) {
        let (ab, ba) = (Queue::default(), Queue::default());
        (
            Pipe { tx: ab.clone(), rx: ba.clone(), writes_left: a_writes },
            Pipe { tx: ba, rx: ab, writes_left: usize::MAX },
        )
    }

    const CHUNK: usize = 64;

    fn link() -> Link {
        Link::new(&TransportConfig { chunk_bytes: CHUNK, ..TransportConfig::default() })
    }

    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// Poll both ends (retransmitting with the clock wound past any RTO)
    /// until `b` has nothing more to hear; returns what `b` was handed.
    fn exchange(a: &mut Link, b: &mut Link) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        let mut quiet = 0;
        while quiet < 3 {
            let far = Instant::now() + Duration::from_secs(3600);
            a.retransmit_due(far);
            let polled = b.poll(Duration::ZERO).unwrap();
            let acked = a.poll(Duration::ZERO).unwrap();
            let idle = polled.received == 0 && acked.received == 0 && a.in_flight() == 0;
            quiet = if idle { quiet + 1 } else { 0 };
            got.extend(polled.messages);
        }
        got
    }

    #[test]
    fn messages_of_every_length_survive_drop_duplicate_reorder() {
        let loss = LossConfig {
            drop_prob: 0.15,
            dup_prob: 0.15,
            reorder_prob: 0.15,
            ..LossConfig::none()
        };
        let lens = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK];
        let (mut a, mut b) = (link(), link());
        let (pa, pb) = pipes(usize::MAX);
        a.resume(Box::new(LossyTransport::new(pa, loss, 7, 0)), 0);
        b.resume(Box::new(LossyTransport::new(pb, loss, 7, 1)), 0);
        for len in lens {
            a.push(&message(len));
        }
        // 0..=CHUNK travel as one Data frame, CHUNK+1 as two frames, 3·CHUNK
        // as three: fragmentation adds no frame a plain send would not need.
        assert_eq!(a.in_flight(), 4 + 2 + 3);
        let got = exchange(&mut a, &mut b);
        assert_eq!(got, lens.map(message), "byte-identical, in order, exactly once");
    }

    #[test]
    fn resume_between_two_fragments_delivers_exactly_once() {
        let (mut a, mut b) = (link(), link());
        let (pa, pb) = pipes(1); // the wire dies after the first fragment
        a.resume(Box::new(pa), 0);
        b.resume(Box::new(pb), 0);
        a.push(&message(3 * CHUNK));
        assert!(!a.is_up(), "a failed write drops the connection");
        assert_eq!(a.in_flight(), 3, "every fragment is retained regardless");
        assert!(b.poll(Duration::ZERO).unwrap().messages.is_empty());
        assert_eq!(b.recv_next(), 1, "one Part landed before the cut");
        // New connection; each side replays from what the other has seen.
        let (pa, pb) = pipes(usize::MAX);
        assert_eq!(a.replay_gap(b.recv_next()), None);
        let replayed = a.resume(Box::new(pa), b.recv_next());
        assert_eq!(replayed, 2 * (CHUNK + crate::frame::HEADER_LEN) as u64);
        b.resume(Box::new(pb), a.recv_next());
        assert_eq!(exchange(&mut a, &mut b), vec![message(3 * CHUNK)]);
    }

    #[test]
    fn endless_part_stream_is_cut_off_at_the_cap() {
        let mut b = link();
        let (mut hostile, pb) = pipes(usize::MAX);
        b.resume(Box::new(pb), 0);
        let part = vec![0u8; 1 << 20];
        for offset in 0.. {
            hostile.send(&Frame::new(FrameKind::Part, offset, part.clone())).unwrap();
            match b.poll(Duration::ZERO) {
                Ok(polled) => assert!(polled.messages.is_empty()),
                Err(e) => {
                    let len = (MAX_MESSAGE + part.len()) as u32;
                    assert_eq!(e, FrameError::Oversized { len, max: MAX_MESSAGE });
                    break;
                }
            }
            assert!(b.partial.len() <= MAX_MESSAGE, "buffer grew past the cap");
        }
        assert!(!b.is_up(), "the offending connection is dropped");
        assert!(b.partial.is_empty());
    }

    #[test]
    fn failed_write_inside_retransmit_leaves_the_link_down() {
        let mut a = link();
        let (pa, _pb) = pipes(2);
        a.resume(Box::new(pa), 0);
        a.push(&message(2 * CHUNK)); // both writes succeed, neither is acked
        assert!(a.is_up());
        let (frames, _) = a.retransmit_due(Instant::now() + Duration::from_secs(3600));
        assert_eq!(frames, 0, "the first rewrite already fails");
        assert!(!a.is_up(), "a retransmit that cannot write must not carry on");
        assert_eq!(a.in_flight(), 2, "nothing is lost: the resume replays it");
    }

    #[test]
    fn in_order_delivery_and_acks() {
        let mut tx = SendLink::new(8);
        let mut rx = RecvLink::new();
        for i in 0..5u8 {
            let f = data(&mut tx, i);
            let (ready, dup) = rx.accept(f);
            assert!(!dup);
            assert_eq!(ready.len(), 1);
            assert_eq!(ready[0].payload, vec![i]);
        }
        assert_eq!(rx.cumulative_ack(), 5);
        assert!(tx.on_ack(rx.cumulative_ack()));
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.unacked().count(), 0);
    }

    #[test]
    fn reordered_frames_deliver_in_offset_order() {
        let mut tx = SendLink::new(8);
        let f0 = data(&mut tx, 0);
        let f1 = data(&mut tx, 1);
        let f2 = data(&mut tx, 2);
        let mut rx = RecvLink::new();
        assert_eq!(rx.accept(f2).0.len(), 0);
        assert_eq!(rx.accept(f0).0.len(), 1);
        let (ready, _) = rx.accept(f1);
        assert_eq!(
            ready.iter().map(|f| f.offset).collect::<Vec<_>>(),
            vec![1, 2],
            "parked frame must flush once the gap fills"
        );
        assert_eq!(rx.cumulative_ack(), 3);
    }

    #[test]
    fn duplicates_are_swallowed_exactly_once_semantics() {
        let mut tx = SendLink::new(8);
        let f0 = data(&mut tx, 0);
        let mut rx = RecvLink::new();
        assert_eq!(rx.accept(f0.clone()), (vec![f0.clone()], false));
        // Redelivery of an already-delivered frame: no output, flagged dup.
        assert_eq!(rx.accept(f0.clone()), (Vec::new(), true));
        // Duplicate of a parked (not yet deliverable) frame likewise.
        let _f1 = data(&mut tx, 1);
        let f2 = data(&mut tx, 2);
        assert_eq!(rx.accept(f2.clone()), (Vec::new(), false));
        assert_eq!(rx.accept(f2), (Vec::new(), true));
        assert_eq!(rx.cumulative_ack(), 1);
    }

    #[test]
    fn replay_resumes_from_requested_offset() {
        let mut tx = SendLink::new(8);
        for i in 0..6u8 {
            data(&mut tx, i);
        }
        tx.on_ack(2);
        let replay = tx.replay_from(4).unwrap();
        assert_eq!(replay.iter().map(|f| f.offset).collect::<Vec<_>>(), vec![4, 5]);
        // Peer fully caught up: nothing to replay.
        assert_eq!(tx.replay_from(6).unwrap(), Vec::new());
    }

    #[test]
    fn bounded_history_reports_gap() {
        let mut tx = SendLink::new(3);
        for i in 0..10u8 {
            data(&mut tx, i);
        }
        // Only offsets 7, 8, 9 retained.
        assert_eq!(tx.replay_from(7).unwrap().len(), 3);
        assert_eq!(tx.replay_from(5), Err(ReplayGap { requested: 5, oldest: 7 }));
    }

    #[test]
    fn stale_ack_does_not_regress() {
        let mut tx = SendLink::new(8);
        for i in 0..4u8 {
            data(&mut tx, i);
        }
        assert!(tx.on_ack(3));
        assert!(!tx.on_ack(1), "stale cumulative ack must be ignored");
        assert_eq!(tx.acked(), 3);
        assert_eq!(tx.in_flight(), 1);
    }
}

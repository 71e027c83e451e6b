//! The fleet server: a [`CohortTrainer`] that farms training out to
//! worker processes over the wire protocol.
//!
//! The engine's event loop never knows it is networked — it calls
//! [`CohortTrainer::train_cohort`] with a cohort and gets outcomes back.
//! Inside, the server pushes the round's global model to each worker that
//! needs it and one `Assign` per job, each down that worker's `Link`
//! (which fragments, acks, retransmits and replays — none of that lives
//! here), then pumps events until the cohort is served. Every adopted
//! connection gets one reader thread that decodes its frames into the
//! server's single event queue, so the pump sleeps on that queue and an
//! arriving frame wakes it at once; unprompted it wakes only for the
//! earliest RTO or idle deadline, or after one accept tick to admit
//! (re)connections. Frames, acks, outcomes and hang-ups are all handled
//! on the pump's thread; readers only read. A worker that owes work and
//! has been silent past the idle timeout
//! — counted from the moment it was handed work while owing none — is
//! **quarantined**: its unserved jobs move to the remaining live workers,
//! or come back as `None` slots for the engine's local-pool fallback, so
//! a dead process degrades wall-clock, never correctness.

use crate::frame::{Frame, FrameKind, PROTOCOL_VERSION};
use crate::link::Link;
use crate::msg::{self, Msg};
use crate::transport::{Endpoint, NetListener, StreamTransport, Transport};
use crate::NetError;
use seafl_core::{
    build_codec, CodecTransferStats, CohortTrainer, ExperimentConfig, ModelRing, NetIncident,
    RemoteJob, TrainOutcome, TransportConfig, UpdateCodec,
};
use seafl_sim::rng::SimRngState;
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-side loss injection uses link ids offset by this, keeping them
/// disjoint from the client-side links (which use the worker's `--link`).
pub(crate) const SERVER_LINK_BASE: u64 = 1_000;

/// The longest the pump waits without looking at the listener: accepting
/// stays a non-blocking poll, so a (re)connecting worker waits at most
/// this long for its handshake.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Wire-level counters measured by the server (ground truth the run
/// report prefers over the engine's modeled traffic).
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Bytes handed to transports, retransmits and handshakes included.
    pub bytes_sent: u64,
    /// Bytes received as decoded frames (header + payload).
    pub bytes_received: u64,
    /// Frames re-sent by the go-back-N RTO path.
    pub retransmits: u64,
    /// Successful resume handshakes.
    pub reconnects: u64,
    /// Workers quarantined by the idle timeout.
    pub workers_quarantined: u64,
}

/// What a connection's reader thread posts to the pump.
enum Event {
    /// One frame read off connection `conn` of worker `worker`.
    Frame { worker: u64, conn: u64, frame: Frame },
    /// The connection ended — EOF, a read error or a corrupt frame — and
    /// its reader has exited.
    Closed { worker: u64, conn: u64, error: NetError },
}

/// Decode `t`'s frames into the pump's queue until the connection ends.
fn read_frames(mut t: StreamTransport, worker: u64, conn: u64, events: Sender<Event>) {
    loop {
        let (event, last) = match t.recv_blocking() {
            Ok(frame) => (Event::Frame { worker, conn, frame }, false),
            Err(error) => (Event::Closed { worker, conn, error }, true),
        };
        if events.send(event).is_err() || last {
            return;
        }
    }
}

/// An adopted connection: its number, a handle to shut it down with, and
/// the thread reading it.
struct Conn {
    id: u64,
    socket: StreamTransport,
    reader: JoinHandle<()>,
}

impl Conn {
    /// Shut the socket down — the peer reads EOF and the reader's blocking
    /// read returns — then join the reader.
    fn close(self) {
        self.socket.shutdown();
        if self.reader.join().is_err() {
            eprintln!("seafl-server: reader of connection {} panicked", self.id);
        }
    }
}

struct Worker {
    id: u64,
    /// Down while disconnected (may resume) and for good after quarantine.
    link: Link,
    /// The connection the link writes to and whose reader feeds the pump;
    /// `None` once the link is down.
    conn: Option<Conn>,
    /// Last frame heard, or the later moment it was handed work while
    /// owing none: the start of the silence the idle timeout measures.
    last_heard: Instant,
    /// Highest model generation already shipped to this worker.
    has_generation: u64,
    quarantined: bool,
}

impl Worker {
    /// Write `Welcome` on the raw stream, then adopt it as this worker's
    /// connection number `conn` — its write half attached to the link,
    /// replaying from `peer_next`, its read half to a reader thread
    /// posting into `events` — in place of any connection it had. Returns
    /// the bytes written, or `None` if the connection could not be set up
    /// (nothing changed).
    fn welcome(
        &mut self,
        t: StreamTransport,
        peer_next: u64,
        knobs: &TransportConfig,
        seed: u64,
        conn: u64,
        events: &Sender<Event>,
    ) -> Option<u64> {
        let mut writer = t.try_clone().ok()?;
        let socket = t.try_clone().ok()?;
        let (worker, events) = (self.id, events.clone());
        let reader = std::thread::Builder::new()
            .name(format!("seafl-server-conn-{conn}"))
            .spawn(move || read_frames(t, worker, conn, events))
            .ok()?;
        let conn = Conn { id: conn, socket, reader };
        let msg = Msg::Welcome { worker: self.id, resume_from: self.link.recv_next() };
        let frame = Frame::new(FrameKind::Welcome, 0, msg.encode());
        if writer.send(&frame).is_err() {
            conn.close();
            return None;
        }
        self.hang_up();
        self.conn = Some(conn);
        self.last_heard = Instant::now();
        let replayed =
            self.link.attach(writer, knobs.loss, seed, SERVER_LINK_BASE + self.id, peer_next);
        Some(frame.wire_len() as u64 + replayed)
    }

    /// Whether `conn` is the connection this worker is up on. Anything
    /// else is history: what it carried, the peer replays on the current
    /// one, so its frames and its end are ignored.
    fn is_current(&self, conn: u64) -> bool {
        self.link.is_up() && self.conn.as_ref().is_some_and(|c| c.id == conn)
    }

    /// Detach the link and close its connection.
    fn hang_up(&mut self) {
        self.link.detach();
        if let Some(conn) = self.conn.take() {
            conn.close();
        }
    }
}

/// Whether worker `id` holds a job it has not answered.
fn owes(id: u64, assigned_to: &[Option<u64>], results: &[Slot]) -> bool {
    assigned_to.iter().zip(results).any(|(a, r)| *a == Some(id) && r.is_none())
}

/// The networked cohort trainer (see module docs).
pub struct NetServer {
    listener: NetListener,
    knobs: TransportConfig,
    config_hash: u64,
    seed: u64,
    workers: Vec<Worker>,
    stats: Arc<Mutex<NetStats>>,
    incidents: Vec<NetIncident>,
    generation: u64,
    /// Wire codec, armed when [`seafl_core::CodecConfig::wire_active`]
    /// holds for the experiment's codec config. `None` sends raw outcome
    /// blobs (identity, or error-feedback configs whose residual state
    /// lives server-side at the engine seam).
    codec: Option<Box<dyn UpdateCodec>>,
    /// Recent global models by generation: the decode reference for coded
    /// uploads echoing that generation. Bounded; in practice depth 1,
    /// since `train_cohort` is synchronous and stale uploads are dropped.
    ring: ModelRing,
    /// Per-cohort codec provenance and byte tallies for the engine seam.
    codec_stats: CodecTransferStats,
    /// The one queue every reader thread posts into. Unbounded on
    /// purpose: the pump may be blocked in a model write to a worker that
    /// is itself blocked writing an outcome, and only a reader that never
    /// stalls on a full queue keeps draining that worker's socket.
    events: Receiver<Event>,
    events_tx: Sender<Event>,
    /// Connections adopted so far: the next one's number.
    conns: u64,
}

type Slot = Option<(TrainOutcome, SimRngState)>;

impl NetServer {
    /// Bind `ep` and prepare to serve the experiment `cfg` describes.
    /// `stats` is shared so the caller keeps visibility after the server
    /// is boxed into the engine.
    pub fn bind(
        ep: &Endpoint,
        cfg: &ExperimentConfig,
        stats: Arc<Mutex<NetStats>>,
    ) -> Result<NetServer, NetError> {
        let listener = NetListener::bind(ep)?;
        let (events_tx, events) = mpsc::channel();
        Ok(NetServer {
            listener,
            knobs: cfg.transport.clone(),
            config_hash: cfg.state_hash(),
            seed: cfg.seed,
            workers: Vec::new(),
            stats,
            incidents: Vec::new(),
            generation: 0,
            codec: cfg.codec.wire_active().then(|| build_codec(&cfg.codec)),
            ring: ModelRing::new(4),
            codec_stats: CodecTransferStats::default(),
            events,
            events_tx,
            conns: 0,
        })
    }

    /// The endpoint actually bound (resolves TCP port 0).
    pub fn local_endpoint(&self) -> &Endpoint {
        self.listener.local_endpoint()
    }

    /// Block until `n` workers have completed the handshake.
    pub fn wait_for_workers(&mut self, n: usize, timeout: Duration) -> Result<(), NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            self.poll_accept();
            if self.workers.len() >= n {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(NetError::RetriesExhausted {
                    context: format!(
                        "waiting for {n} workers on {} (have {})",
                        self.local_endpoint(),
                        self.workers.len()
                    ),
                    attempts: 0,
                });
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn note_sent(&self, bytes: u64) {
        self.stats.lock().unwrap().bytes_sent += bytes;
    }

    /// Accept pending connections and run their handshakes. Connections
    /// that misbehave are dropped; the client retries.
    fn poll_accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok(Some(t)) => self.handshake(t),
                Ok(None) => return,
                Err(e) => {
                    eprintln!("seafl-server: accept failed: {e}");
                    return;
                }
            }
        }
    }

    fn reject(&self, mut t: StreamTransport, reason: &str) {
        let frame =
            Frame::new(FrameKind::Reject, 0, Msg::Reject { reason: reason.into() }.encode());
        self.note_sent(frame.wire_len() as u64);
        let _ = t.send(&frame);
    }

    fn handshake(&mut self, mut t: StreamTransport) {
        let frame = match t.recv(Duration::from_secs(2)) {
            Ok(Some(f)) if f.kind == FrameKind::Hello => f,
            _ => return,
        };
        let Ok(Msg::Hello { protocol, config_hash, worker, recv_next }) =
            Msg::decode(&frame.payload)
        else {
            return;
        };
        self.stats.lock().unwrap().bytes_received += frame.wire_len() as u64;
        if protocol != PROTOCOL_VERSION {
            self.reject(
                t,
                &format!(
                    "protocol version mismatch (server {PROTOCOL_VERSION}, client {protocol})"
                ),
            );
            return;
        }
        if config_hash != self.config_hash {
            self.reject(t, "config hash mismatch: peers built different experiments");
            return;
        }
        if worker == 0 {
            self.admit_new(t);
        } else {
            self.resume(t, worker, recv_next);
        }
    }

    fn admit_new(&mut self, t: StreamTransport) {
        let mut w = Worker {
            id: self.workers.len() as u64 + 1,
            link: Link::new(&self.knobs),
            conn: None,
            last_heard: Instant::now(),
            has_generation: 0,
            quarantined: false,
        };
        self.conns += 1;
        if let Some(sent) = w.welcome(t, 0, &self.knobs, self.seed, self.conns, &self.events_tx) {
            self.note_sent(sent);
            self.workers.push(w);
        }
    }

    fn resume(&mut self, t: StreamTransport, worker: u64, recv_next: u64) {
        let Some(widx) = self.workers.iter().position(|w| w.id == worker) else {
            self.reject(t, &format!("unknown worker token {worker}"));
            return;
        };
        if self.workers[widx].quarantined {
            self.reject(t, "worker was quarantined; rejoin as a fresh worker");
            return;
        }
        if let Some(gap) = self.workers[widx].link.replay_gap(recv_next) {
            self.reject(
                t,
                &format!(
                    "resume gap: wanted offset {}, replay history starts at {}",
                    gap.requested, gap.oldest
                ),
            );
            return;
        }
        self.conns += 1;
        let (conn, events) = (self.conns, &self.events_tx);
        let Some(sent) =
            self.workers[widx].welcome(t, recv_next, &self.knobs, self.seed, conn, events)
        else {
            return;
        };
        self.note_sent(sent);
        self.stats.lock().unwrap().reconnects += 1;
        self.incidents.push(NetIncident::Reconnect { worker: worker as usize });
    }

    /// Indices of the workers that can be handed work right now.
    fn live(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&i| !self.workers[i].quarantined && self.workers[i].link.is_up())
            .collect()
    }

    /// Push the encoded `model` message for `gen` (if this worker does not
    /// have it yet) and one `Assign` for `job`. `owes` says whether the
    /// worker already holds an unanswered job: if not, its silence starts
    /// counting now — it had every right to be quiet until this moment.
    fn dispatch_job(&mut self, widx: usize, gen: u64, job: &RemoteJob, model: &[u8], owes: bool) {
        let w = &mut self.workers[widx];
        if !owes {
            w.last_heard = Instant::now();
        }
        let mut sent = 0;
        if w.has_generation < gen {
            w.has_generation = gen;
            sent += w.link.push(model);
        }
        let assign = Msg::Assign {
            generation: gen,
            client_id: job.client_id as u64,
            epochs: job.epochs as u32,
            keep_snapshots: job.keep_snapshots,
            rng: job.rng,
        };
        sent += w.link.push(&assign.encode());
        self.note_sent(sent);
    }

    /// When the pump must wake even if no frame arrives: the earliest RTO
    /// deadline of a live link or idle deadline of a worker `owing` work,
    /// and at the latest one accept tick from now.
    fn wake_at(&self, owing: impl Fn(u64) -> bool) -> Instant {
        let idle = Duration::from_secs_f64(self.knobs.idle_timeout);
        let mut at = Instant::now() + ACCEPT_TICK;
        for w in self.workers.iter().filter(|w| !w.quarantined) {
            if let Some(rto) = w.link.rto_deadline().filter(|_| w.link.is_up()) {
                at = at.min(rto);
            }
            if let Some(silent) = w.last_heard.checked_add(idle).filter(|_| owing(w.id)) {
                at = at.min(silent);
            }
        }
        at
    }

    /// Wait until the first event or `until`, then handle that event and
    /// every one queued behind it, decoding the outcomes links hand up
    /// into `results`.
    fn pump(&mut self, until: Instant, results: &mut [Slot], index_of: &HashMap<u64, usize>) {
        let wait = until.saturating_duration_since(Instant::now());
        let mut next = self.events.recv_timeout(wait).ok();
        while let Some(event) = next {
            self.on_event(event, results, index_of);
            next = self.events.try_recv().ok();
        }
    }

    fn on_event(&mut self, event: Event, results: &mut [Slot], index_of: &HashMap<u64, usize>) {
        let (Event::Frame { worker, conn, .. } | Event::Closed { worker, conn, .. }) = event;
        let Some(w) = self.workers.iter_mut().find(|w| w.id == worker && w.is_current(conn)) else {
            return;
        };
        let frame = match event {
            Event::Frame { frame, .. } => frame,
            Event::Closed { error, .. } => {
                // A peer closing is how every run ends; a fault earns a line.
                if !matches!(error, NetError::Disconnected { .. }) {
                    eprintln!("seafl-net: {error}");
                }
                w.link.detach();
                return;
            }
        };
        let polled = match w.link.on_frame(frame) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("seafl-server: worker {worker}: {e}; connection dropped");
                return;
            }
        };
        w.last_heard = Instant::now();
        {
            let mut s = self.stats.lock().unwrap();
            s.bytes_received += polled.received;
            s.bytes_sent += polled.sent;
        }
        for payload in polled.messages {
            match Msg::decode(&payload) {
                Ok(Msg::Outcome { generation, client_id, blob }) => {
                    self.on_outcome(generation, client_id, &blob, results, index_of);
                }
                Ok(other) => eprintln!("seafl-server: unexpected {other:?} from worker {worker}"),
                Err(e) => eprintln!("seafl-server: undecodable message from worker {worker}: {e}"),
            }
        }
    }

    /// Close the connection of every worker whose link went down — a
    /// failed write, a closed or cut-off peer, a quarantine — so the peer
    /// reads EOF (and may resume) and the reader exits.
    fn hang_up_dropped(&mut self) {
        for w in self.workers.iter_mut().filter(|w| !w.link.is_up()) {
            w.hang_up();
        }
    }

    fn on_outcome(
        &mut self,
        generation: u64,
        client_id: u64,
        blob: &[u8],
        results: &mut [Slot],
        index_of: &HashMap<u64, usize>,
    ) {
        if generation != self.generation {
            return; // stale round
        }
        let Some(&slot) = index_of.get(&client_id) else { return };
        if results[slot].is_some() {
            return; // already served (reassignment race) — ignore
        }
        if let Some(codec) = self.codec.as_deref() {
            // The decode against the generation's model IS the codec's
            // lossy projection — this slot must not be re-projected at
            // the engine seam (exactly-once application).
            let Some(reference) = self.ring.get(generation) else {
                eprintln!("seafl-server: no model for generation {generation}, dropping outcome");
                return;
            };
            match msg::decode_outcome_coded(blob, codec, reference) {
                Ok((outcome, rng, raw, encoded)) => {
                    results[slot] = Some((outcome, rng));
                    if let Some(c) = self.codec_stats.coded.get_mut(slot) {
                        *c = true;
                    }
                    self.codec_stats.bytes_raw += raw;
                    self.codec_stats.bytes_encoded += encoded;
                }
                Err(e) => eprintln!(
                    "seafl-server: coded outcome for client {client_id} failed to decode: {e}"
                ),
            }
            return;
        }
        match msg::decode_outcome(blob) {
            Ok((outcome, rng)) => results[slot] = Some((outcome, rng)),
            Err(e) => {
                eprintln!("seafl-server: outcome for client {client_id} failed to decode: {e}")
            }
        }
    }

    /// Let every link whose RTO expired resend its unacked frames.
    fn service_retransmits(&mut self) {
        let now = Instant::now();
        for w in &mut self.workers {
            let (frames, bytes) = w.link.retransmit_due(now);
            if frames > 0 {
                let mut s = self.stats.lock().unwrap();
                s.bytes_sent += bytes;
                s.retransmits += frames;
            }
        }
    }

    /// Quarantine workers that owe a job and have been silent past the idle
    /// timeout, moving their jobs to live workers (or to `None`, i.e. the
    /// engine's local fallback) and recording the incident.
    fn service_timeouts(
        &mut self,
        gen: u64,
        jobs: &[RemoteJob],
        model: &[u8],
        assigned_to: &mut [Option<u64>],
        results: &[Slot],
    ) {
        let idle = Duration::from_secs_f64(self.knobs.idle_timeout);
        loop {
            let victim = self.workers.iter().position(|w| {
                !w.quarantined && w.last_heard.elapsed() > idle && owes(w.id, assigned_to, results)
            });
            let Some(widx) = victim else { return };
            let id = self.workers[widx].id;
            self.workers[widx].quarantined = true;
            self.workers[widx].hang_up();
            self.stats.lock().unwrap().workers_quarantined += 1;
            self.incidents.push(NetIncident::Quarantine { worker: id as usize });
            eprintln!(
                "seafl-server: worker {id} idle past {:.1}s, quarantined",
                self.knobs.idle_timeout
            );
            let live = self.live();
            let mut rr = 0usize;
            for (i, job) in jobs.iter().enumerate() {
                if assigned_to[i] != Some(id) || results[i].is_some() {
                    continue;
                }
                if live.is_empty() {
                    assigned_to[i] = None; // engine's local pool takes it
                    continue;
                }
                let target = live[rr % live.len()];
                rr += 1;
                let target_id = self.workers[target].id;
                self.dispatch_job(target, gen, job, model, owes(target_id, assigned_to, results));
                assigned_to[i] = Some(target_id);
            }
        }
    }
}

impl CohortTrainer for NetServer {
    fn train_cohort(&mut self, global: &[f32], jobs: &[RemoteJob]) -> Vec<Slot> {
        self.generation += 1;
        let gen = self.generation;
        let mut results: Vec<Slot> = jobs.iter().map(|_| None).collect();
        self.codec_stats =
            CodecTransferStats { coded: vec![false; jobs.len()], bytes_raw: 0, bytes_encoded: 0 };
        if jobs.is_empty() {
            return results;
        }
        if self.codec.is_some() {
            self.ring.push(gen, global.to_vec());
        }
        self.poll_accept();
        let index_of: HashMap<u64, usize> =
            jobs.iter().enumerate().map(|(i, j)| (j.client_id as u64, i)).collect();
        let live = self.live();
        if live.is_empty() {
            return results; // nobody to serve: the engine trains locally
        }
        let model = msg::encode_model(gen, global);
        let mut assigned_to: Vec<Option<u64>> = vec![None; jobs.len()];
        for (i, job) in jobs.iter().enumerate() {
            let widx = live[i % live.len()];
            let id = self.workers[widx].id;
            self.dispatch_job(widx, gen, job, &model, owes(id, &assigned_to, &results));
            assigned_to[i] = Some(id);
        }
        loop {
            if results.iter().all(|r| r.is_some()) {
                return results;
            }
            // A job whose assignment fell back to None will never be
            // served remotely; once that holds for every unserved job,
            // hand the round back to the engine.
            if results.iter().zip(&assigned_to).all(|(r, a)| r.is_some() || a.is_none()) {
                return results;
            }
            self.poll_accept();
            let until = self.wake_at(|id| owes(id, &assigned_to, &results));
            self.pump(until, &mut results, &index_of);
            self.service_retransmits();
            self.service_timeouts(gen, jobs, &model, &mut assigned_to, &results);
            self.hang_up_dropped();
        }
    }

    fn drain_incidents(&mut self) -> Vec<NetIncident> {
        std::mem::take(&mut self.incidents)
    }

    fn drain_codec_stats(&mut self) -> CodecTransferStats {
        std::mem::take(&mut self.codec_stats)
    }

    fn shutdown(&mut self) {
        let done = Msg::Done.encode();
        for widx in self.live() {
            let sent = self.workers[widx].link.push(&done);
            self.note_sent(sent);
        }
        // Short grace pump so Done frames flush, retransmit if needed,
        // and get acked before the sockets drop.
        let deadline = Instant::now() + Duration::from_millis(800);
        let no_results: HashMap<u64, usize> = HashMap::new();
        while Instant::now() < deadline {
            if self.workers.iter().all(|w| !w.link.is_up() || w.link.in_flight() == 0) {
                break;
            }
            let until = self.wake_at(|_| false).min(deadline);
            self.pump(until, &mut [], &no_results);
            self.service_retransmits();
            self.hang_up_dropped();
        }
    }
}

impl Drop for NetServer {
    /// Close every connection so its reader exits, and join the readers.
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.hang_up();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(cfg: &ExperimentConfig) -> NetServer {
        let ep = Endpoint::parse("tcp://127.0.0.1:0").unwrap();
        NetServer::bind(&ep, cfg, Default::default()).unwrap()
    }

    /// A raw peer's handshake: send `Hello` for `worker` (0: a new one)
    /// and return the kind and message of the server's answer, accepting
    /// until it comes.
    fn hello(
        server: &mut NetServer,
        t: &mut StreamTransport,
        worker: u64,
        protocol: u32,
    ) -> (FrameKind, Msg) {
        let hello = Msg::Hello { protocol, config_hash: server.config_hash, worker, recv_next: 0 };
        t.send(&Frame::new(FrameKind::Hello, 0, hello.encode())).unwrap();
        loop {
            server.poll_accept(); // non-blocking: the connection may not be queued yet
            if let Some(f) = t.recv(Duration::from_millis(50)).unwrap() {
                return (f.kind, Msg::decode(&f.payload).unwrap());
            }
        }
    }

    /// [`hello`] for a peer the server must welcome; returns its worker id.
    fn welcomed(server: &mut NetServer, t: &mut StreamTransport, worker: u64) -> u64 {
        let (kind, msg) = hello(server, t, worker, PROTOCOL_VERSION);
        assert_eq!(kind, FrameKind::Welcome);
        let Msg::Welcome { worker, .. } = msg else { panic!("a Welcome frame carries {msg:?}") };
        worker
    }

    fn connect(server: &NetServer) -> StreamTransport {
        StreamTransport::connect(server.local_endpoint()).unwrap()
    }

    /// Read until the connection ends; `true` if it ended in a clean EOF.
    fn reads_eof(t: &mut StreamTransport) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match t.recv(Duration::from_millis(50)) {
                Ok(_) => {}
                Err(e) => return matches!(e, NetError::Disconnected { .. }),
            }
        }
        false
    }

    #[test]
    fn v1_hello_is_refused_with_the_version_reason() {
        let cfg = crate::preset::loopback_config(1, "seafl").unwrap();
        let mut server = server(&cfg);
        let mut t = connect(&server);
        let (kind, msg) = hello(&mut server, &mut t, 0, 1);
        assert_eq!(kind, FrameKind::Reject);
        let Msg::Reject { reason } = msg else {
            panic!("a v1 Hello must be answered with a Reject");
        };
        assert!(reason.contains("protocol version mismatch (server 3, client 1)"), "{reason}");
        assert!(server.workers.is_empty(), "a refused peer is not a worker");
    }

    #[test]
    fn a_stale_connection_cannot_hurt_the_live_one() {
        let cfg = crate::preset::loopback_config(1, "seafl").unwrap();
        let mut server = server(&cfg);
        let mut first = connect(&server);
        let worker = welcomed(&mut server, &mut first, 0);
        let mut second = connect(&server);
        let welcome = hello(&mut server, &mut second, worker, PROTOCOL_VERSION);
        assert_eq!(welcome, (FrameKind::Welcome, Msg::Welcome { worker, resume_from: 0 }));
        drop(first);

        // The first connection's end is queued by now (resuming joined its
        // reader); the pump must not let it take the second one down.
        let outcome = TrainOutcome { snapshots: vec![vec![0.5; 3]], epoch_losses: vec![0.1] };
        let rng = ([3u8; 32], 1, 2);
        let message = msg::encode_outcome_msg(0, 7, &outcome, rng, None);
        second.send(&Frame::new(FrameKind::Data, 0, message)).unwrap();
        let index_of = HashMap::from([(7u64, 0usize)]);
        let mut results: Vec<Slot> = vec![None];
        let deadline = Instant::now() + Duration::from_secs(5);
        while results[0].is_none() && Instant::now() < deadline {
            server.pump(Instant::now() + ACCEPT_TICK, &mut results, &index_of);
            server.hang_up_dropped();
        }
        assert!(server.workers[0].link.is_up(), "the live link survived the stale close");
        assert_eq!(results[0], Some((outcome, rng)), "and still delivers outcomes");
        let ack = second.recv(Duration::from_secs(1)).unwrap().expect("the outcome is acked");
        assert_eq!((ack.kind, ack.offset), (FrameKind::Ack, 1));
    }

    #[test]
    fn dropping_the_server_ends_every_connection_and_reader() {
        let cfg = crate::preset::loopback_config(1, "seafl").unwrap();
        let mut server = server(&cfg);
        let mut peers = Vec::new();
        for _ in 0..2 {
            let mut peer = connect(&server);
            welcomed(&mut server, &mut peer, 0);
            peers.push(peer);
        }
        assert_eq!(server.workers.len(), 2);
        let t = Instant::now();
        drop(server);
        assert!(t.elapsed() < Duration::from_secs(1), "drop took {:?}", t.elapsed());
        for peer in &mut peers {
            assert!(reads_eof(peer), "a peer of a dropped server reads EOF");
        }
    }

    #[test]
    fn a_quarantined_workers_peer_reads_eof() {
        let mut cfg = crate::preset::loopback_config(1, "seafl").unwrap();
        cfg.transport.idle_timeout = 0.05;
        let mut server = server(&cfg);
        let mut peer = connect(&server);
        welcomed(&mut server, &mut peer, 0);
        let job =
            RemoteJob { client_id: 0, epochs: 1, keep_snapshots: false, rng: ([0; 32], 0, 0) };
        // The peer never answers: its job falls back to the engine's pool.
        assert_eq!(server.train_cohort(&[0.0; 4], &[job]), vec![None]);
        assert!(server.workers[0].quarantined);
        assert!(reads_eof(&mut peer), "a quarantined worker's peer reads EOF");
    }
}

//! The fleet server: a [`CohortTrainer`] that farms training out to
//! worker processes over the wire protocol.
//!
//! The engine's event loop never knows it is networked — it calls
//! [`CohortTrainer::train_cohort`] with a cohort and gets outcomes back.
//! Inside, the server pushes the round's global model to each worker that
//! needs it and one `Assign` per job, each down that worker's [`Link`]
//! (which fragments, acks, retransmits and replays — none of that lives
//! here), and pumps a single-threaded poll loop: accepting
//! (re)connections, polling every link, decoding the outcomes they hand
//! up. A worker that owes work and has been silent past the idle timeout
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
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server-side loss injection uses link ids offset by this, keeping them
/// disjoint from the client-side links (which use the worker's `--link`).
pub const SERVER_LINK_BASE: u64 = 1_000;

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

struct Worker {
    id: u64,
    /// Down while disconnected (may resume) and for good after quarantine.
    link: Link,
    /// Last frame heard, or the later moment it was handed work while
    /// owing none: the start of the silence the idle timeout measures.
    last_heard: Instant,
    /// Highest model generation already shipped to this worker.
    has_generation: u64,
    quarantined: bool,
}

impl Worker {
    /// Write `Welcome` on the raw stream, then adopt it as this worker's
    /// connection, replaying from `peer_next`. Returns the bytes written,
    /// or `None` if the Welcome itself could not be (nothing changed).
    fn welcome(
        &mut self,
        mut t: StreamTransport,
        peer_next: u64,
        knobs: &TransportConfig,
        seed: u64,
    ) -> Option<u64> {
        let msg = Msg::Welcome { worker: self.id, resume_from: self.link.recv_next() };
        let frame = Frame::new(FrameKind::Welcome, 0, msg.encode());
        t.send(&frame).ok()?;
        self.last_heard = Instant::now();
        let replayed = self.link.attach(t, knobs.loss, seed, SERVER_LINK_BASE + self.id, peer_next);
        Some(frame.wire_len() as u64 + replayed)
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
            last_heard: Instant::now(),
            has_generation: 0,
            quarantined: false,
        };
        if let Some(sent) = w.welcome(t, 0, &self.knobs, self.seed) {
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
        let Some(sent) = self.workers[widx].welcome(t, recv_next, &self.knobs, self.seed) else {
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

    /// Drain worker `widx`'s link, decoding the outcomes it hands up into
    /// `results`.
    fn pump_worker(&mut self, widx: usize, results: &mut [Slot], index_of: &HashMap<u64, usize>) {
        loop {
            let w = &mut self.workers[widx];
            let polled = match w.link.poll(Duration::from_millis(1)) {
                Ok(p) if p.received > 0 => p,
                Ok(_) => return,
                Err(e) => {
                    eprintln!("seafl-server: worker {}: {e}; connection dropped", w.id);
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
                    Ok(other) => {
                        eprintln!(
                            "seafl-server: unexpected {other:?} from worker {}",
                            self.workers[widx].id
                        );
                    }
                    Err(e) => {
                        eprintln!(
                            "seafl-server: undecodable message from worker {}: {e}",
                            self.workers[widx].id
                        );
                    }
                }
            }
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
            self.workers[widx].link.detach();
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
        let model = Msg::Model { generation: gen, params: global.to_vec() }.encode();
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
            for widx in 0..self.workers.len() {
                self.pump_worker(widx, &mut results, &index_of);
            }
            self.service_retransmits();
            self.service_timeouts(gen, jobs, &model, &mut assigned_to, &results);
            std::thread::sleep(Duration::from_millis(2));
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
            for widx in 0..self.workers.len() {
                self.pump_worker(widx, &mut [], &no_results);
            }
            self.service_retransmits();
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_hello_is_refused_with_the_version_reason() {
        let cfg = crate::preset::loopback_config(1, "seafl");
        let ep = Endpoint::parse("tcp://127.0.0.1:0").unwrap();
        let mut server = NetServer::bind(&ep, &cfg, Default::default()).unwrap();
        let mut t = StreamTransport::connect(server.local_endpoint()).unwrap();
        let hello =
            Msg::Hello { protocol: 1, config_hash: cfg.state_hash(), worker: 0, recv_next: 0 };
        t.send(&Frame::new(FrameKind::Hello, 0, hello.encode())).unwrap();
        let frame = loop {
            server.poll_accept(); // non-blocking: the connection may not be queued yet
            if let Some(f) = t.recv(Duration::from_secs(1)).unwrap() {
                break f;
            }
        };
        assert_eq!(frame.kind, FrameKind::Reject);
        let Ok(Msg::Reject { reason }) = Msg::decode(&frame.payload) else {
            panic!("Reject frame must carry a Reject message");
        };
        assert!(reason.contains("protocol version mismatch (server 2, client 1)"), "{reason}");
        assert!(server.workers.is_empty(), "a refused peer is not a worker");
    }
}

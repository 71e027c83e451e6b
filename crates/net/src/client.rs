//! The worker client: connects, receives model + assignments, trains on
//! the local pool, uploads outcomes — and survives the wire failing under
//! it at any point.
//!
//! The client rebuilds the identical [`Environment`] from the same config
//! the server validated (the handshake's config-hash check proves it), so
//! an `Assign` only needs a client id, epoch count and the dispatched RNG
//! state to reproduce the exact training the server's local pool would
//! have run. Outcomes travel back bit-exactly; determinism is end-to-end.
//!
//! Loss handling: all application traffic rides one [`Link`], so a
//! dropped connection at *any* point — including between two fragments of
//! a model — is recovered by reconnecting with the same worker token and
//! replaying from the peer's acked offset. The loop is "reconnect if
//! down, retransmit if due, poll, handle"; messages pushed while the link
//! is down wait in its replay history, which is what makes "train, then
//! fail to upload, then reconnect" indistinguishable from a clean run to
//! the layers above.

use crate::frame::{Frame, FrameKind, PROTOCOL_VERSION};
use crate::link::{Link, ReplayGap};
use crate::msg::{self, Msg};
use crate::transport::{Endpoint, StreamTransport, Transport};
use crate::NetError;
use seafl_core::engine::setup::Environment;
use seafl_core::{build_codec, ExperimentConfig, TrainJob, UpdateCodec};
use seafl_sim::rng::{rng_from_state, rng_state};
use std::time::{Duration, Instant};

/// Connection attempts after the first before a client gives up.
const CONNECT_RETRIES: u32 = 10;
/// Delay before reconnect attempt `i ≥ 1`: `base · 2^(i−1)` seconds.
const CONNECT_BACKOFF_BASE: f64 = 0.1;
/// Upper bound on a single connect backoff delay, seconds.
const CONNECT_BACKOFF_CAP: f64 = 5.0;

/// One worker process's protocol state machine.
pub struct NetClient {
    cfg: ExperimentConfig,
    endpoint: Endpoint,
    /// This worker's loss-stream id (also its label in logs).
    loss_link: u64,
    env: Environment,
    link: Link,
    worker: u64,
    /// The one-shot injected disconnect has been spent (it must not
    /// re-arm on the replacement connection).
    disconnect_spent: bool,
    /// Test hook: exit silently upon receiving the Nth `Assign`, before
    /// replying — the "worker that never returns" the server must
    /// quarantine.
    die_after_assigns: Option<u64>,
    assigns_seen: u64,
    /// The last received global model.
    global: Vec<f32>,
    global_gen: u64,
    /// Wire codec, armed exactly when the server's is
    /// ([`seafl_core::CodecConfig::wire_active`] on the shared config —
    /// the config-hash handshake proves agreement). Outcomes are encoded
    /// against `global`, the same reference the server's model ring
    /// holds for `global_gen`.
    codec: Option<Box<dyn UpdateCodec>>,
}

impl NetClient {
    /// Build the worker: materializes the full experiment environment
    /// (data, partition, model) locally from `cfg`.
    ///
    /// `link` is this worker's loss-stream id (give each process its own);
    /// `die_after_assigns` is the quarantine-test hook.
    pub fn new(
        cfg: ExperimentConfig,
        link: u64,
        die_after_assigns: Option<u64>,
    ) -> Result<NetClient, NetError> {
        let endpoint = match &cfg.transport.connect {
            Some(ep) => Endpoint::parse(ep)?,
            None => {
                return Err(NetError::BadEndpoint {
                    endpoint: String::new(),
                    detail: "config has no transport.connect endpoint".into(),
                })
            }
        };
        let env = Environment::build(&cfg);
        let codec = cfg.codec.wire_active().then(|| build_codec(&cfg.codec));
        Ok(NetClient {
            endpoint,
            loss_link: link,
            env,
            link: Link::new(&cfg.transport),
            cfg,
            worker: 0,
            disconnect_spent: false,
            die_after_assigns,
            assigns_seen: 0,
            global: Vec::new(),
            global_gen: 0,
            codec,
        })
    }

    /// Serve assignments until the server says `Done` (or the
    /// die-after-assigns hook fires). Reconnects with resume whenever the
    /// link is down; only exhausted retries, a handshake rejection or a
    /// server message past the size cap give up.
    pub fn run(&mut self) -> Result<(), NetError> {
        loop {
            if !self.link.is_up() {
                self.connect_with_retry()?;
            }
            self.link.retransmit_due(Instant::now());
            let polled = self
                .link
                .poll(Duration::from_millis(20))
                .map_err(|source| NetError::Frame { peer: self.endpoint.to_string(), source })?;
            // Every message handed up MUST be handled even if the link
            // has died since: the receive side already advanced past it,
            // so the server will never replay it. What handling pushes
            // lands in the replay history and survives the reconnect.
            for payload in polled.messages {
                match Msg::decode(&payload) {
                    Ok(message) => {
                        if self.handle(message) {
                            return Ok(());
                        }
                    }
                    Err(e) => {
                        eprintln!("seafl-client[{}]: undecodable message: {e}", self.loss_link)
                    }
                }
            }
        }
    }

    /// Capped-exponential-backoff connect + handshake loop.
    fn connect_with_retry(&mut self) -> Result<(), NetError> {
        let mut last: Option<NetError> = None;
        for attempt in 0..=CONNECT_RETRIES {
            if attempt > 0 {
                let backoff =
                    (CONNECT_BACKOFF_BASE * 2f64.powi(attempt as i32 - 1)).min(CONNECT_BACKOFF_CAP);
                std::thread::sleep(Duration::from_secs_f64(backoff));
            }
            match self.try_connect() {
                Ok(()) => return Ok(()),
                // A rejection is a verdict, not a transient: stop retrying.
                Err(e @ NetError::Rejected { .. }) => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        match last {
            Some(e) => Err(e),
            None => Err(NetError::RetriesExhausted {
                context: format!("connect to {}", self.endpoint),
                attempts: CONNECT_RETRIES + 1,
            }),
        }
    }

    /// One connect + Hello/Welcome handshake, then the link takes the
    /// stream and replays our unacked frames from the server's offset.
    fn try_connect(&mut self) -> Result<(), NetError> {
        let mut t = StreamTransport::connect(&self.endpoint)?;
        let hello = Msg::Hello {
            protocol: PROTOCOL_VERSION,
            config_hash: self.cfg.state_hash(),
            worker: self.worker,
            recv_next: self.link.recv_next(),
        };
        t.send(&Frame::new(FrameKind::Hello, 0, hello.encode()))?;
        // One total deadline: a server that trickles its answer cannot
        // hold the client past it.
        let Some(frame) = t.recv_until(Instant::now() + Duration::from_secs(10))? else {
            return Err(NetError::Io {
                context: format!("handshake with {}", self.endpoint),
                source: std::io::Error::new(std::io::ErrorKind::TimedOut, "no Welcome within 10s"),
            });
        };
        let peer = t.peer().to_string();
        match (frame.kind, Msg::decode(&frame.payload)) {
            (FrameKind::Welcome, Ok(Msg::Welcome { worker, resume_from })) => {
                if let Some(ReplayGap { requested, oldest }) = self.link.replay_gap(resume_from) {
                    return Err(NetError::ResumeGap { peer, requested, oldest });
                }
                self.worker = worker;
                // The forced disconnect arms only on the first lossy
                // connection — a reconnect must not re-trip it, or the
                // run would never finish.
                let mut loss = self.cfg.transport.loss;
                if self.disconnect_spent {
                    loss.disconnect_after = None;
                }
                self.disconnect_spent |= loss.disconnect_after.is_some();
                self.link.attach(t, loss, self.cfg.seed, self.loss_link, resume_from);
                Ok(())
            }
            (FrameKind::Reject, Ok(Msg::Reject { reason })) => {
                Err(NetError::Rejected { peer, reason })
            }
            (kind, _) => Err(NetError::Malformed {
                peer,
                detail: format!("expected Welcome or Reject, got {kind:?}"),
            }),
        }
    }

    /// Process one delivered message; `true` means the run is over.
    fn handle(&mut self, message: Msg) -> bool {
        match message {
            Msg::Model { generation, params } => {
                self.global = params;
                self.global_gen = generation;
            }
            Msg::Assign { generation, client_id, epochs, keep_snapshots, rng } => {
                self.assigns_seen += 1;
                if self.die_after_assigns.is_some_and(|n| self.assigns_seen >= n) {
                    eprintln!(
                        "seafl-client[{}]: dying on assign #{} as instructed",
                        self.loss_link, self.assigns_seen
                    );
                    return true;
                }
                self.train_and_upload(generation, client_id, epochs, keep_snapshots, rng);
            }
            Msg::Done => return true,
            other => eprintln!("seafl-client[{}]: unexpected {other:?}", self.loss_link),
        }
        false
    }

    fn train_and_upload(
        &mut self,
        generation: u64,
        client_id: u64,
        epochs: u32,
        keep_snapshots: bool,
        rng: seafl_sim::rng::SimRngState,
    ) {
        if generation != self.global_gen {
            // Cannot happen on a healthy sequenced link (the model
            // precedes the assign); drop the job and let the server's
            // timeout logic reassign it.
            eprintln!(
                "seafl-client[{}]: assign for generation {generation} but model is {}, skipping",
                self.loss_link, self.global_gen
            );
            return;
        }
        let k = client_id as usize;
        if k >= self.env.shards.len() {
            eprintln!("seafl-client[{}]: assign for unknown client {k}, skipping", self.loss_link);
            return;
        }
        self.env.shards.make_missing(&[k], &self.env.pool);
        let job = TrainJob {
            client_id: k,
            data: self.env.shards.get(k),
            epochs: epochs as usize,
            rng: rng_from_state(rng),
            keep_snapshots,
        };
        let mut out = self.env.pool.train_cohort(&self.global, vec![job]);
        let (outcome, rng_after) = out.pop().expect("one job in, one outcome out");
        let codec = self.codec.as_deref().map(|c| (c, self.global.as_slice()));
        let message =
            msg::encode_outcome_msg(generation, client_id, &outcome, rng_state(&rng_after), codec);
        self.link.push(&message);
    }
}

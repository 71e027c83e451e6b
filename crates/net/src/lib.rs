//! # seafl-net
//!
//! A resumable wire protocol that runs the SEAFL fleet over real, lossy
//! transports (TCP or unix-domain sockets) while reproducing the
//! simulator's results **bit for bit**.
//!
//! The split: everything that decides the experiment — virtual clock,
//! admission, aggregation, evaluation — stays in the server process inside
//! the unchanged `seafl-core` event loop. Only the training *computation*
//! is remote: the server installs a [`server::NetServer`] as the engine's
//! [`seafl_core::CohortTrainer`], ships each cohort's global model and
//! per-client RNG state to worker processes, and folds the returned
//! outcomes back in exactly where the local thread pool's results would
//! have gone. Packet loss, reconnects and retransmits change wall-clock
//! time, never results; a worker that dies outright is quarantined and its
//! jobs fall back to the server's local pool, so the run still completes
//! with the exact simulated digests.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — length-prefixed, FNV-checksummed frames over a byte
//!   stream; hostile input (torn, corrupt, oversized) is detected, never
//!   trusted.
//! * [`link`] — the one sequenced endpoint both peers hold: offset-numbered
//!   frames, cumulative acks, RTO retransmit, a bounded replay history, a
//!   deduplicating receiver and message fragmentation — exactly-once
//!   in-order delivery of whole messages plus resume-after-reconnect.
//! * [`msg`] — the application messages (handshake, model, assignment,
//!   outcome), encoded with the checkpoint codec.
//! * [`transport`] — the [`transport::Transport`] seam: blocking
//!   frame-granular send/recv over TCP or UDS.
//! * [`lossy`] — deterministic, seeded fault injection (drop / duplicate /
//!   reorder / delay / forced disconnect) wrapping any transport.
//! * [`server`] / [`client`] — the two endpoints; `src/bin/` wraps them as
//!   the `seafl-server` and `seafl-client` binaries.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod link;
pub mod lossy;
pub mod msg;
pub mod preset;
pub mod server;
pub mod transport;

pub use client::NetClient;
pub use frame::{Frame, FrameDecoder, FrameError, FrameKind, PROTOCOL_VERSION};
pub use link::{Link, RecvLink, ReplayGap, SendLink, MAX_MESSAGE};
pub use lossy::LossyTransport;
pub use msg::Msg;
pub use server::{NetServer, NetStats};
pub use transport::{Endpoint, NetListener, StreamTransport, Transport};

/// Every failure carries the endpoint or peer it happened on — a refused
/// bind, a dead peer and a corrupt stream all read differently in logs.
#[derive(Debug)]
pub enum NetError {
    /// An I/O operation failed; `context` names the operation and endpoint.
    Io {
        /// What was being attempted, on which endpoint/peer.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The peer closed the connection.
    Disconnected {
        /// Peer whose stream ended.
        peer: String,
    },
    /// The peer's byte stream violated the frame format.
    Frame {
        /// Peer that produced the bad bytes.
        peer: String,
        /// The framing violation.
        source: FrameError,
    },
    /// A frame payload failed message decoding.
    Malformed {
        /// Peer that sent the payload.
        peer: String,
        /// Decoder's complaint.
        detail: String,
    },
    /// The peer refused our handshake.
    Rejected {
        /// Peer that refused.
        peer: String,
        /// Its stated reason.
        reason: String,
    },
    /// A resume asked for frames the bounded replay history has evicted.
    ResumeGap {
        /// Peer that asked.
        peer: String,
        /// Offset it wanted to resume from.
        requested: u64,
        /// Oldest offset still retained.
        oldest: u64,
    },
    /// An endpoint string did not parse.
    BadEndpoint {
        /// The offending string.
        endpoint: String,
        /// Why it was refused.
        detail: String,
    },
    /// Connect/reconnect gave up after the configured attempts.
    RetriesExhausted {
        /// What was being retried, against which endpoint.
        context: String,
        /// Attempts made.
        attempts: u32,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io { context, source } => write!(f, "net: {context}: {source}"),
            NetError::Disconnected { peer } => write!(f, "net: {peer}: connection closed by peer"),
            NetError::Frame { peer, source } => write!(f, "net: {peer}: {source}"),
            NetError::Malformed { peer, detail } => {
                write!(f, "net: {peer}: malformed message: {detail}")
            }
            NetError::Rejected { peer, reason } => {
                write!(f, "net: {peer}: handshake rejected: {reason}")
            }
            NetError::ResumeGap { peer, requested, oldest } => write!(
                f,
                "net: {peer}: resume from offset {requested} impossible, replay history starts at {oldest}"
            ),
            NetError::BadEndpoint { endpoint, detail } => {
                write!(f, "net: bad endpoint {endpoint:?}: {detail}")
            }
            NetError::RetriesExhausted { context, attempts } => {
                write!(f, "net: {context}: gave up after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            NetError::Frame { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl NetError {
    /// Build the Io variant with context, for `map_err` chains.
    pub fn io(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> NetError {
        let context = context.into();
        move |source| NetError::Io { context, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_carry_context() {
        let e = NetError::io("bind tcp://127.0.0.1:1")(std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            "denied",
        ));
        let s = e.to_string();
        assert!(s.contains("bind tcp://127.0.0.1:1"), "missing context in {s:?}");
        assert!(s.contains("denied"), "missing cause in {s:?}");

        let gap = NetError::ResumeGap { peer: "tcp://x".into(), requested: 3, oldest: 9 };
        assert!(gap.to_string().contains("offset 3"));
        assert!(gap.to_string().contains("starts at 9"));
    }
}

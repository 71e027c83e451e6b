//! Deterministic, seeded fault injection over any [`Transport`].
//!
//! Wraps a transport's **send side** and gives each outgoing frame a fate
//! drawn from [`LossConfig::fate`] — a pure counter-indexed draw on the
//! simulator's `NET_LOSS_BASE + link` stream, so a given (seed, link)
//! always drops/duplicates/reorders the same frame indices no matter how
//! the processes interleave. The receive side passes through untouched;
//! loss in the opposite direction belongs to the peer's own wrapper.
//!
//! `disconnect_after` arms a one-shot forced failure: the Nth send
//! attempt errors as if the kernel reset the connection, which is exactly
//! the mid-chunk disconnect the resume protocol must survive.

use crate::frame::Frame;
use crate::transport::Transport;
use crate::NetError;
use seafl_sim::{FrameFate, LossConfig};
use std::time::Duration;

/// A [`Transport`] whose outgoing frames suffer seeded, reproducible
/// faults.
pub(crate) struct LossyTransport<T: Transport> {
    inner: T,
    cfg: LossConfig,
    seed: u64,
    link: u64,
    sent: u64,
    held: Option<Frame>,
    tripped: bool,
}

impl<T: Transport> LossyTransport<T> {
    /// Wrap `inner`; fates are drawn from `(seed, link, frame_index)`.
    pub(crate) fn new(inner: T, cfg: LossConfig, seed: u64, link: u64) -> Self {
        LossyTransport { inner, cfg, seed, link, sent: 0, held: None, tripped: false }
    }
}

impl<T: Transport> Transport for LossyTransport<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        if let Some(n) = self.cfg.disconnect_after {
            if !self.tripped && self.sent >= n {
                self.tripped = true;
                return Err(NetError::Io {
                    context: format!(
                        "injected disconnect after {n} frames on link {} to {}",
                        self.link,
                        self.inner.peer()
                    ),
                    source: std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "loss injection",
                    ),
                });
            }
        }
        let fate = self.cfg.fate(self.seed, self.link, self.sent);
        self.sent += 1;
        // A frame held back by an earlier Reorder fate goes out right
        // after the current one — a one-slot swap, not unbounded delay.
        let held = self.held.take();
        match fate {
            FrameFate::Drop => {}
            FrameFate::Duplicate => {
                self.inner.send(frame)?;
                self.inner.send(frame)?;
            }
            FrameFate::Reorder if held.is_none() => {
                self.held = Some(frame.clone());
            }
            FrameFate::Delay => {
                std::thread::sleep(Duration::from_millis(self.cfg.delay_ms));
                self.inner.send(frame)?;
            }
            FrameFate::Deliver | FrameFate::Reorder => {
                self.inner.send(frame)?;
            }
        }
        if let Some(h) = held {
            self.inner.send(&h)?;
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError> {
        self.inner.recv(timeout)
    }

    fn peer(&self) -> &str {
        self.inner.peer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    /// Records what actually hit the wire.
    #[derive(Default)]
    struct WireLog {
        frames: Vec<Frame>,
    }

    impl Transport for WireLog {
        fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
            self.frames.push(frame.clone());
            Ok(())
        }
        fn recv(&mut self, _timeout: Duration) -> Result<Option<Frame>, NetError> {
            Ok(None)
        }
        fn peer(&self) -> &str {
            "wirelog"
        }
    }

    fn data(i: u64) -> Frame {
        Frame::new(FrameKind::Data, i, vec![i as u8])
    }

    fn offsets(log: &WireLog) -> Vec<u64> {
        log.frames.iter().map(|f| f.offset).collect()
    }

    #[test]
    fn noop_config_passes_everything_through() {
        let mut t = LossyTransport::new(WireLog::default(), LossConfig::none(), 1, 0);
        for i in 0..20 {
            t.send(&data(i)).unwrap();
        }
        assert_eq!(offsets(&t.inner), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn fates_are_reproducible_for_same_seed_and_link() {
        let cfg = LossConfig { drop_prob: 0.2, dup_prob: 0.2, ..LossConfig::none() };
        let run = |seed, link| {
            let mut t = LossyTransport::new(WireLog::default(), cfg, seed, link);
            for i in 0..200 {
                t.send(&data(i)).unwrap();
            }
            offsets(&t.inner)
        };
        assert_eq!(run(7, 0), run(7, 0), "same stream must replay identically");
        assert_ne!(run(7, 0), run(7, 1), "links must fault independently");
        let delivered = run(7, 0);
        assert!(delivered.len() < 200, "some frames must drop at 20%");
        let uniq: std::collections::HashSet<_> = delivered.iter().collect();
        assert!(uniq.len() < delivered.len(), "some frames must duplicate at 20%");
    }

    #[test]
    fn reorder_swaps_adjacent_frames() {
        // Force reorder on every frame: odd frames hold, even release.
        let cfg = LossConfig { reorder_prob: 1.0, ..LossConfig::none() };
        let mut t = LossyTransport::new(WireLog::default(), cfg, 3, 0);
        for i in 0..4 {
            t.send(&data(i)).unwrap();
        }
        assert_eq!(offsets(&t.inner), vec![1, 0, 3, 2]);
    }

    #[test]
    fn forced_disconnect_trips_exactly_once() {
        let cfg = LossConfig { disconnect_after: Some(2), ..LossConfig::none() };
        let mut t = LossyTransport::new(WireLog::default(), cfg, 1, 0);
        t.send(&data(0)).unwrap();
        t.send(&data(1)).unwrap();
        let err = t.send(&data(2)).unwrap_err();
        assert!(err.to_string().contains("injected disconnect"), "got {err}");
        assert!(t.tripped);
        // After the trip (as after a real reconnect) sends flow again.
        t.send(&data(3)).unwrap();
        assert_eq!(offsets(&t.inner), vec![0, 1, 3]);
    }
}

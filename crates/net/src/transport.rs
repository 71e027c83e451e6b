//! The transport seam: frame-granular send/recv over real sockets.
//!
//! Everything above this module speaks [`Frame`]s; everything below is a
//! byte stream. `StreamTransport` adapts blocking TCP or unix-domain
//! streams: `Transport::recv` waits at most a timeout (the client's
//! poll), `StreamTransport::recv_blocking` waits for as long as it
//! takes (a server reader thread, which `StreamTransport::shutdown`
//! wakes from another thread through a `StreamTransport::try_clone`).
//! `NetListener` accepts connections without blocking the server's
//! event pump. The `Transport` trait is object-safe so the lossy fault
//! injector (`crate::lossy::LossyTransport`) can wrap any
//! implementation transparently.

use crate::frame::{Frame, FrameDecoder};
use crate::NetError;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::time::Duration;

/// A parsed endpoint: where to listen or connect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP address, e.g. `127.0.0.1:7070` (port 0 binds an ephemeral one).
    Tcp(String),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Uds(PathBuf),
}

impl Endpoint {
    /// Parse `tcp://host:port` or `uds:///path/to.sock`.
    pub fn parse(s: &str) -> Result<Endpoint, NetError> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            if addr.is_empty() {
                return Err(NetError::BadEndpoint {
                    endpoint: s.into(),
                    detail: "empty tcp address".into(),
                });
            }
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        if let Some(path) = s.strip_prefix("uds://") {
            #[cfg(unix)]
            {
                if path.is_empty() {
                    return Err(NetError::BadEndpoint {
                        endpoint: s.into(),
                        detail: "empty socket path".into(),
                    });
                }
                return Ok(Endpoint::Uds(PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(NetError::BadEndpoint {
                    endpoint: s.into(),
                    detail: "unix-domain sockets are not supported on this platform".into(),
                });
            }
        }
        Err(NetError::BadEndpoint {
            endpoint: s.into(),
            detail: "expected a tcp:// or uds:// scheme".into(),
        })
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Uds(path) => write!(f, "uds://{}", path.display()),
        }
    }
}

/// Object-safe frame pipe. `Send` so a boxed transport can live inside
/// the engine's [`seafl_core::CohortTrainer`].
pub(crate) trait Transport: Send {
    /// Write one frame, flushing it onto the wire.
    fn send(&mut self, frame: &Frame) -> Result<(), NetError>;

    /// Read the next frame, waiting at most `timeout`. `Ok(None)` means
    /// the wait elapsed with no complete frame — not an error.
    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError>;

    /// Human-readable peer label for error context.
    fn peer(&self) -> &str;
}

impl Transport for Box<dyn Transport> {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        (**self).send(frame)
    }
    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError> {
        (**self).recv(timeout)
    }
    fn peer(&self) -> &str {
        (**self).peer()
    }
}

enum StreamKind {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

/// A connected byte-stream transport (TCP or UDS) with an incremental
/// frame decoder on the read side.
pub(crate) struct StreamTransport {
    stream: StreamKind,
    decoder: FrameDecoder,
    peer: String,
    /// The socket's read timeout as this handle last set it (`Some(None)`:
    /// blocking), so a receive re-arms it only when the wait changes.
    /// `None` until this handle first sets it: a fresh clone cannot know
    /// what another handle left on the shared socket.
    read_timeout: Option<Option<Duration>>,
}

impl StreamTransport {
    /// Connect to `ep` (one attempt; callers layer retry/backoff on top).
    pub(crate) fn connect(ep: &Endpoint) -> Result<StreamTransport, NetError> {
        let peer = ep.to_string();
        let stream = match ep {
            Endpoint::Tcp(addr) => {
                let s =
                    TcpStream::connect(addr).map_err(NetError::io(format!("connect {peer}")))?;
                s.set_nodelay(true).map_err(NetError::io(format!("set nodelay on {peer}")))?;
                StreamKind::Tcp(s)
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => StreamKind::Uds(
                UnixStream::connect(path).map_err(NetError::io(format!("connect {peer}")))?,
            ),
        };
        Ok(StreamTransport::new(stream, peer))
    }

    fn new(stream: StreamKind, peer: String) -> StreamTransport {
        StreamTransport { stream, decoder: FrameDecoder::new(), peer, read_timeout: None }
    }

    /// A second handle on the same connection, for another thread. Both
    /// share the socket (and its read timeout), not the frame decoder nor
    /// the cached timeout: only one of them should read.
    pub(crate) fn try_clone(&self) -> Result<StreamTransport, NetError> {
        let context = format!("clone the connection to {}", self.peer);
        let stream = match &self.stream {
            StreamKind::Tcp(s) => StreamKind::Tcp(s.try_clone().map_err(NetError::io(context))?),
            #[cfg(unix)]
            StreamKind::Uds(s) => StreamKind::Uds(s.try_clone().map_err(NetError::io(context))?),
        };
        Ok(StreamTransport::new(stream, self.peer.clone()))
    }

    /// Shut the connection down in both directions: the peer reads EOF,
    /// and a read blocked on any handle to it returns. Errors (the peer
    /// is already gone) are ignored — the connection is over either way.
    pub(crate) fn shutdown(&self) {
        let _ = match &self.stream {
            StreamKind::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            StreamKind::Uds(s) => s.shutdown(Shutdown::Both),
        };
    }

    /// Read the next frame, waiting as long as it takes: a reader
    /// thread's loop. Ends in an error once the peer closes or the
    /// connection is [`StreamTransport::shutdown`].
    pub(crate) fn recv_blocking(&mut self) -> Result<Frame, NetError> {
        // A timeout can still fire if another handle re-armed the shared
        // socket's; it only means "read again".
        loop {
            if let Some(frame) = self.recv_within(None)? {
                return Ok(frame);
            }
        }
    }

    /// Arm the socket's read timeout (`None`: block), skipping the
    /// syscall when it is already set to that.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        if self.read_timeout == Some(timeout) {
            return Ok(());
        }
        let res = match &self.stream {
            StreamKind::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            StreamKind::Uds(s) => s.set_read_timeout(timeout),
        };
        res.map_err(NetError::io(format!("set read timeout on {}", self.peer)))?;
        self.read_timeout = Some(timeout);
        Ok(())
    }

    /// Decode the next frame, reading while the buffered bytes hold no
    /// whole one; each read waits at most `timeout` (`None`: block), and
    /// one that times out returns `Ok(None)`.
    fn recv_within(&mut self, timeout: Option<Duration>) -> Result<Option<Frame>, NetError> {
        loop {
            if let Some(frame) = self
                .decoder
                .next_frame()
                .map_err(|source| NetError::Frame { peer: self.peer.clone(), source })?
            {
                return Ok(Some(frame));
            }
            self.set_read_timeout(timeout)?;
            let mut buf = [0u8; 16 * 1024];
            match self.read_some(&mut buf) {
                Ok(0) => return Err(NetError::Disconnected { peer: self.peer.clone() }),
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => {
                    return Err(NetError::Io {
                        context: format!("recv from {}", self.peer),
                        source: e,
                    })
                }
            }
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match &mut self.stream {
            StreamKind::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            StreamKind::Uds(s) => s.read(buf),
        }
    }

    fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match &mut self.stream {
            StreamKind::Tcp(s) => s.write_all(bytes),
            #[cfg(unix)]
            StreamKind::Uds(s) => s.write_all(bytes),
        }
    }
}

impl Transport for StreamTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.write_all_bytes(&frame.encode())
            .map_err(NetError::io(format!("send to {}", self.peer)))
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError> {
        // A zero Duration means "no timeout" to the OS — clamp up instead.
        self.recv_within(Some(timeout.max(Duration::from_millis(1))))
    }

    fn peer(&self) -> &str {
        &self.peer
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

/// A non-blocking listener the server polls between protocol work.
pub(crate) struct NetListener {
    kind: ListenerKind,
    local: Endpoint,
}

impl NetListener {
    /// Bind `ep`. For TCP with port 0 the returned listener's
    /// [`NetListener::local_endpoint`] carries the actual port; for UDS a
    /// stale socket file at the path is removed first.
    pub(crate) fn bind(ep: &Endpoint) -> Result<NetListener, NetError> {
        match ep {
            Endpoint::Tcp(addr) => {
                let l =
                    TcpListener::bind(addr).map_err(NetError::io(format!("bind tcp://{addr}")))?;
                l.set_nonblocking(true)
                    .map_err(NetError::io(format!("set nonblocking on tcp://{addr}")))?;
                let actual =
                    l.local_addr().map_err(NetError::io(format!("local addr of tcp://{addr}")))?;
                Ok(NetListener {
                    kind: ListenerKind::Tcp(l),
                    local: Endpoint::Tcp(actual.to_string()),
                })
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                if path.exists() {
                    std::fs::remove_file(path)
                        .map_err(NetError::io(format!("remove stale socket {}", path.display())))?;
                }
                let l = UnixListener::bind(path)
                    .map_err(NetError::io(format!("bind uds://{}", path.display())))?;
                l.set_nonblocking(true).map_err(NetError::io(format!(
                    "set nonblocking on uds://{}",
                    path.display()
                )))?;
                Ok(NetListener { kind: ListenerKind::Uds(l), local: ep.clone() })
            }
        }
    }

    /// The endpoint actually bound (resolves TCP port 0).
    pub(crate) fn local_endpoint(&self) -> &Endpoint {
        &self.local
    }

    /// Accept one pending connection, if any.
    pub(crate) fn accept(&self) -> Result<Option<StreamTransport>, NetError> {
        let accepted = match &self.kind {
            ListenerKind::Tcp(l) => match l.accept() {
                Ok((s, addr)) => {
                    s.set_nonblocking(false)
                        .map_err(NetError::io(format!("unset nonblocking for {addr}")))?;
                    s.set_nodelay(true).map_err(NetError::io(format!("set nodelay for {addr}")))?;
                    Some((StreamKind::Tcp(s), format!("tcp://{addr}")))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) => {
                    return Err(NetError::Io {
                        context: format!("accept on {}", self.local),
                        source: e,
                    })
                }
            },
            #[cfg(unix)]
            ListenerKind::Uds(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false).map_err(NetError::io(format!(
                        "unset nonblocking for peer of {}",
                        self.local
                    )))?;
                    Some((StreamKind::Uds(s), format!("{}#peer", self.local)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) => {
                    return Err(NetError::Io {
                        context: format!("accept on {}", self.local),
                        source: e,
                    })
                }
            },
        };
        Ok(accepted.map(|(stream, peer)| StreamTransport::new(stream, peer)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:7070").unwrap(),
            Endpoint::Tcp("127.0.0.1:7070".into())
        );
        assert!(Endpoint::parse("http://x").is_err());
        assert!(Endpoint::parse("tcp://").is_err());
        #[cfg(unix)]
        {
            let ep = Endpoint::parse("uds:///tmp/seafl.sock").unwrap();
            assert_eq!(ep, Endpoint::Uds(PathBuf::from("/tmp/seafl.sock")));
            assert_eq!(ep.to_string(), "uds:///tmp/seafl.sock");
            assert!(Endpoint::parse("uds://").is_err());
        }
    }

    #[test]
    fn tcp_loopback_send_recv_and_timeout() {
        let (mut client, mut server) = tcp_pair();
        let frame = Frame::new(FrameKind::Data, 9, vec![1, 2, 3]);
        client.send(&frame).unwrap();
        let got = loop {
            if let Some(f) = server.recv(Duration::from_millis(200)).unwrap() {
                break f;
            }
        };
        assert_eq!(got, frame);
        // Nothing else queued: recv times out cleanly.
        assert_eq!(server.recv(Duration::from_millis(10)).unwrap(), None);
    }

    /// A connected `(client, server)` pair over loopback TCP.
    fn tcp_pair() -> (StreamTransport, StreamTransport) {
        let listener = NetListener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
        let client = StreamTransport::connect(listener.local_endpoint()).unwrap();
        loop {
            if let Some(server) = listener.accept().unwrap() {
                return (client, server);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_clone_arms_its_own_read_timeout() {
        let (mut client, mut server) = tcp_pair();
        let frame = Frame::new(FrameKind::Data, 0, vec![7]);
        // The original caches a 20 ms timeout, then a blocking read
        // re-arms the shared socket behind the clone's back.
        client.send(&frame).unwrap();
        while server.recv(Duration::from_millis(20)).unwrap().is_none() {}
        let mut clone = server.try_clone().unwrap();
        client.send(&frame).unwrap();
        assert_eq!(server.recv_blocking().unwrap(), frame);
        // The clone must set its own wait, not trust a copied cache.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(clone.recv(Duration::from_millis(20)).unwrap()));
        let waited = rx.recv_timeout(Duration::from_secs(2));
        assert_eq!(waited, Ok(None), "the clone's 20 ms wait timed out");
    }

    #[cfg(unix)]
    #[test]
    fn uds_loopback_send_recv() {
        let dir = std::env::temp_dir().join(format!("seafl-net-uds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        let ep = Endpoint::Uds(path.clone());
        let listener = NetListener::bind(&ep).unwrap();
        let mut client = StreamTransport::connect(&ep).unwrap();
        let mut server = loop {
            if let Some(t) = listener.accept().unwrap() {
                break t;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let frame = Frame::new(FrameKind::Ack, 4, Vec::new());
        server.send(&frame).unwrap();
        let got = loop {
            if let Some(f) = client.recv(Duration::from_millis(200)).unwrap() {
                break f;
            }
        };
        assert_eq!(got, frame);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

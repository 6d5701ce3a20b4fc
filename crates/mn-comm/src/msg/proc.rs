//! Multi-process transport: the msg fabric over real OS processes.
//!
//! The in-process fabric ([`super::fabric`](mod@super::fabric)) runs every rank as a
//! thread of one process, so fault drills only ever *simulate* rank
//! death. This module is the honest-hardware path (ROADMAP item 3):
//! each rank is a supervised child process, messages are serde-framed
//! bytes over Unix-domain sockets (TCP loopback behind an address
//! flag), and a `sigkill:` fault plan entry really `SIGKILL`s the
//! worker's process — exercising genuine memory isolation, kernel
//! socket teardown, and elastic checkpoint restart.
//!
//! ## Socket layer
//!
//! One listener ([`ProcListener`]), one stream ([`ProcStream`]) and one
//! bounded connect ([`connect`]) over one address space ([`ProcAddr`]:
//! `unix:<path>` or `tcp:<host:port>`). The supervisor and its workers
//! speak the frame protocol below over them; `monet serve` and its
//! clients speak line-delimited JSON over the very same three.
//!
//! ## Topology
//!
//! A star: the rank-0 *supervisor* (the parent `monet` process) binds
//! one listening socket and routes every rank-to-rank message. Workers
//! never connect to each other — the supervisor's per-worker reader
//! threads forward `Data` frames to the destination's socket. A star
//! costs one extra hop per message but gives the supervisor a single
//! vantage point for liveness: a worker's socket reaching EOF is
//! *instant* death detection (SIGKILL closes the socket from the
//! kernel), and per-rank heartbeats bound detection of stalls (a
//! worker that is alive but wedged). On either, the supervisor
//! broadcasts `PeerDead` to the survivors, whose pending receives from
//! the dead rank resolve to [`CommError::PeerDisconnected`] — the
//! identical failure the in-process fabric delivers: a worker's
//! [`Endpoint`] is the same type as a rank thread's, and only how a
//! send leaves it differs.
//!
//! ## Handshake
//!
//! Workers [`connect`] with retry + jittered exponential backoff (the
//! supervisor and children race to start), bounded by the connect
//! timeout — a supervisor that never appears yields
//! [`CommError::Timeout`], not a hang. Then `Hello{rank, pid}` ⇄
//! `Welcome{nranks}` completes the handshake; the supervisor's accept
//! loop enforces the same deadline for workers that never call in.
//! Workers beat every [`HEARTBEAT_PERIOD`]; the supervisor declares a
//! rank stalled after [`STALL_BOUND`] without a frame from it.
//!
//! ## Determinism
//!
//! Fabric events (one per send/receive, heartbeats and control frames
//! excluded) are counted by the same [`Endpoint`] code as on rank
//! threads, so a fault spec like `kill:1@50` fires at the same logical
//! point on `proc:<p>` as on `msg:<p>`, and payloads cross the wire as
//! the bit-exact binary encoding of [`super::wire`] — results are
//! byte-identical to every other engine at every rank count.

use crate::fault::{splitmix64, CommError, FaultPlan};
use crate::msg::fabric::{Body, Endpoint, Outbox, Packet};
use crate::sys;
use crossbeam::channel::{unbounded, Sender};
use mn_obs::flightrec::FlightRec;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default handshake/connect deadline when `--comm-timeout-ms` is not
/// given: generous enough for a loaded CI box, finite so a worker that
/// never spawns is an error, not a hang.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// How often a worker beats, and how often the supervisor's stall
/// monitor polls.
pub const HEARTBEAT_PERIOD: Duration = Duration::from_millis(100);

/// Stall-detection bound: a worker that has sent no frame for longer
/// than this is declared dead (and killed). EOF detection is
/// independent of this bound — a SIGKILLed worker is detected the
/// moment the kernel closes its socket.
pub const STALL_BOUND: Duration = Duration::from_millis(2_000);

/// Sanity cap on a single frame (1 GiB) — a corrupt length prefix must
/// not trigger a giant allocation.
const MAX_FRAME: u32 = 1 << 30;

// ---------------------------------------------------------------------
// Socket layer: address, stream, listener, connect (UDS default, TCP
// optional)
// ---------------------------------------------------------------------

/// A listening address: a Unix-domain socket path (default) or a TCP
/// address (behind the `tcp:` flag, for hosts where UDS is unavailable
/// or multi-host experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcAddr {
    /// `unix:<path>`
    Unix(PathBuf),
    /// `tcp:<host:port>`
    Tcp(String),
}

impl ProcAddr {
    /// Parse `unix:<path>` / `tcp:<host:port>`; a bare string is a
    /// Unix path.
    pub fn parse(s: &str) -> Result<ProcAddr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest.is_empty() {
                return Err("empty tcp address".into());
            }
            return Ok(ProcAddr::Tcp(rest.to_string()));
        }
        let path = s.strip_prefix("unix:").unwrap_or(s);
        if path.is_empty() {
            return Err("empty socket path".into());
        }
        Ok(ProcAddr::Unix(PathBuf::from(path)))
    }
}

impl std::fmt::Display for ProcAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            ProcAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One connected byte stream, UDS or TCP: `Read + Write`, clonable
/// into separate read and write halves.
pub enum ProcStream {
    /// A Unix-domain stream.
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl ProcStream {
    /// A second handle onto the same socket (use one half for reading
    /// and one for writing).
    pub fn try_clone(&self) -> io::Result<ProcStream> {
        Ok(match self {
            ProcStream::Unix(s) => ProcStream::Unix(s.try_clone()?),
            ProcStream::Tcp(s) => ProcStream::Tcp(s.try_clone()?),
        })
    }

    /// Bound every read by `timeout` (`None` blocks forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            ProcStream::Unix(s) => s.set_read_timeout(timeout),
            ProcStream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Shut both directions down; a peer blocked in `read` sees EOF.
    pub fn shutdown(&self) {
        let _ = match self {
            ProcStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            ProcStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for ProcStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ProcStream::Unix(s) => s.read(buf),
            ProcStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ProcStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ProcStream::Unix(s) => s.write(buf),
            ProcStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ProcStream::Unix(s) => s.flush(),
            ProcStream::Tcp(s) => s.flush(),
        }
    }
}

enum Socket {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A listening socket on a [`ProcAddr`]. Binding removes a stale Unix
/// socket file left by a crashed process and resolves `tcp:host:0` to
/// the real port; dropping the listener removes its socket file.
pub struct ProcListener {
    socket: Socket,
    addr: ProcAddr,
}

impl ProcListener {
    /// Bind `addr`, creating a Unix socket's parent directory if need be.
    pub fn bind(addr: &ProcAddr) -> io::Result<ProcListener> {
        let (socket, addr) = match addr {
            ProcAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                (Socket::Unix(UnixListener::bind(path)?), addr.clone())
            }
            ProcAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec)?;
                let actual = listener.local_addr()?.to_string();
                (Socket::Tcp(listener), ProcAddr::Tcp(actual))
            }
        };
        Ok(ProcListener { socket, addr })
    }

    /// The bound address peers must connect to.
    pub fn addr(&self) -> &ProcAddr {
        &self.addr
    }

    /// The next connection (blocking unless set non-blocking).
    pub fn accept(&self) -> io::Result<ProcStream> {
        Ok(match &self.socket {
            Socket::Unix(l) => ProcStream::Unix(l.accept()?.0),
            Socket::Tcp(l) => ProcStream::Tcp(l.accept()?.0),
        })
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match &self.socket {
            Socket::Unix(l) => l.set_nonblocking(nb),
            Socket::Tcp(l) => l.set_nonblocking(nb),
        }
    }
}

impl Drop for ProcListener {
    fn drop(&mut self) {
        if let ProcAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Connect to a [`ProcListener`], retrying with exponential backoff
/// (1 ms · 2^attempt, capped at 100 ms, jittered ±50 %) until `timeout`
/// elapses; then the last connect error. Peers routinely start before
/// the listener binds: spawned workers, a client racing a fresh server.
pub fn connect(addr: &ProcAddr, timeout: Duration) -> io::Result<ProcStream> {
    let deadline = Instant::now() + timeout;
    // Jitter per process, so workers spawned together do not retry in
    // lock-step; scheduling noise, never results, depends on it.
    let salt = u64::from(sys::current_pid()) << 32;
    let mut attempt: u64 = 0;
    loop {
        let result = match addr {
            ProcAddr::Unix(path) => UnixStream::connect(path).map(ProcStream::Unix),
            ProcAddr::Tcp(spec) => TcpStream::connect(spec).map(ProcStream::Tcp),
        };
        match result {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => {
                let base = Duration::from_millis(1 << attempt.min(7)).min(Duration::from_millis(100));
                let jittered = base.mul_f64(0.5 + (splitmix64(salt | attempt) % 1000) as f64 / 1000.0);
                std::thread::sleep(jittered.min(deadline.saturating_duration_since(Instant::now())));
                attempt += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Frame protocol
// ---------------------------------------------------------------------

/// The wire frames: `[u32 LE payload length][u8 kind][fields...]`.
/// Control frames (`Hello`/`Welcome`/`Heartbeat`/`PeerDead`/`Goodbye`)
/// are *not* fabric events — only `Data` carries rank payloads, so the
/// deterministic event numbering matches the in-process fabric.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame {
    /// Worker → supervisor: handshake opener.
    Hello { rank: u32, pid: u32 },
    /// Supervisor → worker: handshake close, with the fabric geometry.
    Welcome { nranks: u32 },
    /// A routed rank-to-rank payload. `wire_bytes` is the *accounting*
    /// size (the same shallow-size convention the in-process fabric and
    /// sim engine use), not the encoded length — keeping the comm
    /// matrices byte-comparable across all engines.
    Data {
        src: u32,
        dst: u32,
        wire_bytes: u64,
        type_name: String,
        body: Vec<u8>,
    },
    /// Worker → supervisor: liveness beacon.
    Heartbeat { rank: u32 },
    /// Supervisor → workers: `rank` died; pending receives from it
    /// must resolve to `PeerDisconnected`.
    PeerDead { rank: u32, last_hb_age_ms: u64 },
    /// Worker → supervisor: clean shutdown; the following EOF is not a
    /// death.
    Goodbye { rank: u32 },
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, u32::try_from(bytes.len()).expect("frame field too large"));
    out.extend_from_slice(bytes);
}

fn get_u32(buf: &[u8], cur: &mut usize) -> io::Result<u32> {
    let end = *cur + 4;
    let raw = buf
        .get(*cur..end)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated frame"))?;
    *cur = end;
    Ok(u32::from_le_bytes(raw.try_into().unwrap()))
}

fn get_u64(buf: &[u8], cur: &mut usize) -> io::Result<u64> {
    let end = *cur + 8;
    let raw = buf
        .get(*cur..end)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated frame"))?;
    *cur = end;
    Ok(u64::from_le_bytes(raw.try_into().unwrap()))
}

fn get_bytes(buf: &[u8], cur: &mut usize) -> io::Result<Vec<u8>> {
    let len = get_u32(buf, cur)? as usize;
    let end = *cur + len;
    let raw = buf
        .get(*cur..end)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated frame"))?;
    *cur = end;
    Ok(raw.to_vec())
}

impl Frame {
    /// The frame, length prefix first, in one buffer of its exact size.
    fn encode(&self) -> Vec<u8> {
        let size = match self {
            Frame::Data {
                type_name, body, ..
            } => 25 + type_name.len() + body.len(),
            _ => 16,
        };
        let mut head = Vec::with_capacity(4 + size);
        put_u32(&mut head, 0); // the length, patched below
        match self {
            Frame::Hello { rank, pid } => {
                head.push(0);
                put_u32(&mut head, *rank);
                put_u32(&mut head, *pid);
            }
            Frame::Welcome { nranks } => {
                head.push(1);
                put_u32(&mut head, *nranks);
            }
            Frame::Data {
                src,
                dst,
                wire_bytes,
                type_name,
                body,
            } => {
                head.push(2);
                put_u32(&mut head, *src);
                put_u32(&mut head, *dst);
                put_u64(&mut head, *wire_bytes);
                put_bytes(&mut head, type_name.as_bytes());
                put_bytes(&mut head, body);
            }
            Frame::Heartbeat { rank } => {
                head.push(3);
                put_u32(&mut head, *rank);
            }
            Frame::PeerDead {
                rank,
                last_hb_age_ms,
            } => {
                head.push(4);
                put_u32(&mut head, *rank);
                put_u64(&mut head, *last_hb_age_ms);
            }
            Frame::Goodbye { rank } => {
                head.push(5);
                put_u32(&mut head, *rank);
            }
        }
        let len = (head.len() - 4) as u32;
        head[..4].copy_from_slice(&len.to_le_bytes());
        head
    }

    /// Decode a frame's payload (the bytes after its length prefix). A
    /// `Data` frame's body keeps the payload's buffer.
    fn decode(mut payload: Vec<u8>) -> io::Result<Frame> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut cur = 1usize;
        let kind = *payload.first().ok_or_else(|| bad("empty frame"))?;
        let payload_ref = &payload;
        let frame = match kind {
            0 => Frame::Hello {
                rank: get_u32(payload_ref, &mut cur)?,
                pid: get_u32(payload_ref, &mut cur)?,
            },
            1 => Frame::Welcome {
                nranks: get_u32(payload_ref, &mut cur)?,
            },
            2 => {
                let src = get_u32(payload_ref, &mut cur)?;
                let dst = get_u32(payload_ref, &mut cur)?;
                let wire_bytes = get_u64(payload_ref, &mut cur)?;
                let type_name = String::from_utf8(get_bytes(payload_ref, &mut cur)?)
                    .map_err(|_| bad("non-UTF-8 type name"))?;
                let len = get_u32(payload_ref, &mut cur)? as usize;
                if payload.len() - cur != len {
                    return Err(bad("frame body length mismatch"));
                }
                payload.drain(..cur);
                return Ok(Frame::Data {
                    src,
                    dst,
                    wire_bytes,
                    type_name,
                    body: payload,
                });
            }
            3 => Frame::Heartbeat {
                rank: get_u32(payload_ref, &mut cur)?,
            },
            4 => Frame::PeerDead {
                rank: get_u32(payload_ref, &mut cur)?,
                last_hb_age_ms: get_u64(payload_ref, &mut cur)?,
            },
            5 => Frame::Goodbye {
                rank: get_u32(payload_ref, &mut cur)?,
            },
            _ => return Err(bad("unknown frame kind")),
        };
        if cur != payload.len() {
            return Err(bad("frame has trailing bytes"));
        }
        Ok(frame)
    }
}

fn write_frame(stream: &mut ProcStream, frame: &Frame) -> io::Result<()> {
    stream.write_all(&frame.encode())?;
    stream.flush()
}

fn read_frame(stream: &mut ProcStream) -> io::Result<Frame> {
    let mut framed = read_frame_bytes(stream)?;
    framed.drain(..4);
    Frame::decode(framed)
}

/// The next frame's bytes, length prefix included.
fn read_frame_bytes(stream: &mut ProcStream) -> io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut framed = vec![0u8; 4 + len as usize];
    framed[..4].copy_from_slice(&len_buf);
    stream.read_exact(&mut framed[4..])?;
    Ok(framed)
}

/// The destination of a `Data` frame read by [`read_frame_bytes`], read
/// off its header so the supervisor forwards the bytes as they came.
fn data_dst(framed: &[u8]) -> Option<usize> {
    // Length prefix, kind byte, then `src` and `dst`.
    match framed.get(4..13)? {
        [2, _, _, _, _, d0, d1, d2, d3] => Some(u32::from_le_bytes([*d0, *d1, *d2, *d3]) as usize),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Worker endpoint
// ---------------------------------------------------------------------

/// Configuration for [`connect_worker`].
pub struct WorkerConfig {
    /// This worker's rank.
    pub rank: usize,
    /// Expected fabric size (cross-checked against `Welcome`).
    pub nranks: usize,
    /// The supervisor's listening address.
    pub addr: ProcAddr,
    /// Connect/handshake deadline (`--comm-timeout-ms`, or
    /// [`DEFAULT_CONNECT_TIMEOUT`]).
    pub connect_timeout: Duration,
    /// Receive timeout for fabric receives (`None` blocks forever;
    /// peer death still resolves via `PeerDead`).
    pub recv_timeout: Option<Duration>,
    /// Deterministic fault schedule for this rank.
    pub faults: FaultPlan,
    /// Where a `sigkill:` injection dumps this rank's flight ring
    /// before raising the real signal.
    pub dump_dir: PathBuf,
}

/// A proc worker's outgoing side: the write half of the supervisor
/// socket (shared with the heartbeat thread), the heartbeat stop flag,
/// and where a `sigkill:` injection dumps the flight ring.
pub(crate) struct SocketOut {
    writer: Arc<Mutex<ProcStream>>,
    hb_stop: Arc<AtomicBool>,
    dump_dir: PathBuf,
}

impl SocketOut {
    fn write(&self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.writer.lock().unwrap_or_else(PoisonError::into_inner), frame)
    }

    /// Frame one payload for the supervisor to route to `dst`.
    pub(crate) fn send(
        &self,
        src: usize,
        dst: usize,
        type_name: &str,
        wire_bytes: u64,
        body: Vec<u8>,
    ) -> io::Result<()> {
        self.write(&Frame::Data {
            src: src as u32,
            dst: dst as u32,
            wire_bytes,
            type_name: type_name.to_string(),
            body,
        })
    }

    /// Tell the supervisor the EOF that follows is a clean exit.
    pub(crate) fn goodbye(&self, rank: usize) {
        let _ = self.write(&Frame::Goodbye { rank: rank as u32 });
    }

    /// Dump the flight ring, then `SIGKILL` this process — the ring is
    /// the only trace the kill leaves.
    pub(crate) fn die(&self, flight: Option<&FlightRec>) -> ! {
        if let Some(flight) = flight {
            let _ = std::fs::create_dir_all(&self.dump_dir);
            let _ = flight.dump_to_dir(&self.dump_dir);
        }
        sys::raise_sigkill();
    }
}

impl Drop for SocketOut {
    fn drop(&mut self) {
        self.hb_stop.store(true, Ordering::Relaxed);
        self.writer.lock().unwrap_or_else(PoisonError::into_inner).shutdown();
    }
}

/// [`connect`] to the supervisor and complete the handshake. The whole
/// phase — first connect attempt through `Welcome` — is bounded by
/// `cfg.connect_timeout`: a supervisor that never binds yields
/// [`CommError::Timeout`] (with `src == dst == rank`, the handshake
/// convention), never a hang.
pub fn connect_worker(cfg: WorkerConfig) -> Result<Endpoint, CommError> {
    let deadline = Instant::now() + cfg.connect_timeout;
    let mut writer = connect(&cfg.addr, cfg.connect_timeout).map_err(|_| CommError::Timeout {
        src: cfg.rank,
        dst: cfg.rank,
        event: 0,
        waited: cfg.connect_timeout,
    })?;

    // Handshake, under the same deadline.
    let io_err = |e: io::Error| {
        CommError::from_io_kind(e.kind(), cfg.rank, cfg.rank, 0, cfg.connect_timeout)
    };
    writer
        .set_read_timeout(Some(deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(1))))
        .map_err(io_err)?;
    let mut reader = writer.try_clone().map_err(io_err)?;
    write_frame(
        &mut writer,
        &Frame::Hello {
            rank: cfg.rank as u32,
            pid: sys::current_pid(),
        },
    )
    .map_err(io_err)?;
    let welcome = read_frame(&mut reader).map_err(io_err)?;
    match welcome {
        Frame::Welcome { nranks } if nranks as usize == cfg.nranks => {}
        Frame::Welcome { nranks } => {
            return Err(CommError::ProtocolMismatch {
                expected: "matching rank count in Welcome",
                actual: Box::leak(format!("nranks {nranks}").into_boxed_str()),
                src: cfg.rank,
                dst: cfg.rank,
                event: 0,
            })
        }
        other => {
            return Err(CommError::ProtocolMismatch {
                expected: "Welcome frame",
                actual: Box::leak(format!("{other:?}").into_boxed_str()),
                src: cfg.rank,
                dst: cfg.rank,
                event: 0,
            })
        }
    }
    reader.set_read_timeout(None).map_err(io_err)?;

    // Delivery queues + reader thread.
    let mut senders: Vec<Option<Sender<Packet>>> = Vec::with_capacity(cfg.nranks);
    let mut receivers = Vec::with_capacity(cfg.nranks);
    for _ in 0..cfg.nranks {
        let (tx, rx) = unbounded();
        senders.push(Some(tx));
        receivers.push(rx);
    }
    std::thread::Builder::new()
        .name(format!("proc-recv-r{}", cfg.rank))
        .spawn(move || {
            let mut senders = senders;
            loop {
                match read_frame(&mut reader) {
                    Ok(Frame::Data {
                        src,
                        wire_bytes,
                        type_name,
                        body,
                        ..
                    }) => {
                        if let Some(Some(tx)) = senders.get(src as usize) {
                            // A send to a full... channels are
                            // unbounded; an error means the
                            // endpoint is gone — stop reading.
                            let packet = (type_name.into(), wire_bytes, Body::Encoded(body));
                            if tx.send(packet).is_err() {
                                return;
                            }
                        }
                    }
                    Ok(Frame::PeerDead { rank, .. }) => {
                        // Drop the dead peer's sender: pending and
                        // future receives from it disconnect.
                        if let Some(slot) = senders.get_mut(rank as usize) {
                            *slot = None;
                        }
                    }
                    Ok(_) => {} // workers ignore other control frames
                    Err(_) => return, // supervisor died: drop every sender
                }
            }
        })
        .map_err(io_err)?;

    // Heartbeat thread: independent of compute, so a worker stuck
    // in a long dist_map block still beats.
    let writer = Arc::new(Mutex::new(writer));
    let hb_stop = Arc::new(AtomicBool::new(false));
    {
        let writer = Arc::clone(&writer);
        let hb_stop = Arc::clone(&hb_stop);
        let rank = cfg.rank as u32;
        std::thread::Builder::new()
            .name(format!("proc-hb-r{}", cfg.rank))
            .spawn(move || loop {
                std::thread::sleep(HEARTBEAT_PERIOD);
                if hb_stop.load(Ordering::Relaxed) {
                    return;
                }
                let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
                if write_frame(&mut w, &Frame::Heartbeat { rank }).is_err() {
                    return; // supervisor gone; the reader notices too
                }
            })
            .map_err(io_err)?;
    }

    let out = Outbox::Socket(SocketOut {
        writer,
        hb_stop,
        dump_dir: cfg.dump_dir,
    });
    Ok(Endpoint::new(cfg.rank, receivers, out, cfg.recv_timeout, cfg.faults))
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

/// Routing outcome, returned by [`Supervisor::route`].
#[derive(Debug, Clone)]
pub struct RouteReport {
    /// Ranks that died, in *detection order*: `(rank, last_hb_age,
    /// stalled)`. Detection order matters for diagnosis — the first
    /// entry is the rank whose death started the cascade; later
    /// entries are usually survivors that aborted in response.
    pub deaths: Vec<(usize, Duration, bool)>,
}

impl RouteReport {
    /// The first rank observed to die (did not say `Goodbye`), with
    /// its heartbeat staleness — the material for the one-line
    /// diagnosis. Detection order, not rank order: when a kill
    /// cascades, this names the rank that actually died first.
    pub fn first_death(&self) -> Option<(usize, Duration, bool)> {
        self.deaths.first().copied()
    }
}

struct RankLink {
    writer: Arc<Mutex<ProcStream>>,
    reader: Option<ProcStream>,
    pid: u32,
}

/// Supervisor-side state per rank, shared between reader threads and
/// the stall monitor.
struct RankState {
    last_hb: Instant,
    /// `Goodbye` seen.
    clean: bool,
    /// EOF (or stall declaration) seen.
    gone: bool,
}

/// The rank-0 supervisor: binds the listening socket, handshakes `p`
/// workers, then routes frames until every worker departs.
pub struct Supervisor {
    listener: ProcListener,
    nranks: usize,
    links: Vec<Option<RankLink>>,
}

impl Supervisor {
    /// Bind the listening socket ([`ProcListener::bind`]).
    pub fn bind(addr: &ProcAddr, nranks: usize) -> io::Result<Supervisor> {
        assert!(nranks >= 1, "need at least one worker");
        Ok(Supervisor {
            listener: ProcListener::bind(addr)?,
            nranks,
            links: (0..nranks).map(|_| None).collect(),
        })
    }

    /// The address workers must connect to (pass as `--proc-socket`).
    pub fn addr(&self) -> &ProcAddr {
        self.listener.addr()
    }

    /// Worker pids as reported in `Hello` (index = rank; 0 for ranks
    /// that never connected). Valid after [`Supervisor::accept_workers`];
    /// the material for the stall monitor's kill callback.
    pub fn pids(&self) -> Vec<u32> {
        self.links
            .iter()
            .map(|l| l.as_ref().map_or(0, |l| l.pid))
            .collect()
    }

    /// Accept and handshake all `p` workers within `timeout`. A worker
    /// that never connects yields [`CommError::Timeout`] naming the
    /// lowest missing rank — the connect/handshake phase is bounded,
    /// exactly like the workers' side.
    pub fn accept_workers(&mut self, timeout: Duration) -> Result<(), CommError> {
        let deadline = Instant::now() + timeout;
        self.listener
            .set_nonblocking(true)
            .map_err(|e| CommError::from_io_kind(e.kind(), 0, 0, 0, timeout))?;
        let mut connected = 0usize;
        while connected < self.nranks {
            if Instant::now() >= deadline {
                let missing = self
                    .links
                    .iter()
                    .position(Option::is_none)
                    .unwrap_or(self.nranks);
                return Err(CommError::Timeout {
                    src: missing,
                    dst: 0,
                    event: 0,
                    waited: timeout,
                });
            }
            match self.listener.accept() {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(
                            deadline
                                .saturating_duration_since(Instant::now())
                                .max(Duration::from_millis(1)),
                        ))
                        .ok();
                    let mut reader = match stream.try_clone() {
                        Ok(r) => r,
                        Err(_) => continue, // broken before handshake; wait for a retry
                    };
                    match read_frame(&mut reader) {
                        Ok(Frame::Hello { rank, pid }) if (rank as usize) < self.nranks => {
                            let rank = rank as usize;
                            if self.links[rank].is_some() {
                                continue; // duplicate hello: drop the stray
                            }
                            reader.set_read_timeout(None).ok();
                            self.links[rank] = Some(RankLink {
                                writer: Arc::new(Mutex::new(stream)),
                                reader: Some(reader),
                                pid,
                            });
                            connected += 1;
                        }
                        _ => continue, // garbage opener: ignore the stray
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    return Err(CommError::from_io_kind(e.kind(), 0, 0, 0, timeout));
                }
            }
        }
        // All in: welcome everyone with the fabric geometry.
        for link in self.links.iter().flatten() {
            let mut writer = link.writer.lock().unwrap_or_else(PoisonError::into_inner);
            write_frame(&mut writer, &Frame::Welcome { nranks: self.nranks as u32 })
            .map_err(|e| CommError::from_io_kind(e.kind(), 0, 0, 0, timeout))?;
        }
        Ok(())
    }

    /// Route frames until every worker departs (cleanly or by death).
    ///
    /// One reader thread per worker forwards `Data` frames to their
    /// destination and tracks heartbeats; a stall monitor declares any
    /// rank whose heartbeat is older than [`STALL_BOUND`] dead
    /// and calls `on_stall(rank)` — the caller `SIGKILL`s the child,
    /// whose socket EOF then completes the normal death path. On any
    /// death the survivors receive `PeerDead` so their pending
    /// receives resolve instead of deadlocking.
    pub fn route(mut self, on_stall: impl Fn(usize) + Sync) -> RouteReport {
        let nranks = self.nranks;
        let states: Vec<Mutex<RankState>> = (0..nranks)
            .map(|_| {
                Mutex::new(RankState {
                    last_hb: Instant::now(),
                    clean: false,
                    gone: false,
                })
            })
            .collect();
        let writers: Vec<Arc<Mutex<ProcStream>>> = self
            .links
            .iter()
            .map(|l| Arc::clone(&l.as_ref().expect("route after accept_workers").writer))
            .collect();
        let deaths: Mutex<Vec<(usize, Duration, bool)>> = Mutex::new(Vec::new());
        let states = &states;
        let writers = &writers;
        let on_stall = &on_stall;
        let deaths_ref = &deaths;

        // Broadcast a death to every rank still attached. Sends to
        // already-gone sockets fail silently — their readers have
        // already returned.
        let broadcast_death = move |dead: usize, age: Duration| {
            let frame = Frame::PeerDead {
                rank: dead as u32,
                last_hb_age_ms: age.as_millis() as u64,
            };
            for (rank, writer) in writers.iter().enumerate() {
                if rank == dead {
                    continue;
                }
                let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = write_frame(&mut w, &frame);
            }
        };
        let broadcast_death = &broadcast_death;

        std::thread::scope(|scope| {
            // Per-worker reader/router threads.
            for (rank, link) in self.links.iter_mut().enumerate() {
                let mut reader = link
                    .as_mut()
                    .and_then(|l| l.reader.take())
                    .expect("route after accept_workers");
                scope.spawn(move || loop {
                    let next = read_frame_bytes(&mut reader);
                    if let Some((framed, dst)) = next.as_ref().ok().and_then(|f| Some((f, data_dst(f)?))) {
                        // Data also proves liveness — a rank deep in
                        // a send burst may beat less promptly.
                        states[rank].lock().unwrap_or_else(PoisonError::into_inner).last_hb = Instant::now();
                        if dst < nranks {
                            let mut w = writers[dst].lock().unwrap_or_else(PoisonError::into_inner);
                            // Forwarded as read, undecoded. Delivery
                            // failure to a dead dst is not this rank's
                            // problem: dst's own reader reports the death.
                            let _ = w.write_all(framed).and_then(|()| w.flush());
                        }
                        continue;
                    }
                    match next.and_then(|mut framed| {
                        framed.drain(..4);
                        Frame::decode(framed)
                    }) {
                        Ok(Frame::Heartbeat { .. }) => {
                            states[rank].lock().unwrap_or_else(PoisonError::into_inner).last_hb = Instant::now();
                        }
                        Ok(Frame::Goodbye { .. }) => {
                            states[rank].lock().unwrap_or_else(PoisonError::into_inner).clean = true;
                        }
                        Ok(_) => {}
                        Err(_) => {
                            // EOF or error: the worker is gone.
                            let mut st = states[rank].lock().unwrap_or_else(PoisonError::into_inner);
                            if st.gone {
                                return; // stall monitor got here first
                            }
                            st.gone = true;
                            let clean = st.clean;
                            let age = st.last_hb.elapsed();
                            drop(st);
                            if !clean {
                                deaths_ref.lock().unwrap_or_else(PoisonError::into_inner).push((rank, age, false));
                            }
                            // Clean or not, the rank is gone: tell the
                            // survivors so a receive still waiting on it
                            // (e.g. after a fault abort elsewhere in the
                            // fabric) disconnects instead of hanging.
                            // Already-routed data stays deliverable —
                            // the worker's queues drain before they
                            // report the disconnect.
                            broadcast_death(rank, age);
                            return;
                        }
                    }
                });
            }

            // Stall monitor: bounds detection of wedged-but-alive
            // workers. A rank whose heartbeat is older than the bound
            // is declared dead here; `on_stall` kills the child, whose
            // socket EOF then unblocks its reader thread above.
            scope.spawn(move || {
                loop {
                    std::thread::sleep(HEARTBEAT_PERIOD);
                    let mut all_gone = true;
                    for (rank, state) in states.iter().enumerate() {
                        let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                        if st.gone {
                            continue;
                        }
                        all_gone = false;
                        let age = st.last_hb.elapsed();
                        if age > STALL_BOUND && !st.clean {
                            st.gone = true;
                            drop(st);
                            deaths_ref.lock().unwrap_or_else(PoisonError::into_inner).push((rank, age, true));
                            broadcast_death(rank, age);
                            on_stall(rank);
                            // Unblock the reader even if the kill
                            // failed (e.g. already a zombie).
                            writers[rank].lock().unwrap_or_else(PoisonError::into_inner).shutdown();
                        }
                    }
                    if all_gone {
                        return;
                    }
                }
            });
        });

        RouteReport {
            deaths: deaths
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{collectives, wire};

    fn frame_roundtrip(frame: Frame) {
        let encoded = frame.encode();
        let len = u32::from_le_bytes(encoded[..4].try_into().unwrap()) as usize;
        assert_eq!(len, encoded.len() - 4, "length prefix covers the payload");
        assert_eq!(Frame::decode(encoded[4..].to_vec()).unwrap(), frame);
    }

    #[test]
    fn frames_roundtrip_through_the_length_prefixed_encoding() {
        frame_roundtrip(Frame::Hello { rank: 3, pid: 4242 });
        frame_roundtrip(Frame::Welcome { nranks: 8 });
        frame_roundtrip(Frame::Data {
            src: 1,
            dst: 2,
            wire_bytes: 96,
            type_name: "alloc::vec::Vec<f64>".into(),
            body: wire::to_vec(&vec![1.5f64, f64::NEG_INFINITY]),
        });
        frame_roundtrip(Frame::Heartbeat { rank: 7 });
        frame_roundtrip(Frame::PeerDead {
            rank: 2,
            last_hb_age_ms: 1234,
        });
        frame_roundtrip(Frame::Goodbye { rank: 0 });
    }

    #[test]
    fn the_router_reads_a_data_frames_destination_off_its_header() {
        let data = Frame::Data {
            src: 1,
            dst: 3,
            wire_bytes: 8,
            type_name: "f64".into(),
            body: wire::to_vec(&2.5f64),
        };
        assert_eq!(data_dst(&data.encode()), Some(3));
        assert_eq!(data_dst(&Frame::Heartbeat { rank: 3 }.encode()), None);
        assert_eq!(data_dst(&data.encode()[..12]), None, "a header cut short");
    }

    #[test]
    fn truncated_and_unknown_frames_are_errors() {
        let encoded = Frame::Hello { rank: 1, pid: 2 }.encode();
        assert!(Frame::decode(encoded[4..encoded.len() - 1].to_vec()).is_err());
        assert!(Frame::decode(vec![99]).is_err());
        assert!(Frame::decode(Vec::new()).is_err());
        // trailing bytes after a valid frame body
        let mut padded = encoded[4..].to_vec();
        padded.push(0);
        assert!(Frame::decode(padded).is_err());
    }

    #[test]
    fn proc_addr_parses_both_flavors() {
        assert_eq!(
            ProcAddr::parse("unix:/tmp/x.sock").unwrap(),
            ProcAddr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            ProcAddr::parse("/tmp/y.sock").unwrap(),
            ProcAddr::Unix(PathBuf::from("/tmp/y.sock"))
        );
        assert_eq!(
            ProcAddr::parse("tcp:127.0.0.1:9000").unwrap(),
            ProcAddr::Tcp("127.0.0.1:9000".into())
        );
        assert!(ProcAddr::parse("tcp:").is_err());
        assert!(ProcAddr::parse("").is_err());
    }

    #[test]
    fn connecting_to_a_supervisor_that_never_binds_times_out() {
        // Satellite: the connect/handshake phase is bounded — a peer
        // that never spawns yields a typed Timeout, not a hang.
        let start = Instant::now();
        let result = connect_worker(WorkerConfig {
            rank: 1,
            nranks: 2,
            addr: ProcAddr::Unix(PathBuf::from("/tmp/mn-proc-test-nobody-home.sock")),
            connect_timeout: Duration::from_millis(200),
            recv_timeout: None,
            faults: FaultPlan::default(),
            dump_dir: PathBuf::from("."),
        });
        let elapsed = start.elapsed();
        match result.map(|_| ()).expect_err("must not connect") {
            CommError::Timeout { src, dst, .. } => {
                assert_eq!((src, dst), (1, 1), "handshake timeouts name the rank itself");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(elapsed < Duration::from_secs(5), "bounded, not hung");
    }

    #[test]
    fn supervisor_accept_times_out_when_workers_never_call_in() {
        let dir = std::env::temp_dir().join(format!("mn-proc-accept-{}", sys::current_pid()));
        let sock = dir.join("s.sock");
        let mut sup = Supervisor::bind(&ProcAddr::Unix(sock), 2).unwrap();
        match sup.accept_workers(Duration::from_millis(150)) {
            Err(CommError::Timeout { src, .. }) => assert_eq!(src, 0, "lowest missing rank"),
            other => panic!("expected Timeout, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// End-to-end over real sockets, with the "processes" as threads:
    /// the framing, routing, handshake, and collectives are identical
    /// whether the endpoint lives in a thread or a forked process.
    #[test]
    fn two_workers_route_collectives_through_the_supervisor() {
        let dir = std::env::temp_dir().join(format!("mn-proc-e2e-{}", sys::current_pid()));
        let sock = dir.join("s.sock");
        let addr = ProcAddr::Unix(sock);
        let mut sup = Supervisor::bind(&addr, 2).unwrap();
        let worker_addr = sup.addr().clone();

        let workers: Vec<_> = (0..2usize)
            .map(|rank| {
                let addr = worker_addr.clone();
                std::thread::spawn(move || {
                    let ep = connect_worker(WorkerConfig {
                        rank,
                        nranks: 2,
                        addr,
                        connect_timeout: Duration::from_secs(10),
                        recv_timeout: Some(Duration::from_secs(10)),
                        faults: FaultPlan::default(),
                        dump_dir: PathBuf::from("."),
                    })
                    .unwrap();
                    // A float payload that JSON would mangle.
                    let sum = collectives::allreduce(
                        &ep,
                        vec![rank as f64 + 0.5, f64::NEG_INFINITY],
                        |a, b| a.iter().zip(b.iter()).map(|(x, y)| x + y).collect(),
                    )
                    .unwrap();
                    let gathered = collectives::allgatherv(&ep, vec![rank as u64; rank + 1]).unwrap();
                    collectives::barrier(&ep).unwrap();
                    ep.goodbye();
                    (sum, gathered)
                })
            })
            .collect();

        sup.accept_workers(Duration::from_secs(10)).unwrap();
        let report = sup.route(|_| {});
        for (rank, result) in workers.into_iter().enumerate() {
            let (sum, gathered) = result.join().unwrap();
            assert_eq!(sum, vec![2.0, f64::NEG_INFINITY], "rank {rank} allreduce");
            assert_eq!(gathered, vec![0u64, 1, 1], "rank {rank} gather");
        }
        assert!(report.deaths.is_empty(), "both said goodbye: {:?}", report.deaths);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A worker that vanishes mid-protocol surfaces as PeerDisconnected
    /// on the survivor, not a deadlock.
    #[test]
    fn peer_death_resolves_survivor_receives() {
        let dir = std::env::temp_dir().join(format!("mn-proc-death-{}", sys::current_pid()));
        let sock = dir.join("s.sock");
        let addr = ProcAddr::Unix(sock);
        let mut sup = Supervisor::bind(&addr, 2).unwrap();
        let worker_addr = sup.addr().clone();

        let survivor = {
            let addr = worker_addr.clone();
            std::thread::spawn(move || {
                let ep = connect_worker(WorkerConfig {
                    rank: 0,
                    nranks: 2,
                    addr,
                    connect_timeout: Duration::from_secs(10),
                    recv_timeout: None, // peer death must resolve this, not a timeout
                    faults: FaultPlan::default(),
                    dump_dir: PathBuf::from("."),
                })
                .unwrap();
                let res: Result<u64, _> = ep.recv_from(1);
                ep.goodbye();
                res
            })
        };
        let vanisher = {
            let addr = worker_addr;
            std::thread::spawn(move || {
                let ep = connect_worker(WorkerConfig {
                    rank: 1,
                    nranks: 2,
                    addr,
                    connect_timeout: Duration::from_secs(10),
                    recv_timeout: None,
                    faults: FaultPlan::default(),
                    dump_dir: PathBuf::from("."),
                })
                .unwrap();
                // Drop without Goodbye: socket closes like a dead process.
                drop(ep);
            })
        };

        sup.accept_workers(Duration::from_secs(10)).unwrap();
        let report = sup.route(|_| {});
        vanisher.join().unwrap();
        match survivor.join().unwrap() {
            Err(CommError::PeerDisconnected { peer, rank, .. }) => {
                assert_eq!((peer, rank), (1, 0));
            }
            other => panic!("expected PeerDisconnected, got {other:?}"),
        }
        match report.deaths[..] {
            [(1, _, stalled)] => assert!(!stalled, "EOF, not stall"),
            ref other => panic!("expected rank 1's death alone, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

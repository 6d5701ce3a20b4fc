//! Point-to-point message fabric.
//!
//! The machine model of §3.1: p processors with private memory that
//! "communicate with the other processors using a communication
//! network", where distinct pairs may communicate concurrently. The
//! fabric is a full mesh of FIFO channels — one dedicated channel per
//! ordered (source, destination) pair — so a deterministic protocol
//! sees deterministic message order, exactly like MPI's non-overtaking
//! guarantee on a single tag.
//!
//! Payloads travel as `Box<dyn Any + Send>` tagged with the sender's
//! `type_name`: ranks live in one process, so "sending" moves
//! ownership instead of serializing. Every operation returns
//! `Result<_, CommError>` — a dead peer surfaces as
//! [`CommError::PeerDisconnected`], a dropped message as
//! [`CommError::Timeout`] (when a receive timeout is configured), and
//! a typed-protocol violation as [`CommError::ProtocolMismatch`]
//! naming both types and the (src, dst, event#) coordinates.
//!
//! Each endpoint counts its *fabric events* (every send or receive is
//! one, numbered from 1); a [`FaultPlan`] attached via
//! [`fabric_with_faults`] consults that counter to kill the rank,
//! delay an operation, or drop an outgoing message at a
//! deterministic, reproducible point.

use crate::engine::Wire;
use crate::fault::{CommError, FaultAction, FaultPlan};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mn_obs::commatrix::CommMatrixHandle;
use mn_obs::flightrec::{FlightEvent, FlightRec};
use std::any::Any;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The point-to-point transport contract shared by the in-process
/// fabric ([`Endpoint`]) and the multi-process transport
/// ([`crate::msg::proc::ProcEndpoint`]).
///
/// Everything above the transport — the log-depth collectives and the
/// SPMD engine — is generic over
/// this trait, so the same deterministic protocols run unchanged
/// whether "sending" moves a `Box` between threads or serde-framed
/// bytes between OS processes. The [`Wire`] bound is the union of the
/// two transports' needs; the in-process fabric simply ignores the
/// serde half.
///
/// Implementations must provide the same failure taxonomy: a dead peer
/// is [`CommError::PeerDisconnected`], a lost message under a receive
/// timeout is [`CommError::Timeout`], a type-level protocol violation
/// is [`CommError::ProtocolMismatch`], and an injected fault is
/// [`CommError::Injected`] — so every layer above sees identical
/// errors on both transports.
pub trait Fabric {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of ranks in the fabric.
    fn nranks(&self) -> usize;

    /// Fabric events (sends + receives) completed by this endpoint.
    fn events(&self) -> u64;

    /// Send `value` to rank `dst` with an explicit wire-byte size for
    /// traffic accounting.
    fn send_to_sized<T: Wire>(&self, dst: usize, value: T, wire_bytes: u64)
        -> Result<(), CommError>;

    /// Send `value` to rank `dst`, accounting its shallow `size_of` as
    /// the wire size.
    fn send_to<T: Wire>(&self, dst: usize, value: T) -> Result<(), CommError> {
        self.send_to_sized(dst, value, size_of::<T>() as u64)
    }

    /// Receive the next message from rank `src`, waiting at most the
    /// transport's configured receive timeout.
    fn recv_from<T: Wire>(&self, src: usize) -> Result<T, CommError>;

    /// Attach the owning rank's flight recorder and communication
    /// matrix.
    fn attach_obs(&self, flight: FlightRec, comm: CommMatrixHandle);

    /// Suppress (or resume) observation, e.g. during checkpoint-I/O
    /// barriers that are outside the deterministic accounting contract.
    fn set_obs_muted(&self, muted: bool);
}

/// A payload plus the `type_name` and shallow wire-byte size recorded
/// at the send site, so a receive-side downcast failure can report
/// what was actually sent and the receiver can account the bytes it
/// took delivery of.
type Packet = (&'static str, u64, Box<dyn Any + Send>);

/// Environment variable that sets the default receive timeout (in
/// milliseconds) for fabrics built with [`fabric`]. Unset or `0`
/// means block forever (the pre-fault-tolerance behavior).
pub const RECV_TIMEOUT_ENV: &str = "MN_RECV_TIMEOUT_MS";

fn env_recv_timeout() -> Option<Duration> {
    let ms: u64 = std::env::var(RECV_TIMEOUT_ENV).ok()?.trim().parse().ok()?;
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Observability hooks attachable to an endpoint: the owning rank's
/// flight recorder (per-message send/recv/fault events) and
/// communication matrix (sender-side traffic accounting). `muted`
/// suppresses both during checkpoint-I/O barriers, which are outside
/// the deterministic accounting contract. Shared by the in-process
/// [`Endpoint`] and the multi-process [`crate::msg::proc`] transport
/// so both record identically.
#[derive(Default)]
pub(crate) struct ObsHooks {
    pub(crate) flight: Option<FlightRec>,
    comm: Option<CommMatrixHandle>,
    muted: bool,
}

impl ObsHooks {
    /// Attach the owning rank's recorders.
    pub(crate) fn attach(&mut self, flight: FlightRec, comm: CommMatrixHandle) {
        self.flight = Some(flight);
        self.comm = Some(comm);
    }

    /// Set (or clear) muting.
    pub(crate) fn set_muted(&mut self, muted: bool) {
        self.muted = muted;
    }

    /// Record a flight event. Fault injections are never muted: a kill
    /// firing inside a muted checkpoint barrier must still leave its
    /// mark in the dump.
    pub(crate) fn note_flight(&self, event: FlightEvent) {
        if self.muted && !matches!(event, FlightEvent::FaultInjected { .. }) {
            return;
        }
        if let Some(flight) = &self.flight {
            flight.record(event);
        }
    }

    /// Record one delivered outgoing message (flight + matrix).
    pub(crate) fn note_send(&self, rank: usize, dst: usize, bytes: u64) {
        if self.muted {
            return;
        }
        if let Some(flight) = &self.flight {
            flight.record(FlightEvent::Send { peer: dst, bytes });
        }
        if let Some(comm) = &self.comm {
            comm.record(rank, dst, bytes);
        }
    }
}

/// One rank's view of the fabric.
pub struct Endpoint {
    rank: usize,
    /// `to[d]` sends to rank d (including self, for protocol symmetry).
    to: Vec<Sender<Packet>>,
    /// `from[s]` receives from rank s.
    from: Vec<Receiver<Packet>>,
    /// Fabric events completed by this endpoint (sends + receives).
    /// Atomic only to keep `Endpoint: Sync`; each endpoint is used by
    /// one rank-thread, so `Relaxed` ordering suffices.
    events: AtomicU64,
    /// Max wait per receive; `None` blocks forever.
    recv_timeout: Option<Duration>,
    /// Deterministic fault schedule, if injection is active.
    faults: FaultPlan,
    /// Attached observers (mutex only to keep `Endpoint: Sync`; each
    /// endpoint is driven by one rank-thread).
    obs: Mutex<ObsHooks>,
}

impl Endpoint {
    /// This endpoint's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the fabric.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.to.len()
    }

    /// Fabric events (sends + receives) completed by this endpoint.
    #[inline]
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Attach the owning rank's flight recorder and communication
    /// matrix: every subsequent send/recv/fault on this endpoint is
    /// recorded.
    pub fn attach_obs(&self, flight: FlightRec, comm: CommMatrixHandle) {
        self.obs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).attach(flight, comm);
    }

    /// Suppress (or resume) observation. Checkpoint-I/O barriers mute
    /// the endpoint so fsync coordination never perturbs the traffic
    /// accounting — the same contract that keeps those barriers out of
    /// the deterministic counters.
    pub fn set_obs_muted(&self, muted: bool) {
        self.obs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).set_muted(muted);
    }

    /// Record a flight event through the attached observers.
    fn note_flight(&self, event: FlightEvent) {
        self.obs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).note_flight(event);
    }

    /// Record one delivered outgoing message (flight + matrix).
    fn note_send(&self, dst: usize, bytes: u64) {
        self.obs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).note_send(self.rank, dst, bytes);
    }

    /// Count one fabric event and return any fault scheduled for it.
    /// `Die` (a real process `SIGKILL` on the proc transport) degrades
    /// to `Kill` semantics here: an in-process rank cannot kill its
    /// OS process without taking every other rank with it.
    fn tick(&self) -> Result<Option<FaultAction>, CommError> {
        let event = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        match self.faults.action(self.rank, event) {
            Some(action @ (FaultAction::Kill | FaultAction::Die)) => {
                self.note_flight(FlightEvent::FaultInjected {
                    action: action.label().to_string(),
                    event,
                });
                Err(CommError::Injected {
                    rank: self.rank,
                    event,
                })
            }
            Some(FaultAction::Delay(d)) => {
                self.note_flight(FlightEvent::FaultInjected {
                    action: FaultAction::Delay(d).label().to_string(),
                    event,
                });
                std::thread::sleep(d);
                Ok(None)
            }
            other => Ok(other),
        }
    }

    /// Send `value` to rank `dst` (non-blocking; channels are
    /// unbounded). Fails if `dst` has dropped its endpoint or a fault
    /// plan kills this rank at this event. The recorded wire size is
    /// the payload's shallow `size_of`; senders of heap-backed
    /// payloads use [`Endpoint::send_to_sized`].
    pub fn send_to<T: Send + 'static>(&self, dst: usize, value: T) -> Result<(), CommError> {
        self.send_to_sized(dst, value, size_of::<T>() as u64)
    }

    /// [`Endpoint::send_to`] with an explicit wire-byte size for
    /// traffic accounting (e.g. `len * size_of::<T>()` for a `Vec<T>`
    /// whose shallow size would undercount).
    pub fn send_to_sized<T: Send + 'static>(
        &self,
        dst: usize,
        value: T,
        wire_bytes: u64,
    ) -> Result<(), CommError> {
        if let Some(FaultAction::Drop) = self.tick()? {
            // Injected message loss: silently discard. The drop is a
            // local event — the message never traveled, so neither the
            // matrix nor the peer sees it.
            self.note_flight(FlightEvent::FaultInjected {
                action: FaultAction::Drop.label().to_string(),
                event: self.events(),
            });
            self.note_flight(FlightEvent::MsgDropped { peer: dst });
            return Ok(());
        }
        self.to[dst]
            .send((std::any::type_name::<T>(), wire_bytes, Box::new(value)))
            .map_err(|_| CommError::PeerDisconnected {
                peer: dst,
                rank: self.rank,
                event: self.events(),
            })?;
        self.note_send(dst, wire_bytes);
        Ok(())
    }

    /// Receive the next message from rank `src`, waiting at most the
    /// configured receive timeout (forever if none is set).
    ///
    /// Fails with [`CommError::PeerDisconnected`] if `src` died,
    /// [`CommError::Timeout`] if nothing arrived in time, and
    /// [`CommError::ProtocolMismatch`] if the payload's type is not
    /// `T` — collective protocols are lock-step, so a type mismatch is
    /// a protocol bug, but it is reported with full coordinates
    /// instead of a bare panic.
    pub fn recv_from<T: Send + 'static>(&self, src: usize) -> Result<T, CommError> {
        self.tick()?; // Drop only affects sends; Delay already slept
        let event = self.events();
        let packet = match self.recv_timeout {
            None => self.from[src].recv().map_err(|_| CommError::PeerDisconnected {
                peer: src,
                rank: self.rank,
                event,
            })?,
            Some(timeout) => match self.from[src].recv_timeout(timeout) {
                Ok(packet) => packet,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerDisconnected {
                        peer: src,
                        rank: self.rank,
                        event,
                    })
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::Timeout {
                        src,
                        dst: self.rank,
                        event,
                        waited: timeout,
                    })
                }
            },
        };
        let (sent_type, wire_bytes, payload) = packet;
        self.note_flight(FlightEvent::Recv {
            peer: src,
            bytes: wire_bytes,
        });
        payload
            .downcast::<T>()
            .map(|boxed| *boxed)
            .map_err(|_| CommError::ProtocolMismatch {
                expected: std::any::type_name::<T>(),
                actual: sent_type,
                src,
                dst: self.rank,
                event,
            })
    }
}

impl Fabric for Endpoint {
    #[inline]
    fn rank(&self) -> usize {
        Endpoint::rank(self)
    }

    #[inline]
    fn nranks(&self) -> usize {
        Endpoint::nranks(self)
    }

    #[inline]
    fn events(&self) -> u64 {
        Endpoint::events(self)
    }

    fn send_to_sized<T: Wire>(
        &self,
        dst: usize,
        value: T,
        wire_bytes: u64,
    ) -> Result<(), CommError> {
        Endpoint::send_to_sized(self, dst, value, wire_bytes)
    }

    fn recv_from<T: Wire>(&self, src: usize) -> Result<T, CommError> {
        Endpoint::recv_from(self, src)
    }

    fn attach_obs(&self, flight: FlightRec, comm: CommMatrixHandle) {
        Endpoint::attach_obs(self, flight, comm)
    }

    fn set_obs_muted(&self, muted: bool) {
        Endpoint::set_obs_muted(self, muted)
    }
}

/// Build a fully connected fabric of `p` endpoints. The receive
/// timeout defaults to blocking forever, overridable via the
/// [`RECV_TIMEOUT_ENV`] environment variable.
pub fn fabric(p: usize) -> Vec<Endpoint> {
    fabric_with_faults(p, FaultPlan::new(), env_recv_timeout())
}

/// Build a fabric with an attached [`FaultPlan`] and receive timeout.
/// Pass an empty plan and `None` for undisturbed blocking behavior.
pub fn fabric_with_faults(
    p: usize,
    faults: FaultPlan,
    recv_timeout: Option<Duration>,
) -> Vec<Endpoint> {
    assert!(p >= 1, "need at least one rank");
    // senders[s][d] / receivers[d][s]
    let mut senders: Vec<Vec<Sender<Packet>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    let mut receivers: Vec<Vec<Receiver<Packet>>> =
        (0..p).map(|_| Vec::with_capacity(p)).collect();
    #[allow(clippy::needless_range_loop)]
    for s in 0..p {
        for d in 0..p {
            let (tx, rx) = unbounded();
            senders[s].push(tx);
            receivers[d].push(rx);
        }
    }
    senders
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(rank, (to, from))| Endpoint {
            rank,
            to,
            from,
            events: AtomicU64::new(0),
            recv_timeout,
            faults: faults.clone(),
            obs: Mutex::new(ObsHooks::default()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_fifo_delivery() {
        let endpoints = fabric(2);
        let (a, b) = (&endpoints[0], &endpoints[1]);
        a.send_to(1, 10u32).unwrap();
        a.send_to(1, 20u32).unwrap();
        assert_eq!(b.recv_from::<u32>(0).unwrap(), 10);
        assert_eq!(b.recv_from::<u32>(0).unwrap(), 20);
        assert_eq!(a.events(), 2);
        assert_eq!(b.events(), 2);
    }

    #[test]
    fn channels_are_per_pair() {
        // A message from rank 2 never blocks or reorders the rank-1
        // stream.
        let endpoints = fabric(3);
        endpoints[2].send_to(0, "from2").unwrap();
        endpoints[1].send_to(0, "from1").unwrap();
        assert_eq!(endpoints[0].recv_from::<&str>(1).unwrap(), "from1");
        assert_eq!(endpoints[0].recv_from::<&str>(2).unwrap(), "from2");
    }

    #[test]
    fn self_send_works() {
        let endpoints = fabric(1);
        endpoints[0].send_to(0, vec![1u8, 2, 3]).unwrap();
        assert_eq!(endpoints[0].recv_from::<Vec<u8>>(0).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn cross_thread_exchange() {
        let mut endpoints = fabric(2);
        let b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                a.send_to(1, 41u64).unwrap();
                assert_eq!(a.recv_from::<u64>(1).unwrap(), 42);
            });
            scope.spawn(move || {
                let v = b.recv_from::<u64>(0).unwrap();
                b.send_to(0, v + 1).unwrap();
            });
        });
    }

    #[test]
    fn type_mismatch_reports_both_types_and_coordinates() {
        let endpoints = fabric(1);
        endpoints[0].send_to(0, 1u32).unwrap();
        let err = endpoints[0].recv_from::<String>(0).unwrap_err();
        match err {
            CommError::ProtocolMismatch {
                expected,
                actual,
                src,
                dst,
                event,
            } => {
                assert_eq!(expected, std::any::type_name::<String>());
                assert_eq!(actual, std::any::type_name::<u32>());
                assert_eq!((src, dst), (0, 0));
                assert_eq!(event, 2); // send was event 1, recv event 2
            }
            other => panic!("expected ProtocolMismatch, got {other:?}"),
        }
    }

    #[test]
    fn dead_peer_disconnects_instead_of_blocking() {
        let mut endpoints = fabric(2);
        let b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        drop(b); // rank 1 "dies"
        let err = a.recv_from::<u32>(1).unwrap_err();
        assert_eq!(
            err,
            CommError::PeerDisconnected {
                peer: 1,
                rank: 0,
                event: 1
            }
        );
        let err = a.send_to(1, 5u8).unwrap_err();
        assert_eq!(
            err,
            CommError::PeerDisconnected {
                peer: 1,
                rank: 0,
                event: 2
            }
        );
    }

    #[test]
    fn dropped_message_times_out() {
        // Rank 0's first send (event #1) is dropped; rank 1's recv
        // must time out rather than block forever.
        let plan = FaultPlan::new().drop_message(0, 1);
        let endpoints = fabric_with_faults(2, plan, Some(Duration::from_millis(20)));
        endpoints[0].send_to(1, 7u32).unwrap(); // discarded
        let err = endpoints[1].recv_from::<u32>(0).unwrap_err();
        assert_eq!(
            err,
            CommError::Timeout {
                src: 0,
                dst: 1,
                event: 1,
                waited: Duration::from_millis(20)
            }
        );
        // The fabric stays usable: the next send is delivered.
        endpoints[0].send_to(1, 8u32).unwrap();
        assert_eq!(endpoints[1].recv_from::<u32>(0).unwrap(), 8);
    }

    #[test]
    fn kill_fires_at_the_scheduled_event() {
        let plan = FaultPlan::new().kill(0, 2);
        let endpoints = fabric_with_faults(1, plan, None);
        endpoints[0].send_to(0, 1u8).unwrap(); // event 1: fine
        let err = endpoints[0].recv_from::<u8>(0).unwrap_err(); // event 2: dies
        assert_eq!(err, CommError::Injected { rank: 0, event: 2 });
    }

    #[test]
    fn attached_obs_records_traffic_and_faults() {
        let plan = FaultPlan::new().drop_message(0, 3);
        let endpoints = fabric_with_faults(2, plan, Some(Duration::from_millis(20)));
        let flight0 = FlightRec::new(2, 0);
        let comm0 = CommMatrixHandle::new(2);
        endpoints[0].attach_obs(flight0.clone(), comm0.clone());
        let flight1 = FlightRec::new(2, 1);
        let comm1 = CommMatrixHandle::new(2);
        endpoints[1].attach_obs(flight1.clone(), comm1.clone());

        endpoints[0].send_to(1, 7u32).unwrap(); // event 1: delivered
        assert_eq!(endpoints[1].recv_from::<u32>(0).unwrap(), 7);
        endpoints[0]
            .send_to_sized(1, vec![1u64, 2, 3], 24)
            .unwrap(); // event 2: delivered, explicit wire size
        assert_eq!(endpoints[1].recv_from::<Vec<u64>>(0).unwrap(), vec![1, 2, 3]);
        endpoints[0].send_to(1, 9u32).unwrap(); // event 3: dropped

        let local0: Vec<FlightEvent> =
            flight0.local_events().into_iter().map(|r| r.event).collect();
        assert_eq!(
            local0,
            vec![
                FlightEvent::Send { peer: 1, bytes: 4 },
                FlightEvent::Send { peer: 1, bytes: 24 },
                FlightEvent::FaultInjected {
                    action: "drop".into(),
                    event: 3
                },
                FlightEvent::MsgDropped { peer: 1 },
            ]
        );
        let local1: Vec<FlightEvent> =
            flight1.local_events().into_iter().map(|r| r.event).collect();
        assert_eq!(
            local1,
            vec![
                FlightEvent::Recv { peer: 0, bytes: 4 },
                FlightEvent::Recv { peer: 0, bytes: 24 },
            ]
        );
        // Matrix: sender-side only, dropped message not counted.
        let mat = comm0.snapshot();
        assert_eq!(mat.phases[0].msgs[1], 2);
        assert_eq!(mat.phases[0].bytes[1], 28);
        assert_eq!(comm1.snapshot().total_msgs(), 0);

        // Muted endpoints record nothing.
        endpoints[0].set_obs_muted(true);
        endpoints[0].send_to(1, 1u8).unwrap();
        endpoints[0].set_obs_muted(false);
        assert_eq!(comm0.snapshot().total_msgs(), 2);
        assert_eq!(flight0.local_events().len(), 4);
    }

    #[test]
    fn delay_preserves_results() {
        let plan = FaultPlan::new().delay(0, 1, Duration::from_millis(5));
        let endpoints = fabric_with_faults(1, plan, None);
        let start = std::time::Instant::now();
        endpoints[0].send_to(0, 3u16).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(endpoints[0].recv_from::<u16>(0).unwrap(), 3);
    }
}

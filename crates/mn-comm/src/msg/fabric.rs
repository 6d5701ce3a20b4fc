//! Point-to-point message fabric: the one endpoint every transport
//! shares.
//!
//! The machine model of §3.1: p processors with private memory that
//! "communicate with the other processors using a communication
//! network", where distinct pairs may communicate concurrently. Each
//! [`Endpoint`] holds one FIFO queue per source rank, so a
//! deterministic protocol sees deterministic message order, exactly
//! like MPI's non-overtaking guarantee on a single tag.
//!
//! Two transports fill those queues. [`fabric`] builds a full mesh of
//! in-process channels for rank threads: "sending" moves the boxed
//! value, no bytes are encoded. [`crate::msg::proc::connect_worker`]
//! builds the endpoint of one OS-process worker: a send becomes a
//! serde-framed `Data` frame to the supervisor, whose reader thread
//! feeds the queues with encoded bodies. Everything else — the event
//! clock, the fault schedule, the timeout and disconnect mapping, the
//! type check and the flight/comm-matrix notes — is written once
//! here, so the collectives and the SPMD engine see identical
//! behaviour on both.
//!
//! Every operation returns `Result<_, CommError>`: a dead peer
//! surfaces as [`CommError::PeerDisconnected`], a dropped message as
//! [`CommError::Timeout`] (when a receive timeout is configured), and
//! a typed-protocol violation as [`CommError::ProtocolMismatch`]
//! naming both types and the (src, dst, event#) coordinates.
//!
//! Each endpoint counts its *fabric events* (every send or receive is
//! one, numbered from 1); a [`FaultPlan`] attached via
//! [`fabric_with_faults`] (or the worker's config) consults that
//! counter to kill the rank, delay an operation, or drop an outgoing
//! message at a deterministic, reproducible point.

use crate::engine::Wire;
use crate::fault::{CommError, FaultAction, FaultPlan};
use crate::msg::proc::SocketOut;
use crate::msg::wire;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mn_obs::commatrix::CommMatrixHandle;
use mn_obs::flightrec::{FlightEvent, FlightRec};
use std::any::{type_name, Any};
use std::borrow::Cow;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A payload as it waits in a per-source queue: the value itself for
/// rank threads, its wire encoding for a proc worker.
pub(crate) enum Body {
    Value(Box<dyn Any + Send>),
    Encoded(Vec<u8>),
}

/// A queued message: the sender's `type_name` (so a receive-side type
/// failure can report what was actually sent), the accounting wire
/// size, and the body.
pub(crate) type Packet = (Cow<'static, str>, u64, Body);

/// How a send leaves this endpoint.
pub(crate) enum Outbox {
    /// `to[d]` is the channel into rank d's queue from this rank
    /// (including self, for protocol symmetry).
    Local(Vec<Sender<Packet>>),
    /// The proc worker's link to the supervisor.
    Socket(SocketOut),
}

/// Observability hooks attachable to an endpoint: the owning rank's
/// flight recorder (per-message send/recv/fault events) and
/// communication matrix (sender-side traffic accounting). `muted`
/// suppresses both during checkpoint-I/O barriers, which are outside
/// the deterministic accounting contract.
#[derive(Default)]
struct ObsHooks {
    flight: Option<FlightRec>,
    comm: Option<CommMatrixHandle>,
    muted: bool,
}

/// One rank's view of the fabric.
pub struct Endpoint {
    rank: usize,
    /// `from[s]` receives from rank s.
    from: Vec<Receiver<Packet>>,
    out: Outbox,
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
    pub(crate) fn new(
        rank: usize,
        from: Vec<Receiver<Packet>>,
        out: Outbox,
        recv_timeout: Option<Duration>,
        faults: FaultPlan,
    ) -> Endpoint {
        Endpoint {
            rank,
            from,
            out,
            events: AtomicU64::new(0),
            recv_timeout,
            faults,
            obs: Mutex::new(ObsHooks::default()),
        }
    }

    /// This endpoint's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the fabric.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.from.len()
    }

    /// Fabric events (sends + receives) completed by this endpoint.
    #[inline]
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    fn obs(&self) -> MutexGuard<'_, ObsHooks> {
        self.obs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attach the owning rank's flight recorder and communication
    /// matrix: every subsequent send/recv/fault on this endpoint is
    /// recorded.
    pub fn attach_obs(&self, flight: FlightRec, comm: CommMatrixHandle) {
        let mut obs = self.obs();
        obs.flight = Some(flight);
        obs.comm = Some(comm);
    }

    /// Suppress (or resume) observation. Checkpoint-I/O barriers mute
    /// the endpoint so fsync coordination never perturbs the traffic
    /// accounting — the same contract that keeps those barriers out of
    /// the deterministic counters.
    pub fn set_obs_muted(&self, muted: bool) {
        self.obs().muted = muted;
    }

    /// Record a flight event. Fault injections are never muted: a kill
    /// firing inside a muted checkpoint barrier must still leave its
    /// mark in the dump.
    fn note_flight(&self, event: FlightEvent) {
        let obs = self.obs();
        if obs.muted && !matches!(event, FlightEvent::FaultInjected { .. }) {
            return;
        }
        if let Some(flight) = &obs.flight {
            flight.record(event);
        }
    }

    /// Record one delivered outgoing message (flight + matrix).
    fn note_send(&self, dst: usize, bytes: u64) {
        let obs = self.obs();
        if obs.muted {
            return;
        }
        if let Some(flight) = &obs.flight {
            flight.record(FlightEvent::Send { peer: dst, bytes });
        }
        if let Some(comm) = &obs.comm {
            comm.record(self.rank, dst, bytes);
        }
    }

    /// Count one fabric event and return any fault scheduled for it.
    /// `Die` is a real `SIGKILL` on a proc worker (after dumping the
    /// flight ring, the only trace it leaves); on a rank thread it
    /// degrades to `Kill`, since an in-process rank cannot kill its OS
    /// process without taking every other rank with it.
    fn tick(&self) -> Result<Option<FaultAction>, CommError> {
        let event = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        match self.faults.action(self.rank, event) {
            Some(action @ (FaultAction::Kill | FaultAction::Die)) => {
                self.note_flight(FlightEvent::FaultInjected {
                    action: action.label().to_string(),
                    event,
                });
                if let (FaultAction::Die, Outbox::Socket(socket)) = (action, &self.out) {
                    socket.die(self.obs().flight.as_ref());
                }
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

    /// Send `value` to rank `dst` (non-blocking; queues are
    /// unbounded). Fails if `dst` has dropped its endpoint or a fault
    /// plan kills this rank at this event. The recorded wire size is
    /// the payload's shallow `size_of`; senders of heap-backed
    /// payloads use [`Endpoint::send_to_sized`].
    pub fn send_to<T: Wire>(&self, dst: usize, value: T) -> Result<(), CommError> {
        self.send_to_sized(dst, value, size_of::<T>() as u64)
    }

    /// [`Endpoint::send_to`] with an explicit wire-byte size for
    /// traffic accounting (e.g. `len * size_of::<T>()` for a `Vec<T>`
    /// whose shallow size would undercount).
    pub fn send_to_sized<T: Wire>(
        &self,
        dst: usize,
        value: T,
        wire_bytes: u64,
    ) -> Result<(), CommError> {
        self.deliver(dst, type_name::<T>(), wire_bytes, |socket| {
            if socket {
                Body::Encoded(wire::to_vec(&value))
            } else {
                Body::Value(Box::new(value))
            }
        })
    }

    /// Send `items` to rank `dst` as a `Vec<T>` ([`Endpoint::recv_vec`]
    /// or `recv_from::<Vec<T>>` takes it), recording `len ×
    /// size_of::<T>()` wire bytes. A rank thread receives the vector
    /// (cloned when `items` is borrowed); a proc worker encodes it
    /// straight from the slice ([`wire::encode`]), so a borrowed slice
    /// is not cloned.
    pub fn send_vec<T: Wire>(&self, dst: usize, items: Cow<'_, [T]>) -> Result<(), CommError> {
        let wire_bytes = std::mem::size_of_val(items.as_ref()) as u64;
        self.deliver(dst, type_name::<Vec<T>>(), wire_bytes, |socket| {
            if socket {
                let mut bytes = Vec::new();
                wire::encode(items.as_ref(), &mut bytes);
                Body::Encoded(bytes)
            } else {
                Body::Value(Box::new(items.into_owned()))
            }
        })
    }

    /// One send of the payload `body(on a socket)` makes, under the
    /// fault plan: a `Drop` discards it unsent, a `Kill` fails here.
    fn deliver(
        &self,
        dst: usize,
        name: &'static str,
        wire_bytes: u64,
        body: impl FnOnce(bool) -> Body,
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
        let event = self.events();
        match &self.out {
            Outbox::Local(to) => to[dst]
                .send((Cow::Borrowed(name), wire_bytes, body(false)))
                .map_err(|_| CommError::PeerDisconnected {
                    peer: dst,
                    rank: self.rank,
                    event,
                }),
            Outbox::Socket(socket) => {
                let Body::Encoded(bytes) = body(true) else {
                    unreachable!("a socket send encodes its payload")
                };
                socket
                    .send(self.rank, dst, name, wire_bytes, bytes)
                    .map_err(|e| {
                        let waited = self.recv_timeout.unwrap_or_default();
                        CommError::from_io_kind(e.kind(), dst, self.rank, event, waited)
                    })
            }
        }?;
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
    pub fn recv_from<T: Wire>(&self, src: usize) -> Result<T, CommError> {
        self.receive(src, wire::from_slice::<T>)
    }

    /// [`Endpoint::recv_from`] of a `Vec<T>`, decoded one item at a time
    /// off a socket ([`wire::from_slice_seq`]).
    pub fn recv_vec<T: Wire>(&self, src: usize) -> Result<Vec<T>, CommError> {
        self.receive(src, wire::from_slice_seq::<T>)
    }

    /// The next message from `src` as a `T`, decoding socket bytes with
    /// `decode`.
    fn receive<T: Wire>(
        &self,
        src: usize,
        decode: impl FnOnce(&[u8]) -> Result<T, wire::WireError>,
    ) -> Result<T, CommError> {
        self.tick()?; // Drop only affects sends; Delay already slept
        let event = self.events();
        let received = match self.recv_timeout {
            None => self.from[src].recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(timeout) => self.from[src].recv_timeout(timeout),
        };
        let (sent_type, wire_bytes, body) = received.map_err(|e| match e {
            RecvTimeoutError::Disconnected => CommError::PeerDisconnected {
                peer: src,
                rank: self.rank,
                event,
            },
            RecvTimeoutError::Timeout => CommError::Timeout {
                src,
                dst: self.rank,
                event,
                waited: self.recv_timeout.unwrap_or_default(),
            },
        })?;
        self.note_flight(FlightEvent::Recv {
            peer: src,
            bytes: wire_bytes,
        });
        let expected = type_name::<T>();
        let mismatch = |actual: &'static str| CommError::ProtocolMismatch {
            expected,
            actual,
            src,
            dst: self.rank,
            event,
        };
        match body {
            Body::Value(value) => value
                .downcast::<T>()
                .map(|boxed| *boxed)
                .map_err(|_| mismatch(leak(sent_type))),
            Body::Encoded(_) if sent_type != expected => Err(mismatch(leak(sent_type))),
            Body::Encoded(bytes) => decode(&bytes)
                .map_err(|e| mismatch(leak(format!("undecodable payload ({e})").into()))),
        }
    }

    /// Announce a clean shutdown, so the supervisor does not report
    /// the EOF that follows a proc worker's exit as a death. Rank
    /// threads have nobody to tell: a no-op there.
    pub fn goodbye(&self) {
        if let Outbox::Socket(socket) = &self.out {
            socket.goodbye(self.rank);
        }
    }
}

/// A type name for a [`CommError::ProtocolMismatch`]. Leaked only on
/// the error path: the rank is about to unwind anyway.
fn leak(name: Cow<'static, str>) -> &'static str {
    match name {
        Cow::Borrowed(name) => name,
        Cow::Owned(name) => Box::leak(name.into_boxed_str()),
    }
}

/// Build a fully connected in-process fabric of `p` endpoints whose
/// receives block until a message arrives or the peer's endpoint is
/// dropped.
pub fn fabric(p: usize) -> Vec<Endpoint> {
    fabric_with_faults(p, FaultPlan::new(), None)
}

/// Build an in-process fabric with an attached [`FaultPlan`] and
/// receive timeout. Pass an empty plan and `None` for undisturbed
/// blocking behavior.
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
        .map(|(rank, (to, from))| {
            Endpoint::new(rank, from, Outbox::Local(to), recv_timeout, faults.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::proc::{connect_worker, ProcAddr, Supervisor, WorkerConfig};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    /// Receive timeout of the contract tests' fabrics: long enough
    /// that a routed socket message never misses it on a loaded box.
    const TIMEOUT: Duration = Duration::from_millis(500);

    /// Run `body` on a 2-rank fabric of each transport in turn: the
    /// in-process mesh of [`fabric_with_faults`], then two proc-worker
    /// endpoints connected from this process to a [`Supervisor`] on a
    /// temp-dir socket. Returns each run's result, in-process first.
    fn on_both<R>(
        faults: FaultPlan,
        recv_timeout: Option<Duration>,
        body: impl Fn(&[Endpoint]) -> R,
    ) -> [R; 2] {
        let local = body(&fabric_with_faults(2, faults.clone(), recv_timeout));

        static PAIRS: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mn-fabric-{}-{}",
            crate::sys::current_pid(),
            PAIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let mut sup = Supervisor::bind(&ProcAddr::Unix(dir.join("s.sock")), 2).unwrap();
        let workers: Vec<_> = (0..2)
            .map(|rank| {
                let cfg = WorkerConfig {
                    rank,
                    nranks: 2,
                    addr: sup.addr().clone(),
                    connect_timeout: Duration::from_secs(10),
                    recv_timeout,
                    faults: faults.clone(),
                    dump_dir: PathBuf::from("."),
                };
                std::thread::spawn(move || connect_worker(cfg).unwrap())
            })
            .collect();
        sup.accept_workers(Duration::from_secs(10)).unwrap();
        let router = std::thread::spawn(move || sup.route(|_| {}));
        let endpoints: Vec<Endpoint> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        let socket = body(&endpoints);
        for ep in &endpoints {
            ep.goodbye();
        }
        drop(endpoints);
        router.join().unwrap();
        let _ = std::fs::remove_dir_all(dir);
        [local, socket]
    }

    fn local_events(flight: &FlightRec) -> Vec<FlightEvent> {
        flight.local_events().into_iter().map(|r| r.event).collect()
    }

    #[test]
    fn pairwise_fifo_delivery() {
        on_both(FaultPlan::new(), None, |eps| {
            let (a, b) = (&eps[0], &eps[1]);
            a.send_to(1, 10u32).unwrap();
            a.send_to(1, 20u32).unwrap();
            assert_eq!(b.recv_from::<u32>(0).unwrap(), 10);
            assert_eq!(b.recv_from::<u32>(0).unwrap(), 20);
            assert_eq!(a.events(), 2);
            assert_eq!(b.events(), 2);
        });
    }

    #[test]
    fn channels_are_per_pair() {
        // A message from rank 2 never blocks or reorders the rank-1
        // stream.
        let endpoints = fabric(3);
        endpoints[2].send_to(0, String::from("from2")).unwrap();
        endpoints[1].send_to(0, String::from("from1")).unwrap();
        assert_eq!(endpoints[0].recv_from::<String>(1).unwrap(), "from1");
        assert_eq!(endpoints[0].recv_from::<String>(2).unwrap(), "from2");
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
        on_both(FaultPlan::new(), None, |eps| {
            eps[0].send_to(1, 1u32).unwrap();
            let err = eps[1].recv_from::<String>(0).unwrap_err();
            assert_eq!(
                err,
                CommError::ProtocolMismatch {
                    expected: type_name::<String>(),
                    actual: type_name::<u32>(),
                    src: 0,
                    dst: 1,
                    event: 1,
                }
            );
        });
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
        on_both(plan, Some(TIMEOUT), |eps| {
            eps[0].send_to(1, 7u32).unwrap(); // discarded
            let err = eps[1].recv_from::<u32>(0).unwrap_err();
            assert_eq!(
                err,
                CommError::Timeout {
                    src: 0,
                    dst: 1,
                    event: 1,
                    waited: TIMEOUT
                }
            );
            // The fabric stays usable: the next send is delivered.
            eps[0].send_to(1, 8u32).unwrap();
            assert_eq!(eps[1].recv_from::<u32>(0).unwrap(), 8);
        });
    }

    #[test]
    fn kill_fires_at_the_scheduled_event() {
        let plan = FaultPlan::new().kill(0, 2);
        on_both(plan, None, |eps| {
            eps[0].send_to(1, 1u8).unwrap(); // event 1: fine
            let err = eps[0].recv_from::<u8>(1).unwrap_err(); // event 2: dies
            assert_eq!(err, CommError::Injected { rank: 0, event: 2 });
        });
    }

    #[test]
    fn attached_obs_records_traffic_and_faults() {
        let plan = FaultPlan::new().drop_message(0, 3);
        let [local, socket] = on_both(plan, Some(TIMEOUT), |eps| {
            let flight0 = FlightRec::new(2, 0);
            let comm0 = CommMatrixHandle::new(2);
            eps[0].attach_obs(flight0.clone(), comm0.clone());
            let flight1 = FlightRec::new(2, 1);
            let comm1 = CommMatrixHandle::new(2);
            eps[1].attach_obs(flight1.clone(), comm1.clone());

            eps[0].send_to(1, 7u32).unwrap(); // event 1: delivered
            assert_eq!(eps[1].recv_from::<u32>(0).unwrap(), 7);
            eps[0].send_to_sized(1, vec![1u64, 2, 3], 24).unwrap(); // event 2: explicit size
            assert_eq!(eps[1].recv_from::<Vec<u64>>(0).unwrap(), vec![1, 2, 3]);
            eps[0].send_to(1, 9u32).unwrap(); // event 3: dropped

            assert_eq!(
                local_events(&flight0),
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
            assert_eq!(
                local_events(&flight1),
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
            eps[0].set_obs_muted(true);
            eps[0].send_to(1, 1u8).unwrap();
            eps[0].set_obs_muted(false);
            assert_eq!(eps[1].recv_from::<u8>(0).unwrap(), 1);
            assert_eq!(comm0.snapshot().total_msgs(), 2);
            assert_eq!(flight0.local_events().len(), 4);
            [local_events(&flight0), local_events(&flight1)]
        });
        assert_eq!(local, socket, "both transports record the same flight events");
    }

    #[test]
    fn delay_preserves_results() {
        let plan = FaultPlan::new().delay(0, 1, Duration::from_millis(5));
        on_both(plan, None, |eps| {
            let flight = FlightRec::new(2, 0);
            eps[0].attach_obs(flight.clone(), CommMatrixHandle::new(2));
            let start = std::time::Instant::now();
            eps[0].send_to(1, 3u16).unwrap();
            assert!(start.elapsed() >= Duration::from_millis(5));
            assert_eq!(eps[1].recv_from::<u16>(0).unwrap(), 3);
            assert_eq!(
                local_events(&flight)[0],
                FlightEvent::FaultInjected {
                    action: "delay".into(),
                    event: 1
                }
            );
        });
    }
}

//! The TCP event loop: `N` worker threads of one kind, each of which
//! *blocks on readiness* when there is nothing to do.
//!
//! The shape is thread-per-core-style over nonblocking `std::net` sockets
//! (the workspace is hermetic — no async runtime, no epoll crate): every
//! worker waits on the shared listener next to its own connections,
//! accepts at most one connection per pass, and owns what it accepted
//! outright — read what's there, run the state machine, flush what fits.
//! A connect wakes every worker that is waiting and one wins the `accept`
//! (the others see `WouldBlock`); a worker busy inside a request is not
//! waiting, so a new connection never queues behind it.  No connection
//! ever migrates between workers, so there is no cross-worker
//! synchronisation beyond the shared engine lock.
//!
//! **Waiting** is `omq_wire::readiness` and nothing else: no thread in
//! this module sleeps.  A worker builds a poll set from the *current*
//! state of each connection and blocks in it:
//!
//! - **read interest** only while the connection is not closing and its
//!   write buffer is below [`HIGH_WATER`] — the socket-side half of
//!   backpressure;
//! - **write interest** only while the write buffer is non-empty — so a
//!   peer that starts draining again is what resumes a parked connection;
//! - the **listener**, except for `ACCEPT_ERROR_BACKOFF` after an
//!   `accept` failed with something other than `WouldBlock`;
//! - **timeout** = the earliest pending fatal-drain deadline or the end of
//!   an accept backoff, otherwise none: an idle server makes no system
//!   calls at all ([`Server::wakeups`] counts the returns from the wait);
//! - the **stop signal**, one waker shared by every worker and never
//!   drained: [`Server::shutdown`] wakes it once, and from then on every
//!   wait returns at once and its worker exits.
//!
//! Every connection always has at least one interest registered: one that
//! is not read has output pending (it is backpressured, or draining its
//! goodbye), and one with nothing pending and a close requested is closed
//! on the spot.
//!
//! **Backpressure** is enforced at both ends of the state machine: a
//! connection whose write buffer exceeds [`HIGH_WATER`] is not *read*
//! again until the buffer drains below it, and the frame pump itself
//! stops consuming already-buffered pipelined frames at the same mark
//! (the decoder retains them; a serve pass flushes and pumps in turn until
//! the socket stops accepting bytes or no whole frame is left).  A client
//! that stops draining pages — or pipelines thousands of fetches in one
//! burst — therefore stops the server from producing more of them: the
//! `O(k)`-per-fetch discipline extends to memory, not just time.

pub use crate::conn::HIGH_WATER;
use crate::conn::{CloseReason, Connection, ConnectionQuotas, Shared};
use omq_serve::ServingEngine;
use omq_wire::readiness::{self, Interest, PollSet, Ready, WakeReceiver, Waker};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker leaves the listener out of its waits after `accept`
/// failed with something other than `WouldBlock` (descriptor exhaustion,
/// say): the pending connection keeps the listener readable, so without a
/// pause the retry would spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// How long a fatally-errored connection may keep draining its final
/// error frame before the worker gives up on a peer that is not reading.
const FATAL_DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Read chunk size per serve pass.
const READ_CHUNK: usize = 64 * 1024;

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (use port 0 for an ephemeral port; see
    /// [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Worker threads serving connections (≥ 1).
    pub workers: usize,
    /// Per-connection resource quotas (open cursors, pinned snapshots).
    pub quotas: ConnectionQuotas,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("loopback literal"),
            workers: 2,
            quotas: ConnectionQuotas::default(),
        }
    }
}

/// One worker-owned connection: the socket plus its state machine.
struct Slot {
    stream: TcpStream,
    conn: Connection,
    /// Set on the first pass that finds a fatal close still waiting on
    /// unflushed bytes; the connection closes at the deadline even if the
    /// peer never reads its final error frame.  The earliest one bounds
    /// the worker's wait.
    fatal_deadline: Option<Instant>,
}

/// A running OMQ server: its workers and the shared engine.
///
/// Dropping the server shuts it down (see [`Server::shutdown`]); clients
/// connected at that point see the socket close.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    stop: Waker,
    wakeups: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the configured address and starts the worker threads over
    /// `engine`.
    pub fn start(engine: ServingEngine, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // Everything that can fail comes before the first thread exists: a
        // thread blocked in its poll set is only ever ended through `stop`.
        let (stop, stopped) = readiness::waker()?;
        let worker = Worker {
            listener: Arc::new(listener),
            stopped: Arc::new(stopped),
            shared: Arc::new(Shared {
                engine: RwLock::new(engine),
            }),
            quotas: config.quotas,
            wakeups: Arc::new(AtomicU64::new(0)),
        };
        let threads = (0..config.workers.max(1))
            .map(|_| {
                let worker = worker.clone();
                std::thread::spawn(move || worker.run(Vec::new()))
            })
            .collect();
        Ok(Server {
            shared: worker.shared,
            addr,
            stop,
            wakeups: worker.wakeups,
            threads,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine, for in-process introspection alongside the wire
    /// (e.g. comparing a wire-paged cursor against an in-process drain at
    /// the same epoch).  Lock discipline is the caller's: holding the write
    /// lock stalls every connection's commits and cursor opens.
    pub fn shared_engine(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Stops the workers and joins them.  In-flight connections are
    /// closed; the engine (and its store) survives inside the returned
    /// `Arc` if the caller kept one.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// How often a worker's wait for readiness has returned, summed over
    /// the workers, since the server started.  Every request costs at
    /// least one; an idle server — however many connections it holds open
    /// — costs none.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    fn stop_and_join(&mut self) {
        // Nobody drains the signal, so this one wake-up ends every wait
        // from now on, including those a worker is not in yet.
        self.stop.wake();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// What one worker thread shares with the others; the connections it
/// accepted are its own (see [`Worker::run`]).
#[derive(Clone)]
struct Worker {
    listener: Arc<TcpListener>,
    /// The stop signal: readable once [`Server::shutdown`] has woken it,
    /// and never drained.
    stopped: Arc<WakeReceiver>,
    shared: Arc<Shared>,
    quotas: ConnectionQuotas,
    wakeups: Arc<AtomicU64>,
}

impl Worker {
    fn run(self, mut slots: Vec<Slot>) {
        let mut set = PollSet::new();
        let mut read_buf = vec![0u8; READ_CHUNK];
        let mut accept_paused_until: Option<Instant> = None;
        loop {
            // Interest is rebuilt from each connection's state as the last
            // pass left it; entry `i` is slot `i`, the stop signal and the
            // listener come last.
            set.clear();
            for slot in &slots {
                set.push(&slot.stream, slot.interest());
            }
            let stop = set.push(&*self.stopped, Interest::READ);
            accept_paused_until = accept_paused_until.filter(|&until| until > Instant::now());
            let listen = accept_paused_until
                .is_none()
                .then(|| set.push(&*self.listener, Interest::READ));
            let deadline = slots
                .iter()
                .filter_map(|slot| slot.fatal_deadline)
                .chain(accept_paused_until)
                .min();
            let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if set.wait(timeout).is_err() {
                // `poll` fails only on a broken argument or kernel memory
                // exhaustion; there is no waiting without it, and spinning
                // instead is worse than closing this worker's connections.
                return;
            }
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            if set.ready(stop).readable {
                return;
            }

            // Back to front, so `swap_remove` moves an already-served slot
            // and entry `i` still belongs to slot `i`.
            for i in (0..slots.len()).rev() {
                let ready = set.ready(i);
                if !ready.any() && slots[i].fatal_deadline.is_none() {
                    continue;
                }
                // Contain panics per connection: a request that blows up
                // takes down its own slot, not the worker — a dead worker
                // would take all of its connections with it, and with
                // `workers: 1` nothing would accept any more.
                let slot = &mut slots[i];
                let keep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_slot(slot, ready, &self.shared, &mut read_buf)
                }))
                .unwrap_or(false);
                if !keep {
                    slots.swap_remove(i);
                }
            }

            // At most one new connection per pass; nothing is served here:
            // bytes already waiting make the next wait return at once.
            if listen.is_some_and(|entry| set.ready(entry).readable) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        // A peer already gone is dropped here.
                        if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok()
                        {
                            slots.push(Slot {
                                stream,
                                conn: Connection::with_quotas(self.quotas),
                                fatal_deadline: None,
                            });
                        }
                    }
                    // Another worker won it, or a signal cut the call short.
                    Err(e)
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                    Err(_) => accept_paused_until = Some(Instant::now() + ACCEPT_ERROR_BACKOFF),
                }
            }
        }
    }
}

impl Slot {
    /// What this connection can make progress on, given its state now.
    fn interest(&self) -> Interest {
        Interest {
            read: self.conn.closing().is_none() && self.conn.pending_out().len() < HIGH_WATER,
            write: !self.conn.pending_out().is_empty(),
        }
    }
}

/// One pass over one connection the wait reported (or whose fatal-drain
/// deadline is pending): read once if there is something to read, then
/// flush and resume parked frames in turn until neither moves, then see
/// whether a requested close is due.  Returns `false` iff the connection
/// is finished and must be dropped.
///
/// On return the decoder holds a whole frame only if the write buffer is
/// at the mark and the socket refused bytes — so the interest computed from
/// the state left behind is exactly what progress waits on.
fn serve_slot(slot: &mut Slot, ready: Ready, shared: &Shared, read_buf: &mut [u8]) -> bool {
    // Backpressure: a peer that is not draining its pages is not read.
    if ready.readable && slot.interest().read {
        match slot.stream.read(read_buf) {
            Ok(0) => return false, // peer hung up
            Ok(n) => slot.conn.on_bytes(&read_buf[..n], shared),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => return false,
        }
    }

    // The pump stops once the write buffer passes HIGH_WATER and the
    // decoder retains the rest, so each flush may have unblocked it — and
    // it returns `false` only when closing, at the mark again (the flush
    // just before it was refused), or out of whole frames.
    loop {
        if !flush(slot) {
            return false;
        }
        if !slot.conn.pump(shared) {
            break;
        }
    }

    match slot.conn.closing() {
        None => true,
        Some(_) if slot.conn.pending_out().is_empty() => false,
        Some(CloseReason::Bye) => true,
        Some(CloseReason::Fatal) => {
            // The final error frame gets a short bounded grace to drain —
            // the client deserves to see *why* it is being hung up on —
            // but a corrupt stream does not wait on a peer that never
            // reads.
            let now = Instant::now();
            now < *slot.fatal_deadline.get_or_insert(now + FATAL_DRAIN_GRACE)
        }
    }
}

/// Writes as much pending output as the socket accepts.  Returns `false`
/// iff the connection is dead.
fn flush(slot: &mut Slot) -> bool {
    while !slot.conn.pending_out().is_empty() {
        match slot.stream.write(slot.conn.pending_out()) {
            Ok(0) => return false,
            Ok(n) => slot.conn.advance_out(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClientFrame, FrameDecoder, ServerFrame};

    /// Shutdown is a wake-up, not a timed-out wait: with every thread
    /// blocked (eight idle connections, no traffic) it still returns at
    /// once.
    #[test]
    fn shutdown_with_idle_connections_open_is_prompt() {
        let server = Server::start(ServingEngine::new(1), ServerConfig::default()).unwrap();
        let mut clients: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(server.local_addr()).unwrap())
            .collect();
        // One round trip each: every connection is adopted by its worker.
        for client in &mut clients {
            client.write_all(&ClientFrame::Pin.encode()).unwrap();
            let mut prefix = [0u8; 4];
            client.read_exact(&mut prefix).unwrap();
            let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
            client.read_exact(&mut payload).unwrap();
        }
        let start = Instant::now();
        server.shutdown();
        let took = start.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
        // …and the connections were closed, not leaked.
        for client in &mut clients {
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0);
        }
    }

    /// A worker with the given listener and no connections yet, and the
    /// waker that stops it.
    fn worker(listener: TcpListener) -> (Worker, Waker) {
        listener.set_nonblocking(true).unwrap();
        let (stop, stopped) = readiness::waker().unwrap();
        let worker = Worker {
            listener: Arc::new(listener),
            stopped: Arc::new(stopped),
            shared: Arc::new(Shared {
                engine: RwLock::new(ServingEngine::new(1)),
            }),
            quotas: ConnectionQuotas::default(),
            wakeups: Arc::new(AtomicU64::new(0)),
        };
        (worker, stop)
    }

    /// A stop raised while the worker is inside a pass still ends it: the
    /// signal is never drained, so the wait after that pass returns at
    /// once.  The engine lock, held here, parks the worker in the pass that
    /// reads a request, and the stop lands while it is parked there.
    #[test]
    fn a_stop_that_lands_during_a_pass_is_not_lost() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (worker, stop) = worker(listener);
        let shared = Arc::clone(&worker.shared);
        let wakeups = Arc::clone(&worker.wakeups);
        let wait_for_wakeup = |n: u64| {
            let start = Instant::now();
            while wakeups.load(Ordering::Relaxed) < n {
                assert!(start.elapsed() < Duration::from_secs(5), "no wake-up {n}");
                std::hint::spin_loop();
            }
        };
        let thread = std::thread::spawn(move || worker.run(Vec::new()));

        // Wake-up 1 accepts the connection; wake-up 2 reads one request and
        // parks on the engine lock.
        let engine = shared.engine.write().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        wait_for_wakeup(1);
        client.write_all(&ClientFrame::Pin.encode()).unwrap();
        wait_for_wakeup(2);
        std::thread::sleep(Duration::from_millis(20)); // past its one read
        stop.wake();
        std::thread::sleep(Duration::from_millis(20));
        assert!(!thread.is_finished(), "the worker was not inside a pass");
        drop(engine);

        let start = Instant::now();
        while !thread.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "the worker slept through its shutdown"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        thread.join().unwrap();
    }

    /// The fatal-drain grace is the one timeout a worker waits with.  A
    /// peer whose socket is full gets its corrupt length prefix answered
    /// with an error frame that cannot drain; with no other traffic to
    /// wake the worker, only the deadline can end that connection.
    ///
    /// The full socket is arranged by hand — how much the kernel buffers is
    /// not something a peer can control from outside — and the connection
    /// then handed to a worker as one it has already accepted.
    #[test]
    fn a_fatal_close_the_peer_never_drains_ends_at_the_grace_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let (worker, stop) = worker(listener);
        let shared = Arc::clone(&worker.shared);
        let wakeups = Arc::clone(&worker.wakeups);
        let mut slot = Slot {
            stream,
            conn: Connection::new(),
            fatal_deadline: None,
        };

        // Requests whose ~1 KiB answers the peer never reads, topped up to
        // half the high-water mark and written in large pieces, until the
        // socket has taken nothing for half a second: a loopback pipe that
        // looks full still takes a few hundred KiB more on the receiver's
        // delayed window update (~50 ms) or the sender's first zero-window
        // probe (~200 ms), and is quiet after that.
        let junk = format!("{{\"t\":\"{}\"}}", "x".repeat(2048));
        let request = crate::protocol::frame_payload(junk.as_bytes());
        let mut refusals = 0;
        while refusals < 10 {
            while slot.conn.pending_out().len() < HIGH_WATER / 2 {
                slot.conn.on_bytes(&request, &shared);
            }
            let before = slot.conn.pending_out().len();
            assert!(flush(&mut slot));
            if slot.conn.pending_out().len() < before {
                refusals = 0;
            } else {
                refusals += 1;
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        assert!(slot.interest().read && slot.interest().write);

        let thread = std::thread::spawn(move || worker.run(vec![slot]));
        let start = Instant::now();
        client.write_all(&u32::MAX.to_be_bytes()).unwrap();

        // Without reading a byte, find out when the server hung up: bytes
        // sent to a closed socket are answered with a reset, and the write
        // after that fails.  (The connection is not read any more, so the
        // probes wake nobody.)
        let hung_up = loop {
            std::thread::sleep(Duration::from_millis(5));
            if client.write_all(&[0]).is_err() {
                break start.elapsed();
            }
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "the worker never gave up on the peer"
            );
        };
        assert!(
            hung_up >= FATAL_DRAIN_GRACE
                && hung_up < FATAL_DRAIN_GRACE + Duration::from_millis(250),
            "hung up after {hung_up:?}"
        );
        // The pass that read the prefix and set the deadline, the
        // deadline: the worker did not spin its way there.
        assert!(wakeups.load(Ordering::Relaxed) <= 3);

        // What did get through is intact up to the cut: whole error frames,
        // then a clean end of stream or a reset.
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 64 * 1024];
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        while let Ok(n @ 1..) = client.read(&mut buf) {
            decoder.feed(&buf[..n]);
            while let Some(payload) = decoder.next_frame().unwrap() {
                assert!(matches!(
                    ServerFrame::decode(&payload).unwrap(),
                    ServerFrame::Error { .. }
                ));
            }
        }

        stop.wake();
        thread.join().unwrap();
    }
}

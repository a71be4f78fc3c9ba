//! The TCP event loop: an accept thread plus worker threads, all of which
//! *block on readiness* when there is nothing to do.
//!
//! The shape is thread-per-core-style over nonblocking `std::net` sockets
//! (the workspace is hermetic — no async runtime, no epoll crate): an
//! acceptor thread hands fresh connections round-robin to `N` workers, and
//! each worker owns its connections outright — read what's there, run the
//! state machine, flush what fits.  No connection ever migrates between
//! workers, so there is no cross-worker synchronisation beyond the shared
//! engine lock and the hand-off inbox.
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
//! - **timeout** = the earliest pending fatal-drain deadline, otherwise
//!   none: an idle server makes no system calls at all
//!   ([`Server::wakeups`] counts the returns from the wait);
//! - the worker's **waker**, which the acceptor pokes after putting a
//!   connection in the inbox and [`Server::shutdown`] pokes after raising
//!   the stop flag.
//!
//! The acceptor blocks the same way on the listener plus its own waker.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the acceptor stays away from the listener after `accept`
/// failed with something other than `WouldBlock` (descriptor exhaustion,
/// say): the pending connection keeps the listener readable, so without a
/// pause the retry would spin.  The pause is a bounded wait on the
/// acceptor's waker, so shutdown cuts it short.
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

/// How a worker is reached: the acceptor pushes a connection and wakes,
/// `shutdown` raises the stop flag and wakes.
struct Mailbox {
    inbox: Mutex<Vec<Slot>>,
    waker: Waker,
}

impl Mailbox {
    fn new() -> std::io::Result<(Arc<Mailbox>, WakeReceiver)> {
        let (waker, receiver) = readiness::waker()?;
        let mailbox = Mailbox {
            inbox: Mutex::new(Vec::new()),
            waker,
        };
        Ok((Arc::new(mailbox), receiver))
    }
}

/// A running OMQ server: the acceptor, its workers, and the shared engine.
///
/// Dropping the server shuts it down (see [`Server::shutdown`]); clients
/// connected at that point see the socket close.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<Arc<Mailbox>>,
    acceptor: Waker,
    wakeups: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the configured address and starts the acceptor and worker
    /// threads over `engine`.
    pub fn start(engine: ServingEngine, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: RwLock::new(engine),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let wakeups = Arc::new(AtomicU64::new(0));
        // Everything that can fail comes before the first thread exists: a
        // thread blocked in its poll set is only ever ended through `stop`.
        let mailboxes = (0..config.workers.max(1))
            .map(|_| Mailbox::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        let (acceptor, acceptor_receiver) = readiness::waker()?;

        let workers: Vec<Arc<Mailbox>> = mailboxes.iter().map(|(m, _)| Arc::clone(m)).collect();
        let mut threads = Vec::with_capacity(workers.len() + 1);
        for (mailbox, receiver) in mailboxes {
            let worker = Worker {
                mailbox,
                receiver,
                shared: Arc::clone(&shared),
                stop: Arc::clone(&stop),
                wakeups: Arc::clone(&wakeups),
            };
            threads.push(std::thread::spawn(move || worker.run()));
        }
        {
            let workers = workers.clone();
            let stop = Arc::clone(&stop);
            let quotas = config.quotas;
            threads.push(std::thread::spawn(move || {
                accept_loop(listener, acceptor_receiver, workers, quotas, stop)
            }));
        }
        Ok(Server {
            shared,
            addr,
            stop,
            workers,
            acceptor,
            wakeups,
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

    /// Stops the acceptor and workers and joins them.  In-flight
    /// connections are closed; the engine (and its store) survives inside
    /// the returned `Arc` if the caller kept one.
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
        self.stop.store(true, Ordering::SeqCst);
        // Every thread is blocked in its poll set or about to be: the flag
        // first, then the wake-up that makes it look at the flag.
        for worker in &self.workers {
            worker.waker.wake();
        }
        self.acceptor.wake();
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

fn accept_loop(
    listener: TcpListener,
    receiver: WakeReceiver,
    workers: Vec<Arc<Mailbox>>,
    quotas: ConnectionQuotas,
    stop: Arc<AtomicBool>,
) {
    let mut set = PollSet::new();
    let mut next = 0usize;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue; // peer already gone
                }
                let worker = &workers[next];
                worker.inbox.lock().expect("inbox lock").push(Slot {
                    stream,
                    conn: Connection::with_quotas(quotas),
                    fatal_deadline: None,
                });
                worker.waker.wake();
                next = (next + 1) % workers.len();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                // Nothing to accept: wait for the listener.  Anything else:
                // stay off the listener for a fixed pause first (see
                // `ACCEPT_ERROR_BACKOFF`).  Either wait ends on shutdown.
                set.clear();
                let timeout = if e.kind() == ErrorKind::WouldBlock {
                    set.push(&listener, Interest::READ);
                    None
                } else {
                    Some(ACCEPT_ERROR_BACKOFF)
                };
                set.push(&receiver, Interest::READ);
                if set.wait(timeout).is_err() {
                    return; // the poll set itself is broken; see `Worker::run`
                }
                receiver.drain();
            }
        }
    }
}

/// One worker thread: the connections it owns and how it is reached.
struct Worker {
    mailbox: Arc<Mailbox>,
    receiver: WakeReceiver,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    wakeups: Arc<AtomicU64>,
}

impl Worker {
    fn run(self) {
        let mut slots: Vec<Slot> = Vec::new();
        let mut set = PollSet::new();
        let mut read_buf = vec![0u8; READ_CHUNK];
        loop {
            // Interest is rebuilt from each connection's state as the last
            // pass left it; entry `i` is slot `i`, the waker comes last.
            set.clear();
            for slot in &slots {
                set.push(&slot.stream, slot.interest());
            }
            let wake = set.push(&self.receiver, Interest::READ);
            let deadline = slots.iter().filter_map(|slot| slot.fatal_deadline).min();
            let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if set.wait(timeout).is_err() {
                // `poll` fails only on a broken argument or kernel memory
                // exhaustion; there is no waiting without it, and spinning
                // instead is worse than closing this worker's connections.
                return;
            }
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            // Drain first, then look at what the wakers change (`stop`
            // here, the inbox below): a wake-up sent after either look
            // stays pending and ends the next wait.  Draining after the
            // look instead could swallow a shutdown's wake-up with `stop`
            // unseen, and the next wait would have nothing to end it.
            let woken = set.ready(wake).readable;
            if woken {
                self.receiver.drain();
            }
            if self.stop.load(Ordering::SeqCst) {
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
                // would keep receiving fresh connections from the
                // acceptor's round-robin and leave them hanging forever.
                let slot = &mut slots[i];
                let keep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_slot(slot, ready, &self.shared, &mut read_buf)
                }))
                .unwrap_or(false);
                if !keep {
                    slots.swap_remove(i);
                }
            }

            // Adopt newly accepted connections.  Nothing is served here:
            // bytes already waiting make the next wait return at once.
            if woken {
                slots.append(&mut self.mailbox.inbox.lock().expect("inbox lock"));
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

    /// A shutdown racing a hand-off still ends the worker.  The engine
    /// lock, held here, parks the worker inside one pass while the next is
    /// arranged: a burst on its connection *and* a hand-off wake-up, so the
    /// next wait returns with both and starts a pass — `stop` unset — that
    /// lasts milliseconds.  The stop flag and its wake-up land inside that
    /// pass.  A pass that drained the waker at its end would swallow both
    /// wake-ups without another look at `stop`, and block with nothing left
    /// to wake it.
    #[test]
    fn a_stop_that_lands_during_a_pass_is_not_lost() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = |client: &TcpStream| {
            let (stream, peer) = listener.accept().unwrap();
            assert_eq!(peer, client.local_addr().unwrap());
            stream.set_nonblocking(true).unwrap();
            Slot {
                stream,
                conn: Connection::new(),
                fatal_deadline: None,
            }
        };
        let shared = Arc::new(Shared {
            engine: RwLock::new(ServingEngine::new(1)),
        });
        let (mailbox, receiver) = Mailbox::new().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let wakeups = Arc::new(AtomicU64::new(0));
        let worker = Worker {
            mailbox: Arc::clone(&mailbox),
            receiver,
            shared: Arc::clone(&shared),
            stop: Arc::clone(&stop),
            wakeups: Arc::clone(&wakeups),
        };
        let wait_for_wakeup = |n: u64| {
            let start = Instant::now();
            while wakeups.load(Ordering::Relaxed) < n {
                assert!(start.elapsed() < Duration::from_secs(5), "no wake-up {n}");
                std::hint::spin_loop();
            }
        };
        let thread = std::thread::spawn(move || worker.run());

        // Wake-up 1 adopts the first connection.
        let mut first = TcpStream::connect(addr).unwrap();
        mailbox.inbox.lock().unwrap().push(accept(&first));
        mailbox.waker.wake();
        wait_for_wakeup(1);

        // Wake-up 2 reads one request and parks on the engine lock.
        let engine = shared.engine.write().unwrap();
        first.write_all(&ClientFrame::Pin.encode()).unwrap();
        wait_for_wakeup(2);
        std::thread::sleep(Duration::from_millis(20)); // past its one read
        let second = TcpStream::connect(addr).unwrap();
        first
            .write_all(&ClientFrame::Pin.encode().repeat(1000))
            .unwrap();
        mailbox.inbox.lock().unwrap().push(accept(&second));
        mailbox.waker.wake();

        // Wake-up 3 finds the burst and the hand-off together; the stop
        // lands while the burst is being served.
        drop(engine);
        wait_for_wakeup(3);
        stop.store(true, Ordering::SeqCst);
        mailbox.waker.wake();

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
    /// then handed to a worker the way the acceptor hands over any other.
    #[test]
    fn a_fatal_close_the_peer_never_drains_ends_at_the_grace_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let shared = Arc::new(Shared {
            engine: RwLock::new(ServingEngine::new(1)),
        });
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

        let (mailbox, receiver) = Mailbox::new().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let wakeups = Arc::new(AtomicU64::new(0));
        let worker = Worker {
            mailbox: Arc::clone(&mailbox),
            receiver,
            shared,
            stop: Arc::clone(&stop),
            wakeups: Arc::clone(&wakeups),
        };
        let thread = std::thread::spawn(move || worker.run());
        mailbox.inbox.lock().unwrap().push(slot);
        mailbox.waker.wake();
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
        // Adoption, the pass that read the prefix and set the deadline,
        // the deadline: the worker did not spin its way there.
        assert!(wakeups.load(Ordering::Relaxed) <= 4);

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

        stop.store(true, Ordering::SeqCst);
        mailbox.waker.wake();
        thread.join().unwrap();
    }
}

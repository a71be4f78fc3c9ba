//! Blocking readiness: a reusable poll set over `poll(2)`, and a waker.
//!
//! The network front ends run nonblocking sockets on plain threads (the
//! workspace is hermetic — no async runtime, no `libc`/`mio` crate).  A
//! thread with nothing to do must *block until something can be done*, not
//! sleep and look again: [`PollSet`] is that wait.  The caller registers the
//! descriptors it cares about with an [`Interest`] each, calls
//! [`PollSet::wait`], and reads back per-entry [`Ready`] flags.  The set is
//! level-triggered and rebuilt per wait ([`PollSet::clear`] keeps the
//! allocation), so interest is always derived from the caller's *current*
//! state — there is no registration to fall out of date.
//!
//! A [`Waker`] ends waits from another thread (a shutdown): it is the
//! write half of a nonblocking socket pair whose read half, the
//! [`WakeReceiver`], sits in the poll set of every thread it stops.
//! Nothing reads the receiver, so a wake-up is never consumed: one wake
//! ends every later wait, in any number of threads, with no ordering rule
//! between waking and looking.
//!
//! This module is Unix-only and holds the workspace's **only** `unsafe`
//! code: the `poll(2)` declaration and the one call to it.

use std::io::{self, ErrorKind, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// `struct pollfd` from `<poll.h>` — the same three fields in the same
/// order on every Unix.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs and macOS.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// What the caller wants to be woken for on one descriptor.  Hang-ups and
/// errors are always reported, whatever the interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor has bytes (or a connection) to read.
    pub read: bool,
    /// Wake when the descriptor accepts bytes again.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// What one descriptor was ready for when [`PollSet::wait`] returned.
///
/// An error or hang-up condition sets **both** flags: the caller's next
/// `read` or `write` then surfaces the actual error (or the EOF), which is
/// where it already handles them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ready {
    /// A `read` (or `accept`) will not block.
    pub readable: bool,
    /// A `write` will not block.
    pub writable: bool,
}

impl Ready {
    /// Whether anything at all was reported for the descriptor.
    pub fn any(self) -> bool {
        self.readable || self.writable
    }
}

/// A reusable set of descriptors to wait on.
#[derive(Debug, Default)]
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> Self {
        PollSet::default()
    }

    /// Empties the set, keeping its allocation.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Adds a descriptor and returns its index for [`PollSet::ready`].
    ///
    /// An entry with neither interest still reports hang-ups and errors.
    /// The descriptor must stay open until the wait returns; one that was
    /// closed reads back as ready, so the caller's I/O on it fails instead
    /// of the wait hanging.
    pub fn push(&mut self, source: &impl AsRawFd, interest: Interest) -> usize {
        let mut events = 0;
        if interest.read {
            events |= POLLIN;
        }
        if interest.write {
            events |= POLLOUT;
        }
        self.fds.push(PollFd {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Blocks until an entry is ready or `timeout` elapses (`None` = no
    /// timeout); returns how many entries are ready.  The timeout is
    /// rounded *up* to whole milliseconds, so a wait bounded by a deadline
    /// never returns before it.  A signal interrupting the wait reads as
    /// zero entries ready.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let millis = match timeout {
            None => -1,
            Some(t) => {
                let ceil = t.as_nanos().div_ceil(1_000_000);
                std::ffi::c_int::try_from(ceil).unwrap_or(std::ffi::c_int::MAX)
            }
        };
        for fd in &mut self.fds {
            fd.revents = 0;
        }
        // SAFETY: `fds` points at `self.fds.len()` initialised, `repr(C)`
        // `PollFd`s laid out as `struct pollfd`, exclusively borrowed for
        // the duration of the call; `poll` writes only their `revents`
        // fields and keeps no pointer past its return.  A stale or closed
        // descriptor number is not a memory-safety matter: the kernel
        // reports it as `POLLNVAL`.
        let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as Nfds, millis) };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(e)
            };
        }
        Ok(n as usize)
    }

    /// What the entry at `index` (as returned by [`PollSet::push`]) was
    /// ready for after the last [`PollSet::wait`].
    pub fn ready(&self, index: usize) -> Ready {
        let revents = self.fds[index].revents;
        let broken = revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
        Ready {
            readable: broken || revents & POLLIN != 0,
            writable: broken || revents & POLLOUT != 0,
        }
    }
}

/// Creates a waker and the receiver its wake-ups arrive on.
pub fn waker() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

/// Ends every [`PollSet::wait`] that has the matching [`WakeReceiver`] in
/// its set: one wake ends every later wait.  Usable from any thread through
/// a shared reference.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Makes the receiver readable, for good.  Waking again changes
    /// nothing: a full socket buffer means the receiver is readable
    /// already.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// The poll-set end of a [`Waker`]: register it with [`Interest::READ`].
/// It can be shared, and is never read.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: UnixStream,
}

impl AsRawFd for WakeReceiver {
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn a_timeout_is_never_early_and_reports_nothing_ready() {
        let (_waker, receiver) = waker().unwrap();
        let mut set = PollSet::new();
        let index = set.push(&receiver, Interest::READ);
        let start = Instant::now();
        assert_eq!(set.wait(Some(Duration::from_micros(20_100))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_micros(20_100));
        assert!(!set.ready(index).any());
    }

    #[test]
    fn one_wake_ends_the_waits_of_two_poll_sets_on_the_same_receiver() {
        let (waker, receiver) = waker().unwrap();
        let receiver = std::sync::Arc::new(receiver);
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let receiver = std::sync::Arc::clone(&receiver);
                std::thread::spawn(move || {
                    let mut set = PollSet::new();
                    let index = set.push(&*receiver, Interest::READ);
                    // Unbounded, and again: the wake-up is not consumed.
                    for _ in 0..2 {
                        assert_eq!(set.wait(None).unwrap(), 1);
                        assert!(set.ready(index).readable);
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        waker.wake();
        for waiter in waiters {
            waiter.join().unwrap();
        }
    }

    #[test]
    fn sockets_report_read_write_and_hang_up() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut set = PollSet::new();
        let l = set.push(&listener, Interest::READ);
        assert_eq!(set.wait(Some(Duration::ZERO)).unwrap(), 0);

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(set.wait(None).unwrap(), 1);
        assert!(set.ready(l).readable);
        let (served, _) = listener.accept().unwrap();

        // Writable at once, readable only after the peer wrote.
        set.clear();
        let s = set.push(
            &served,
            Interest {
                read: true,
                write: true,
            },
        );
        set.wait(None).unwrap();
        assert_eq!(
            set.ready(s),
            Ready {
                readable: false,
                writable: true
            }
        );
        client.write_all(b"x").unwrap();
        set.clear();
        let s = set.push(&served, Interest::READ);
        set.wait(None).unwrap();
        assert!(set.ready(s).readable);

        // A peer that hung up reads as readable: the `read` sees the EOF.
        drop(client);
        set.clear();
        let s = set.push(&served, Interest::READ);
        set.wait(None).unwrap();
        assert!(set.ready(s).readable);
    }
}

//! A tiny, dependency-free readiness poller over raw `epoll`
//! syscalls (Linux), plus an `eventfd`-based waker.
//!
//! The repository's offline-shims policy rules out `mio`/`libc` as
//! crates, but `std` already links the platform C library — so the
//! handful of symbols the reactor needs are declared here directly.
//! The surface is deliberately minimal: level-triggered interest
//! registration keyed by a caller-chosen `u64` token, a bounded wait,
//! and a cross-thread wake. Everything else (connection state,
//! buffers, timeouts) lives in [`crate::server`].

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable interest (level-triggered).
pub const EPOLLIN: u32 = 0x001;
/// Writable interest.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down the write half of the connection.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Wake only one of the epoll instances sharing a listener — avoids
/// the thundering herd when several reactors watch the same socket.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel
/// ABI has no padding there); natural alignment elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct Event {
    /// Ready-event bitmask (`EPOLLIN` | …).
    pub events: u32,
    /// The token registered with the file descriptor.
    pub token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall; the returned fd (once validated) is
        // owned by the OwnedFd and closed on drop.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = Event { events, token };
        // SAFETY: `ev` outlives the call; DEL ignores the event
        // pointer on any kernel this code targets (≥ 2.6.9).
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with `events` interest under `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest list (also implicit on close).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) for ready events,
    /// filling `events` from the start. Returns the ready count.
    /// `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the buffer is valid for `events.len()` entries
            // and the kernel writes at most that many.
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            match cvt(n) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// A cross-thread waker: an `eventfd` registered in the reactor's
/// epoll. Any thread calls [`Waker::wake`]; the reactor drains it
/// with [`Waker::drain`] when its token fires.
pub struct Waker {
    file: File,
}

impl Waker {
    /// Creates a non-blocking, close-on-exec eventfd.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: plain syscall; ownership transfers to the File.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// The fd to register under the reactor's wake token.
    pub fn fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Signals the reactor. Safe from any thread; coalesces.
    pub fn wake(&self) {
        // A full counter (EAGAIN) already guarantees a pending wake.
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Consumes pending wake signals so level-triggered polling
    /// quiesces, and returns how many [`Waker::wake`]s they were (0
    /// when none was pending).
    pub fn drain(&self) -> u64 {
        let mut buf = [0u8; 8];
        match (&self.file).read(&mut buf) {
            Ok(8) => u64::from_ne_bytes(buf),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn epoll_reports_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(server.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [Event {
            events: 0,
            token: 0,
        }; 8];
        // Nothing to read yet: a zero-timeout wait reports nothing.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.token }, 7);
        assert_ne!({ ev.events } & EPOLLIN, 0);

        epoll.delete(server.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn waker_crosses_threads_and_coalesces() {
        let epoll = Epoll::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        epoll.add(waker.fd(), EPOLLIN, 1).unwrap();

        let w = std::sync::Arc::clone(&waker);
        std::thread::spawn(move || {
            w.wake();
            w.wake();
        })
        .join()
        .unwrap();

        let mut events = [Event {
            events: 0,
            token: 0,
        }; 4];
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(waker.drain(), 2, "both wakes, one event");
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "drained");
        assert_eq!(waker.drain(), 0);
    }
}

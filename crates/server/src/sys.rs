//! Thin raw-syscall wrappers for the event-driven server core: `epoll`
//! and `eventfd`, Linux-only, dependency-free.
//!
//! The workspace denies `unsafe_code`; this module is the server
//! library's single `#[allow(unsafe_code)]` island, one of the
//! workspace's three with the `sig` module in `trasyn-server` and
//! `prof::alloc`. Everything unsafe is an `extern "C"`
//! declaration of a libc symbol `std` already links against, wrapped in
//! a safe RAII type that owns its file descriptor; nothing unsafe leaks
//! past this file's API.
//!
//! Nonblocking *sockets* need no syscalls here — `std::net` exposes
//! `set_nonblocking` — so the surface is exactly what `std` lacks:
//! readiness notification (`epoll_create1`/`epoll_ctl`/`epoll_wait`) and
//! a cross-thread wakeup fd (`eventfd`).
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

// SAFETY: these signatures match the Linux libc prototypes (see
// epoll_ctl(2), epoll_wait(2), eventfd(2), read(2), write(2), close(2));
// std already links libc on Linux, so the symbols are always present.
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// Readiness: data to read (includes peer-closed-with-pending-data).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (reported unsolicited).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (reported unsolicited).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

/// One readiness event. The kernel's `struct epoll_event` is packed on
/// x86-64 (a historic ABI quirk); other architectures use natural
/// alignment — the `cfg_attr` mirrors libc's definition exactly.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// The caller's token, echoed back verbatim (we store connection
    /// ids, never pointers, so there is no lifetime to get wrong).
    pub data: u64,
}

impl EpollEvent {
    /// Copy out the token (a method because reading a field of a packed
    /// struct by reference is ill-formed; a copy is always fine).
    pub fn token(&self) -> u64 {
        let e = *self;
        e.data
    }

    /// Copy out the readiness bitmask.
    pub fn readiness(&self) -> u32 {
        let e = *self;
        e.events
    }
}

/// An owned epoll instance; the fd is closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers involved; the return is a new fd or -1.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    /// Registers `fd` for `events`, tagged with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered interest set for `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest set (kernels also drop closed fds
    /// automatically; explicit removal keeps the set auditable).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, properly laid-out EpollEvent for the
        // duration of the call; the kernel reads it, never retains it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks up to `timeout_ms` (-1 = forever) and fills `events`,
    /// returning how many are valid. EINTR is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is a valid, writable slice; `maxevents`
            // is its exact length, so the kernel cannot write past it.
            let rc = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own this fd (created in `new`, never duplicated).
        unsafe { close(self.fd) };
    }
}

/// An owned nonblocking `eventfd`: any thread can [`EventFd::notify`] it;
/// the event loop registers it in epoll and [`EventFd::drain`]s on
/// readiness. Closed on drop.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// `eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: no pointers involved; the return is a new fd or -1.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the counter, waking any epoll waiting on readability.
    /// Best-effort: an EAGAIN (counter saturated) still leaves the fd
    /// readable, which is all a wakeup needs.
    pub fn notify(&self) {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live u64, as eventfd(2)
        // requires.
        let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Resets the counter to zero (nonblocking; EAGAIN means it already
    /// was). Call once per readiness event — wakeups are coalesced.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads at most 8 bytes into a live 8-byte buffer.
        let _ = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own this fd (created in `new`, never duplicated).
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::default(); 4];
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        ev.notify();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].readiness() & EPOLLIN, 0);

        // Drained: level-triggered readiness goes away.
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_is_reported_with_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 42).unwrap();

        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no pending accept yet");

        let _client = TcpStream::connect(addr).unwrap();
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert_ne!(events[0].readiness() & EPOLLIN, 0);

        // modify + delete round-trip.
        ep.modify(listener.as_raw_fd(), EPOLLIN | EPOLLOUT, 43)
            .unwrap();
        ep.delete(listener.as_raw_fd()).unwrap();
        assert_eq!(
            ep.wait(&mut events, 0).unwrap(),
            0,
            "deleted fd reports nothing"
        );
    }
}

//! Minimal raw-syscall bindings for the event loop (`epoll`, `eventfd`,
//! `rlimit`), declared directly against the C runtime std already links.
//!
//! The workspace is std-only — no `libc` crate — so the reactor's few
//! Linux-specific calls are bound here by hand. Everything returns
//! [`io::Result`] with the errno captured via
//! [`io::Error::last_os_error`], and every owned descriptor is wrapped in
//! [`OwnedFd`] so it closes on drop like any std socket.

use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd, RawFd};

// `struct epoll_event` carries `__attribute__((packed))` on x86 in the
// kernel/glibc headers (12 bytes, unaligned u64 payload); elsewhere it is
// naturally aligned. Mirroring that exactly is load-bearing: a padded
// layout on x86_64 would shear every second event's token.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token returned verbatim with the event.
    pub data: u64,
}

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

const RLIMIT_NOFILE: i32 = 7;

#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

const SOL_SOCKET: i32 = 1;
const SO_RCVBUF: i32 = 8;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// `epoll_create1(EPOLL_CLOEXEC)` as an owned descriptor.
pub fn epoll_create() -> io::Result<OwnedFd> {
    // SAFETY: takes only a flags integer.
    let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
    // SAFETY: `cvt` passed a non-negative return, a descriptor that was
    // just created and that nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// One `epoll_ctl` op; `event` may be `None` only for `EPOLL_CTL_DEL`.
pub fn epoll_control(
    epfd: BorrowedFd<'_>,
    op: i32,
    fd: RawFd,
    event: Option<EpollEvent>,
) -> io::Result<()> {
    let mut ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
    // SAFETY: `ev` is a live `EpollEvent` with the kernel's layout for the
    // call's duration; a stale `fd` fails with EBADF.
    cvt(unsafe { epoll_ctl(epfd.as_raw_fd(), op, fd, &mut ev) })?;
    Ok(())
}

/// Blocking `epoll_wait`, retried on `EINTR`; `timeout_ms < 0` blocks
/// indefinitely. Returns the number of events written into `events`.
pub fn epoll_wait_events(
    epfd: BorrowedFd<'_>,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    loop {
        // SAFETY: the kernel writes at most `maxevents` entries, which is
        // never more than `events.len()`, into `events`' own buffer.
        let n = unsafe {
            epoll_wait(
                epfd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len().min(i32::MAX as usize) as i32,
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

/// A non-blocking, close-on-exec `eventfd` for cross-thread wakeups.
pub fn eventfd_create() -> io::Result<OwnedFd> {
    // SAFETY: takes only integers.
    let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
    // SAFETY: as in `epoll_create`, a fresh descriptor nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Adds one tick to an eventfd (wakes any `epoll_wait` watching it).
pub fn eventfd_signal(fd: BorrowedFd<'_>) -> io::Result<()> {
    let one = 1u64.to_ne_bytes();
    loop {
        // SAFETY: reads `one.len()` bytes from `one`, a live local array.
        let n = unsafe { write(fd.as_raw_fd(), one.as_ptr(), one.len()) };
        if n == one.len() as isize {
            return Ok(());
        }
        let e = io::Error::last_os_error();
        match e.kind() {
            io::ErrorKind::Interrupted => continue,
            // Counter saturated: a wakeup is already pending, which is all
            // a signal needs to guarantee.
            io::ErrorKind::WouldBlock => return Ok(()),
            _ => return Err(e),
        }
    }
}

/// Clears a signalled eventfd so it can level-trigger again.
pub fn eventfd_drain(fd: BorrowedFd<'_>) {
    let mut buf = [0u8; 8];
    // Non-blocking: either we consume the counter or it was already zero.
    // SAFETY: writes at most `buf.len()` bytes into `buf`, a live local
    // array.
    unsafe { read(fd.as_raw_fd(), buf.as_mut_ptr(), buf.len()) };
}

/// Raises the soft open-file limit toward `want` (capped at the hard
/// limit). Returns the resulting soft limit; errors are reported, not
/// fatal, so callers can scale their fan-out to what they actually got.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: the kernel fills `lim`, a live `Rlimit` with its layout.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur >= want {
        return Ok(lim.rlim_cur);
    }
    let target = want.min(lim.rlim_max);
    let new = Rlimit {
        rlim_cur: target,
        rlim_max: lim.rlim_max,
    };
    // SAFETY: the kernel reads `new`, a live `Rlimit` with its layout.
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &new) })?;
    Ok(target)
}

/// Shrinks a socket's kernel receive buffer (`SO_RCVBUF`) to roughly
/// `bytes` (the kernel clamps and doubles the value). Used by tests that
/// need a peer's unread responses to back up into the *server* quickly
/// instead of vanishing into generous default socket buffers.
pub fn set_recv_buffer(fd: RawFd, bytes: i32) -> io::Result<()> {
    let val = bytes.to_ne_bytes();
    // SAFETY: the kernel reads `val.len()` bytes from `val`, a live local
    // array; a stale `fd` fails with EBADF.
    cvt(unsafe { setsockopt(fd, SOL_SOCKET, SO_RCVBUF, val.as_ptr(), val.len() as u32) })?;
    Ok(())
}

/// Resident-set size of the current process in kibibytes, from
/// `/proc/self/status` (`VmRSS`). The connection-sweep test bounds the
/// memory each open connection costs with it.
pub fn current_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest.split_whitespace().next().and_then(|v| v.parse().ok());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsFd;

    #[test]
    fn eventfd_roundtrip_wakes_epoll() {
        let ep = epoll_create().unwrap();
        let ev = eventfd_create().unwrap();
        epoll_control(
            ep.as_fd(),
            EPOLL_CTL_ADD,
            ev.as_raw_fd(),
            Some(EpollEvent {
                events: EPOLLIN,
                data: 42,
            }),
        )
        .unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing signalled yet: a zero-timeout wait sees nothing.
        assert_eq!(epoll_wait_events(ep.as_fd(), &mut events, 0).unwrap(), 0);

        eventfd_signal(ev.as_fd()).unwrap();
        eventfd_signal(ev.as_fd()).unwrap(); // coalesces, still one event
        let n = epoll_wait_events(ep.as_fd(), &mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (data, bits) = (events[0].data, events[0].events);
        assert_eq!(data, 42);
        assert_ne!(bits & EPOLLIN, 0);

        eventfd_drain(ev.as_fd());
        assert_eq!(epoll_wait_events(ep.as_fd(), &mut events, 0).unwrap(), 0);
    }

    #[test]
    fn rss_probe_reads_a_positive_value() {
        assert!(current_rss_kib().unwrap_or(0) > 0);
    }
}

//! The two system calls the mesh's readiness loop needs and `std` does not
//! offer: `poll(2)` over a set of descriptors, and an `eventfd(2)` a worker
//! waits on beside its sockets, so that a ring can end the wait.
//!
//! Declared by hand for Linux (there is no `libc` crate here). Everything
//! else about a descriptor — reading, writing, closing — goes through `std`
//! types that own it. The only module of this crate allowed `unsafe`.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_uint, c_ulong};
use std::fs::File;
use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable: data, or the end of the stream.
pub(crate) const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: i16 = 0x004;

const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

/// One entry of a `poll(2)` set: the kernel's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits on `fd` for `events` ([`POLLIN`], [`POLLOUT`]). A negative
    /// `fd` is a placeholder the kernel skips.
    pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] found this entry ready: for the events
    /// asked for, or with an error or a hang-up (always reported).
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// Waits until an entry of `fds` is ready, or for `timeout_ms` (`-1`:
/// without limit; `0`: not at all), and marks every entry
/// [`PollFd::ready`] or not. A signal ends the wait early with nothing
/// ready.
pub(crate) fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<()> {
    let len = c_ulong::try_from(fds.len()).expect("a poll set fits a c_ulong");
    // SAFETY: `fds` is an exclusively borrowed slice of `len` initialised
    // `repr(C)` `struct pollfd`s; `poll` reads them and writes only their
    // `revents` fields, and holds on to none of them after it returns.
    let ready = unsafe { poll(fds.as_mut_ptr(), len, timeout_ms) };
    if ready >= 0 {
        return Ok(());
    }
    let error = io::Error::last_os_error();
    if error.kind() == ErrorKind::Interrupted {
        fds.iter_mut().for_each(|fd| fd.revents = 0);
        return Ok(());
    }
    Err(error)
}

/// A non-blocking `eventfd`: a counter that [`WakeFd::wake`] raises, that
/// reads as ready for [`POLLIN`] while it is not zero, and that
/// [`WakeFd::drain`] resets. A wake before the wait is therefore not lost:
/// the wait returns at once.
#[derive(Debug)]
pub(crate) struct WakeFd(File);

impl WakeFd {
    pub(crate) fn new() -> io::Result<WakeFd> {
        // SAFETY: `eventfd` takes two integers and touches no memory of this
        // process.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned open by `eventfd`, and nothing else
        // owns it: the `OwnedFd` becomes its only owner and closes it.
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(WakeFd(File::from(owned)))
    }

    /// Makes the descriptor readable until the next [`WakeFd::drain`].
    pub(crate) fn wake(&self) {
        // Fails only if the counter would overflow, which leaves it ready
        // anyway.
        let _ = (&self.0).write(&1u64.to_ne_bytes());
    }

    /// Resets the counter (nothing to reset is fine).
    pub(crate) fn drain(&self) {
        let _ = (&self.0).read(&mut [0; 8]);
    }

    /// The descriptor to put in a [`wait`] set, for [`POLLIN`].
    pub(crate) fn fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wake_before_the_wait_ends_it_and_a_drain_resets_it() {
        let wake = WakeFd::new().unwrap();
        let mut set = [PollFd::new(-1, POLLIN), PollFd::new(wake.fd(), POLLIN)];
        wait(&mut set, 0).unwrap();
        assert_eq!(set.map(|fd| fd.ready()), [false, false]);
        wake.wake();
        wake.wake();
        wait(&mut set, -1).unwrap();
        assert_eq!(set.map(|fd| fd.ready()), [false, true]);
        wake.drain();
        wait(&mut set, 0).unwrap();
        assert!(!set[1].ready());
    }
}

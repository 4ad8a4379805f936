//! How the serve acceptor waits: blocked in `poll(2)` on the listener
//! and a [`Waker`], never in a sleep. An idle daemon therefore makes no
//! wake-ups at all, a connection is accepted the moment it arrives,
//! and every drain trigger — a [`crate::ShutdownHandle`],
//! `/quitquitquit`, the last busy worker finishing during a drain, and
//! SIGTERM/SIGINT — wakes the acceptor at once.
//!
//! A signal may land on any thread, so the handler cannot count on
//! interrupting the acceptor's `poll` (`EINTR`). It also writes one
//! byte to a process-wide pipe that every acceptor polls until the
//! drain begins. The byte is never read back: each server in the
//! process sees it.
//!
//! `poll`, `write` and `signal` are declared by hand against the libc
//! std already links on unix, as the rest of the crate's FFI is. Off
//! unix the listener stays blocking and a wake-up is a connection to
//! the listener's own address.

use std::sync::atomic::{AtomicBool, Ordering};

/// SIGTERM/SIGINT land here, and every running server checks it.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// `true` once SIGTERM or SIGINT was received (after
/// [`install_signal_handlers`]).
pub fn signal_shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
pub use unix::{install_signal_handlers, Waker};

#[cfg(not(unix))]
pub use portable::{install_signal_handlers, Waker};

#[cfg(unix)]
mod unix {
    use std::io::{self, Read, Write};
    use std::net::TcpListener;
    use std::os::unix::io::{AsRawFd, IntoRawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::OnceLock;
    use std::time::Duration;

    use super::{signal_shutdown_requested, SIGNAL_SHUTDOWN};

    /// The signal pipe's ends (-1 before [`install_signal_handlers`]).
    static SIGNAL_PIPE_TX: AtomicI32 = AtomicI32::new(-1);
    static SIGNAL_PIPE_RX: AtomicI32 = AtomicI32::new(-1);

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x1;

    #[cfg(target_os = "linux")]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        fn __errno_location() -> *mut i32;
    }

    /// Sets the flag, then pokes the signal pipe. Async-signal-safe: an
    /// atomic store and one `write(2)`; on Linux it keeps the
    /// interrupted code's `errno`, which a failed write would clobber.
    extern "C" fn on_signal(_signum: i32) {
        SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
        let fd = SIGNAL_PIPE_TX.load(Ordering::SeqCst);
        if fd < 0 {
            return;
        }
        #[cfg(target_os = "linux")]
        // SAFETY: `__errno_location` returns this thread's errno slot,
        // valid for the thread's lifetime.
        let saved = unsafe { *__errno_location() };
        // SAFETY: `fd` is the nonblocking write end installed below and
        // never closed; the buffer is one live byte.
        unsafe {
            write(fd, [1u8].as_ptr(), 1);
        }
        #[cfg(target_os = "linux")]
        // SAFETY: as above.
        unsafe {
            *__errno_location() = saved;
        }
    }

    /// Routes SIGTERM and SIGINT into a graceful drain of every server
    /// in the process. Idempotent.
    ///
    /// # Errors
    ///
    /// Creating the signal pipe can fail (descriptor exhaustion); then
    /// no handler is installed.
    pub fn install_signal_handlers() -> io::Result<()> {
        static INSTALLED: OnceLock<io::Result<()>> = OnceLock::new();
        let installed = INSTALLED.get_or_init(|| {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            // The pipe lives as long as the process: handlers may fire
            // at any time, so its descriptors are never closed.
            SIGNAL_PIPE_RX.store(rx.into_raw_fd(), Ordering::SeqCst);
            SIGNAL_PIPE_TX.store(tx.into_raw_fd(), Ordering::SeqCst);
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            // SAFETY: `on_signal` is async-signal-safe (see there) and
            // has the C handler signature.
            unsafe {
                signal(SIGTERM, on_signal);
                signal(SIGINT, on_signal);
            }
            Ok(())
        });
        match installed {
            Ok(()) => Ok(()),
            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
        }
    }

    /// Wakes one acceptor out of [`Waker::wait`]. A wake-up that comes
    /// before the wait is kept, so none is lost.
    pub struct Waker {
        rx: UnixStream,
        tx: UnixStream,
    }

    impl Waker {
        /// A waker for the acceptor of `listener`, which it switches to
        /// nonblocking: the acceptor accepts until `WouldBlock`, then
        /// waits.
        pub fn new(listener: &TcpListener) -> io::Result<Waker> {
            listener.set_nonblocking(true)?;
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Waker { rx, tx })
        }

        /// Ends the current or the next [`Waker::wait`].
        pub fn wake(&self) {
            // A full buffer already holds a pending wake-up.
            let _ = (&self.tx).write(&[1]);
        }

        /// Blocks until `listener` (when given) has a connection to
        /// accept, [`Waker::wake`] was called, a signal arrived, or
        /// `timeout` (when given) passed.
        ///
        /// # Errors
        ///
        /// `poll(2)` failures other than `EINTR`.
        pub fn wait(
            &self,
            listener: Option<&TcpListener>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            // Once the drain began the signal pipe has done its job; it
            // stays readable, so it must leave the set.
            let signal_fd = if signal_shutdown_requested() {
                -1
            } else {
                SIGNAL_PIPE_RX.load(Ordering::SeqCst)
            };
            let fd = |fd: i32| PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            };
            let mut fds = [
                fd(self.rx.as_raw_fd()),
                fd(listener.map_or(-1, AsRawFd::as_raw_fd)),
                fd(signal_fd),
            ];
            let timeout_ms =
                timeout.map_or(-1, |t| i32::try_from(t.as_millis()).unwrap_or(i32::MAX));
            // SAFETY: `fds` is a live array of `fds.len()` `pollfd`s;
            // negative descriptors are ignored by `poll`.
            let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if ready < 0 {
                let error = io::Error::last_os_error();
                return match error.kind() {
                    io::ErrorKind::Interrupted => Ok(()),
                    _ => Err(error),
                };
            }
            if fds[0].revents != 0 {
                let mut drain = [0u8; 64];
                while matches!((&self.rx).read(&mut drain), Ok(n) if n > 0) {}
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
mod portable {
    use std::io;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
    use std::time::Duration;

    /// No signals to install off unix; `/quitquitquit` still drains.
    pub fn install_signal_handlers() -> io::Result<()> {
        Ok(())
    }

    /// Off unix the listener blocks in `accept`; a wake-up is a
    /// connection to it, which the acceptor sees like any other.
    pub struct Waker {
        addr: SocketAddr,
    }

    impl Waker {
        pub fn new(listener: &TcpListener) -> io::Result<Waker> {
            let mut addr = listener.local_addr()?;
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr.ip() {
                    IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            Ok(Waker { addr })
        }

        pub fn wake(&self) {
            let _ = TcpStream::connect(self.addr);
        }

        /// A blocking `accept` never reports `WouldBlock`, so only the
        /// back-off after an accept error waits here.
        pub fn wait(
            &self,
            _listener: Option<&TcpListener>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            if let Some(timeout) = timeout {
                std::thread::sleep(timeout);
            }
            Ok(())
        }
    }
}

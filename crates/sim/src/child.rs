//! Disposable child worker processes: the self-exec spawn, the frame
//! reader, and every way a child ends.
//!
//! Cells run in a child process on a local [`Pool`](crate::pool::Pool)
//! seat, both behind `--isolate` and inside the `fdip workerd` daemon
//! ([`crate::fleet::serve_workerd`]) for each fleet connection. The pool
//! spawns, reads, retires, and classifies its children through this
//! module, so a crash means the same thing (and reports the same exit
//! evidence) whichever side of a socket it happened on.
//!
//! A child is the current binary re-executed with
//! [`WORKER_ENV`](crate::worker::WORKER_ENV) set, speaking the
//! [`crate::net`] frame protocol on stdin/stdout. A [`Child`] that is
//! dropped is killed and reaped, so no path leaves a zombie behind.

use std::io;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Duration;

use fdip_types::Json;

use crate::fault::CellError;
use crate::net::{read_frame, write_frame};

/// What one wait on a worker link brought.
pub(crate) enum Recv {
    /// One frame, undecoded.
    Frame(Json),
    /// Nothing before the wait ran out; the link is still up.
    Quiet,
    /// The link ended: EOF, a broken pipe or socket, or a torn frame.
    /// Classification uses the exit status, not the read error.
    Closed,
}

/// A live child worker: its process (with its request pipe) and frame
/// stream.
pub(crate) struct Child {
    process: std::process::Child,
    /// Frames from the stdout reader thread; `None` once the pipe ended.
    events: Receiver<Option<Json>>,
}

impl Child {
    /// Self-execs the current binary as a worker. The `worker` argument
    /// is cosmetic (it names the process in `ps`); activation is the
    /// environment variable, which works for every harness binary
    /// without touching its argv parsing. The daemon's listen variable is
    /// always cleared, or a child of an env-launched daemon would become
    /// a daemon too.
    pub(crate) fn spawn() -> io::Result<Child> {
        let exe = std::env::current_exe()?;
        let mut process = Command::new(exe)
            .arg("worker")
            .env(crate::worker::WORKER_ENV, "1")
            .env_remove(crate::worker::WORKERD_LISTEN_ENV)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = process.stdout.take().expect("stdout was piped");
        let (sender, events) = mpsc::channel();
        // Plain pipes have no read timeout, so a dedicated thread blocks on
        // the pipe and the owner waits on the channel, which does. The
        // thread exits with the pipe and is never joined.
        std::thread::spawn(move || loop {
            let frame = read_frame(&mut stdout).ok().flatten();
            let ended = frame.is_none();
            if sender.send(frame).is_err() || ended {
                return;
            }
        });
        Ok(Child { process, events })
    }

    /// Writes one frame to the child's stdin.
    ///
    /// # Errors
    ///
    /// The pipe is broken: the child died.
    pub(crate) fn send(&mut self, doc: &Json) -> io::Result<()> {
        write_frame(self.process.stdin.as_mut().expect("stdin was piped"), doc)
    }

    /// Waits up to `timeout` for the next frame.
    pub(crate) fn recv(&self, timeout: Duration) -> Recv {
        match self.events.recv_timeout(timeout) {
            Ok(Some(frame)) => Recv::Frame(frame),
            Err(RecvTimeoutError::Timeout) => Recv::Quiet,
            Ok(None) | Err(RecvTimeoutError::Disconnected) => Recv::Closed,
        }
    }

    /// Discards frames buffered while the child sat idle (a final
    /// heartbeat that raced the previous reply); returns whether the
    /// child died in the meantime, so the owner respawns instead of
    /// writing into a broken pipe.
    pub(crate) fn drain_idle(&self) -> bool {
        let mut dead = false;
        while let Ok(frame) = self.events.try_recv() {
            dead |= frame.is_none();
        }
        dead
    }

    /// Reaps a child that is already gone (or nearly): SIGKILL is a no-op
    /// on a zombie and does not change its recorded exit status, so this
    /// is safe on every death path.
    pub(crate) fn reap(mut self) -> io::Result<ExitStatus> {
        let _ = self.process.kill();
        self.process.wait()
    }

    /// Graceful retirement: close stdin (EOF ends the worker loop), give
    /// it a moment, escalate to SIGKILL if it will not leave. Returns
    /// whether the escalation was needed.
    pub(crate) fn retire(mut self) -> bool {
        drop(self.process.stdin.take());
        for _ in 0..50 {
            match self.process.try_wait() {
                Ok(Some(_)) => return false,
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        true
    }
}

impl Drop for Child {
    /// SIGKILL and reap, without looking at how it ended (a no-op for a
    /// child already reaped).
    fn drop(&mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

/// Classifies a dead child's exit status into [`CellError::Crashed`]: the
/// fatal signal (unix) and the exit code, each when known; both `None`
/// when the status itself was lost.
pub(crate) fn crashed(status: &io::Result<ExitStatus>, attempts: u32) -> CellError {
    let (signal, code) = match status {
        Ok(status) => (exit_signal(status), status.code()),
        Err(_) => (None, None),
    };
    CellError::Crashed {
        signal,
        code,
        attempts,
    }
}

#[cfg(unix)]
fn exit_signal(status: &ExitStatus) -> Option<i32> {
    std::os::unix::process::ExitStatusExt::signal(status)
}

#[cfg(not(unix))]
fn exit_signal(_status: &ExitStatus) -> Option<i32> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    // Spawning real workers needs a worker-capable executable;
    // `current_exe()` inside `cargo test` is the libtest runner, which
    // must never be self-exec'd. End-to-end supervision is covered by the
    // `tests/isolation.rs` and `tests/fleet.rs` integration tests against
    // the real `fdip` binary; this test pins the pure classification.

    #[test]
    fn crash_classification_covers_signal_code_and_unknown() {
        let err = crashed(&Err(io::Error::other("status lost")), 2);
        assert_eq!(
            err,
            CellError::Crashed {
                signal: None,
                code: None,
                attempts: 2
            }
        );
        // A real exit status from a real (instantly exiting) process.
        let status = Command::new("false").status();
        if status.is_ok() {
            let err = crashed(&status, 1);
            assert_eq!(
                err,
                CellError::Crashed {
                    signal: None,
                    code: Some(1),
                    attempts: 1
                }
            );
        }
    }
}

//! The ba-serve daemon: a TCP accept loop multiplexing agreement
//! sessions onto a bounded [`ba_par::Pool`].
//!
//! One connection is one session (one trial of one spec). The accept
//! thread reads the opening frame and hands the stream to a pool worker;
//! the socket carries a read and write timeout from accept to close, so
//! a connection that goes idle can wedge neither the daemon nor a
//! worker. Backpressure is explicit: when every worker is busy and the
//! backlog is full, the client gets [`Frame::Busy`] with a suggested
//! retry delay instead of an unbounded queue. A panicking session is
//! contained by the pool and reported to its client as [`Frame::Error`];
//! the daemon keeps serving. [`Frame::Shutdown`] stops intake, drains
//! queued sessions, and returns the run's [`ServeSummary`].
//!
//! The daemon's trace interleaves events from concurrent sessions, so —
//! unlike in-process traces — event *order* across sessions is not
//! deterministic; per-session event contents still are.

use crate::frame::{Frame, FrameError, FrameReader};
use crate::session;
use ba_obs::Trace;
use ba_par::Pool;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerOpts {
    /// Worker threads running sessions concurrently.
    pub workers: usize,
    /// Sessions that may wait beyond the ones running.
    pub queue: usize,
    /// Backoff suggested to rejected clients, in milliseconds.
    pub retry_after_ms: u32,
    /// Seconds of silence tolerated on a connection, the `Open` included:
    /// the socket's read and write timeout for the whole session.
    pub open_timeout_secs: u64,
    /// Observability handle shared by every session.
    pub trace: Trace,
}

impl Default for ServerOpts {
    fn default() -> Self {
        ServerOpts {
            workers: 4,
            queue: 16,
            retry_after_ms: 25,
            open_timeout_secs: 10,
            trace: Trace::off(),
        }
    }
}

/// What one daemon run did, returned by [`Server::run`] after drain.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Connections accepted (including the shutdown connection).
    pub connections: u64,
    /// Sessions that completed and reported an outcome.
    pub sessions_ok: u64,
    /// Sessions that failed (bad spec, socket error, or crash).
    pub sessions_failed: u64,
    /// Sessions rejected with [`Frame::Busy`].
    pub rejected_busy: u64,
}

#[derive(Default)]
struct Counters {
    ok: AtomicU64,
    failed: AtomicU64,
    busy: AtomicU64,
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    opts: ServerOpts,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str, opts: ServerOpts) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, opts })
    }

    /// The bound address (the resolved port when binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a [`Frame::Shutdown`] arrives, then drains the pool
    /// and returns the summary.
    pub fn run(self) -> ServeSummary {
        let pool = Pool::new(self.opts.workers, self.opts.queue);
        let counters = Arc::new(Counters::default());
        let trace = &self.opts.trace;
        let mut connections = 0u64;
        for stream in self.listener.incoming() {
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            connections += 1;
            let conn = connections;
            match self.open_connection(stream, conn, &pool, &counters) {
                ControlFlow::Continue => {}
                ControlFlow::Shutdown => break,
            }
        }
        trace.event("serve:drain", connections, "", &[]);
        pool.drain();
        trace.finish();
        ServeSummary {
            connections,
            sessions_ok: counters.ok.load(Ordering::Relaxed),
            sessions_failed: counters.failed.load(Ordering::Relaxed),
            rejected_busy: counters.busy.load(Ordering::Relaxed),
        }
    }

    /// Reads the opening frame and dispatches the connection.
    fn open_connection(
        &self,
        stream: TcpStream,
        conn: u64,
        pool: &Pool,
        counters: &Arc<Counters>,
    ) -> ControlFlow {
        let trace = &self.opts.trace;
        // The first frame is read on the accept thread: bound the wait
        // so a silent connection cannot stall intake forever. The bound
        // stays in force for the session, on reads and writes both — a
        // live switch answers in microseconds, so a peer that goes quiet
        // (or stops reading) mid-session fails its session and frees its
        // worker instead of pinning it.
        let idle = Some(Duration::from_secs(self.opts.open_timeout_secs.max(1)));
        let _ = stream.set_read_timeout(idle);
        let _ = stream.set_write_timeout(idle);
        // Every round ends in a 9-byte `Collect` behind a burst of
        // sub-MSS writes; Nagle would hold it for the peer's ACK.
        let _ = stream.set_nodelay(true);
        match FrameReader::new(&stream).read_frame() {
            Ok(Frame::Open { trial, spec }) => {
                trace.event(
                    "serve:accept",
                    conn,
                    "",
                    &[("trial", trial.into()), ("spec_bytes", spec.len().into())],
                );
                let job_trace = trace.clone();
                let job_counters = Arc::clone(counters);
                // The stream is shared with the job closure so a
                // rejected admission can still answer Busy on it.
                let stream = Arc::new(stream);
                let job_stream = Arc::clone(&stream);
                let admitted = pool.try_spawn(move || {
                    run_session_job(&job_stream, conn, trial, &spec, &job_trace, &job_counters);
                });
                if let Err(full) = admitted {
                    counters.busy.fetch_add(1, Ordering::Relaxed);
                    trace.event("serve:busy", conn, "", &[("queued", full.queued.into())]);
                    session::send_terminal(
                        &stream,
                        &Frame::Busy {
                            retry_after_ms: self.opts.retry_after_ms,
                        },
                    );
                }
                ControlFlow::Continue
            }
            Ok(Frame::Shutdown) => {
                trace.event("serve:shutdown", conn, "", &[]);
                ControlFlow::Shutdown
            }
            Ok(other) => {
                session::send_terminal(
                    &stream,
                    &Frame::Error {
                        message: format!("expected an open frame, got {other:?}"),
                    },
                );
                ControlFlow::Continue
            }
            Err(FrameError::Closed) => ControlFlow::Continue,
            Err(e) => {
                session::send_terminal(
                    &stream,
                    &Frame::Error {
                        message: format!("bad opening frame: {e}"),
                    },
                );
                ControlFlow::Continue
            }
        }
    }
}

enum ControlFlow {
    Continue,
    Shutdown,
}

/// The pool job for one admitted session: run it, contain a crash, and
/// always leave the client with a terminal frame.
fn run_session_job(
    stream: &TcpStream,
    conn: u64,
    trial: u64,
    spec: &str,
    trace: &Trace,
    counters: &Counters,
) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        session::run(stream, conn, trial, spec, trace)
    }));
    match result {
        Ok(Ok(outcome)) => {
            counters.ok.fetch_add(1, Ordering::Relaxed);
            session::send_terminal(stream, &Frame::Outcome(outcome));
        }
        Ok(Err(message)) => {
            counters.failed.fetch_add(1, Ordering::Relaxed);
            trace.event(
                "serve:error",
                conn,
                "",
                &[("message", message.as_str().into())],
            );
            session::send_terminal(stream, &Frame::Error { message });
        }
        Err(panic) => {
            counters.failed.fetch_add(1, Ordering::Relaxed);
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_owned());
            let message = format!("session crashed: {what}");
            trace.event(
                "serve:error",
                conn,
                "",
                &[("message", message.as_str().into())],
            );
            session::send_terminal(stream, &Frame::Error { message });
        }
    }
}

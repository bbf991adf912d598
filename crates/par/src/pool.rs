//! A fixed, *owned* worker pool with a bounded queue — the session
//! substrate for long-running, possibly-blocking jobs.
//!
//! The crate-level helpers ([`par_map_index`](crate::par_map_index) and
//! friends) run short CPU-bound lanes on one process-wide pool whose
//! waiters *help* by draining the shared queue. That helping discipline
//! is exactly wrong for jobs that **block** (e.g. a served agreement
//! session waiting on socket I/O): a helper that picks one up is stuck
//! behind it. [`Pool`] is the complement — a dedicated set of workers
//! with an explicitly bounded backlog:
//!
//! * [`Pool::try_spawn`] never blocks: when the backlog is at capacity it
//!   returns [`Full`], making backpressure a first-class outcome the
//!   caller can surface (ba-serve replies *busy, retry later*);
//! * workers survive panicking jobs (the panic is contained per job —
//!   crash isolation for sessions);
//! * [`Pool::drain`] stops intake, runs everything already queued, and
//!   joins the workers — the graceful-shutdown path.
//!
//! Blocking jobs on a `Pool` may still fan CPU work out through the
//! process-wide helpers; the two layers share nothing but the process.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Rejection from [`Pool::try_spawn`]: every worker is busy and the
/// backlog is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Full {
    /// Jobs waiting in the backlog at rejection time.
    pub queued: usize,
}

impl std::fmt::Display for Full {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool backlog full ({} queued)", self.queued)
    }
}

impl std::error::Error for Full {}

struct State {
    queue: VecDeque<Job>,
    /// Jobs currently executing on a worker.
    running: usize,
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers that the queue became non-empty or drain started.
    wake: Condvar,
}

/// A fixed-size worker pool with a bounded job backlog. See the module
/// docs for how it differs from the process-wide fan-out helpers.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    queue_cap: usize,
}

impl Pool {
    /// Starts `workers` dedicated threads (at least one) accepting up to
    /// `queue_cap` queued jobs beyond the ones currently running.
    pub fn new(workers: usize, queue_cap: usize) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                running: 0,
                draining: false,
            }),
            wake: Condvar::new(),
        });
        let workers = workers.max(1);
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ba-pool-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
            queue_cap,
        }
    }

    /// Enqueues `job` unless the pool is at capacity (or draining), in
    /// which case the job is returned to the caller as a [`Full`]
    /// rejection and nothing runs. Capacity counts both running and
    /// queued jobs: a pool of `w` workers and backlog `q` admits at most
    /// `w + q` outstanding jobs.
    pub fn try_spawn(&self, job: impl FnOnce() + Send + 'static) -> Result<(), Full> {
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        if st.draining || st.running + st.queue.len() >= self.workers.len() + self.queue_cap {
            return Err(Full {
                queued: st.queue.len(),
            });
        }
        st.queue.push_back(Box::new(job));
        drop(st);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Graceful shutdown: stops accepting new jobs, lets workers finish
    /// everything already running or queued, and joins them.
    pub fn drain(self) {
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.draining = true;
        }
        self.shared.wake.notify_all();
        for h in self.workers {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.running += 1;
                    break job;
                }
                if st.draining {
                    return;
                }
                st = shared.wake.wait(st).expect("pool state poisoned");
            }
        };
        // Contain per-job panics: a crashed session must not take its
        // worker down. The job is responsible for its own reporting.
        let _ = catch_unwind(AssertUnwindSafe(job));
        let mut st = shared.state.lock().expect("pool state poisoned");
        st.running -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_drains() {
        let pool = Pool::new(3, 64);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..40 {
            let hits = Arc::clone(&hits);
            pool.try_spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .expect("spawn");
        }
        pool.drain();
        assert_eq!(hits.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn backlog_full_rejects_without_running() {
        // One worker parked on a gate, zero backlog: the second spawn
        // must be rejected immediately.
        let pool = Pool::new(1, 0);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_spawn(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .expect("first spawn fits");
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("first job started");
        let err = pool
            .try_spawn(|| panic!("must never run"))
            .expect_err("backlog is full");
        assert_eq!(err, Full { queued: 0 });
        gate_tx.send(()).unwrap();
        pool.drain();
    }

    #[test]
    fn queued_jobs_run_during_drain() {
        let pool = Pool::new(1, 16);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let hits = Arc::clone(&hits);
            pool.try_spawn(move || {
                std::thread::sleep(Duration::from_millis(1));
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .expect("spawn");
        }
        pool.drain();
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panicking_job_leaves_workers_alive() {
        let pool = Pool::new(1, 16);
        pool.try_spawn(|| panic!("session crash")).expect("spawn");
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let hits = Arc::clone(&hits);
            pool.try_spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .expect("spawn after crash");
        }
        pool.drain();
        assert_eq!(hits.load(Ordering::Relaxed), 1, "worker survived the panic");
    }
}

//! The workspace's one scoped worker pool: the query executor's morsels and
//! the engine's hypotheses both run through [`run_indexed`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::{LockClass, Mutex};

/// Per-call result collection: a leaf push after each job completes, so
/// nothing ever nests inside it.
static POOL_RESULTS: LockClass = LockClass::new("sync.pool.results", 90);

/// The machine's available parallelism, asked once per process; 1 when it
/// cannot be determined. Every worker count that is not set explicitly
/// starts here.
pub fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f(i)` for every `i` in `0..jobs` on at most `workers` scoped
/// threads that share one atomic cursor, and returns the results in index
/// order whichever thread ran them. With `workers <= 1` (or at most one
/// job) the jobs run inline on the caller, in index order. Each caller
/// picks its own worker count.
pub fn run_indexed<T: Send>(jobs: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(jobs);
    if workers <= 1 {
        return (0..jobs).map(f).collect();
    }
    let results = Mutex::new(&POOL_RESULTS, Vec::with_capacity(jobs));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let r = f(i);
                    results.lock().push((i, r));
                })
            })
            .collect();
        // Joined here, not left to the scope: the scope stops waiting when
        // a thread's closure returns, a join when the thread has exited —
        // and so has handed its malloc arena back for the next call's
        // threads to reuse. Without it, back-to-back calls find the arenas
        // still taken, make new ones, and the process grows.
        for thread in threads {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let mut collected = results.into_inner();
    collected.sort_unstable_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 8] {
            // On threads, job 0 finishes last: it waits until the last job
            // has run, which another worker does meanwhile.
            let last_ran = AtomicBool::new(false);
            let out = run_indexed(50, workers, |i| {
                if i == 49 {
                    last_ran.store(true, Ordering::Release);
                }
                while i == 0 && workers > 1 && !last_ran.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                i * i
            });
            assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn zero_jobs_run_nothing() {
        for workers in [0, 1, 8] {
            let out: Vec<usize> = run_indexed(0, workers, |_| unreachable!("no job to run"));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn more_workers_than_jobs() {
        assert_eq!(run_indexed(3, 64, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(run_indexed(1, 64, |i| i + 1), vec![1]);
    }

    #[test]
    fn worker_threads_have_exited_when_the_call_returns() {
        // A worker's thread-locals are destroyed as its thread exits, after
        // its closure has returned: seeing them all gone means the call
        // waited for the exits, not just for the closures.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Live;
        impl Drop for Live {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        thread_local!(static MARK: std::cell::OnceCell<Live> = const { std::cell::OnceCell::new() });
        for _ in 0..200 {
            run_indexed(4, 2, |_| {
                MARK.with(|m| {
                    m.get_or_init(|| {
                        LIVE.fetch_add(1, Ordering::SeqCst);
                        Live
                    });
                })
            });
            assert_eq!(LIVE.load(Ordering::SeqCst), 0, "a worker outlived the call");
        }
    }

    #[test]
    fn inline_runs_stay_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = run_indexed(4, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn the_first_failing_index_is_the_one_reported() {
        for workers in [1, 2, 8] {
            let out: Result<Vec<usize>, usize> =
                run_indexed(40, workers, |i| if i % 10 == 7 { Err(i) } else { Ok(i) })
                    .into_iter()
                    .collect();
            assert_eq!(out, Err(7), "workers={workers}");
        }
    }
}

//! A generic worker-pool fan over independent jobs.
//!
//! [`fan_stealing`] is a work-stealing job queue: one atomic cursor over
//! the shared job slice, each worker claiming the next un-started job.
//! Results come back **in job order** and are bit-identical to the
//! serial map, because every job is independent and each worker writes
//! only the slots of the jobs it claimed. Per-job overhead is one
//! `fetch_add` plus one uncontended mutex lock, which heterogeneous
//! fleet campaigns repay many times over in tail latency.
//!
//! Plain [`std::thread::scope`] — no runtime dependency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The worker width a fan call resolves a `threads` argument to, before
/// job-count clamping: `0` means "one worker per available core" (so a
/// 1-CPU container benches honestly instead of oversubscribing), any
/// other value is taken as-is. The bench binaries report this resolved
/// width next to their timings.
pub fn resolve_workers(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
}

/// Work-stealing fan: `min(threads, jobs)` workers race an atomic
/// cursor over the shared job slice, each claiming the next un-started
/// job until the queue drains. Results come back **in job order**,
/// identical to the serial map — scheduling order only changes *when* a
/// job runs, never its input or its result slot. Job costs may be
/// heterogeneous (fleet campaigns mix 60-step reactive vehicles with
/// 360-step MPC vehicles): a worker that finishes early claims the next
/// job instead of idling while another grinds through the expensive
/// tail. The sweep binaries rely on the job-order results to keep their
/// tables stable across machines.
pub fn fan_stealing<T, R, F>(jobs: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = jobs.len();
    let threads = resolve_workers(threads).clamp(1, n.max(1));
    if threads <= 1 {
        return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    // Each slot is claimed exactly once (the cursor hands out each index
    // to one worker), so the per-slot mutex is never contended — it
    // exists to move `T` out of the shared slice without `unsafe`.
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let f = &f;
                let slots = &slots;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut claimed: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // A sibling worker panicking while holding a
                        // *different* slot's lock must not cascade: each
                        // slot is claimed exactly once, so a recovered
                        // guard always sees a complete Option.
                        let job = slots[i]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .take()
                            .expect("cursor hands each job out once");
                        claimed.push((i, f(i, job)));
                    }
                    claimed
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(claimed) => {
                    for (i, r) in claimed {
                        results[i] = Some(r);
                    }
                }
                // Job closures are expected to contain their own panics
                // (the engine wraps vehicles in catch_unwind); if one
                // escapes anyway, re-raise the original payload instead
                // of masking it behind a generic join error.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fans_preserve_job_order() {
        let serial: Vec<usize> = (0..23).map(|j| 3 * j + 1).collect();
        let jobs: Vec<usize> = (0..23).collect();
        let f = |i: usize, j: usize| {
            assert_eq!(i, j, "index matches the job's position");
            3 * j + 1
        };
        assert_eq!(fan_stealing(jobs.clone(), 0, f), serial);
        assert_eq!(fan_stealing(jobs, 4, f), serial);
    }

    #[test]
    fn degenerate_sizes_work() {
        assert_eq!(fan_stealing(vec![5], 8, |_, j| j * j), vec![25]);
        assert_eq!(
            fan_stealing(Vec::<usize>::new(), 8, |_, j| j),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn caps_wider_than_the_machine_still_complete() {
        let jobs: Vec<usize> = (0..100).collect();
        let out = fan_stealing(jobs, 16, |_, j| j + 1);
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
    }
}

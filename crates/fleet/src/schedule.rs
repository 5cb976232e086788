//! Device-task scheduling: the fleet's one layer of parallelism.
//!
//! Fleet work units (one device's shard scan or training run) are
//! scheduled across [`kinet_tensor::pool::num_threads`] scoped workers,
//! sized by the `KINET_THREADS` knob; the tensor kernels themselves run on
//! the calling thread. Each worker pulls the next task index from a shared
//! counter. Inside a task the knob is pinned to one, so a schedule nested
//! in a task (a service round run inside a settled task, say) runs
//! serially on that task's thread instead of spawning a second layer of
//! workers.
//!
//! Determinism: every task derives its randomness from its own index, and
//! results are returned **in index order** regardless of which worker ran
//! them or in what order they finished, so a fleet report is bit-identical
//! for every `KINET_THREADS` value.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `f(0..n)` across the task workers and returns the results in
/// index order. Falls back to a plain sequential loop on the calling thread
/// when one worker suffices; the knob is not pinned there, so a schedule
/// nested in such a task may still fan out.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing task.
///
/// # Panics
///
/// Panics if a task panics (the panic is propagated).
pub fn run_indexed<T, E, F>(n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let settled = run_indexed_settled(n, f);
    let mut out = Vec::with_capacity(n);
    let mut first_err = None;
    for result in settled {
        match result {
            Ok(v) => out.push(v),
            Err(e) => {
                // Index order means the first error seen is the
                // lowest-indexed one.
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Runs `f(0..n)` across the task workers and returns **every**
/// task's outcome in index order, without short-circuiting on failure —
/// the settled variant quorum aggregation needs: a fault on device 0 must
/// not discard the work of devices 1..n.
///
/// Same scheduling and determinism contract as [`run_indexed`]; the
/// sequential fallback keeps the ambient thread count.
///
/// # Panics
///
/// Panics if a task panics (the panic is propagated).
pub fn run_indexed_settled<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = kinet_tensor::pool::num_threads().clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let (next, f) = (&next, &f);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    // Pin the knob to one inside a task worker, so a schedule
                    // nested in the task runs serially on this thread instead
                    // of spawning workers under workers.
                    let result = kinet_tensor::pool::with_threads(1, || f(i));
                    if tx.send((i, result)).is_err() {
                        return;
                    }
                })
            })
            .collect();
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        // Re-raise a task's panic with its own payload.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task index sent exactly one result"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_tensor::pool::with_threads;

    #[test]
    fn results_arrive_in_index_order_for_any_worker_count() {
        for threads in [1, 2, 3, 8] {
            let out: Result<Vec<usize>, String> =
                with_threads(threads, || run_indexed(17, |i| Ok(i * i)));
            let expected: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(out.unwrap(), expected, "threads={threads}");
        }
    }

    #[test]
    fn lowest_indexed_error_wins() {
        for threads in [1, 4] {
            let out: Result<Vec<usize>, String> = with_threads(threads, || {
                run_indexed(10, |i| {
                    if i == 7 || i == 3 {
                        Err(format!("task {i} failed"))
                    } else {
                        Ok(i)
                    }
                })
            });
            assert_eq!(out.unwrap_err(), "task 3 failed", "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "task 5 exploded")]
    fn a_panicking_task_propagates_out_of_parallel_workers() {
        let _: Result<Vec<usize>, String> = with_threads(2, || {
            run_indexed(8, |i| {
                assert_ne!(i, 5, "task {i} exploded");
                Ok(i)
            })
        });
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Result<Vec<usize>, String> = run_indexed(0, Ok);
        assert!(none.unwrap().is_empty());
        let one: Result<Vec<usize>, String> = with_threads(4, || run_indexed(1, |i| Ok(i + 5)));
        assert_eq!(one.unwrap(), vec![5]);
    }

    #[test]
    fn settled_keeps_every_outcome_in_index_order() {
        for threads in [1, 4] {
            let out: Vec<Result<usize, String>> = with_threads(threads, || {
                run_indexed_settled(10, |i| {
                    if i % 3 == 0 {
                        Err(format!("task {i} failed"))
                    } else {
                        Ok(i)
                    }
                })
            });
            assert_eq!(out.len(), 10, "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i),
                    Err(e) => assert_eq!(*e, format!("task {i} failed")),
                }
            }
            assert_eq!(
                out.iter().filter(|r| r.is_err()).count(),
                4,
                "no outcome is discarded"
            );
        }
    }

    #[test]
    fn nested_schedules_run_serially_inside_parallel_workers() {
        let serial: Result<Vec<bool>, String> = with_threads(4, || {
            run_indexed(8, |_| {
                let task = std::thread::current().id();
                let inner: Result<Vec<_>, String> =
                    run_indexed(4, |_| Ok(std::thread::current().id()));
                Ok(kinet_tensor::pool::num_threads() == 1
                    && inner.unwrap().iter().all(|&id| id == task))
            })
        });
        assert!(serial.unwrap().iter().all(|&ok| ok));
        // Sequential fallback keeps the ambient count.
        let counts: Result<Vec<usize>, String> = with_threads(1, || {
            run_indexed(3, |_| Ok(kinet_tensor::pool::num_threads()))
        });
        assert!(counts.unwrap().iter().all(|&c| c == 1));
    }
}

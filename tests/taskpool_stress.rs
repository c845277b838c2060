//! Stress test for `TaskPool`'s scheduling counters: many tiny tasks
//! that yield, park and wake each other on a few more worker threads
//! than the host has cores. Every wake re-enqueues a task from one
//! worker while the others are dequeuing, which is exactly the window
//! in which a counter published after its task can be decremented
//! before it was incremented. The run must finish (no lost wake, no
//! dead worker), every task must complete, and the runnable-task peak
//! must never exceed the task count.

use otif::core::evalpool::{PollTask, Polled, TaskPool, TaskWaker};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Worker threads: a fixed small count, above the core count of a
/// typical CI host, so workers race each other for the shared queue.
const WORKERS: usize = 8;
/// Ping-pong pairs per pool run (two tasks each).
const PAIRS: usize = 16;
/// Turns each side of a pair takes before it is done.
const TURNS: usize = 200;
/// Pool runs per test.
const RUNS: usize = 40;

/// Whose turn it is within one pair, guarded so that a side checks the
/// turn and registers its interest (by returning `Pending`) atomically
/// with respect to its partner's flip-then-wake.
struct Pair {
    turn: Mutex<usize>,
}

/// One side of a ping-pong pair: on its turn it hands the turn over and
/// wakes its partner; otherwise it parks until the partner wakes it.
/// Every few turns it yields instead of looping, so the run exercises
/// the yield requeue as well as the wake requeue.
struct Side {
    me: usize,
    pair: Arc<Pair>,
    partner: TaskWaker,
    taken: usize,
    completed: Arc<AtomicUsize>,
}

impl PollTask for Side {
    fn poll(&mut self) -> Polled {
        loop {
            {
                let mut turn = self.pair.turn.lock().unwrap();
                if *turn != self.me {
                    return Polled::Pending;
                }
                *turn = 1 - self.me;
            }
            self.taken += 1;
            self.partner.wake();
            if self.taken == TURNS {
                self.completed.fetch_add(1, Ordering::SeqCst);
                return Polled::Done;
            }
            if self.taken.is_multiple_of(3) {
                return Polled::Yielded;
            }
        }
    }
}

/// One pool run; returns (tasks completed, peak runnable tasks).
fn run_pool() -> (usize, u64) {
    let n_tasks = 2 * PAIRS;
    let pool = TaskPool::new(n_tasks, None);
    let completed = Arc::new(AtomicUsize::new(0));
    let mut tasks: Vec<Box<dyn PollTask>> = Vec::with_capacity(n_tasks);
    for p in 0..PAIRS {
        let pair = Arc::new(Pair {
            turn: Mutex::new(0),
        });
        for me in 0..2 {
            tasks.push(Box::new(Side {
                me,
                pair: Arc::clone(&pair),
                partner: pool.waker(2 * p + (1 - me)),
                taken: 0,
                completed: Arc::clone(&completed),
            }));
        }
    }
    let metrics = pool.run(WORKERS, tasks);
    (completed.load(Ordering::SeqCst), metrics.peak_runnable)
}

#[test]
fn yield_wake_park_storm_keeps_counters_in_range() {
    // The pool runs on a helper thread so a wedged pool fails the test
    // within a bounded time instead of hanging the suite.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..RUNS {
            let outcome = std::panic::catch_unwind(run_pool);
            let stop = outcome.is_err();
            if tx.send(outcome.map_err(|_| ())).is_err() || stop {
                return;
            }
        }
    });
    for run in 0..RUNS {
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("pool run {run} did not finish within 30 s"));
        let (completed, peak) =
            outcome.unwrap_or_else(|()| panic!("pool run {run} panicked inside the pool"));
        assert_eq!(completed, 2 * PAIRS, "run {run}: every task completes");
        assert!(
            peak <= (2 * PAIRS) as u64,
            "run {run}: peak runnable {peak} exceeds the {} tasks",
            2 * PAIRS
        );
    }
}

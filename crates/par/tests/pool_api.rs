//! Direct tests of the public pool API as an external consumer —
//! previously `par_map_isolated` attribution and `par_map`'s
//! exactly-once visiting were only exercised indirectly through the
//! suite.

use std::sync::atomic::{AtomicUsize, Ordering};

use fairem_par::{Budget, CancelCause, CancelToken, ParOutcome, WorkerPool};

#[test]
fn par_map_isolated_attributes_each_poisoned_item() {
    // Several poisoned items, spread across chunks, each attributed to
    // exactly itself — under every worker count.
    let poisoned = [3usize, 57, 58, 199];
    for workers in [1, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        let out = pool.par_map_isolated(200, |i| {
            assert!(!poisoned.contains(&i), "injected: item {i} dies");
            i * i
        });
        assert_eq!(out.len(), 200, "workers={workers}");
        for (i, r) in out.iter().enumerate() {
            if poisoned.contains(&i) {
                let e = r.as_ref().expect_err("poisoned item must fail");
                assert!(
                    e.contains(&format!("item {i} dies")),
                    "workers={workers} i={i}: wrong attribution: {e}"
                );
            } else {
                assert_eq!(r.as_ref().copied(), Ok(i * i), "workers={workers} i={i}");
            }
        }
    }
}

#[test]
fn par_map_isolated_with_no_failures_is_all_ok() {
    let pool = WorkerPool::new(4);
    let out = pool.par_map_isolated(64, |i| i + 1);
    assert!(out.iter().enumerate().all(|(i, r)| r == &Ok(i + 1)));
}

#[test]
fn par_map_visits_every_index_exactly_once_per_worker_count() {
    for workers in [1, 3, 4, 7] {
        let hits: Vec<AtomicUsize> = (0..501).map(|_| AtomicUsize::new(0)).collect();
        let pool = WorkerPool::new(workers);
        pool.par_map(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "workers={workers} i={i}");
        }
    }
}

#[test]
fn cancel_tree_trip_is_visible_to_children_created_concurrently() {
    // The server model hangs a fresh child token off the root for every
    // request, from many connection threads at once, while SIGINT can
    // trip the root at any moment. The contract under that race: once
    // `cancel()` has returned, *no* child — however deep, whenever
    // created — may observe itself un-tripped. We pin it by hammering
    // child creation on N threads while the main thread trips the root,
    // and asserting that every child created after the trip was
    // published observes the cancellation immediately.
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    const THREADS: usize = 8;
    const MAX_DEPTH: usize = 32;
    for round in 0..8 {
        let root = CancelToken::inert();
        // Published with SeqCst *after* cancel() returns, so any thread
        // reading `true` is ordered after the trip.
        let tripped = AtomicBool::new(false);
        let stop = AtomicBool::new(false);
        let start = Barrier::new(THREADS + 1);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (root, tripped, stop, start) = (&root, &tripped, &stop, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut parent = root.clone();
                    let mut depth = 0usize;
                    let mut created = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let saw_trip = tripped.load(Ordering::SeqCst);
                        let child = parent.child(Budget::UNLIMITED);
                        created += 1;
                        if saw_trip {
                            assert!(
                                child.is_cancelled(),
                                "thread {t}: child #{created} (depth {depth}) created \
                                 after the root trip returned but observed un-tripped"
                            );
                        }
                        // Grow the ancestor chain so propagation is
                        // exercised at depth, not just root→child.
                        if child.checkpoint().is_ok() && depth < MAX_DEPTH {
                            parent = child;
                            depth += 1;
                        } else {
                            parent = root.clone();
                            depth = 0;
                        }
                    }
                    created
                });
            }
            start.wait();
            // Let the churn build some trees, then trip mid-flight.
            std::thread::sleep(std::time::Duration::from_millis(2 + round));
            root.cancel();
            tripped.store(true, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            stop.store(true, Ordering::SeqCst);
        });
        // And the root's own record agrees.
        assert_eq!(root.cause(), Some(CancelCause::Cancelled), "round {round}");
    }
}

#[test]
fn cancellable_map_accounts_partial_progress() {
    let pool = WorkerPool::new(4);
    let token = CancelToken::with_budget(Budget::UNLIMITED);
    token.cancel();
    match pool.par_map_within(100, &token, |i| i) {
        ParOutcome::Interrupted {
            done,
            completed,
            total,
            interrupt,
        } => {
            assert!(done.is_empty());
            assert_eq!((completed, total), (0, 100));
            assert_eq!(interrupt.cause, CancelCause::Cancelled);
        }
        ParOutcome::Complete(_) => panic!("pre-cancelled token must interrupt"),
    }
}

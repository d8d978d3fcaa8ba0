//! Deterministic index-ordered parallelism.
//!
//! The workspace vendors no rayon, so every fan-out (batch jobs, repetitions
//! × shards inside one scheme run, Optimal's pre-solves) uses the same
//! primitive: an atomic cursor over the task list, a scoped worker pool, and
//! a fold that consumes results in index order, never in completion order,
//! so the output is bit-for-bit identical at any worker count — the
//! property the batch runner's JSONL determinism test pins.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One in-order delivery of [`par_fold_grouped`]: task `index`'s result is
/// being folded, with `queued` later results parked out of order behind it.
///
/// `queued` is the folder-queue depth — how far completion order ran ahead
/// of fold order. It depends on scheduling (always 0 single-threaded), so
/// it belongs in progress heartbeats, never in deterministic output.
#[derive(Debug, Clone, Copy)]
pub struct FoldStep {
    /// Index of the task being folded (strictly increasing, `0..n`).
    pub index: usize,
    /// Results already completed but waiting for earlier indices to fold.
    pub queued: usize,
}

/// Claim-side backpressure of [`par_fold_grouped`]: a counting gate that
/// caps how many task indices may be outstanding (claimed but not yet
/// folded) at once. Without it, one slow early task would let the other
/// workers run arbitrarily far ahead and park up to `n − 1` full results
/// in the reorder buffer — quietly reintroducing the O(n) merge memory
/// the fold exists to remove. Workers take a permit before claiming an
/// index; the folder returns one per folded result; `close()` (also run
/// on unwind, via [`GateCloseGuard`]) wakes every waiter so workers can
/// exit if the folder dies.
struct FoldGate {
    state: std::sync::Mutex<(usize, bool)>, // (permits, closed)
    cv: std::sync::Condvar,
}

impl FoldGate {
    fn new(permits: usize) -> Self {
        FoldGate { state: std::sync::Mutex::new((permits, false)), cv: std::sync::Condvar::new() }
    }

    /// Blocks for a permit; `false` when the gate closed instead.
    fn acquire(&self) -> bool {
        let mut st = self.state.lock().expect("fold gate lock");
        while st.0 == 0 && !st.1 {
            st = self.cv.wait(st).expect("fold gate wait");
        }
        if st.1 {
            return false;
        }
        st.0 -= 1;
        true
    }

    fn release(&self) {
        let mut st = self.state.lock().expect("fold gate lock");
        st.0 += 1;
        drop(st);
        self.cv.notify_one();
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("fold gate lock");
        st.1 = true;
        drop(st);
        self.cv.notify_all();
    }
}

/// Closes the gate when dropped — including on an unwinding fold
/// callback, so blocked workers never outlive a dead folder.
struct GateCloseGuard<'a>(&'a FoldGate);

impl Drop for GateCloseGuard<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Runs an *interleaved* task pool on at most `max_threads` workers and
/// folds every result **in per-group index order** on the calling thread.
///
/// `tasks[pos] = (group, index)` lists every task in execution order:
/// workers claim positions left to right through one atomic cursor, so the
/// caller chooses which tasks run near each other (e.g. every consumer of
/// one expensive shared input, back to back) independently of how results
/// are folded. Workers emit results and each group's are folded
/// **strictly in that group's listed index order** — early arrivals park in
/// a reorder buffer whose depth is reported through [`FoldStep::queued`] —
/// so every per-group accumulator is bit-identical at any worker count;
/// only the cross-group interleaving of fold calls is scheduling-dependent. One group listing `0..n` is the plain in-order
/// fold of `n` tasks.
///
/// A claim-side gate caps outstanding (claimed-but-not-yet-folded)
/// positions at `2 × workers`, so live state is the accumulators plus an
/// O(workers) out-of-order window even when one early task runs
/// arbitrarily longer than its successors — never O(n). Deadlock-freedom
/// requires the **subsequence property** (debug-asserted up front): each
/// group's indices must appear in increasing order along `tasks`. Then the
/// globally oldest outstanding claimed position's same-group predecessors
/// are all folded already, so its completion always folds immediately and
/// returns a claim permit — the gate can never wedge with every worker
/// parked behind an unfoldable hole.
///
/// `f(pos)` must depend only on `tasks[pos]` (and captured shared state).
/// The fold callback receives the task's group, a [`FoldStep`] whose
/// `index` is the within-group index and whose `queued` counts results
/// parked across *all* groups, and the task's result. With
/// `max_threads <= 1` (or one task) tasks run inline and fold in execution
/// order — valid because, per group, execution order *is* index order.
/// Worker panics propagate to the caller after the pool drains.
pub fn par_fold_grouped<T: Send, F: Fn(usize) -> T + Sync>(
    tasks: &[(usize, usize)],
    max_threads: usize,
    f: F,
    mut fold: impl FnMut(usize, FoldStep, T),
) {
    let n = tasks.len();
    #[cfg(debug_assertions)]
    {
        let mut last: BTreeMap<usize, usize> = BTreeMap::new();
        for &(g, i) in tasks {
            if let Some(prev) = last.insert(g, i) {
                debug_assert!(
                    prev < i,
                    "group {g}: index {i} listed at or before index {prev} — \
                     per-group indices must be increasing (subsequence property)"
                );
            }
        }
    }
    let threads = max_threads.min(n).max(1);
    if threads == 1 {
        for (pos, &(g, i)) in tasks.iter().enumerate() {
            fold(g, FoldStep { index: i, queued: 0 }, f(pos));
        }
        return;
    }
    let n_groups = tasks.iter().map(|&(g, _)| g + 1).max().unwrap_or(0);
    let cursor = AtomicUsize::new(0);
    // 2 × workers outstanding claims: enough slack that the folder never
    // starves workers (each worker's final over-the-end claim also burns
    // a permit, and n folds release n permits), small enough that the
    // reorder buffer stays O(workers).
    let gate = FoldGate::new(2 * threads);
    // A panicking task would leave a hole the in-order folder can never
    // fold past — with everyone else parked on the gate, that's a
    // deadlock, not a failure. Workers therefore catch the payload,
    // close the gate (waking peers so every thread exits cleanly), and
    // the panic is re-raised on the calling thread after the scope.
    let panicked: std::sync::Mutex<Option<Box<dyn std::any::Any + Send>>> =
        std::sync::Mutex::new(None);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let gate = &gate;
            let panicked = &panicked;
            let f = &f;
            scope.spawn(move || loop {
                if !gate.acquire() {
                    break;
                }
                let pos = cursor.fetch_add(1, Ordering::Relaxed);
                if pos >= n {
                    break;
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(pos))) {
                    Ok(v) => {
                        if tx.send((pos, v)).is_err() {
                            break;
                        }
                    }
                    Err(payload) => {
                        let mut slot = panicked.lock().expect("panic slot lock");
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        drop(slot);
                        gate.close();
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Per-group reorder buffers plus each group's expected index
        // sequence (its listed order). `parked` counts results waiting
        // across all groups; the gate keeps it O(workers). The guard closes
        // the gate on every exit path (normal or a panicking `fold`),
        // releasing any parked workers.
        let _close = GateCloseGuard(&gate);
        let mut pending: Vec<BTreeMap<usize, T>> = Vec::new();
        pending.resize_with(n_groups, BTreeMap::new);
        let mut expect: Vec<std::collections::VecDeque<usize>> =
            vec![std::collections::VecDeque::new(); n_groups];
        for &(g, i) in tasks {
            expect[g].push_back(i);
        }
        let mut parked = 0usize;
        for (pos, v) in rx {
            let (g, _) = tasks[pos];
            pending[g].insert(tasks[pos].1, v);
            parked += 1;
            while let Some(&want) = expect[g].front() {
                let Some(v) = pending[g].remove(&want) else { break };
                expect[g].pop_front();
                parked -= 1;
                fold(g, FoldStep { index: want, queued: parked }, v);
                gate.release();
            }
        }
        debug_assert!(
            panicked.lock().expect("panic slot lock").is_some()
                || (parked == 0 && expect.iter().all(|q| q.is_empty())),
            "all results folded"
        );
    });
    if let Some(payload) = panicked.into_inner().expect("panic slot lock") {
        std::panic::resume_unwind(payload);
    }
}

/// The machine's available parallelism (1 when undetectable) — the default
/// worker budget for [`par_fold_grouped`] call sites.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A value that survived [`retry_unwind`], plus how many attempts panicked
/// before it (0 on a clean first try).
#[derive(Debug)]
pub struct Retried<T> {
    /// The successful attempt's result.
    pub value: T,
    /// Panicking attempts that preceded it.
    pub retries: u64,
}

/// Runs `f` under [`std::panic::catch_unwind`], retrying up to
/// `max_attempts` total attempts; the last attempt's panic payload is
/// returned when every attempt unwinds.
///
/// Determinism contract: `f` must be a pure function of its captured
/// inputs — in particular, a retried simulation task must re-derive its
/// RNG stream from the *same* fork labels, never from the attempt number,
/// so a transient fault cannot change a single output byte. The attempt
/// count is exposed only through [`Retried::retries`], for telemetry.
///
/// `max_attempts` is clamped to at least 1. Unwind safety is asserted the
/// same way the worker pool does: a panicking attempt abandons its partial
/// state entirely, so observing a broken invariant afterwards is
/// impossible for callers that rebuild state per attempt.
pub fn retry_unwind<T>(
    max_attempts: usize,
    mut f: impl FnMut() -> T,
) -> Result<Retried<T>, Box<dyn std::any::Any + Send + 'static>> {
    let attempts = max_attempts.max(1);
    let mut last_payload = None;
    for attempt in 0..attempts {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut f)) {
            Ok(value) => return Ok(Retried { value, retries: attempt as u64 }),
            Err(payload) => last_payload = Some(payload),
        }
    }
    Err(last_payload.expect("at least one attempt ran"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    /// The one-group plan of a whole scheme run: tasks `0..n` in order.
    fn single_group(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (0, i)).collect()
    }

    #[test]
    fn fold_sees_every_result_in_index_order_at_any_width() {
        let plan = single_group(100);
        let run = |threads: usize| {
            let mut order = Vec::new();
            let mut acc = 0u64;
            par_fold_grouped(
                &plan,
                threads,
                |i| (i as u64) * 3 + 1,
                |_, step, v| {
                    order.push(step.index);
                    // A non-commutative fold: order changes the bits.
                    acc = acc.wrapping_mul(31).wrapping_add(v);
                },
            );
            (order, acc)
        };
        let (serial_order, serial_acc) = run(1);
        assert_eq!(serial_order, (0..100).collect::<Vec<_>>());
        for threads in [2, 3, 8, 200] {
            let (order, acc) = run(threads);
            assert_eq!(order, serial_order, "threads = {threads}");
            assert_eq!(acc, serial_acc, "threads = {threads}");
        }
    }

    #[test]
    fn fold_reports_a_bounded_queue_and_handles_tiny_inputs() {
        let mut seen = 0;
        par_fold_grouped(
            &single_group(1),
            4,
            |i| i,
            |_, step, v| {
                assert_eq!((step.index, step.queued, v), (0, 0, 0));
                seen += 1;
            },
        );
        assert_eq!(seen, 1);
        // Queue depth is scheduling-dependent but always bounded by the
        // results still outstanding past the one being folded.
        par_fold_grouped(
            &single_group(64),
            8,
            |i| i,
            |_, step, _| assert!(step.queued < 64 - step.index),
        );
    }

    /// The interleaved plan the batch runner uses: groups' indices climb
    /// in round-robin order, so per-group fold order is pinned while the
    /// cross-group schedule is free.
    fn round_robin_plan(groups: usize, per_group: usize) -> Vec<(usize, usize)> {
        let mut plan = Vec::new();
        for i in 0..per_group {
            for g in 0..groups {
                plan.push((g, i));
            }
        }
        plan
    }

    #[test]
    fn grouped_fold_is_in_order_per_group_at_any_width() {
        let plan = round_robin_plan(3, 32);
        let run = |threads: usize| {
            let mut orders = vec![Vec::new(); 3];
            let mut accs = vec![0u64; 3];
            par_fold_grouped(
                &plan,
                threads,
                |pos| (pos as u64) * 7 + 3,
                |g, step, v| {
                    orders[g].push(step.index);
                    // Non-commutative per-group fold: order changes bits.
                    accs[g] = accs[g].wrapping_mul(31).wrapping_add(v);
                },
            );
            (orders, accs)
        };
        let (serial_orders, serial_accs) = run(1);
        for order in &serial_orders {
            assert_eq!(order, &(0..32).collect::<Vec<_>>());
        }
        for threads in [2, 3, 8, 200] {
            let (orders, accs) = run(threads);
            assert_eq!(orders, serial_orders, "threads = {threads}");
            assert_eq!(accs, serial_accs, "threads = {threads}");
        }
    }

    #[test]
    fn grouped_fold_handles_tiny_inputs_and_bounds_the_park_queue() {
        let mut seen = 0;
        par_fold_grouped(&[], 4, |_| unreachable!(), |_, _: FoldStep, _: u8| seen += 1);
        assert_eq!(seen, 0);
        par_fold_grouped(
            &[(5, 0)],
            4,
            |pos| pos + 10,
            |g, step, v| {
                assert_eq!((g, step.index, step.queued, v), (5, 0, 0, 10));
                seen += 1;
            },
        );
        assert_eq!(seen, 1);
        let plan = round_robin_plan(4, 16);
        par_fold_grouped(&plan, 8, |pos| pos, |_, step, _| assert!(step.queued < plan.len()));
    }

    #[test]
    fn grouped_fold_propagates_worker_panics_instead_of_deadlocking() {
        let plan = round_robin_plan(2, 20);
        let result = std::panic::catch_unwind(|| {
            let mut folded = 0usize;
            par_fold_grouped(
                &plan,
                4,
                |pos| {
                    if pos == 13 {
                        panic!("task 13 exploded");
                    }
                    pos
                },
                |_, _, _| folded += 1,
            );
        });
        let payload = result.expect_err("the task panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 13 exploded");
    }

    #[test]
    #[should_panic(expected = "subsequence property")]
    #[cfg(debug_assertions)]
    fn grouped_fold_rejects_decreasing_indices_within_a_group() {
        par_fold_grouped(&[(0, 1), (0, 0)], 1, |pos| pos, |_, _, _| {});
    }

    #[test]
    fn retry_unwind_retries_panics_and_reports_the_count() {
        // Succeeds on the third attempt; the first two panics are absorbed.
        let mut calls = 0;
        let got = retry_unwind(3, || {
            calls += 1;
            if calls < 3 {
                panic!("transient");
            }
            calls * 10
        })
        .expect("third attempt succeeds");
        assert_eq!((got.value, got.retries), (30, 2));

        // A clean first try reports zero retries.
        let clean = retry_unwind(3, || 7).expect("no panic");
        assert_eq!((clean.value, clean.retries), (7, 0));

        // Exhausted budget surfaces the final payload.
        let err = retry_unwind(2, || -> u8 { panic!("persistent") }).expect_err("exhausted");
        assert_eq!(err.downcast_ref::<&str>().copied(), Some("persistent"));

        // max_attempts = 0 still runs once.
        let once = retry_unwind(0, || 1).expect("ran once");
        assert_eq!((once.value, once.retries), (1, 0));
    }

    #[test]
    fn fold_propagates_worker_panics_instead_of_deadlocking() {
        // A panicking task leaves a hole the in-order folder could never
        // fold past; the gate must wake every parked worker and the panic
        // must surface on the calling thread, not hang the process.
        let result = std::panic::catch_unwind(|| {
            let mut folded = 0usize;
            par_fold_grouped(
                &single_group(40),
                4,
                |i| {
                    if i == 17 {
                        panic!("task 17 exploded");
                    }
                    i
                },
                |_, _, _| folded += 1,
            );
        });
        let payload = result.expect_err("the task panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 17 exploded");
    }
}

//! `solve` allocates per solve, never per branch-and-bound node: a solve
//! that runs its node budget out makes a few dozen heap allocations.
//!
//! A counting global allocator wraps the system one. The count is
//! per thread, so the test harness's own threads do not add to it.

use insomnia_core::{solve, SolverInput};
use insomnia_simcore::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter is a
// const-initialized thread local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCS.with(Cell::get)
}

#[test]
fn solve_allocates_per_solve_not_per_node() {
    // 40 gateways, 100 users each reaching its home and about 4 more,
    // one backup, ample capacity: the search runs all of its 20 000 nodes.
    let mut rng = SimRng::new(28);
    let n_gw = 40;
    let mut reach = Vec::new();
    for _ in 0..100 {
        let home = rng.below_usize(n_gw);
        let mut gs = vec![(home, 12.0e6)];
        for g in 0..n_gw {
            if g != home && rng.chance(0.1) {
                gs.push((g, 12.0e6));
            }
        }
        reach.push(gs);
    }
    let mut input =
        SolverInput::new(vec![0.1e6; 100], reach, n_gw, vec![100.0e6; n_gw], 1).expect("valid");
    input.node_budget = 20_000;

    let before = allocations();
    let out = solve(&input);
    let made = allocations() - before;
    assert_eq!(out.nodes, input.node_budget, "the budget must run out mid-search");
    assert!(made < 100, "{made} allocations for {} nodes", out.nodes);
}

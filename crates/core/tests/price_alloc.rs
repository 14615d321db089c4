//! The P3 pricing path's allocation contract: once its buffers have grown,
//! a `SoaWaterfill` solve allocates nothing, whichever rows are live, and
//! a warm `SymmetricSolver` descent allocates nothing between two priced
//! states. The live-row list, the per-line cost buffer and the
//! water-filling solver the fleet tables keep are reused, so a per-price
//! allocation would show up here.
//!
//! Counts are per thread, so the tests in this binary can run side by
//! side.

#![allow(unsafe_code)] // the GlobalAlloc impl below is the entire reason this binary exists

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use coca_core::solver::P3Solver;
use coca_core::symmetric::SymmetricSolver;
use coca_dcsim::dispatch::SlotProblem;
use coca_dcsim::Cluster;
use coca_opt::waterfill::{BankProblem, QueueBank, SoaWaterfill};

thread_local! {
    // Const-initialized and without a destructor, so touching it inside
    // the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting this thread's allocation
/// calls.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let _ = f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_grown_water_filling_solve_allocates_nothing() {
    // Twelve rows, so four lie in the tail past the one full lane chunk.
    let mut bank = QueueBank::new();
    for k in 0..12 {
        let x = 10.0 + k as f64;
        bank.push_type(x, 0.9 * x, 0.1 + 0.05 * k as f64, 1.0, 0.0);
    }
    // Multiplicity patterns with different live rows: one per partition
    // of three, all rows, tail rows only.
    let patterns: [&[(usize, f64)]; 3] =
        [&[(1, 3.0), (6, 2.0), (9, 4.0)], &[(0, 1.0), (11, 1.0)], &[(8, 2.0), (10, 5.0)]];
    let all: Vec<(usize, f64)> = (0..12).map(|k| (k, 1.0)).collect();
    let mut soa = SoaWaterfill::new();
    let solve_all = |soa: &mut SoaWaterfill, bank: &mut QueueBank| {
        for live in patterns.iter().copied().chain([all.as_slice()]) {
            for row in 0..bank.len() {
                bank.set_multiplicity(row, 0.0);
            }
            for &(row, m) in live {
                bank.set_multiplicity(row, m);
            }
            let cap = bank.aggregates().0;
            // Active, kink and slack regimes, then a saturated bank.
            for (frac, renewable) in [(0.5, 0.0), (0.6, 5.0), (0.4, 1e6), (1.0, 0.0)] {
                let p = BankProblem {
                    bank,
                    total_load: frac * cap,
                    energy_weight: 20.0,
                    delay_weight: 1.0,
                    base_power: 1.0,
                    capped_capacity: cap,
                    renewable,
                };
                let _ = soa.solve(&p).unwrap();
            }
        }
    };
    solve_all(&mut soa, &mut bank);
    let n = allocations_of(|| solve_all(&mut soa, &mut bank));
    assert_eq!(n, 0, "warm solves allocated {n} times");
}

#[test]
fn a_warm_symmetric_solve_allocates_nothing_between_prices() {
    let cluster = Cluster::scaled_paper_datacenter(40, 20);
    let slot = |load: f64| SlotProblem {
        cluster: &cluster,
        arrival_rate: load * cluster.max_capacity(),
        onsite: 0.05 * cluster.peak_power(),
        energy_weight: 300.0,
        delay_weight: 1000.0,
        gamma: 0.95,
        pue: 1.0,
    };
    let (light, heavy) = (slot(0.2), slot(0.6));
    let mut solver = SymmetricSolver::new();
    // Grow every buffer on both instances first.
    for p in [&light, &heavy, &light, &heavy] {
        let _ = solver.solve(p).unwrap();
    }
    for p in [&light, &heavy] {
        // Re-solving an instance starts from its own answer, which is
        // feasible, so the solve runs the warm and the full-speed descent.
        let _ = solver.solve(p).unwrap();
        let mut marks = Vec::with_capacity(1024);
        let _ = solver
            .solve_visiting(p, &mut |_, _| marks.push(ALLOCATIONS.with(Cell::get)))
            .unwrap();
        // The one allocation between two visits is the speed vector the
        // solver expands for the visitor; the prices and memo hits in
        // between, and the start of the second descent, allocate nothing.
        assert!(marks.len() > 20, "only {} states priced", marks.len());
        for (i, w) in marks.windows(2).enumerate() {
            assert_eq!(w[1] - w[0], 1, "allocations before visit {}", i + 1);
        }
    }
}

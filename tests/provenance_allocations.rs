//! Recording provenance allocates per growth step of the log, not per
//! event — counted, not timed.
//!
//! The log stores an event as words copied into columns that grow a
//! block at a time (`flix_core::provenance`), so a solve that records
//! makes barely more allocations than one that does not, and dropping the
//! solution frees the log block by block. Before PR 22 an event was a tree
//! of vectors: ≈ 3.9 allocations each, as many frees. This binary has a
//! counting `#[global_allocator]` and is its own file so that no other
//! suite pays for it; the counters are per thread and the solver runs on
//! the test's thread, so tests in here do not disturb each other.

use flix::analyses::ifds::{self, problems::Taint};
use flix::analyses::shortest_paths;
use flix::analyses::workloads::graphs;
use flix::analyses::workloads::jvm_program::{self, GenParams};
use flix::{Program, Solver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialized
// thread-locals without destructors, so touching them allocates nothing
// and is sound at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.with(|n| n.set(n.get() + 1));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth step: counted as the allocation it may be.
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What the log's blocks hold (`BLOCK_EVENTS` in `provenance.rs`).
const BLOCK_EVENTS: u64 = 4096;
/// The columns of a block.
const BLOCK_COLUMNS: u64 = 5;
/// What a log frees besides its blocks: the block list, the part list,
/// the shape, a segment — with room to spare.
const LOG_OVERHEAD: u64 = 16;

struct Counts {
    /// Allocations (and reallocations) of one single-threaded solve.
    solve_allocs: u64,
    /// Deallocations of dropping its solution.
    drop_deallocs: u64,
}

fn counts(program: &Program, provenance: bool) -> Counts {
    let solver = Solver::new().record_provenance(provenance);
    // Warm-up: the first solve of the process pays its one-time costs.
    drop(solver.solve(program).expect("solves"));
    let before = ALLOCS.get();
    let solution = solver.solve(program).expect("solves");
    let solve_allocs = ALLOCS.get() - before;
    let before = DEALLOCS.get();
    drop(solution);
    Counts {
        solve_allocs,
        drop_deallocs: DEALLOCS.get() - before,
    }
}

/// `(events, events that carry a lattice value)` of the program's log.
fn events(program: &Program) -> (u64, u64) {
    let solver = Solver::new().record_provenance(true);
    let solution = solver.solve(program).expect("solves");
    let log = solution.provenance().expect("recorded");
    let is_lattice = |pred| program.decl(pred).is_lattice();
    let valued = log.iter().filter(|event| is_lattice(event.pred)).count();
    (log.len() as u64, valued as u64)
}

fn all_pairs_40() -> Program {
    shortest_paths::build_all_pairs(&graphs::generate(40, 120, 0x5907))
}

fn ifds_taint(num_procs: u32, nodes_per_proc: u32) -> Program {
    let model = Arc::new(jvm_program::generate(GenParams {
        num_procs,
        nodes_per_proc,
        vars_per_proc: 6,
        call_percent: 15,
        seed: 0xDACA90,
    }));
    let taint = Arc::new(Taint::new(model.clone()));
    ifds::flix::build_program(&model.graph, taint)
}

#[test]
fn recording_allocates_per_growth_step_not_per_event() {
    for (name, program) in [
        ("all_pairs_40", all_pairs_40()),
        ("ifds_taint_8x16", ifds_taint(8, 16)),
    ] {
        let (events, _) = events(&program);
        let (off, on) = (counts(&program, false), counts(&program, true));
        let recording = on.solve_allocs.saturating_sub(off.solve_allocs);
        assert!(events > 500, "{name}: {events} events is no workload");
        assert!(
            recording <= events / 16,
            "{name}: recording {events} events took {recording} allocations \
             ({} with the log, {} without)",
            on.solve_allocs,
            off.solve_allocs
        );
    }
}

/// A relational log holds words only: dropping it frees its blocks and
/// nothing per event — the same count for a log twice as long that fits
/// the same number of blocks.
#[test]
fn dropping_a_relational_log_frees_blocks_not_events() {
    let mut freed = Vec::new();
    for (procs, nodes) in [(4, 8), (8, 16)] {
        let program = ifds_taint(procs, nodes);
        let (events, valued) = events(&program);
        assert_eq!(valued, 0, "the IFDS encoding is relational");
        assert!(events < BLOCK_EVENTS, "{events} events: one block");
        let (off, on) = (counts(&program, false), counts(&program, true));
        let log = on.drop_deallocs.saturating_sub(off.drop_deallocs);
        assert!(
            log <= LOG_OVERHEAD + BLOCK_COLUMNS,
            "{procs}x{nodes}: dropping a log of {events} events made {log} deallocations"
        );
        freed.push((events, log));
    }
    let [(small, freed_small), (large, freed_large)] = freed[..] else {
        unreachable!("two sizes");
    };
    assert!(large >= 2 * small, "{small} and {large} events");
    assert_eq!(freed_small, freed_large, "frees follow the event count");
}

/// A lattice log also keeps alive the cell values its events reached —
/// allocations of the program's own functions (a `MinCost` value is two),
/// freed with the log when a later join superseded them in the database.
/// Beyond those the log frees its blocks.
#[test]
fn dropping_a_lattice_log_frees_blocks_and_the_values_it_kept() {
    let program = all_pairs_40();
    let (events, valued) = events(&program);
    let (off, on) = (counts(&program, false), counts(&program, true));
    let log = on.drop_deallocs.saturating_sub(off.drop_deallocs);
    let blocks = events.div_ceil(BLOCK_EVENTS);
    assert!(
        log <= LOG_OVERHEAD + BLOCK_COLUMNS * blocks + 2 * valued,
        "dropping a log of {events} events ({valued} with a value) made {log} deallocations"
    );
}

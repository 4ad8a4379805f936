//! The plain step of the compiled engines allocates nothing: the PC-set
//! inputs broadcast to stream words go into a buffer the simulator
//! keeps, and the parallel step latches into state it owns, so a long
//! run costs no heap traffic per vector. Counted with a per-thread
//! counting allocator around the steps. The plain step's sink must not
//! be a level timer, which allocates by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uds_netlist::generators::iscas::Iscas85;
use uds_parallel::{Optimization, ParallelSim, Word};
use uds_pcset::PcSetSimulator;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialized thread local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(run: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

fn stimulus(width: usize) -> Vec<Vec<bool>> {
    (0..64)
        .map(|v| (0..width).map(|i| (v * 7 + i * 3) % 5 < 2).collect())
        .collect()
}

#[test]
fn a_step_allocates_nothing() {
    let nl = Iscas85::C432.build();
    let mut sim = PcSetSimulator::compile(&nl).unwrap();
    let vectors = stimulus(nl.primary_inputs().len());
    let allocations = allocations_during(|| {
        for vector in &vectors {
            sim.simulate_vector(vector);
        }
    });
    assert_eq!(
        allocations, 0,
        "simulate_vector allocated {allocations} times in 64 steps"
    );
}

fn parallel_step_allocates_nothing<W: Word>() {
    let nl = Iscas85::C432.build();
    let mut sim = ParallelSim::<W>::compile(&nl, Optimization::PathTracingTrimming).unwrap();
    let vectors = stimulus(nl.primary_inputs().len());
    let allocations = allocations_during(|| {
        for vector in &vectors {
            sim.simulate_vector(vector);
        }
    });
    assert_eq!(
        allocations,
        0,
        "ParallelSim<u{}> allocated {allocations} times in 64 steps",
        W::BITS
    );
}

#[test]
fn a_parallel_step_allocates_nothing_at_w32() {
    parallel_step_allocates_nothing::<u32>();
}

#[test]
fn a_parallel_step_allocates_nothing_at_w64() {
    parallel_step_allocates_nothing::<u64>();
}

/// A thread allocates its lane arena once, on its first block of more
/// than one vector; every later block on it reuses that arena.
#[test]
fn only_the_first_parallel_block_allocates() {
    let nl = Iscas85::C432.build();
    let mut sim = ParallelSim::<u64>::compile(&nl, Optimization::PathTracingTrimming).unwrap();
    let vectors = stimulus(nl.primary_inputs().len());
    let block: Vec<&[bool]> = vectors.iter().map(Vec::as_slice).collect();
    let outputs = nl.primary_outputs();
    let mut finals = vec![0u64; outputs.len()];
    assert_eq!(sim.block_len(), 64);
    let first = allocations_during(|| sim.simulate_block(&block, outputs, &mut finals));
    assert!(first > 0, "the first block allocates the lane arena");
    let later = allocations_during(|| {
        for _ in 0..4 {
            sim.simulate_block(&block, outputs, &mut finals);
            sim.simulate_block(&block[..1], outputs, &mut finals);
        }
    });
    assert_eq!(later, 0, "later blocks allocated {later} times");
}

//! The interpreted PC-set step allocates nothing: the inputs broadcast
//! to stream words go into a buffer the simulator keeps, so a long run
//! costs no heap traffic per vector. Counted with a per-thread counting
//! allocator around the steps. (The leveled profiling step reuses the
//! same buffer, but its level timer allocates by design.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uds_netlist::generators::iscas::Iscas85;
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

#[test]
fn a_step_allocates_nothing() {
    let nl = Iscas85::C432.build();
    let mut sim = PcSetSimulator::compile(&nl).unwrap();
    let width = nl.primary_inputs().len();
    let vectors: Vec<Vec<bool>> = (0..64)
        .map(|v| (0..width).map(|i| (v * 7 + i * 3) % 5 < 2).collect())
        .collect();
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

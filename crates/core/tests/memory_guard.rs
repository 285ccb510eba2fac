//! Memory guard for compiled estimators, measured with a counting global
//! allocator: a compiled tree stores no clique potential — each clique
//! hosts its CPTs and a propagation writes the potential on first touch —
//! so compiling c432 keeps far less than its state space resident, the
//! first estimate adds the pooled per-segment propagation states (one
//! state space), and a second estimate reuses them.
//!
//! This binary holds a single test, so the live-byte counter sees no
//! other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use swact::{CompiledEstimator, InputSpec, Options};
use swact_circuit::catalog;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only counts the sizes it reports.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> f64 {
    LIVE.load(Ordering::Relaxed) as f64
}

#[test]
fn c432_keeps_no_potential_sized_table_resident() {
    let circuit = catalog::benchmark("c432").expect("known benchmark");
    let spec = InputSpec::uniform(circuit.num_inputs());

    let start = live();
    let compiled = CompiledEstimator::compile(&circuit, &Options::default()).expect("compiles");
    let compiled_bytes = live() - start;
    // One f64 per clique entry: what a stored potential set, and each
    // full set of propagation states, weighs.
    let state_bytes = 8.0 * compiled.total_states();
    assert!(
        compiled_bytes < state_bytes / 4.0,
        "compiled c432 keeps {compiled_bytes} bytes live, {state_bytes} per state space"
    );

    let start = live();
    drop(compiled.estimate(&spec).expect("estimates"));
    let first = live() - start;
    assert!(
        (0.9 * state_bytes..1.5 * state_bytes).contains(&first),
        "the first estimate keeps {first} bytes live for {state_bytes}-byte pooled states"
    );

    let start = live();
    drop(compiled.estimate(&spec).expect("estimates"));
    let second = live() - start;
    assert!(
        second.abs() < state_bytes / 100.0,
        "a second estimate keeps {second} more bytes live"
    );
    eprintln!(
        "c432: compiled {compiled_bytes} B, first estimate +{first} B, second +{second} B, \
         state space {state_bytes} B"
    );
}

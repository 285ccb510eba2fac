//! Memory guard for compiled estimators, measured with a counting global
//! allocator: a compiled tree stores no clique potential — each clique
//! hosts its CPTs and a propagation writes the potential on first touch —
//! and no per-block projection table — the blocked kernels step each
//! block's offset with a stride odometer — so compiling c432 or c7552
//! keeps a small share of its state space resident. The
//! first estimate adds one propagation arena (one state per wave slot,
//! each as large as the largest segment it serves, far less than the
//! state space on a many-wave circuit like c6288), and a second estimate
//! reuses it.
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

/// Live bytes that compiling `name`, its first estimate and its second
/// estimate each add, against its arena and state-space bytes.
struct Footprint {
    compiled: f64,
    first: f64,
    second: f64,
    arena: f64,
    state_space: f64,
}

fn footprint(name: &str) -> Footprint {
    let circuit = catalog::benchmark(name).expect("known benchmark");
    let spec = InputSpec::uniform(circuit.num_inputs());

    let start = live();
    let compiled = CompiledEstimator::compile(&circuit, &Options::default()).expect("compiles");
    let compiled_bytes = live() - start;

    let start = live();
    drop(compiled.estimate(&spec).expect("estimates"));
    let first = live() - start;

    let start = live();
    drop(compiled.estimate(&spec).expect("estimates"));
    let second = live() - start;
    let footprint = Footprint {
        compiled: compiled_bytes,
        first,
        second,
        arena: compiled.arena_bytes() as f64,
        // One f64 per clique entry: what a stored potential set, and a
        // state per segment, would weigh.
        state_space: 8.0 * compiled.total_states(),
    };
    eprintln!(
        "{name}: compiled {} B, first estimate +{} B, second +{} B, arena {} B, \
         state space {} B",
        footprint.compiled,
        footprint.first,
        footprint.second,
        footprint.arena,
        footprint.state_space
    );
    footprint
}

#[test]
fn estimates_keep_one_arena_resident() {
    // c432: four waves with a two-segment wave. Compiling stores no
    // potential and no per-block table, so the compile keeps 2.7% of its
    // state space (0.31 of 11.8 MB; 1.22 MB, 10.3%, with the tables).
    let c432 = footprint("c432");
    assert!(
        c432.compiled < c432.state_space / 25.0,
        "compiled c432 keeps {} bytes live, {} per state space",
        c432.compiled,
        c432.state_space
    );
    // c7552: the largest compiled set of the corpus keeps 13% of its
    // state space (6.3 of 47.7 MB; 12.8 MB, 27%, with the tables).
    let c7552 = footprint("c7552");
    assert!(
        c7552.compiled < c7552.state_space / 5.0,
        "compiled c7552 keeps {} bytes live, {} per state space",
        c7552.compiled,
        c7552.state_space
    );
    // c6288: dozens of waves, so one arena slot per wave position holds
    // a small share of the whole state space.
    let c6288 = footprint("c6288");
    assert!(
        c6288.arena < c6288.state_space / 4.0,
        "c6288's arena holds {} bytes for a {}-byte state space",
        c6288.arena,
        c6288.state_space
    );
    for (name, f) in [("c432", &c432), ("c6288", &c6288)] {
        // The first estimate grows one arena and nothing else of its
        // size; a second estimate reuses it.
        assert!(
            (0.9 * f.arena..1.5 * f.arena).contains(&f.first),
            "the first estimate of {name} keeps {} bytes live for a {}-byte arena",
            f.first,
            f.arena
        );
        assert!(
            f.second.abs() < f.arena / 100.0,
            "a second estimate of {name} keeps {} more bytes live",
            f.second
        );
    }
}

//! Per-window allocation guard for the machine event loop, extending
//! the counting-allocator idiom of `pact-obs`'s `overhead.rs` to the
//! simulator's window machinery: `window_telemetry`, the migration
//! `order_buf`, the fault retry buffer, the CHMU table, and the dense
//! page-stall store must all reuse their capacity across windows.
//! Doubling the number of windows over the same access stream may add
//! exactly **one** allocation per extra window — the `WindowRecord`'s
//! own exact-size metrics snapshot, which the report owns — plus the
//! amortized (logarithmic) doubling of the report's window list.
//! Anything beyond that is a hot-path regression.
//!
//! Allocations are counted per thread, so tests running concurrently
//! under the parallel test runner never count each other's work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pact_tiersim::{Access, FirstTouch, Machine, MachineConfig, TraceWorkload, PAGE_BYTES};

struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` instead of `with`: never panic inside the allocator,
    // even while a thread tears down its locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const PAGES: u64 = 512;

/// A mixed load/store trace over `PAGES` pages: strided sweeps
/// interleaved with a pointer chase, enough to keep every window busy.
fn workload() -> TraceWorkload {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut trace = Vec::with_capacity(60_000);
    for i in 0..60_000u64 {
        if i % 2 == 0 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            trace.push(Access::dependent_load((x % PAGES) * PAGE_BYTES));
        } else {
            let addr = (i * 64) % (PAGES * PAGE_BYTES);
            if i % 13 == 0 {
                trace.push(Access::store(addr));
            } else {
                trace.push(Access::load(addr));
            }
        }
    }
    TraceWorkload::new("window-alloc", PAGES * PAGE_BYTES, trace)
}

/// Runs the same trace with the given window length and returns
/// (allocations during the run, completed windows). Page-stall
/// tracking is always on; `chmu` adds the CHMU counter table.
fn run_with_window(window_cycles: u64, chmu: bool) -> (u64, usize) {
    let mut cfg = MachineConfig::skylake_cxl(64);
    cfg.window_cycles = window_cycles;
    cfg.chmu_counters = if chmu { 64 } else { 0 };
    cfg.track_page_stalls = true;
    let wl = workload();
    // Invariant: skylake_cxl with these field edits stays valid (the
    // golden-digest suite runs near-identical configs).
    let machine = Machine::new(cfg).expect("config is valid");
    let mut policy = FirstTouch::new();
    let before = allocations();
    let report = machine.run(&wl, &mut policy);
    (allocations() - before, report.windows.len())
}

/// Asserts quadrupling the window count adds at most one allocation
/// per extra window (its record's metrics snapshot); the slack covers
/// the window list's amortized doubling. A second per-window
/// allocation doubles `delta` and fails loudly.
fn assert_window_discipline(chmu: bool) {
    let (base_allocs, base_windows) = run_with_window(50_000, chmu);
    let (dense_allocs, dense_windows) = run_with_window(12_500, chmu);
    assert!(
        dense_windows >= 2 * base_windows && base_windows >= 4,
        "expected the shorter window to at least double the window count \
         (got {base_windows} vs {dense_windows})"
    );
    let extra_windows = (dense_windows - base_windows) as u64;
    let delta = dense_allocs.saturating_sub(base_allocs);
    assert!(
        delta <= extra_windows + 48,
        "window machinery allocates per window (chmu={chmu}): {extra_windows} extra \
         windows cost {delta} extra allocations ({base_allocs} -> {dense_allocs})"
    );
}

#[test]
fn window_buffers_reuse_capacity_across_windows() {
    assert_window_discipline(true);
}

#[test]
fn chmu_free_run_is_equally_allocation_disciplined() {
    assert_window_discipline(false);
}

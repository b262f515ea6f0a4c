//! Dropping a platform frees its whole heap.
//!
//! Ports and connections refer to each other, so a simulation that did
//! not break those reference cycles on drop leaked every machine it built.
//! This binary counts live heap bytes with a wrapping global allocator
//! (one test only, so no other test thread allocates alongside it).

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use akita_gpu::{GpuConfig, Platform, PlatformConfig};
use akita_workloads::{Fir, Workload};

struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is only a
// statistic and never affects the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded with the caller's pointer, layout and size.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Builds a two-chiplet machine (so the inter-chiplet fabric and RDMA
/// are wired too), runs a small FIR to completion and drops everything.
fn build_run_drop() {
    let mut platform = Platform::build(PlatformConfig {
        chiplets: 2,
        gpu: GpuConfig::scaled(2),
        ..PlatformConfig::default()
    });
    let fir = Fir {
        num_samples: 512,
        ..Fir::default()
    };
    fir.enqueue(&mut platform.driver.borrow_mut());
    platform.start();
    platform.sim.run();
    assert!(platform.driver.borrow().finished());
}

#[test]
fn dropped_platforms_return_their_heap() {
    // The first machine also fills process-wide tables (interned trace
    // sites, lazily created statics) that later builds reuse.
    build_run_drop();
    let baseline = LIVE_BYTES.load(Ordering::Relaxed);
    const BUILDS: usize = 5;
    for _ in 0..BUILDS {
        build_run_drop();
    }
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    // One leaked machine is hundreds of KiB; the slack only covers
    // incidental growth such as the test harness's own bookkeeping.
    const SLACK: usize = 64 * 1024;
    assert!(
        after <= baseline + SLACK,
        "{BUILDS} build/run/drop cycles left {} bytes more in use ({} per machine)",
        after.saturating_sub(baseline),
        after.saturating_sub(baseline) / BUILDS
    );
}

//! A counting global allocator for the allocation pins. It counts per
//! thread, and [`allocations`] reads the calling thread's count, so a
//! measurement sees only the allocations of the thread that takes it:
//! work on another thread (the test harness's main thread, a sibling
//! test) never enters it.
//!
//! A test binary that declares `mod alloc_counter;` counts every
//! allocation through this allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made by this thread. Const-
    /// initialised and without a destructor, so the allocator can touch
    /// it at any point of a thread's life without allocating itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Never panic inside the allocator, whatever the thread's state.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

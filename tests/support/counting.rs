//! The counting allocator every allocation test installs, per thread.
//!
//! A test binary includes this file as a module (a file directly under
//! `tests/` would be a test target of its own) and installs it:
//!
//! ```ignore
//! #[path = "support/counting.rs"] // "../../../tests/support/counting.rs" from a crate
//! mod counting;
//! #[global_allocator]
//! static A: counting::Counting = counting::Counting;
//! ```
//!
//! A binary that includes it without installing it fails CI's clippy
//! (`Counting` is never constructed), and `tests/cost_census.rs` tests
//! the module itself, so no test needs its own probe that the hook
//! counts.
//!
//! Every call is forwarded to `System` and tallied on the calling
//! thread, so a window taken by [`tally`] on one thread sees nothing
//! another thread does meanwhile, and sibling `#[test]`s may run
//! concurrently. A block freed on another thread than the one that
//! allocated it stays live in the allocating thread's tally. Lock
//! round-trips are the `parking_lot` shim's to count
//! (`parking_lot::count::counts()`), read beside a [`Tally`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Size classes: 8-byte steps up to 4 KiB (class `i` holds sizes in
/// `(8 × (i − 1), 8 × i]`), then one class for everything larger.
pub const CLASSES: usize = 513;

/// What the current thread has allocated since it started.
#[derive(Clone, Copy)]
pub struct Tally {
    /// `alloc` and `realloc` calls.
    pub allocs: u64,
    /// Bytes requested: an `alloc`'s size, a `realloc`'s new size.
    pub bytes: u64,
    /// Bytes allocated minus bytes freed.
    pub live: i64,
    /// Live blocks per size class.
    pub by_size: [i64; CLASSES],
}

impl std::ops::Sub for Tally {
    type Output = Tally;
    fn sub(self, before: Tally) -> Tally {
        Tally {
            allocs: self.allocs - before.allocs,
            bytes: self.bytes - before.bytes,
            live: self.live - before.live,
            by_size: std::array::from_fn(|i| self.by_size[i] - before.by_size[i]),
        }
    }
}

/// The thread's tallies: `const`-initialised `Cell`s have no
/// destructor, so counting never allocates and works while the thread
/// tears down.
struct Cells {
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<i64>,
    by_size: [Cell<i64>; CLASSES],
}

impl Cells {
    /// One `alloc` or `realloc` call, requesting `size` bytes.
    fn call(&self, size: usize) {
        self.allocs.set(self.allocs.get() + 1);
        self.bytes.set(self.bytes.get() + size as u64);
    }

    /// `n` blocks of `size` bytes made live (`n` > 0) or freed.
    fn blocks(&self, size: usize, n: i64) {
        self.live.set(self.live.get() + n * size as i64);
        let class = &self.by_size[size.div_ceil(8).min(CLASSES - 1)];
        class.set(class.get() + n);
    }
}

thread_local! {
    static CELLS: Cells = const {
        Cells {
            allocs: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            by_size: [const { Cell::new(0) }; CLASSES],
        }
    };
}

/// The current thread's tallies, read without allocating.
pub fn tally() -> Tally {
    CELLS.with(|c| Tally {
        allocs: c.allocs.get(),
        bytes: c.bytes.get(),
        live: c.live.get(),
        by_size: std::array::from_fn(|i| c.by_size[i].get()),
    })
}

pub struct Counting;

// SAFETY: every method forwards to `System`, which keeps the
// `GlobalAlloc` contract; counting touches only thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CELLS.with(|c| {
            c.call(layout.size());
            c.blocks(layout.size(), 1);
        });
        // SAFETY: the caller's layout, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CELLS.with(|c| c.blocks(layout.size(), -1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CELLS.with(|c| {
            c.call(new_size);
            c.blocks(layout.size(), -1);
            c.blocks(new_size, 1);
        });
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // arguments, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

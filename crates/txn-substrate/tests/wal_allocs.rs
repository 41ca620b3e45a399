//! `Wal::append` on an unmirrored log stores the record and nothing
//! else: no bytes are rendered for a file that does not exist. (It used
//! to build a `Content` tree and a JSON `String` per record before
//! looking whether a mirror was attached.)
//!
//! One `#[test]` only: the counter is process-global and the harness
//! would run sibling tests on concurrent threads, polluting the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use txn_substrate::{LogRecord, TxnId, Wal};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn unmirrored_append_allocates_only_to_grow_the_record_list() {
    const APPENDS: u64 = 4096;
    let mut wal = Wal::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    for n in 0..APPENDS / 2 {
        wal.append(LogRecord::Begin { txn: TxnId(n) });
        wal.append(LogRecord::Commit { txn: TxnId(n) });
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(wal.len() as u64, APPENDS);
    // A `Vec` that doubles reallocates at most log2(n) + 1 times.
    let doublings = u64::from(APPENDS.ilog2()) + 1;
    assert!(
        allocs <= doublings,
        "{allocs} allocations for {APPENDS} appends; growing the list explains {doublings}"
    );
}

//! `Wal::append` on an unmirrored log stores the record and nothing
//! else: no bytes are rendered for a file that does not exist. (It used
//! to build a `Content` tree and a JSON `String` per record before
//! looking whether a mirror was attached.)

#[path = "../../../tests/support/counting.rs"]
mod counting;

use txn_substrate::{LogRecord, TxnId, Wal};

#[global_allocator]
static A: counting::Counting = counting::Counting;

#[test]
fn unmirrored_append_allocates_only_to_grow_the_record_list() {
    const APPENDS: u64 = 4096;
    let mut wal = Wal::new();
    let before = counting::tally();
    for n in 0..APPENDS / 2 {
        wal.append(LogRecord::Begin { txn: TxnId(n) });
        wal.append(LogRecord::Commit { txn: TxnId(n) });
    }
    let allocs = (counting::tally() - before).allocs;
    assert_eq!(wal.len() as u64, APPENDS);
    // A `Vec` that doubles reallocates at most log2(n) + 1 times.
    let doublings = u64::from(APPENDS.ilog2()) + 1;
    assert!(
        allocs <= doublings,
        "{allocs} allocations for {APPENDS} appends; growing the list explains {doublings}"
    );
}

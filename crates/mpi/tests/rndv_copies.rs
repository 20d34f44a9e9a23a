//! A rendezvous send copies its body once: into the data frame it is
//! shipped in, which is also the copy the core holds until the
//! clear-to-send and the copy a sender log keeps. Counted here as
//! allocations at least the body's size, made by a whole two-rank run
//! (its own test binary, so no other test allocates meanwhile).

use mvr_core::payload::ARENA_CHUNK;
use mvr_core::Rank;
use mvr_mpi::testing::run_local;
use mvr_mpi::{Source, Tag, RNDV_THRESHOLD};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations of at least this many bytes are counted.
static AT_LEAST: AtomicUsize = AtomicUsize::new(usize::MAX);
static COUNTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: forwards to the system allocator; counting has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= AT_LEAST.load(Ordering::Relaxed) {
            COUNTED.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations of `len` bytes or more made while rank 0 sends rank 1
/// `sends` messages of `len` bytes (each checked on arrival).
fn body_allocations(len: usize, sends: u8) -> usize {
    AT_LEAST.store(len, Ordering::Relaxed);
    COUNTED.store(0, Ordering::Relaxed);
    run_local(2, |mut mpi| {
        for i in 0..sends {
            if mpi.rank() == Rank(0) {
                mpi.send(Rank(1), 0, &vec![i; len])?;
            } else {
                let (_, _, body) = mpi.recv(Source::Any, Tag::Any)?;
                assert_eq!(body.len(), len);
                assert!(body.iter().all(|&b| b == i));
            }
        }
        Ok(())
    })
    .unwrap();
    AT_LEAST.store(usize::MAX, Ordering::Relaxed);
    // The application's own send buffers are counted too: one per send.
    COUNTED.load(Ordering::Relaxed) - sends as usize
}

#[test]
fn a_rendezvous_send_allocates_its_body_once() {
    // Larger than a chunk: every data frame is an allocation of its own.
    assert_eq!(body_allocations(ARENA_CHUNK + 1, 3), 3);
    // Eight that fit one chunk together: one allocation, the chunk.
    let len = RNDV_THRESHOLD + 1;
    assert!(8 * (len + 64) <= ARENA_CHUNK);
    assert_eq!(body_allocations(len, 8), 1);
}

//! Large allocations on the wire path, counted.
//!
//! A counting global allocator over `System` records, per thread, every
//! allocation (or reallocation) of at least [`LARGE`] bytes. At `tcp-wide`'s
//! frame width each large allocation is a fresh 260 KB buffer that the
//! C allocator may hand back to the OS and fault in again, so the counts
//! below are the per-message allocation budget of each hop:
//!
//! - `decode`: one, the received tensor's buffer;
//! - a warmed `encode_shared`: one, the shared frame;
//! - `StreamDecoder::read_from` on a steady stream: none after the first
//!   frame;
//! - `Sequential::grad_vector`: one, the gradient's buffer.
//!
//! The counters are thread-local, so tests running in parallel do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use guanyu_runtime::{
    decode, encode, encode_shared, prefix_frame, BufPool, StreamDecoder, WireMsg,
};
use tensor::TensorRng;

/// The smallest allocation counted: far above any header, index list or
/// small-model tensor, far below one wide frame.
const LARGE: usize = 64 * 1024;

thread_local! {
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= LARGE {
            // `try_with`: the slot is gone while the thread tears down.
            let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` with no destructor, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Large allocations `f` makes on this thread, and its result.
fn large_allocs<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = LARGE_ALLOCS.with(Cell::get);
    let out = f();
    (LARGE_ALLOCS.with(Cell::get) - before, out)
}

/// `tcp-wide`'s frame width: the wide MLP's parameter count.
const WIDE: usize = 64_970;

fn wide_msg(seed: u64, step: u64) -> WireMsg {
    let grad = TensorRng::new(seed).normal_tensor(&[WIDE], 0.0, 1.0);
    WireMsg::Gradient { step, grad }
}

#[test]
fn decode_allocates_the_tensor_and_nothing_else() {
    let msg = wide_msg(1, 3);
    let frame = encode(&msg);
    let (n, back) = large_allocs(|| decode(&frame).unwrap());
    assert_eq!(n, 1, "decode of a {WIDE}-wide frame");
    assert_eq!(back, msg);
}

#[test]
fn a_warmed_shared_encode_allocates_the_frame_and_nothing_else() {
    let msg = wide_msg(2, 4);
    let pool = BufPool::new();
    let first = encode_shared(&msg, &pool);
    let (n, again) = large_allocs(|| encode_shared(&msg, &pool));
    assert_eq!(n, 1, "warmed encode_shared of a {WIDE}-wide message");
    assert_eq!(again, first);
}

#[test]
fn reading_a_steady_stream_allocates_nothing_after_the_first_frame() {
    const FRAMES: usize = 6;
    let mut stream = Vec::new();
    let mut prefixed = Vec::new();
    for step in 0..FRAMES as u64 {
        prefix_frame(&encode(&wide_msg(5, step)), &mut prefixed);
        stream.extend_from_slice(&prefixed);
    }
    let mut src = &stream[..];
    let mut dec = StreamDecoder::new();
    let mut frames = 0;
    let mut after_first = 0;
    while !src.is_empty() {
        let (n, read) = large_allocs(|| dec.read_from(&mut src).unwrap());
        assert!(read > 0);
        if frames > 0 {
            after_first += n;
        }
        while let Some(frame) = dec.next_frame().unwrap() {
            assert_eq!(frame.len(), 13 + 4 * WIDE);
            frames += 1;
        }
    }
    assert_eq!(frames, FRAMES);
    assert_eq!(after_first, 0, "reads after the first frame");
}

#[test]
fn grad_vector_allocates_the_vector_and_nothing_else() {
    let mut rng = TensorRng::new(7);
    let model = nn::models::mlp(&[192, 320, 10], &mut rng).unwrap();
    assert_eq!(model.param_count(), WIDE);
    let (n, grad) = large_allocs(|| model.grad_vector());
    assert_eq!(n, 1, "grad_vector of a {WIDE}-parameter model");
    assert_eq!(grad.len(), WIDE);
}

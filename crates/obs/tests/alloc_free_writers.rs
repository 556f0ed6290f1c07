//! The JSON scalar writers allocate nothing of their own: into a `String`
//! or a byte line with room to spare, `push_f64`, `push_u64` and
//! `push_str` only copy bytes. A `format!` or a temporary `String` on this
//! path, which every journal record and state fingerprint takes, fails
//! the test.
//!
//! A counting global allocator wraps `System` and counts only the
//! allocations of the thread that armed it, as in
//! `crates/sched/tests/alloc_regression.rs`. The crate under test
//! `#![forbid(unsafe_code)]`s itself; the `unsafe` needed to implement
//! `GlobalAlloc` lives here, where it only ever delegates to `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use etrain_obs::json::{push_bool, push_f64, push_str, push_u64, push_u64_or_null, Sink};

/// Delegates every operation to [`System`], counting `alloc`/`realloc`
/// calls made on a thread while that thread has the counter armed.
struct CountingAllocator;

thread_local! {
    // Const-initialised and without `Drop`, so reading it never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_if_armed() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with the counter armed on this thread and returns how many
/// allocations it performed.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Floats of every layout: whole, fractional, below 1, huge, subnormal,
/// negative, an exact tie, and the non-finite `null`s.
const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    7200.0,
    0.264_308_877_626_253_55,
    // 1658206780088562.25, an exact tie.
    f64::from_bits(0x4317_9085_685d_83c9),
    -123_456.789,
    1e21,
    1e300,
    f64::MAX,
    5e-324,
    f64::NAN,
    f64::NEG_INFINITY,
];

const STRINGS: [&str; 4] = ["", "dch", "q\"b\\\n\u{1}\u{1f}", "é雪🚂"];

/// Writes every kind of scalar into `out`.
fn write_all(out: &mut impl Sink) {
    for x in FLOATS {
        push_f64(out, x);
    }
    for n in [0, 9, 10, 4_205, u64::MAX] {
        push_u64(out, n);
        push_u64_or_null(out, Some(n));
    }
    push_u64_or_null(out, None);
    for s in STRINGS {
        push_str(out, s);
    }
    push_bool(out, true);
    push_bool(out, false);
}

#[test]
fn scalar_writers_allocate_nothing_into_a_buffer_with_room() {
    // Far more room than one pass writes (f64::MAX and 5e-324 are about
    // 330 bytes each).
    let mut text = String::with_capacity(1 << 14);
    let mut line = Vec::with_capacity(1 << 14);
    let allocations = allocations_during(|| {
        for _ in 0..4 {
            text.clear();
            write_all(&mut text);
            line.clear();
            write_all(&mut line);
        }
    });
    assert_eq!(allocations, 0);
    // The same bytes either way, and something was written.
    assert_eq!(text.as_bytes(), line.as_slice());
    assert!(text.len() > 600, "{}", text.len());
}

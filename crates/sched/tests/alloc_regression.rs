//! Allocation-regression harness for the hot-path campaign: steady-state
//! scheduler decisions must not touch the allocator.
//!
//! A counting global allocator wraps `System`; the single test (one test
//! so no parallel test thread can allocate while the counter is armed)
//! pins down:
//!
//! - **zero** allocations across steady-state deferral slots for both
//!   eTrain (Θ-gated, queues loaded) and the baseline scheduler, and
//!   across eTrain's horizon probes (`quiet_through`) on those queues;
//! - a small constant budget for releasing slots (the returned `Vec` of
//!   selected packets is the only permitted allocation);
//! - a small constant budget for arrival slots once the queues have
//!   reached their high-water capacity.
//!
//! The crate under test `#![forbid(unsafe_code)]`s itself; the `unsafe`
//! needed to implement `GlobalAlloc` lives here, in the test crate, where
//! it only ever delegates to `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use etrain_sched::{
    AppProfile, BaselineScheduler, ETrainConfig, ETrainScheduler, Scheduler, SlotContext,
};
use etrain_trace::packets::Packet;
use etrain_trace::CargoAppId;

/// Delegates every operation to [`System`], counting `alloc`/`realloc`
/// calls while armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with the counter armed and returns how many allocations it
/// performed.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

fn packet(id: u64, app: usize, arrival_s: f64) -> Packet {
    Packet {
        id,
        app: CargoAppId(app),
        arrival_s,
        size_bytes: 2_000,
    }
}

fn slot_ctx(now_s: f64, heartbeat: bool) -> SlotContext {
    SlotContext {
        now_s,
        heartbeat_departing: heartbeat,
        predicted_bandwidth_bps: 450_000.0,
        trains_alive: true,
    }
}

#[test]
fn steady_state_decisions_do_not_allocate() {
    // --- eTrain, loaded queues, Θ never breached: pure deferral --------
    // Θ is far above what the backlog can accumulate within the driven
    // window, so every slot walks the full Θ-gate scan and defers.
    let mut etrain = ETrainScheduler::new(
        ETrainConfig {
            theta: 1e12,
            k: Some(4),
            slot_s: 1.0,
        },
        AppProfile::paper_trio(60.0),
    );
    for i in 0..96u64 {
        etrain
            .on_arrival(
                packet(i, (i % 3) as usize, i as f64 * 0.25),
                i as f64 * 0.25,
            )
            .expect("registered app");
    }
    // Warm-up: a releasing heartbeat slot sizes the selection scratch to
    // the full backlog, then the released packets are re-admitted so the
    // queues are back at their high-water mark.
    let warm = etrain.on_slot(&slot_ctx(100.0, true));
    assert_eq!(warm.len(), 4, "warm-up heartbeat releases k packets");
    for p in warm {
        etrain.on_tx_failure(p, 100.0).expect("re-admission");
    }

    let (deferral_allocs, released) = allocations_during(|| {
        let mut total = 0usize;
        for slot in 0..256u64 {
            total += etrain.on_slot(&slot_ctx(101.0 + slot as f64, false)).len();
        }
        total
    });
    assert_eq!(released, 0, "Θ = 1e12 must defer everything");
    assert_eq!(
        deferral_allocs, 0,
        "steady-state eTrain deferral slots must not allocate"
    );

    // --- eTrain, horizon probes over the same loaded queues -------------
    // The event kernel asks `quiet_through` instead of stepping deferral
    // slots, so the probe must be as allocation-free as the slot it saves.
    let (probe_allocs, quiet) = allocations_during(|| {
        (0..256u64)
            .filter(|&slot| etrain.quiet_through(101.0 + slot as f64, true))
            .count()
    });
    assert_eq!(
        quiet, 256,
        "Θ = 1e12 is never breached: every probe is quiet"
    );
    assert_eq!(
        probe_allocs, 0,
        "horizon probes on a loaded eTrain queue must not allocate"
    );

    // --- eTrain, releasing slots: only the returned Vec ----------------
    // A heartbeat slot may allocate the selected-packet Vec it returns
    // (and nothing else); the re-admission push must reuse queue
    // capacity freed by the very packets being re-admitted.
    for round in 0..8u64 {
        let now_s = 400.0 + round as f64;
        let (release_allocs, released) =
            allocations_during(|| etrain.on_slot(&slot_ctx(now_s, true)));
        assert_eq!(released.len(), 4, "heartbeat slots release k = 4");
        assert!(
            release_allocs <= 1,
            "releasing slot allocated {release_allocs} times \
             (only the returned Vec is budgeted)"
        );
        let (readmit_allocs, ()) = allocations_during(|| {
            for p in released {
                etrain.on_tx_failure(p, now_s).expect("re-admission");
            }
        });
        assert_eq!(
            readmit_allocs, 0,
            "re-admission into warm queues must reuse capacity"
        );
    }

    // --- eTrain, arrival slots at high-water capacity ------------------
    // The queues have held 96 packets since warm-up, so admitting one
    // more packet per app may grow a `VecDeque` once, but a sustained
    // arrival stream after that must stay within a small constant budget.
    let drained = etrain.drain_pending();
    assert_eq!(drained.len(), 96);
    let (arrival_allocs, ()) = allocations_during(|| {
        for i in 0..96u64 {
            etrain
                .on_arrival(packet(1_000 + i, (i % 3) as usize, 500.0), 500.0)
                .expect("registered app");
        }
    });
    assert!(
        arrival_allocs <= 3,
        "96 arrivals into drained warm queues allocated {arrival_allocs} times \
         (one possible growth per app queue is the budget)"
    );

    // --- Baseline: slots never allocate, warm arrivals stay budgeted ---
    let mut baseline = BaselineScheduler::new(AppProfile::paper_trio(60.0));
    // Warm-up: the arrival bounce grows the queue and the drained Vec.
    let first = baseline
        .on_arrival(packet(0, 0, 0.0), 0.0)
        .expect("registered app");
    assert_eq!(first.len(), 1);
    let (baseline_slot_allocs, released) = allocations_during(|| {
        let mut total = 0usize;
        for slot in 0..256u64 {
            total += baseline
                .on_slot(&slot_ctx(1.0 + slot as f64, slot % 16 == 0))
                .len();
        }
        total
    });
    assert_eq!(released, 0, "baseline releases on arrival, never on slots");
    assert_eq!(baseline_slot_allocs, 0, "baseline slots must not allocate");
    let (baseline_arrival_allocs, ()) = allocations_during(|| {
        for i in 1..64u64 {
            let released = baseline
                .on_arrival(packet(i, 0, i as f64), i as f64)
                .expect("registered app");
            assert_eq!(released.len(), 1);
        }
    });
    // Each arrival legitimately returns a 1-element Vec (`drain_all`);
    // everything else must reuse warm capacity.
    assert!(
        baseline_arrival_allocs <= 63 + 3,
        "baseline arrivals allocated {baseline_arrival_allocs} times for 63 packets \
         (the returned Vec per arrival plus one-off growth is the budget)"
    );
}

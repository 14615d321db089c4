//! The wire encoder's allocation contract: encoding a decision line into a
//! buffer that has already held one allocates nothing. The serve engine
//! encodes every slot's decision into one reused buffer, so a per-number
//! `String` or an intermediate value tree would show up here.
//!
//! Lives in its own integration-test binary because the global allocator
//! is process-wide and the count would be polluted by concurrent tests'
//! allocations; cargo runs each test binary's tests in one process, so
//! this file holds exactly one test.

#![allow(unsafe_code)] // the GlobalAlloc impl below is the entire reason this binary exists

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use coca_dcsim::PolicyTelemetry;
use coca_serve::{DecisionMsg, InMsg, OutMsg};
use coca_traces::SlotEnv;

/// Forwards to the system allocator, counting allocation calls.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A paper-fleet decision: 200 groups in three partitions plus some
/// groups with values of their own, and every float notation.
fn decision(t: usize, telemetry: bool) -> OutMsg {
    let mut levels = vec![3usize; 120];
    levels.extend([1usize; 60]);
    levels.extend(0..20);
    let mut loads = vec![41.234_567_890_123_4; 120];
    loads.extend([1e-7; 60]);
    loads.extend((0..20).map(|i| f64::from(i) * 1.5e15 + 0.1));
    OutMsg::Decision(DecisionMsg {
        t,
        policy: "coca \"v2\"\n".into(),
        levels,
        loads,
        servers_on: 154_800,
        total_cost: 1_234.567_890_1,
        brown_energy: 5e-324,
        telemetry: telemetry.then_some(PolicyTelemetry {
            deficit_kwh: 98_765.432_1,
            frame_pos: t % 24,
            v: f64::MAX,
        }),
    })
}

/// Allocation calls made by `encode_all` over `buf`, which it has already
/// grown once: the minimum over several passes, because the libtest
/// harness thread can land an allocation inside a measured window and the
/// minimum strips that cross-thread noise.
fn warm_allocations(buf: &mut String, encode_all: impl Fn(&mut String)) -> u64 {
    encode_all(buf);
    (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            encode_all(buf);
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("non-empty")
}

#[test]
fn encoding_into_a_warm_buffer_allocates_nothing() {
    let msgs = vec![
        OutMsg::Hello { policy: "coca".into(), groups: 200 },
        decision(0, true),
        decision(1, false),
        decision(usize::MAX / 3, true),
        OutMsg::End { slots: 8760 },
    ];
    let slot = InMsg::Slot(SlotEnv {
        t: 17_519,
        arrival_rate: 112_233.445_566,
        onsite: 0.0,
        price: 0.037_5,
        offsite: 1e-5,
    });
    let mut buf = String::new();
    let publish = |buf: &mut String| {
        for m in &msgs {
            buf.clear();
            m.encode(buf).expect("finite decision");
        }
    };
    assert_eq!(warm_allocations(&mut buf, publish), 0);
    assert!(buf.capacity() > 4000, "a paper-fleet line is several KB");
    let ingest = |buf: &mut String| {
        buf.clear();
        slot.encode(buf).expect("finite slot");
    };
    assert_eq!(warm_allocations(&mut buf, ingest), 0);
}

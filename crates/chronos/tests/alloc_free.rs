//! Verifies the selection hot paths perform **zero heap allocations** when
//! given warm scratch — Chronos selection with a [`SelectScratch`], the
//! plain-NTP round with a [`PipelineScratch`] — via a counting global
//! allocator.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is process-wide, and everything runs inside ONE `#[test]` function:
//! libtest executes sibling tests on parallel threads, which would let a
//! neighbour's allocations land between a counting window's before/after
//! reads and fail the zero-allocation assertion spuriously.
//!
//! Even single-threaded, libtest's own harness thread occasionally
//! allocates (timeout bookkeeping) while a window is open, so each
//! zero-allocation claim is asserted on the **minimum across several
//! windows**: a transient stray can pollute one window, but a real
//! allocation on the hot path would show up in every one.

use chronos::core::{conclude_plain_round, ChronosStats, PlainRoundOutcome};
use chronos::select::{
    chronos_select, chronos_select_with, panic_select_with, ChronosDecision, SelectScratch,
};
use ntplab::combine::{ntpd_pipeline, PipelineScratch};
use ntplab::select::PeerSample;
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
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
static GLOBAL: CountingAllocator = CountingAllocator;

fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, result)
}

/// Runs `f` in several counting windows and returns the minimum count plus
/// the last result — immune to stray harness-thread allocations, which are
/// transient, while a genuine per-call allocation inflates every window.
fn min_allocations_over_windows<R>(windows: u32, mut f: impl FnMut() -> R) -> (u64, R) {
    let (mut min, mut result) = count_allocations(&mut f);
    for _ in 1..windows {
        let (allocs, r) = count_allocations(&mut f);
        min = min.min(allocs);
        result = r;
    }
    (min, result)
}

#[test]
fn selection_hot_path_is_allocation_free_with_scratch() {
    const MS: i64 = 1_000_000;

    // --- harness sanity: the counter must see the allocating wrapper
    //     (which builds a scratch per call) or a zero below proves nothing.
    let offsets = vec![0i64; 15];
    let (allocs, _) = count_allocations(|| chronos_select(&offsets, 5, 25 * MS, 100 * MS));
    assert!(allocs >= 1, "wrapper should allocate its scratch");

    // --- warm scratch: zero allocations across trims and both selectors.
    let offsets: Vec<i64> = (0..133).map(|i| ((i * 37) % 41 - 20) * MS / 10).collect();
    let mut scratch = SelectScratch::with_capacity(offsets.len());
    let (allocs, decisions) = min_allocations_over_windows(5, || {
        let mut accepts = 0u32;
        for round in 0..1000 {
            let trim = (round % 8) + 1;
            if let ChronosDecision::Accept { .. } =
                chronos_select_with(&mut scratch, &offsets, trim, 500 * MS, 1000 * MS)
            {
                accepts += 1;
            }
            let _ = panic_select_with(&mut scratch, &offsets);
        }
        accepts
    });
    assert!(decisions > 0, "sanity: rounds were actually accepted");
    assert_eq!(
        allocs, 0,
        "warm-scratch selection must not allocate (got {allocs} allocations over 2000 calls in the cleanest window)"
    );

    // --- cold scratch: at most one growth allocation, then silence.
    let offsets = vec![3 * MS; 31];
    let (first, _) = min_allocations_over_windows(3, || {
        let mut cold = SelectScratch::new();
        chronos_select_with(&mut cold, &offsets, 5, 25 * MS, 100 * MS)
    });
    assert!(
        first <= 1,
        "cold scratch allocates at most once, got {first}"
    );
    let mut scratch = SelectScratch::with_capacity(offsets.len());
    chronos_select_with(&mut scratch, &offsets, 5, 25 * MS, 100 * MS);
    let (later, _) = min_allocations_over_windows(5, || {
        for _ in 0..100 {
            chronos_select_with(&mut scratch, &offsets, 5, 25 * MS, 100 * MS);
        }
    });
    assert_eq!(later, 0);

    // --- plain-NTP round, harness sanity: the one-shot pipeline builds a
    //     scratch per call.
    let samples: Vec<PeerSample> = (0..4)
        .map(|i| PeerSample {
            server: Ipv4Addr::UNSPECIFIED,
            offset_ns: i * MS,
            delay_ns: 6 * MS,
            dispersion_ns: 0,
        })
        .collect();
    let (allocs, _) = count_allocations(|| ntpd_pipeline(&samples));
    assert!(allocs >= 1, "ntpd_pipeline should allocate its scratch");

    // --- warm pipeline scratch: honest, split-brain and captured 4-sample
    //     rounds conclude without allocating.
    let rounds: [[i64; 4]; 3] = [
        [MS, -MS, 2 * MS, 0],
        [0, MS, 500 * MS, 501 * MS],
        [500 * MS, 499 * MS, 501 * MS, 2 * MS],
    ];
    let mut plain = PipelineScratch::new();
    let mut stats = ChronosStats::default();
    conclude_plain_round(&mut stats, &mut plain, &rounds[0], 3 * MS);
    let (allocs, (corrections, no_majority)) = min_allocations_over_windows(5, || {
        let (mut corrections, mut no_majority) = (0u32, 0u32);
        for round in 0..1000 {
            match conclude_plain_round(&mut stats, &mut plain, &rounds[round % 3], 3 * MS) {
                PlainRoundOutcome::Correction { .. } => corrections += 1,
                PlainRoundOutcome::NoMajority => no_majority += 1,
                PlainRoundOutcome::NoSamples => {}
            }
        }
        (corrections, no_majority)
    });
    assert!(
        corrections > 0 && no_majority > 0,
        "sanity: both outcomes occurred ({corrections} corrections, {no_majority} no-majority)"
    );
    assert_eq!(
        allocs, 0,
        "warm-scratch plain rounds must not allocate (got {allocs} allocations over 1000 rounds in the cleanest window)"
    );
}

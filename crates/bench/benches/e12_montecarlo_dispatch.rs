//! E12 — Monte-Carlo trial-dispatch throughput: the lock-free batched
//! runner vs the retained mutex-per-result baseline, on a 10 000-trial
//! cheap-closure workload (the regime where dispatch overhead dominates),
//! plus the allocation-free Chronos selection hot path vs its sort-based
//! reference, and the two kernels of every simulated poll round: the
//! 15-sample selection (sorting network) and the per-sample jitter draw
//! (`FleetRng::jitter_ns` vs the `normal(..) as i64` it replaces), and the
//! plain-NTP lane's 4-sample decision round (the scratch ntpd pipeline).

use bench::banner;
use chronos::core::{conclude_plain_round, ChronosStats, PlainRoundOutcome};
use chronos::select::{chronos_select_with, reference, SelectScratch};
use chronos_pitfalls::montecarlo::{baseline_run_trials, run_trials, TrialBudget};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fleet::rng::FleetRng;
use ntplab::combine::PipelineScratch;

const TRIALS: u32 = 10_000;
const THREADS: usize = 4;

/// A cheap trial: a few dozen arithmetic ops, so the measurement is
/// dominated by dispatch (claiming work, writing the result) rather than
/// the trial body.
fn cheap_trial(i: u32) -> u64 {
    let mut x = u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for _ in 0..4 {
        x ^= x >> 7;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

fn bench_dispatch(c: &mut Criterion) {
    banner("E12 — trial-dispatch throughput (lock-free vs mutex baseline)");

    // Correctness cross-check before timing anything.
    let a = run_trials(TRIALS, THREADS, cheap_trial);
    let b = baseline_run_trials(TRIALS, THREADS, cheap_trial);
    assert_eq!(a, b, "lock-free runner must match the baseline");

    let mut group = c.benchmark_group("e12_montecarlo_dispatch");
    group.sample_size(30);
    group.throughput(Throughput::Elements(u64::from(TRIALS)));
    group.bench_function("lockfree_10k_cheap", |bch| {
        bch.iter(|| run_trials(black_box(TRIALS), THREADS, cheap_trial))
    });
    group.bench_function("lockfree_batch1_10k_cheap", |bch| {
        bch.iter(|| {
            chronos_pitfalls::montecarlo::run_trials_with_budget(
                black_box(TRIALS),
                THREADS,
                TrialBudget::fixed(1),
                cheap_trial,
            )
        })
    });
    group.bench_function("baseline_mutex_10k_cheap", |bch| {
        bch.iter(|| baseline_run_trials(black_box(TRIALS), THREADS, cheap_trial))
    });
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    banner("E12b — Chronos selection hot path (scratch+partial vs sort reference)");
    const MS: i64 = 1_000_000;
    // A plausible panic-mode-sized round: 133 samples, 1/3 shifted.
    let offsets: Vec<i64> = (0..133)
        .map(|i| {
            if i % 3 == 0 {
                80 * MS + i64::from(i) * MS / 97
            } else {
                (i64::from(i % 7) - 3) * MS / 4
            }
        })
        .collect();
    let mut scratch = SelectScratch::with_capacity(offsets.len());
    assert_eq!(
        chronos_select_with(&mut scratch, &offsets, 5, 25 * MS, 100 * MS),
        reference::chronos_select_sorted(&offsets, 5, 25 * MS, 100 * MS),
    );

    let mut group = c.benchmark_group("e12_chronos_select");
    group.sample_size(30);
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("scratch_partial_133x10k", |bch| {
        bch.iter(|| {
            let mut acc = 0i64;
            for _ in 0..10_000 {
                if let chronos::select::ChronosDecision::Accept { correction_ns, .. } =
                    chronos_select_with(&mut scratch, black_box(&offsets), 5, 25 * MS, 500 * MS)
                {
                    acc = acc.wrapping_add(correction_ns);
                }
            }
            acc
        })
    });
    group.bench_function("reference_sort_133x10k", |bch| {
        bch.iter(|| {
            let mut acc = 0i64;
            for _ in 0..10_000 {
                if let chronos::select::ChronosDecision::Accept { correction_ns, .. } =
                    reference::chronos_select_sorted(black_box(&offsets), 5, 25 * MS, 500 * MS)
                {
                    acc = acc.wrapping_add(correction_ns);
                }
            }
            acc
        })
    });
    // 10k distinct default-sized rounds (m = 15, d = 5) of the kind a
    // fleet poll hands the selection: honest jitter around zero, a third
    // of the slots shifted. Distinct rounds keep branchy code honest.
    let mut rng = FleetRng::from_seed(12);
    let rounds: Vec<[i64; 15]> = (0..10_000)
        .map(|_| {
            std::array::from_fn(|_| {
                let shift = if rng.range_u64(3) == 0 { 80 * MS } else { 0 };
                shift + rng.jitter_ns(500_000.0)
            })
        })
        .collect();
    for round in &rounds[..100] {
        assert_eq!(
            chronos_select_with(&mut scratch, round, 5, 25 * MS, 500 * MS),
            reference::chronos_select_sorted(round, 5, 25 * MS, 500 * MS),
        );
    }
    group.bench_function("network_15x10k", |bch| {
        bch.iter(|| {
            let mut acc = 0i64;
            for round in black_box(&rounds) {
                if let chronos::select::ChronosDecision::Accept { correction_ns, .. } =
                    chronos_select_with(&mut scratch, round, 5, 25 * MS, 500 * MS)
                {
                    acc = acc.wrapping_add(correction_ns);
                }
            }
            acc
        })
    });
    group.finish();
}

/// Draws per iteration of the jitter pair.
const DRAWS: u64 = 1_000_000;

fn bench_jitter(c: &mut Criterion) {
    banner("E12 — per-sample jitter draw (certified fast path vs libm Box-Muller)");
    let std_ns = 500_000.0; // the fleet default, 500 µs
    let mut fast = FleetRng::from_seed(14);
    let mut slow = fast;
    for _ in 0..10_000 {
        assert_eq!(fast.jitter_ns(std_ns), slow.normal(0.0, std_ns) as i64);
    }

    let mut group = c.benchmark_group("e12_jitter_draw");
    group.sample_size(30);
    group.throughput(Throughput::Elements(DRAWS));
    group.bench_function("jitter_ns_1m", |bch| {
        bch.iter(|| {
            let mut acc = 0i64;
            for _ in 0..DRAWS {
                acc = acc.wrapping_add(fast.jitter_ns(black_box(std_ns)));
            }
            acc
        })
    });
    group.bench_function("normal_as_i64_1m", |bch| {
        bch.iter(|| {
            let mut acc = 0i64;
            for _ in 0..DRAWS {
                acc = acc.wrapping_add(slow.normal(0.0, black_box(std_ns)) as i64);
            }
            acc
        })
    });
    group.finish();
}

fn bench_plain_round(c: &mut Criterion) {
    banner("E12 — plain-NTP decision round (scratch ntpd pipeline)");
    const MS: i64 = 1_000_000;
    // The fleet default correctness radius: 2 ms benign bound + 4σ of
    // 500 µs jitter + 1 ms.
    const ROOT_DISTANCE_NS: i64 = 5 * MS;
    // 10k distinct 4-sample rounds as a fleet plain-NTP poll draws them:
    // half honest (benign offsets within ±2 ms), half captured (every
    // server the attacker's, +500 ms), each sample with 500 µs jitter.
    let mut rng = FleetRng::from_seed(16);
    let rounds: Vec<[i64; 4]> = (0..10_000)
        .map(|_| {
            let captured = rng.range_u64(2) == 0;
            std::array::from_fn(|_| {
                let base = if captured {
                    500 * MS
                } else {
                    rng.range_i64(-2 * MS, 2 * MS)
                };
                base + rng.jitter_ns(500_000.0)
            })
        })
        .collect();
    let mut scratch = PipelineScratch::new();
    let mut stats = ChronosStats::default();
    for round in &rounds {
        assert!(matches!(
            conclude_plain_round(&mut stats, &mut scratch, round, ROOT_DISTANCE_NS),
            PlainRoundOutcome::Correction { .. }
        ));
    }

    let mut group = c.benchmark_group("e12_plain_round");
    group.sample_size(30);
    group.throughput(Throughput::Elements(rounds.len() as u64));
    group.bench_function("scratch_4x10k", |bch| {
        bch.iter(|| {
            let mut acc = 0i64;
            for round in black_box(&rounds) {
                if let PlainRoundOutcome::Correction { correction_ns, .. } =
                    conclude_plain_round(&mut stats, &mut scratch, round, ROOT_DISTANCE_NS)
                {
                    acc = acc.wrapping_add(correction_ns);
                }
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_selection,
    bench_jitter,
    bench_plain_round
);
criterion_main!(benches);

//! The ntpd cluster algorithm (RFC 5905 §11.2.2, simplified).
//!
//! After the intersection algorithm picks the truechimers, clustering prunes
//! statistical outliers: repeatedly discard the survivor whose offset is
//! most distant from the others (largest "selection jitter") until either
//! the minimum survivor count is reached or the worst selection jitter is
//! no longer larger than the best peer jitter. [`cluster`] prunes the
//! caller's vector in place, so the pipeline's scratch holds the survivors
//! without a copy.

use crate::select::PeerSample;

/// ntpd's default minimum cluster survivors (NMIN).
pub const MIN_CLUSTER_SURVIVORS: usize = 3;

/// Selection jitter of survivor `i`: RMS distance of its offset from the
/// offsets of all other survivors.
pub fn selection_jitter(samples: &[PeerSample], i: usize) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let xi = samples[i].offset_ns as f64;
    let sum: f64 = samples
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != i)
        .map(|(_, s)| {
            let d = xi - s.offset_ns as f64;
            d * d
        })
        .sum();
    (sum / (samples.len() - 1) as f64).sqrt()
}

/// Peer jitter proxy: the sample's own uncertainty (root distance).
fn peer_jitter(s: &PeerSample) -> f64 {
    s.root_distance() as f64
}

/// Runs the cluster algorithm in place: `samples` keeps its survivors, in
/// input order. Allocates nothing (removal shifts the tail down).
///
/// On ties the *last* sample of greatest selection jitter is discarded
/// (`Iterator::max_by`'s rule), and each jitter is the same f64
/// expression in the same order as [`selection_jitter`], so the pruning
/// is a pure function of the input sequence.
///
/// Each pass first tries a certified early exit. Every selection jitter
/// is an RMS of offset distances, so it exceeds the offset spread
/// (largest minus smallest offset) by at most rounding. A spread that
/// stays within the best peer jitter even when widened by a rounding
/// margin (`SPREAD_MARGIN`, whose doc proves the bound) therefore settles
/// the stopping test `worst ≤ best` without computing any jitter. A
/// wider spread falls through to the exact computation above, so the
/// survivors are the same either way.
pub fn cluster(samples: &mut Vec<PeerSample>, min_survivors: usize) {
    while samples.len() > min_survivors.max(1) {
        let best_peer_jitter = samples
            .iter()
            .map(peer_jitter)
            .min_by(f64::total_cmp)
            .unwrap_or(0.0);
        if samples.len() <= SPREAD_MAX_SAMPLES
            && offset_spread(samples) * SPREAD_MARGIN <= best_peer_jitter
        {
            break;
        }
        let (worst_idx, worst_jitter) = match (0..samples.len())
            .map(|i| (i, selection_jitter(samples, i)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        {
            Some(x) => x,
            None => break,
        };
        // Stop when pruning no longer helps: the spread between survivors
        // is already within measurement noise.
        if worst_jitter <= best_peer_jitter {
            break;
        }
        samples.remove(worst_idx);
    }
}

/// The early exit's allowance for rounding: 1 + 2⁻²⁰.
///
/// With u = 2⁻⁵³ and k = n − 1 terms: the offsets' f64 images are
/// monotone in the offsets, so every computed distance is at most the
/// computed spread D, every squared term at most fl(D²) ≤ D²(1 + u), their
/// running sum at most k·D²(1 + u)^k, and the jitter
/// fl(√fl(sum / k)) ≤ D(1 + u)^(k/2 + 3/2), which is < D(1 + 2⁻²¹) for
/// n ≤ `SPREAD_MAX_SAMPLES`. The test computes fl(D·(1 + 2⁻²⁰)) ≥
/// D(1 + 2⁻²⁰)(1 − u) > D(1 + 2⁻²¹), so when it passes every selection
/// jitter is ≤ the best peer jitter. Nothing overflows: D ≤ 2⁶⁴.
const SPREAD_MARGIN: f64 = 1.0 + 1.0 / (1u64 << 20) as f64;

/// The largest round [`SPREAD_MARGIN`]'s bound covers (2³⁰ samples).
const SPREAD_MAX_SAMPLES: usize = 1 << 30;

/// Largest minus smallest offset of a non-empty slice, in f64.
fn offset_spread(samples: &[PeerSample]) -> f64 {
    let (lo, hi) = samples.iter().fold((i64::MAX, i64::MIN), |(lo, hi), s| {
        (lo.min(s.offset_ns), hi.max(s.offset_ns))
    });
    hi as f64 - lo as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sample(offset_ms: i64, delay_ms: i64) -> PeerSample {
        PeerSample {
            server: Ipv4Addr::new(10, 0, 0, 1),
            offset_ns: offset_ms * 1_000_000,
            delay_ns: delay_ms * 1_000_000,
            dispersion_ns: 0,
        }
    }

    #[test]
    fn tight_cluster_is_untouched() {
        let mut out = vec![sample(0, 20), sample(1, 20), sample(-1, 20), sample(2, 20)];
        cluster(&mut out, MIN_CLUSTER_SURVIVORS);
        assert_eq!(out.len(), 4, "spread ~1ms << peer jitter 10ms");
    }

    #[test]
    fn outlier_is_pruned() {
        let mut out = vec![
            sample(0, 20),
            sample(1, 20),
            sample(-1, 20),
            sample(80, 20), // way outside measurement noise
        ];
        cluster(&mut out, MIN_CLUSTER_SURVIVORS);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|s| s.offset_ns.abs() < 10_000_000));
    }

    #[test]
    fn never_prunes_below_minimum() {
        let mut out = vec![sample(0, 1), sample(100, 1), sample(500, 1)];
        cluster(&mut out, 3);
        assert_eq!(out.len(), 3, "already at NMIN");
    }

    #[test]
    fn min_of_one_keeps_something() {
        let mut out = vec![sample(0, 1), sample(1000, 1)];
        cluster(&mut out, 1);
        assert!(!out.is_empty());
    }

    #[test]
    fn empty_and_single_inputs() {
        let mut empty = Vec::new();
        cluster(&mut empty, 3);
        assert!(empty.is_empty());
        let one = vec![sample(5, 10)];
        let mut out = one.clone();
        cluster(&mut out, 3);
        assert_eq!(out, one);
    }

    #[test]
    fn selection_jitter_of_centre_is_lowest() {
        let samples = vec![sample(-10, 1), sample(0, 1), sample(10, 1)];
        let j_centre = selection_jitter(&samples, 1);
        let j_edge = selection_jitter(&samples, 0);
        assert!(j_centre < j_edge);
    }

    #[test]
    fn repeated_pruning_handles_two_outliers() {
        let mut out = vec![
            sample(0, 20),
            sample(1, 20),
            sample(-2, 20),
            sample(2, 20),
            sample(90, 20),
            sample(-95, 20),
        ];
        cluster(&mut out, MIN_CLUSTER_SURVIVORS);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|s| s.offset_ns.abs() < 10_000_000));
    }

    #[test]
    fn selection_jitter_stays_within_the_spread_margin() {
        // Offsets far from zero (so f64 rounding bites), piled up at the
        // two ends of the spread, the worst case for an RMS distance.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        let bound = 1.0 + 1.0 / (1u64 << 21) as f64;
        for _ in 0..20_000 {
            let base = (next() as i64) << 9;
            let spread = (next() % (1 << 40)) as i64 + 1;
            let n = 2 + (next() % 15) as usize;
            let samples: Vec<PeerSample> = (0..n)
                .map(|_| {
                    let at = match next() % 4 {
                        0 => base,
                        1 => base + (next() as i64 % spread).abs(),
                        _ => base + spread,
                    };
                    PeerSample {
                        server: Ipv4Addr::new(10, 0, 0, 1),
                        offset_ns: at,
                        delay_ns: 0,
                        dispersion_ns: 0,
                    }
                })
                .collect();
            let d = offset_spread(&samples);
            for i in 0..n {
                assert!(selection_jitter(&samples, i) <= d * bound);
            }
        }
    }
}

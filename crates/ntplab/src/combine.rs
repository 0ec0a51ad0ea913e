//! The ntpd combine algorithm (RFC 5905 §11.2.3, simplified) and the full
//! selection pipeline.
//!
//! Survivors of intersection + clustering are averaged with weights inverse
//! to their root distance, yielding the clock correction a plain NTP client
//! applies.
//!
//! The pipeline has one implementation, [`ntpd_pipeline_with`], which runs
//! over a caller-owned [`PipelineScratch`]: the sort-free intersection
//! bounds ([`crate::select`]), the survivor filter, the in-place
//! [`cluster`] and [`combine`] all work on the scratch's one sample
//! vector, so a warm scratch makes a round allocate nothing. Both the
//! packet-level [`crate::plain::PlainNtpClient`] and the fleet's plain-NTP
//! lane (through `chronos::core::conclude_plain_round`) call it;
//! [`ntpd_pipeline`] is its allocating one-shot form.

use crate::cluster::{cluster, MIN_CLUSTER_SURVIVORS};
use crate::select::{intersect_with, IntersectScratch, PeerSample};

/// Combined clock estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Combined {
    /// Weighted mean offset in nanoseconds.
    pub offset_ns: i64,
    /// RMS spread of survivor offsets around the mean, in nanoseconds.
    pub jitter_ns: i64,
    /// Number of survivors combined.
    pub survivors: usize,
}

/// Weighted combination of survivor offsets (weights ∝ 1/root distance).
/// Inlinable, so a caller that ignores `jitter_ns` does not compute it.
#[inline]
pub fn combine(samples: &[PeerSample]) -> Option<Combined> {
    if samples.is_empty() {
        return None;
    }
    let mut total_weight = 0.0f64;
    let mut acc = 0.0f64;
    for s in samples {
        let dist = (s.root_distance().max(1)) as f64;
        let w = 1.0 / dist;
        total_weight += w;
        acc += w * s.offset_ns as f64;
    }
    let mean = acc / total_weight;
    let var: f64 = samples
        .iter()
        .map(|s| {
            let d = s.offset_ns as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / samples.len() as f64;
    Some(Combined {
        offset_ns: mean.round() as i64,
        jitter_ns: var.sqrt().round() as i64,
        survivors: samples.len(),
    })
}

/// Outcome of the full ntpd pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineOutcome {
    /// A correction was produced.
    Correction(Combined),
    /// No majority clique: the client leaves its clock alone.
    NoMajority,
    /// No samples at all.
    NoSamples,
}

/// Caller-owned memory for [`ntpd_pipeline_with`]: the round's samples
/// (filtered and clustered in place) and the intersection's intervals.
#[derive(Debug, Clone, Default)]
pub struct PipelineScratch {
    samples: Vec<PeerSample>,
    intersect: IntersectScratch,
}

impl PipelineScratch {
    /// An empty scratch (the first round allocates).
    pub fn new() -> Self {
        PipelineScratch::default()
    }

    /// A scratch pre-sized for rounds of up to `n` samples, so even the
    /// first round allocates nothing.
    pub fn with_capacity(n: usize) -> Self {
        PipelineScratch {
            samples: Vec::with_capacity(n),
            intersect: IntersectScratch::with_capacity(n),
        }
    }
}

/// The full plain-NTP decision: intersection → cluster → combine.
/// Allocates a scratch per call; [`ntpd_pipeline_with`] is the hot path.
pub fn ntpd_pipeline(samples: &[PeerSample]) -> PipelineOutcome {
    ntpd_pipeline_with(
        &mut PipelineScratch::with_capacity(samples.len()),
        samples.iter().copied(),
    )
}

/// [`ntpd_pipeline`] over caller-owned scratch memory: loads `samples`
/// into `scratch`, then intersects (sort-free, see [`crate::select`]),
/// keeps the truechimers in input order, clusters in place and combines.
/// Performs no heap allocation once `scratch` has capacity for the round.
pub fn ntpd_pipeline_with(
    scratch: &mut PipelineScratch,
    samples: impl IntoIterator<Item = PeerSample>,
) -> PipelineOutcome {
    let round = &mut scratch.samples;
    round.clear();
    round.extend(samples);
    if round.is_empty() {
        return PipelineOutcome::NoSamples;
    }
    let Some(agreement) = intersect_with(&mut scratch.intersect, round) else {
        return PipelineOutcome::NoMajority;
    };
    // Keep the truechimers in input order. A hand-rolled retain: for a
    // handful of samples, `Vec::retain`'s general drop handling measured
    // about a seventh of the round.
    let mut kept = 0;
    for i in 0..round.len() {
        let s = round[i];
        if agreement.admits(&s) {
            round[kept] = s;
            kept += 1;
        }
    }
    round.truncate(kept);
    cluster(round, MIN_CLUSTER_SURVIVORS);
    match combine(round) {
        Some(c) => PipelineOutcome::Correction(c),
        None => PipelineOutcome::NoMajority,
    }
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
    fn combine_of_identical_samples_is_exact() {
        let c = combine(&[sample(5, 10), sample(5, 10)]).unwrap();
        assert_eq!(c.offset_ns, 5_000_000);
        assert_eq!(c.jitter_ns, 0);
        assert_eq!(c.survivors, 2);
    }

    #[test]
    fn combine_weights_low_delay_higher() {
        // offset 0 with tiny delay vs offset 10ms with huge delay: the
        // combined estimate leans strongly toward 0.
        let c = combine(&[sample(0, 2), sample(10, 200)]).unwrap();
        assert!(c.offset_ns < 2_000_000, "got {}", c.offset_ns);
    }

    #[test]
    fn combine_empty_is_none() {
        assert!(combine(&[]).is_none());
    }

    #[test]
    fn pipeline_happy_path() {
        let samples = vec![sample(1, 20), sample(0, 20), sample(-1, 20), sample(2, 20)];
        match ntpd_pipeline(&samples) {
            PipelineOutcome::Correction(c) => {
                assert!(c.offset_ns.abs() < 2_000_000);
                assert_eq!(c.survivors, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipeline_excludes_minority_liar() {
        let samples = vec![
            sample(0, 20),
            sample(1, 20),
            sample(-1, 20),
            sample(400, 20),
        ];
        match ntpd_pipeline(&samples) {
            PipelineOutcome::Correction(c) => {
                assert!(c.offset_ns.abs() < 2_000_000, "liar ignored");
                assert!(c.survivors <= 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipeline_follows_majority_liars() {
        // The attack case: 4-of-4 servers lying consistently by +500ms.
        let samples = vec![
            sample(500, 20),
            sample(501, 20),
            sample(499, 20),
            sample(500, 20),
        ];
        match ntpd_pipeline(&samples) {
            PipelineOutcome::Correction(c) => {
                assert!((c.offset_ns - 500_000_000).abs() < 2_000_000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipeline_refuses_split_brain() {
        let samples = vec![
            sample(0, 10),
            sample(1, 10),
            sample(500, 10),
            sample(501, 10),
        ];
        assert_eq!(ntpd_pipeline(&samples), PipelineOutcome::NoMajority);
    }

    #[test]
    fn pipeline_no_samples() {
        assert_eq!(ntpd_pipeline(&[]), PipelineOutcome::NoSamples);
    }
}

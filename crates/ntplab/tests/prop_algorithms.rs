//! Property tests: NTP timestamps, the selection pipeline's safety
//! properties, and the scratch pipeline's equivalence to the sort-and-scan
//! reference in [`reference`].

use netsim::time::SimTime;
use ntplab::cluster::cluster;
use ntplab::combine::{ntpd_pipeline, ntpd_pipeline_with, PipelineScratch};
use ntplab::packet::NtpPacket;
use ntplab::select::{intersect, PeerSample};
use ntplab::timestamp::{NtpShort, NtpTimestamp};
use proptest::prelude::*;
use std::cell::RefCell;
use std::net::Ipv4Addr;

fn sample(offset_ms: i64, half_width_ms: i64) -> PeerSample {
    PeerSample {
        server: Ipv4Addr::new(10, 0, 0, 1),
        offset_ns: offset_ms * 1_000_000,
        delay_ns: half_width_ms.max(1) * 2 * 1_000_000,
        dispersion_ns: 0,
    }
}

proptest! {
    /// NTP timestamp conversion is nanosecond-accurate within the era
    /// (the 32-bit seconds field rolls over in 2036, 16.1 years past the
    /// 2020 simulation epoch).
    #[test]
    fn timestamp_round_trip(
        nanos in 0u64..(ntplab::timestamp::MAX_ERA_SIM_SECS * 1_000_000_000),
    ) {
        let t = SimTime::from_nanos(nanos);
        let back = NtpTimestamp::from_sim(t).to_sim();
        prop_assert!(back.signed_nanos_since(t).abs() <= 1);
    }

    /// Signed differences are antisymmetric and consistent with ordering.
    #[test]
    fn timestamp_diff_antisymmetric(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let ta = NtpTimestamp::from_sim(SimTime::from_millis(a));
        let tb = NtpTimestamp::from_sim(SimTime::from_millis(b));
        prop_assert_eq!(ta.diff_nanos(tb), -tb.diff_nanos(ta));
        if a > b {
            prop_assert!(ta.diff_nanos(tb) > 0);
        }
    }

    /// Short-format conversion error stays below one unit (2^-16 s).
    #[test]
    fn short_conversion_bounded_error(micros in 0u64..60_000_000) {
        let secs = micros as f64 / 1e6;
        let s = NtpShort::from_secs_f64(secs);
        prop_assert!((s.as_secs_f64() - secs).abs() < 1.0 / 65_536.0);
    }

    /// Packet round-trip for arbitrary field values.
    #[test]
    fn packet_round_trip(
        stratum in any::<u8>(),
        poll in any::<i8>(),
        precision in any::<i8>(),
        refid in any::<u32>(),
        bits in any::<[u64; 4]>(),
    ) {
        let pkt = NtpPacket {
            stratum,
            poll,
            precision,
            reference_id: refid,
            reference_ts: NtpTimestamp::from_bits(bits[0]),
            originate_ts: NtpTimestamp::from_bits(bits[1]),
            receive_ts: NtpTimestamp::from_bits(bits[2]),
            transmit_ts: NtpTimestamp::from_bits(bits[3]),
            ..NtpPacket::client_request(NtpTimestamp::ZERO)
        };
        prop_assert_eq!(NtpPacket::decode(&pkt.encode()).unwrap(), pkt);
    }

    /// Intersection safety: with every interval containing the true offset
    /// (honest majority of honest-only inputs), the result interval
    /// contains it too.
    #[test]
    fn intersection_contains_truth_for_honest_inputs(
        offsets in proptest::collection::vec(-5i64..5, 3..12),
        widths in proptest::collection::vec(6i64..40, 3..12),
    ) {
        let n = offsets.len().min(widths.len());
        let samples: Vec<PeerSample> = (0..n)
            .map(|i| sample(offsets[i], widths[i]))
            .collect();
        // every interval [off-w, off+w] contains 0 since |off| < 5 < 6 <= w
        let r = intersect(&samples).expect("honest inputs must intersect");
        prop_assert!(r.low <= 0 && 0 <= r.high, "[{}, {}]", r.low, r.high);
        prop_assert_eq!(r.survivors.len(), n);
    }

    /// Byzantine safety: fewer than n/2 liars, however placed, cannot pull
    /// the agreed interval away from zero by more than an honest width.
    #[test]
    fn intersection_bounded_by_honest_width(
        liar_offset in 200i64..100_000,
        liar_count in 1usize..3,
        honest_count in 4usize..8,
    ) {
        let mut samples: Vec<PeerSample> = (0..honest_count)
            .map(|i| sample((i as i64 % 5) - 2, 10))
            .collect();
        for _ in 0..liar_count.min((honest_count - 1) / 2) {
            samples.push(sample(liar_offset, 10));
        }
        if let Some(r) = intersect(&samples) {
            // The interval must stay anchored to the honest cluster.
            prop_assert!(r.low.abs() <= 13_000_000, "low {}", r.low);
        }
    }
}

/// The textbook formulation the scratch pipeline must reproduce exactly:
/// intersection by sorting all 3m edges and scanning them, clustering by
/// consuming and returning a vector.
mod reference {
    use ntplab::cluster::{selection_jitter, MIN_CLUSTER_SURVIVORS};
    use ntplab::combine::{combine, PipelineOutcome};
    use ntplab::select::{Intersection, PeerSample};

    /// Marzullo's algorithm with ntpd's midpoint rule, by sort and scan.
    pub fn intersect_sorted(samples: &[PeerSample]) -> Option<Intersection> {
        let m = samples.len();
        if m == 0 {
            return None;
        }
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Kind {
            Low,
            Mid,
            High,
        }
        let mut edges: Vec<(i64, Kind)> = Vec::with_capacity(m * 3);
        for s in samples {
            let (lo, hi) = s.interval();
            edges.push((lo, Kind::Low));
            edges.push((s.offset_ns, Kind::Mid));
            edges.push((hi, Kind::High));
        }
        // Sort by value; at equal values process Low before Mid before
        // High so touching intervals count as overlapping.
        edges.sort_by_key(|&(v, k)| {
            (
                v,
                match k {
                    Kind::Low => 0,
                    Kind::Mid => 1,
                    Kind::High => 2,
                },
            )
        });

        for allow in 0..m.div_ceil(2) {
            let needed = (m - allow) as i64;
            // Lower edge: ascending scan.
            let mut count = 0i64;
            let mut low = None;
            for &(v, kind) in &edges {
                match kind {
                    Kind::Low => {
                        count += 1;
                        if count >= needed {
                            low = Some(v);
                            break;
                        }
                    }
                    Kind::High => count -= 1,
                    Kind::Mid => {}
                }
            }
            // Upper edge: descending scan.
            let mut count = 0i64;
            let mut high = None;
            for &(v, kind) in edges.iter().rev() {
                match kind {
                    Kind::High => {
                        count += 1;
                        if count >= needed {
                            high = Some(v);
                            break;
                        }
                    }
                    Kind::Low => count -= 1,
                    Kind::Mid => {}
                }
            }
            let (Some(low), Some(high)) = (low, high) else {
                continue;
            };
            if low > high {
                continue;
            }
            let outside_mids = samples
                .iter()
                .filter(|s| s.offset_ns < low || s.offset_ns > high)
                .count();
            if outside_mids > allow {
                continue;
            }
            let survivors: Vec<usize> = samples
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    let (slo, shi) = s.interval();
                    shi >= low && slo <= high
                })
                .map(|(i, _)| i)
                .collect();
            return Some(Intersection {
                low,
                high,
                survivors,
                falsetickers: allow,
            });
        }
        None
    }

    /// The cluster loop over an owned vector.
    pub fn cluster_owned(mut samples: Vec<PeerSample>, min_survivors: usize) -> Vec<PeerSample> {
        while samples.len() > min_survivors.max(1) {
            let (worst_idx, worst_jitter) = match (0..samples.len())
                .map(|i| (i, selection_jitter(&samples, i)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
            {
                Some(x) => x,
                None => break,
            };
            let best_peer_jitter = samples
                .iter()
                .map(|s| s.root_distance() as f64)
                .min_by(f64::total_cmp)
                .unwrap_or(0.0);
            if worst_jitter <= best_peer_jitter {
                break;
            }
            samples.remove(worst_idx);
        }
        samples
    }

    /// intersection → cluster → combine, composed from the above.
    pub fn pipeline(samples: &[PeerSample]) -> PipelineOutcome {
        if samples.is_empty() {
            return PipelineOutcome::NoSamples;
        }
        let Some(intersection) = intersect_sorted(samples) else {
            return PipelineOutcome::NoMajority;
        };
        let survivors: Vec<PeerSample> =
            intersection.survivors.iter().map(|&i| samples[i]).collect();
        match combine(&cluster_owned(survivors, MIN_CLUSTER_SURVIVORS)) {
            Some(c) => PipelineOutcome::Correction(c),
            None => PipelineOutcome::NoMajority,
        }
    }
}

/// One sample of a short round. Offsets and radii mostly come from a tiny
/// alphabet, so rounds are full of duplicate offsets and of intervals
/// that touch exactly (`lo_i == hi_j`); odd delays exercise δ/2's
/// truncation, dispersion mixes the root distances, and a few negative
/// delays give inverted intervals (`lo > hi`), which the edge counts must
/// order exactly as the sort does.
fn round_sample() -> impl Strategy<Value = PeerSample> {
    (
        prop_oneof![
            -3i64..=3,
            -3i64..=3,
            -1_000i64..1_000,
            -2_000_000_000i64..2_000_000_000
        ],
        prop_oneof![0i64..=6, 0i64..=6, -2i64..=0, 0i64..2_000_000_000],
        prop_oneof![Just(0i64), 0i64..=2],
    )
        .prop_map(|(offset_ns, delay_ns, dispersion_ns)| PeerSample {
            server: Ipv4Addr::new(10, 0, 0, 1),
            offset_ns,
            delay_ns,
            dispersion_ns,
        })
}

thread_local! {
    /// One pipeline scratch for every case of the property, so state left
    /// over from an earlier round would show as a divergence.
    static SCRATCH: RefCell<PipelineScratch> = RefCell::new(PipelineScratch::new());
}

proptest! {
    /// Rounds of 0..=16 samples, 32 per case: the sort-free intersection,
    /// the in-place cluster and the scratch pipeline return exactly what
    /// the sort-and-scan reference returns.
    #[test]
    fn scratch_pipeline_matches_sorted_reference(
        rounds in proptest::collection::vec(
            (proptest::collection::vec(round_sample(), 0..=16), 0usize..=4),
            32,
        ),
    ) {
        SCRATCH.with(|scratch| -> Result<(), TestCaseError> {
            let mut scratch = scratch.borrow_mut();
            for (samples, min_survivors) in &rounds {
                prop_assert_eq!(
                    intersect(samples),
                    reference::intersect_sorted(samples),
                    "intersection diverged on {:?}",
                    samples
                );
                let mut clustered = samples.clone();
                cluster(&mut clustered, *min_survivors);
                prop_assert_eq!(
                    &clustered,
                    &reference::cluster_owned(samples.clone(), *min_survivors),
                    "cluster diverged on {:?} min {}",
                    samples,
                    min_survivors
                );
                let expected = reference::pipeline(samples);
                prop_assert_eq!(
                    ntpd_pipeline_with(&mut scratch, samples.iter().copied()),
                    expected.clone(),
                    "pipeline diverged on {:?}",
                    samples
                );
                prop_assert_eq!(ntpd_pipeline(samples), expected);
            }
            Ok(())
        })?;
    }
}

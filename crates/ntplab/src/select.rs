//! The ntpd selection (intersection) algorithm — Marzullo's algorithm as
//! adapted in RFC 5905 A.5.5.1.
//!
//! Given offset/delay samples from several servers, find the largest clique
//! of "truechimers" whose correctness intervals intersect, tolerating up to
//! `⌈n/2⌉ - 1` falsetickers. This is the baseline NTP defence the paper's
//! plain-NTP client uses — and the one Chronos replaces.

use std::net::Ipv4Addr;

/// One server's measurement, the input to selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerSample {
    /// The server that produced the sample.
    pub server: Ipv4Addr,
    /// Clock offset θ (server − client) in nanoseconds.
    pub offset_ns: i64,
    /// Round-trip delay δ in nanoseconds.
    pub delay_ns: i64,
    /// Dispersion ε in nanoseconds (measurement uncertainty).
    pub dispersion_ns: i64,
}

impl PeerSample {
    /// Root distance: δ/2 + ε — the radius of the correctness interval.
    pub fn root_distance(&self) -> i64 {
        self.delay_ns / 2 + self.dispersion_ns
    }

    /// The correctness interval `[offset − λ, offset + λ]`.
    pub fn interval(&self) -> (i64, i64) {
        let lambda = self.root_distance();
        (self.offset_ns - lambda, self.offset_ns + lambda)
    }
}

/// Result of the intersection algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Intersection {
    /// The agreed interval `[low, high]` (nanoseconds of offset).
    pub low: i64,
    /// Upper bound of the agreed interval.
    pub high: i64,
    /// Indices (into the input) of the surviving truechimers.
    pub survivors: Vec<usize>,
    /// How many falsetickers were tolerated to find the clique.
    pub falsetickers: usize,
}

/// Runs the intersection algorithm over `samples`.
///
/// Returns `None` when no majority clique exists (fewer than
/// `n - ⌊(n-1)/2⌋` intervals share a point), in which case an ntpd client
/// refuses to update its clock.
pub fn intersect(samples: &[PeerSample]) -> Option<Intersection> {
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
    // Sort by value; at equal values process Low before Mid before High so
    // touching intervals count as overlapping.
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
        // ntpd also requires that no more than `allow` midpoints fall
        // outside the candidate interval.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(offset_ms: i64, half_width_ms: i64) -> PeerSample {
        PeerSample {
            server: Ipv4Addr::new(10, 0, 0, 1),
            offset_ns: offset_ms * 1_000_000,
            delay_ns: half_width_ms * 2 * 1_000_000,
            dispersion_ns: 0,
        }
    }

    #[test]
    fn identical_intervals_all_survive() {
        let samples = vec![sample(0, 10); 4];
        let r = intersect(&samples).unwrap();
        assert_eq!(r.survivors.len(), 4);
        assert_eq!(r.falsetickers, 0);
        assert!(r.low <= 0 && r.high >= 0);
    }

    #[test]
    fn single_sample_survives() {
        let r = intersect(&[sample(5, 10)]).unwrap();
        assert_eq!(r.survivors, vec![0]);
        assert_eq!(r.low, -5_000_000);
        assert_eq!(r.high, 15_000_000);
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(intersect(&[]).is_none());
    }

    #[test]
    fn one_falseticker_among_four_is_excluded() {
        let samples = vec![
            sample(0, 10),
            sample(2, 10),
            sample(-1, 10),
            sample(500, 10), // liar, far away
        ];
        let r = intersect(&samples).unwrap();
        assert_eq!(r.falsetickers, 1);
        assert_eq!(r.survivors, vec![0, 1, 2]);
    }

    #[test]
    fn marzullo_with_ntpd_midpoint_rule() {
        // Textbook Marzullo on [8,12], [11,13], [10,12] yields [11,12], but
        // that interval excludes the first sample's midpoint (10). ntpd's
        // extra rule (no more than `allow` midpoints outside) widens to the
        // allow=1 solution [10,12] — all three still survive.
        let samples = vec![
            sample(10, 2), // [8, 12]
            sample(12, 1), // [11, 13]
            sample(11, 1), // [10, 12]
        ];
        let r = intersect(&samples).unwrap();
        assert_eq!(r.low, 10_000_000);
        assert_eq!(r.high, 12_000_000);
        assert_eq!(r.falsetickers, 1);
        assert_eq!(r.survivors.len(), 3);
    }

    #[test]
    fn split_brain_half_and_half_fails() {
        // Two at 0, two at 500ms, disjoint: no majority clique of 3.
        let samples = vec![
            sample(0, 10),
            sample(1, 10),
            sample(500, 10),
            sample(501, 10),
        ];
        let r = intersect(&samples);
        // With allow=1, needed=3: neither side reaches 3 overlaps.
        assert!(r.is_none(), "got {r:?}");
    }

    #[test]
    fn majority_liars_capture_the_interval() {
        // The plain-NTP failure mode the paper exploits: when the attacker
        // controls a majority (3 of 4), selection happily follows the lie.
        let samples = vec![
            sample(0, 10),   // honest
            sample(500, 10), // liars agreeing with each other
            sample(501, 10),
            sample(499, 10),
        ];
        let r = intersect(&samples).unwrap();
        assert_eq!(r.falsetickers, 1);
        assert_eq!(r.survivors, vec![1, 2, 3]);
        assert!(r.low >= 489_000_000, "interval is around the lie");
    }

    #[test]
    fn touching_intervals_rejected_by_midpoint_rule() {
        // [-5,5] and [5,15] share only the point 5, which contains neither
        // midpoint — ntpd deems the pair unusable.
        let samples = vec![sample(0, 5), sample(10, 5)];
        assert!(intersect(&samples).is_none());
        // Overlapping intervals containing both midpoints pass.
        let samples = vec![sample(0, 8), sample(4, 8)]; // [-8,8] and [-4,12]
        let r = intersect(&samples).unwrap();
        assert_eq!(r.low, -4_000_000);
        assert_eq!(r.high, 8_000_000);
        assert_eq!(r.survivors.len(), 2);
    }

    #[test]
    fn wide_honest_interval_still_contains_truth() {
        // Honest servers with varying uncertainty all contain 0.
        let samples = vec![sample(3, 30), sample(-4, 20), sample(1, 8), sample(0, 5)];
        let r = intersect(&samples).unwrap();
        assert!(r.low <= 0 && r.high >= 0);
        assert_eq!(r.survivors.len(), 4);
    }

    #[test]
    fn two_against_one() {
        let samples = vec![sample(0, 5), sample(1, 5), sample(100, 5)];
        let r = intersect(&samples).unwrap();
        assert_eq!(r.survivors, vec![0, 1]);
        assert_eq!(r.falsetickers, 1);
    }
}

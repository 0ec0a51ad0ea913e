//! The ntpd selection (intersection) algorithm — Marzullo's algorithm as
//! adapted in RFC 5905 A.5.5.1.
//!
//! Given offset/delay samples from several servers, find the largest clique
//! of "truechimers" whose correctness intervals intersect, tolerating up to
//! `⌈n/2⌉ - 1` falsetickers. This is the baseline NTP defence the paper's
//! plain-NTP client uses — and the one Chronos replaces.
//!
//! ntpd finds the agreed interval by sorting every interval's edges and
//! scanning them. This module computes the same bounds without a sort:
//! under ntpd's tie order (low end < midpoint < high end at equal values)
//! each scan's running count at an edge depends only on the edge's value,
//! so each bound is the extreme edge whose count reaches the clique size
//! (the proof is on the crate-internal `intersect_with`, which works over
//! reused scratch and allocates nothing once that is warm). [`intersect`]
//! is its allocating form, which also lists the survivors; the pipeline
//! in [`crate::combine`] uses the scratch form.

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

/// The agreed interval of a successful intersection, without the
/// survivor list — what [`intersect_with`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Agreement {
    pub(crate) low: i64,
    pub(crate) high: i64,
    pub(crate) falsetickers: usize,
}

impl Agreement {
    /// Whether `sample` is a truechimer: its correctness interval meets
    /// `[low, high]`.
    pub(crate) fn admits(&self, sample: &PeerSample) -> bool {
        let (lo, hi) = sample.interval();
        hi >= self.low && lo <= self.high
    }
}

/// One sample's correctness interval and its two edge scores.
#[derive(Debug, Clone, Copy)]
struct Edge {
    lo: i64,
    hi: i64,
    /// `#{lo_j ≤ lo} − #{hi_j < lo}`: the ascending scan's count at `lo`.
    lo_score: i64,
    /// `#{hi_j ≥ hi} − #{lo_j > hi}`: the descending scan's count at `hi`.
    hi_score: i64,
}

/// Caller-owned memory for [`intersect_with`]: one interval and its edge
/// scores per sample, reused across rounds.
#[derive(Debug, Clone, Default)]
pub(crate) struct IntersectScratch {
    edges: Vec<Edge>,
}

impl IntersectScratch {
    /// A scratch pre-sized for rounds of up to `n` samples, so even the
    /// first intersection allocates nothing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        IntersectScratch {
            edges: Vec::with_capacity(n),
        }
    }
}

/// Runs the intersection algorithm over `samples`.
///
/// Returns `None` when no majority clique exists (fewer than
/// `n - ⌊(n-1)/2⌋` intervals share a point), in which case an ntpd client
/// refuses to update its clock. Allocates the survivor list and a
/// scratch; the pipeline ([`crate::combine::ntpd_pipeline_with`]) runs the
/// allocation-free form.
pub fn intersect(samples: &[PeerSample]) -> Option<Intersection> {
    let agreement = intersect_with(&mut IntersectScratch::default(), samples)?;
    Some(Intersection {
        low: agreement.low,
        high: agreement.high,
        survivors: (0..samples.len())
            .filter(|&i| agreement.admits(&samples[i]))
            .collect(),
        falsetickers: agreement.falsetickers,
    })
}

/// [`intersect`] over caller-owned scratch, returning the agreed interval
/// only ([`Agreement::admits`] picks the survivors): no heap allocation
/// once `scratch` has capacity for `samples.len()` intervals, and no sort.
///
/// ntpd sorts the 3m edges (every interval's low end, midpoint and high
/// end) and scans them: ascending, +1 at a low end and −1 at a high end,
/// `low` is the first low end where the count reaches `needed = m −
/// allow`; descending, with the roles swapped, `high` is the first high
/// end that reaches it. At equal values the sort puts low ends before
/// midpoints before high ends, so touching intervals overlap. Under that
/// tie order the count after the last of the low ends at a value v is
/// `#{lo ≤ v} − #{hi < v}`, and after the last high end at v in the
/// descending scan it is `#{hi ≥ v} − #{lo > v}`. Both scores depend on v
/// alone, so without sorting:
///
/// * `low` is the least low end v with `#{lo ≤ v} − #{hi < v} ≥ needed`;
/// * `high` is the greatest high end v with `#{hi ≥ v} − #{lo > v} ≥ needed`.
///
/// With no falseticker allowed (`needed = m`) a score reaches m only at a
/// point inside every interval, so `low` is the greatest low end and
/// `high` the least high end, and the clique exists iff `low ≤ high`: one
/// pass. The scores do not depend on `allow`, so only when that first
/// attempt fails are they computed, once, into `scratch` (O(m²)
/// comparisons, fewer than a sort's for the handful of servers a client
/// polls). Midpoints never move the count; they enter only through
/// ntpd's extra rule that at most `allow` of them may fall outside
/// `[low, high]`.
pub(crate) fn intersect_with(
    scratch: &mut IntersectScratch,
    samples: &[PeerSample],
) -> Option<Agreement> {
    let m = samples.len();
    let edges = &mut scratch.edges;
    edges.clear();
    edges.extend(samples.iter().map(|s| {
        let (lo, hi) = s.interval();
        Edge {
            lo,
            hi,
            lo_score: 0,
            hi_score: 0,
        }
    }));

    for allow in 0..m.div_ceil(2) {
        let (low, high) = if allow == 0 {
            let low = edges.iter().fold(i64::MIN, |v, e| v.max(e.lo));
            let high = edges.iter().fold(i64::MAX, |v, e| v.min(e.hi));
            (low, high)
        } else {
            if allow == 1 {
                score(edges);
            }
            match bounds(edges, (m - allow) as i64) {
                Some(bounds) => bounds,
                None => continue,
            }
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
        return Some(Agreement {
            low,
            high,
            falsetickers: allow,
        });
    }
    None
}

/// Fills in every edge's ascending- and descending-scan score.
fn score(edges: &mut [Edge]) {
    for i in 0..edges.len() {
        let (lo, hi) = (edges[i].lo, edges[i].hi);
        let (mut lo_score, mut hi_score) = (0i64, 0i64);
        for e in edges.iter() {
            lo_score += i64::from(e.lo <= lo) - i64::from(e.hi < lo);
            hi_score += i64::from(e.hi >= hi) - i64::from(e.lo > hi);
        }
        edges[i].lo_score = lo_score;
        edges[i].hi_score = hi_score;
    }
}

/// The least low end and the greatest high end whose scores reach
/// `needed`, if both exist.
fn bounds(edges: &[Edge], needed: i64) -> Option<(i64, i64)> {
    let low = edges
        .iter()
        .filter(|e| e.lo_score >= needed)
        .map(|e| e.lo)
        .min()?;
    let high = edges
        .iter()
        .filter(|e| e.hi_score >= needed)
        .map(|e| e.hi)
        .max()?;
    Some((low, high))
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

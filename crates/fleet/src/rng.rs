//! Per-client random streams.
//!
//! A fleet keeps one RNG stream per client so trajectories are a function
//! of `(fleet seed, global client id)` alone — independent of fleet size,
//! iteration order and thread count. The generator is SplitMix64: 8 bytes
//! of state per client (a [`netsim::rng::SimRng`] carries a full ChaCha
//! state, far too heavy for 10⁶ columns), passes practical statistical
//! tests, and seeds decorrelate under the finalizer mix.
//!
//! # Fault substreams
//!
//! Fault injection ([`crate::config::FaultPlan`]) draws from *stateless*
//! substreams keyed by `(fleet seed, global id, lane, round, slot)` —
//! [`fault_f64`] — rather than from the client's sequential stream. Two
//! properties follow by construction:
//!
//! * an all-zero plan consumes **no** draws, so the client's main stream
//!   advances exactly as in a fault-free fleet (fault layer off = legacy,
//!   byte for byte);
//! * every draw is addressable without replaying history, so faulty runs
//!   stay byte-identical across thread counts, shard sizes and fleet
//!   slicings (the draw never depends on stepping order).
//!
//! A round that draws once per sample slot derives the per-round part of
//! the key once ([`FaultKey`]) and finishes each slot with one finalizer.
//!
//! # The jitter draw
//!
//! Every simulated NTP, NTS and Roughtime sample adds network jitter,
//! `normal(0.0, std) as i64` — about 3·10⁷ draws in a 36 000-client fleet
//! run, where libm's `ln` and `cos` dominated. [`FleetRng::jitter_ns`]
//! returns exactly that value from the same two uniforms, through a fast
//! path that needs no libm call:
//!
//! * `ln u1` from a 256-bin table of `(1/c, ln c)` plus a degree-5 series
//!   (a direct degree-8 `log1p` series within 2⁻⁷ of 1);
//! * `cos 2π·u2` from a 128-entry `(cos, sin)` table of 1/128 turns plus
//!   degree-8/7 series; only IEEE `+ − × sqrt` otherwise;
//! * the truncated fast value is kept only when it lies farther than the
//!   certified margin `std · 2⁻³²` from every integer, four orders of
//!   magnitude above the combined error of both evaluations (derived at
//!   `fast_truncated_normal`). Otherwise — about 2.4·10⁻⁴ of draws at the
//!   default 500 µs — it recomputes through the very expression
//!   [`FleetRng::normal`] evaluates.
//!
//! The tables take 6 KiB, are built once and are shared read-only by
//! every shard. Fleet reports are byte-identical to the libm draw; the
//! unit tests check 10⁶ seeded draws and hand-picked edge uniforms, and an
//! ignored release test sweeps 10⁹.

use core::f64::consts::{PI, TAU};
use std::sync::OnceLock;

/// Weyl increment of SplitMix64.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output finalizer: a strong 64-bit mix.
#[inline]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the RNG seed for one client from the fleet seed and the
/// client's *global* id, so the same client reproduces its stream in any
/// fleet slicing (see `FleetConfig::first_client_id`).
pub fn client_seed(fleet_seed: u64, global_id: u64) -> u64 {
    finalize(fleet_seed ^ (global_id.wrapping_add(1)).wrapping_mul(GAMMA))
}

/// Salt folded into the fleet seed before deriving a client's *fault*
/// substreams, so fault draws are decorrelated from the client's main
/// boot/drift/sampling stream (which hashes the unsalted seed) and from
/// the resolver-assignment hash.
const FAULT_SALT: u64 = 0xfa17_5eed_0bad_ca11;

/// Which fault decision a [`fault_f64`] draw feeds. The lane keeps the
/// independent fault axes (DNS vs NTP vs backoff jitter) on disjoint
/// substreams even when they share a round index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum FaultLane {
    /// One DNS pool query's SERVFAIL draw (`round` = the client's query
    /// index, `slot` = 0).
    DnsQuery = 1,
    /// One NTP sample's loss draw in a poll round (`round` = the client's
    /// poll index, `slot` = the sample's position in the round).
    NtpSample = 2,
    /// One NTP sample's loss draw in a panic round (`round` = the
    /// client's panic-episode index, `slot` = position).
    PanicSample = 3,
    /// The backoff-jitter draw of one plain-NTP boot retry (`round` = the
    /// failed attempt index, `slot` = 0). NTS re-key retries share the
    /// lane with `round` = `boundary · max_attempts + attempt`, which
    /// never collides with the plain encoding on the same client because
    /// a client runs exactly one kind.
    RetryJitter = 4,
    /// One NTS-KE association query's SERVFAIL draw (`round` = the
    /// re-key boundary index × `max_attempts` + the retry attempt,
    /// `slot` = 0). A lane of its own so adding NTS tiers to a plan
    /// leaves every pre-E18 substream untouched.
    NtsRekey = 5,
    /// One Roughtime source fetch's loss draw (`round` = the client's
    /// fetch-round index, `slot` = the source's position among the
    /// resolved sources).
    RoughtimeFetch = 6,
}

/// The per-round part of a fault substream key: everything but the slot.
///
/// A round that draws once per sample slot ([`FaultLane::NtpSample`],
/// [`FaultLane::RoughtimeFetch`], …) derives this once and finishes each
/// slot with [`FaultKey::seed`] / [`FaultKey::draw`], instead of
/// re-deriving the client hash and the lane/round mix per slot. The bits
/// are exactly [`fault_seed`]'s: the coordinates are XOR-combined before
/// one finalizer, so the slot term can be folded in last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultKey(u64);

impl FaultKey {
    /// The key of `(fleet seed, global id, lane, round)`.
    #[inline]
    pub fn new(fleet_seed: u64, global_id: u64, lane: FaultLane, round: u64) -> Self {
        let base = client_seed(fleet_seed ^ FAULT_SALT, global_id);
        // Distinct odd multipliers per coordinate (golden-ratio family),
        // then the finalizer in `seed`, so adjacent rounds/slots/lanes
        // decorrelate fully.
        FaultKey(
            base ^ (lane as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)
                ^ round.wrapping_add(1).wrapping_mul(0xaef1_7502_07c2_5f69),
        )
    }

    /// The substream seed of one slot in this round.
    #[inline]
    pub fn seed(self, slot: u64) -> u64 {
        finalize(self.0 ^ slot.wrapping_add(1).wrapping_mul(GAMMA))
    }

    /// One uniform draw in `[0, 1)` from one slot's substream.
    #[inline]
    pub fn draw(self, slot: u64) -> f64 {
        FleetRng::from_seed(self.seed(slot)).next_f64()
    }
}

/// The seed of one fault draw's substream: a pure function of
/// `(fleet seed, global id, lane, round, slot)`. Stateless by design —
/// see the module docs.
pub fn fault_seed(fleet_seed: u64, global_id: u64, lane: FaultLane, round: u64, slot: u64) -> u64 {
    FaultKey::new(fleet_seed, global_id, lane, round).seed(slot)
}

/// One uniform draw in `[0, 1)` from the fault substream keyed by
/// `(fleet seed, global id, lane, round, slot)`.
#[inline]
pub fn fault_f64(fleet_seed: u64, global_id: u64, lane: FaultLane, round: u64, slot: u64) -> f64 {
    FaultKey::new(fleet_seed, global_id, lane, round).draw(slot)
}

/// An 8-byte deterministic RNG stream (SplitMix64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRng(u64);

impl FleetRng {
    /// Creates a stream from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        FleetRng(seed)
    }

    /// The raw state, for storage in a state column.
    pub fn state(self) -> u64 {
        self.0
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        finalize(self.0)
    }

    /// Uniform draw in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Multiply-shift reduction (Lemire, without the rejection step: the
        // modulo bias over ranges ≪ 2^64 is far below statistical noise for
        // a simulation, and determinism is what matters here).
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "inverted range {lo}..={hi}");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let draw = (u128::from(self.next_u64()) * span) >> 64;
        (lo as i128 + draw as i128) as i64
    }

    /// A normal variate with the given mean and standard deviation
    /// (Box-Muller; consumes two uniforms).
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.next_f64(); // (0, 1] so ln is finite
        let u2 = self.next_f64();
        box_muller(mean, std_dev, u1, u2)
    }

    /// One sample's network jitter in whole nanoseconds: exactly
    /// `self.normal(0.0, std_ns) as i64`, consuming the same two uniforms,
    /// or `0` without touching the stream when `std_ns` is not positive.
    ///
    /// Faster than that expression by a table-driven `ln`/`cos` whose
    /// result is kept only when certified to truncate to the same integer
    /// (see [the module docs](self#the-jitter-draw)).
    #[inline]
    pub fn jitter_ns(&mut self, std_ns: f64) -> i64 {
        if std_ns > 0.0 {
            let u1 = 1.0 - self.next_f64();
            let u2 = self.next_f64();
            truncated_normal(std_ns, u1, u2)
        } else {
            0
        }
    }
}

/// Box–Muller over two uniforms, `mean + std_dev·√(−2 ln u1)·cos(2π u2)`:
/// the one expression behind [`FleetRng::normal`] and the slow path of
/// [`FleetRng::jitter_ns`], so the two cannot drift apart.
#[inline]
fn box_muller(mean: f64, std_dev: f64, u1: f64, u2: f64) -> f64 {
    mean + std_dev * (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// `box_muller(0.0, std_ns, u1, u2) as i64`, through the certified fast
/// path whenever it applies.
#[inline]
fn truncated_normal(std_ns: f64, u1: f64, u2: f64) -> i64 {
    match fast_truncated_normal(std_ns, u1, u2) {
        Some(noise) => noise,
        None => box_muller(0.0, std_ns, u1, u2) as i64,
    }
}

/// Relative fallback margin of the fast jitter path: a fast value within
/// `std · 2⁻³²` of an integer is recomputed through [`box_muller`].
const JITTER_MARGIN: f64 = 1.0 / (1u64 << 32) as f64;

/// Adding then subtracting 1.5·2⁵² rounds any |t| < 2⁵¹ to the nearest
/// integer, which lands in the sum's low mantissa bits.
const ROUNDER: f64 = 6_755_399_441_055_744.0;

/// Largest magnitude [`ROUNDER`] rounds correctly; the fast path falls
/// back at and above it (from 2⁵² on, every `f64` is an integer or a
/// half-integer anyway, so no truncation could be certified by distance).
const ROUNDABLE: f64 = (1u64 << 51) as f64;

/// The fast evaluation of `std_ns · √(−2 ln u1) · cos(2π u2)`, truncated,
/// or `None` when it lies too close to an integer to be certain that the
/// libm evaluation truncates to the same value.
///
/// Error bound. Let y* = std·√(−2 ln u1)·cos(2π·u2) exactly, with
/// √(−2 ln u1) ≤ √(106 ln 2) < 8.6 because u1 ≥ 2⁻⁵³.
///
/// * libm path, `box_muller`: `ln`, `cos` and `sqrt` are each within an
///   ulp, and `cos` sees x = fl(2π·u2), off by at most half an ulp of
///   x < 2π; so |y_lib − y*| ≤ 8.6·(4.4 + 4.4 + 1.1)·10⁻¹⁶·std
///   < 10⁻¹⁴·std.
/// * fast path, `L = ln u1`: within 2⁻⁷ of 1 [`ln_unit`] evaluates
///   log1p on u1 − 1, which is exact (Sterbenz), so L keeps a relative
///   error of a few ulp exactly where √(−2L) amplifies it. Elsewhere
///   |L| ≥ 2⁻⁷ and the table path errs by at most ~1.7·10⁻¹⁶ absolute
///   (one ulp of the tabled ln c, plus the sums), i.e. ≤ 2.2·10⁻¹⁴
///   relative, ≤ 1.1·10⁻¹⁴ relative in √(−2L) ≤ 1.18 there.
/// * fast path, `cos`: [`cos_turns`] errs by ≤ 10⁻¹⁵ absolute, ≤ 8.6·10⁻¹⁵·std
///   after scaling.
///
/// Together |y_fast − y*| ≤ 2.5·10⁻¹⁴·std and |y_fast − y_lib| <
/// 3.5·10⁻¹⁴·std, four orders of magnitude under the margin
/// δ = std·2⁻³² ≈ 2.3·10⁻¹⁰·std (so even a libm off by 10³ ulp is covered).
/// If y_fast is farther than δ from every integer, y_lib lies in the same
/// open unit interval and `as i64` truncates both alike. (0 counts as a
/// boundary too, which only costs a rare needless fallback.) Expected
/// fallback rate: about 2δ per unit of jitter, ~2.4·10⁻⁴ at 500 µs; at
/// std ≥ 2³¹ ns the margin reaches ½ and every draw falls back.
#[inline]
fn fast_truncated_normal(std_ns: f64, u1: f64, u2: f64) -> Option<i64> {
    let y = std_ns * (-2.0 * ln_unit(u1)).sqrt() * cos_turns(u2);
    // The distance from y to the nearest integer, exactly: for |y| < 2⁵¹
    // the rounder yields that integer and y minus it is exact.
    let distance = (y - ((y + ROUNDER) - ROUNDER)).abs();
    (y.abs() < ROUNDABLE && distance > std_ns * JITTER_MARGIN).then_some(y as i64)
}

/// Width of the band below 1 where [`ln_unit`] takes the direct series.
const LOG1P_BAND: f64 = 1.0 / 128.0;

/// `ln 2` split so that `e · LN2_HI` is exact for |e| < 2¹¹ (fdlibm).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

const EXPONENT_ONE: u64 = 0x3ff0_0000_0000_0000;
const MANTISSA: u64 = (1 << 52) - 1;
/// The top 8 mantissa bits: the ln-table bin.
const BIN: u64 = 0xff << 44;

/// `ln u` for the Box–Muller range `u ∈ [2⁻⁵³, 1]`, with only IEEE
/// `+ − ×` and one table lookup.
#[inline]
fn ln_unit(u: f64) -> f64 {
    if u >= 1.0 - LOG1P_BAND {
        return log1p_series(u - 1.0);
    }
    // u = 2^e · m with m ∈ [1, 2) (u is normal), and m = c·(1 + r) around
    // the centre c of m's 1/256 bin: ln u = e·ln 2 + ln c + ln(1 + r).
    let bits = u.to_bits();
    let e = ((bits >> 52) as i32 - 1023) as f64;
    let m = f64::from_bits(bits & MANTISSA | EXPONENT_ONE);
    let c = f64::from_bits(bits & BIN | EXPONENT_ONE | 1 << 43);
    let (inv_c, ln_c) = tables().ln[((bits & BIN) >> 44) as usize];
    // m − c is exact (Sterbenz); |r| < 2⁻⁹.
    let r = (m - c) * inv_c;
    // ln(1 + r) through r⁵, paired (Estrin) for a short dependency
    // chain; the first omitted term r⁶/6 is below 2⁻⁵⁶.
    let r2 = r * r;
    let q = (-1.0 / 2.0 + r * (1.0 / 3.0)) + r2 * (-1.0 / 4.0 + r * (1.0 / 5.0));
    // e·LN2_HI + ln c is exact or a single rounding of a value ≥ ½·|L|.
    (e * LN2_HI + ln_c) + ((r + e * LN2_LO) + r2 * q)
}

/// `ln(1 + z)` for |z| ≤ 2⁻⁷: the Taylor series through z⁸, whose first
/// omitted term z⁹/9 is below 2⁻⁵⁶·|z|.
#[inline]
fn log1p_series(z: f64) -> f64 {
    let q = -1.0 / 2.0
        + z * (1.0 / 3.0
            + z * (-1.0 / 4.0
                + z * (1.0 / 5.0 + z * (-1.0 / 6.0 + z * (1.0 / 7.0 - z * (1.0 / 8.0))))));
    z + z * z * q
}

/// `cos(2π·u)` for `u ∈ [0, 1]`, within 10⁻¹⁵ absolute: the nearest grid
/// point k/128 of a turn from the table, rotated by d = 2π·(u − k/128),
/// |d| ≤ π/128, through short Taylor series (first omitted terms d¹⁰/10!
/// and d⁹/9! below 10⁻²⁰). Reducing `u` rather than fl(2π·u) keeps the
/// reduction exact; the half-ulp by which libm's argument differs is in
/// the [`fast_truncated_normal`] budget.
#[inline]
fn cos_turns(u: f64) -> f64 {
    let t = u * 128.0;
    let rounded = t + ROUNDER;
    // Grid point 128 (u just below 1) is the turn's start again.
    let k = rounded.to_bits() as usize & 0x7f;
    // t − k is exact (Sterbenz for k ≥ 1, trivially for k = 0).
    let d = (t - (rounded - ROUNDER)) * (TAU / 128.0);
    let (cos_k, sin_k) = tables().cos_sin[k];
    let d2 = d * d;
    let d4 = d2 * d2;
    let cos_d_minus_1 =
        d2 * ((-1.0 / 2.0 + d2 * (1.0 / 24.0)) + d4 * (-1.0 / 720.0 + d2 * (1.0 / 40_320.0)));
    let sin_d = d + d * d2 * ((-1.0 / 6.0 + d2 * (1.0 / 120.0)) + d4 * (-1.0 / 5_040.0));
    cos_k + (cos_k * cos_d_minus_1 - sin_k * sin_d)
}

/// Read-only tables of the fast jitter path, 6 KiB, built once and shared
/// by every shard.
struct JitterTables {
    /// Per 1/256 bin of the mantissa range [1, 2): `(1/c, ln c)` at the
    /// bin centre c = 1 + (bin + ½)/256.
    ln: [(f64, f64); 256],
    /// `(cos, sin)` of 2πk/128 for k = 0..128, each within ~2·10⁻¹⁶:
    /// built by the octant symmetries from arguments in [0, π/4], which
    /// are off by under 10⁻¹⁶.
    cos_sin: [(f64, f64); 128],
}

const _: () = assert!(std::mem::size_of::<JitterTables>() < 8 * 1024);

fn tables() -> &'static JitterTables {
    static TABLES: OnceLock<JitterTables> = OnceLock::new();
    TABLES.get_or_init(|| JitterTables {
        ln: std::array::from_fn(|bin| {
            let c = 1.0 + (bin as f64 + 0.5) / 256.0;
            (1.0 / c, c.ln())
        }),
        cos_sin: std::array::from_fn(|k| {
            // 2πk/128 = (π/2)·quadrant + (π/64)·i, i ∈ [0, 32); fold i
            // into [0, 16] with cos(π/2 − a) = sin a.
            let (quadrant, i) = (k / 32, k % 32);
            let octant = |i: usize| {
                let a = i as f64 * (PI / 64.0);
                (a.cos(), a.sin())
            };
            let (c, s) = if i <= 16 {
                octant(i)
            } else {
                let (c, s) = octant(32 - i);
                (s, c)
            };
            match quadrant {
                0 => (c, s),
                1 => (-s, c),
                2 => (-c, -s),
                _ => (s, -c),
            }
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_decorrelated() {
        let mut a = FleetRng::from_seed(client_seed(7, 0));
        let mut b = FleetRng::from_seed(client_seed(7, 0));
        let mut c = FleetRng::from_seed(client_seed(7, 1));
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut a = FleetRng::from_seed(client_seed(7, 0));
        let same = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(same, 0, "adjacent client ids share no outputs");
    }

    #[test]
    fn range_draws_are_in_bounds() {
        let mut rng = FleetRng::from_seed(3);
        for _ in 0..1000 {
            assert!(rng.range_u64(7) < 7);
            let v = rng.range_i64(-5, 5);
            assert!((-5..=5).contains(&v));
        }
        assert_eq!(rng.range_u64(1), 0);
        assert_eq!(rng.range_i64(4, 4), 4);
    }

    #[test]
    fn range_covers_extremes() {
        let mut rng = FleetRng::from_seed(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.range_u64(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = FleetRng::from_seed(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    /// Standard deviations from 1 ns to 10⁴ s; 500 µs is the fleet default.
    const JITTER_STDS: [f64; 6] = [1.0, 1e3, 5e5, 2.5e7, 1e9, 1e13];

    /// Draws `draws` jitters per std from seeded streams, checking each
    /// against `normal(0.0, std) as i64` and the stream state after it.
    fn assert_jitter_matches_normal(draws: u64, seeds: std::ops::Range<u64>) {
        for (i, &std_ns) in JITTER_STDS.iter().enumerate() {
            for seed in seeds.clone() {
                let mut fast = FleetRng::from_seed(client_seed(seed, i as u64));
                let mut slow = fast;
                for draw in 0..draws {
                    let want = slow.normal(0.0, std_ns) as i64;
                    assert_eq!(
                        fast.jitter_ns(std_ns),
                        want,
                        "std {std_ns} seed {seed} draw {draw}"
                    );
                    assert_eq!(fast, slow, "stream state after draw {draw}");
                }
            }
        }
    }

    #[test]
    fn jitter_ns_is_normal_truncated() {
        // 6 stds × 4 streams × 42 000 draws ≈ 10⁶ draws.
        assert_jitter_matches_normal(42_000, 0..4);
    }

    /// The release sweep behind the fast path's claim, 10⁹ draws:
    /// `cargo test --release -p fleet --lib -- --ignored jitter_ns_release_sweep`.
    #[test]
    #[ignore = "release-mode sweep, about a minute"]
    fn jitter_ns_release_sweep() {
        assert_jitter_matches_normal(1_000_000_000u64.div_ceil(6 * 8), 0..8);
    }

    #[test]
    fn jitter_ns_without_jitter_draws_nothing() {
        for std_ns in [0.0, -1.0, f64::NAN] {
            let mut rng = FleetRng::from_seed(9);
            assert_eq!(rng.jitter_ns(std_ns), 0);
            assert_eq!(rng, FleetRng::from_seed(9), "no uniforms consumed");
        }
    }

    #[test]
    fn jitter_fast_path_on_hand_picked_uniforms() {
        let ulp = f64::EPSILON / 2.0; // 2⁻⁵³
        let near = |x: f64| [x.next_down(), x, x.next_up()];
        let mut u1s = vec![1.0, 1.0 - ulp, ulp, 0.5];
        u1s.extend(near(1.0 - LOG1P_BAND));
        // Both sides of every ln-table bin edge, in the top binades and in
        // the lowest one u1 reaches.
        for exponent in [-1, -2, -17, -53] {
            for bin in 0..=256 {
                u1s.extend(near((1.0 + f64::from(bin) / 256.0) * 2f64.powi(exponent)));
            }
        }
        u1s.retain(|u| (ulp..=1.0).contains(u));
        let mut u2s = vec![0.0, 0.25, 0.5, 0.75, 1.0 - ulp];
        // Both sides of every cos grid point and of every midpoint between
        // two, where the nearest grid point flips.
        for k in 0..128 {
            u2s.extend(near(f64::from(k) / 128.0));
            u2s.extend(near((f64::from(k) + 0.5) / 128.0));
        }
        u2s.retain(|u| (0.0..1.0).contains(u));
        let check = |std_ns: f64, u1: f64, u2: f64| {
            assert_eq!(
                truncated_normal(std_ns, u1, u2),
                box_muller(0.0, std_ns, u1, u2) as i64,
                "std {std_ns} u1 {u1:e} u2 {u2:e}"
            );
        };
        for std_ns in JITTER_STDS.into_iter().chain([f64::MAX, 1e300, 1e-300]) {
            for &u1 in &u1s {
                for u2 in [0.0, 0.25, 0.5, 0.75, 1.0 - ulp, 0.1] {
                    check(std_ns, u1, u2);
                }
            }
            for &u2 in &u2s {
                for u1 in [1.0, 1.0 - ulp, 0.99, 0.5, 0.3, ulp] {
                    check(std_ns, u1, u2);
                }
            }
        }
    }

    #[test]
    fn fast_path_matches_libm_closely_and_rarely_falls_back() {
        let mut rng = FleetRng::from_seed(21);
        let std_ns = 5e5;
        let mut fallbacks = 0;
        let (mut worst_ln, mut worst_cos) = (0f64, 0f64);
        for _ in 0..100_000 {
            let u1 = 1.0 - rng.next_f64();
            let u2 = rng.next_f64();
            // The ingredients agree far inside the margin's budget.
            let (l, l_lib) = (ln_unit(u1), u1.ln());
            worst_ln = worst_ln.max(((l - l_lib) / l_lib).abs());
            worst_cos = worst_cos.max((cos_turns(u2) - (TAU * u2).cos()).abs());
            if fast_truncated_normal(std_ns, u1, u2).is_none() {
                fallbacks += 1;
            }
        }
        assert!(worst_ln < 3e-14, "ln relative error {worst_ln:e}");
        assert!(worst_cos < 1e-15, "cos absolute error {worst_cos:e}");
        // Expected ≈ 2·2⁻³²·std per draw ≈ 23 per 10⁵.
        assert!(fallbacks < 200, "{fallbacks} fallbacks in 10⁵ draws");
    }

    #[test]
    fn fault_key_keeps_the_fault_seed_bits() {
        // Pinned from the single-expression derivation the per-round key
        // replaced, so substreams (and every faulty report) are unchanged.
        assert_eq!(
            fault_seed(7, 3, FaultLane::NtpSample, 5, 2),
            0x8328_8ef8_cc93_480f
        );
        assert_eq!(
            fault_seed(42, 17, FaultLane::RoughtimeFetch, 9, 0),
            0x1846_50e6_317a_9451
        );
        let key = FaultKey::new(7, 3, FaultLane::NtpSample, 5);
        for slot in 0..16 {
            assert_eq!(
                key.seed(slot),
                fault_seed(7, 3, FaultLane::NtpSample, 5, slot)
            );
            assert_eq!(
                key.draw(slot),
                fault_f64(7, 3, FaultLane::NtpSample, 5, slot)
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_range_rejected() {
        FleetRng::from_seed(0).range_u64(0);
    }

    #[test]
    fn fault_draws_are_stateless_and_keyed() {
        // Stateless: the same key always yields the same draw.
        let a = fault_f64(7, 3, FaultLane::DnsQuery, 5, 0);
        assert_eq!(a, fault_f64(7, 3, FaultLane::DnsQuery, 5, 0));
        assert!((0.0..1.0).contains(&a));
        // Every key coordinate matters.
        assert_ne!(a, fault_f64(8, 3, FaultLane::DnsQuery, 5, 0), "seed");
        assert_ne!(a, fault_f64(7, 4, FaultLane::DnsQuery, 5, 0), "client");
        assert_ne!(a, fault_f64(7, 3, FaultLane::NtpSample, 5, 0), "lane");
        assert_ne!(a, fault_f64(7, 3, FaultLane::DnsQuery, 6, 0), "round");
        assert_ne!(a, fault_f64(7, 3, FaultLane::DnsQuery, 5, 1), "slot");
        // Decorrelated from the client's main stream: the fault substream
        // seed never equals the main stream seed for the same client.
        assert_ne!(
            fault_seed(7, 3, FaultLane::DnsQuery, 0, 0),
            client_seed(7, 3)
        );
    }

    #[test]
    fn fault_draws_look_uniform_per_lane() {
        // A loss probability p must drop ~p of slots: check the empirical
        // mean of draws across many (round, slot) keys per lane.
        for lane in [
            FaultLane::DnsQuery,
            FaultLane::NtpSample,
            FaultLane::PanicSample,
            FaultLane::RetryJitter,
            FaultLane::NtsRekey,
            FaultLane::RoughtimeFetch,
        ] {
            let n = 4_000;
            let mean: f64 = (0..n)
                .map(|k| fault_f64(42, 17, lane, k / 16, k % 16))
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - 0.5).abs() < 0.03,
                "{lane:?} draw mean {mean} far from uniform"
            );
        }
    }
}

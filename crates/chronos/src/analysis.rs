//! The Chronos security bound, reproduced analytically (claim C6).
//!
//! Chronos' guarantee: an attacker controlling a fraction `f < 2/3` of the
//! pool must win the sampling lottery — draw at least `m − d` of its servers
//! into one m-sample so that *every* survivor of the trim is malicious — and
//! must do so over enough consecutive polls to push the clock past the
//! target shift without tripping the drift envelope. The probability per
//! poll is a hypergeometric tail; years of expected effort follow for small
//! `f`. At `f ≥ 2/3` the panic-mode trimmed mean is attacker-controlled
//! *deterministically*, which is why the paper's DNS attack aims exactly
//! there.

use netsim::rng::SimRng;
use netsim::time::SimDuration;

/// Natural log of `n!` (exact summation; n stays small here).
pub fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Returns `f64::NEG_INFINITY` when `k > n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Hypergeometric pmf: probability of drawing exactly `c` marked items in
/// `m` draws without replacement from `n` items of which `k` are marked.
pub fn hypergeom_pmf(n: u64, k: u64, m: u64, c: u64) -> f64 {
    if c > m || c > k || m - c > n - k {
        return 0.0;
    }
    (ln_choose(k, c) + ln_choose(n - k, m - c) - ln_choose(n, m)).exp()
}

/// Hypergeometric upper tail: `P[C >= c_min]`.
pub fn hypergeom_tail_ge(n: u64, k: u64, m: u64, c_min: u64) -> f64 {
    (c_min..=m.min(k)).map(|c| hypergeom_pmf(n, k, m, c)).sum()
}

/// Probability that one Chronos sample is fully attacker-controlled: at
/// least `m − d` of the `m` sampled servers are malicious, so every sample
/// surviving the d-trim is attacker-supplied.
pub fn prob_sample_controlled(n: usize, malicious: usize, m: usize, d: usize) -> f64 {
    if n == 0 || m == 0 {
        return 0.0;
    }
    let m = m.min(n);
    let need = m.saturating_sub(d) as u64;
    hypergeom_tail_ge(n as u64, malicious as u64, m as u64, need)
}

/// `true` when panic mode is deterministically attacker-controlled: the
/// honest servers all fit inside the bottom-third trim, i.e.
/// `n − malicious ≤ ⌊n/3⌋` (equivalently `malicious ≥ ⌈2n/3⌉`).
pub fn panic_controlled(n: usize, malicious: usize) -> bool {
    n > 0 && n - malicious <= n / 3
}

/// Minimum malicious servers for deterministic panic control.
pub fn min_attacker_for_panic_control(n: usize) -> usize {
    n - n / 3
}

/// The analytic security bound for a shift attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecurityBound {
    /// Probability one poll's sample is fully attacker-controlled.
    pub p_per_poll: f64,
    /// Consecutive controlled polls needed to exceed the shift target.
    pub consecutive_needed: u32,
    /// Expected polls until the attack succeeds.
    pub expected_polls: f64,
    /// The same in years at the given poll interval.
    pub expected_years: f64,
    /// Whether panic mode alone already hands over the clock.
    pub panic_is_controlled: bool,
}

/// Seconds per (Julian) year.
pub const SECONDS_PER_YEAR: f64 = 365.25 * 86_400.0;

/// Computes the expected effort to shift a Chronos client by more than
/// `shift_target` when the attacker holds `malicious` of `n` pool servers.
///
/// Each fully-controlled poll moves the clock by at most the envelope
/// (≈ `err`), so exceeding the target takes
/// `r = floor(target/err) + 1` consecutive controlled polls; the expected
/// waiting time for `r` consecutive successes of probability `p` is
/// `(1 − p^r) / ((1 − p) p^r)` trials.
///
/// When `malicious ≥ ⌈2n/3⌉`, panic mode is deterministically controlled
/// and the expected effort collapses to (roughly) one poll.
pub fn shift_attack_bound(
    n: usize,
    malicious: usize,
    m: usize,
    d: usize,
    shift_target: SimDuration,
    err: SimDuration,
    poll_interval: SimDuration,
) -> SecurityBound {
    let panic = panic_controlled(n, malicious);
    let p = prob_sample_controlled(n, malicious, m, d);
    let r = if err.is_zero() {
        u32::MAX
    } else {
        (shift_target.as_nanos() / err.as_nanos()) as u32 + 1
    };
    let expected_polls = if panic {
        1.0
    } else if p <= 0.0 || err.is_zero() {
        f64::INFINITY
    } else if p >= 1.0 {
        f64::from(r)
    } else {
        let p_r = p.powf(f64::from(r));
        (1.0 - p_r) / ((1.0 - p) * p_r)
    };
    let expected_years = expected_polls * poll_interval.as_secs_f64() / SECONDS_PER_YEAR;
    SecurityBound {
        p_per_poll: p,
        consecutive_needed: r,
        expected_polls,
        expected_years,
        panic_is_controlled: panic,
    }
}

/// One Monte-Carlo draw of the sampling lottery: does a random `m`-of-`n`
/// sample (first `malicious` indices attacker-owned) survive trimming `d`
/// with an attacker majority? The per-trial unit parallel sweeps fan out
/// over.
pub fn sample_is_controlled(
    n: usize,
    malicious: usize,
    m: usize,
    d: usize,
    rng: &mut SimRng,
) -> bool {
    if n == 0 || m == 0 {
        return false;
    }
    let m = m.min(n);
    let need = m.saturating_sub(d);
    let drawn = rng.sample_indices(n, m);
    drawn.iter().filter(|&&i| i < malicious).count() >= need
}

/// Monte-Carlo estimate of `prob_sample_controlled` (cross-check for the
/// closed form and the engine behind the E5 bench).
pub fn monte_carlo_sample_controlled(
    n: usize,
    malicious: usize,
    m: usize,
    d: usize,
    trials: u32,
    rng: &mut SimRng,
) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let hits = (0..trials)
        .filter(|_| sample_is_controlled(n, malicious, m, d, rng))
        .count();
    hits as f64 / f64::from(trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorial_and_choose() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn hypergeom_pmf_sums_to_one() {
        let (n, k, m) = (50u64, 20u64, 10u64);
        let total: f64 = (0..=m).map(|c| hypergeom_pmf(n, k, m, c)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn hypergeom_hand_case() {
        // Urn: 10 items, 4 marked, draw 3. P[exactly 2 marked] =
        // C(4,2)*C(6,1)/C(10,3) = 6*6/120 = 0.3.
        let p = hypergeom_pmf(10, 4, 3, 2);
        assert!((p - 0.3).abs() < 1e-12);
        let tail = hypergeom_tail_ge(10, 4, 3, 2);
        // + P[3 marked] = C(4,3)/C(10,3) = 4/120.
        assert!((tail - (0.3 + 4.0 / 120.0)).abs() < 1e-12);
    }

    #[test]
    fn sample_control_extremes() {
        assert_eq!(prob_sample_controlled(100, 0, 15, 5), 0.0);
        assert!((prob_sample_controlled(100, 100, 15, 5) - 1.0).abs() < 1e-9);
        assert_eq!(prob_sample_controlled(0, 0, 15, 5), 0.0);
    }

    #[test]
    fn sample_control_monotone_in_attacker_share() {
        let mut last = 0.0;
        for k in [10, 30, 50, 64, 80, 89] {
            let p = prob_sample_controlled(133, k, 15, 5);
            assert!(p >= last, "p({k}) = {p} not monotone");
            last = p;
        }
    }

    /// The paper's 2/3 threshold for panic mode, at the attack's exact
    /// numbers: 89 of 133 controls, 88 of 133 does not.
    #[test]
    fn panic_threshold_at_paper_numbers() {
        assert!(panic_controlled(133, 89));
        assert!(!panic_controlled(133, 88));
        assert_eq!(min_attacker_for_panic_control(133), 89);
        assert_eq!(min_attacker_for_panic_control(96), 64);
        assert!(panic_controlled(96, 64));
        assert!(!panic_controlled(96, 63));
    }

    #[test]
    fn bound_is_astronomical_for_small_fractions() {
        let b = shift_attack_bound(
            500,
            125, // 25 %
            15,
            5,
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
            SimDuration::from_hours(1),
        );
        assert!(!b.panic_is_controlled);
        assert_eq!(b.consecutive_needed, 2);
        assert!(
            b.expected_years > 20.0,
            "25% attacker needs {} years",
            b.expected_years
        );
    }

    #[test]
    fn bound_collapses_at_two_thirds() {
        let b = shift_attack_bound(
            133,
            89,
            15,
            5,
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
            SimDuration::from_hours(1),
        );
        assert!(b.panic_is_controlled);
        assert_eq!(b.expected_polls, 1.0);
        assert!(b.expected_years < 1e-3);
    }

    #[test]
    fn bound_years_decrease_with_attacker_share() {
        let years: Vec<f64> = [50, 100, 150, 200]
            .iter()
            .map(|&k| {
                shift_attack_bound(
                    500,
                    k,
                    15,
                    5,
                    SimDuration::from_millis(100),
                    SimDuration::from_millis(100),
                    SimDuration::from_hours(1),
                )
                .expected_years
            })
            .collect();
        for w in years.windows(2) {
            assert!(w[0] >= w[1], "years must fall as attacker grows: {years:?}");
        }
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let mut rng = SimRng::seed_from(42);
        let (n, k, m, d) = (133, 89, 15, 5);
        let exact = prob_sample_controlled(n, k, m, d);
        let mc = monte_carlo_sample_controlled(n, k, m, d, 20_000, &mut rng);
        assert!(
            (exact - mc).abs() < 0.02,
            "exact {exact} vs monte-carlo {mc}"
        );
    }

    #[test]
    fn zero_err_envelope_means_never() {
        let b = shift_attack_bound(
            100,
            10,
            15,
            5,
            SimDuration::from_millis(100),
            SimDuration::ZERO,
            SimDuration::from_hours(1),
        );
        assert!(b.expected_polls.is_infinite() || b.expected_years > 1e100);
    }
}

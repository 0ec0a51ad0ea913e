//! The analytic pool-capture model (paper §IV, claims C1/C3/C5).
//!
//! If the cache poisoning lands at (or before) round `p` of the 24 hourly
//! queries, the pool freezes at `benign_per_response · (p − 1)` benign
//! servers plus the attacker's `records`: the poisoned entry's TTL > 24 h
//! turns every later round into a cache hit. The attacker controls panic
//! mode iff its fraction reaches 2/3 — which pins the paper's "round 12"
//! deadline.

use chronos::analysis::panic_controlled;

/// Model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolModelParams {
    /// Total DNS rounds in pool generation (paper: 24).
    pub rounds: usize,
    /// Benign addresses contributed per un-poisoned round (paper: 4).
    pub benign_per_response: usize,
    /// Attacker addresses in the poisoned response (paper: 89).
    pub attacker_records: usize,
}

impl Default for PoolModelParams {
    fn default() -> Self {
        PoolModelParams {
            rounds: 24,
            benign_per_response: 4,
            attacker_records: 89,
        }
    }
}

/// Pool composition when poisoning lands at a given round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolCompositionRow {
    /// The 1-based round the poisoned response arrives.
    pub poison_round: usize,
    /// Benign servers gathered before it.
    pub benign: usize,
    /// Attacker servers injected.
    pub malicious: usize,
    /// Final pool size.
    pub total: usize,
    /// The attacker's fraction.
    pub fraction: f64,
    /// Whether the attacker deterministically controls panic mode (≥ 2/3).
    pub controls_panic: bool,
}

/// Composition after poisoning at `poison_round` (1-based).
///
/// Rounds `1..poison_round` contribute benign addresses; the poisoned round
/// and everything after contribute only the attacker's records (cache hits).
///
/// # Panics
///
/// Panics if `poison_round` is zero or beyond the configured rounds.
pub fn composition_after_poison(
    params: PoolModelParams,
    poison_round: usize,
) -> PoolCompositionRow {
    assert!(
        (1..=params.rounds).contains(&poison_round),
        "poison round {poison_round} outside 1..={}",
        params.rounds
    );
    let benign = params.benign_per_response * (poison_round - 1);
    let malicious = params.attacker_records;
    let total = benign + malicious;
    PoolCompositionRow {
        poison_round,
        benign,
        malicious,
        total,
        fraction: malicious as f64 / total as f64,
        controls_panic: panic_controlled(total, malicious),
    }
}

/// Composition of an attack-free generation.
pub fn benign_composition(params: PoolModelParams) -> PoolCompositionRow {
    let benign = params.benign_per_response * params.rounds;
    PoolCompositionRow {
        poison_round: 0,
        benign,
        malicious: 0,
        total: benign,
        fraction: 0.0,
        controls_panic: false,
    }
}

/// One row per possible poisoning round.
pub fn sweep(params: PoolModelParams) -> Vec<PoolCompositionRow> {
    (1..=params.rounds)
        .map(|p| composition_after_poison(params, p))
        .collect()
}

/// The latest round at which poisoning still wins (paper: 12).
pub fn latest_winning_round(params: PoolModelParams) -> Option<usize> {
    sweep(params)
        .into_iter()
        .filter(|r| r.controls_panic)
        .map(|r| r.poison_round)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_at_round_12() {
        let row = composition_after_poison(PoolModelParams::default(), 12);
        assert_eq!(row.benign, 44);
        assert_eq!(row.malicious, 89);
        assert_eq!(row.total, 133);
        assert!(row.fraction >= 2.0 / 3.0);
        assert!(row.controls_panic);
    }

    #[test]
    fn round_13_fails() {
        let row = composition_after_poison(PoolModelParams::default(), 13);
        assert_eq!(row.benign, 48);
        assert!(row.fraction < 2.0 / 3.0);
        assert!(!row.controls_panic);
    }

    /// The paper's headline: success iff poisoning lands by round 12.
    #[test]
    fn latest_winning_round_is_twelve() {
        assert_eq!(latest_winning_round(PoolModelParams::default()), Some(12));
    }

    #[test]
    fn every_round_up_to_twelve_wins() {
        for row in sweep(PoolModelParams::default()) {
            assert_eq!(row.controls_panic, row.poison_round <= 12, "{row:?}");
        }
    }

    #[test]
    fn benign_generation_reaches_96() {
        let row = benign_composition(PoolModelParams::default());
        assert_eq!(row.total, 96);
        assert_eq!(row.fraction, 0.0);
    }

    #[test]
    fn fraction_monotonically_decreases_with_later_poisoning() {
        let rows = sweep(PoolModelParams::default());
        for w in rows.windows(2) {
            assert!(w[0].fraction > w[1].fraction);
        }
    }

    /// §V mitigation (a) in model form: capped at 4 records the attacker
    /// never reaches 2/3 no matter the round.
    #[test]
    fn capped_attacker_never_wins() {
        let capped = PoolModelParams {
            attacker_records: 4,
            ..PoolModelParams::default()
        };
        assert_eq!(latest_winning_round(capped), Some(1));
        // Round 1 with 4-vs-0 is degenerate "control" of an all-attacker
        // pool; from round 2 on the attacker can never win.
        for row in sweep(capped).iter().skip(1) {
            assert!(!row.controls_panic);
        }
    }

    #[test]
    fn bigger_responses_extend_the_deadline() {
        // A hypothetical 120-record response wins later than 89.
        let big = PoolModelParams {
            attacker_records: 120,
            ..PoolModelParams::default()
        };
        assert!(latest_winning_round(big).unwrap() > 12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_round_rejected() {
        composition_after_poison(PoolModelParams::default(), 0);
    }
}

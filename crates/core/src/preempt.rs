//! Opportunistic preemption and the Poisson sampler behind the engine's
//! per-worker fault processes.
//!
//! §IV of the paper: workers run on an opportunistic campus pool, and each
//! run sees "the preemption of up to 1 % of workers", which the manager
//! observes as worker failures and compensates for by replicating data and
//! re-running tasks. The stack presets carry that pool as a
//! [`vine_chaos::Fault::Preemption`] entry at [`CAMPUS`]; the engine draws
//! every worker's preemption and bitrot arrivals with [`next_arrival`].

use rand::Rng;
use vine_simcore::{SimDur, SimTime};

/// The campus pool's per-worker preemption rate, events/second. Each
/// worker is preempted as an independent Poisson process, calibrated so
/// the expected fraction of workers preempted over an hour-long run,
/// `1 - e^{-λ·3600 s}`, is the paper's ~1 %.
pub(crate) const CAMPUS: f64 = 0.01 / 3600.0;

/// The next arrival after `now` of a Poisson process at `rate_per_sec`,
/// or `None` (without drawing) when the rate is not positive.
pub(crate) fn next_arrival<R: Rng + ?Sized>(
    now: SimTime,
    rate_per_sec: f64,
    rng: &mut R,
) -> Option<SimTime> {
    if rate_per_sec <= 0.0 {
        return None;
    }
    // Exponential inter-arrival: -ln(U)/λ with U ∈ (0, 1]. The uniform
    // `gen::<f64>()` lies in [0, 1), so `1 - U` excludes the zero that
    // would make `ln` blow up while keeping 1 reachable (ln(1) = 0 is a
    // legitimate immediate arrival).
    let u: f64 = 1.0 - rng.gen::<f64>();
    let dt = -u.ln() / rate_per_sec;
    Some(now + SimDur::from_secs_f64(dt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Fraction of `n` workers alive at zero whose first preemption at
    /// [`CAMPUS`] lands within the hour, and the count behind it.
    fn campus_hour_fraction(seed: u64, n: usize) -> (f64, usize) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let horizon = SimTime::from_secs(3600);
        let preempted = (0..n)
            .filter(|_| next_arrival(SimTime::ZERO, CAMPUS, &mut rng).unwrap() <= horizon)
            .count();
        (preempted as f64 / n as f64, preempted)
    }

    #[test]
    fn disabled_model_never_fires() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(next_arrival(SimTime::ZERO, 0.0, &mut rng), None);
    }

    #[test]
    fn calibration_matches_expected_fraction() {
        let f = 1.0 - (-CAMPUS * 3600.0).exp();
        // 1 - e^{-0.01} ≈ 0.00995.
        assert!((f - 0.00995).abs() < 1e-4, "{f}");
    }

    #[test]
    fn samples_are_after_from() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let from = SimTime::from_secs(100);
        for _ in 0..100 {
            let t = next_arrival(from, CAMPUS, &mut rng).unwrap();
            assert!(t > from);
        }
    }

    #[test]
    fn empirical_fraction_close_to_one_percent() {
        let (frac, _) = campus_hour_fraction(7, 20_000);
        assert!((frac - 0.01).abs() < 0.003, "fraction {frac}");
    }

    #[test]
    fn unit_draw_stays_in_half_open_interval() {
        // The stub RNG's `gen::<f64>()` is uniform on [0, 1), so
        // `1 - U ∈ (0, 1]`: `ln` is always finite and `dt` is never the
        // absurd `-ln(MIN_POSITIVE)` ≈ 708/λ tail of sampling
        // `[MIN_POSITIVE, 1)`.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let dt = next_arrival(SimTime::ZERO, 1.0, &mut rng)
                .unwrap()
                .as_secs_f64();
            assert!(dt.is_finite());
            assert!(dt < 40.0, "exp(1) draw of {dt}s is implausibly deep");
        }
    }

    #[test]
    fn stub_rng_calibration_is_pinned() {
        // Under the deterministic stub RNG, the fraction of 50k sampled
        // workers whose first campus preemption lands inside the hour
        // must sit within Monte-Carlo noise of 1 - e^{-0.01} ≈ 0.995 %.
        // Pinning the exact count also locks the sampling scheme itself:
        // any change to the draw (such as sampling `[MIN_POSITIVE, 1)`)
        // shifts every sample and breaks this value.
        let (frac, preempted) = campus_hour_fraction(0xCA11_B4A7, 50_000);
        assert!((frac - 0.00995).abs() < 0.002, "fraction {frac}");
        assert_eq!(preempted, 497, "stub-RNG draw sequence changed");
    }

    #[test]
    fn higher_rate_means_earlier_preemption_on_average() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut avg = |rate: f64| {
            (0..2000)
                .map(|_| {
                    next_arrival(SimTime::ZERO, rate, &mut rng)
                        .unwrap()
                        .as_secs_f64()
                })
                .sum::<f64>()
                / 2000.0
        };
        let fast = avg(0.5 / 3600.0);
        let slow = avg(CAMPUS);
        assert!(fast < slow / 10.0);
    }
}

//! Distributions for workload modeling.
//!
//! The paper's DV3 task-duration histogram (Fig 8) is heavy-tailed with the
//! bulk between 1 s and 10 s — well described by a lognormal. Preemption
//! inter-arrivals are exponential; heterogeneity jitter is (truncated)
//! normal. [`Dist`] packages the handful of shapes the workload and cluster
//! models need behind one samplable enum.

use rand::Rng;
use rand_distr::{Distribution, Exp, LogNormal, Normal};

use crate::time::SimDur;

/// A non-negative scalar distribution (values in seconds, bytes, etc.).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    /// Always the same value.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with the given mean.
    Exponential { mean: f64 },
    /// Lognormal parameterized by its *median* and the log-space sigma.
    /// (`median = exp(mu)`, so `mu = ln(median)`.)
    LogNormal { median: f64, sigma: f64 },
    /// Normal truncated below at `min` (re-clamped, not re-drawn).
    Normal { mean: f64, sd: f64, min: f64 },
}

impl Dist {
    /// Draw one sample. All variants return non-negative values.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => {
                if hi > lo {
                    rng.gen_range(lo..hi)
                } else {
                    lo
                }
            }
            // Non-positive or non-finite parameters give the variant's
            // fallback value and draw nothing.
            Dist::Exponential { mean } => match Exp::new(1.0 / mean) {
                Ok(exp) if mean > 0.0 && mean.is_finite() => exp.sample(rng),
                _ => 0.0,
            },
            Dist::LogNormal { median, sigma } => {
                let valid = median > 0.0 && median.is_finite() && sigma.is_finite();
                match LogNormal::new(median.ln(), sigma.max(0.0)) {
                    Ok(ln) if valid => ln.sample(rng),
                    _ => 0.0,
                }
            }
            Dist::Normal { mean, sd, min } => {
                let valid = sd > 0.0 && sd.is_finite() && mean.is_finite();
                let v = match Normal::new(mean, sd) {
                    Ok(normal) if valid => normal.sample(rng),
                    _ => mean,
                };
                v.max(min)
            }
        };
        x.max(0.0)
    }

    /// Draw one sample, interpreted as seconds, as a [`SimDur`].
    pub fn sample_dur<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDur {
        SimDur::from_secs_f64(self.sample(rng))
    }

    /// The distribution mean (exact, not sampled).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v.max(0.0),
            Dist::Uniform { lo, hi } => ((lo + hi) / 2.0).max(0.0),
            Dist::Exponential { mean } => mean.max(0.0),
            Dist::LogNormal { median, sigma } => {
                if median <= 0.0 {
                    0.0
                } else {
                    (median.ln() + sigma * sigma / 2.0).exp()
                }
            }
            Dist::Normal { mean, min, .. } => mean.max(min).max(0.0),
        }
    }

    /// Scale the distribution by a non-negative factor `k`: every sample is
    /// distributed like `k * X`. Used to "artificially scale the execution
    /// time of a single function" for the Fig 10 complexity sweep.
    pub fn scaled(&self, k: f64) -> Dist {
        let k = k.max(0.0);
        match *self {
            Dist::Constant(v) => Dist::Constant(v * k),
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo * k,
                hi: hi * k,
            },
            Dist::Exponential { mean } => Dist::Exponential { mean: mean * k },
            Dist::LogNormal { median, sigma } => Dist::LogNormal {
                median: median * k,
                sigma,
            },
            Dist::Normal { mean, sd, min } => Dist::Normal {
                mean: mean * k,
                sd: sd * k,
                min: min * k,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn constant_is_constant() {
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(Dist::Constant(3.5).sample(&mut r), 3.5);
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = rng();
        let d = Dist::Uniform { lo: 2.0, hi: 5.0 };
        for _ in 0..1000 {
            let x = d.sample(&mut r);
            assert!((2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let mut r = rng();
        assert_eq!(Dist::Uniform { lo: 4.0, hi: 4.0 }.sample(&mut r), 4.0);
    }

    #[test]
    fn exponential_mean_approx() {
        let mut r = rng();
        let d = Dist::Exponential { mean: 10.0 };
        let n = 20_000;
        let s: f64 = (0..n).map(|_| d.sample(&mut r)).sum();
        let m = s / n as f64;
        assert!((m - 10.0).abs() < 0.5, "sample mean {m}");
    }

    #[test]
    fn lognormal_median_approx() {
        let mut r = rng();
        let d = Dist::LogNormal {
            median: 4.0,
            sigma: 0.8,
        };
        let mut xs: Vec<f64> = (0..20_001).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med - 4.0).abs() < 0.3, "sample median {med}");
    }

    #[test]
    fn normal_clamps_at_min() {
        let mut r = rng();
        let d = Dist::Normal {
            mean: 0.0,
            sd: 1.0,
            min: 0.25,
        };
        for _ in 0..1000 {
            assert!(d.sample(&mut r) >= 0.25);
        }
    }

    #[test]
    fn all_samples_non_negative() {
        let mut r = rng();
        let dists = [
            Dist::Constant(-1.0),
            Dist::Exponential { mean: -3.0 },
            Dist::LogNormal {
                median: -2.0,
                sigma: 1.0,
            },
            Dist::Normal {
                mean: -10.0,
                sd: 0.1,
                min: -20.0,
            },
        ];
        for d in dists {
            for _ in 0..100 {
                assert!(d.sample(&mut r) >= 0.0, "{d:?}");
            }
        }
    }

    #[test]
    fn invalid_parameters_fall_back_without_a_draw() {
        use rand::Rng;
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let normal = |mean, sd| Dist::Normal { mean, sd, min: 0.5 };
        let lognormal = |median, sigma| Dist::LogNormal { median, sigma };
        let cases = [
            (Dist::Exponential { mean: nan }, 0.0),
            (Dist::Exponential { mean: inf }, 0.0),
            (lognormal(nan, 1.0), 0.0),
            (lognormal(inf, 1.0), 0.0),
            (lognormal(2.0, nan), 0.0),
            (lognormal(2.0, inf), 0.0),
            (normal(3.0, nan), 3.0),
            (normal(3.0, inf), 3.0),
            (normal(nan, 1.0), 0.5),
            (normal(-inf, 1.0), 0.5),
        ];
        for (d, fallback) in cases {
            let mut r = rng();
            assert_eq!(d.sample(&mut r), fallback, "{d:?}");
            assert_eq!(r.gen::<u64>(), rng().gen::<u64>(), "{d:?} drew");
        }
    }

    #[test]
    fn means_are_exact() {
        assert_eq!(Dist::Constant(2.0).mean(), 2.0);
        assert_eq!(Dist::Uniform { lo: 1.0, hi: 3.0 }.mean(), 2.0);
        assert_eq!(Dist::Exponential { mean: 7.0 }.mean(), 7.0);
        let ln = Dist::LogNormal {
            median: 4.0,
            sigma: 0.5,
        };
        assert!((ln.mean() - 4.0 * (0.125f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn scaled_scales_samples_statistically() {
        let d = Dist::LogNormal {
            median: 2.0,
            sigma: 0.5,
        };
        let s = d.scaled(8.0);
        assert!((s.mean() - 8.0 * d.mean()).abs() < 1e-9);
    }

    #[test]
    fn sample_dur_converts_seconds() {
        let mut r = rng();
        let d = Dist::Constant(1.5);
        assert_eq!(d.sample_dur(&mut r), SimDur::from_millis(1500));
    }
}

//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a composable list of typed fault families plus a
//! dedicated chaos seed. The plan itself is pure data: the engine compiles
//! it into scheduled simulator events whose randomness comes exclusively
//! from indexed RNG streams derived from [`FaultPlan::chaos_seed`], so two
//! runs with the same (workload, plan, seed) are bit-identical, and
//! changing the chaos seed perturbs *only* the injected faults — task
//! durations, batch arrivals, and every other stochastic input keep their
//! draws.
//!
//! Fault families (§IV of the paper motivates the first; the rest model
//! the failure classes opportunistic analysis facilities actually see):
//!
//! * [`Fault::Preemption`] — per-worker Poisson worker loss, the engine's
//!   only source of in-run worker death. The stack presets carry the
//!   paper's campus pool (~1 % of workers per hour-long run) as one such
//!   entry, seeded with the run seed.
//! * [`Fault::Straggler`] — during a window, a deterministic fraction of
//!   workers computes slower by `slow_factor` and their links degrade by
//!   the same factor.
//! * [`Fault::TaskFailure`] — each task attempt fails with probability
//!   `prob`, classified by an [`ExitClass`].
//! * [`Fault::LinkDegrade`] — during a window, a fraction of workers has
//!   its fabric bandwidth multiplied by `factor`; `factor == 0` is a full
//!   partition (flows stall and resume, they are not lost).
//! * [`Fault::CacheCorruption`] — per-worker Poisson corruption of one
//!   resident cache entry; detected as a checksum mismatch on the next
//!   read and repaired through lineage like any lost file.
//!
//! Plans are built in code, from the named [presets](FaultPlan::preset),
//! or parsed from a compact spec string (see [`FaultPlan::parse`]).

#![deny(unsafe_code)]

use vine_simcore::{SimDur, SimTime};

/// How a transiently failed task attempt presented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitClass {
    /// Non-zero exit / signal: the generic retryable crash.
    Crash,
    /// Killed by the out-of-memory reaper.
    Oom,
    /// I/O error reading inputs or writing outputs.
    IoError,
}

impl ExitClass {
    /// Stable lowercase name (spec strings, CSV columns).
    pub fn name(self) -> &'static str {
        match self {
            ExitClass::Crash => "crash",
            ExitClass::Oom => "oom",
            ExitClass::IoError => "io",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "crash" => Ok(ExitClass::Crash),
            "oom" => Ok(ExitClass::Oom),
            "io" => Ok(ExitClass::IoError),
            other => Err(format!("unknown exit class `{other}` (crash|oom|io)")),
        }
    }
}

/// One fault family instance inside a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Per-worker Poisson preemption at `rate_per_sec` events/second.
    Preemption { rate_per_sec: f64 },
    /// A slowdown window: `fraction` of workers (chosen deterministically
    /// from the chaos seed) computes `slow_factor`× slower between
    /// `start` and `start + duration`, and their links slow by the same
    /// factor. Compute scaling applies to attempts *started* inside the
    /// window; link scaling applies to in-flight transfers immediately.
    Straggler {
        start: SimTime,
        duration: SimDur,
        slow_factor: f64,
        fraction: f64,
    },
    /// Every task attempt fails with probability `prob` (drawn per
    /// attempt from an indexed stream, realized when the attempt ends).
    TaskFailure { prob: f64, exit: ExitClass },
    /// A bandwidth-degradation window: `fraction` of workers has both
    /// link directions multiplied by `factor` (0 = full partition).
    LinkDegrade {
        start: SimTime,
        duration: SimDur,
        factor: f64,
        fraction: f64,
    },
    /// Per-worker Poisson corruption of one unpinned resident cache
    /// entry at `rate_per_sec`.
    CacheCorruption { rate_per_sec: f64 },
}

impl Fault {
    /// Stable family name (spec strings, lint messages, CSV columns).
    pub fn family(&self) -> &'static str {
        match self {
            Fault::Preemption { .. } => "preempt",
            Fault::Straggler { .. } => "straggler",
            Fault::TaskFailure { .. } => "taskfail",
            Fault::LinkDegrade { .. } => "link",
            Fault::CacheCorruption { .. } => "bitrot",
        }
    }

    /// Bounds-check the family's parameters.
    pub fn validate(&self) -> Result<(), String> {
        let finite_nonneg = |v: f64, what: &str| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(format!("{}: {what} must be finite and >= 0", self.family()))
            }
        };
        let fraction01 = |v: f64| {
            if v.is_finite() && (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{}: fraction must be in [0, 1]", self.family()))
            }
        };
        match *self {
            Fault::Preemption { rate_per_sec } => finite_nonneg(rate_per_sec, "rate"),
            Fault::Straggler {
                slow_factor,
                fraction,
                ..
            } => {
                if !slow_factor.is_finite() || slow_factor < 1.0 {
                    return Err("straggler: slow factor must be >= 1".into());
                }
                fraction01(fraction)
            }
            Fault::TaskFailure { prob, .. } => {
                if prob.is_finite() && (0.0..=1.0).contains(&prob) {
                    Ok(())
                } else {
                    Err("taskfail: prob must be in [0, 1]".into())
                }
            }
            Fault::LinkDegrade {
                factor, fraction, ..
            } => {
                if !factor.is_finite() || !(0.0..=1.0).contains(&factor) {
                    return Err("link: factor must be in [0, 1]".into());
                }
                fraction01(fraction)
            }
            Fault::CacheCorruption { rate_per_sec } => finite_nonneg(rate_per_sec, "rate"),
        }
    }
}

/// A seeded, composable fault-injection plan.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the chaos RNG streams; independent of the workload seed.
    pub chaos_seed: u64,
    /// The faults, in declaration order (order never affects draws: every
    /// stochastic choice uses an indexed stream keyed by family + entity).
    pub faults: Vec<Fault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults at all, preemption included.
    pub fn none() -> Self {
        FaultPlan {
            chaos_seed: 0,
            faults: Vec::new(),
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Builder: replace the chaos seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.chaos_seed = seed;
        self
    }

    /// Builder: append a fault.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The preemption rate the plan requests, if any (last entry wins,
    /// matching spec-string override semantics).
    pub fn preemption_rate(&self) -> Option<f64> {
        self.faults.iter().rev().find_map(|f| match f {
            Fault::Preemption { rate_per_sec } => Some(*rate_per_sec),
            _ => None,
        })
    }

    /// Combined per-attempt failure probability and the exit class of the
    /// dominant (highest-probability) entry. Independent entries compose
    /// as `1 - Π(1 - pᵢ)`.
    pub fn task_failure(&self) -> Option<(f64, ExitClass)> {
        let mut survive = 1.0f64;
        let mut dominant: Option<(f64, ExitClass)> = None;
        for f in &self.faults {
            if let Fault::TaskFailure { prob, exit } = *f {
                survive *= 1.0 - prob;
                if dominant.is_none_or(|(p, _)| prob > p) {
                    dominant = Some((prob, exit));
                }
            }
        }
        dominant.map(|(_, exit)| (1.0 - survive, exit))
    }

    /// Summed per-worker cache-corruption rate.
    pub fn corruption_rate(&self) -> f64 {
        self.faults
            .iter()
            .map(|f| match f {
                Fault::CacheCorruption { rate_per_sec } => *rate_per_sec,
                _ => 0.0,
            })
            .sum()
    }

    /// True when the plan carries a straggler window.
    pub fn has_stragglers(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::Straggler { .. }))
    }

    /// Bounds-check every fault.
    pub fn validate(&self) -> Result<(), String> {
        for f in &self.faults {
            f.validate()?;
        }
        Ok(())
    }

    /// The names of the built-in presets, in canonical order.
    pub const PRESETS: [&'static str; 5] = ["campus", "storm", "stragglers", "flaky-net", "bitrot"];

    /// A named preset, or `None` for an unknown name.
    ///
    /// Rates are tuned so every preset but `storm` *differentiates* the
    /// recovery policies on a short DV3-Small run (the bench crate's
    /// `tests/chaos_spread.rs` asserts a ≥5 % makespan spread for each;
    /// fig-chaos itself only requires speculation to beat `default` on
    /// `stragglers`): faults must actually fire inside a ~1-minute
    /// window and must surface as attempt-level failures that draw on
    /// the retry budget, or every policy ladder rung behaves
    /// identically.
    ///
    /// * `campus` — the opportunistic pool: a preemption every
    ///   worker-minute or so plus the crash-level failures evicted jobs
    ///   suffer.
    /// * `storm` — everything at once: brisk preemption, a slowdown
    ///   window, transient crashes, a link-degradation window, bitrot.
    /// * `stragglers` — a long window where 30 % of workers run 6× slow.
    /// * `flaky-net` — a deep bandwidth collapse then a full partition,
    ///   plus the transfer I/O errors a flaky network inflicts on
    ///   attempts.
    /// * `bitrot` — steady cache corruption (detected on cache-hit
    ///   re-reads) plus the mid-attempt I/O failures corrupt reads
    ///   surface.
    pub fn preset(name: &str) -> Option<FaultPlan> {
        let plan = match name {
            "campus" => FaultPlan::none()
                .with(Fault::Preemption {
                    rate_per_sec: 1.0 / 60.0,
                })
                .with(Fault::TaskFailure {
                    prob: 0.06,
                    exit: ExitClass::Crash,
                }),
            "storm" => FaultPlan::none()
                .with(Fault::Preemption {
                    rate_per_sec: 1.0 / 600.0,
                })
                .with(Fault::Straggler {
                    start: SimTime::from_secs(30),
                    duration: SimDur::from_secs(240),
                    slow_factor: 4.0,
                    fraction: 0.25,
                })
                .with(Fault::TaskFailure {
                    prob: 0.02,
                    exit: ExitClass::Crash,
                })
                .with(Fault::LinkDegrade {
                    start: SimTime::from_secs(60),
                    duration: SimDur::from_secs(120),
                    factor: 0.1,
                    fraction: 0.5,
                })
                .with(Fault::CacheCorruption {
                    rate_per_sec: 1.0 / 300.0,
                }),
            "stragglers" => FaultPlan::none().with(Fault::Straggler {
                start: SimTime::from_secs(0),
                duration: SimDur::from_secs(3600),
                slow_factor: 6.0,
                fraction: 0.3,
            }),
            "flaky-net" => FaultPlan::none()
                .with(Fault::LinkDegrade {
                    start: SimTime::from_secs(10),
                    duration: SimDur::from_secs(90),
                    factor: 0.05,
                    fraction: 0.5,
                })
                .with(Fault::LinkDegrade {
                    start: SimTime::from_secs(30),
                    duration: SimDur::from_secs(45),
                    factor: 0.0,
                    fraction: 0.25,
                })
                .with(Fault::TaskFailure {
                    prob: 0.08,
                    exit: ExitClass::IoError,
                }),
            "bitrot" => FaultPlan::none()
                .with(Fault::CacheCorruption { rate_per_sec: 0.1 })
                .with(Fault::TaskFailure {
                    prob: 0.08,
                    exit: ExitClass::IoError,
                }),
            _ => return None,
        };
        Some(plan)
    }

    /// Parse a preset name or a spec string (and validate the result).
    ///
    /// The grammar is `clause(;clause)*` where each clause is a preset
    /// name (its faults are appended), `seed=N`, or one of:
    ///
    /// ```text
    /// preempt:rate=R
    /// straggler:start=S,dur=D,slow=F,frac=P
    /// taskfail:prob=P[,exit=crash|oom|io]
    /// link:start=S,dur=D,factor=F,frac=P
    /// bitrot:rate=R
    /// ```
    ///
    /// Times are seconds (fractions allowed). Examples: `stragglers`,
    /// `campus;seed=7`, `taskfail:prob=0.05,exit=oom;bitrot:rate=0.01`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(preset) = Self::preset(clause) {
                plan.faults.extend(preset.faults);
                continue;
            }
            if let Some(v) = clause.strip_prefix("seed=") {
                plan.chaos_seed = v.parse().map_err(|_| format!("seed: `{v}` is not a u64"))?;
                continue;
            }
            let (family, args) = match clause.split_once(':') {
                Some((f, a)) => (f, a),
                None => {
                    return Err(format!(
                        "unknown clause `{clause}` (not a preset, seed=N, or family:args)"
                    ))
                }
            };
            let kv = parse_kv(family, args)?;
            let get = |key: &str| -> Result<f64, String> {
                kv.iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("{family}: missing `{key}`"))
            };
            let fault = match family {
                "preempt" => Fault::Preemption {
                    rate_per_sec: get("rate")?,
                },
                "straggler" => Fault::Straggler {
                    start: SimTime::from_secs_f64(get("start")?),
                    duration: SimDur::from_secs_f64(get("dur")?),
                    slow_factor: get("slow")?,
                    fraction: get("frac")?,
                },
                "taskfail" => {
                    let exit = match args.split(',').find_map(|p| p.trim().strip_prefix("exit=")) {
                        Some(s) => ExitClass::parse(s)?,
                        None => ExitClass::Crash,
                    };
                    Fault::TaskFailure {
                        prob: get("prob")?,
                        exit,
                    }
                }
                "link" => Fault::LinkDegrade {
                    start: SimTime::from_secs_f64(get("start")?),
                    duration: SimDur::from_secs_f64(get("dur")?),
                    factor: get("factor")?,
                    fraction: get("frac")?,
                },
                "bitrot" => Fault::CacheCorruption {
                    rate_per_sec: get("rate")?,
                },
                other => {
                    return Err(format!(
                        "unknown fault family `{other}` (preempt|straggler|taskfail|link|bitrot)"
                    ))
                }
            };
            plan.faults.push(fault);
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Canonical one-line description (logs, CSV provenance columns).
    pub fn describe(&self) -> String {
        if self.is_empty() {
            return "none".to_string();
        }
        let parts: Vec<String> = self
            .faults
            .iter()
            .map(|f| match *f {
                Fault::Preemption { rate_per_sec } => format!("preempt:rate={rate_per_sec}"),
                Fault::Straggler {
                    start,
                    duration,
                    slow_factor,
                    fraction,
                } => format!(
                    "straggler:start={},dur={},slow={slow_factor},frac={fraction}",
                    start.as_secs_f64(),
                    duration.as_secs_f64()
                ),
                Fault::TaskFailure { prob, exit } => {
                    format!("taskfail:prob={prob},exit={}", exit.name())
                }
                Fault::LinkDegrade {
                    start,
                    duration,
                    factor,
                    fraction,
                } => format!(
                    "link:start={},dur={},factor={factor},frac={fraction}",
                    start.as_secs_f64(),
                    duration.as_secs_f64()
                ),
                Fault::CacheCorruption { rate_per_sec } => {
                    format!("bitrot:rate={rate_per_sec}")
                }
            })
            .collect();
        format!("seed={};{}", self.chaos_seed, parts.join(";"))
    }
}

/// Split `k=v,k=v` args, parsing numeric values (non-numeric pairs such
/// as `exit=crash` are skipped here and handled by the caller).
fn parse_kv(family: &str, args: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for pair in args.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("{family}: `{pair}` is not key=value"))?;
        if k == "exit" {
            continue;
        }
        let num: f64 = v
            .parse()
            .map_err(|_| format!("{family}: `{v}` is not a number for `{k}`"))?;
        out.push((k.to_string(), num));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.preemption_rate(), None);
        assert_eq!(p.task_failure(), None);
        assert_eq!(p.corruption_rate(), 0.0);
        assert!(!p.has_stragglers());
        assert_eq!(p.describe(), "none");
    }

    #[test]
    fn all_presets_parse_and_validate() {
        for name in FaultPlan::PRESETS {
            let p = FaultPlan::preset(name).unwrap();
            assert!(!p.is_empty(), "{name} is empty");
            p.validate().unwrap();
            // Presets round-trip through parse().
            assert_eq!(FaultPlan::parse(name).unwrap().faults, p.faults);
        }
        assert!(FaultPlan::preset("nope").is_none());
    }

    #[test]
    fn spec_string_round_trips_through_describe() {
        let p = FaultPlan::parse(
            "seed=9;preempt:rate=0.001;straggler:start=10,dur=60,slow=4,frac=0.5;\
             taskfail:prob=0.05,exit=oom;link:start=5,dur=30,factor=0,frac=0.25;\
             bitrot:rate=0.02",
        )
        .unwrap();
        assert_eq!(p.chaos_seed, 9);
        assert_eq!(p.faults.len(), 5);
        assert_eq!(p.preemption_rate(), Some(0.001));
        let (prob, exit) = p.task_failure().unwrap();
        assert!((prob - 0.05).abs() < 1e-12);
        assert_eq!(exit, ExitClass::Oom);
        assert_eq!(p.corruption_rate(), 0.02);
        let reparsed = FaultPlan::parse(&p.describe()).unwrap();
        assert_eq!(reparsed, p);
    }

    #[test]
    fn preset_composes_with_overrides() {
        let p = FaultPlan::parse("campus;seed=1337;bitrot:rate=0.5").unwrap();
        assert_eq!(p.chaos_seed, 1337);
        assert!(p.preemption_rate().is_some());
        assert_eq!(p.corruption_rate(), 0.5);
    }

    #[test]
    fn task_failure_probabilities_compose_independently() {
        let p = FaultPlan::none()
            .with(Fault::TaskFailure {
                prob: 0.5,
                exit: ExitClass::Crash,
            })
            .with(Fault::TaskFailure {
                prob: 0.5,
                exit: ExitClass::IoError,
            });
        let (prob, exit) = p.task_failure().unwrap();
        assert!((prob - 0.75).abs() < 1e-12);
        // Dominant class: first of the equally-probable entries.
        assert_eq!(exit, ExitClass::Crash);
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        for bad in [
            "preempt:rate=-1",
            "taskfail:prob=1.5",
            "straggler:start=0,dur=1,slow=0.5,frac=0.1",
            "straggler:start=0,dur=1,slow=2,frac=1.5",
            "link:start=0,dur=1,factor=2,frac=0.5",
            "bitrot:rate=-0.1",
            "taskfail:prob=0.1,exit=meteor",
            "gremlins:count=3",
            "seed=banana",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }
}

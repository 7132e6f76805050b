//! Seeded multi-tenant load generation.
//!
//! An open-loop model of an analysis facility's day: each tenant submits
//! a Poisson stream of workloads drawn from a rotation of Table II rows
//! (scaled down so the inner simulations stay fast). With probability
//! `resubmit_prob` a tenant resubmits its previous analysis verbatim —
//! the fully-warm case — and with probability `edit_prob` it resubmits
//! with a bumped [`vine_analysis::WorkloadSpec::with_edit_generation`]:
//! same process stage (warm), renamed reductions (cold), the shape of an
//! interactive "tweak the cuts" iteration.
//!
//! Every draw comes from a named [`RngHub`] stream indexed by tenant, so
//! one tenant's schedule is independent of how many others exist, and
//! identical seeds yield identical schedules.

use vine_analysis::WorkloadSpec;
use vine_simcore::{Dist, RngHub, SimTime};

use crate::facility::Submission;

/// Knobs for one generated schedule.
#[derive(Clone, Debug)]
pub struct LoadGen {
    /// Mean seconds between one tenant's consecutive submissions.
    pub mean_interarrival_s: f64,
    /// Submissions each tenant makes.
    pub submissions_per_tenant: usize,
    /// Scale-down factor applied to every workload (see
    /// [`WorkloadSpec::scaled_down`]).
    pub scale_down: usize,
    /// Probability a submission is an identical resubmit of the
    /// tenant's previous one (full warm hit).
    pub resubmit_prob: f64,
    /// Probability a submission is the previous one with an edited
    /// selection (process stage warm, reductions re-run).
    pub edit_prob: f64,
    /// Rotate each tenant's *first* fresh workload by tenant index, so a
    /// large population submits a mix from the start instead of everyone
    /// opening with the same spec. Off (the default), every tenant's
    /// first fresh submission is the rotation head — maximal
    /// cross-tenant cache sharing, the historical behaviour.
    pub first_spec_by_tenant: bool,
}

impl Default for LoadGen {
    fn default() -> Self {
        LoadGen {
            mean_interarrival_s: 120.0,
            submissions_per_tenant: 6,
            scale_down: 40,
            resubmit_prob: 0.3,
            edit_prob: 0.2,
            first_spec_by_tenant: false,
        }
    }
}

impl LoadGen {
    /// The workload rotation fresh submissions cycle through. `tenant`
    /// offsets the rotation when [`LoadGen::first_spec_by_tenant`] is
    /// set; `i` is the tenant's fresh-submission ordinal.
    fn rotation(&self, tenant: usize, i: usize) -> WorkloadSpec {
        let specs = [
            WorkloadSpec::dv3_small(),
            WorkloadSpec::dv3_medium(),
            WorkloadSpec::rs_triphoton(),
        ];
        let base = if self.first_spec_by_tenant { tenant } else { 0 };
        let spec = specs[(base + i) % specs.len()].clone();
        spec.scaled_down(self.scale_down)
    }

    /// Generate the full schedule for `n_tenants` tenants, sorted by
    /// `(arrival, tenant, index)`.
    pub fn generate(&self, n_tenants: usize, seed: u64) -> Vec<Submission> {
        let hub = RngHub::new(seed);
        let interarrival = Dist::Exponential {
            mean: self.mean_interarrival_s,
        };
        let unit = Dist::Uniform { lo: 0.0, hi: 1.0 };
        let mut out: Vec<(SimTime, usize, usize, Submission)> = Vec::new();
        for tenant in 0..n_tenants {
            let mut arrivals = hub.indexed_stream("loadgen.arrivals", tenant as u64);
            let mut choices = hub.indexed_stream("loadgen.choices", tenant as u64);
            let mut at = SimTime::ZERO;
            let mut last: Option<WorkloadSpec> = None;
            let mut generation = 0u32;
            let mut fresh_count = 0usize;
            for i in 0..self.submissions_per_tenant {
                at += interarrival.sample_dur(&mut arrivals);
                let u = unit.sample(&mut choices);
                let (spec, kind) = match &last {
                    Some(prev) if u < self.resubmit_prob => (prev.clone(), "resubmit"),
                    Some(prev) if u < self.resubmit_prob + self.edit_prob => {
                        generation += 1;
                        (prev.clone().with_edit_generation(generation), "edit")
                    }
                    _ => {
                        let s = self.rotation(tenant, fresh_count);
                        fresh_count += 1;
                        generation = 0;
                        (s, "fresh")
                    }
                };
                last = Some(spec.clone());
                let label = format!("t{tenant}.{i}.{}.{kind}", spec.name);
                out.push((
                    at,
                    tenant,
                    i,
                    Submission {
                        tenant,
                        graph: spec.to_graph(),
                        priority: 0,
                        arrival: at,
                        label,
                    },
                ));
            }
        }
        out.sort_by_key(|(at, tenant, i, _)| (*at, *tenant, *i));
        out.into_iter().map(|(_, _, _, s)| s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let lg = LoadGen::default();
        let a = lg.generate(3, 42);
        let b = lg.generate(3, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.label, y.label);
            assert_eq!(x.tenant, y.tenant);
        }
    }

    #[test]
    fn tenant_schedules_are_independent_of_tenant_count() {
        let lg = LoadGen::default();
        let small = lg.generate(1, 42);
        let big = lg.generate(4, 42);
        let t0_small: Vec<&str> = small.iter().map(|s| s.label.as_str()).collect();
        let t0_big: Vec<&str> = big
            .iter()
            .filter(|s| s.tenant == 0)
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(t0_small, t0_big);
    }

    #[test]
    fn probabilities_shape_the_mix() {
        let always_fresh = LoadGen {
            resubmit_prob: 0.0,
            edit_prob: 0.0,
            submissions_per_tenant: 9,
            ..LoadGen::default()
        };
        assert!(always_fresh
            .generate(1, 7)
            .iter()
            .all(|s| s.label.ends_with(".fresh")));

        let always_resubmit = LoadGen {
            resubmit_prob: 1.0,
            edit_prob: 0.0,
            submissions_per_tenant: 5,
            ..LoadGen::default()
        };
        let subs = always_resubmit.generate(1, 7);
        assert!(subs[0].label.ends_with(".fresh"), "first has no previous");
        assert!(subs[1..].iter().all(|s| s.label.ends_with(".resubmit")));
    }

    #[test]
    fn edits_bump_generations_monotonically() {
        let always_edit = LoadGen {
            resubmit_prob: 0.0,
            edit_prob: 1.0,
            submissions_per_tenant: 4,
            ..LoadGen::default()
        };
        let subs = always_edit.generate(1, 7);
        // Successive graphs differ (renamed reductions), so each one has
        // some task names the previous lacks.
        let names = |s: &Submission| -> std::collections::BTreeSet<String> {
            s.graph.tasks().iter().map(|t| t.name.clone()).collect()
        };
        for w in subs.windows(2) {
            assert_ne!(names(&w[0]), names(&w[1]));
        }
    }

    #[test]
    fn first_spec_rotation_spreads_the_opening_mix() {
        let lg = LoadGen {
            resubmit_prob: 0.0,
            edit_prob: 0.0,
            submissions_per_tenant: 1,
            first_spec_by_tenant: true,
            ..LoadGen::default()
        };
        let openers: std::collections::BTreeSet<String> = lg
            .generate(3, 11)
            .iter()
            .map(|s| s.label.split('.').nth(2).unwrap().to_string())
            .collect();
        assert_eq!(openers.len(), 3, "three tenants, three distinct openers");

        // Off (the default), everyone opens with the rotation head.
        let lg = LoadGen {
            first_spec_by_tenant: false,
            ..lg
        };
        let openers: std::collections::BTreeSet<String> = lg
            .generate(3, 11)
            .iter()
            .map(|s| s.label.split('.').nth(2).unwrap().to_string())
            .collect();
        assert_eq!(openers.len(), 1, "default keeps the shared opener");
    }

    #[test]
    fn arrivals_are_sorted_and_positive() {
        let subs = LoadGen::default().generate(3, 9);
        for w in subs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        assert!(subs.iter().all(|s| s.arrival > SimTime::ZERO));
    }
}

//! fig-chaos — the chaos matrix: every fault-injection preset crossed
//! with the recovery-policy ladder, on DV3-Small. See DESIGN.md §10.
//!
//! `vine-fig fig-chaos [scale=4]` writes `results/chaos.csv`. The
//! `stragglers` rows are the headline: the `speculative` policy
//! (default + speculative re-execution) must beat the plain `default`
//! policy on makespan, reproducing the straggler-mitigation argument.
//! Its check re-runs the matrix at the default scale and also requires
//! the committed `results/chaos.csv`.

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, FaultPlan, RecoveryPolicy, RunOutcome, RunResult};
use vine_obs::FigureSet;

use super::Output;
use crate::lab::Lab;

/// The default scale-down of the matrix's DV3-Small.
pub const SCALE: usize = 4;

/// Deliberately few workers: the workload then runs in several waves,
/// so time-windowed faults (stragglers, link degradation) catch
/// attempts started inside their windows instead of expiring before
/// the second wave begins.
const WORKERS: usize = 6;

/// The recovery-policy ladder, in ladder order.
pub fn policies() -> Vec<(&'static str, RecoveryPolicy)> {
    vec![
        ("fragile", RecoveryPolicy::fragile()),
        ("default", RecoveryPolicy::default()),
        (
            "speculative",
            RecoveryPolicy {
                speculation: true,
                speculation_factor: 1.75,
                ..RecoveryPolicy::default()
            },
        ),
        ("hardened", RecoveryPolicy::hardened()),
    ]
}

/// One cell of the matrix: `preset` (seed 42) under `policy`, on
/// DV3-Small at `1/scale`.
pub fn cell(lab: &mut Lab, preset: &str, policy: RecoveryPolicy, scale: usize) -> RunResult {
    let plan = FaultPlan::preset(preset)
        .expect("known preset")
        .with_seed(42);
    let cfg = EngineConfig::stack3(ClusterSpec::standard(WORKERS), 42)
        .deterministic()
        .with_chaos(plan)
        .with_recovery(policy);
    let graph = WorkloadSpec::dv3_small().scaled_down(scale).to_graph();
    lab.run(
        &format!("chaos {preset}"),
        None,
        cfg,
        graph,
        FigureSet::NONE,
    )
    .0
}

pub(super) fn figure(lab: &mut Lab, args: &[usize]) -> Output {
    let mut data: Vec<Vec<String>> = Vec::new();
    // (policy, makespan, speculative wins) of the `stragglers` rows.
    let mut stragglers = Vec::new();
    for preset in FaultPlan::PRESETS {
        for (pname, policy) in policies() {
            let r = cell(lab, preset, policy, args[0]);
            let s = &r.stats;
            if preset == "stragglers" {
                stragglers.push((pname, r.makespan_secs(), s.speculative_wins));
            }
            let outcome = match r.outcome {
                RunOutcome::Completed => "completed",
                RunOutcome::Degraded { .. } => "degraded",
                RunOutcome::Failed { .. } => "FAILED",
            };
            data.push(vec![
                preset.to_string(),
                pname.to_string(),
                outcome.to_string(),
                format!("{:.1}s", r.makespan_secs()),
                s.retries.to_string(),
                s.task_timeouts.to_string(),
                s.transient_failures.to_string(),
                s.speculative_wins.to_string(),
                s.quarantined_tasks.to_string(),
                s.blocklisted_workers.to_string(),
                s.corruptions_detected.to_string(),
                s.preemptions.to_string(),
            ]);
        }
    }

    let header = [
        "Preset",
        "Policy",
        "Outcome",
        "Makespan",
        "Retries",
        "Timeouts",
        "Transient",
        "SpecWins",
        "Quarantined",
        "Blocklisted",
        "Corruptions",
        "Preemptions",
    ];
    let mut out = Output::default();
    out.line("\n== Chaos matrix (DV3-Small) ==\n");
    out.table(&header, &data, Some("chaos.csv"));

    let find = |policy: &str| {
        *stragglers
            .iter()
            .find(|(p, ..)| *p == policy)
            .expect("the ladder is complete")
    };
    let ((_, plain, _), (_, spec, wins)) = (find("default"), find("speculative"));
    out.line(format!(
        "\nstragglers: default {plain:.1}s vs speculative {spec:.1}s ({wins} duplicate wins)"
    ));
    if spec >= plain {
        out.fail("speculation did not reduce the straggler makespan".into());
    }
    out
}

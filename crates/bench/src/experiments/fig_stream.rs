//! fig-stream — streaming partial results and convergence-based early
//! stop on DV3-Small under the `stragglers` chaos preset. See
//! DESIGN.md §11.
//!
//! `vine-fig fig-stream [scale=4]`. For each convergence threshold the
//! workload runs once with a [`ConvergenceObserver`] attached; the
//! baseline row runs with no observer at all. Columns report where the
//! run stopped, how many partitions streamed, how many queued tasks the
//! early stop withdrew, and the core-seconds (total task busy time)
//! saved versus baseline. The runs go straight to [`RunRequest`]: a
//! [`Lab`] cell takes no observer.
//!
//! Writes `results/stream.csv`. Its claim: some threshold saves
//! **≥ 20 %** core-seconds while still completing. It also asserts that
//! every run's partial snapshots are monotone (bin counts never shrink
//! as the fraction grows), and that threshold `1.0` matches the
//! no-observer baseline exactly (makespan, executions) with a final
//! estimate equal to the batch result bit-for-bit. Its check re-runs it
//! at the default scale and also requires the committed
//! `results/stream.csv`.

use vine_analysis::{ConvergenceObserver, WorkloadSpec};
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, FaultPlan, RunRequest, RunResult};
use vine_data::{decode_histogram_set, fnv1a64, STREAM_HIST};

use super::Output;
use crate::lab::Lab;

const WORKERS: usize = 6;
const SEED: u64 = 42;
const THRESHOLDS: [f64; 4] = [0.5, 0.7, 0.9, 1.0];
const SAVINGS_GATE: f64 = 0.20;

fn config() -> EngineConfig {
    // Few workers + the stragglers preset: the run degenerates into a
    // long tail, which is exactly when an analyst wants the 50 %
    // estimate instead of the last slow partition.
    EngineConfig::stack3(ClusterSpec::standard(WORKERS), SEED)
        .deterministic()
        .with_chaos(FaultPlan::preset("stragglers").unwrap().with_seed(SEED))
}

fn graph(scale: usize) -> vine_dag::TaskGraph {
    WorkloadSpec::dv3_small().scaled_down(scale).to_graph()
}

/// Assert the snapshot sequence is monotone: fractions strictly
/// increase and no bin of the streamed histogram ever shrinks.
fn assert_monotone(label: &str, obs: &ConvergenceObserver) {
    let mut prev_frac = 0u32;
    let mut prev_counts: Vec<f64> = Vec::new();
    for snap in obs.snapshots() {
        assert!(
            snap.milli_fraction > prev_frac,
            "{label}: snapshot fractions must strictly increase"
        );
        prev_frac = snap.milli_fraction;
        let set = decode_histogram_set(&snap.payload).expect("snapshot payload decodes");
        let h = set.h1(STREAM_HIST).expect("stream histogram present");
        let counts = h.counts().to_vec();
        if !prev_counts.is_empty() {
            for (i, (now, before)) in counts.iter().zip(&prev_counts).enumerate() {
                assert!(
                    now >= before,
                    "{label}: bin {i} shrank across snapshots ({before} -> {now})"
                );
            }
        }
        prev_counts = counts;
    }
}

fn busy_secs(r: &RunResult) -> f64 {
    r.stats.total_task_busy_us as f64 / 1e6
}

pub(super) fn figure(_lab: &mut Lab, args: &[usize]) -> Output {
    let scale = args[0];
    let baseline = RunRequest::new(config(), graph(scale)).run();
    assert!(baseline.finished(), "baseline must finish");
    let base_busy = busy_secs(&baseline);
    // One table row: the run's own columns after the observer's three.
    let row = |observer: [String; 3], r: &RunResult, saved: f64, digest: String| {
        let mut cells = observer.to_vec();
        cells.extend([
            r.stats.early_stop_cancelled.to_string(),
            format!("{:.1}s", r.makespan_secs()),
            format!("{:.1}", busy_secs(r)),
            format!("{:.1}%", saved * 100.0),
            digest,
        ]);
        cells
    };
    let dash = || "-".to_string();
    let mut data = vec![row(["none".into(), dash(), dash()], &baseline, 0.0, dash())];

    let mut best_saving = 0.0f64;
    for t in THRESHOLDS {
        let mut obs = ConvergenceObserver::new(t);
        let r = RunRequest::new(config(), graph(scale))
            .observer(&mut obs)
            .run();
        assert!(r.finished(), "threshold {t}: run must finish");
        assert_monotone(&format!("threshold {t}"), &obs);
        let busy = busy_secs(&r);
        let saved = 1.0 - busy / base_busy;
        if t < 1.0 {
            best_saving = best_saving.max(saved);
        } else {
            // Threshold 1.0 streams but never stops early: it must be
            // indistinguishable from the baseline, and its accumulated
            // estimate must equal the batch result bit-for-bit.
            assert!(!r.stats.early_stopped, "threshold 1.0 must not stop early");
            assert_eq!(
                obs.stopped_at(),
                Some(1.0),
                "threshold 1.0 converges only at 100%"
            );
            assert_eq!(
                r.stats.task_executions, baseline.stats.task_executions,
                "threshold 1.0 must run every task the baseline ran"
            );
            assert_eq!(
                r.makespan, baseline.makespan,
                "threshold 1.0 must match the baseline makespan exactly"
            );
            let batch = vine_data::encode_histogram_set(obs.accumulator().estimate());
            assert_eq!(
                fnv1a64(&batch),
                obs.accumulator().digest(),
                "final estimate digest must equal the batch digest"
            );
        }
        let stopped_at = match obs.stopped_at() {
            Some(f) => format!("{:.0}%", f * 100.0),
            None => "never".into(),
        };
        let streamed = r.stats.partitions_streamed.to_string();
        let digest = format!("{:016x}", obs.accumulator().digest());
        data.push(row(
            [format!("{t:.2}"), stopped_at, streamed],
            &r,
            saved,
            digest,
        ));
    }

    let header = [
        "Threshold",
        "StoppedAt",
        "Partitions",
        "Cancelled",
        "Makespan",
        "CoreSeconds",
        "Saved",
        "Digest",
    ];
    let mut out = Output::default();
    out.line("\n== Streaming early stop (DV3-Small, stragglers) ==\n");
    out.table(&header, &data, Some("stream.csv"));
    out.line(format!(
        "\nbest early-stop saving: {:.1}% core-seconds (gate: >= {:.0}%)",
        best_saving * 100.0,
        SAVINGS_GATE * 100.0
    ));
    if best_saving < SAVINGS_GATE {
        out.fail(format!(
            "early stop saved only {:.1}% core-seconds (< {:.0}%)",
            best_saving * 100.0,
            SAVINGS_GATE * 100.0
        ));
    }
    out
}

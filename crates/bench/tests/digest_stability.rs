//! The bit-identical digest gate, in-tree.
//!
//! CI's stream gate replays the reference dv3-small run through the
//! `vine-sim` CLI and `cmp`s the digest file against
//! `results/stream_baseline_digest.txt`. That catches regressions only
//! once a change reaches a gate job; this test runs the same
//! configuration through the library API so `cargo test` flags any
//! behavioral drift — event reordering, float-summation changes, RNG
//! stream movement — the moment it is introduced.
//!
//! The configuration mirrors the gate invocation exactly:
//! `vine-sim --workload dv3-small --scale 4 --workers 6 --stack 3`
//! (seed 42, preflight on, cache + obs tracing enabled).

use vine_analysis::WorkloadSpec;
use vine_cluster::{ClusterSpec, WorkerSpec};
use vine_core::{EngineConfig, Preflight, RecoveryPolicy, RunRequest};
use vine_simcore::units::gbit_per_sec;

#[test]
fn dv3_small_seed42_digest_matches_checked_in_baseline() {
    let spec = WorkloadSpec::dv3_small().scaled_down(4);
    let cluster = ClusterSpec {
        workers: 6,
        worker: WorkerSpec::dv3_standard(),
        manager_link_bw: gbit_per_sec(12.0),
    };
    let mut cfg = EngineConfig::stack(3, cluster, 42).with_recovery(RecoveryPolicy::default());
    cfg.obs = true;
    cfg.preflight = Preflight::Enforce;

    let r = RunRequest::new(cfg, spec.to_graph()).run();
    assert!(r.completed(), "reference run must complete");
    let digest = r
        .obs
        .as_ref()
        .expect("obs tracing was enabled")
        .digest
        .to_text();

    let baseline_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/stream_baseline_digest.txt"
    );
    let baseline = std::fs::read_to_string(baseline_path)
        .expect("results/stream_baseline_digest.txt is checked in");
    assert_eq!(
        digest, baseline,
        "dv3-small seed-42 digest drifted from results/stream_baseline_digest.txt; \
         if the change is intentional, regenerate the baseline via scripts/bench_gate.sh"
    );
}

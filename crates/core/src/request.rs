//! The unified run entry point.
//!
//! [`RunRequest`] is the one way to run the engine: a configuration and
//! a workload plus any combination of warm session, observability
//! recorder, and streaming observer. The fault plan and recovery policy
//! are part of the configuration ([`EngineConfig::with_chaos`],
//! [`EngineConfig::with_recovery`]).
//!
//! Streaming is the capability the redesign buys: attach a
//! [`RunObserver`] with [`RunRequest::observer`] and the engine pushes a
//! partial result at every partition completion (and honors early stop).
//! Every knob is optional; a bare `RunRequest::new(cfg, graph).run()` is
//! the plain batch run.

use vine_dag::TaskGraph;
use vine_obs::Recorder;
use vine_storage::CacheName;

use crate::config::EngineConfig;
use crate::engine::run_request;
use crate::observer::RunObserver;
use crate::result::RunResult;
use crate::session::SessionState;

/// Builder for one engine run (see the module docs).
pub struct RunRequest<'a> {
    pub(crate) cfg: EngineConfig,
    pub(crate) graph: TaskGraph,
    pub(crate) cachenames: Option<Vec<CacheName>>,
    pub(crate) session: Option<&'a mut SessionState>,
    pub(crate) recorder: Option<&'a mut dyn Recorder>,
    pub(crate) observer: Option<&'a mut dyn RunObserver>,
}

impl<'a> RunRequest<'a> {
    /// A run of `graph` under `cfg`, with no session, recorder, or
    /// observer attached.
    pub fn new(cfg: EngineConfig, graph: TaskGraph) -> Self {
        RunRequest {
            cfg,
            graph,
            cachenames: None,
            session: None,
            recorder: None,
            observer: None,
        }
    }

    /// Hand over the graph's cachename slab, already derived by the
    /// caller with [`graph_cachenames`](crate::graph_cachenames), so the
    /// engine does not derive it again. It must be exactly that slab
    /// (debug builds assert it); without it the engine derives its own.
    pub fn cachenames(mut self, names: Vec<CacheName>) -> Self {
        self.cachenames = Some(names);
        self
    }

    /// Execute inside a warm [`SessionState`]: workers adopt the
    /// session's caches at start, resident outputs are memoized (under
    /// TaskVine), and the post-run caches are
    /// written back. Fails without simulating when the session's worker
    /// count does not match the run's geometry.
    pub fn session(mut self, session: &'a mut SessionState) -> Self {
        self.session = Some(session);
        self
    }

    /// Stream observability events (task/manager/library spans, transfer
    /// instants, concurrency and cache counters) into `rec`.
    pub fn recorder(mut self, rec: &'a mut dyn Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Push partial results into `obs` at every partition completion;
    /// `obs` may stop the run early (convergence-based early stop).
    pub fn observer(mut self, obs: &'a mut dyn RunObserver) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Execute the run to completion (or failure, or early stop) and
    /// return its result.
    pub fn run(self) -> RunResult {
        run_request(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{ObserverControl, PartialUpdate};
    use crate::recovery::RecoveryPolicy;
    use vine_cluster::ClusterSpec;
    use vine_dag::TaskKind;

    fn graph(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let mut partials = Vec::new();
        for i in 0..n {
            let f = g.add_external_file(format!("chunk{i}"), 1_000_000);
            let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[1_000], 1.0);
            partials.extend(outs);
        }
        g.add_task("acc", TaskKind::Accumulate, partials, &[1_000], 0.5);
        g
    }

    fn cfg() -> EngineConfig {
        EngineConfig::stack3(ClusterSpec::standard(3), 7).deterministic()
    }

    #[test]
    fn builders_compose() {
        let mut session = SessionState::new(&ClusterSpec::standard(3));
        let mut rec = vine_obs::MemoryRecorder::new();
        let r = RunRequest::new(cfg().with_recovery(RecoveryPolicy::hardened()), graph(8))
            .session(&mut session)
            .recorder(&mut rec)
            .run();
        assert!(r.completed());
        assert_eq!(session.runs_completed(), 1);
    }

    struct CountObserver {
        seen: u64,
    }
    impl RunObserver for CountObserver {
        fn on_partition(&mut self, u: PartialUpdate) -> ObserverControl {
            self.seen += 1;
            assert_eq!(u.partitions_done, self.seen, "updates arrive in order");
            assert_eq!(u.partitions_total, 8);
            ObserverControl::Continue
        }
    }

    #[test]
    fn observer_sees_every_partition() {
        let mut obs = CountObserver { seen: 0 };
        let r = RunRequest::new(cfg(), graph(8)).observer(&mut obs).run();
        assert!(r.completed());
        assert_eq!(obs.seen, 8);
        assert_eq!(r.stats.partitions_streamed, 8);
    }
}

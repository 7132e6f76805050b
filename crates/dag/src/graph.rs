//! Task graphs: tasks, files, builder, validation, statistics.

use std::collections::VecDeque;
use std::fmt;

/// Why a [`TaskGraph`] failed structural validation.
///
/// Each variant names the broken invariant and the ids involved, so
/// callers (notably `vine-lint`) can map failure classes to diagnostics
/// instead of parsing strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// A file's `producer` refers to a task id that does not exist.
    UnknownProducer { file: FileId, producer: TaskId },
    /// A file names a producer, but that task does not list the file
    /// among its outputs (a severed producer link).
    ProducerLinkBroken { file: FileId, producer: TaskId },
    /// A file's consumer list refers to a task id that does not exist.
    UnknownConsumer { file: FileId, consumer: TaskId },
    /// A file lists a consumer, but that task does not list the file
    /// among its inputs.
    ConsumerLinkBroken { file: FileId, consumer: TaskId },
    /// A task's input refers to a file id that does not exist.
    UnknownInput { task: TaskId, input: FileId },
    /// A task lists an input, but that file does not list the task as a
    /// consumer (the reverse edge is missing).
    InputLinkBroken { task: TaskId, input: FileId },
    /// A task's output refers to a file id that does not exist.
    UnknownOutput { task: TaskId, output: FileId },
    /// A task lists an output, but that file does not name the task as
    /// its producer.
    OutputLinkBroken { task: TaskId, output: FileId },
    /// No topological order exists: the graph contains a cycle.
    Cycle,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValidateError::UnknownProducer { file, producer } => {
                write!(f, "file {file:?} has unknown producer {producer:?}")
            }
            ValidateError::ProducerLinkBroken { file, producer } => {
                write!(
                    f,
                    "file {file:?} not among outputs of its producer {producer:?}"
                )
            }
            ValidateError::UnknownConsumer { file, consumer } => {
                write!(f, "file {file:?} has unknown consumer {consumer:?}")
            }
            ValidateError::ConsumerLinkBroken { file, consumer } => {
                write!(
                    f,
                    "file {file:?} not among inputs of its consumer {consumer:?}"
                )
            }
            ValidateError::UnknownInput { task, input } => {
                write!(f, "task {task:?} reads unknown file {input:?}")
            }
            ValidateError::InputLinkBroken { task, input } => {
                write!(
                    f,
                    "task {task:?} reads file {input:?} which does not list it as consumer"
                )
            }
            ValidateError::UnknownOutput { task, output } => {
                write!(f, "task {task:?} writes unknown file {output:?}")
            }
            ValidateError::OutputLinkBroken { task, output } => {
                write!(
                    f,
                    "task {task:?} writes file {output:?} which names a different producer"
                )
            }
            ValidateError::Cycle => write!(f, "task graph contains a cycle"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Index of a task within its [`TaskGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Index of a file (data node) within its [`TaskGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// What a task does — drives the engine's cost model and figure tags.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TaskKind {
    /// Apply the analysis processor to one data partition (the "map" side).
    Process,
    /// Merge partial histograms (commutative + associative accumulation).
    Accumulate,
    /// Anything else (used by synthetic benchmark DAGs).
    Generic,
}

/// A data node: either an external input (no producer; lives on the shared
/// filesystem) or the output of exactly one task.
#[derive(Clone, Debug)]
pub struct FileNode {
    /// This file's id.
    pub id: FileId,
    /// Logical name as the application knows it.
    pub name: String,
    /// Expected size in bytes (the engine uses this for transfer costs;
    /// real executors may produce different actual sizes).
    pub size_hint: u64,
    /// Producing task, or `None` for external inputs.
    pub producer: Option<TaskId>,
    /// Tasks that consume this file (filled in by the builder).
    pub consumers: Vec<TaskId>,
}

/// A task node.
#[derive(Clone, Debug)]
pub struct TaskNode {
    /// This task's id.
    pub id: TaskId,
    /// Human-readable name (also the cachename signature seed).
    pub name: String,
    /// Task category.
    pub kind: TaskKind,
    /// Input files (order matters to the application, not the scheduler).
    pub inputs: Vec<FileId>,
    /// Output files.
    pub outputs: Vec<FileId>,
    /// Relative compute cost multiplier (1.0 = a nominal task of its kind).
    pub work: f64,
}

/// A directed acyclic graph of tasks and files.
///
/// Build with [`TaskGraph::new`] + `add_*`, then call
/// [`TaskGraph::validate`] once; schedulers consume it read-only.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskNode>,
    files: Vec<FileNode>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an external input file (no producer).
    pub fn add_external_file(&mut self, name: impl Into<String>, size_hint: u64) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(FileNode {
            id,
            name: name.into(),
            size_hint,
            producer: None,
            consumers: Vec::new(),
        });
        id
    }

    /// Add a task consuming `inputs` and producing one new file per entry
    /// of `output_sizes` (named `<task name>.out<i>`). Returns the task id
    /// and its output file ids.
    ///
    /// # Panics
    /// If an input id is out of range.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        kind: TaskKind,
        inputs: Vec<FileId>,
        output_sizes: &[u64],
        work: f64,
    ) -> (TaskId, Vec<FileId>) {
        let name = name.into();
        let tid = TaskId(self.tasks.len() as u32);
        for &f in &inputs {
            assert!(
                (f.0 as usize) < self.files.len(),
                "unknown input file {f:?}"
            );
            self.files[f.0 as usize].consumers.push(tid);
        }
        let mut outputs = Vec::with_capacity(output_sizes.len());
        for (i, &size) in output_sizes.iter().enumerate() {
            let fid = FileId(self.files.len() as u32);
            self.files.push(FileNode {
                id: fid,
                name: format!("{name}.out{i}"),
                size_hint: size,
                producer: Some(tid),
                consumers: Vec::new(),
            });
            outputs.push(fid);
        }
        self.tasks.push(TaskNode {
            id: tid,
            name,
            kind,
            inputs,
            outputs: outputs.clone(),
            work,
        });
        (tid, outputs)
    }

    /// All tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[TaskNode] {
        &self.tasks
    }

    /// All files, indexed by [`FileId`].
    pub fn files(&self) -> &[FileNode] {
        &self.files
    }

    /// Borrow one task.
    pub fn task(&self, id: TaskId) -> &TaskNode {
        &self.tasks[id.0 as usize]
    }

    /// Borrow one file.
    pub fn file(&self, id: FileId) -> &FileNode {
        &self.files[id.0 as usize]
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// External input files (no producer).
    pub fn external_files(&self) -> impl Iterator<Item = &FileNode> {
        self.files.iter().filter(|f| f.producer.is_none())
    }

    /// Files nobody consumes (the workflow's final results).
    pub fn sink_files(&self) -> impl Iterator<Item = &FileNode> {
        self.files
            .iter()
            .filter(|f| f.consumers.is_empty() && f.producer.is_some())
    }

    /// Total bytes of external input.
    pub fn external_bytes(&self) -> u64 {
        self.external_files().map(|f| f.size_hint).sum()
    }

    /// Validate structural invariants. The builder API makes cycles
    /// impossible (tasks may only consume already-declared files), so this
    /// mainly guards hand-edited graphs: every file↔task link must be
    /// consistent in both directions, and a topological order must exist.
    pub fn validate(&self) -> Result<(), ValidateError> {
        for f in &self.files {
            if let Some(p) = f.producer {
                let pt = self
                    .tasks
                    .get(p.0 as usize)
                    .ok_or(ValidateError::UnknownProducer {
                        file: f.id,
                        producer: p,
                    })?;
                if !pt.outputs.contains(&f.id) {
                    return Err(ValidateError::ProducerLinkBroken {
                        file: f.id,
                        producer: p,
                    });
                }
            }
            for &c in &f.consumers {
                let ct = self
                    .tasks
                    .get(c.0 as usize)
                    .ok_or(ValidateError::UnknownConsumer {
                        file: f.id,
                        consumer: c,
                    })?;
                if !ct.inputs.contains(&f.id) {
                    return Err(ValidateError::ConsumerLinkBroken {
                        file: f.id,
                        consumer: c,
                    });
                }
            }
        }
        for t in &self.tasks {
            for &i in &t.inputs {
                let fi = self
                    .files
                    .get(i.0 as usize)
                    .ok_or(ValidateError::UnknownInput {
                        task: t.id,
                        input: i,
                    })?;
                if !fi.consumers.contains(&t.id) {
                    return Err(ValidateError::InputLinkBroken {
                        task: t.id,
                        input: i,
                    });
                }
            }
            for &o in &t.outputs {
                let fo = self
                    .files
                    .get(o.0 as usize)
                    .ok_or(ValidateError::UnknownOutput {
                        task: t.id,
                        output: o,
                    })?;
                if fo.producer != Some(t.id) {
                    return Err(ValidateError::OutputLinkBroken {
                        task: t.id,
                        output: o,
                    });
                }
            }
        }
        self.topo_order().map(|_| ())
    }

    /// A topological order of tasks, or [`ValidateError::Cycle`].
    pub fn topo_order(&self) -> Result<Vec<TaskId>, ValidateError> {
        let n = self.tasks.len();
        let mut indegree = vec![0usize; n];
        for t in &self.tasks {
            for &f in &t.inputs {
                if self.files[f.0 as usize].producer.is_some() {
                    indegree[t.id.0 as usize] += 1;
                }
            }
        }
        let mut queue: VecDeque<TaskId> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(|i| TaskId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = queue.pop_front() {
            order.push(t);
            for &out in &self.tasks[t.0 as usize].outputs {
                for &c in &self.files[out.0 as usize].consumers {
                    let d = &mut indegree[c.0 as usize];
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(c);
                    }
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(ValidateError::Cycle)
        }
    }

    /// Length (in tasks) of the longest dependency chain.
    pub fn critical_path_len(&self) -> usize {
        let order = self.topo_order().expect("valid graph");
        let mut depth = vec![0usize; self.tasks.len()];
        let mut best = 0;
        for t in order {
            let ti = t.0 as usize;
            let d = self.tasks[ti]
                .inputs
                .iter()
                .filter_map(|&f| self.files[f.0 as usize].producer)
                .map(|p| depth[p.0 as usize])
                .max()
                .unwrap_or(0)
                + 1;
            depth[ti] = d;
            best = best.max(d);
        }
        best
    }

    /// Count of tasks of each kind: `(process, accumulate, generic)`.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut p = 0;
        let mut a = 0;
        let mut g = 0;
        for t in &self.tasks {
            match t.kind {
                TaskKind::Process => p += 1,
                TaskKind::Accumulate => a += 1,
                TaskKind::Generic => g += 1,
            }
        }
        (p, a, g)
    }

    /// The maximum fan-in over all tasks (inputs per task).
    pub fn max_fan_in(&self) -> usize {
        self.tasks.iter().map(|t| t.inputs.len()).max().unwrap_or(0)
    }

    /// Map one [`TaskKind::Process`] task over each partition file: task
    /// `<name_prefix>.<i>` consumes `partitions[i]` and produces a single
    /// output of `output_size` bytes. Returns the output files, in
    /// partition order. Together with [`crate::rewrite::add_tree_reduce`]
    /// this is the builder shape every workload in the paper reduces to
    /// (map partitions → accumulate partials).
    pub fn map_partitions(
        &mut self,
        name_prefix: &str,
        partitions: &[FileId],
        output_size: u64,
        work: f64,
    ) -> Vec<FileId> {
        partitions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let (_, outs) = self.add_task(
                    format!("{name_prefix}.{i}"),
                    TaskKind::Process,
                    vec![p],
                    &[output_size],
                    work,
                );
                outs[0]
            })
            .collect()
    }

    /// Raw mutable access to `(tasks, files)`, bypassing every builder
    /// invariant. Exists so tests (vine-lint's corruption-injection suite
    /// in particular) can sever links and forge duplicate outputs;
    /// production code must use the builder API.
    #[doc(hidden)]
    pub fn raw_parts_mut(&mut self) -> (&mut Vec<TaskNode>, &mut Vec<FileNode>) {
        (&mut self.tasks, &mut self.files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // ext -> a -> (f1, f2); f1 -> b -> f3; f2 -> c -> f4; (f3,f4) -> d
        let mut g = TaskGraph::new();
        let ext = g.add_external_file("input", 100);
        let (_, a_out) = g.add_task("a", TaskKind::Process, vec![ext], &[10, 10], 1.0);
        let (_, b_out) = g.add_task("b", TaskKind::Process, vec![a_out[0]], &[5], 1.0);
        let (_, c_out) = g.add_task("c", TaskKind::Process, vec![a_out[1]], &[5], 1.0);
        g.add_task(
            "d",
            TaskKind::Accumulate,
            vec![b_out[0], c_out[0]],
            &[1],
            1.0,
        );
        g
    }

    #[test]
    fn builder_links_producers_and_consumers() {
        let g = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.file_count(), 6);
        let ext = g.file(FileId(0));
        assert!(ext.producer.is_none());
        assert_eq!(ext.consumers, vec![TaskId(0)]);
        let f1 = g.file(FileId(1));
        assert_eq!(f1.producer, Some(TaskId(0)));
        assert_eq!(f1.consumers, vec![TaskId(1)]);
    }

    #[test]
    fn validate_accepts_diamond() {
        assert!(diamond().validate().is_ok());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(TaskId(0)) < pos(TaskId(1)));
        assert!(pos(TaskId(0)) < pos(TaskId(2)));
        assert!(pos(TaskId(1)) < pos(TaskId(3)));
        assert!(pos(TaskId(2)) < pos(TaskId(3)));
    }

    #[test]
    fn critical_path_of_diamond_is_three() {
        assert_eq!(diamond().critical_path_len(), 3);
    }

    #[test]
    fn sink_files_are_unconsumed_outputs() {
        let g = diamond();
        let sinks: Vec<_> = g.sink_files().map(|f| f.id).collect();
        assert_eq!(sinks, vec![FileId(5)]);
    }

    #[test]
    fn external_bytes_sums_inputs() {
        let mut g = TaskGraph::new();
        g.add_external_file("a", 70);
        g.add_external_file("b", 30);
        assert_eq!(g.external_bytes(), 100);
    }

    #[test]
    fn kind_counts_partition_tasks() {
        let g = diamond();
        assert_eq!(g.kind_counts(), (3, 1, 0));
    }

    #[test]
    fn max_fan_in() {
        assert_eq!(diamond().max_fan_in(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown input file")]
    fn unknown_input_panics() {
        let mut g = TaskGraph::new();
        g.add_task("bad", TaskKind::Generic, vec![FileId(7)], &[1], 1.0);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = TaskGraph::new();
        assert!(g.validate().is_ok());
        assert_eq!(g.critical_path_len(), 0);
    }

    #[test]
    fn validate_catches_corrupt_links() {
        let mut g = diamond();
        // Corrupt: claim file 1 is consumed by task 3 without updating task.
        g.files[1].consumers.push(TaskId(3));
        assert_eq!(
            g.validate(),
            Err(ValidateError::ConsumerLinkBroken {
                file: FileId(1),
                consumer: TaskId(3)
            })
        );
    }

    #[test]
    fn validate_catches_severed_producer_link() {
        let mut g = diamond();
        // Corrupt the reverse direction: task 0 still lists file 1 as an
        // output, but the file no longer names it as producer.
        g.files[1].producer = None;
        assert_eq!(
            g.validate(),
            Err(ValidateError::OutputLinkBroken {
                task: TaskId(0),
                output: FileId(1)
            })
        );
    }

    #[test]
    fn map_partitions_builds_one_task_per_partition() {
        let mut g = TaskGraph::new();
        let parts: Vec<FileId> = (0..5)
            .map(|i| g.add_external_file(format!("p{i}"), 100))
            .collect();
        let outs = g.map_partitions("proc", &parts, 7, 1.0);
        assert_eq!(outs.len(), 5);
        assert_eq!(g.task_count(), 5);
        assert!(g.validate().is_ok());
        for (i, &o) in outs.iter().enumerate() {
            let t = g.file(o).producer.unwrap();
            assert_eq!(g.task(t).inputs, vec![parts[i]]);
            assert_eq!(g.task(t).kind, TaskKind::Process);
            assert_eq!(g.file(o).size_hint, 7);
        }
    }
}

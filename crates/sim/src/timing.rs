//! Discrete-event timing engine.
//!
//! A DGEMM variant expresses one run as a stream of tasks over two
//! serial resources:
//!
//! * [`Resource::Dma`] — the core group's single DMA channel; all block
//!   transfers serialize on it;
//! * [`Resource::Cpes`] — the CPE cluster computing in lockstep (every
//!   CPE runs the same kernel on its own thread-level block, so one
//!   task models all 64);
//! * [`Resource::None`] — pure latency (mesh synchronization, barrier
//!   costs) that occupies no resource.
//!
//! Tasks are processed in issue order (the program order of the
//! MPE-side schedule): each starts when its dependences have finished
//! *and* its resource is free. Whether DMA hides under compute is
//! therefore decided by the dependence structure the variant builds —
//! Algorithm 1 (serial) versus Algorithm 2 (double-buffered) — not by
//! a formula.
//!
//! [`Timeline`] owns that rule and applies it to each task as it is
//! issued, so an estimate needs no task storage. A [`Dag`] records the
//! tasks for tools that need more than the totals (per-task traces, the
//! critical path) and replays them through a [`Timeline`]. Both accept
//! tasks through [`TaskSink`], so one unroll of a schedule feeds either.

use sw_arch::time::{cycles_to_secs, Cycles};
use sw_probe::trace::TraceData;

/// Identifier of a task inside one [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

/// The resource a task occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The shared DMA channel.
    Dma,
    /// The lock-stepped CPE cluster.
    Cpes,
    /// No resource — pure latency.
    None,
}

/// Where a schedule's tasks go as it is unrolled: a [`Dag`] that keeps
/// them, or a [`Timeline`] that schedules each one on arrival.
pub trait TaskSink {
    /// What a task is referred to by in later tasks' dependence lists.
    type Id: Copy;

    /// Issues a task that may start once every task in `deps` has
    /// finished (at most [`MAX_TASK_DEPS`] of them, all issued
    /// earlier).
    fn task(
        &mut self,
        resource: Resource,
        duration: Cycles,
        deps: &[Self::Id],
        label: &'static str,
    ) -> Self::Id;
}

/// The scheduling rule, applied to one task at a time in issue order:
/// a task starts at `max(its dependences' finish, its resource's free
/// time)`. Holds only the per-resource state, so scheduling a stream
/// of any length allocates nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timeline {
    dma_free: Cycles,
    cpes_free: Cycles,
    dma_busy: Cycles,
    cpes_busy: Cycles,
    makespan: Cycles,
}

impl Timeline {
    /// An empty timeline: every resource free at cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a task whose dependences have all finished by
    /// `ready`, returning its start cycle.
    #[inline]
    fn place(&mut self, resource: Resource, duration: Cycles, ready: Cycles) -> Cycles {
        let (free, busy) = match resource {
            Resource::Dma => (&mut self.dma_free, &mut self.dma_busy),
            Resource::Cpes => (&mut self.cpes_free, &mut self.cpes_busy),
            Resource::None => {
                self.makespan = self.makespan.max(ready + duration);
                return ready;
            }
        };
        let start = ready.max(*free);
        *free = start + duration;
        *busy += duration;
        self.makespan = self.makespan.max(start + duration);
        start
    }

    /// Makespan and per-resource busy time of everything placed so far.
    pub fn result(&self) -> TimingResult {
        TimingResult {
            makespan_cycles: self.makespan,
            dma_busy_cycles: self.dma_busy,
            cpes_busy_cycles: self.cpes_busy,
        }
    }
}

/// Tasks are named by their finish cycle: that is all a later task
/// needs of a dependence.
impl TaskSink for Timeline {
    type Id = Cycles;

    #[inline]
    fn task(
        &mut self,
        resource: Resource,
        duration: Cycles,
        deps: &[Cycles],
        _label: &'static str,
    ) -> Cycles {
        let ready = deps.iter().copied().max().unwrap_or(0);
        self.place(resource, duration, ready) + duration
    }
}

/// Most dependences a task may declare. The MPE-side schedules need at
/// most four (two prefetches, the resident-B load, and the previous
/// compute); keeping them inline makes [`Dag::task`] allocation-free.
pub const MAX_TASK_DEPS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Task {
    resource: Resource,
    duration: Cycles,
    deps: [u32; MAX_TASK_DEPS],
    n_deps: u8,
    label: &'static str,
}

impl Task {
    #[inline]
    fn deps(&self) -> &[u32] {
        &self.deps[..self.n_deps as usize]
    }
}

/// A dependence DAG of timed tasks.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    tasks: Vec<Task>,
}

impl Dag {
    /// An empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task; dependences must refer to earlier tasks, and at
    /// most [`MAX_TASK_DEPS`] of them (duplicates are harmless).
    pub fn task(
        &mut self,
        resource: Resource,
        duration: Cycles,
        deps: &[TaskId],
        label: &'static str,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        assert!(
            id.0 < u32::MAX as usize,
            "task count overflows the internal u32 ids"
        );
        assert!(
            deps.len() <= MAX_TASK_DEPS,
            "a task may declare at most {MAX_TASK_DEPS} dependences, got {}",
            deps.len()
        );
        let mut inline = [0u32; MAX_TASK_DEPS];
        for (slot, d) in inline.iter_mut().zip(deps) {
            assert!(
                d.0 < id.0,
                "dependence on a later task — DAGs are built in program order"
            );
            *slot = d.0 as u32;
        }
        self.tasks.push(Task {
            resource,
            duration,
            deps: inline,
            n_deps: deps.len() as u8,
            label,
        });
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks were added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Replays the tasks in issue order through a [`Timeline`]. For
    /// each task, `visit(index, ready, start, finish)` sees the latest
    /// finish among its dependences, its start cycle, and the finish
    /// cycle of every earlier task. Returns the totals and every task's
    /// finish cycle.
    fn replay(
        &self,
        mut visit: impl FnMut(usize, Cycles, Cycles, &[Cycles]),
    ) -> (TimingResult, Vec<Cycles>) {
        let mut finish = Vec::with_capacity(self.tasks.len());
        let mut timeline = Timeline::new();
        for (i, t) in self.tasks.iter().enumerate() {
            let ready = t
                .deps()
                .iter()
                .map(|&d| finish[d as usize])
                .max()
                .unwrap_or(0);
            let start = timeline.place(t.resource, t.duration, ready);
            visit(i, ready, start, &finish);
            finish.push(start + t.duration);
        }
        (timeline.result(), finish)
    }

    /// Like [`Dag::schedule`], but also returns the per-task timeline
    /// (label, resource, start, end) for inspection and debugging.
    pub fn trace(&self) -> (TimingResult, Vec<TaskTrace>) {
        let mut out = Vec::with_capacity(self.tasks.len());
        let (result, _) = self.replay(|i, _, start, _| {
            let t = &self.tasks[i];
            out.push(TaskTrace {
                label: t.label,
                resource: t.resource,
                start,
                end: start + t.duration,
            });
        });
        (result, out)
    }

    /// Schedules the DAG and appends the timeline to `out` — one span
    /// per task on one track per resource (process `"timing-dag"`,
    /// categories `"dma"` / `"compute"` / `"sync"`). Returns what
    /// [`Dag::trace`] returns.
    pub fn emit_trace(&self, out: &mut TraceData) -> (TimingResult, Vec<TaskTrace>) {
        let (result, tasks) = self.trace();
        let dma = out.track("timing-dag", "DMA engine");
        let cpes = out.track("timing-dag", "CPE cluster");
        let lat = out.track("timing-dag", "latency");
        for t in &tasks {
            let (track, cat) = match t.resource {
                Resource::Dma => (dma, "dma"),
                Resource::Cpes => (cpes, "compute"),
                Resource::None => (lat, "sync"),
            };
            out.span(track, cat, t.label, t.start, t.end);
        }
        (result, tasks)
    }

    /// Runs the engine, returning the makespan and per-resource busy
    /// time.
    pub fn schedule(&self) -> TimingResult {
        self.replay(|_, _, _, _| {}).0
    }
}

impl Dag {
    /// Extracts the **critical path**: the chain of tasks in which each
    /// one's start time was decided by its predecessor's finish —
    /// either a declared dependence or the previous occupant of its
    /// serial resource — walked back from the task that achieves the
    /// makespan. Because the scheduler sets `start = max(deps finish,
    /// resource free)`, the binding predecessor always finishes exactly
    /// when the successor starts, so the returned segments tile
    /// `[0, makespan]` with no gaps and their durations sum exactly to
    /// the makespan (the causal analogue of the interpreter's
    /// stall-attribution invariant).
    pub fn critical_path(&self) -> CriticalPath {
        // The decision that fixed each task's start time.
        let mut binding: Vec<CritBound> = Vec::with_capacity(self.tasks.len());
        // Last occupant of the DMA channel and of the CPE cluster.
        let mut last = [u32::MAX; 2];
        let (result, finish) = self.replay(|i, ready, start, finish| {
            let t = &self.tasks[i];
            let queue = match t.resource {
                Resource::Dma => Some(&mut last[0]),
                Resource::Cpes => Some(&mut last[1]),
                Resource::None => None,
            };
            // Ties between dependences go to the first declared; ties
            // between a dependence and the resource queue go to the
            // dependence: it is the causal edge.
            let bind_dep = t.deps().iter().find(|&&d| finish[d as usize] == ready);
            binding.push(match bind_dep {
                _ if start == 0 => CritBound::RunStart,
                Some(&d) if start == ready => CritBound::Dependence(d),
                _ => {
                    let prev = queue.as_deref().copied().unwrap_or(u32::MAX);
                    debug_assert!(prev != u32::MAX, "resource-bound task with idle resource");
                    CritBound::ResourceQueue(prev)
                }
            });
            if let Some(slot) = queue {
                *slot = i as u32;
            }
        });
        let mut segments = Vec::new();
        // The first task to finish at the makespan ends the path.
        if let Some(crit_end) = finish.iter().position(|&f| f == result.makespan_cycles) {
            // Walk the binding chain back to cycle 0. Predecessor
            // indices strictly decrease (both edge kinds point at
            // earlier tasks), so this terminates.
            let mut cur = crit_end;
            loop {
                let t = &self.tasks[cur];
                let end = finish[cur];
                segments.push(CritSegment {
                    label: t.label,
                    resource: t.resource,
                    start: end - t.duration,
                    end,
                    bound: binding[cur],
                });
                match binding[cur] {
                    CritBound::RunStart => break,
                    CritBound::Dependence(p) | CritBound::ResourceQueue(p) => cur = p as usize,
                }
            }
            segments.reverse();
        }
        CriticalPath {
            makespan_cycles: result.makespan_cycles,
            segments,
        }
    }
}

/// Records every task so the schedule can be replayed, traced and
/// walked for its critical path.
impl TaskSink for Dag {
    type Id = TaskId;

    #[inline]
    fn task(
        &mut self,
        resource: Resource,
        duration: Cycles,
        deps: &[TaskId],
        label: &'static str,
    ) -> TaskId {
        Dag::task(self, resource, duration, deps, label)
    }
}

/// What fixed a critical-path task's start time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CritBound {
    /// Started at cycle 0 — nothing before it.
    RunStart,
    /// Waited for the declared dependence with this task index.
    Dependence(u32),
    /// Waited for its serial resource, last held by this task index.
    ResourceQueue(u32),
}

/// One link of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritSegment {
    /// The label given at [`Dag::task`] time.
    pub label: &'static str,
    /// Resource the task occupied.
    pub resource: Resource,
    /// Start cycle (equals the previous segment's `end`).
    pub start: Cycles,
    /// End cycle.
    pub end: Cycles,
    /// Why the task started no earlier.
    pub bound: CritBound,
}

impl CritSegment {
    /// Segment duration in cycles.
    pub fn cycles(&self) -> Cycles {
        self.end - self.start
    }
}

/// The longest dependency chain of a scheduled [`Dag`], tiling
/// `[0, makespan]` exactly.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// End-to-end cycles (same value [`Dag::schedule`] reports).
    pub makespan_cycles: Cycles,
    /// Chronological chain; `segments[0].start == 0`, each segment
    /// starts where the previous ended, and the last ends at
    /// `makespan_cycles`. Empty only for an empty DAG.
    pub segments: Vec<CritSegment>,
}

impl CriticalPath {
    /// Cycles spent on `resource` along the path; the three resources
    /// sum exactly to `makespan_cycles`.
    pub fn resource_cycles(&self, resource: Resource) -> Cycles {
        self.segments
            .iter()
            .filter(|s| s.resource == resource)
            .map(|s| s.cycles())
            .sum()
    }

    /// The path's segments aggregated by `(label, resource)`, sorted by
    /// total cycles descending — "what should I optimize first". Each
    /// entry is `(label, resource, total cycles, occurrence count)`.
    pub fn top_segments(&self, n: usize) -> Vec<(&'static str, Resource, Cycles, usize)> {
        let mut agg: Vec<(&'static str, Resource, Cycles, usize)> = Vec::new();
        for s in &self.segments {
            if let Some(e) = agg.iter_mut().find(|e| e.0 == s.label && e.1 == s.resource) {
                e.2 += s.cycles();
                e.3 += 1;
            } else {
                agg.push((s.label, s.resource, s.cycles(), 1));
            }
        }
        agg.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        agg.truncate(n);
        agg
    }
}

/// One scheduled task interval, as reported by [`Dag::trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTrace {
    /// The label given at [`Dag::task`] time.
    pub label: &'static str,
    /// Resource occupied.
    pub resource: Resource,
    /// Start cycle.
    pub start: Cycles,
    /// End cycle.
    pub end: Cycles,
}

/// Outcome of scheduling a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingResult {
    /// End-to-end cycles of the run.
    pub makespan_cycles: Cycles,
    /// Cycles the DMA channel was busy.
    pub dma_busy_cycles: Cycles,
    /// Cycles the CPE cluster was busy.
    pub cpes_busy_cycles: Cycles,
}

impl TimingResult {
    /// Makespan in seconds at the CPE clock.
    pub fn secs(&self) -> f64 {
        cycles_to_secs(self.makespan_cycles)
    }

    /// Sustained Gflops/s for a run performing `flops` operations.
    pub fn gflops(&self, flops: u64) -> f64 {
        sw_arch::time::gflops(flops, self.secs())
    }

    /// Fraction of the makespan the CPE cluster computed.
    pub fn compute_utilization(&self) -> f64 {
        self.cpes_busy_cycles as f64 / self.makespan_cycles.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_chain_adds_durations() {
        let mut d = Dag::new();
        let a = d.task(Resource::Dma, 100, &[], "load");
        let b = d.task(Resource::Cpes, 200, &[a], "compute");
        let _c = d.task(Resource::Dma, 50, &[b], "store");
        let r = d.schedule();
        assert_eq!(r.makespan_cycles, 350);
        assert_eq!(r.dma_busy_cycles, 150);
        assert_eq!(r.cpes_busy_cycles, 200);
    }

    #[test]
    fn double_buffering_overlaps() {
        // Two iterations, Algorithm-2 style: load(i+1) has no dep on
        // compute(i), so it hides under it.
        let mut d = Dag::new();
        let l0 = d.task(Resource::Dma, 100, &[], "load0");
        let l1 = d.task(Resource::Dma, 100, &[], "load1");
        let c0 = d.task(Resource::Cpes, 300, &[l0], "compute0");
        let _c1 = d.task(Resource::Cpes, 300, &[l1, c0], "compute1");
        let r = d.schedule();
        // load1 (100..200) hides under compute0 (100..400).
        assert_eq!(r.makespan_cycles, 700);
    }

    #[test]
    fn serial_version_does_not_overlap() {
        // Algorithm-1 style: compute(i) then load(i+1) strictly after.
        let mut d = Dag::new();
        let l0 = d.task(Resource::Dma, 100, &[], "load0");
        let c0 = d.task(Resource::Cpes, 300, &[l0], "compute0");
        let l1 = d.task(Resource::Dma, 100, &[c0], "load1");
        let _c1 = d.task(Resource::Cpes, 300, &[l1], "compute1");
        let r = d.schedule();
        assert_eq!(r.makespan_cycles, 800);
    }

    #[test]
    fn resource_serialization_without_deps() {
        let mut d = Dag::new();
        d.task(Resource::Dma, 100, &[], "a");
        d.task(Resource::Dma, 100, &[], "b");
        let r = d.schedule();
        assert_eq!(r.makespan_cycles, 200);
    }

    #[test]
    fn latency_tasks_occupy_nothing() {
        let mut d = Dag::new();
        let a = d.task(Resource::None, 40, &[], "sync");
        let b = d.task(Resource::None, 40, &[], "sync2"); // parallel
        let _ = d.task(Resource::Cpes, 10, &[a, b], "c");
        let r = d.schedule();
        assert_eq!(r.makespan_cycles, 50);
        assert_eq!(r.dma_busy_cycles, 0);
    }

    #[test]
    #[should_panic]
    fn forward_dependence_rejected() {
        let mut d = Dag::new();
        d.task(Resource::Dma, 1, &[TaskId(5)], "bad");
    }

    #[test]
    fn trace_matches_schedule() {
        let mut d = Dag::new();
        let l0 = d.task(Resource::Dma, 100, &[], "load0");
        let c0 = d.task(Resource::Cpes, 300, &[l0], "compute0");
        let _s0 = d.task(Resource::Dma, 50, &[c0], "store0");
        let (r, tr) = d.trace();
        assert_eq!(r, d.schedule());
        assert_eq!(tr.len(), 3);
        assert_eq!(tr[0].label, "load0");
        assert_eq!((tr[1].start, tr[1].end), (100, 400));
        assert_eq!((tr[2].start, tr[2].end), (400, 450));
    }

    #[test]
    fn emit_trace_mirrors_trace_onto_tracks() {
        let mut d = Dag::new();
        let l0 = d.task(Resource::Dma, 100, &[], "load0");
        let c0 = d.task(Resource::Cpes, 300, &[l0], "compute0");
        let _s = d.task(Resource::None, 40, &[c0], "sync");
        let mut data = TraceData::default();
        let (r, tasks) = d.emit_trace(&mut data);
        assert_eq!(r, d.schedule());
        assert_eq!(data.tracks.len(), 3);
        assert_eq!(data.spans.len(), tasks.len());
        for (span, task) in data.spans.iter().zip(&tasks) {
            assert_eq!(span.name, task.label);
            assert_eq!((span.start, span.end), (task.start, task.end));
        }
        assert_eq!(data.spans[0].cat, "dma");
        assert_eq!(data.spans[1].cat, "compute");
        assert_eq!(data.spans[2].cat, "sync");
        // A second emit appends three more tracks after the first.
        let (r2, _) = d.emit_trace(&mut data);
        assert_eq!(r2, r);
        assert_eq!(data.tracks.len(), 6);
        assert_eq!(data.spans.len(), 2 * tasks.len());
        assert_ne!(data.spans[3].track, data.spans[0].track);
    }

    fn assert_path_tiles(d: &Dag) {
        let cp = d.critical_path();
        let r = d.schedule();
        assert_eq!(cp.makespan_cycles, r.makespan_cycles);
        let total: u64 = cp.segments.iter().map(|s| s.cycles()).sum();
        assert_eq!(
            total, cp.makespan_cycles,
            "segments must sum to the makespan"
        );
        if d.is_empty() {
            assert!(cp.segments.is_empty());
            return;
        }
        assert_eq!(cp.segments[0].start, 0);
        assert_eq!(cp.segments.last().unwrap().end, cp.makespan_cycles);
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "critical path must have no gaps");
        }
        let by_resource = cp.resource_cycles(Resource::Dma)
            + cp.resource_cycles(Resource::Cpes)
            + cp.resource_cycles(Resource::None);
        assert_eq!(by_resource, cp.makespan_cycles);
    }

    #[test]
    fn critical_path_of_serial_chain() {
        let mut d = Dag::new();
        let a = d.task(Resource::Dma, 100, &[], "load");
        let b = d.task(Resource::Cpes, 200, &[a], "compute");
        let _c = d.task(Resource::Dma, 50, &[b], "store");
        assert_path_tiles(&d);
        let cp = d.critical_path();
        let labels: Vec<_> = cp.segments.iter().map(|s| s.label).collect();
        assert_eq!(labels, vec!["load", "compute", "store"]);
        assert!(matches!(cp.segments[1].bound, CritBound::Dependence(0)));
    }

    #[test]
    fn critical_path_skips_hidden_dma() {
        // Double buffering: load1 hides under compute0 and must NOT be
        // on the path; compute1 chains off compute0 via the CPE queue
        // (the declared dep on compute0 binds — same finish, causal).
        let mut d = Dag::new();
        let l0 = d.task(Resource::Dma, 100, &[], "load0");
        let _l1 = d.task(Resource::Dma, 100, &[], "load1");
        let c0 = d.task(Resource::Cpes, 300, &[l0], "compute0");
        let _c1 = d.task(Resource::Cpes, 300, &[_l1, c0], "compute1");
        assert_path_tiles(&d);
        let cp = d.critical_path();
        let labels: Vec<_> = cp.segments.iter().map(|s| s.label).collect();
        assert_eq!(labels, vec!["load0", "compute0", "compute1"]);
        assert_eq!(cp.resource_cycles(Resource::Dma), 100);
        assert_eq!(cp.resource_cycles(Resource::Cpes), 600);
    }

    #[test]
    fn critical_path_follows_resource_queue() {
        // Two independent DMA tasks: the second is bound by the DMA
        // channel, not by any dependence.
        let mut d = Dag::new();
        d.task(Resource::Dma, 100, &[], "a");
        d.task(Resource::Dma, 150, &[], "b");
        assert_path_tiles(&d);
        let cp = d.critical_path();
        assert_eq!(cp.segments.len(), 2);
        assert!(matches!(cp.segments[1].bound, CritBound::ResourceQueue(0)));
    }

    #[test]
    fn critical_path_of_empty_dag() {
        let d = Dag::new();
        let cp = d.critical_path();
        assert_eq!(cp.makespan_cycles, 0);
        assert!(cp.segments.is_empty());
    }

    #[test]
    fn top_segments_aggregate_by_label() {
        let mut d = Dag::new();
        let mut prev = d.task(Resource::Dma, 10, &[], "load");
        for _ in 0..3 {
            let c = d.task(Resource::Cpes, 100, &[prev], "compute");
            prev = d.task(Resource::Dma, 10, &[c], "load");
        }
        let cp = d.critical_path();
        let top = cp.top_segments(2);
        assert_eq!(top[0].0, "compute");
        assert_eq!(top[0].2, 300);
        assert_eq!(top[0].3, 3);
        assert_eq!(top[1].0, "load");
        assert_eq!(top[1].2, 40);
        assert_eq!(top[1].3, 4);
    }

    /// Local splitmix64; the workspace is std-only.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Property: on random DAGs the critical path tiles `[0, makespan]`
    /// exactly — same invariant style as the stall-attribution suite.
    #[test]
    fn critical_path_attribution_sums_exactly_on_random_dags() {
        let mut next = splitmix(0x0dd5_beef);
        for _ in 0..300 {
            let mut d = Dag::new();
            let mut ids = Vec::new();
            let n = 1 + (next() % 60) as usize;
            for i in 0..n {
                let resource = match next() % 3 {
                    0 => Resource::Dma,
                    1 => Resource::Cpes,
                    _ => Resource::None,
                };
                // Zero durations included on purpose: degenerate tasks
                // must not break the tiling.
                let duration = next() % 100;
                let mut deps = Vec::new();
                if i > 0 {
                    for _ in 0..(next() % (MAX_TASK_DEPS as u64 + 1)) {
                        deps.push(ids[(next() % i as u64) as usize]);
                    }
                }
                ids.push(d.task(resource, duration, &deps, "t"));
            }
            assert_path_tiles(&d);
        }
    }

    /// Property: streaming a random DAG's tasks into a [`Timeline`]
    /// gives exactly what the stored DAG's replay gives.
    #[test]
    fn timeline_stream_equals_dag_replay_on_random_dags() {
        let mut next = splitmix(0x5ca1_ab1e);
        for _ in 0..300 {
            let mut d = Dag::new();
            let mut tl = Timeline::new();
            let mut ends: Vec<Cycles> = Vec::new();
            let n = (next() % 60) as usize;
            for i in 0..n {
                let resource = match next() % 3 {
                    0 => Resource::Dma,
                    1 => Resource::Cpes,
                    _ => Resource::None,
                };
                let duration = next() % 100;
                let mut deps = Vec::new();
                if i > 0 {
                    for _ in 0..(next() % (MAX_TASK_DEPS as u64 + 1)) {
                        deps.push((next() % i as u64) as usize);
                    }
                }
                let ids: Vec<TaskId> = deps.iter().map(|&j| TaskId(j)).collect();
                let fin: Vec<Cycles> = deps.iter().map(|&j| ends[j]).collect();
                TaskSink::task(&mut d, resource, duration, &ids, "t");
                ends.push(TaskSink::task(&mut tl, resource, duration, &fin, "t"));
            }
            let (r, tasks) = d.trace();
            assert_eq!(tl.result(), r);
            assert_eq!(r, d.schedule());
            assert_eq!(d.critical_path().makespan_cycles, r.makespan_cycles);
            let got: Vec<Cycles> = tasks.iter().map(|t| t.end).collect();
            assert_eq!(got, ends);
        }
    }

    #[test]
    fn gflops_conversion() {
        let mut d = Dag::new();
        d.task(Resource::Cpes, 1_450_000_000, &[], "one second");
        let r = d.schedule();
        assert!((r.secs() - 1.0).abs() < 1e-9);
        assert!((r.gflops(742_400_000_000) - 742.4).abs() < 1e-6);
        assert!((r.compute_utilization() - 1.0).abs() < 1e-12);
    }
}

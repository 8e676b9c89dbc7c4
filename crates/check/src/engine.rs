//! The deterministic-scheduler execution engine.
//!
//! One model **execution** runs every model thread as a real OS thread,
//! but under a turnstile: a thread that reaches a *visible operation*
//! (an instrumented mutex/condvar/thread op) announces it and blocks;
//! whichever announcement completes the "everyone settled" condition
//! runs the scheduling step inline — picks the next thread (replaying
//! the explorer's forced prefix, then the default policy), executes the
//! op's effect on the lock and condvar state, records the trace step,
//! updates DPOR backtrack sets, and grants exactly one thread. At most
//! one model thread is ever between grant and announce, so the model's
//! code runs serialized.
//!
//! Blocking is virtual: `Mutex` contention and condvar parks suspend
//! the model thread inside the engine. When no thread is runnable the
//! engine reaches **quiescence**: virtual time jumps to the earliest
//! timed condvar wait and wakes it — counting every such *forced
//! timeout*, the signature of a lost wakeup — and if nothing is
//! wakeable the execution is reported as a deadlock with every thread's
//! pending operation. Repeated quiescence cycles without a single
//! unlock/notify/exit are reported as a livelock.

use crate::report::{Schedule, ViolationKind};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Max model threads per execution (64 CPEs would be unexplorable;
/// models use "small configurations" of 2–5 threads).
pub(crate) const MAX_THREADS: usize = 16;

/// A visible operation, announced by a model thread before it may
/// proceed. `loc` is the address of the shared object (stable within
/// one execution).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Op {
    pub loc: Option<usize>,
    pub kind: OpKind,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum OpKind {
    /// First announcement of a freshly spawned thread.
    Begin,
    Lock,
    Unlock,
    /// Park on a condvar, atomically releasing `mutex`; `timeout` is
    /// virtual nanoseconds until a timed wake becomes possible.
    CvWait {
        mutex: usize,
        timeout: Option<u64>,
    },
    CvNotifyAll,
    CvNotifyOne,
    Spawn,
    Join {
        child: usize,
    },
    Exit,
}

impl OpKind {
    /// Ops that constitute progress for the livelock detector.
    fn progresses(self) -> bool {
        matches!(
            self,
            OpKind::Unlock | OpKind::CvNotifyAll | OpKind::CvNotifyOne | OpKind::Exit
        )
    }
}

/// One recorded step of the execution trace. Locations are display
/// ids (first-touch order), stable under a fixed schedule.
#[derive(Clone, Debug)]
pub(crate) struct TraceStep {
    pub tid: usize,
    pub loc: Option<usize>,
    /// Second location (a cv-wait's mutex).
    pub loc2: Option<usize>,
    pub kind: OpKind,
    pub result: u64,
}

impl TraceStep {
    /// Two steps of different threads on a shared lock or condvar.
    /// Every op with a location changes that location's state, so a
    /// shared location makes the pair dependent.
    fn dependent(&self, other: &TraceStep) -> bool {
        if self.tid == other.tid {
            return false;
        }
        let shares = |a: Option<usize>, b: Option<usize>| a.is_some() && a == b;
        shares(self.loc, other.loc)
            || shares(self.loc, other.loc2)
            || shares(self.loc2, other.loc)
            || shares(self.loc2, other.loc2)
    }
}

/// One scheduling decision point of the exploration stack.
#[derive(Clone, Debug)]
pub(crate) struct Frame {
    /// Runnable threads at this point.
    pub enabled: Vec<usize>,
    /// The thread chosen on the current path.
    pub choice: usize,
    /// Choices already explored from this point.
    pub tried: Vec<usize>,
    /// Choices queued by DPOR backtracking.
    pub pending: Vec<usize>,
    /// Preemptive context switches on the path up to this choice.
    pub preemptions: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Slot reserved by a spawn; the OS thread has not announced yet.
    Reserved,
    /// Announced a pending op, waiting to be granted.
    Announced,
    /// Parked on a condvar.
    Parked,
    /// Granted; the thread will pick up its result and run.
    Granted,
    /// Running model code between visible ops.
    Running,
    Exited,
}

pub(crate) struct ThreadSt {
    pub name: String,
    pub phase: Phase,
    pub pending: Option<Op>,
    pub result: u64,
    /// Set when a cv wait was ended by a forced timeout.
    pub timed_out: bool,
    /// The mutex to reacquire when woken from a condvar.
    pub cv_mutex: Option<usize>,
    /// Pending wait was granted as a cv reacquire (result carries the
    /// timed_out flag).
    pub cv_reacquire: bool,
    /// Set when `Exit` executes; a join waits for it.
    pub exited: bool,
    pub handle: Option<std::thread::JoinHandle<()>>,
}

impl ThreadSt {
    fn new(name: String) -> Self {
        ThreadSt {
            name,
            phase: Phase::Reserved,
            pending: None,
            result: 0,
            timed_out: false,
            cv_mutex: None,
            cv_reacquire: false,
            exited: false,
            handle: None,
        }
    }
}

/// What kind of shared object lives at an address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LocKind {
    Mutex,
    Condvar,
}

impl LocKind {
    pub fn name(self) -> &'static str {
        match self {
            LocKind::Mutex => "mutex",
            LocKind::Condvar => "condvar",
        }
    }
}

/// Checker-side state of one mutex or condvar.
#[derive(Debug)]
pub(crate) struct Loc {
    /// Display id, assigned in first-touch order (deterministic under
    /// a fixed schedule, unlike the address used as the map key).
    pub id: usize,
    /// Mutex: the holding thread.
    pub owner: Option<usize>,
    /// Condvar: parked (thread, woken-by-timeout-at) queue in park
    /// order.
    pub cv_waiters: Vec<(usize, Option<u64>)>,
}

/// Per-execution dynamic state (reset between executions).
pub(crate) struct ExecSt {
    pub locs: HashMap<usize, Loc>,
    pub loc_kinds: Vec<LocKind>,
    pub now: u64,
    pub trace: Vec<TraceStep>,
    pub forced_timeouts: u64,
    progress_since_quiescence: bool,
    livelock_strikes: u32,
}

impl ExecSt {
    fn new() -> Self {
        ExecSt {
            locs: HashMap::new(),
            loc_kinds: Vec::new(),
            now: 0,
            trace: Vec::new(),
            forced_timeouts: 0,
            progress_since_quiescence: true,
            livelock_strikes: 0,
        }
    }

    /// The location entry at `addr`, created on first touch.
    fn loc(&mut self, addr: usize, kind: LocKind) -> &mut Loc {
        let id = self.loc_kinds.len();
        let kinds = &mut self.loc_kinds;
        self.locs.entry(addr).or_insert_with(|| {
            kinds.push(kind);
            Loc {
                id,
                owner: None,
                cv_waiters: Vec::new(),
            }
        })
    }
}

/// A violation discovered during an execution, with the evidence
/// needed for the report: the full trace and the replayable schedule.
#[derive(Clone, Debug)]
pub(crate) struct RawViolation {
    pub kind: ViolationKind,
    pub message: String,
    pub trace: Vec<TraceStep>,
    pub thread_names: Vec<String>,
    pub loc_kinds: Vec<LocKind>,
    pub schedule: Schedule,
}

/// Exploration knobs shared by the engine and explorer (a subset of
/// the public [`crate::Config`], pre-resolved).
#[derive(Clone, Debug)]
pub(crate) struct EngineConfig {
    pub seed: u64,
    pub max_steps: usize,
    pub preemption_bound: Option<u32>,
    pub forbid_timeout_rescue: bool,
    /// Consecutive quiescence cycles without progress before the
    /// execution is reported as a livelock.
    pub livelock_limit: u32,
}

pub(crate) struct EngineSt {
    pub cfg: EngineConfig,
    pub threads: Vec<ThreadSt>,
    pub exec: ExecSt,
    pub stack: Vec<Frame>,
    /// Replay prefix for this execution (stack choices up to the
    /// branch point, or an explicit replay schedule).
    pub forced: Schedule,
    /// Threads whose OS threads are live (reserved or running).
    pub live: usize,
    pub abort: bool,
    pub done: bool,
    pub violation: Option<RawViolation>,
    /// Set when the per-execution step budget tripped.
    pub step_budget_hit: bool,
    last_granted: Option<usize>,
    /// Internal error (a replay prefix that no longer matches).
    pub internal_error: Option<String>,
    pub preemption_pruned: u64,
}

impl EngineSt {
    fn snapshot_violation(&self, kind: ViolationKind, message: String) -> RawViolation {
        RawViolation {
            kind,
            message,
            trace: self.exec.trace.clone(),
            thread_names: self.threads.iter().map(|t| t.name.clone()).collect(),
            loc_kinds: self.exec.loc_kinds.clone(),
            schedule: Schedule(self.stack.iter().map(|f| f.choice).collect()),
        }
    }

    fn report_violation(&mut self, kind: ViolationKind, message: String) {
        if self.violation.is_none() {
            self.violation = Some(self.snapshot_violation(kind, message));
        }
        self.abort = true;
    }

    fn settled(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.phase, Phase::Announced | Phase::Parked | Phase::Exited))
    }

    fn enabled(&self, tid: usize) -> bool {
        let Some(op) = &self.threads[tid].pending else {
            return false;
        };
        match op.kind {
            OpKind::Lock => {
                let addr = op.loc.expect("lock has a location");
                self.locs_owner(addr).is_none()
            }
            OpKind::Join { child } => self.threads[child].exited,
            _ => true,
        }
    }

    fn locs_owner(&self, addr: usize) -> Option<usize> {
        self.exec.locs.get(&addr).and_then(|l| l.owner)
    }

    fn runnable(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| self.threads[t].phase == Phase::Announced && self.enabled(t))
            .collect()
    }

    /// Deterministic tie-break score for the default policy.
    fn score(&self, step: usize, tid: usize) -> u64 {
        let mut x = self
            .cfg
            .seed
            .wrapping_add((step as u64) << 32)
            .wrapping_add(tid as u64)
            .wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// Picks the next thread to run, either replaying the forced prefix
    /// or extending the stack with a fresh decision point.
    fn decide(&mut self, runnable: &[usize]) -> Option<usize> {
        // Frames are 1:1 with trace steps. The stack persists across
        // executions (it IS the exploration state), so during replay
        // of the forced prefix the frame for this step already exists.
        let step = self.exec.trace.len();
        if let Some(&tid) = self.forced.0.get(step) {
            if !runnable.contains(&tid) {
                self.internal_error = Some(format!(
                    "replay diverged at step {step}: thread {tid} not runnable"
                ));
                self.abort = true;
                return None;
            }
            if self.stack.len() == step {
                // Replaying an explicit schedule (no pre-built stack):
                // materialize the frame so violations snapshot it.
                self.stack.push(Frame {
                    enabled: runnable.to_vec(),
                    choice: tid,
                    tried: vec![tid],
                    pending: Vec::new(),
                    preemptions: 0,
                });
            } else {
                self.stack[step].choice = tid;
            }
            return Some(tid);
        }
        // Default policy: stay on the previously granted thread unless
        // it parked or blocked, which preserves long runs DPOR can
        // reason about.
        let prev = self.last_granted;
        let stay = prev.filter(|p| runnable.contains(p));
        let tid = stay.unwrap_or_else(|| {
            *runnable
                .iter()
                .min_by_key(|&&t| self.score(step, t))
                .expect("runnable is non-empty")
        });
        let path_preemptions = self.stack.last().map(|f| f.preemptions).unwrap_or(0);
        let mut frame = Frame {
            enabled: runnable.to_vec(),
            choice: tid,
            tried: vec![tid],
            pending: Vec::new(),
            preemptions: path_preemptions,
        };
        // Bounded-preemption strategy: eagerly queue every other
        // runnable thread, pruning (loudly) those that would exceed
        // the preemption budget.
        if let Some(bound) = self.cfg.preemption_bound {
            for &alt in runnable {
                if alt == tid {
                    continue;
                }
                let preempts = prev.is_some_and(|p| p != alt && runnable.contains(&p));
                if preempts && path_preemptions >= bound {
                    self.preemption_pruned += 1;
                } else {
                    frame.pending.push(alt);
                }
            }
        }
        self.stack.push(frame);
        Some(tid)
    }

    /// DPOR: find the most recent step dependent with the step just
    /// executed and queue the executing thread at that decision point.
    fn dpor_update(&mut self) {
        if self.cfg.preemption_bound.is_some() {
            return; // bounded-preemption mode branches eagerly instead
        }
        let i = self.exec.trace.len() - 1;
        let e = self.exec.trace[i].clone();
        let Some(j) = (0..i).rev().find(|&j| self.exec.trace[j].dependent(&e)) else {
            return;
        };
        self.queue_backtrack(j, e.tid);
        // A blocked lock attempt never executes, so the conflict
        // between two acquisitions of the same mutex never shows up as
        // a dependent pair — only release→acquire does. Reversing that
        // pair means moving the acquirer before the releaser's WHOLE
        // critical section, so also queue a backtrack at the matching
        // acquisition; without this, lock-order deadlocks and
        // park-before-notify lost wakeups are unreachable.
        if matches!(e.kind, OpKind::Lock) {
            let m = e.loc;
            let rel = &self.exec.trace[j];
            let releaser = rel.tid;
            let released = match rel.kind {
                OpKind::Unlock => rel.loc == m,
                OpKind::CvWait { .. } => rel.loc2 == m,
                _ => false,
            };
            if released {
                if let Some(k) = (0..j).rev().find(|&k| {
                    let s = &self.exec.trace[k];
                    s.tid == releaser && matches!(s.kind, OpKind::Lock) && s.loc == m
                }) {
                    self.queue_backtrack(k, e.tid);
                }
            }
        }
    }

    /// Queue thread `tid` as a pending alternative at decision point
    /// `j` (or every thread runnable there if `tid` was not).
    fn queue_backtrack(&mut self, j: usize, tid: usize) {
        let frame = &mut self.stack[j];
        let queue: Vec<usize> = if frame.enabled.contains(&tid) {
            vec![tid]
        } else {
            // The thread was not yet runnable there: conservatively
            // try every thread that was.
            frame.enabled.clone()
        };
        for t in queue {
            if frame.choice != t && !frame.tried.contains(&t) && !frame.pending.contains(&t) {
                frame.pending.push(t);
            }
        }
    }

    /// Executes thread `tid`'s announced op against the model state.
    /// Returns `false` if the op parked the thread instead of
    /// completing (cv wait).
    fn execute(&mut self, tid: usize) -> bool {
        let op = self.threads[tid].pending.take().expect("op announced");
        let mut result = 0u64;
        let mut loc_id = None;
        let mut loc2_id = None;
        let mut completed = true;
        match op.kind {
            OpKind::Begin => {}
            OpKind::Lock => {
                let addr = op.loc.expect("lock has a location");
                let loc = self.exec.locs.get_mut(&addr).expect("mutex seeded");
                loc_id = Some(loc.id);
                debug_assert!(loc.owner.is_none(), "granted lock must be free");
                loc.owner = Some(tid);
                if self.threads[tid].cv_reacquire {
                    self.threads[tid].cv_reacquire = false;
                    result = self.threads[tid].timed_out as u64;
                }
            }
            OpKind::Unlock => {
                let addr = op.loc.expect("unlock has a location");
                let loc = self.exec.locs.get_mut(&addr).expect("mutex seeded");
                loc_id = Some(loc.id);
                loc.owner = None;
            }
            OpKind::CvWait { mutex, timeout } => {
                let cv_addr = op.loc.expect("cv wait has a location");
                // Release the mutex...
                let m = self.exec.locs.get_mut(&mutex).expect("mutex seeded");
                loc2_id = Some(m.id);
                m.owner = None;
                // ...and park on the condvar.
                let wake_at = timeout.map(|d| self.exec.now + d);
                let cv = self.exec.loc(cv_addr, LocKind::Condvar);
                loc_id = Some(cv.id);
                cv.cv_waiters.push((tid, wake_at));
                self.threads[tid].cv_mutex = Some(mutex);
                self.threads[tid].timed_out = false;
                self.threads[tid].phase = Phase::Parked;
                completed = false;
            }
            OpKind::CvNotifyAll | OpKind::CvNotifyOne => {
                let cv_addr = op.loc.expect("notify has a location");
                let cv = self.exec.loc(cv_addr, LocKind::Condvar);
                loc_id = Some(cv.id);
                let n = if matches!(op.kind, OpKind::CvNotifyOne) {
                    1.min(cv.cv_waiters.len())
                } else {
                    cv.cv_waiters.len()
                };
                let woken: Vec<(usize, Option<u64>)> = cv.cv_waiters.drain(..n).collect();
                result = woken.len() as u64;
                for (w, _) in woken {
                    self.wake_cv_waiter(w, false);
                }
            }
            OpKind::Spawn => {
                if self.threads.len() >= MAX_THREADS {
                    self.report_violation(
                        ViolationKind::Assert,
                        format!("model spawned more than {MAX_THREADS} threads"),
                    );
                    return true;
                }
                let child = self.threads.len();
                let name = format!("t{child}");
                self.threads.push(ThreadSt::new(name));
                self.live += 1;
                result = child as u64;
            }
            OpKind::Join { .. } => {}
            OpKind::Exit => self.threads[tid].exited = true,
        }
        if op.kind.progresses() {
            self.exec.progress_since_quiescence = true;
        }
        self.threads[tid].result = result;
        self.push_trace(tid, op, loc_id, loc2_id, result);
        completed
    }

    fn push_trace(
        &mut self,
        tid: usize,
        op: Op,
        loc: Option<usize>,
        loc2: Option<usize>,
        result: u64,
    ) {
        self.exec.trace.push(TraceStep {
            tid,
            loc,
            loc2,
            kind: op.kind,
            result,
        });
    }

    /// Moves a parked thread back to announced, pending a reacquire of
    /// its condvar's mutex.
    fn wake_cv_waiter(&mut self, tid: usize, timed_out: bool) {
        let mutex = self.threads[tid].cv_mutex.expect("parked on a condvar");
        debug_assert_eq!(self.threads[tid].phase, Phase::Parked);
        self.threads[tid].pending = Some(Op {
            loc: Some(mutex),
            kind: OpKind::Lock,
        });
        self.threads[tid].timed_out = timed_out;
        self.threads[tid].cv_reacquire = true;
        self.threads[tid].phase = Phase::Announced;
    }

    /// No runnable thread: advance virtual time to the earliest
    /// deadline, or report deadlock. Returns `true` if anything was
    /// woken.
    fn quiesce(&mut self) -> bool {
        // Livelock: quiescence cycles without any unlock/notify/exit.
        if !self.exec.progress_since_quiescence {
            self.exec.livelock_strikes += 1;
            if self.exec.livelock_strikes >= self.cfg.livelock_limit {
                let limit = self.cfg.livelock_limit;
                self.report_violation(
                    ViolationKind::Livelock,
                    format!(
                        "no progress across {limit} quiescence cycles \
                         (threads wait out timed parks without ever unlocking or notifying)"
                    ),
                );
                return false;
            }
        } else {
            self.exec.livelock_strikes = 0;
        }
        self.exec.progress_since_quiescence = false;

        let mut wake_at = u64::MAX;
        for (t, th) in self.threads.iter().enumerate() {
            if th.phase == Phase::Parked {
                if let Some((_, Some(at))) = self.find_cv_entry(t) {
                    wake_at = wake_at.min(at);
                }
            }
        }
        if wake_at == u64::MAX {
            let blocked: Vec<String> = self
                .threads
                .iter()
                .filter(|t| !matches!(t.phase, Phase::Exited))
                .map(|t| {
                    format!(
                        "{} blocked on {}",
                        t.name,
                        t.pending
                            .as_ref()
                            .map(|o| format!("{:?}", o.kind))
                            .unwrap_or_else(|| "condvar (no timeout)".into())
                    )
                })
                .collect();
            self.report_violation(
                ViolationKind::Deadlock,
                format!(
                    "all threads blocked with no pending deadline: {}",
                    blocked.join("; ")
                ),
            );
            return false;
        }
        self.exec.now = self.exec.now.max(wake_at);
        // Wake every timed condvar waiter whose deadline passed. Forced
        // condvar timeouts are the lost-wakeup signature and are
        // counted.
        let due: Vec<usize> = (0..self.threads.len())
            .filter(|&t| {
                self.threads[t].phase == Phase::Parked
                    && matches!(self.find_cv_entry(t), Some((_, Some(at))) if at <= self.exec.now)
            })
            .collect();
        for t in &due {
            let (cv_addr, _) = self.find_cv_entry(*t).expect("due waiter is parked");
            let cv = self.exec.locs.get_mut(&cv_addr).expect("cv exists");
            cv.cv_waiters.retain(|&(w, _)| w != *t);
            self.exec.forced_timeouts += 1;
            self.wake_cv_waiter(*t, true);
        }
        true
    }

    fn find_cv_entry(&self, tid: usize) -> Option<(usize, Option<u64>)> {
        self.exec.locs.iter().find_map(|(addr, l)| {
            l.cv_waiters
                .iter()
                .find(|&&(w, _)| w == tid)
                .map(|&(_, at)| (*addr, at))
        })
    }

    /// The scheduling pump: whenever every thread is settled, run
    /// decision steps until a thread is granted (or the execution
    /// ends). Called by workers after every announcement and by the
    /// explorer at execution start.
    pub(crate) fn pump(&mut self) {
        loop {
            if self.abort || self.done {
                return;
            }
            if !self.settled() {
                return;
            }
            if self.threads.iter().all(|t| t.phase == Phase::Exited) {
                if self.cfg.forbid_timeout_rescue && self.exec.forced_timeouts > 0 {
                    self.report_violation(
                        ViolationKind::LostWakeup,
                        format!(
                            "progress required {} forced condvar timeout(s): a waiter \
                             parked after the wakeup it needed was already delivered",
                            self.exec.forced_timeouts
                        ),
                    );
                    return;
                }
                self.done = true;
                return;
            }
            if self.exec.trace.len() >= self.cfg.max_steps {
                self.step_budget_hit = true;
                self.abort = true;
                return;
            }
            let runnable = self.runnable();
            if runnable.is_empty() {
                if !self.quiesce() {
                    return; // deadlock/livelock reported
                }
                continue;
            }
            let Some(tid) = self.decide(&runnable) else {
                return; // replay diverged
            };
            let completed = self.execute(tid);
            self.dpor_update();
            if self.abort {
                return;
            }
            self.last_granted = Some(tid);
            if completed {
                self.threads[tid].phase = Phase::Granted;
                return; // the granted worker announces next; pump re-runs then
            }
            // Parked (cv wait): nobody was granted, keep deciding.
        }
    }
}

/// The engine shared by the explorer and every model worker thread.
pub(crate) struct Engine {
    pub st: Mutex<EngineSt>,
    pub cv: Condvar,
    /// The model body, re-run once per execution.
    pub body: Arc<dyn Fn() + Send + Sync>,
}

/// Panic payload used to unwind model threads when an execution is
/// aborted (violation found or budget hit).
pub(crate) struct AbortToken;

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// A model worker's handle to the engine.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub engine: Arc<Engine>,
    pub tid: usize,
}

/// The active model context of the current thread, if any. Shim types
/// fall back to plain `std` behaviour when this is `None`.
pub(crate) fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// True while the current thread is a model worker (used to suppress
/// panic-hook output for expected unwinds).
pub(crate) fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn install_quiet_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}

impl Ctx {
    /// Announces a visible op, waits to be granted, and returns the
    /// op's result. Panics with [`AbortToken`] when the execution is
    /// being torn down.
    pub fn visible(&self, op: Op) -> u64 {
        let mut st = self.engine.lock();
        st.threads[self.tid].pending = Some(op);
        st.threads[self.tid].phase = Phase::Announced;
        st.pump();
        self.engine.cv.notify_all();
        loop {
            if st.abort {
                st.threads[self.tid].pending = None;
                drop(st);
                std::panic::panic_any(AbortToken);
            }
            if st.threads[self.tid].phase == Phase::Granted {
                break;
            }
            st = self.engine.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.threads[self.tid].phase = Phase::Running;
        st.threads[self.tid].result
    }

    /// Seeds a mutex location.
    pub fn seed_mutex(&self, addr: usize) {
        let mut st = self.engine.lock();
        st.exec.loc(addr, LocKind::Mutex);
    }

    /// Spawns a model thread: reserves a slot via a visible op, starts
    /// the OS thread, and registers its handle for reaping.
    pub fn spawn_model(&self, f: impl FnOnce() + Send + 'static) -> usize {
        let child = self.visible(Op {
            loc: None,
            kind: OpKind::Spawn,
        }) as usize;
        let engine = self.engine.clone();
        let handle = std::thread::Builder::new()
            .name(format!("sw-check-t{child}"))
            .spawn(move || run_worker(engine, child, f))
            .expect("spawn model worker");
        self.engine.lock().threads[child].handle = Some(handle);
        child
    }
}

/// Body of every model worker OS thread: announce `Begin`, run the
/// closure, and report the outcome (normal exit, abort unwind, or an
/// assertion panic — the latter becomes an `Assert` violation).
pub(crate) fn run_worker(engine: Arc<Engine>, tid: usize, f: impl FnOnce()) {
    install_quiet_panic_hook();
    let ctx = Ctx {
        engine: engine.clone(),
        tid,
    };
    CURRENT.with(|c| *c.borrow_mut() = Some(ctx.clone()));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ctx.visible(Op {
            loc: None,
            kind: OpKind::Begin,
        });
        f();
        ctx.visible(Op {
            loc: None,
            kind: OpKind::Exit,
        });
    }));
    CURRENT.with(|c| *c.borrow_mut() = None);
    let mut st = engine.lock();
    st.threads[tid].phase = Phase::Exited;
    st.live -= 1;
    if let Err(payload) = outcome {
        if payload.downcast_ref::<AbortToken>().is_none() {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "model thread panicked".into());
            let name = st.threads[tid].name.clone();
            st.report_violation(ViolationKind::Assert, format!("{name} panicked: {msg}"));
        }
    }
    st.pump();
    drop(st);
    engine.cv.notify_all();
}

impl Engine {
    pub fn new(cfg: EngineConfig, body: Arc<dyn Fn() + Send + Sync>) -> Arc<Self> {
        Arc::new(Engine {
            st: Mutex::new(EngineSt {
                cfg,
                threads: Vec::new(),
                exec: ExecSt::new(),
                stack: Vec::new(),
                forced: Schedule(Vec::new()),
                live: 0,
                abort: false,
                done: false,
                violation: None,
                step_budget_hit: false,
                last_granted: None,
                internal_error: None,
                preemption_pruned: 0,
            }),
            cv: Condvar::new(),
            body,
        })
    }

    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, EngineSt> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resets per-execution state and installs the replay prefix.
    pub fn reset_execution(&self, forced: Schedule) {
        let mut st = self.lock();
        debug_assert_eq!(st.live, 0, "previous execution fully reaped");
        st.threads.clear();
        st.exec = ExecSt::new();
        st.forced = forced;
        st.abort = false;
        st.done = false;
        st.step_budget_hit = false;
        st.last_granted = None;
        // Root thread slot.
        st.threads.push(ThreadSt::new("main".into()));
        st.live = 1;
    }

    /// Starts the root worker for one execution.
    pub fn start_root(self: &Arc<Self>) {
        let engine = self.clone();
        let body = self.body.clone();
        let handle = std::thread::Builder::new()
            .name("sw-check-main".into())
            .spawn(move || run_worker(engine, 0, move || body()))
            .expect("spawn model root");
        self.lock().threads[0].handle = Some(handle);
    }

    /// Waits for the execution to finish (all model threads done or
    /// the execution aborted), then joins every OS thread.
    pub fn wait_and_reap(&self) {
        {
            let mut st = self.lock();
            while !(st.done || st.abort) {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.abort {
                self.cv.notify_all(); // wake workers so they unwind
            }
        }
        loop {
            let pending: Vec<std::thread::JoinHandle<()>> = {
                let mut st = self.lock();
                let handles: Vec<_> = st
                    .threads
                    .iter_mut()
                    .filter_map(|t| t.handle.take())
                    .collect();
                if handles.is_empty() {
                    // A spawn op that was granted right before an abort
                    // may have reserved a slot whose OS thread never
                    // started; once every started thread is joined, no
                    // handle can appear any more — reclaim them.
                    let stx = &mut *st;
                    for t in stx.threads.iter_mut() {
                        if t.phase == Phase::Reserved {
                            t.phase = Phase::Exited;
                            stx.live = stx.live.saturating_sub(1);
                        }
                    }
                    if st.live == 0 {
                        return;
                    }
                    drop(st);
                    self.cv.notify_all();
                    std::thread::yield_now();
                    continue;
                }
                handles
            };
            self.cv.notify_all();
            for h in pending {
                let _ = h.join();
            }
        }
    }
}

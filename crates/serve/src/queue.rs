//! Bounded per-tenant queues with deficit-round-robin fairness — the
//! service's admission/handoff primitive.
//!
//! One `TenantQueues` instance fronts the worker pool: producers
//! (`submit`) push into their tenant's bounded lane and ring the
//! doorbell; consumers (workers) block in [`TenantQueues::pop`] until a
//! job, a cancellation sweep, or shutdown releases them. Fairness is
//! classic deficit round robin: each tenant's deficit is replenished by
//! its weight when its turn comes, and one job costs one unit, so under
//! saturation tenants are served in proportion to their weights
//! regardless of offered load. Within a tenant, the high-priority lane
//! drains before the normal lane.
//!
//! # Concurrency contract (model-checked)
//!
//! The concurrency vocabulary comes from the `sw-check` facade: plain
//! `std` re-exports in a normal build, checker-instrumented types under
//! `--cfg sw_check`, where `check_models.rs` explores this exact source
//! across interleavings. The checked properties: an enqueued job is
//! delivered exactly once with no interleaving depending on the timed
//! park (no lost wakeups), shutdown wakes every parked worker, jobs
//! already queued at shutdown are drained before `Pop::Shutdown` is
//! reported, and a tenant cancellation racing a pop delivers-or-cancels
//! each job exactly once. A seeded park-before-notify mutant
//! ([`TenantQueues::push_mutant_no_notify`]) pins the checker's ability
//! to catch the classic defect.

use std::collections::VecDeque;
use std::time::Duration;
use sw_check::sync::{Condvar, Mutex};

use crate::request::Priority;

/// Timed-park quantum for blocked consumers; bounds the cost of a
/// missed wakeup without a handshake on every push. Progress never
/// *depends* on it — the model checker runs with
/// `forbid_timeout_rescue`.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Static shape of one tenant's lane.
#[derive(Debug, Clone)]
pub struct TenantCfg {
    /// Human-readable tenant name (used in per-tenant metric names).
    pub name: String,
    /// DRR weight: service share under saturation (≥ 1).
    pub weight: u32,
    /// Bounded queue capacity across both priority lanes.
    pub queue_cap: usize,
}

impl TenantCfg {
    /// A tenant with the given name, weight 1, capacity 64.
    pub fn new(name: impl Into<String>) -> Self {
        TenantCfg {
            name: name.into(),
            weight: 1,
            queue_cap: 64,
        }
    }
}

/// What a consumer gets back from [`TenantQueues::pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// A job, with the tenant it came from.
    Job {
        /// Owning tenant index.
        tenant: usize,
        /// The dequeued job.
        job: T,
    },
    /// The queues are shut down and fully drained; the worker should
    /// exit.
    Shutdown,
}

/// Why [`TenantQueues::push`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The tenant's lane is at capacity; carries `(depth, cap)`.
    Full(usize, usize),
    /// The queues are shut down.
    ShutDown,
}

/// One tenant's two lanes plus its DRR bookkeeping.
#[derive(Debug)]
struct Lane<T> {
    high: VecDeque<T>,
    normal: VecDeque<T>,
    deficit: u64,
}

impl<T> Lane<T> {
    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }
}

#[derive(Debug)]
struct QState<T> {
    lanes: Vec<Lane<T>>,
    /// Next tenant the DRR scan visits.
    cursor: usize,
    shutdown: bool,
}

/// Bounded, weighted, shutdown-aware multi-tenant queues. `T` is the
/// job payload (the service uses its internal job struct; the model
/// checker uses small integers).
#[derive(Debug)]
pub struct TenantQueues<T> {
    weights: Vec<u32>,
    caps: Vec<usize>,
    state: Mutex<QState<T>>,
    doorbell: Condvar,
}

impl<T> TenantQueues<T> {
    /// Builds the queues for the given tenant table.
    pub fn new(tenants: &[TenantCfg]) -> Self {
        assert!(!tenants.is_empty(), "at least one tenant");
        assert!(
            tenants.iter().all(|t| t.weight >= 1),
            "DRR weights must be >= 1"
        );
        TenantQueues {
            weights: tenants.iter().map(|t| t.weight).collect(),
            caps: tenants.iter().map(|t| t.queue_cap).collect(),
            state: Mutex::new(QState {
                lanes: tenants
                    .iter()
                    .map(|_| Lane {
                        high: VecDeque::new(),
                        normal: VecDeque::new(),
                        deficit: 0,
                    })
                    .collect(),
                cursor: 0,
                shutdown: false,
            }),
            doorbell: Condvar::new(),
        }
    }

    /// Enqueues a job into the tenant's lane, or refuses with the
    /// structured reason (bounded admission — the caller sheds load
    /// instead of queueing without limit). On success returns the
    /// tenant's new depth and rings the doorbell for one parked worker.
    pub fn push(&self, tenant: usize, priority: Priority, job: T) -> Result<usize, PushError> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.shutdown {
            return Err(PushError::ShutDown);
        }
        let depth = st.lanes[tenant].len();
        if depth >= self.caps[tenant] {
            return Err(PushError::Full(depth, self.caps[tenant]));
        }
        match priority {
            Priority::High => st.lanes[tenant].high.push_back(job),
            Priority::Normal => st.lanes[tenant].normal.push_back(job),
        }
        let depth = st.lanes[tenant].len();
        drop(st);
        // One job, one wakeup: each push releases exactly one parked
        // worker; a worker that finds the job already taken re-checks
        // under the lock and parks again.
        self.doorbell.notify_one();
        Ok(depth)
    }

    /// SEEDED DEFECT (tests + model checker only): [`Self::push`]
    /// without the doorbell — the classic park-before-notify lost
    /// wakeup. The model suite must catch it.
    #[cfg(any(test, sw_check))]
    pub fn push_mutant_no_notify(
        &self,
        tenant: usize,
        priority: Priority,
        job: T,
    ) -> Result<usize, PushError> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.shutdown {
            return Err(PushError::ShutDown);
        }
        let depth = st.lanes[tenant].len();
        if depth >= self.caps[tenant] {
            return Err(PushError::Full(depth, self.caps[tenant]));
        }
        match priority {
            Priority::High => st.lanes[tenant].high.push_back(job),
            Priority::Normal => st.lanes[tenant].normal.push_back(job),
        }
        Ok(st.lanes[tenant].len())
    }

    /// Blocks until a job is available (DRR order) or the queues shut
    /// down *and* drain. Safe to call from any number of workers.
    pub fn pop(&self) -> Pop<T> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some((tenant, job)) = self.pop_locked(&mut st) {
                return Pop::Job { tenant, job };
            }
            if st.shutdown {
                // Drained: every job enqueued before shutdown has been
                // handed to some worker.
                return Pop::Shutdown;
            }
            let (guard, _timeout) = self
                .doorbell
                .wait_timeout(st, PARK_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Non-blocking variant of [`Self::pop`]: `None` when no job is
    /// ready (regardless of shutdown state).
    pub fn try_pop(&self) -> Option<(usize, T)> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.pop_locked(&mut st)
    }

    /// Removes every queued job of one tenant (both lanes), returning
    /// them so the caller can resolve their tickets as cancelled. Jobs
    /// already handed to workers are unaffected — each job is delivered
    /// *or* swept, never both.
    pub fn cancel_tenant(&self, tenant: usize) -> Vec<T> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let lane = &mut st.lanes[tenant];
        lane.deficit = 0;
        let mut out: Vec<T> = lane.high.drain(..).collect();
        out.extend(lane.normal.drain(..));
        out
    }

    /// Marks the queues shut down and wakes every parked worker.
    /// Already-queued jobs are still delivered (drain-before-exit);
    /// new pushes are refused.
    pub fn shutdown(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.shutdown = true;
        drop(st);
        self.doorbell.notify_all();
    }

    /// Total queued jobs across all tenants.
    pub fn depth(&self) -> usize {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.lanes.iter().map(Lane::len).sum()
    }

    /// One DRR scan step under the lock. Replenishes a tenant's deficit
    /// by its weight when its turn starts, charges one unit per job,
    /// and advances the cursor when the deficit (or the lane) runs out
    /// — so a weight-3 tenant gets a 3-job turn per round while its
    /// neighbours get their own turns in between.
    fn pop_locked(&self, st: &mut QState<T>) -> Option<(usize, T)> {
        let n = st.lanes.len();
        if st.lanes.iter().all(|l| l.len() == 0) {
            return None;
        }
        // At most one full cycle reaches a non-empty lane.
        loop {
            let t = st.cursor;
            let lane = &mut st.lanes[t];
            if lane.len() == 0 {
                lane.deficit = 0;
                st.cursor = (t + 1) % n;
                continue;
            }
            if lane.deficit == 0 {
                lane.deficit = u64::from(self.weights[t]);
            }
            lane.deficit -= 1;
            let job = lane
                .high
                .pop_front()
                .or_else(|| lane.normal.pop_front())
                .expect("lane checked non-empty");
            if lane.len() == 0 {
                lane.deficit = 0;
            }
            if lane.deficit == 0 {
                st.cursor = (t + 1) % n;
            }
            return Some((t, job));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants(weights: &[u32]) -> Vec<TenantCfg> {
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| TenantCfg {
                name: format!("t{i}"),
                weight: w,
                queue_cap: 1024,
            })
            .collect()
    }

    #[test]
    fn drr_serves_in_weight_proportion() {
        let q = TenantQueues::new(&tenants(&[3, 1]));
        for i in 0..40u32 {
            q.push(0, Priority::Normal, i).unwrap();
            q.push(1, Priority::Normal, 100 + i).unwrap();
        }
        // First 16 pops: weight-3 tenant gets 12, weight-1 gets 4.
        let mut counts = [0usize; 2];
        for _ in 0..16 {
            let (t, _) = q.try_pop().unwrap();
            counts[t] += 1;
        }
        assert_eq!(counts, [12, 4], "3:1 service under saturation");
    }

    #[test]
    fn high_priority_drains_before_normal_within_a_tenant() {
        let q = TenantQueues::new(&tenants(&[1]));
        q.push(0, Priority::Normal, 1u32).unwrap();
        q.push(0, Priority::High, 2).unwrap();
        q.push(0, Priority::High, 3).unwrap();
        let order: Vec<u32> = (0..3).map(|_| q.try_pop().unwrap().1).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn bounded_admission_refuses_with_depth_and_cap() {
        let q = TenantQueues::new(&[TenantCfg {
            name: "t".into(),
            weight: 1,
            queue_cap: 2,
        }]);
        assert_eq!(q.push(0, Priority::Normal, 1u32), Ok(1));
        assert_eq!(q.push(0, Priority::High, 2), Ok(2));
        assert_eq!(q.push(0, Priority::Normal, 3), Err(PushError::Full(2, 2)));
        // Draining one readmits.
        q.try_pop().unwrap();
        assert_eq!(q.push(0, Priority::Normal, 3), Ok(2));
    }

    #[test]
    fn shutdown_drains_then_releases_workers() {
        let q = std::sync::Arc::new(TenantQueues::new(&tenants(&[1])));
        q.push(0, Priority::Normal, 7u32).unwrap();
        q.shutdown();
        assert_eq!(q.push(0, Priority::Normal, 8), Err(PushError::ShutDown));
        assert_eq!(q.pop(), Pop::Job { tenant: 0, job: 7 });
        assert_eq!(q.pop(), Pop::Shutdown);
        // A worker parked before shutdown is released too.
        let q2 = std::sync::Arc::new(TenantQueues::<u32>::new(&tenants(&[1])));
        let w = {
            let q2 = q2.clone();
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(5));
        q2.shutdown();
        assert_eq!(w.join().unwrap(), Pop::Shutdown);
    }

    #[test]
    fn cancel_tenant_sweeps_only_that_tenant() {
        let q = TenantQueues::new(&tenants(&[1, 1]));
        q.push(0, Priority::Normal, 1u32).unwrap();
        q.push(0, Priority::High, 2).unwrap();
        q.push(1, Priority::Normal, 3).unwrap();
        let swept = q.cancel_tenant(0);
        assert_eq!(swept, vec![2, 1]);
        assert_eq!(q.try_pop(), Some((1, 3)));
        assert_eq!(q.try_pop(), None);
    }
}

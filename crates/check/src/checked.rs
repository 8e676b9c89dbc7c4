//! Checker-instrumented drop-ins for the `std` lock vocabulary the
//! service's queues use: `Mutex`, `Condvar` and thread spawn/join.
//!
//! Every type here has two behaviours, selected at *runtime* by
//! whether the current thread is a model worker (see
//! [`crate::engine::current`]): inside a model execution, operations
//! become visible ops routed through the deterministic scheduler;
//! outside one, they defer to the real `std` implementation, so
//! instrumented code keeps working in plain unit tests. Production
//! crates never pay for this dispatch — they import these types only
//! under `cfg(sw_check)`, and otherwise get direct `std` re-exports
//! from the [`crate`] facade.

use crate::engine::{current, Op, OpKind};
use std::time::Duration;

fn addr_of<T: ?Sized>(x: &T) -> usize {
    x as *const T as *const u8 as usize
}

/// Instrumented mutex. Inside a model, contention is virtual (the
/// scheduler only grants the lock when it is free), so the real
/// `inner` mutex is never contended and exists only for the
/// outside-model fallback.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<()>,
    data: std::cell::UnsafeCell<T>,
}

// Safety: inside a model the scheduler serializes access; outside one
// the inner mutex does.
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    pub fn new(v: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(()),
            data: std::cell::UnsafeCell::new(v),
        }
    }

    /// Always `Ok` (model mutexes cannot be poisoned; the outside-model
    /// fallback recovers from poison), but typed like `std` so call
    /// sites written for `std::sync::Mutex` compile unchanged.
    #[allow(clippy::type_complexity)]
    pub fn lock(&self) -> Result<MutexGuard<'_, T>, std::sync::PoisonError<MutexGuard<'_, T>>> {
        match current() {
            Some(ctx) => {
                let addr = addr_of(self);
                ctx.seed_mutex(addr);
                ctx.visible(Op {
                    loc: Some(addr),
                    kind: OpKind::Lock,
                });
                Ok(MutexGuard {
                    mtx: self,
                    std: None,
                })
            }
            None => {
                let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    mtx: self,
                    std: Some(g),
                })
            }
        }
    }
}

pub struct MutexGuard<'a, T> {
    mtx: &'a Mutex<T>,
    std: Option<std::sync::MutexGuard<'a, ()>>,
}

impl<'a, T> MutexGuard<'a, T> {
    /// Takes the guard apart without running its unlock (for condvar
    /// waits, where the release is part of the wait op itself).
    fn dissolve(self) -> (&'a Mutex<T>, Option<std::sync::MutexGuard<'a, ()>>) {
        let mut this = std::mem::ManuallyDrop::new(self);
        (this.mtx, this.std.take())
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.mtx.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.mtx.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.std.is_some() {
            return; // the std guard's own drop unlocks
        }
        // Model-held lock. Skip the visible op while unwinding (the
        // execution is being torn down; announcing would re-panic).
        if std::thread::panicking() {
            return;
        }
        if let Some(ctx) = current() {
            ctx.visible(Op {
                loc: Some(addr_of(self.mtx)),
                kind: OpKind::Unlock,
            });
        }
    }
}

/// Result of a timed condvar wait; mirrors
/// `std::sync::WaitTimeoutResult` (which has no public constructor).
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Instrumented condvar. Inside a model, parking is virtual and timed
/// waits only expire at quiescence (when no thread can run) — a
/// forced expiry that progress *depends on* is the checker's
/// lost-wakeup signal.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn notify_all(&self) {
        match current() {
            Some(ctx) => {
                ctx.visible(Op {
                    loc: Some(addr_of(self)),
                    kind: OpKind::CvNotifyAll,
                });
            }
            None => self.inner.notify_all(),
        }
    }

    pub fn notify_one(&self) {
        match current() {
            Some(ctx) => {
                ctx.visible(Op {
                    loc: Some(addr_of(self)),
                    kind: OpKind::CvNotifyOne,
                });
            }
            None => self.inner.notify_one(),
        }
    }

    #[allow(clippy::type_complexity)]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> Result<
        (MutexGuard<'a, T>, WaitTimeoutResult),
        std::sync::PoisonError<(MutexGuard<'a, T>, WaitTimeoutResult)>,
    > {
        match current() {
            Some(ctx) => {
                let (mtx, _) = guard.dissolve();
                let timed_out = ctx.visible(Op {
                    loc: Some(addr_of(self)),
                    kind: OpKind::CvWait {
                        mutex: addr_of(mtx),
                        timeout: Some(dur.as_nanos() as u64),
                    },
                });
                Ok((
                    MutexGuard { mtx, std: None },
                    WaitTimeoutResult(timed_out != 0),
                ))
            }
            None => {
                let (mtx, std_guard) = guard.dissolve();
                let g = std_guard.expect("outside-model guard holds the std lock");
                let (g, res) = self
                    .inner
                    .wait_timeout(g, dur)
                    .unwrap_or_else(|e| e.into_inner());
                Ok((
                    MutexGuard { mtx, std: Some(g) },
                    WaitTimeoutResult(res.timed_out()),
                ))
            }
        }
    }

    #[allow(clippy::type_complexity)]
    pub fn wait<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
    ) -> Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>> {
        match current() {
            Some(ctx) => {
                let (mtx, _) = guard.dissolve();
                ctx.visible(Op {
                    loc: Some(addr_of(self)),
                    kind: OpKind::CvWait {
                        mutex: addr_of(mtx),
                        timeout: None,
                    },
                });
                Ok(MutexGuard { mtx, std: None })
            }
            None => {
                let (mtx, std_guard) = guard.dissolve();
                let g = std_guard.expect("outside-model guard holds the std lock");
                let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard { mtx, std: Some(g) })
            }
        }
    }
}

/// Thread operations. Model workers spawned with [`thread::spawn`]
/// are scheduled by the checker; the join is a visible op that waits
/// for the child's exit.
pub mod thread {
    use super::*;

    pub enum JoinHandle {
        Model(usize),
        Std(std::thread::JoinHandle<()>),
    }

    impl JoinHandle {
        // Mirrors `std::thread::JoinHandle::join`'s Result shape
        // (success carries no payload here; the error arm is never
        // constructed — model threads panic straight to the engine).
        #[allow(clippy::result_unit_err)]
        pub fn join(self) -> Result<(), ()> {
            match self {
                JoinHandle::Model(child) => {
                    let ctx = current().expect("model join handle used outside a model");
                    ctx.visible(Op {
                        loc: None,
                        kind: OpKind::Join { child },
                    });
                    Ok(())
                }
                JoinHandle::Std(h) => h.join().map_err(|_| ()),
            }
        }
    }

    pub fn spawn(f: impl FnOnce() + Send + 'static) -> JoinHandle {
        match current() {
            Some(ctx) => JoinHandle::Model(ctx.spawn_model(f)),
            None => JoinHandle::Std(std::thread::spawn(f)),
        }
    }
}

//! Checker-instrumented drop-ins for the `std` concurrency vocabulary
//! the runtime primitives use.
//!
//! Every type here has two behaviours, selected at *runtime* by
//! whether the current thread is a model worker (see
//! [`crate::engine::current`]): inside a model execution, operations
//! become visible ops routed through the deterministic scheduler and
//! the happens-before engine; outside one, they defer to the real
//! `std` implementation, so instrumented code keeps working in plain
//! unit tests. Production crates never pay for this dispatch — their
//! hot paths import these types only under `cfg(sw_check)`, and
//! otherwise get direct `std` re-exports from the [`crate`] facade.

use crate::engine::{current, Op, OpKind, Rmw};
use std::sync::atomic::Ordering;
use std::time::Duration;

fn addr_of<T: ?Sized>(x: &T) -> usize {
    x as *const T as *const u8 as usize
}

macro_rules! checked_atomic {
    ($name:ident, $std:ty, $prim:ty) => {
        /// Instrumented counterpart of the `std` atomic of the same
        /// name. All orderings are simulated, not collapsed to SeqCst.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            pub fn new(v: $prim) -> Self {
                Self {
                    inner: <$std>::new(v),
                }
            }

            /// Initial value for first-touch seeding: inside a model,
            /// `inner` is never mutated, so it still holds the value
            /// passed to `new`.
            fn seed(&self) -> u64 {
                self.inner.load(Ordering::Relaxed) as u64
            }

            fn op(&self, kind: OpKind) -> Option<u64> {
                current().map(|ctx| {
                    ctx.visible_atomic(
                        addr_of(self),
                        self.seed(),
                        Op {
                            loc: Some(addr_of(self)),
                            kind,
                        },
                    )
                })
            }

            pub fn load(&self, ord: Ordering) -> $prim {
                match self.op(OpKind::Load(ord)) {
                    Some(v) => v as $prim,
                    None => self.inner.load(ord),
                }
            }

            pub fn store(&self, v: $prim, ord: Ordering) {
                if self.op(OpKind::Store(ord, v as u64)).is_none() {
                    self.inner.store(v, ord);
                }
            }

            pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                match self.op(OpKind::Rmw(ord, Rmw::Swap(v as u64))) {
                    Some(old) => old as $prim,
                    None => self.inner.swap(v, ord),
                }
            }

            pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                match self.op(OpKind::Rmw(ord, Rmw::Add(v as u64))) {
                    Some(old) => old as $prim,
                    None => self.inner.fetch_add(v, ord),
                }
            }

            pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                match self.op(OpKind::Rmw(ord, Rmw::Sub(v as u64))) {
                    Some(old) => old as $prim,
                    None => self.inner.fetch_sub(v, ord),
                }
            }

            pub fn fetch_max(&self, v: $prim, ord: Ordering) -> $prim {
                match self.op(OpKind::Rmw(ord, Rmw::Max(v as u64))) {
                    Some(old) => old as $prim,
                    None => self.inner.fetch_max(v, ord),
                }
            }
        }
    };
}

checked_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
checked_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);

/// Instrumented `AtomicBool` (the subset the runtime uses).
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    pub fn new(v: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }

    fn op(&self, kind: OpKind) -> Option<u64> {
        current().map(|ctx| {
            ctx.visible_atomic(
                addr_of(self),
                self.inner.load(Ordering::Relaxed) as u64,
                Op {
                    loc: Some(addr_of(self)),
                    kind,
                },
            )
        })
    }

    pub fn load(&self, ord: Ordering) -> bool {
        match self.op(OpKind::Load(ord)) {
            Some(v) => v != 0,
            None => self.inner.load(ord),
        }
    }

    pub fn store(&self, v: bool, ord: Ordering) {
        if self.op(OpKind::Store(ord, v as u64)).is_none() {
            self.inner.store(v, ord);
        }
    }

    pub fn swap(&self, v: bool, ord: Ordering) -> bool {
        match self.op(OpKind::Rmw(ord, Rmw::Swap(v as u64))) {
            Some(old) => old != 0,
            None => self.inner.swap(v, ord),
        }
    }
}

/// Instrumented plain-memory cell: unordered conflicting accesses are
/// reported as data races by the vector-clock detector. The closure
/// API (`with`/`with_mut`) brackets the raw pointer access with the
/// visible read/write op; the zero-cost facade twin in [`crate::cell`]
/// has the identical API over a bare `std::cell::UnsafeCell`.
#[derive(Debug, Default)]
pub struct UnsafeCell<T> {
    inner: std::cell::UnsafeCell<T>,
}

// Safety: the whole point of this type is to *detect* unsynchronized
// sharing dynamically instead of preventing it statically; model
// threads are physically serialized by the scheduler, so even a racy
// model never performs a concurrent host-level access.
unsafe impl<T: Send> Sync for UnsafeCell<T> {}

impl<T> UnsafeCell<T> {
    pub fn new(v: T) -> Self {
        Self {
            inner: std::cell::UnsafeCell::new(v),
        }
    }

    /// Immutable access, checked as a plain read.
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        if let Some(ctx) = current() {
            ctx.visible(Op {
                loc: Some(addr_of(self)),
                kind: OpKind::CellRead,
            });
        }
        f(self.inner.get())
    }

    /// Mutable access, checked as a plain write.
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        if let Some(ctx) = current() {
            ctx.visible(Op {
                loc: Some(addr_of(self)),
                kind: OpKind::CellWrite,
            });
        }
        f(self.inner.get())
    }
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
/// are scheduled by the checker; the join is a visible op carrying the
/// child's happens-before clock.
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

    /// A scheduling point: the model scheduler prefers switching away
    /// after a yield, which is what makes polling loops explorable.
    /// Outside a model it yields like the normal build's facade: to
    /// the next fiber on a fiber, to the OS scheduler otherwise.
    pub fn yield_now() {
        match current() {
            Some(ctx) => {
                ctx.visible(Op {
                    loc: None,
                    kind: OpKind::Yield,
                });
            }
            None => {
                if !crate::fiber::suspend() {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Timed sleep in virtual time: the sleeper re-enables once
    /// quiescence advances the clock past its deadline.
    pub fn sleep(dur: Duration) {
        match current() {
            Some(ctx) => {
                let until = ctx.now() + dur.as_nanos() as u64;
                ctx.visible(Op {
                    loc: None,
                    kind: OpKind::Sleep { until },
                });
            }
            None => std::thread::sleep(dur),
        }
    }
}

pub mod time {
    use super::*;

    /// Instant over virtual time inside a model, real time outside.
    /// The two variants are never compared with each other in
    /// practice: a value created inside a model execution stays
    /// inside it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Instant {
        Real(std::time::Instant),
        Virtual(u64),
    }

    impl Instant {
        pub fn now() -> Instant {
            match current() {
                Some(ctx) => Instant::Virtual(ctx.now()),
                None => Instant::Real(std::time::Instant::now()),
            }
        }

        pub fn elapsed(&self) -> Duration {
            match *self {
                Instant::Real(i) => i.elapsed(),
                Instant::Virtual(t0) => {
                    let now = current().map(|c| c.now()).unwrap_or(t0);
                    Duration::from_nanos(now.saturating_sub(t0))
                }
            }
        }
    }

    impl std::ops::Add<Duration> for Instant {
        type Output = Instant;
        fn add(self, d: Duration) -> Instant {
            match self {
                Instant::Real(i) => Instant::Real(i + d),
                Instant::Virtual(t) => Instant::Virtual(t + d.as_nanos() as u64),
            }
        }
    }
}

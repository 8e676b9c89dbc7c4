//! Stackful fibers: run `n` cooperating bodies round-robin on the
//! calling thread.
//!
//! The functional core-group runtime runs its 64 CPE bodies here. A
//! CPE that issues `getr`/`getc` on the hardware simply stalls until a
//! mate has sent the word; on a fiber, every blocked wait retries its
//! operation and, while it fails, [`suspend`]s to the next fiber. No OS
//! thread is parked, woken or scheduled per CPE, so the host clock of a
//! run measures the simulator rather than the kernel's scheduler.
//!
//! # Scheduling and deadlock detection
//!
//! [`Fibers::run`] resumes every live fiber once per *pass*, in index
//! order; a fiber runs until it suspends or its body returns. A fiber
//! suspends only from a blocked wait, so every resume begins with a
//! retry. A waiter that gets past its wait calls [`note_progress`], and
//! so do a fiber's start and its exit. A pass with no such note is
//! *stuck*: every resumed fiber failed its retry at once. A failed
//! retry can still change shared state (a receive that finds only
//! words masked off for it steps its cursor past them), which can free
//! a sender one pass later, so only two stuck passes in a row are a
//! deadlock. From then on [`deadlocked`] is true for the rest of the
//! run, and blocked waits give up instead of suspending again.
//!
//! # Machine contract
//!
//! The context switch is an x86_64 System V routine: it saves the
//! callee-saved registers (rbx, rbp, r12–r15) plus the MXCSR and the
//! x87 control word on the outgoing stack and restores the incoming
//! stack's. Each fiber stack is an anonymous mapping with a `PROT_NONE`
//! guard page below it, so an overflow faults instead of overwriting
//! a neighbour. A fresh fiber starts in a trampoline whose call-frame
//! information marks the return address undefined, so unwinders and
//! backtraces stop at the fiber's base. Every body runs under
//! `catch_unwind`; panics never cross a switch.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("sw_check::fiber implements the context switch for x86_64 Linux only");

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

/// A panic payload caught on a fiber.
pub type Payload = Box<dyn Any + Send>;

/// Usable bytes of each fiber stack. Pages are committed on first
/// touch, so this bounds depth, not memory.
const STACK_BYTES: usize = 1 << 20;

/// MXCSR with every exception masked and round-to-nearest: the value
/// the System V ABI gives a new thread.
const MXCSR_DEFAULT: u64 = 0x1F80;
/// The x87 control word of a new thread (extended precision, all
/// exceptions masked).
const FPUCW_DEFAULT: u64 = 0x037F;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const SC_PAGESIZE: i32 = 30;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// One fiber stack: `STACK_BYTES` of read-write memory above one
/// `PROT_NONE` guard page.
struct Stack {
    base: *mut u8,
    len: usize,
}

// SAFETY: `base`/`len` describe a mapping this value owns alone; no
// other value holds a pointer into it outside `Fibers::run`, which
// borrows the `Fibers` mutably, so moving or sharing the descriptor
// between threads races on nothing.
unsafe impl Send for Stack {}
unsafe impl Sync for Stack {}

impl Stack {
    fn new() -> Stack {
        // SAFETY: plain libc calls; every result is checked.
        unsafe {
            let page = sysconf(SC_PAGESIZE).max(4096) as usize;
            let len = STACK_BYTES.next_multiple_of(page) + page;
            let base = mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            assert!(
                base as isize != -1,
                "mmap of a {len}-byte fiber stack failed"
            );
            assert_eq!(
                mprotect(base, page, PROT_NONE),
                0,
                "mprotect of a fiber guard page failed"
            );
            Stack {
                base: base.cast(),
                len,
            }
        }
    }

    /// One past the highest usable byte.
    fn top(&self) -> *mut u8 {
        // SAFETY: `base + len` is the end of the mapping.
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` made; no fiber runs
        // on it outside `Fibers::run`, which borrows the stack.
        unsafe {
            munmap(self.base.cast(), self.len);
        }
    }
}

/// Saves the callee-saved state of the running context on its stack,
/// stores its stack pointer in `*save`, and resumes the context whose
/// stack pointer is `to`.
///
/// # Safety
/// `to` must be a stack pointer saved by this routine, or one prepared
/// by `prepare`, whose stack is still mapped.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// The first code a fresh fiber runs: calls `r13(r12)`, which never
/// returns. The undefined return address ends every unwind here.
///
/// # Safety
/// Never called: only entered by `switch` through a frame `prepare`
/// laid out.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call r13",
        "ud2",
        ".cfi_endproc",
    )
}

/// Lays out a fresh fiber's first frame below `top` so that `switch`
/// into the returned stack pointer enters `trampoline` with
/// `r12 = exec` and `r13 = fiber_main`, and with the stack 16-byte
/// aligned at its `call`.
///
/// # Safety
/// `top` must be the top of a mapped stack at least 80 bytes deep.
unsafe fn prepare(top: *mut u8, exec: *const Exec<'_>) -> *mut u8 {
    let top = (top as usize & !15) as *mut u64;
    let frame: [u64; 10] = [
        MXCSR_DEFAULT | FPUCW_DEFAULT << 32,
        0,                              // r15
        0,                              // r14
        fiber_main as *const () as u64, // r13
        exec as usize as u64,           // r12
        0,                              // rbx
        0,                              // rbp
        trampoline as *const () as u64, // return address of `switch`
        0,                              // padding: 16-byte alignment
        0,                              // padding
    ];
    let sp = top.sub(frame.len());
    ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
    sp.cast()
}

/// The state of one [`Fibers::run`], on the scheduler's stack.
struct Exec<'a> {
    body: &'a dyn Fn(usize),
    /// Polled once per pass; see [`Fibers::run_cancellable`].
    cancel: &'a dyn Fn() -> bool,
    /// The scheduler's saved stack pointer while a fiber runs.
    sched: Cell<*mut u8>,
    /// Each fiber's saved stack pointer while it is suspended.
    sps: Vec<Cell<*mut u8>>,
    done: Vec<Cell<bool>>,
    current: Cell<usize>,
    /// Set by [`note_progress`] during the current pass.
    progress: Cell<bool>,
    deadlocked: Cell<bool>,
    cancelled: Cell<bool>,
    panics: RefCell<Vec<(usize, Payload)>>,
}

thread_local! {
    /// The executor running on this thread, or null.
    static EXEC: Cell<*const Exec<'static>> = const { Cell::new(ptr::null()) };
}

/// The executor running on this thread, if any. Non-null only inside
/// `Fibers::run`, which outlives every use.
fn exec() -> Option<&'static Exec<'static>> {
    let p = EXEC.with(Cell::get);
    // SAFETY: `run` publishes the pointer only while its `Exec` lives
    // and clears it before returning.
    unsafe { p.as_ref() }
}

/// Body of every fiber: runs the SPMD body for the current index,
/// records a panic, marks the fiber done and leaves for good.
///
/// # Safety
/// Entered only from `trampoline`, with the `Exec` of the live
/// `Fibers::run` that prepared this fiber.
unsafe extern "C" fn fiber_main(exec: *const Exec<'static>) {
    // SAFETY: per the contract, `exec` is the live executor.
    let exec = unsafe { &*exec };
    let i = exec.current.get();
    exec.progress.set(true);
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| (exec.body)(i))) {
        exec.panics.borrow_mut().push((i, p));
    }
    exec.done[i].set(true);
    exec.progress.set(true);
    // SAFETY: the scheduler's stack pointer was saved by the switch
    // that resumed this fiber; this fiber is never resumed again.
    unsafe { switch(exec.sps[i].as_ptr(), exec.sched.get()) };
    unreachable!("a finished fiber was resumed");
}

/// A set of fiber stacks, reused by every [`Fibers::run`].
pub struct Fibers {
    stacks: Vec<Stack>,
}

impl Fibers {
    /// Maps `n` stacks.
    pub fn new(n: usize) -> Self {
        Fibers {
            stacks: (0..n).map(|_| Stack::new()).collect(),
        }
    }

    /// Runs `body(i)` on fiber `i` for every stack, round-robin on the
    /// calling thread, and returns once every body has returned or
    /// panicked. The panic payloads come back tagged with their fiber
    /// index, in index order; an empty vector is a clean run.
    ///
    /// # Panics
    /// When called from a fiber: a run cannot start another run.
    pub fn run(&mut self, body: &dyn Fn(usize)) -> Vec<(usize, Payload)> {
        self.run_cancellable(body, &|| false)
    }

    /// [`Fibers::run`], polling `cancel` before each pass: once it
    /// returns true, [`cancelled`] reports it to every fiber for the
    /// rest of the run. `cancel` may read state another thread writes;
    /// the run reads it nowhere else.
    pub fn run_cancellable(
        &mut self,
        body: &dyn Fn(usize),
        cancel: &dyn Fn() -> bool,
    ) -> Vec<(usize, Payload)> {
        assert!(
            !on_fiber(),
            "Fibers::run called from a fiber: a fiber run cannot start another"
        );
        let n = self.stacks.len();
        let exec = Exec {
            body,
            cancel,
            sched: Cell::new(ptr::null_mut()),
            sps: (0..n).map(|_| Cell::new(ptr::null_mut())).collect(),
            done: (0..n).map(|_| Cell::new(false)).collect(),
            current: Cell::new(0),
            progress: Cell::new(false),
            deadlocked: Cell::new(false),
            cancelled: Cell::new(false),
            panics: RefCell::new(Vec::new()),
        };
        for (sp, stack) in exec.sps.iter().zip(&self.stacks) {
            // SAFETY: each stack is mapped and unused between runs.
            sp.set(unsafe { prepare(stack.top(), &exec) });
        }
        // Erase the borrow lifetime for the thread-local; it is cleared
        // below, before `exec` goes out of scope, and fibers only run
        // inside this call.
        EXEC.with(|e| e.set((&exec as *const Exec<'_>).cast()));
        let mut live = n;
        let mut stuck = 0;
        while live > 0 {
            if !exec.cancelled.get() && (exec.cancel)() {
                exec.cancelled.set(true);
            }
            exec.progress.set(false);
            for i in 0..n {
                if exec.done[i].get() {
                    continue;
                }
                exec.current.set(i);
                // SAFETY: `sps[i]` was prepared above or saved by the
                // fiber's last `suspend`, on a stack we still own.
                unsafe { switch(exec.sched.as_ptr(), exec.sps[i].get()) };
                if exec.done[i].get() {
                    live -= 1;
                }
            }
            if exec.progress.get() {
                stuck = 0;
            } else {
                stuck += 1;
                if stuck >= 2 {
                    exec.deadlocked.set(true);
                }
            }
        }
        EXEC.with(|e| e.set(ptr::null()));
        let mut panics = exec.panics.into_inner();
        panics.sort_by_key(|(i, _)| *i);
        panics
    }
}

/// Whether the caller runs on a fiber of a [`Fibers::run`].
pub fn on_fiber() -> bool {
    exec().is_some()
}

/// Suspends the current fiber until the scheduler's next pass.
/// Returns `false`, doing nothing, when not called on a fiber.
pub fn suspend() -> bool {
    let Some(exec) = exec() else {
        return false;
    };
    let i = exec.current.get();
    // SAFETY: the scheduler saved its stack pointer when it resumed
    // this fiber, and resumes us through `sps[i]`.
    unsafe { switch(exec.sps[i].as_ptr(), exec.sched.get()) };
    true
}

/// Records that the current fiber got past a blocked wait (or changed
/// shared state another fiber may be waiting on) during this pass. A
/// no-op off a fiber.
#[inline]
pub fn note_progress() {
    if let Some(exec) = exec() {
        exec.progress.set(true);
    }
}

/// Whether the current run has been found deadlocked: two passes in a
/// row in which every fiber failed its retry. Always `false` off a
/// fiber.
#[inline]
pub fn deadlocked() -> bool {
    exec().is_some_and(|e| e.deadlocked.get())
}

/// Whether the current run's cancel predicate has fired (see
/// [`Fibers::run_cancellable`]). Always `false` off a fiber.
#[inline]
pub fn cancelled() -> bool {
    exec().is_some_and(|e| e.cancelled.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn every_fiber_runs_once_per_run_and_stacks_are_reused() {
        let mut f = Fibers::new(8);
        let hits = Cell::new(0u64);
        for round in 1..=3 {
            assert!(f
                .run(&|i| hits.set(hits.get() + (1 << (8 * (i % 8)))))
                .is_empty());
            assert_eq!(hits.get(), round * 0x0101_0101_0101_0101);
        }
    }

    #[test]
    fn suspend_interleaves_round_robin() {
        let mut f = Fibers::new(3);
        let log = RefCell::new(Vec::new());
        f.run(&|i| {
            for step in 0..3 {
                log.borrow_mut().push((step, i));
                note_progress();
                assert!(suspend());
            }
        });
        let want: Vec<_> = (0..3).flat_map(|s| (0..3).map(move |i| (s, i))).collect();
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    fn suspend_off_a_fiber_is_a_no_op() {
        assert!(!on_fiber());
        assert!(!suspend());
        assert!(!deadlocked());
        note_progress();
    }

    #[test]
    fn panics_come_back_in_index_order() {
        let mut f = Fibers::new(6);
        let panics = f.run(&|i| {
            if i % 2 == 1 {
                // Suspend first, so fiber 5 panics before fiber 1 does
                // in pass order only if the scheduler were unfair.
                for _ in 0..(6 - i) {
                    note_progress();
                    suspend();
                }
                panic!("fiber {i}");
            }
        });
        let ids: Vec<_> = panics.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, [1, 3, 5]);
        for (i, p) in &panics {
            assert_eq!(p.downcast_ref::<String>().unwrap(), &format!("fiber {i}"));
        }
        assert!(f.run(&|_| {}).is_empty(), "the set survives panics");
    }

    #[test]
    fn a_wait_nobody_can_satisfy_is_found_deadlocked() {
        let mut f = Fibers::new(4);
        let passes = Cell::new(0u32);
        let gave_up = RefCell::new(Vec::new());
        f.run(&|i| loop {
            // Never satisfiable: every retry fails.
            if deadlocked() {
                gave_up.borrow_mut().push(i);
                return;
            }
            if i == 0 {
                passes.set(passes.get() + 1);
            }
            suspend();
        });
        assert_eq!(*gave_up.borrow(), [0, 1, 2, 3]);
        // Pass 1 starts the fibers (progress); passes 2 and 3 are stuck.
        assert_eq!(passes.get(), 3);
    }

    #[test]
    fn progress_postpones_the_verdict() {
        let mut f = Fibers::new(2);
        let budget = Cell::new(50u32);
        let verdict = Cell::new(None);
        f.run(&|i| loop {
            if deadlocked() {
                verdict.set(Some(budget.get()));
                return;
            }
            if i == 0 && budget.get() > 0 {
                budget.set(budget.get() - 1);
                note_progress();
            }
            suspend();
        });
        assert_eq!(
            verdict.get(),
            Some(0),
            "no verdict while fiber 0 progressed"
        );
    }

    #[test]
    fn the_cancel_predicate_is_polled_before_each_pass() {
        let mut f = Fibers::new(2);
        let raised = Cell::new(false);
        let seen = RefCell::new(Vec::new());
        f.run_cancellable(
            &|i| {
                if i == 1 {
                    raised.set(true);
                    return;
                }
                // Fiber 0 runs first: the flag is down for all of pass
                // 1 and reported from pass 2 on.
                seen.borrow_mut().push(cancelled());
                note_progress();
                suspend();
                seen.borrow_mut().push(cancelled());
            },
            &|| raised.get(),
        );
        assert_eq!(*seen.borrow(), [false, true]);
        assert!(!cancelled(), "off a fiber nothing is cancelled");
    }

    #[test]
    fn floating_point_control_state_is_per_fiber() {
        fn mxcsr() -> u32 {
            let mut v = 0u32;
            // SAFETY: stores MXCSR into a local.
            unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut v) };
            v
        }
        let outer = mxcsr();
        let mut f = Fibers::new(2);
        let seen = RefCell::new(Vec::new());
        f.run(&|i| {
            if i == 0 {
                // Round toward zero on fiber 0 only.
                let v = mxcsr() | 0x6000;
                // SAFETY: loads a valid MXCSR value.
                unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &v) };
            }
            note_progress();
            suspend();
            seen.borrow_mut().push((i, mxcsr() & 0x6000));
        });
        assert_eq!(*seen.borrow(), [(0, 0x6000), (1, 0)]);
        assert_eq!(mxcsr(), outer, "the scheduler's MXCSR is restored");
    }

    #[test]
    fn backtraces_stop_at_the_fiber_base() {
        let mut f = Fibers::new(1);
        let text = RefCell::new(String::new());
        f.run(&|_| {
            *text.borrow_mut() = std::backtrace::Backtrace::force_capture().to_string();
        });
        let text = text.into_inner();
        assert!(
            text.contains("fiber_main"),
            "the capture walks up to the fiber base:\n{text}"
        );
        assert!(
            !text.contains("Fibers::run"),
            "the capture must not leak into the scheduler's stack:\n{text}"
        );
    }

    #[test]
    #[should_panic(expected = "a fiber run cannot start another")]
    fn a_nested_run_is_refused() {
        let mut outer = Fibers::new(1);
        let panics = outer.run(&|_| {
            Fibers::new(1).run(&|_| {});
        });
        std::panic::resume_unwind(panics.into_iter().next().unwrap().1);
    }

    #[test]
    fn a_set_moved_to_another_thread_still_runs() {
        let mut f = Fibers::new(2);
        assert!(f.run(&|_| {}).is_empty());
        let mut f = std::thread::spawn(move || {
            let n = Cell::new(0);
            assert!(f.run(&|_| n.set(n.get() + 1)).is_empty());
            assert_eq!(n.get(), 2);
            f
        })
        .join()
        .unwrap();
        assert!(f.run(&|_| {}).is_empty());
    }
}

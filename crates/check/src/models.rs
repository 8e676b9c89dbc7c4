//! Built-in models: small self-contained lock and condvar scenarios
//! that exercise every checker verdict, each correct model paired with
//! a seeded-defect mutant the checker provably catches (the same
//! methodology sw-lint uses for CPE programs). `sw-serve` registers
//! its queue models under `cfg(sw_check)`; these ones use
//! [`crate::checked`] directly so they run in every build.

use crate::checked::thread;
use crate::checked::{Condvar, Mutex};
use crate::explore::{check, Config};
use crate::report::{CheckReport, Outcome, ViolationKind};
use std::sync::Arc;
use std::time::Duration;

/// What a model's check is expected to produce. A mutant model
/// *expects* its violation — the suite fails if the checker misses it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Pass,
    Violation(ViolationKind),
}

/// A registered model: a body the checker can explore, plus the
/// expected verdict and any config tuning it needs.
pub struct NamedModel {
    pub name: &'static str,
    pub about: &'static str,
    pub expect: Expect,
    /// Adjusts the default [`Config`] (budgets, timeout-rescue
    /// policy) for this model.
    pub tune: fn(&mut Config),
    pub body: fn(),
}

impl NamedModel {
    pub fn config(&self) -> Config {
        let mut cfg = Config::default();
        (self.tune)(&mut cfg);
        cfg
    }

    /// Runs the model under its tuned config (seed overridable).
    pub fn run(&self, seed: u64) -> CheckReport {
        let mut cfg = self.config();
        cfg.seed = seed;
        check(&cfg, self.body)
    }

    /// Runs the model under an explicit config (CLI replay path).
    pub fn run_with(&self, cfg: &Config) -> CheckReport {
        check(cfg, self.body)
    }

    /// Whether a report matches this model's expectation.
    pub fn satisfied(&self, report: &CheckReport) -> bool {
        match (self.expect, &report.outcome) {
            (Expect::Pass, Outcome::Pass | Outcome::PassBounded) => true,
            (Expect::Violation(k), Outcome::Violation(v)) => v.kind == k,
            _ => false,
        }
    }
}

fn no_tune(_: &mut Config) {}

fn forbid_rescue(cfg: &mut Config) {
    cfg.forbid_timeout_rescue = true;
}

// --- mutexes ------------------------------------------------------------

fn mutex_counter() {
    let c = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let c = c.clone();
            thread::spawn(move || {
                *c.lock().unwrap() += 1;
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*c.lock().unwrap(), 2);
}

fn lock_order(same_order: bool) {
    let a = Arc::new(Mutex::new(0u64));
    let b = Arc::new(Mutex::new(0u64));
    let (a2, b2) = (a.clone(), b.clone());
    let t = thread::spawn(move || {
        if same_order {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        } else {
            // Mutant: opposite acquisition order — AB/BA deadlock.
            let _gb = b2.lock().unwrap();
            let _ga = a2.lock().unwrap();
        }
    });
    {
        let _ga = a.lock().unwrap();
        let _gb = b.lock().unwrap();
    }
    t.join().unwrap();
}

fn lock_order_consistent() {
    lock_order(true);
}

fn lock_order_deadlock() {
    lock_order(false);
}

// --- condvars -----------------------------------------------------------

const PARK: Duration = Duration::from_millis(1);

fn cv_handshake(recheck_under_lock: bool) {
    let flag = Arc::new(Mutex::new(false));
    let cv = Arc::new(Condvar::new());
    let (f, c) = (flag.clone(), cv.clone());
    let t = thread::spawn(move || {
        *f.lock().unwrap() = true;
        c.notify_all();
    });
    if recheck_under_lock {
        // Correct: test-and-park atomically under the lock.
        let mut g = flag.lock().unwrap();
        while !*g {
            let (g2, _) = cv.wait_timeout(g, PARK).unwrap();
            g = g2;
        }
    } else {
        // Mutant: check, drop the lock, then park — the notify can
        // land in the window and the waiter strands until its timeout
        // rescues it.
        loop {
            if *flag.lock().unwrap() {
                break;
            }
            let g = flag.lock().unwrap();
            let _ = cv.wait_timeout(g, PARK).unwrap();
        }
    }
    t.join().unwrap();
}

fn cv_handshake_correct() {
    cv_handshake(true);
}

fn cv_lost_wakeup() {
    cv_handshake(false);
}

// --- livelock -----------------------------------------------------------

/// A flag that one thread sets and another waits for in timed parks.
type Flag = Arc<(Mutex<bool>, Condvar)>;

fn wait_for(flag: &Flag) {
    let mut g = flag.0.lock().unwrap();
    while !*g {
        g = flag.1.wait_timeout(g, PARK).unwrap().0;
    }
}

fn raise(flag: &Flag) {
    *flag.0.lock().unwrap() = true;
    flag.1.notify_all();
}

fn livelock_sleepers() {
    // Mutant shape: two threads each wait out timed parks for a flag
    // the other raises only after its own wait ends — no progress,
    // forever.
    let x: Flag = Arc::default();
    let y: Flag = Arc::default();
    let (x2, y2) = (x.clone(), y.clone());
    let t = thread::spawn(move || {
        wait_for(&x2);
        raise(&y2);
    });
    wait_for(&y);
    raise(&x);
    t.join().unwrap();
}

/// The built-in model registry: correct/mutant pairs covering every
/// violation kind the checker can report.
pub fn builtin() -> Vec<NamedModel> {
    vec![
        NamedModel {
            name: "mutex-counter",
            about: "mutex-guarded increments never race or lose updates",
            expect: Expect::Pass,
            tune: no_tune,
            body: mutex_counter,
        },
        NamedModel {
            name: "lock-order-consistent",
            about: "two mutexes taken in one global order never deadlock",
            expect: Expect::Pass,
            tune: no_tune,
            body: lock_order_consistent,
        },
        NamedModel {
            name: "lock-order-deadlock",
            about: "mutant: AB/BA lock order -> deadlock",
            expect: Expect::Violation(ViolationKind::Deadlock),
            tune: no_tune,
            body: lock_order_deadlock,
        },
        NamedModel {
            name: "cv-handshake",
            about: "test-and-park under the lock never needs a timeout rescue",
            expect: Expect::Pass,
            tune: forbid_rescue,
            body: cv_handshake_correct,
        },
        NamedModel {
            name: "cv-lost-wakeup",
            about: "mutant: check-then-park without the lock strands the waiter",
            expect: Expect::Violation(ViolationKind::LostWakeup),
            tune: forbid_rescue,
            body: cv_lost_wakeup,
        },
        NamedModel {
            name: "livelock-sleepers",
            about: "mutant: two threads in timed parks, each waiting on the other forever",
            expect: Expect::Violation(ViolationKind::Livelock),
            tune: no_tune,
            body: livelock_sleepers,
        },
    ]
}

/// Looks up a built-in model by name.
pub fn find(models: &[NamedModel], name: &str) -> Option<usize> {
    models.iter().position(|m| m.name == name)
}

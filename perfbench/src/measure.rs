//! Host-side measurement helpers: order statistics, the sandbox
//! calibration loop, and process counters read from `/proc`.

use std::hint::black_box;
use std::time::Instant;

/// Linear-interpolated quantile (`q` in [0, 1]) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds of a fixed integer loop owned by the benchmark. It
/// touches nothing of the program, so a change in it between runs is
/// the sandbox drifting, not the code.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..20_000_000u64 {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of three calibration loops.
pub fn calib_median_ms() -> f64 {
    median(&[calib_ms(), calib_ms(), calib_ms()])
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100
/// on every Linux ABI the workspace targets).
const USER_HZ: f64 = 100.0;

/// A snapshot of the process's CPU time and context switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnap {
    /// User CPU seconds of all threads, living and exited.
    pub user_s: f64,
    /// System CPU seconds of all threads, living and exited.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches, summed over the
    /// living threads.
    pub ctx_switches: u64,
}

impl ProcSnap {
    /// Reads the current counters; zeros where `/proc` is unreadable.
    pub fn now() -> Self {
        let (user_s, sys_s) = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                // Fields after the parenthesised command name; utime
                // and stime are fields 14 and 15 of the whole line.
                let rest = &s[s.rfind(')')? + 1..];
                let f: Vec<&str> = rest.split_whitespace().collect();
                let ticks = |i: usize| f.get(i)?.parse::<f64>().ok();
                Some((ticks(11)? / USER_HZ, ticks(12)? / USER_HZ))
            })
            .unwrap_or((0.0, 0.0));
        let mut ctx_switches = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
                    continue;
                };
                for line in status.lines() {
                    if line.starts_with("voluntary_ctxt_switches")
                        || line.starts_with("nonvoluntary_ctxt_switches")
                    {
                        ctx_switches += line
                            .split_whitespace()
                            .nth(1)
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0);
                    }
                }
            }
        }
        ProcSnap {
            user_s,
            sys_s,
            ctx_switches,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// FNV-1a over a stream of 64-bit words: the fingerprint of a run's
/// simulated statistics.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one word in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a float in by its exact bit pattern.
    pub fn add_f64(&mut self, v: f64) {
        self.add(v.to_bits());
    }

    /// The digest.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_linear_interpolation() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((quantile(&s, 0.8) - 3.4).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_depends_on_order() {
        let (mut a, mut b) = (Fingerprint::default(), Fingerprint::default());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a.value(), b.value());
    }
}

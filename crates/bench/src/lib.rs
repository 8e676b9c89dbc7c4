//! Benchmark harness regenerating the paper's evaluation artefacts.
//!
//! One binary per figure/table (see `src/bin/`):
//!
//! | Binary            | Paper artefact |
//! |-------------------|----------------|
//! | `fig4`            | Fig. 4 — sustained DMA bandwidth, `PE_MODE` vs `ROW_MODE` |
//! | `fig6`            | Fig. 6 — Gflops of RAW/PE/ROW/DB/SCHED over square sizes (+ `--gains` for the §V percentages) |
//! | `fig7`            | Fig. 7 — performance across matrix shapes |
//! | `block_model`     | §III-C — block-size determination tables |
//! | `kernel_cycles`   | §IV-C — inner-loop cycle count / vmad occupancy profile |
//! | `ablation_blocks` | §IV-B — buffering/blocking ablation |
//!
//! Bench targets (in `benches/`, run via `cargo bench`) measure the
//! *simulator's own* throughput on the same artefacts, using the
//! dependency-free [`harness`]; `engine_bench` (a harness binary)
//! measures the execution engine itself — interpreter instr/s and
//! fig6-sweep wall time, seed engine vs the current one —
//! and writes `BENCH_engine.json`.
//!
//! Output convention: every binary prints a paper-vs-reproduction
//! table to stdout and, with `--csv PATH`, writes machine-readable CSV.

pub mod harness;
pub mod paper;
pub mod report;

pub use report::{csv_arg, write_csv, Table};

use std::time::Duration;

/// The number after `"key":` in a flat JSON text (the first match), as
/// the bench binaries write their records: enough to read a pinned
/// value back without a JSON parser.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// CPU time the calling thread has used so far
/// (`CLOCK_THREAD_CPUTIME_ID`). A single-core-group run executes on its
/// caller's thread, so differences of this clock time the run without
/// the time the host gives to other threads and processes.
pub fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: a plain libc call that writes into a local; the result is
    // checked.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::thread_cpu_time;
    use std::time::{Duration, Instant};

    #[test]
    fn thread_cpu_time_counts_work_not_sleep() {
        let t0 = thread_cpu_time();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_time() - t0;
        let spin = Instant::now();
        let mut x = 1u64;
        while spin.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let worked = thread_cpu_time() - t0 - slept;
        assert!(slept < Duration::from_millis(25), "sleep cost {slept:?}");
        assert!(worked > Duration::from_millis(5), "work cost {worked:?}");
    }
}

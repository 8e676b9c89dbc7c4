//! The kernel-report cache is keyed on the generator's inputs
//! `(pm, pn, pk, style)` and looked up before any kernel is generated.
//! Its hit/miss counters are process-wide, so this binary holds one
//! test: a parallel test measuring kernels would move the counts.

use sw_dgemm::timing::{
    estimate, kernel_cache_reset, kernel_cache_stats, measure_kernel, measure_kernel_uncached,
    KernelCacheStats,
};
use sw_dgemm::variants::raw::RawParams;
use sw_dgemm::{BlockingParams, Variant};
use sw_isa::kernels::KernelStyle;

#[test]
fn cache_is_transparent_and_a_cold_fig6_sweep_misses_once_per_kernel() {
    kernel_cache_reset();
    for s in (1..=10).map(|i| 1536 * i) {
        for v in Variant::ALL {
            estimate(v, s, s, s).expect("fig6 estimate");
        }
    }
    // Four kernels: PE and ROW share (16, 48, 96, naive); DB is
    // (16, 32, 96, naive), SCHED (16, 32, 96, scheduled), RAW
    // (64, 64, 16, naive).
    assert_eq!(
        kernel_cache_stats(),
        KernelCacheStats {
            hits: 46,
            misses: 4
        }
    );

    let raw = RawParams::paper();
    let mut shapes = vec![(raw.pm, raw.pn, raw.kc)];
    for p in [
        BlockingParams::paper_single(),
        BlockingParams::paper_double(),
        BlockingParams::test_small(),
    ] {
        shapes.push((p.pm, p.pn, p.pk));
    }
    // Blockings the tuner picks off the paper's (BENCH_tune.json).
    shapes.extend([(16, 24, 128), (16, 36, 96), (16, 12, 144), (16, 20, 144)]);
    for (pm, pn, pk) in shapes {
        for style in [KernelStyle::Naive, KernelStyle::Scheduled] {
            let uncached = measure_kernel_uncached(pm, pn, pk, style);
            let first = measure_kernel(pm, pn, pk, style);
            let before = kernel_cache_stats();
            let again = measure_kernel(pm, pn, pk, style);
            let after = kernel_cache_stats();
            let what = format!("{pm}x{pn}x{pk} {style:?}");
            assert_eq!(first, uncached, "{what}: cached report differs");
            assert_eq!(again, uncached, "{what}: cache hit differs");
            assert_eq!(after.hits, before.hits + 1, "{what}: second call must hit");
            assert_eq!(after.misses, before.misses, "{what}");
        }
    }
    // The two styles of one shape are distinct entries.
    assert_ne!(
        measure_kernel(16, 32, 96, KernelStyle::Naive),
        measure_kernel(16, 32, 96, KernelStyle::Scheduled)
    );
}

//! The tuner hands the runner only blockings the functional path can
//! run. The staged search may rank a taller thread block (pM = 32 or
//! 48) first for a 256-row PE problem, but the collective scheme
//! streams one 16-row strip per CPE, so `DgemmRunner::tune` must still
//! produce the reference product rather than panic in kernel
//! generation.

use sw_dgemm::tunecache::TUNE_CACHE_ENV;
use sw_dgemm::tuner::{self, TunePolicy, TuneRequest};
use sw_dgemm::{gen, reference, DgemmRunner, Variant};
use sw_mem::dma::BandwidthModel;

#[test]
fn searched_blocking_for_256_row_pe_runs_functionally() {
    // A private cache file, so the search really runs and no winner
    // from another process is trusted. This is the only test in the
    // binary, so nothing else reads the process-global cache.
    let path =
        std::env::temp_dir().join(format!("sw-tuned-functional-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var(TUNE_CACHE_ENV, &path);

    let (m, n, k) = (256, 64, 128);
    let req = TuneRequest {
        top_k: 4,
        exact: true,
        eval_cap_blocks: Some(3),
        ..TuneRequest::shaped(Variant::Pe, m, n, k)
    };
    let ranked = tuner::search(&req, &BandwidthModel::calibrated()).expect("search");
    assert_ne!(
        ranked.best().params.pm,
        16,
        "vacuous: the search no longer ranks a taller block first here"
    );
    let a = gen::random_matrix(m, k, 71);
    let b = gen::random_matrix(k, n, 72);
    let mut c = gen::random_matrix(m, n, 73);
    let mut expect = c.clone();
    let report = DgemmRunner::new(Variant::Pe)
        .tune(TunePolicy::Search { top_k: 4 })
        .run(1.5, &a, &b, 0.5, &mut c)
        .expect("tuned 256-row PE run succeeds");
    let plan = report.plan.expect("shared variants report their plan");
    assert_eq!(plan.params.pm, 16, "resolved {:?}", plan.params);
    reference::dgemm_chunked_fma(1.5, &a, &b, 0.5, &mut expect, plan.params.pk);
    assert!(c == expect, "tuned run matches the reference bitwise");
    let _ = std::fs::remove_file(&path);
}

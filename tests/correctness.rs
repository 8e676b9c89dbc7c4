//! Cross-crate integration tests: every DGEMM variant, run on the full
//! 64-thread functional simulator, against host references.

use sw_dgemm::gen::random_matrix;
use sw_dgemm::reference::{dgemm_chunked_fma, dgemm_naive, gemm_tolerance};
use sw_dgemm::variants::raw::RawParams;
use sw_dgemm::{BlockingParams, DgemmRunner, Matrix, Variant};

fn run_variant(
    v: Variant,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    beta: f64,
    seed: u64,
) -> (Matrix, Matrix, Matrix, Matrix) {
    let a = random_matrix(m, k, seed);
    let b = random_matrix(k, n, seed + 1);
    let c0 = random_matrix(m, n, seed + 2);
    let mut c = c0.clone();
    let runner = match v {
        Variant::Raw => DgemmRunner::new(v).raw_params(RawParams::test_small()),
        _ => DgemmRunner::new(v).params(BlockingParams::test_small()),
    };
    runner
        .run(alpha, &a, &b, beta, &mut c)
        .expect("simulated DGEMM failed");
    (a, b, c0, c)
}

#[test]
fn all_variants_match_reference_within_tolerance() {
    let (m, n, k) = (256, 128, 256);
    for v in Variant::ALL {
        let (a, b, c0, c) = run_variant(v, m, n, k, 1.0, 1.0, 42);
        let mut expect = c0.clone();
        dgemm_naive(1.0, &a, &b, 1.0, &mut expect);
        let err = c.max_abs_diff(&expect);
        let tol = gemm_tolerance(&a, &b, 1.0);
        assert!(
            err <= tol,
            "{v}: max error {err:.3e} exceeds tolerance {tol:.3e}"
        );
    }
}

#[test]
fn shared_variants_are_bitwise_identical() {
    // PE, ROW, DB and SCHED perform the same per-element FMA sequence
    // (only data placement and instruction schedule differ), so their
    // results must agree to the last bit.
    let (m, n, k) = (256, 128, 256);
    let (_, _, _, c_pe) = run_variant(Variant::Pe, m, n, k, 1.5, -0.5, 7);
    for v in [Variant::Row, Variant::Db, Variant::Sched] {
        let (_, _, _, c_v) = run_variant(v, m, n, k, 1.5, -0.5, 7);
        assert_eq!(c_pe, c_v, "{v} diverged bitwise from PE");
    }
}

#[test]
fn shared_variants_bitwise_match_chunked_reference() {
    let (m, n, k) = (128, 64, 256);
    let (a, b, c0, c) = run_variant(Variant::Sched, m, n, k, 2.25, 0.75, 11);
    let mut expect = c0.clone();
    // chunk = pK of the test blocking.
    dgemm_chunked_fma(
        2.25,
        &a,
        &b,
        0.75,
        &mut expect,
        BlockingParams::test_small().pk,
    );
    assert_eq!(
        c, expect,
        "SCHED must be bitwise equal to the chunked-FMA reference"
    );
}

#[test]
fn raw_bitwise_matches_chunked_reference() {
    let (m, n, k) = (128, 64, 64);
    let (a, b, c0, c) = run_variant(Variant::Raw, m, n, k, -1.25, 2.0, 13);
    let mut expect = c0.clone();
    dgemm_chunked_fma(-1.25, &a, &b, 2.0, &mut expect, RawParams::test_small().kc);
    assert_eq!(
        c, expect,
        "RAW must be bitwise equal to the chunked-FMA reference"
    );
}

#[test]
fn alpha_beta_special_cases() {
    let (m, n, k) = (128, 64, 128);
    for (alpha, beta) in [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-3.5, 2.5)] {
        let (a, b, c0, c) = run_variant(Variant::Sched, m, n, k, alpha, beta, 17);
        let mut expect = c0.clone();
        dgemm_naive(alpha, &a, &b, beta, &mut expect);
        let tol = gemm_tolerance(&a, &b, alpha);
        assert!(
            c.max_abs_diff(&expect) <= tol,
            "alpha={alpha} beta={beta}: error {}",
            c.max_abs_diff(&expect)
        );
    }
}

#[test]
fn non_square_shapes() {
    for (v, m, n, k) in [
        (Variant::Sched, 384, 64, 128),
        (Variant::Db, 128, 192, 256),
        (Variant::Pe, 128, 64, 384),
        (Variant::Row, 256, 64, 128),
    ] {
        let (a, b, c0, c) = run_variant(v, m, n, k, 1.0, 1.0, 23);
        let mut expect = c0;
        dgemm_naive(1.0, &a, &b, 1.0, &mut expect);
        let tol = gemm_tolerance(&a, &b, 1.0);
        assert!(c.max_abs_diff(&expect) <= tol, "{v} {m}x{n}x{k}");
    }
}

#[test]
fn multi_k_blocks_accumulate_correctly() {
    // grid_k > 1 exercises the β-once / accumulate-rest path.
    let (m, n, k) = (128, 64, 512);
    let (a, b, c0, c) = run_variant(Variant::Db, m, n, k, 1.0, 3.0, 29);
    let mut expect = c0;
    dgemm_naive(1.0, &a, &b, 3.0, &mut expect);
    assert!(c.max_abs_diff(&expect) <= gemm_tolerance(&a, &b, 1.0));
}

#[test]
fn determinism_across_runs() {
    // Thread interleaving varies between runs; results must not.
    let (_, _, _, c1) = run_variant(Variant::Sched, 128, 64, 128, 1.5, 0.5, 31);
    let (_, _, _, c2) = run_variant(Variant::Sched, 128, 64, 128, 1.5, 0.5, 31);
    assert_eq!(c1, c2);
}

#[test]
fn dimension_mismatch_rejected() {
    let a = Matrix::zeros(128, 128);
    let b = Matrix::zeros(64, 64); // k mismatch
    let mut c = Matrix::zeros(128, 64);
    let err = sw_dgemm::dgemm(Variant::Sched, 1.0, &a, &b, 0.0, &mut c).unwrap_err();
    assert!(matches!(err, sw_dgemm::DgemmError::BadDims(_)));
}

#[test]
fn unaligned_dims_rejected_with_clear_error() {
    let a = Matrix::zeros(100, 128);
    let b = Matrix::zeros(128, 64);
    let mut c = Matrix::zeros(100, 64);
    let err = sw_dgemm::dgemm(Variant::Sched, 1.0, &a, &b, 0.0, &mut c).unwrap_err();
    assert!(matches!(err, sw_dgemm::DgemmError::BadDims(_)));
}

#[test]
fn a_pinned_blocking_no_executor_runs_is_refused() {
    // pM = 32 passes `validate`, but the collective scheme streams one
    // 16-row tile per CPE: the runner refuses the plan instead of
    // panicking inside the kernel generator, and leaves C alone.
    let p = BlockingParams {
        pm: 32,
        pn: 16,
        pk: 64,
        rm: 4,
        rn: 4,
    };
    assert!(p.validate(false).is_ok());
    let (m, n, k) = (p.bm(), p.bn(), 512);
    let a = random_matrix(m, k, 71);
    let b = random_matrix(k, n, 72);
    let c0 = random_matrix(m, n, 73);
    let mut c = c0.clone();
    let err = DgemmRunner::new(Variant::Sched)
        .params(p)
        .run(1.0, &a, &b, 1.0, &mut c)
        .unwrap_err();
    assert!(
        matches!(&err, sw_dgemm::DgemmError::BadParams(msg) if msg.contains("pM = 32")),
        "{err}"
    );
    assert_eq!(c, c0);
}

#[test]
fn padded_arbitrary_dimensions_match_reference() {
    // Dimensions that are not multiples of anything: the padded runner
    // must still produce the exact GEMM on the visible window.
    for (m, n, k) in [
        (100usize, 50usize, 75usize),
        (130, 65, 17),
        (1, 1, 1),
        (127, 63, 129),
    ] {
        let a = random_matrix(m, k, 41);
        let b = random_matrix(k, n, 42);
        let c0 = random_matrix(m, n, 43);
        let mut c = c0.clone();
        DgemmRunner::new(Variant::Sched)
            .params(BlockingParams::test_small())
            .pad(true)
            .run(1.25, &a, &b, -0.5, &mut c)
            .unwrap_or_else(|e| panic!("{m}x{n}x{k}: {e}"));
        let mut expect = c0;
        dgemm_naive(1.25, &a, &b, -0.5, &mut expect);
        let tol = gemm_tolerance(&a, &b, 1.25).max(1e-12);
        assert!(
            c.max_abs_diff(&expect) <= tol,
            "{m}x{n}x{k}: error {} > {tol}",
            c.max_abs_diff(&expect)
        );
    }
}

#[test]
fn padding_no_op_on_aligned_dims() {
    let (m, n, k) = (128, 64, 128);
    let a = random_matrix(m, k, 51);
    let b = random_matrix(k, n, 52);
    let c0 = random_matrix(m, n, 53);
    let mut c1 = c0.clone();
    let mut c2 = c0;
    let r = DgemmRunner::new(Variant::Db).params(BlockingParams::test_small());
    r.clone().pad(true).run(1.0, &a, &b, 1.0, &mut c1).unwrap();
    r.run(1.0, &a, &b, 1.0, &mut c2).unwrap();
    assert_eq!(c1, c2, "padding must be the identity on aligned dimensions");
}

#[test]
fn transposed_operands_match_reference() {
    use sw_dgemm::{dgemm_ex, Op};
    let (m, n, k) = (96, 40, 72);
    let c0 = random_matrix(m, n, 63);
    for (opa, opb) in [
        (Op::NoTrans, Op::NoTrans),
        (Op::Trans, Op::NoTrans),
        (Op::NoTrans, Op::Trans),
        (Op::Trans, Op::Trans),
    ] {
        // Store each operand so that op(X) has the shape GEMM needs.
        let a = match opa {
            Op::NoTrans => random_matrix(m, k, 61),
            Op::Trans => random_matrix(k, m, 61),
        };
        let b = match opb {
            Op::NoTrans => random_matrix(k, n, 62),
            Op::Trans => random_matrix(n, k, 62),
        };
        let mut c = c0.clone();
        dgemm_ex(Variant::Sched, opa, opb, 1.5, &a, &b, 0.25, &mut c)
            .unwrap_or_else(|e| panic!("{opa:?}/{opb:?}: {e}"));
        // Reference on explicitly transposed copies.
        let t = |mtx: &Matrix| Matrix::from_fn(mtx.cols(), mtx.rows(), |r, cc| mtx.get(cc, r));
        let ae = if opa == Op::Trans { t(&a) } else { a.clone() };
        let be = if opb == Op::Trans { t(&b) } else { b.clone() };
        let mut expect = c0.clone();
        dgemm_naive(1.5, &ae, &be, 0.25, &mut expect);
        let tol = gemm_tolerance(&ae, &be, 1.5);
        assert!(
            c.max_abs_diff(&expect) <= tol,
            "{opa:?}/{opb:?}: error {}",
            c.max_abs_diff(&expect)
        );
    }
}

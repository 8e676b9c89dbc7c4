//! The public entry points.

use crate::abft::AbftPolicy;
use crate::diagnostics::{self, DiagInfo};
use crate::error::DgemmError;
use crate::lint;
use crate::padding::PadPlan;
use crate::params::BlockingParams;
use crate::plan::GemmPlan;
use crate::tuner::{self, TunePolicy};
use crate::variants::raw::{run_functional_raw, RawParams};
use crate::variants::resilient::{run_resilient, ResilienceCfg};
use crate::variants::shared::{run_functional, GemmIo};
use crate::variants::Variant;
use crate::Matrix;
use std::time::Duration;
use sw_faults::{FaultInjector, FaultSpec, FaultStats};
use sw_isa::EngineBackend;
use sw_sim::{CancelToken, CoreGroup, MeshTransport, RunStats};

/// Per-block runs the resilient path executes (first + recoveries)
/// before an uncorrectable block surfaces as an error.
const MAX_BLOCK_ATTEMPTS: u32 = 4;

/// Transposition operator of a BLAS GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the operand's transpose.
    Trans,
}

impl Op {
    /// Effective (rows, cols) of an operand under this op.
    pub fn dims(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            Op::NoTrans => (rows, cols),
            Op::Trans => (cols, rows),
        }
    }
}

/// What a functional run returns alongside the updated C matrix.
#[derive(Debug, Clone)]
pub struct DgemmReport {
    /// The variant that ran.
    pub variant: Variant,
    /// The validated plan (None for RAW, which has its own blocking).
    pub plan: Option<GemmPlan>,
    /// DMA / mesh traffic and wall time of the simulated run (every
    /// attempt's traffic, on the resilient path).
    pub stats: RunStats,
    /// Injection/recovery tallies when a fault plan was installed;
    /// `None` when the run had no injector.
    pub faults: Option<FaultStats>,
}

/// Configurable functional runner.
///
/// ```
/// use sw_dgemm::{DgemmRunner, Variant, gen};
///
/// let a = gen::random_matrix(128, 128, 1);
/// let b = gen::random_matrix(128, 64, 2);
/// let mut c = gen::random_matrix(128, 64, 3);
/// let report = DgemmRunner::new(Variant::Sched)
///     .params(sw_dgemm::BlockingParams::test_small())
///     .run(1.5, &a, &b, 0.5, &mut c)
///     .unwrap();
/// assert_eq!(report.variant, Variant::Sched);
/// ```
#[derive(Debug, Clone)]
pub struct DgemmRunner {
    variant: Variant,
    params: Option<BlockingParams>,
    raw_params: Option<RawParams>,
    pad: bool,
    faults: Option<FaultSpec>,
    abft: AbftPolicy,
    mesh_timeout: Option<Duration>,
    cancel: Option<CancelToken>,
    diag_tag: Option<String>,
    tune: TunePolicy,
}

impl DgemmRunner {
    /// A runner for the given variant with automatic blocking choice.
    pub fn new(variant: Variant) -> Self {
        DgemmRunner {
            variant,
            params: None,
            raw_params: None,
            pad: false,
            faults: None,
            abft: AbftPolicy::Off,
            mesh_timeout: None,
            cancel: None,
            diag_tag: None,
            tune: TunePolicy::Off,
        }
    }

    /// Sets the blocking-resolution policy for calls that did not pin
    /// [`Self::params`]: [`TunePolicy::CacheOnly`] consults the
    /// persistent tune cache, [`TunePolicy::Search`] additionally runs
    /// the staged autotuner on a miss and persists the winner. The
    /// default ([`TunePolicy::Off`]) keeps the legacy paper-then-test
    /// candidate list. A tuned blocking is used only when it divides
    /// the problem exactly; otherwise the legacy list is the fallback.
    pub fn tune(mut self, policy: TunePolicy) -> Self {
        self.tune = policy;
        self
    }

    /// Installs a cooperative cancellation token for the run. Firing
    /// the token (from any thread — a deadline watchdog, a service's
    /// shutdown path) poisons the run's barriers and releases every
    /// CPE blocked on the mesh, so the core group is freed promptly
    /// without waiting out the deadlock fuse ([`Self::mesh_timeout`]),
    /// and the run returns [`DgemmError::Cancelled`] with the token's
    /// reason.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Tags any diagnostics bundle this run emits with a caller
    /// discriminator (e.g. a request id), making concurrent failures
    /// attributable and their filenames collision-proof.
    pub fn diag_tag(mut self, tag: impl Into<String>) -> Self {
        self.diag_tag = Some(tag.into());
        self
    }

    /// Enables automatic zero padding: dimensions that are not
    /// multiples of the block factors are rounded up (see
    /// [`crate::padding`]), the aligned kernel runs, and the original
    /// window is returned — the MPE-side glue a production deployment
    /// would add around the paper's aligned-only kernel.
    pub fn pad(mut self, pad: bool) -> Self {
        self.pad = pad;
        self
    }

    /// Overrides the blocking of the data-sharing variants.
    pub fn params(mut self, p: BlockingParams) -> Self {
        self.params = Some(p);
        self
    }

    /// Overrides the blocking of the RAW baseline.
    pub fn raw_params(mut self, p: RawParams) -> Self {
        self.raw_params = Some(p);
        self
    }

    /// Installs a deterministic fault plan. The run switches to the
    /// resilient per-CG-block executor (data-sharing variants only;
    /// RAW has no recovery machinery and is rejected) and the report
    /// carries a [`FaultStats`] snapshot. A CPE that exhausts its DMA
    /// retry budget is marked failed and its tiles are remapped onto
    /// the surviving grid.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Sets the ABFT checksum policy (default [`AbftPolicy::Off`]).
    /// Any policy other than `Off` also routes the run through the
    /// resilient per-block executor.
    pub fn abft(mut self, policy: AbftPolicy) -> Self {
        self.abft = policy;
        self
    }

    /// Shortens the mesh deadlock fuse (how long a blocked broadcast
    /// or starved receive waits before the run aborts with
    /// [`DgemmError::MeshDeadlock`]). Tests of wedge scenarios set
    /// this to keep failure paths fast.
    pub fn mesh_timeout(mut self, timeout: Duration) -> Self {
        self.mesh_timeout = Some(timeout);
        self
    }

    /// Runs `C = α·A·B + β·C` on a fresh simulated core group.
    pub fn run(
        &self,
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c: &mut Matrix,
    ) -> Result<DgemmReport, DgemmError> {
        let mut cg = CoreGroup::new();
        self.run_on(&mut cg, alpha, a, b, beta, c)
    }

    /// Runs `C = α·A·B + β·C` on a caller-owned core group. The
    /// operands are installed for the run and removed afterwards —
    /// success or failure — so the same group can run further DGEMMs,
    /// including after a structured failure such as
    /// [`DgemmError::MeshDeadlock`] (the persistent CPE pool and a
    /// fresh per-run mesh make recovery a non-event).
    pub fn run_on(
        &self,
        cg: &mut CoreGroup,
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c: &mut Matrix,
    ) -> Result<DgemmReport, DgemmError> {
        let (m, k) = (a.rows(), a.cols());
        let n = b.cols();
        if b.rows() != k || c.rows() != m || c.cols() != n {
            return Err(DgemmError::BadDims(format!(
                "shape mismatch: A {m}x{k}, B {}x{n}, C {}x{}",
                b.rows(),
                c.rows(),
                c.cols()
            )));
        }
        if self.pad {
            let plan = self.pad_plan(m, n, k)?;
            if !plan.is_identity() {
                let (pm, pn, pk) = plan.padded;
                let pa = PadPlan::embed(a, pm, pk);
                let pb = PadPlan::embed(b, pk, pn);
                let mut pc = PadPlan::embed(c, pm, pn);
                let inner = DgemmRunner {
                    pad: false,
                    ..self.clone()
                };
                let report = inner.run_on(cg, alpha, &pa, &pb, beta, &mut pc)?;
                *c = PadPlan::extract(&pc, m, n);
                return Ok(report);
            }
        }
        if let Some(t) = self.mesh_timeout {
            cg.set_mesh_timeout(t);
        }
        cg.set_cancel_token(self.cancel.clone());
        // A fresh black box per dispatch: the recorder's rings, clocks
        // and busy ledgers cover exactly this run, so a bundle emitted
        // on failure is not polluted by earlier runs on the same group.
        cg.flight().reset();
        let ia = cg.mem.install(a.clone())?;
        let ib = match cg.mem.install(b.clone()) {
            Ok(id) => id,
            Err(e) => {
                let _ = cg.mem.remove(ia);
                return Err(e.into());
            }
        };
        let ic = match cg.mem.install(c.clone()) {
            Ok(id) => id,
            Err(e) => {
                let _ = cg.mem.remove(ia);
                let _ = cg.mem.remove(ib);
                return Err(e.into());
            }
        };
        let io = GemmIo {
            a: ia,
            b: ib,
            c: ic,
        };
        let mut diag = DiagInfo {
            tag: self.diag_tag.clone(),
            ..DiagInfo::default()
        };
        let result = self
            .dispatch(cg, io, m, n, k, alpha, beta, &mut diag)
            .and_then(|report| Ok((report, cg.mem.extract(io.c)?)));
        let _ = cg.mem.remove(io.a);
        let _ = cg.mem.remove(io.b);
        let _ = cg.mem.remove(io.c);
        cg.set_cancel_token(None);
        match result {
            Ok((report, out)) => {
                *c = out;
                Ok(report)
            }
            Err(err) => {
                // Post-mortem: serialize the black box into a
                // diagnostics bundle. Best-effort — the run's own
                // error always wins over any emission problem.
                diagnostics::emit_on_error(cg, &err, self.variant, (m, n, k), &diag);
                Err(err)
            }
        }
    }

    /// Variant dispatch over installed operands: fast path, or the
    /// resilient per-block executor when a fault plan or an ABFT
    /// policy is set.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        cg: &mut CoreGroup,
        io: GemmIo,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
        diag: &mut DiagInfo,
    ) -> Result<DgemmReport, DgemmError> {
        let resilient = self.faults.is_some() || self.abft != AbftPolicy::Off;
        match self.variant {
            Variant::Raw => {
                if resilient {
                    return Err(DgemmError::BadParams(
                        "fault injection and ABFT require a data-sharing variant \
                         (PE/ROW/DB/SCHED); RAW has no recovery machinery"
                            .to_string(),
                    ));
                }
                let rp = self
                    .raw_params
                    .map_or_else(|| pick_raw_params(m, n, k), Ok)?;
                lint::warn(&lint::lint_raw_cached(rp));
                let stats = run_functional_raw(cg, m, n, k, rp, io, alpha, beta)?;
                Ok(DgemmReport {
                    variant: self.variant,
                    plan: None,
                    stats,
                    faults: None,
                })
            }
            v => {
                let plan = match self.params {
                    Some(p) => GemmPlan::new(m, n, k, p, v.double_buffered())?,
                    None => {
                        let tuned = tuner::resolve(
                            self.tune,
                            v,
                            m,
                            n,
                            k,
                            MeshTransport::default(),
                            EngineBackend::default(),
                        )
                        .and_then(|p| GemmPlan::new(m, n, k, p, v.double_buffered()).ok());
                        match tuned {
                            Some(plan) => plan,
                            None => pick_plan(v, m, n, k)?,
                        }
                    }
                };
                diag.plan = Some(plan);
                lint::warn(&lint::lint_shared_cached(v, &plan.params));
                if !resilient {
                    let stats = run_functional(cg, &plan, v.mapping(), io, alpha, beta)?;
                    return Ok(DgemmReport {
                        variant: self.variant,
                        plan: Some(plan),
                        stats,
                        faults: None,
                    });
                }
                let injector = self.faults.map(FaultInjector::new);
                cg.set_fault_injector(injector.clone());
                let cfg = ResilienceCfg {
                    injector: injector.clone(),
                    abft: self.abft,
                    max_attempts: MAX_BLOCK_ATTEMPTS,
                };
                let res = run_resilient(cg, &plan, v.mapping(), io, alpha, beta, &cfg);
                cg.set_fault_injector(None);
                // Counters are snapshotted and published even when the
                // run failed — the failure path is exactly where the
                // fault telemetry matters.
                let faults = injector.as_ref().map(|i| i.stats());
                diag.faults = faults;
                if let Some(fs) = &faults {
                    fs.publish(sw_probe::metrics::global());
                }
                Ok(DgemmReport {
                    variant: self.variant,
                    plan: Some(plan),
                    stats: res?,
                    faults,
                })
            }
        }
    }
}

/// Full BLAS-style interface with transposition operators:
/// `C = α·op(A)·op(B) + β·C`.
///
/// The paper implements the non-transposed case only; the kernel's
/// column-major blocking assumes it. Like a real deployment, the
/// transposed cases are handled by MPE-side packing: the operand is
/// transposed into a temporary before the aligned kernel runs. The
/// packing cost is host-side and does not perturb the simulated
/// statistics.
#[allow(clippy::too_many_arguments)] // BLAS dgemm signature
pub fn dgemm_ex(
    variant: Variant,
    opa: Op,
    opb: Op,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) -> Result<DgemmReport, DgemmError> {
    let transpose = |m: &Matrix| Matrix::from_fn(m.cols(), m.rows(), |r, c| m.get(c, r));
    let at;
    let bt;
    let a_eff = match opa {
        Op::NoTrans => a,
        Op::Trans => {
            at = transpose(a);
            &at
        }
    };
    let b_eff = match opb {
        Op::NoTrans => b,
        Op::Trans => {
            bt = transpose(b);
            &bt
        }
    };
    DgemmRunner::new(variant)
        .pad(true)
        .run(alpha, a_eff, b_eff, beta, c)
}

/// One-call DGEMM with automatic blocking: tries the paper's
/// production blocking first, then the test-scale blocking for small
/// problems.
pub fn dgemm(
    variant: Variant,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) -> Result<DgemmReport, DgemmError> {
    DgemmRunner::new(variant).run(alpha, a, b, beta, c)
}

impl DgemmRunner {
    /// Chooses the padding target: the explicitly-set blocking, or the
    /// automatic candidate with the least padded overhead.
    fn pad_plan(&self, m: usize, n: usize, k: usize) -> Result<PadPlan, DgemmError> {
        if self.variant == Variant::Raw {
            let candidates = match self.raw_params {
                Some(p) => vec![p],
                None => vec![RawParams::paper(), RawParams::test_small()],
            };
            let mut best: Option<PadPlan> = None;
            for p in candidates {
                p.validate()?;
                let plan = PadPlan::new(m, n, k, 8 * p.pm, 8 * p.pn, p.kc)?;
                if best.as_ref().is_none_or(|b| plan.overhead() < b.overhead()) {
                    best = Some(plan);
                }
            }
            Ok(best.expect("at least one candidate"))
        } else {
            let candidates = match self.params {
                Some(p) => vec![p],
                None => vec![self.variant.paper_params(), self.variant.test_params()],
            };
            let mut best: Option<PadPlan> = None;
            for p in candidates {
                p.validate(self.variant.double_buffered())?;
                let plan = PadPlan::new(m, n, k, p.bm(), p.bn(), p.bk())?;
                if best.as_ref().is_none_or(|b| plan.overhead() < b.overhead()) {
                    best = Some(plan);
                }
            }
            Ok(best.expect("at least one candidate"))
        }
    }
}

fn pick_plan(v: Variant, m: usize, n: usize, k: usize) -> Result<GemmPlan, DgemmError> {
    let candidates = [v.paper_params(), v.test_params()];
    let mut last_err = None;
    for p in candidates {
        match GemmPlan::new(m, n, k, p, v.double_buffered()) {
            Ok(plan) => return Ok(plan),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one candidate tried"))
}

fn pick_raw_params(m: usize, n: usize, k: usize) -> Result<RawParams, DgemmError> {
    let candidates = [RawParams::paper(), RawParams::test_small()];
    let mut last_err = None;
    for p in candidates {
        match p.validate_dims(m, n, k) {
            Ok(()) => return Ok(p),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one candidate tried"))
}

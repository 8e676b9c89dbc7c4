//! `serve_abft`: a closed loop against `Service::start(ServeConfig::
//! default())`, keeping one request in flight per host core.
//!
//! Twelve problems of the `gemm_functional` kind, four of them
//! (chosen by the seed) with `AbftPolicy::Correct`, so each of those
//! runs as many short per-CG-block runs instead of one long one.
//! Blocking is unpinned and resolves through `TunePolicy::CacheOnly`
//! from a tune cache the set-up fills. On top of the functional layers
//! this adds admission, leasing, retry and ABFT verification.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sw_dgemm::gen::SplitMix64;
use sw_dgemm::variants::raw::RawParams;
use sw_dgemm::{tuner, AbftPolicy, DgemmRunner, Matrix, TunePolicy, Variant};
use sw_serve::{GemmRequest, ServeConfig, ServeOutcome, Service, Ticket};
use sw_sim::{CoreGroup, MeshTransport};

use crate::functional::{
    dag_cycles, shuffled, sim_layers, sim_runs, sim_summary, Problem, SimStats,
};
use crate::measure::median;
use crate::trace::Tracer;
use crate::{Acc, Ledger, Sim, Workload};

/// The mix, by host cost alone on a core group: three of ~50 ms, five
/// of ~90 ms, three of ~170 ms and one of ~400 ms, so the median and
/// p80 fall inside a class rather than on a boundary between two.
/// Every shape's tuned blocking runs functionally; see `README.md`
/// for the shapes left out and why.
const SHAPES: [(Variant, (usize, usize, usize)); 12] = [
    (Variant::Pe, (128, 128, 128)),
    (Variant::Row, (128, 64, 256)),
    (Variant::Sched, (256, 64, 128)),
    (Variant::Row, (128, 64, 512)),
    (Variant::Db, (256, 128, 128)),
    (Variant::Pe, (128, 128, 256)),
    (Variant::Sched, (128, 256, 128)),
    (Variant::Db, (256, 64, 256)),
    (Variant::Db, (256, 128, 256)),
    (Variant::Sched, (128, 64, 1024)),
    (Variant::Row, (128, 512, 128)),
    (Variant::Pe, (128, 512, 256)),
];
/// The cost classes of [`SHAPES`] and how many of each verify by ABFT:
/// four of twelve, one request in three.
const CLASSES: [(std::ops::Range<usize>, usize); 4] =
    [(0..3, 1), (3..8, 2), (8..11, 1), (11..12, 0)];
/// Survivors the set-up's tuner search times per shape.
const TUNE_TOP_K: usize = 4;

struct Served {
    problem: Problem,
    abft: AbftPolicy,
    /// Result and simulated statistics of a direct `run_on` with the
    /// service's runner settings; every served result must equal it
    /// bit for bit.
    direct: Option<(Matrix, SimStats)>,
    /// Host milliseconds of the direct `run_on`.
    direct_ms: f64,
}

struct InFlight {
    idx: usize,
    submit_at: Instant,
    submit_dur: Duration,
    ticket: Ticket,
}

pub struct ServeAbft {
    service: Arc<Service>,
    rng: SplitMix64,
    reqs: Vec<Served>,
    dag: Vec<u64>,
    acc: Acc,
}

impl Drop for ServeAbft {
    fn drop(&mut self) {
        self.service.shutdown();
    }
}

fn runner(variant: Variant, abft: AbftPolicy) -> DgemmRunner {
    let cfg = ServeConfig::default();
    DgemmRunner::new(variant)
        .abft(abft)
        .tune(cfg.tune)
        .mesh_timeout(cfg.mesh_timeout)
}

impl Workload for ServeAbft {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed ^ 0x7365_7276_655f_6162);
        // Fill the tune cache the service reads, and the lint cache
        // for each winner.
        for (v, (m, n, k)) in SHAPES {
            let policy = TunePolicy::Search { top_k: TUNE_TOP_K };
            let backend = sw_dgemm::EngineBackend::default();
            let p = tuner::resolve(policy, v, m, n, k, MeshTransport::default(), backend)
                .ok_or_else(|| format!("no tuned blocking for {v} {m}x{n}x{k}"))?;
            if sw_dgemm::lint_variant(v, &p, RawParams::paper()).error_count() > 0 {
                return Err(format!("{v} fails lint at tuned {p:?}"));
            }
        }
        let service = Service::start(ServeConfig::default());
        // One small request per worker, concurrently, so every core
        // group spawns its CPE pool.
        let warm = Arc::new(sw_dgemm::gen::random_matrix(128, 128, rng.next_u64()));
        let tickets: Vec<Ticket> = (0..ServeConfig::default().workers)
            .map(|_| {
                let req = GemmRequest {
                    variant: Variant::Pe,
                    ..GemmRequest::new(0, warm.clone(), warm.clone(), warm.clone())
                };
                service
                    .submit(req)
                    .map_err(|e| format!("warm-up refused: {e}"))
            })
            .collect::<Result<_, _>>()?;
        for t in tickets {
            if let o @ (ServeOutcome::Failed { .. } | ServeOutcome::Cancelled { .. }) = t.wait() {
                return Err(format!("warm-up request: {o:?}"));
            }
        }
        // A third of the requests, chosen by the seed within each cost
        // class, verify by ABFT.
        let mut abft = [AbftPolicy::Off; SHAPES.len()];
        for (class, picks) in CLASSES {
            for &j in shuffled(&mut rng, class.len()).iter().take(picks) {
                abft[class.start + j] = AbftPolicy::Correct;
            }
        }
        let reqs = SHAPES
            .iter()
            .zip(abft)
            .map(|(&(v, dims), abft)| {
                // The runner resolves the blocking; `prepare` records
                // the one the direct run used.
                let problem = Problem::new(&mut rng, v, v.test_params(), dims);
                Served {
                    abft,
                    problem,
                    direct: None,
                    direct_ms: 0.0,
                }
            })
            .collect();
        Ok(ServeAbft {
            service,
            rng,
            reqs,
            dag: Vec::new(),
            acc: Acc::default(),
        })
    }

    fn prepare(&mut self) -> Result<(), String> {
        let mut cg = CoreGroup::new();
        for r in &mut self.reqs {
            let p = &mut r.problem;
            p.compute_reference();
            let run = runner(p.variant, r.abft);
            let mut times = Vec::new();
            for _ in 0..2 {
                let mut c = (*p.c0).clone();
                let t = Instant::now();
                let report = run
                    .run_on(&mut cg, p.alpha, &p.a, &p.b, p.beta, &mut c)
                    .map_err(|e| format!("direct {} {:?}: {e}", p.variant, p.dims()))?;
                times.push(t.elapsed().as_secs_f64() * 1e3);
                p.check(&c)?;
                let stats = SimStats::of(&cg, &report.stats);
                if let Some(plan) = report.plan {
                    p.params = plan.params;
                }
                match &r.direct {
                    Some((c1, s1)) if c1.as_slice() != c.as_slice() || *s1 != stats => {
                        return Err(format!(
                            "direct {} {:?} not deterministic",
                            p.variant,
                            p.dims()
                        ))
                    }
                    Some(_) => {}
                    None => r.direct = Some((c, stats)),
                }
            }
            r.direct_ms = median(&times);
        }
        let problems: Vec<&Problem> = self.reqs.iter().map(|r| &r.problem).collect();
        self.dag = dag_cycles(&problems)?;
        Ok(())
    }

    fn round_ops(&self) -> usize {
        self.reqs.len()
    }

    fn run_phase(&mut self, seconds: f64, led: &mut Ledger, mut tr: Option<&mut Tracer>) {
        let depth = std::thread::available_parallelism().map_or(2, |n| n.get());
        let start = Instant::now();
        let retries0 = serve_retries();
        let runs0 = sim_runs();
        let mut completed = 0u64;
        let mut order: VecDeque<usize> = VecDeque::new();
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        let mut stopping = false;
        loop {
            while !stopping && inflight.len() < depth {
                if order.is_empty() {
                    // A round ends: stop at a round boundary once the
                    // time is up, so every run serves whole rounds.
                    if completed > 0 && start.elapsed().as_secs_f64() >= seconds {
                        stopping = true;
                        break;
                    }
                    order.extend(shuffled(&mut self.rng, self.reqs.len()));
                }
                let idx = order.pop_front().expect("refilled above");
                let (p, abft) = (&self.reqs[idx].problem, self.reqs[idx].abft);
                let req = GemmRequest {
                    alpha: p.alpha,
                    beta: p.beta,
                    variant: p.variant,
                    abft,
                    ..GemmRequest::new(0, p.a.clone(), p.b.clone(), p.c0.clone())
                };
                let submit_at = Instant::now();
                match self.service.submit(req) {
                    Ok(ticket) => inflight.push_back(InFlight {
                        idx,
                        submit_at,
                        submit_dur: submit_at.elapsed(),
                        ticket,
                    }),
                    Err(e) => led.fail(format!("request refused: {e}")),
                }
            }
            let Some(f) = inflight.pop_front() else { break };
            let outcome = f.ticket.wait();
            match self.complete(&f, outcome, tr.as_deref_mut()) {
                Ok(lat_ms) => {
                    completed += 1;
                    led.ok(lat_ms);
                }
                Err(e) => led.fail(e),
            }
        }
        if tr.is_some() {
            let per_req = |n: u64| n as f64 / completed.max(1) as f64;
            self.acc
                .add("serve.retries", per_req(serve_retries() - retries0));
            self.acc.add("sim.runs_per_op", per_req(sim_runs() - runs0));
        }
    }

    fn sim(&self) -> Sim {
        let problems: Vec<&Problem> = self.reqs.iter().map(|r| &r.problem).collect();
        sim_summary(&problems, &self.stats(), &self.dag)
    }

    fn acc(&self) -> &Acc {
        &self.acc
    }

    fn finish_layers(&mut self) {
        let stats = self.stats();
        sim_layers(&stats, &mut self.acc);
    }
}

impl ServeAbft {
    fn stats(&self) -> Vec<Option<SimStats>> {
        self.reqs
            .iter()
            .map(|r| r.direct.as_ref().map(|d| d.1))
            .collect()
    }

    /// Checks a resolved request; returns its client-side latency
    /// (submit call plus admission-to-completion) in milliseconds.
    fn complete(
        &mut self,
        f: &InFlight,
        outcome: ServeOutcome,
        tr: Option<&mut Tracer>,
    ) -> Result<f64, String> {
        let r = &self.reqs[f.idx];
        let what = || {
            format!(
                "{} {:?} abft={:?}",
                r.problem.variant,
                r.problem.dims(),
                r.abft
            )
        };
        let (c, attempts, latency) = match outcome {
            ServeOutcome::Completed {
                c,
                attempts,
                latency,
            } => (c, attempts, latency),
            other => return Err(format!("{}: {other:?}", what())),
        };
        let Some((expected, _)) = &r.direct else {
            return Err(format!("{}: no direct result", what()));
        };
        if c.as_slice() != expected.as_slice() {
            r.problem.check(&c)?;
            return Err(format!("{}: differs from a direct run_on", what()));
        }
        let lat = f.submit_dur + latency;
        if let Some(tr) = tr {
            tr.next_op();
            let end = f.submit_at + lat;
            let root = tr.record("op.request", None, f.submit_at, end);
            let admitted = f.submit_at + f.submit_dur;
            tr.record("serve.submit", Some(root), f.submit_at, admitted);
            tr.record("serve.service", Some(root), admitted, end);
            let direct_ms = r.direct_ms;
            self.acc
                .add("serve.submit_us", f.submit_dur.as_secs_f64() * 1e6);
            self.acc
                .add("serve.overhead_ms", latency.as_secs_f64() * 1e3 - direct_ms);
            self.acc.add("serve.attempts_per_req", f64::from(attempts));
        }
        Ok(lat.as_secs_f64() * 1e3)
    }
}

fn serve_retries() -> u64 {
    sw_probe::metrics::global().counter("serve.retries").get()
}

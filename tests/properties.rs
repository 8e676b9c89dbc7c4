//! Property-based tests on the core invariants, driven by hand-rolled
//! seeded generators (`sw_dgemm::gen::SplitMix64`) instead of an
//! external property-testing framework. Every case derives entirely
//! from a deterministic seed, so failures reproduce exactly; assertion
//! messages carry the case seed.

use sw26010_dgemm::dgemm::mapping::{row_mode_global_row, row_mode_owner};
use sw26010_dgemm::dgemm::reference::{dgemm_chunked_fma, dgemm_naive, gemm_tolerance};
use sw26010_dgemm::isa::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
use sw26010_dgemm::isa::sched::list_schedule;
use sw26010_dgemm::isa::{Machine, NullComm};
use sw26010_dgemm::mem::{Ldm, MainMemory};
use sw26010_dgemm::sim::{Dag, Resource};
use sw_dgemm::gen::{random_matrix, SplitMix64};

#[path = "support/seed_engine.rs"]
mod seed_engine;

/// Runs `body` once per case with a per-case RNG; panics carry the
/// case index so a failure is reproducible by construction.
fn cases(n: u64, test_salt: u64, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..n {
        let mut rng = SplitMix64::new(test_salt.wrapping_mul(0x9E37_79B9).wrapping_add(case));
        body(&mut rng);
    }
}

/// The ROW_MODE interleave is a bijection on {0..128} × columns
/// (exhaustive over the old sampled domain).
#[test]
fn row_mode_interleave_bijective() {
    for g in 0..1024 {
        let (c, l) = row_mode_owner(g);
        assert!(c < 8, "g={g}");
        assert_eq!(row_mode_global_row(l, c), g, "g={g}");
    }
}

/// LDM bump allocation never overlaps, never exceeds capacity, and
/// always returns 128 B-aligned buffers.
#[test]
fn ldm_allocations_disjoint_and_aligned() {
    cases(64, 1, |rng| {
        let n_allocs = rng.range_usize(1, 20);
        let mut ldm = Ldm::new();
        let mut taken: Vec<(usize, usize)> = Vec::new();
        for _ in 0..n_allocs {
            let len = rng.range_usize(1, 700);
            match ldm.alloc(len) {
                Ok(buf) => {
                    assert_eq!(buf.len(), len);
                    assert_eq!(buf.offset() % 16, 0);
                    assert!(buf.offset() + buf.len() <= 8192);
                    for &(o, l) in &taken {
                        assert!(
                            buf.offset() >= o + l || o >= buf.offset() + buf.len(),
                            "overlap: ({}, {}) vs ({o}, {l})",
                            buf.offset(),
                            buf.len()
                        );
                    }
                    taken.push((buf.offset(), buf.len()));
                }
                Err(_) => {
                    // Once full, it must stay full for this size.
                    assert!(ldm.free_doubles() < len);
                }
            }
        }
    });
}

/// The chunked-FMA reference agrees with the naive reference within the
/// forward-error envelope for random shapes, chunkings and scalars.
#[test]
fn chunked_reference_within_tolerance() {
    cases(24, 2, |rng| {
        let m = 4 * rng.range_usize(1, 12);
        let n = 4 * rng.range_usize(1, 12);
        let chunk = [4usize, 8, 16][rng.range_usize(0, 3)];
        let k = chunk * rng.range_usize(1, 6);
        let alpha = rng.range_f64(-4.0, 4.0);
        let beta = rng.range_f64(-4.0, 4.0);
        let seed = rng.next_u64() % 1000;
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 1);
        let mut c1 = random_matrix(m, n, seed + 2);
        let mut c2 = c1.clone();
        dgemm_naive(alpha, &a, &b, beta, &mut c1);
        dgemm_chunked_fma(alpha, &a, &b, beta, &mut c2, chunk);
        let tol = gemm_tolerance(&a, &b, alpha) * (1.0 + beta.abs());
        assert!(
            c1.max_abs_diff(&c2) <= tol,
            "m={m} n={n} k={k} chunk={chunk}"
        );
    });
}

/// The list scheduler preserves kernel semantics for arbitrary shapes
/// (numerics must match the unscheduled stream bitwise) and never slows
/// a stream down.
#[test]
fn list_scheduler_preserves_semantics() {
    cases(12, 3, |rng| {
        let pm = 16 * rng.range_usize(1, 3);
        let pn = 4 * rng.range_usize(1, 4);
        let pk = [2usize, 5, 8][rng.range_usize(0, 3)];
        let alpha = rng.range_f64(-2.0, 2.0);
        let seed = rng.next_u64() % 100;
        let cfg = BlockKernelCfg {
            pm,
            pn,
            pk,
            a_src: Operand::Ldm,
            b_src: Operand::Ldm,
            a_base: 0,
            b_base: 2048,
            c_base: 4096,
            alpha_addr: 8000,
        };
        let naive = gen_block_kernel(&cfg, KernelStyle::Naive);
        let auto = list_schedule(&naive);
        let mk_ldm = || {
            let mut v = random_matrix(8192, 1, seed).into_vec();
            v[8000] = alpha;
            v
        };
        let mut l1 = mk_ldm();
        let mut l2 = mk_ldm();
        let mut comm = NullComm;
        let r1 = Machine::new(&mut l1, &mut comm).run(&naive);
        let r2 = Machine::new(&mut l2, &mut comm).run(&auto);
        assert_eq!(l1, l2, "pm={pm} pn={pn} pk={pk}");
        assert!(
            r2.cycles <= r1.cycles,
            "scheduling must never slow a stream down: {} vs {}",
            r2.cycles,
            r1.cycles
        );
    });
}

/// Timing-engine sanity: the makespan is at least the critical serial
/// resource demand and at most the fully serial sum.
#[test]
fn dag_makespan_bounds() {
    cases(64, 4, |rng| {
        let n_tasks = rng.range_usize(1, 40);
        let mut dag = Dag::new();
        let mut total = 0u64;
        let mut dma = 0u64;
        let mut cpes = 0u64;
        let mut prev = None;
        for i in 0..n_tasks {
            let resource = if rng.range_usize(0, 2) == 0 {
                Resource::Dma
            } else {
                Resource::Cpes
            };
            let d = rng.range_usize(1, 1000) as u64;
            match resource {
                Resource::Dma => dma += d,
                Resource::Cpes => cpes += d,
                _ => {}
            }
            total += d;
            // Chain every third task to create dependence structure.
            let deps: Vec<_> = if i % 3 == 0 {
                prev.into_iter().collect()
            } else {
                vec![]
            };
            prev = Some(dag.task(resource, d, &deps, "t"));
        }
        let r = dag.schedule();
        assert!(r.makespan_cycles <= total);
        assert!(r.makespan_cycles >= dma.max(cpes));
        assert_eq!(r.dma_busy_cycles, dma);
        assert_eq!(r.cpes_busy_cycles, cpes);
    });
}

/// Main-memory install/extract round-trips arbitrary matrices.
#[test]
fn main_memory_roundtrip() {
    cases(32, 5, |rng| {
        let rows = rng.range_usize(1, 64);
        let cols = rng.range_usize(1, 64);
        let m = random_matrix(rows, cols, rng.next_u64() % 1000);
        let mut mem = MainMemory::new();
        let id = mem.install(m.clone()).unwrap();
        assert_eq!(mem.extract(id).unwrap(), m);
    });
}

/// Matrix max_abs_diff is a metric-ish: symmetric and zero iff equal.
#[test]
fn matrix_diff_properties() {
    cases(32, 6, |rng| {
        let rows = rng.range_usize(1, 16);
        let cols = rng.range_usize(1, 16);
        let seed = rng.next_u64() % 100;
        let a = random_matrix(rows, cols, seed);
        let b = random_matrix(rows, cols, seed + 1);
        assert_eq!(a.max_abs_diff(&b), b.max_abs_diff(&a));
        assert_eq!(a.max_abs_diff(&a), 0.0);
    });
}

/// End-to-end: the SCHED variant matches the naive host reference for
/// random block-aligned shapes and scalars. (The full functional
/// simulator is expensive; fewer cases.)
#[test]
fn functional_sched_random_shapes() {
    cases(6, 7, |rng| {
        let p = sw_dgemm::BlockingParams::test_small();
        let m = p.bm() * rng.range_usize(1, 3);
        let n = p.bn() * rng.range_usize(1, 3);
        let k = p.bk() * rng.range_usize(1, 3);
        let alpha = rng.range_f64(-2.0, 2.0);
        let beta = rng.range_f64(-2.0, 2.0);
        let seed = rng.next_u64() % 1000;
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 1);
        let mut c = random_matrix(m, n, seed + 2);
        let mut expect = c.clone();
        sw_dgemm::DgemmRunner::new(sw_dgemm::Variant::Sched)
            .params(p)
            .run(alpha, &a, &b, beta, &mut c)
            .unwrap();
        dgemm_naive(alpha, &a, &b, beta, &mut expect);
        let tol = gemm_tolerance(&a, &b, alpha) * (1.0 + beta.abs());
        assert!(c.max_abs_diff(&expect) <= tol, "m={m} n={n} k={k}");
    });
}

/// The software-emulated cache is transparent: any access sequence
/// reads the same values as direct memory access, and after a flush,
/// main memory reflects all writes.
#[test]
fn software_cache_is_transparent() {
    cases(32, 8, |rng| {
        use sw26010_dgemm::mem::SoftCache;
        let lines = rng.range_usize(1, 8);
        let n_ops = rng.range_usize(1, 60);
        let seed = rng.next_u64() % 100;
        let mut mem = MainMemory::new();
        let m0 = random_matrix(64, 8, seed);
        let mat = mem.install(m0.clone()).unwrap();
        let mut shadow = m0;
        let mut ldm = Ldm::new();
        let buf = ldm.alloc(lines * 16).unwrap();
        let mut cache = SoftCache::new(&mem, mat, buf).unwrap();
        for _ in 0..n_ops {
            let r = rng.range_usize(0, 64);
            let c = rng.range_usize(0, 8);
            if rng.range_usize(0, 2) == 0 {
                let v = rng.range_f64(-100.0, 100.0);
                cache.write(&mem, &mut ldm, r, c, v).unwrap();
                shadow.set(r, c, v);
            } else {
                let got = cache.read(&mem, &mut ldm, r, c).unwrap();
                assert_eq!(got, shadow.get(r, c), "r={r} c={c}");
            }
        }
        cache.flush(&mem, &ldm).unwrap();
        assert_eq!(mem.extract(mat).unwrap(), shadow);
    });
}

/// ROW_MODE get followed by ROW_MODE put is the identity for any
/// aligned region, for every mesh column.
#[test]
fn row_mode_roundtrip_property() {
    cases(16, 9, |rng| {
        use sw26010_dgemm::mem::dma::{row_get, row_put, MatRegion};
        let rows = 16 * rng.range_usize(1, 6);
        let cols = rng.range_usize(1, 6);
        let col0 = rng.range_usize(0, 3);
        let seed = rng.next_u64() % 100;
        let src = random_matrix(rows.max(128), 8, seed);
        let mut mem = MainMemory::new();
        let a = mem.install(src.clone()).unwrap();
        let b = mem
            .install(sw_dgemm::Matrix::zeros(src.rows(), src.cols()))
            .unwrap();
        let region_a = MatRegion::new(a, 0, col0, rows, cols);
        let region_b = MatRegion::new(b, 0, col0, rows, cols);
        for mesh_col in 0..8 {
            let mut ldm = Ldm::new();
            let buf = ldm.alloc(rows * cols / 8).unwrap();
            row_get(&mem, region_a, mesh_col, &mut ldm, buf).unwrap();
            row_put(&mem, region_b, mesh_col, &ldm, buf).unwrap();
        }
        let out = mem.extract(b).unwrap();
        for c in col0..col0 + cols {
            for r in 0..rows {
                assert_eq!(out.get(r, c), src.get(r, c), "r={r} c={c}");
            }
        }
    });
}

/// Padding embeds/extracts are lossless and zero-fill the frame.
#[test]
fn padding_embed_extract() {
    cases(32, 10, |rng| {
        use sw_dgemm::padding::PadPlan;
        let rows = rng.range_usize(1, 20);
        let cols = rng.range_usize(1, 20);
        let pr = rng.range_usize(0, 10);
        let pc = rng.range_usize(0, 10);
        let m = random_matrix(rows, cols, rng.next_u64() % 100);
        let e = PadPlan::embed(&m, rows + pr, cols + pc);
        assert_eq!(PadPlan::extract(&e, rows, cols), m.clone());
        // Frame is zero.
        for c in 0..cols + pc {
            for r in 0..rows + pr {
                if r >= rows || c >= cols {
                    assert_eq!(e.get(r, c), 0.0);
                }
            }
        }
    });
}

/// Binary encode/decode is a bijection over random well-formed
/// instructions.
#[test]
fn instruction_encoding_roundtrip() {
    use sw26010_dgemm::isa::encoding::{decode, encode};
    use sw26010_dgemm::isa::instr::{Instr, Net};
    use sw26010_dgemm::isa::{IReg, VReg};
    cases(256, 11, |rng| {
        let ir = |r: u8| IReg(r % 8);
        let rd = rng.range_usize(0, 32) as u8;
        let ra = rng.range_usize(0, 32) as u8;
        let rb = rng.range_usize(0, 32) as u8;
        let rc_ = rng.range_usize(0, 32) as u8;
        let disp = rng.range_usize(0, 16384) as i64 - 8192;
        let target = rng.range_usize(0, 65536);
        let i = match rng.range_usize(0, 15) {
            0 => Instr::Vmad {
                a: VReg(ra),
                b: VReg(rb),
                c: VReg(rc_),
                d: VReg(rd),
            },
            1 => Instr::Vldd {
                d: VReg(rd),
                base: ir(ra),
                off: disp,
            },
            2 => Instr::Vstd {
                s: VReg(rd),
                base: ir(ra),
                off: disp,
            },
            3 => Instr::Ldde {
                d: VReg(rd),
                base: ir(ra),
                off: disp,
            },
            4 => Instr::Vldr {
                d: VReg(rd),
                base: ir(ra),
                off: disp,
                net: Net::Row,
            },
            5 => Instr::Vldr {
                d: VReg(rd),
                base: ir(ra),
                off: disp,
                net: Net::Col,
            },
            6 => Instr::Lddec {
                d: VReg(rd),
                base: ir(ra),
                off: disp,
                net: Net::Row,
            },
            7 => Instr::Lddec {
                d: VReg(rd),
                base: ir(ra),
                off: disp,
                net: Net::Col,
            },
            8 => Instr::Getr { d: VReg(rd) },
            9 => Instr::Getc { d: VReg(rd) },
            10 => Instr::Vclr { d: VReg(rd) },
            11 => Instr::Addl {
                d: ir(rd),
                s: ir(ra),
                imm: disp,
            },
            12 => Instr::Setl {
                d: ir(rd),
                imm: disp,
            },
            13 => Instr::Bne { s: ir(rd), target },
            _ => Instr::Nop,
        };
        let w = encode(&i).unwrap();
        assert_eq!(decode(w).unwrap(), i);
    });
}

/// The CG-level traffic formula of §III-C.1 is exact against a direct
/// walk of Algorithm 1's loads/stores.
#[test]
fn cg_traffic_formula_exact() {
    cases(32, 12, |rng| {
        use sw_dgemm::model::cg_traffic_elements;
        let (bm, bn, bk) = (128usize, 256usize, 768usize);
        let m = bm * rng.range_usize(1, 6);
        let n = bn * rng.range_usize(1, 6);
        let k = bk * rng.range_usize(1, 6);
        // Walk Algorithm 1: per (j, l): B block once; per i: A block, C
        // in and out.
        let mut elems = 0usize;
        for _j in 0..n / bn {
            for _l in 0..k / bk {
                elems += bk * bn;
                for _i in 0..m / bm {
                    elems += bm * bk + 2 * bm * bn;
                }
            }
        }
        let formula = cg_traffic_elements(m, n, k, bk, bn);
        assert!(
            (formula - elems as f64).abs() < 1.0,
            "formula {formula}, walked {elems}"
        );
    });
}

/// Padding overhead is the flop ratio and is always ≥ 1 and < the
/// worst-case bound ((1 + bm/m)(1 + bn/n)(1 + bk/k)).
#[test]
fn padding_overhead_bounds() {
    cases(128, 13, |rng| {
        use sw_dgemm::padding::PadPlan;
        let m = rng.range_usize(1, 500);
        let n = rng.range_usize(1, 500);
        let k = rng.range_usize(1, 500);
        let (bm, bn, bk) = (128usize, 64usize, 128usize);
        let p = PadPlan::new(m, n, k, bm, bn, bk).unwrap();
        let o = p.overhead();
        assert!(o >= 1.0);
        let bound = (1.0 + bm as f64 / m as f64)
            * (1.0 + bn as f64 / n as f64)
            * (1.0 + bk as f64 / k as f64);
        assert!(o <= bound, "m={m} n={n} k={k}: {o} > {bound}");
    });
}

// ---------------------------------------------------------------------
// Execution-engine equivalence: the engine (`Machine::run`) must match
// the seed interpreter (`support/seed_engine.rs`) on random valid
// programs — register file, LDM image, and ExecReport field for field.
// ---------------------------------------------------------------------

mod engine_equivalence {
    use sw26010_dgemm::isa::instr::{Instr, Net};
    use sw26010_dgemm::isa::{IReg, Machine, SinkComm, VReg};
    use sw_dgemm::gen::SplitMix64;

    const LDM_LEN: usize = 512;

    /// One random valid instruction. Memory operands use base `IReg(0)`
    /// (never written, so always 0) with in-bounds offsets; integer ops
    /// write only r1..r6, keeping r0 and the loop counter r7 stable.
    pub(crate) fn random_instr(rng: &mut SplitMix64) -> Instr {
        let v = |rng: &mut SplitMix64| VReg(rng.range_usize(0, 32) as u8);
        let gp = |rng: &mut SplitMix64| IReg(rng.range_usize(1, 7) as u8);
        let base = IReg(0);
        let voff = |rng: &mut SplitMix64| (4 * rng.range_usize(0, LDM_LEN / 4 - 1)) as i64;
        let soff = |rng: &mut SplitMix64| rng.range_usize(0, LDM_LEN) as i64;
        let net = |rng: &mut SplitMix64| {
            if rng.range_usize(0, 2) == 0 {
                Net::Row
            } else {
                Net::Col
            }
        };
        match rng.range_usize(0, 12) {
            0..=2 => Instr::Vmad {
                a: v(rng),
                b: v(rng),
                c: v(rng),
                d: v(rng),
            },
            3 => Instr::Vldd {
                d: v(rng),
                base,
                off: voff(rng),
            },
            4 => Instr::Vstd {
                s: v(rng),
                base,
                off: voff(rng),
            },
            5 => Instr::Ldde {
                d: v(rng),
                base,
                off: soff(rng),
            },
            6 => Instr::Vldr {
                d: v(rng),
                base,
                off: voff(rng),
                net: net(rng),
            },
            7 => Instr::Lddec {
                d: v(rng),
                base,
                off: soff(rng),
                net: net(rng),
            },
            8 => {
                if rng.range_usize(0, 2) == 0 {
                    Instr::Getr { d: v(rng) }
                } else {
                    Instr::Getc { d: v(rng) }
                }
            }
            9 => Instr::Vclr { d: v(rng) },
            10 => Instr::Addl {
                d: gp(rng),
                s: gp(rng),
                imm: rng.range_usize(0, 64) as i64 - 32,
            },
            11 => Instr::Setl {
                d: gp(rng),
                imm: rng.range_usize(0, 1024) as i64 - 512,
            },
            _ => Instr::Nop,
        }
    }

    pub(crate) fn random_ldm(rng: &mut SplitMix64) -> Vec<f64> {
        (0..LDM_LEN).map(|_| rng.range_f64(-8.0, 8.0)).collect()
    }

    /// Runs `prog` on the engine and the seed and asserts exact
    /// agreement.
    fn assert_engines_agree(prog: &[Instr], ldm0: &[f64], what: &str) {
        let mut ldm_seed = ldm0.to_vec();
        let (r_seed, v_seed, i_seed) = crate::seed_engine::run(prog, &mut ldm_seed);

        let mut ldm = ldm0.to_vec();
        let mut comm = SinkComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        let r = m.run(prog);
        let (v, i) = (m.vregs, m.iregs);

        assert_eq!(r_seed, r, "{what}: report");
        assert_eq!(v_seed, v, "{what}: vector registers");
        assert_eq!(i_seed, i, "{what}: integer registers");
        assert_eq!(ldm_seed, ldm, "{what}: LDM image");
    }

    /// Straight-line random programs over the full ISA.
    #[test]
    fn straight_line_random_programs() {
        for case in 0..96u64 {
            let mut rng = SplitMix64::new(0xE9_0E00 + case);
            let len = rng.range_usize(1, 60);
            let prog: Vec<Instr> = (0..len).map(|_| random_instr(&mut rng)).collect();
            let ldm = random_ldm(&mut rng);
            assert_engines_agree(&prog, &ldm, &format!("case {case}"));
        }
    }

    /// Random loop bodies under a counted `bne` back-edge (r7 is the
    /// counter; bodies never write it), exercising the branch-penalty
    /// and taken-branch paths.
    #[test]
    fn counted_loops_random_bodies() {
        for case in 0..24u64 {
            let mut rng = SplitMix64::new(0x10_0B00 + case);
            let iters = rng.range_usize(1, 6) as i64;
            let body_len = rng.range_usize(1, 16);
            let mut prog = vec![Instr::Setl {
                d: IReg(7),
                imm: iters,
            }];
            for _ in 0..body_len {
                prog.push(random_instr(&mut rng));
            }
            prog.push(Instr::Addl {
                d: IReg(7),
                s: IReg(7),
                imm: -1,
            });
            prog.push(Instr::Bne {
                s: IReg(7),
                target: 1,
            });
            let ldm = random_ldm(&mut rng);
            assert_engines_agree(&prog, &ldm, &format!("loop case {case}"));
        }
    }

    /// The empty program and single-instruction programs of every kind.
    #[test]
    fn degenerate_programs() {
        assert_engines_agree(&[], &random_ldm(&mut SplitMix64::new(7)), "empty");
        let mut rng = SplitMix64::new(0xD0_0D);
        for case in 0..40 {
            let i = random_instr(&mut rng);
            let ldm = random_ldm(&mut rng);
            assert_engines_agree(&[i], &ldm, &format!("singleton {case}: {i}"));
        }
    }
}

// ---------------------------------------------------------------------
// Fault-injection determinism: every injection decision is a pure
// function of (seed, site, epoch, attempt, cpe, op) — never of host
// thread interleaving — so the same fault plan on the same problem
// yields a byte-identical report (modulo host wall time) and identical
// fault tallies on every run.
// ---------------------------------------------------------------------

/// Same seed + same plan ⇒ identical C (bitwise), identical traffic
/// stats, identical panic set, and identical fault counter snapshots.
#[test]
fn fault_injection_is_deterministic() {
    use sw_dgemm::{AbftPolicy, DgemmRunner, FaultSpec, StuckSpec, Variant};
    let p = sw_dgemm::BlockingParams::test_small();
    let (m, n, k) = (2 * p.bm(), p.bn(), 2 * p.bk());
    cases(3, 14, |rng| {
        let seed = rng.next_u64();
        let a = random_matrix(m, k, seed % 1000);
        let b = random_matrix(k, n, seed % 1000 + 1);
        let c0 = random_matrix(m, n, seed % 1000 + 2);
        let spec = FaultSpec {
            dma_transient_per_myriad: 300,
            // Low enough that four recompute attempts virtually never
            // all draw fresh corruption (each attempt redraws).
            ldm_bitflip_per_myriad: 5,
            bitflip_every_epoch: true,
            stuck: Some(StuckSpec {
                cpe: (seed % 64) as usize,
                epoch: 2,
            }),
            ..FaultSpec::seeded(seed)
        };
        let run = || {
            let mut c = c0.clone();
            let report = DgemmRunner::new(Variant::Pe)
                .params(p)
                .faults(spec)
                .abft(AbftPolicy::Correct)
                .run(1.5, &a, &b, 0.5, &mut c)
                .expect("Correct + degrade must heal this plan");
            (c, report)
        };
        let (c1, r1) = run();
        let (c2, r2) = run();
        assert_eq!(c1.max_abs_diff(&c2), 0.0, "seed {seed}: C differs");
        assert_eq!(r1.stats.dma, r2.stats.dma, "seed {seed}");
        assert_eq!(r1.stats.mesh, r2.stats.mesh, "seed {seed}");
        assert_eq!(
            r1.stats.panicked_cpes, r2.stats.panicked_cpes,
            "seed {seed}"
        );
        assert_eq!(r1.faults, r2.faults, "seed {seed}");
        assert_eq!(r1.plan.map(|p| p.params), r2.plan.map(|p| p.params));
        assert!(r1.faults.unwrap().total_injected() > 0, "seed {seed}");
    });
}

// ---------------------------------------------------------------------
// Stall attribution: with probes on, every simulated cycle of each pipe
// is classified into exactly one bucket, so the per-pipe buckets sum
// exactly to ExecReport::cycles — on random straight-line and counted-
// loop programs. The attribution equals the static stall prover's
// (`sw_lint::prove_stalls`, an independent implementation), and the
// report and LDM image equal the seed interpreter's.
// ---------------------------------------------------------------------

mod stall_attribution {
    use super::engine_equivalence::{random_instr, random_ldm};
    use sw26010_dgemm::isa::instr::Instr;
    use sw26010_dgemm::isa::{IReg, Machine, SinkComm};
    use sw_dgemm::gen::SplitMix64;
    use sw_lint::{prove_stalls, Bound};

    /// Runs `prog` probed; asserts the defining invariant (buckets sum
    /// to total cycles, per pipe), exact agreement with the static
    /// prover's attribution and instruction count, and with the seed's
    /// report and LDM image.
    fn assert_attribution_exact(prog: &[Instr], ldm0: &[f64], what: &str) {
        let mut ldm = ldm0.to_vec();
        let mut comm = SinkComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        let (r, s) = m.run_probed(prog);

        s.check().unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(s.cycles, r.cycles, "{what}: stall total");
        for (p, b) in s.pipes.iter().enumerate() {
            assert_eq!(
                b.total(),
                r.cycles,
                "{what}: pipe P{p} attribution {b:?} != {} cycles",
                r.cycles
            );
        }
        // Issue slots across both pipes must equal instructions.
        assert_eq!(s.issue_cycles(), r.instructions, "{what}: issues");

        let proved = prove_stalls(prog);
        assert_eq!(proved.bound, Bound::Exact, "{what}: proof bound");
        assert_eq!(proved.report, s, "{what}: attributions");
        assert_eq!(
            proved.instructions, r.instructions,
            "{what}: proven instructions"
        );

        let mut ldm_seed = ldm0.to_vec();
        let (r_seed, ..) = crate::seed_engine::run(prog, &mut ldm_seed);
        assert_eq!(r_seed, r, "{what}: reports");
        assert_eq!(ldm_seed, ldm, "{what}: LDM image");
    }

    /// Straight-line random programs over the full ISA.
    #[test]
    fn straight_line_attribution_sums_to_cycles() {
        for case in 0..96u64 {
            let mut rng = SplitMix64::new(0x57A_1100 + case);
            let len = rng.range_usize(1, 60);
            let prog: Vec<Instr> = (0..len).map(|_| random_instr(&mut rng)).collect();
            let ldm = random_ldm(&mut rng);
            assert_attribution_exact(&prog, &ldm, &format!("case {case}"));
        }
    }

    /// Counted loops (r7 counter, random bodies): the taken-branch
    /// refill windows must be attributed exactly, including the
    /// clamped window when a taken branch ends the run.
    #[test]
    fn counted_loop_attribution_sums_to_cycles() {
        for case in 0..24u64 {
            let mut rng = SplitMix64::new(0x57A_1200 + case);
            let iters = rng.range_usize(1, 6) as i64;
            let body_len = rng.range_usize(1, 16);
            let mut prog = vec![Instr::Setl {
                d: IReg(7),
                imm: iters,
            }];
            for _ in 0..body_len {
                prog.push(random_instr(&mut rng));
            }
            prog.push(Instr::Addl {
                d: IReg(7),
                s: IReg(7),
                imm: -1,
            });
            prog.push(Instr::Bne {
                s: IReg(7),
                target: 1,
            });
            let ldm = random_ldm(&mut rng);
            assert_attribution_exact(&prog, &ldm, &format!("loop case {case}"));
        }
    }

    /// Degenerate shapes: empty, singletons, and a trailing taken
    /// branch whose refill window outlives the run.
    #[test]
    fn degenerate_attribution() {
        let mut rng = SplitMix64::new(0x57A_1300);
        assert_attribution_exact(&[], &random_ldm(&mut rng), "empty");
        for case in 0..40 {
            let i = random_instr(&mut rng);
            let ldm = random_ldm(&mut rng);
            assert_attribution_exact(&[i], &ldm, &format!("singleton {case}: {i}"));
        }
        let trailing = [
            Instr::Setl { d: IReg(7), imm: 1 },
            Instr::Bne {
                s: IReg(7),
                target: 2,
            },
        ];
        assert_attribution_exact(&trailing, &random_ldm(&mut rng), "trailing taken branch");
    }
}

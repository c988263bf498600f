//! Conjugate gradients on the wafer — the symmetric baseline, in two
//! communication flavors.
//!
//! * [`CgVariant::Standard`] — textbook CG: two blocking reduction rounds
//!   per iteration (`(p, Ap)` and `(r, r)`).
//! * [`CgVariant::SingleReduction`] — Chronopoulos–Gear CG: `γ = (r, r)`
//!   and `δ = (r, A r)` reduce **together in one round** over the two
//!   concurrent Fig. 6 networks, and `q = A p` is maintained by recurrence
//!   — the communication-reducing restructuring the paper's discussion of
//!   communication-avoiding methods points toward, here actually running on
//!   the (simulated) fabric.

use crate::allreduce::{colors as ar_colors, AllReduce};
use crate::bicgstab::{spmv_region, IterCycles};
use crate::exec::{TileRegion, WaferExec};
use crate::kernels::dot_stmts;
use crate::recovery::WaferSolver;
use crate::routing::configure_spmv_routes;
use crate::spmv3d::{build_spmv_tile, load_coefficients, tile_coefficients, SpmvLayout, SpmvTasks};
use stencil::decomp::Mapping3D;
use stencil::dia::DiaMatrix;
use stencil::precond::has_unit_diagonal;
use wse_arch::dsr::mk;
use wse_arch::fabric::StallReport;
use wse_arch::instr::{Op, RegOp, Stmt, Task, TensorInstr};
use wse_arch::types::{Dtype, TaskId};
use wse_arch::Fabric;
use wse_float::F16;

/// Register allocation (disjoint from the BiCGStab map so both solvers can
/// coexist on one fabric in tests).
mod regs {
    use wse_arch::types::Reg;
    pub const GAMMA: Reg = 12;
    pub const GAMMA_PREV: Reg = 13;
    pub const DELTA: Reg = 14;
    pub const ALPHA: Reg = 15;
    pub const ALPHA_PREV: Reg = 16;
    pub const NEG_ALPHA: Reg = 17;
    pub const BETA: Reg = 18;
    pub const TMP: Reg = 19;
    pub const DOT_ACC: Reg = 21;
    pub const AR_IN: Reg = 24;
    pub const AR_OUT: Reg = 25;
    pub const AR_ACC: Reg = 26;
    pub const AR_IN2: Reg = 27;
    pub const AR_OUT2: Reg = 28;
    pub const AR_ACC2: Reg = 29;
    pub const EPS: Reg = 31;
}

/// Which CG formulation to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CgVariant {
    /// Two reduction rounds per iteration.
    Standard,
    /// Chronopoulos–Gear: one (dual-network) round per iteration.
    SingleReduction,
}

/// Per-tile vector addresses. The padded SpMV source holds `p` in
/// Standard mode and `r` in SingleReduction mode; its live part is aliased
/// below.
#[derive(Clone, Debug)]
struct CgTileVecs {
    /// SpMV output: `q = A p` (Standard) or `s = A r` (SingleReduction).
    av: u32,
    /// Residual (live part of the padded source in SingleReduction mode).
    r: u32,
    /// Search direction (padded live part in Standard mode).
    p: u32,
    /// `q = A p` recurrence vector (SingleReduction only; equals `av` in
    /// Standard mode).
    q: u32,
    /// Iterate.
    x: u32,
}

#[derive(Clone, Debug)]
struct CgTileTasks {
    spmv: SpmvTasks,
    dot_pq: TaskId,
    dot_rr: TaskId,
    dot_gamma_delta: TaskId,
    post_alpha_std: TaskId,
    post_beta_std: TaskId,
    post_fused: TaskId,
    init_gamma: TaskId,
    upd_xr_std: TaskId,
    upd_p_std: TaskId,
    upd_all_cg2: TaskId,
    fused_allreduce: Option<TaskId>,
}

/// The wafer-resident CG solver.
pub struct WaferCg {
    mapping: Mapping3D,
    region: TileRegion,
    variant: CgVariant,
    tiles: Vec<(CgTileVecs, CgTileTasks)>,
    allreduce: AllReduce,
}

impl WaferCg {
    /// Distributes the (SPD, unit-diagonal, 7-point) system and builds the
    /// per-tile programs.
    ///
    /// # Panics
    /// Panics on non-unit-diagonal input, fabric overflow, or SRAM
    /// exhaustion.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>, variant: CgVariant) -> WaferCg {
        assert!(has_unit_diagonal(a), "matrix must be diagonally preconditioned");
        assert_eq!(a.offsets().len(), 7, "7-point stencil required");
        let mesh = a.mesh();
        let mapping = Mapping3D::new(mesh, fabric.width(), fabric.height());
        let (w, h) = (mapping.fabric_w, mapping.fabric_h);
        let z = mapping.z as u32;

        configure_spmv_routes(fabric, w, h);
        let allreduce = AllReduce::build(fabric, w, h, regs::AR_IN, regs::AR_OUT, regs::AR_ACC);
        let allreduce2 = (variant == CgVariant::SingleReduction).then(|| {
            AllReduce::build_with_base(
                fabric,
                w,
                h,
                regs::AR_IN2,
                regs::AR_OUT2,
                regs::AR_ACC2,
                ar_colors::DEFAULT_BASE + ar_colors::SPAN,
            )
        });

        let mut tiles = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let fused_allreduce = allreduce2
                    .as_ref()
                    .map(|second| allreduce.build_fused_task(second, fabric, x, y));
                let tile = fabric.tile_mut(x, y);
                let mut diag = [0u32; 6];
                for d in &mut diag {
                    *d = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: diagonals");
                }
                let src_pad = tile.mem.alloc_vec(z + 2, Dtype::F16).expect("SRAM: src");
                let av = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: Av");
                let x_vec = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: x");
                // Standard: p lives in the padded source, r separate.
                // SingleReduction: r lives in the padded source, p and q
                // separate.
                let (r, p, q) = match variant {
                    CgVariant::Standard => {
                        let r = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: r");
                        (r, src_pad + 2, av)
                    }
                    CgVariant::SingleReduction => {
                        let p = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: p");
                        let q = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: q");
                        (src_pad + 2, p, q)
                    }
                };
                let vecs = CgTileVecs { av, r, p, q, x: x_vec };

                let coeffs = tile_coefficients(a, x, y);
                let layout = SpmvLayout { z, diag, vpad: src_pad, u: av };
                load_coefficients(tile, &layout, &coeffs);
                tile.mem.write_f16(src_pad, F16::ZERO);
                tile.mem.write_f16(src_pad + 2 * (z + 1), F16::ZERO);

                let spmv = build_spmv_tile(tile, x, y, w, h, layout, None);
                let core = &mut tile.core;

                // --- Dots. ---
                let dot_pq = {
                    let body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, vecs.p, vecs.av, z);
                    core.add_task(Task::new("cg_dot_pq", body))
                };
                let dot_rr = {
                    let body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, vecs.r, vecs.r, z);
                    core.add_task(Task::new("cg_dot_rr", body))
                };
                let dot_gamma_delta = {
                    let mut body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, vecs.r, vecs.r, z);
                    body.extend(dot_stmts(core, regs::DOT_ACC, regs::AR_IN2, vecs.r, vecs.av, z));
                    core.add_task(Task::new("cg_dot_gd", body))
                };

                // --- Scalar phases. ---
                // Standard: α = γ / (p, Ap); γ carried in GAMMA.
                let post_alpha_std = core.add_task(Task::new(
                    "cg_alpha",
                    vec![
                        Stmt::RegArith {
                            op: RegOp::Add,
                            dst: regs::TMP,
                            a: regs::AR_OUT,
                            b: regs::EPS,
                        },
                        Stmt::RegArith {
                            op: RegOp::Div,
                            dst: regs::ALPHA,
                            a: regs::GAMMA,
                            b: regs::TMP,
                        },
                        Stmt::RegArith {
                            op: RegOp::Neg,
                            dst: regs::NEG_ALPHA,
                            a: regs::ALPHA,
                            b: regs::ALPHA,
                        },
                    ],
                ));
                // Standard: β = γ' / γ; roll γ.
                let post_beta_std = core.add_task(Task::new(
                    "cg_beta",
                    vec![
                        Stmt::RegArith {
                            op: RegOp::Div,
                            dst: regs::BETA,
                            a: regs::AR_OUT,
                            b: regs::GAMMA,
                        },
                        Stmt::RegArith {
                            op: RegOp::Mov,
                            dst: regs::GAMMA,
                            a: regs::AR_OUT,
                            b: regs::AR_OUT,
                        },
                    ],
                ));
                // Fused: γ = AR_OUT, δ = AR_OUT2;
                // β = γ/γ_prev (0 on the first iteration — host seeds
                // GAMMA_PREV with γ so β = 1? No: host seeds by running the
                // first iteration specially; see iterate()).
                // α = γ / (δ − β γ / α_prev).
                let post_fused = core.add_task(Task::new(
                    "cg_fused_coeffs",
                    vec![
                        Stmt::RegArith {
                            op: RegOp::Mov,
                            dst: regs::GAMMA,
                            a: regs::AR_OUT,
                            b: regs::AR_OUT,
                        },
                        Stmt::RegArith {
                            op: RegOp::Mov,
                            dst: regs::DELTA,
                            a: regs::AR_OUT2,
                            b: regs::AR_OUT2,
                        },
                        Stmt::RegArith {
                            op: RegOp::Add,
                            dst: regs::TMP,
                            a: regs::GAMMA_PREV,
                            b: regs::EPS,
                        },
                        Stmt::RegArith {
                            op: RegOp::Div,
                            dst: regs::BETA,
                            a: regs::GAMMA,
                            b: regs::TMP,
                        },
                        // TMP = β γ / α_prev
                        Stmt::RegArith {
                            op: RegOp::Mul,
                            dst: regs::TMP,
                            a: regs::BETA,
                            b: regs::GAMMA,
                        },
                        Stmt::RegArith {
                            op: RegOp::Div,
                            dst: regs::TMP,
                            a: regs::TMP,
                            b: regs::ALPHA_PREV,
                        },
                        Stmt::RegArith {
                            op: RegOp::Sub,
                            dst: regs::TMP,
                            a: regs::DELTA,
                            b: regs::TMP,
                        },
                        Stmt::RegArith {
                            op: RegOp::Div,
                            dst: regs::ALPHA,
                            a: regs::GAMMA,
                            b: regs::TMP,
                        },
                        Stmt::RegArith {
                            op: RegOp::Neg,
                            dst: regs::NEG_ALPHA,
                            a: regs::ALPHA,
                            b: regs::ALPHA,
                        },
                        Stmt::RegArith {
                            op: RegOp::Mov,
                            dst: regs::GAMMA_PREV,
                            a: regs::GAMMA,
                            b: regs::GAMMA,
                        },
                        Stmt::RegArith {
                            op: RegOp::Mov,
                            dst: regs::ALPHA_PREV,
                            a: regs::ALPHA,
                            b: regs::ALPHA,
                        },
                    ],
                ));
                // First fused iteration: β = 0, α = γ/δ.
                let init_gamma = core.add_task(Task::new(
                    "cg_init",
                    vec![
                        Stmt::RegArith {
                            op: RegOp::Mov,
                            dst: regs::GAMMA,
                            a: regs::AR_OUT,
                            b: regs::AR_OUT,
                        },
                        Stmt::RegArith {
                            op: RegOp::Mov,
                            dst: regs::DELTA,
                            a: regs::AR_OUT2,
                            b: regs::AR_OUT2,
                        },
                        Stmt::SetReg { reg: regs::BETA, value: 0.0 },
                        Stmt::RegArith {
                            op: RegOp::Add,
                            dst: regs::TMP,
                            a: regs::DELTA,
                            b: regs::EPS,
                        },
                        Stmt::RegArith {
                            op: RegOp::Div,
                            dst: regs::ALPHA,
                            a: regs::GAMMA,
                            b: regs::TMP,
                        },
                        Stmt::RegArith {
                            op: RegOp::Neg,
                            dst: regs::NEG_ALPHA,
                            a: regs::ALPHA,
                            b: regs::ALPHA,
                        },
                        Stmt::RegArith {
                            op: RegOp::Mov,
                            dst: regs::GAMMA_PREV,
                            a: regs::GAMMA,
                            b: regs::GAMMA,
                        },
                        Stmt::RegArith {
                            op: RegOp::Mov,
                            dst: regs::ALPHA_PREV,
                            a: regs::ALPHA,
                            b: regs::ALPHA,
                        },
                    ],
                ));

                // --- Vector updates. ---
                // Standard: x += α p; r −= α q.
                let upd_xr_std = {
                    let dp = core.add_dsr(mk::tensor16(vecs.p, z));
                    let dq = core.add_dsr(mk::tensor16(vecs.av, z));
                    let dx = core.add_dsr(mk::tensor16(vecs.x, z));
                    let dr = core.add_dsr(mk::tensor16(vecs.r, z));
                    core.add_task(Task::new(
                        "cg_upd_xr",
                        vec![
                            Stmt::Exec(TensorInstr {
                                op: Op::Axpy { scalar: regs::ALPHA },
                                dst: Some(dx),
                                a: Some(dp),
                                b: None,
                            }),
                            Stmt::Exec(TensorInstr {
                                op: Op::Axpy { scalar: regs::NEG_ALPHA },
                                dst: Some(dr),
                                a: Some(dq),
                                b: None,
                            }),
                        ],
                    ))
                };
                // Standard: p = r + β p (XPAY with dst aliasing b).
                let upd_p_std = {
                    let dd = core.add_dsr(mk::tensor16(vecs.p, z));
                    let da = core.add_dsr(mk::tensor16(vecs.r, z));
                    let db = core.add_dsr(mk::tensor16(vecs.p, z));
                    core.add_task(Task::new(
                        "cg_upd_p",
                        vec![Stmt::Exec(TensorInstr {
                            op: Op::Xpay { scalar: regs::BETA },
                            dst: Some(dd),
                            a: Some(da),
                            b: Some(db),
                        })],
                    ))
                };
                // SingleReduction: p = r + β p; q = s + β q; x += α p;
                // r −= α q.
                let upd_all_cg2 = {
                    let dp1 = core.add_dsr(mk::tensor16(vecs.p, z));
                    let dr1 = core.add_dsr(mk::tensor16(vecs.r, z));
                    let dp2 = core.add_dsr(mk::tensor16(vecs.p, z));
                    let dq1 = core.add_dsr(mk::tensor16(vecs.q, z));
                    let ds1 = core.add_dsr(mk::tensor16(vecs.av, z));
                    let dq2 = core.add_dsr(mk::tensor16(vecs.q, z));
                    let dx = core.add_dsr(mk::tensor16(vecs.x, z));
                    let dp3 = core.add_dsr(mk::tensor16(vecs.p, z));
                    let dr2 = core.add_dsr(mk::tensor16(vecs.r, z));
                    let dq3 = core.add_dsr(mk::tensor16(vecs.q, z));
                    core.add_task(Task::new(
                        "cg2_upd",
                        vec![
                            Stmt::Exec(TensorInstr {
                                op: Op::Xpay { scalar: regs::BETA },
                                dst: Some(dp1),
                                a: Some(dr1),
                                b: Some(dp2),
                            }),
                            Stmt::Exec(TensorInstr {
                                op: Op::Xpay { scalar: regs::BETA },
                                dst: Some(dq1),
                                a: Some(ds1),
                                b: Some(dq2),
                            }),
                            Stmt::Exec(TensorInstr {
                                op: Op::Axpy { scalar: regs::ALPHA },
                                dst: Some(dx),
                                a: Some(dp3),
                                b: None,
                            }),
                            Stmt::Exec(TensorInstr {
                                op: Op::Axpy { scalar: regs::NEG_ALPHA },
                                dst: Some(dr2),
                                a: Some(dq3),
                                b: None,
                            }),
                        ],
                    ))
                };

                let tile_tasks = CgTileTasks {
                    spmv,
                    dot_pq,
                    dot_rr,
                    dot_gamma_delta,
                    post_alpha_std,
                    post_beta_std,
                    post_fused,
                    init_gamma,
                    upd_xr_std,
                    upd_p_std,
                    upd_all_cg2,
                    fused_allreduce,
                };
                // Every phase task is a host-activated entry point.
                let core = &mut fabric.tile_mut(x, y).core;
                for t in [
                    dot_pq,
                    dot_rr,
                    dot_gamma_delta,
                    post_alpha_std,
                    post_beta_std,
                    post_fused,
                    init_gamma,
                    upd_xr_std,
                    upd_p_std,
                    upd_all_cg2,
                ] {
                    core.mark_entry(t);
                }
                tiles.push((vecs, tile_tasks));
            }
        }
        crate::debug_lint(fabric);
        WaferCg { mapping, region: spmv_region(mapping), variant, tiles, allreduce }
    }

    /// Which variant this solver runs.
    pub fn variant(&self) -> CgVariant {
        self.variant
    }

    fn idx(&self, x: usize, y: usize) -> usize {
        y * self.mapping.fabric_w + x
    }
}

impl<E: WaferExec> WaferSolver<E> for WaferCg {
    type Cycles = IterCycles;

    /// Loads `b` (x = 0, r = p = b) and seeds the scalar state.
    fn load(&self, exec: &mut E, b: &[F16]) -> Result<(), Box<StallReport>> {
        let m = self.mapping;
        assert_eq!(b.len(), m.cores() * m.z, "rhs length mismatch");
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                let (vecs, _) = &self.tiles[self.idx(x, y)];
                let rows = m.core_rows(x, y);
                let local = &b[rows];
                exec.store_f16(x, y, vecs.r, local);
                exec.store_f16(x, y, vecs.p, local);
                exec.store_f16(x, y, vecs.x, &vec![F16::ZERO; m.z]);
                exec.set_reg(x, y, regs::EPS, 1e-30);
                if self.variant == CgVariant::SingleReduction {
                    exec.store_f16(x, y, vecs.q, &vec![F16::ZERO; m.z]);
                }
            }
        }
        match self.variant {
            CgVariant::Standard => {
                // Seed γ = (r, r).
                self.region.phase(exec, "dot", &self.tiles, |t| t.1.dot_rr)?;
                self.region.allreduce(exec, |x, y| self.allreduce.task(x, y))?;
                for y in 0..m.fabric_h {
                    for x in 0..m.fabric_w {
                        let gamma = exec.reg(x, y, regs::AR_OUT);
                        exec.set_reg(x, y, regs::GAMMA, gamma);
                    }
                }
            }
            CgVariant::SingleReduction => {
                // The first iteration runs init_gamma; nothing to seed.
            }
        }
        Ok(())
    }

    /// Runs iteration `i`; the first iteration of a
    /// [`CgVariant::SingleReduction`] solve takes the β = 0 coefficient
    /// path.
    fn step(&self, exec: &mut E, i: usize) -> Result<IterCycles, Box<StallReport>> {
        let (r, tiles) = (self.region, &self.tiles);
        let mut c = IterCycles::default();
        match self.variant {
            CgVariant::Standard => {
                let reduce = |e: &mut E| r.allreduce(e, |x, y| self.allreduce.task(x, y));
                // q = A p  (p is the padded SpMV source).
                c.spmv += r.phase(exec, "spmv", tiles, |t| t.1.spmv.start)?;
                // (p, q) → α.
                c.dot += r.phase(exec, "dot", tiles, |t| t.1.dot_pq)?;
                c.allreduce += reduce(exec)?;
                c.scalar += r.phase(exec, "scalar", tiles, |t| t.1.post_alpha_std)?;
                // x += α p; r −= α q.
                c.update += r.phase(exec, "update", tiles, |t| t.1.upd_xr_std)?;
                // (r, r) → β, roll γ.
                c.dot += r.phase(exec, "dot", tiles, |t| t.1.dot_rr)?;
                c.allreduce += reduce(exec)?;
                c.scalar += r.phase(exec, "scalar", tiles, |t| t.1.post_beta_std)?;
                // p = r + β p.
                c.update += r.phase(exec, "update", tiles, |t| t.1.upd_p_std)?;
            }
            CgVariant::SingleReduction => {
                let both = |x, y| tiles[self.idx(x, y)].1.fused_allreduce.expect("fused nets");
                let post = |t: &(CgTileVecs, CgTileTasks)| {
                    if i == 0 {
                        t.1.init_gamma
                    } else {
                        t.1.post_fused
                    }
                };
                // s = A r  (r is the padded SpMV source).
                c.spmv += r.phase(exec, "spmv", tiles, |t| t.1.spmv.start)?;
                // γ = (r, r), δ = (r, s) — one dual-network round.
                c.dot += r.phase(exec, "dot", tiles, |t| t.1.dot_gamma_delta)?;
                c.allreduce += r.allreduce(exec, both)?;
                c.scalar += r.phase(exec, "scalar", tiles, post)?;
                // p, q, x, r recurrences.
                c.update += r.phase(exec, "update", tiles, |t| t.1.upd_all_cg2)?;
            }
        }
        Ok(c)
    }

    /// ‖r‖ read back from tile memories (host-side check).
    fn norm_r(&self, exec: &mut E) -> Result<f64, Box<StallReport>> {
        let m = self.mapping;
        let mut sum = 0.0f64;
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                let (vecs, _) = &self.tiles[self.idx(x, y)];
                for v in exec.load_f16(x, y, vecs.r, m.z) {
                    sum += v.to_f64() * v.to_f64();
                }
            }
        }
        Ok(sum.sqrt())
    }

    /// Reads the iterate back in global mesh order.
    fn fetch_x(&self, exec: &E) -> Vec<F16> {
        let m = self.mapping;
        let mut out = vec![F16::ZERO; m.cores() * m.z];
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                let (vecs, _) = &self.tiles[self.idx(x, y)];
                out[m.core_rows(x, y)].copy_from_slice(&exec.load_f16(x, y, vecs.x, m.z));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::mesh::Mesh3D;
    use stencil::precond::jacobi_scale;
    use stencil::stencil7::poisson;

    fn spd_system(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>, Vec<f64>) {
        let a = poisson(mesh);
        let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i * 7) % 9) as f64 * 0.125 - 0.5).collect();
        let mut b = vec![0.0; mesh.len()];
        a.matvec_f64(&exact, &mut b);
        let sys = jacobi_scale(&a, &b);
        let a16: DiaMatrix<F16> = sys.matrix.convert();
        let b16: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        (a16, b16, exact)
    }

    #[test]
    fn standard_cg_converges_on_wafer() {
        let mesh = Mesh3D::new(4, 4, 8);
        let (a, b, exact) = spd_system(mesh);
        let mut fabric = Fabric::new(4, 4);
        let cg = WaferCg::build(&mut fabric, &a, CgVariant::Standard);
        let (x, stats) = cg.solve(&mut fabric, &b, 20);
        let last = *stats.residuals.last().unwrap();
        assert!(last < 0.02, "residual {last}");
        let err = x.iter().zip(&exact).map(|(a, b)| (a.to_f64() - b).abs()).fold(0.0_f64, f64::max);
        assert!(err < 0.05, "max err {err}");
    }

    #[test]
    fn single_reduction_cg_matches_standard() {
        let mesh = Mesh3D::new(4, 4, 8);
        let (a, b, _) = spd_system(mesh);

        let mut f1 = Fabric::new(4, 4);
        let std_cg = WaferCg::build(&mut f1, &a, CgVariant::Standard);
        let (_, s1) = std_cg.solve(&mut f1, &b, 10);

        let mut f2 = Fabric::new(4, 4);
        let cg2 = WaferCg::build(&mut f2, &a, CgVariant::SingleReduction);
        assert_eq!(cg2.variant(), CgVariant::SingleReduction);
        let (_, s2) = cg2.solve(&mut f2, &b, 10);

        // Same math, same trajectory (to fp16/f32 rounding noise).
        for (a, b) in s1.residuals.iter().zip(&s2.residuals).take(6) {
            let ratio = (a / b).max(b / a);
            assert!(ratio < 1.5, "trajectories: {a} vs {b}");
        }
        // Half the blocking rounds: the single fused round costs less than
        // the two standard rounds.
        let ar1: u64 = s1.iterations.iter().map(|c| c.allreduce).sum();
        let ar2: u64 = s2.iterations.iter().map(|c| c.allreduce).sum();
        assert!(
            (ar2 as f64) < 0.8 * ar1 as f64,
            "single-reduction must cut reduction cycles: {ar1} -> {ar2}"
        );
    }

    #[test]
    fn cg_cycles_breakdown_is_sane() {
        let mesh = Mesh3D::new(3, 3, 32);
        let (a, b, _) = spd_system(mesh);
        let mut fabric = Fabric::new(3, 3);
        let cg = WaferCg::build(&mut fabric, &a, CgVariant::Standard);
        cg.load(&mut fabric, &b).unwrap();
        let c = cg.step(&mut fabric, 0).unwrap();
        assert!(c.spmv > 0 && c.dot > 0 && c.allreduce > 0 && c.update > 0);
        // CG has one SpMV per iteration: roughly half BiCGStab's SpMV time.
        assert!(c.spmv < 2 * 4 * 32, "one SpMV only: {c:?}");
    }
}

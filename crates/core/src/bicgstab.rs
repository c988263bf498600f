//! The complete BiCGStab iteration on the wafer.
//!
//! Vectors and matrix diagonals live entirely in tile SRAM; the two SpMVs
//! use the Listing-1 dataflow; the four inner products use the local
//! mixed-precision MAC followed by the Fig. 6 fp32 AllReduce; the six
//! AXPY/XPAY updates run on core-local fp16 data; the scalar coefficient
//! arithmetic (α, ω, β) is computed redundantly by every core in fp32
//! registers from the broadcast reductions.
//!
//! Phase sequencing is driven by the host between fabric-quiescent points.
//! (The production system chains phases with the task tree; global
//! quiescence is a slightly conservative stand-in — it can only make our
//! cycle counts *worse* than the hardware's, never better.)

use crate::allreduce::AllReduce;
use crate::exec::{TileRegion, WaferExec};
use crate::kernels::{dot_stmts, xpay_stmts};
use crate::recovery::WaferSolver;
use crate::routing::configure_spmv_routes;
use crate::spmv3d::{build_spmv_tile, load_coefficients, tile_coefficients, SpmvLayout, SpmvTasks};
use stencil::decomp::Mapping3D;
use stencil::dia::DiaMatrix;
use stencil::precond::has_unit_diagonal;
use wse_arch::core::Core;
use wse_arch::dsr::mk;
use wse_arch::fabric::StallReport;
use wse_arch::instr::{Op, Stmt, Task, TensorInstr};
use wse_arch::types::{Dtype, TaskId};
use wse_arch::{Fabric, Tile};
use wse_float::F16;

/// Register allocation for the solver (per core).
pub mod regs {
    use wse_arch::types::Reg;
    /// ρ = (r̂₀, r) carried across iterations.
    pub const RHO: Reg = 0;
    /// (r̂₀, s).
    pub const R0S: Reg = 1;
    /// α.
    pub const ALPHA: Reg = 2;
    /// −α (AXPY subtracts via a negated register scalar).
    pub const NEG_ALPHA: Reg = 3;
    /// (q, y).
    pub const QY: Reg = 4;
    /// (y, y).
    pub const YY: Reg = 5;
    /// ω.
    pub const OMEGA: Reg = 6;
    /// −ω.
    pub const NEG_OMEGA: Reg = 7;
    /// ρ' = (r̂₀, r').
    pub const RHO_NEXT: Reg = 8;
    /// β.
    pub const BETA: Reg = 9;
    /// Scratch.
    pub const TMP: Reg = 10;
    /// ‖r‖² from the observability dot.
    pub const RR: Reg = 11;
    /// α·ω — the fused single-reduction iteration's `r += αω·(A s)`
    /// correction scalar (see `crate::multi`).
    pub const ALPHA_OMEGA: Reg = 12;
    /// Local dot accumulator.
    pub const DOT_ACC: Reg = 20;
    /// AllReduce input.
    pub const AR_IN: Reg = 24;
    /// AllReduce output.
    pub const AR_OUT: Reg = 25;
    /// AllReduce scratch.
    pub const AR_ACC: Reg = 26;
    /// Second AllReduce input (fused ω-step reduction).
    pub const AR_IN2: Reg = 27;
    /// Second AllReduce output.
    pub const AR_OUT2: Reg = 28;
    /// Second AllReduce scratch.
    pub const AR_ACC2: Reg = 29;
    /// Tiny denominator guard (set by `load_rhs`): the coefficient tasks
    /// have no conditionals, so breakdown-adjacent divisions are regularized
    /// with `x/(y+ε)` instead of being branched around.
    pub const EPS: Reg = 31;
}

/// The scalar coefficient task bodies, shared by the 3D and 2D BiCGStab
/// drivers: each reads the AllReduce output(s) and updates the coefficient
/// registers, computed redundantly by every core in fp32.
pub(crate) mod coeff {
    use super::regs::*;
    use wse_arch::instr::{RegOp, Stmt};
    use wse_arch::types::Reg;

    fn arith(op: RegOp, dst: Reg, a: Reg, b: Reg) -> Stmt {
        Stmt::RegArith { op, dst, a, b }
    }

    fn mov(dst: Reg, src: Reg) -> Stmt {
        arith(RegOp::Mov, dst, src, src)
    }

    /// α := ρ / ((r̂₀, s) + ε).
    pub(crate) fn post_r0s() -> Vec<Stmt> {
        vec![
            mov(R0S, AR_OUT),
            arith(RegOp::Add, R0S, R0S, EPS),
            arith(RegOp::Div, ALPHA, RHO, R0S),
            arith(RegOp::Neg, NEG_ALPHA, ALPHA, ALPHA),
        ]
    }

    /// Keeps (q, y) for the ω step.
    pub(crate) fn post_qy() -> Vec<Stmt> {
        vec![mov(QY, AR_OUT)]
    }

    /// ω := (q, y) / ((y, y) + ε).
    pub(crate) fn post_yy() -> Vec<Stmt> {
        vec![
            mov(YY, AR_OUT),
            arith(RegOp::Add, YY, YY, EPS),
            arith(RegOp::Div, OMEGA, QY, YY),
            arith(RegOp::Neg, NEG_OMEGA, OMEGA, OMEGA),
        ]
    }

    /// Fused ω step: (q, y) and (y, y) from the two concurrent reductions.
    pub(crate) fn post_omega_fused() -> Vec<Stmt> {
        vec![
            mov(QY, AR_OUT),
            mov(YY, AR_OUT2),
            arith(RegOp::Add, YY, YY, EPS),
            arith(RegOp::Div, OMEGA, QY, YY),
            arith(RegOp::Neg, NEG_OMEGA, OMEGA, OMEGA),
        ]
    }

    /// β := ρ'/(ρ + ε) · α/(ω + ε), then ρ := ρ'.
    pub(crate) fn post_rho() -> Vec<Stmt> {
        vec![
            mov(RHO_NEXT, AR_OUT),
            arith(RegOp::Add, TMP, OMEGA, EPS),
            arith(RegOp::Div, TMP, ALPHA, TMP),
            arith(RegOp::Add, BETA, RHO, EPS),
            arith(RegOp::Div, BETA, RHO_NEXT, BETA),
            arith(RegOp::Mul, BETA, TMP, BETA),
            mov(RHO, RHO_NEXT),
        ]
    }

    /// ρ₀ := (r̂₀, r).
    pub(crate) fn init_rho() -> Vec<Stmt> {
        vec![mov(RHO, AR_OUT)]
    }

    /// Keeps ‖r‖² for the host.
    pub(crate) fn post_rr() -> Vec<Stmt> {
        vec![mov(RR, AR_OUT)]
    }
}

/// Per-tile memory layout of the solver vectors (byte addresses). Shared
/// with the multi-wafer driver ([`crate::multi`]), which lays its tiles
/// out identically.
#[derive(Copy, Clone, Debug)]
pub(crate) struct TileVecs {
    /// Padded p (SpMV source), `z + 2` words; live at `+2` bytes.
    pub(crate) p_pad: u32,
    /// Padded q (SpMV source), `z + 2` words.
    pub(crate) q_pad: u32,
    /// s = A p.
    pub(crate) s: u32,
    /// y = A q.
    pub(crate) y: u32,
    /// Residual r.
    pub(crate) r: u32,
    /// Shadow residual r̂₀.
    pub(crate) r0: u32,
    /// Iterate x.
    pub(crate) x: u32,
}

/// Per-tile task ids for the non-SpMV, non-AllReduce phases (dots, scalar
/// coefficient arithmetic, vector updates). These are purely core-local,
/// so the single-wafer and multi-wafer drivers build them identically via
/// [`build_scalar_tasks`].
#[derive(Clone, Debug)]
pub(crate) struct ScalarTasks {
    pub(crate) dot_r0s: TaskId,
    pub(crate) dot_qy: TaskId,
    pub(crate) dot_yy: TaskId,
    /// Fused variant: both ω-step dots in one task (qy → AR_IN, yy → AR_IN2).
    pub(crate) dot_qy_yy: TaskId,
    /// Fused variant: ω from the two concurrent reduction outputs.
    pub(crate) post_omega_fused: TaskId,
    pub(crate) dot_rho: TaskId,
    pub(crate) dot_rr: TaskId,
    pub(crate) post_r0s: TaskId,
    pub(crate) post_qy: TaskId,
    pub(crate) post_yy: TaskId,
    pub(crate) post_rho: TaskId,
    pub(crate) init_rho: TaskId,
    pub(crate) post_rr: TaskId,
    pub(crate) upd_q: TaskId,
    pub(crate) upd_x: TaskId,
    pub(crate) upd_r: TaskId,
    pub(crate) upd_p1: TaskId,
    pub(crate) upd_p2: TaskId,
}

/// Per-tile task ids for every phase.
#[derive(Clone, Debug)]
struct TileTasks {
    spmv_ps: SpmvTasks,
    spmv_qy: SpmvTasks,
    scalar: ScalarTasks,
    /// Fused variant: the combined two-network reduction task.
    fused_allreduce: Option<TaskId>,
}

/// Allocates one solver tile's SRAM: six coefficient diagonals followed by
/// the seven iteration vectors, in the fixed order both drivers share.
///
/// # Panics
/// Panics if the tile runs out of SRAM.
pub(crate) fn alloc_solver_vecs(tile: &mut Tile, z: u32) -> ([u32; 6], TileVecs) {
    let mut diag = [0u32; 6];
    for d in &mut diag {
        *d = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: diagonals");
    }
    let vecs = TileVecs {
        p_pad: tile.mem.alloc_vec(z + 2, Dtype::F16).expect("SRAM: p"),
        q_pad: tile.mem.alloc_vec(z + 2, Dtype::F16).expect("SRAM: q"),
        s: tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: s"),
        y: tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: y"),
        r: tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: r"),
        r0: tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: r0"),
        x: tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: x"),
    };
    (diag, vecs)
}

/// Cycle counts of one iteration, by phase kind (shared by the 3D, 2D and
/// CG drivers; BiCGStab runs two SpMVs, four dots and four AllReduce
/// rounds per iteration, CG one SpMV and one or two rounds).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IterCycles {
    /// SpMV phases.
    pub spmv: u64,
    /// Local dot products.
    pub dot: u64,
    /// AllReduce rounds.
    pub allreduce: u64,
    /// AXPY/XPAY vector updates.
    pub update: u64,
    /// Scalar coefficient arithmetic.
    pub scalar: u64,
}

impl IterCycles {
    /// Total cycles of the iteration.
    pub fn total(&self) -> u64 {
        self.spmv + self.dot + self.allreduce + self.update + self.scalar
    }
}

/// The wafer-resident BiCGStab solver.
pub struct WaferBicgstab {
    mapping: Mapping3D,
    region: TileRegion,
    tiles: Vec<(TileVecs, TileTasks)>,
    allreduce: AllReduce,
    fused: bool,
}

impl WaferBicgstab {
    /// Distributes the system matrix and builds every tile's programs.
    ///
    /// # Panics
    /// Panics if the matrix is not a unit-diagonal 7-point operator, the
    /// mesh exceeds the fabric, or any tile runs out of SRAM.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>) -> WaferBicgstab {
        Self::build_inner(fabric, a, false)
    }

    /// Builds the **communication-fused** variant: the ω-step's two inner
    /// products `(q,y)` and `(y,y)` reduce **concurrently** over two
    /// disjoint virtual-channel networks, cutting the blocking reduction
    /// rounds per iteration from four to three. (The paper notes it "did
    /// not use a communication-hiding variant of BiCGStab", making the
    /// collectives blocking; this is the first step of that optimization,
    /// implementable with routing alone.)
    ///
    /// # Panics
    /// As for [`WaferBicgstab::build`].
    pub fn build_fused(fabric: &mut Fabric, a: &DiaMatrix<F16>) -> WaferBicgstab {
        Self::build_inner(fabric, a, true)
    }

    fn build_inner(fabric: &mut Fabric, a: &DiaMatrix<F16>, fused: bool) -> WaferBicgstab {
        assert!(has_unit_diagonal(a), "matrix must be diagonally preconditioned");
        assert_eq!(a.offsets().len(), 7, "7-point stencil required");
        let mesh = a.mesh();
        let mapping = Mapping3D::new(mesh, fabric.width(), fabric.height());
        let (w, h) = (mapping.fabric_w, mapping.fabric_h);
        let z = mapping.z as u32;

        configure_spmv_routes(fabric, w, h);
        let allreduce = AllReduce::build(fabric, w, h, regs::AR_IN, regs::AR_OUT, regs::AR_ACC);
        let allreduce2 = fused.then(|| {
            AllReduce::build_with_base(
                fabric,
                w,
                h,
                regs::AR_IN2,
                regs::AR_OUT2,
                regs::AR_ACC2,
                crate::allreduce::colors::DEFAULT_BASE + crate::allreduce::colors::SPAN,
            )
        });

        let mut tiles = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let fused_allreduce = allreduce2
                    .as_ref()
                    .map(|second| allreduce.build_fused_task(second, fabric, x, y));
                let tile = fabric.tile_mut(x, y);

                // Shared coefficient storage for both SpMVs.
                let (diag, vecs) = alloc_solver_vecs(tile, z);
                let coeffs = tile_coefficients(a, x, y);
                let lay_ps = SpmvLayout { z, diag, vpad: vecs.p_pad, u: vecs.s };
                let lay_qy = SpmvLayout { z, diag, vpad: vecs.q_pad, u: vecs.y };
                load_coefficients(tile, &lay_ps, &coeffs);
                // Zero the pads once; the live parts are rewritten by XPAYs.
                tile.mem.write_f16(vecs.p_pad, F16::ZERO);
                tile.mem.write_f16(vecs.p_pad + 2 * (z + 1), F16::ZERO);
                tile.mem.write_f16(vecs.q_pad, F16::ZERO);
                tile.mem.write_f16(vecs.q_pad + 2 * (z + 1), F16::ZERO);

                let spmv_ps = build_spmv_tile(tile, x, y, w, h, lay_ps, None);
                let spmv_qy = build_spmv_tile(tile, x, y, w, h, lay_qy, None);
                let scalar = build_scalar_tasks(&mut tile.core, &vecs, z);
                tiles.push((vecs, TileTasks { spmv_ps, spmv_qy, scalar, fused_allreduce }));
            }
        }
        crate::debug_lint(fabric);
        WaferBicgstab { mapping, region: spmv_region(mapping), tiles, allreduce, fused }
    }
}

/// The fabric region of a z-column solver, with its compute-phase budget.
pub(crate) fn spmv_region(m: Mapping3D) -> TileRegion {
    let budget = 200 * m.z as u64 + 200 * (m.fabric_w + m.fabric_h) as u64 + 50_000;
    TileRegion { origin: (0, 0), w: m.fabric_w, h: m.fabric_h, budget }
}

/// Builds every core-local phase task on one tile — the four dots, the
/// scalar coefficient arithmetic, and the six vector updates — and marks
/// each as a host-activated entry point. Shared verbatim by the
/// single-wafer and multi-wafer drivers (the phases touch no fabric, so
/// sharding cannot change them).
pub(crate) fn build_scalar_tasks(core: &mut Core, vecs: &TileVecs, z: u32) -> ScalarTasks {
    let p_live = vecs.p_pad + 2;
    let q_live = vecs.q_pad + 2;
    {
        // --- Dot phases (local MAC + move to the AllReduce input).
        let dot_r0s = {
            let body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, vecs.r0, vecs.s, z);
            core.add_task(Task::new("dot_r0s", body))
        };
        let dot_qy = {
            let body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, q_live, vecs.y, z);
            core.add_task(Task::new("dot_qy", body))
        };
        let dot_yy = {
            let body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, vecs.y, vecs.y, z);
            core.add_task(Task::new("dot_yy", body))
        };
        let dot_qy_yy = {
            let mut body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, q_live, vecs.y, z);
            body.extend(dot_stmts(core, regs::DOT_ACC, regs::AR_IN2, vecs.y, vecs.y, z));
            core.add_task(Task::new("dot_qy_yy", body))
        };
        let dot_rho = {
            let body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, vecs.r0, vecs.r, z);
            core.add_task(Task::new("dot_rho", body))
        };
        let dot_rr = {
            let body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, vecs.r, vecs.r, z);
            core.add_task(Task::new("dot_rr", body))
        };

        // --- Scalar coefficient phases.
        let post_r0s = core.add_task(Task::new("post_r0s", coeff::post_r0s()));
        let post_qy = core.add_task(Task::new("post_qy", coeff::post_qy()));
        let post_yy = core.add_task(Task::new("post_yy", coeff::post_yy()));
        let post_rho = core.add_task(Task::new("post_rho", coeff::post_rho()));
        let post_omega_fused =
            core.add_task(Task::new("post_omega_fused", coeff::post_omega_fused()));
        let init_rho = core.add_task(Task::new("init_rho", coeff::init_rho()));
        let post_rr = core.add_task(Task::new("post_rr", coeff::post_rr()));

        // --- Vector update phases.
        let upd_q = {
            let body = xpay_stmts(core, regs::NEG_ALPHA, q_live, vecs.r, vecs.s, z);
            core.add_task(Task::new("upd_q", body))
        };
        let upd_x = {
            let dp = core.add_dsr(mk::tensor16(p_live, z));
            let dq = core.add_dsr(mk::tensor16(q_live, z));
            let dx1 = core.add_dsr(mk::tensor16(vecs.x, z));
            let dx2 = core.add_dsr(mk::tensor16(vecs.x, z));
            core.add_task(Task::new(
                "upd_x",
                vec![
                    Stmt::Exec(TensorInstr {
                        op: Op::Axpy { scalar: regs::ALPHA },
                        dst: Some(dx1),
                        a: Some(dp),
                        b: None,
                    }),
                    Stmt::Exec(TensorInstr {
                        op: Op::Axpy { scalar: regs::OMEGA },
                        dst: Some(dx2),
                        a: Some(dq),
                        b: None,
                    }),
                ],
            ))
        };
        let upd_r = {
            let body = xpay_stmts(core, regs::NEG_OMEGA, vecs.r, q_live, vecs.y, z);
            core.add_task(Task::new("upd_r", body))
        };
        let upd_p1 = {
            let body = xpay_stmts(core, regs::NEG_OMEGA, p_live, p_live, vecs.s, z);
            core.add_task(Task::new("upd_p1", body))
        };
        let upd_p2 = {
            let body = xpay_stmts(core, regs::BETA, p_live, vecs.r, p_live, z);
            core.add_task(Task::new("upd_p2", body))
        };

        let tasks = ScalarTasks {
            dot_r0s,
            dot_qy,
            dot_yy,
            dot_qy_yy,
            post_omega_fused,
            dot_rho,
            dot_rr,
            post_r0s,
            post_qy,
            post_yy,
            post_rho,
            init_rho,
            post_rr,
            upd_q,
            upd_x,
            upd_r,
            upd_p1,
            upd_p2,
        };
        // Every phase task is a host-activated entry point.
        for t in [
            dot_r0s,
            dot_qy,
            dot_yy,
            dot_qy_yy,
            post_omega_fused,
            dot_rho,
            dot_rr,
            post_r0s,
            post_qy,
            post_yy,
            post_rho,
            init_rho,
            post_rr,
            upd_q,
            upd_x,
            upd_r,
            upd_p1,
            upd_p2,
        ] {
            core.mark_entry(t);
        }
        tasks
    }
}

impl WaferBicgstab {
    /// `true` if this instance fuses the ω-step reductions.
    pub fn is_fused(&self) -> bool {
        self.fused
    }

    /// The mesh→fabric mapping.
    pub fn mapping(&self) -> Mapping3D {
        self.mapping
    }

    fn idx(&self, x: usize, y: usize) -> usize {
        y * self.mapping.fabric_w + x
    }

    /// Loads the right-hand side and zeroes the iterate: `r = r̂₀ = p = b`,
    /// `x = 0`, then computes ρ₀ = (r̂₀, r) on the wafer.
    pub fn load_rhs(&self, fabric: &mut impl WaferExec, b: &[F16]) {
        self.try_load_rhs(fabric, b).unwrap_or_else(|e| panic!("bicgstab load stalled: {e}"))
    }

    /// Fallible [`WaferBicgstab::load_rhs`]: a stall comes back as the
    /// watchdog's [`StallReport`] instead of a panic, so the recovery layer
    /// can roll back.
    pub fn try_load_rhs(
        &self,
        fabric: &mut impl WaferExec,
        b: &[F16],
    ) -> Result<(), Box<StallReport>> {
        let m = self.mapping;
        assert_eq!(b.len(), m.cores() * m.z, "rhs length mismatch");
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                let (vecs, _) = &self.tiles[self.idx(x, y)];
                let rows = m.core_rows(x, y);
                let local = &b[rows];
                fabric.store_f16(x, y, vecs.r, local);
                fabric.store_f16(x, y, vecs.r0, local);
                fabric.store_f16(x, y, vecs.p_pad + 2, local);
                fabric.store_f16(x, y, vecs.x, &vec![F16::ZERO; m.z]);
                fabric.set_reg(x, y, regs::EPS, 1e-30);
                // q's live part gets overwritten before first use; pads are
                // already zero.
            }
        }
        // ρ₀ = (r̂₀, r).
        let (r, tiles) = (self.region, &self.tiles);
        r.phase(fabric, "dot", tiles, |t| t.1.scalar.dot_rho)?;
        r.allreduce(fabric, |x, y| self.allreduce.task(x, y))?;
        r.phase(fabric, "scalar", tiles, |t| t.1.scalar.init_rho)?;
        Ok(())
    }

    /// Runs one BiCGStab iteration, returning its cycle breakdown.
    pub fn iterate(&self, fabric: &mut impl WaferExec) -> IterCycles {
        self.try_iterate(fabric).unwrap_or_else(|e| panic!("bicgstab iteration stalled: {e}"))
    }

    /// Fallible [`WaferBicgstab::iterate`].
    pub fn try_iterate<E: WaferExec>(
        &self,
        fabric: &mut E,
    ) -> Result<IterCycles, Box<StallReport>> {
        let (r, tiles) = (self.region, &self.tiles);
        let reduce = |f: &mut E| r.allreduce(f, |x, y| self.allreduce.task(x, y));
        let mut c = IterCycles::default();
        // s := A p
        c.spmv += r.phase(fabric, "spmv", tiles, |t| t.1.spmv_ps.start)?;
        // α := ρ / (r̂₀, s)
        c.dot += r.phase(fabric, "dot", tiles, |t| t.1.scalar.dot_r0s)?;
        c.allreduce += reduce(fabric)?;
        c.scalar += r.phase(fabric, "scalar", tiles, |t| t.1.scalar.post_r0s)?;
        // q := r − α s
        c.update += r.phase(fabric, "update", tiles, |t| t.1.scalar.upd_q)?;
        // y := A q
        c.spmv += r.phase(fabric, "spmv", tiles, |t| t.1.spmv_qy.start)?;
        // ω := (q,y) / (y,y)
        if self.fused {
            // One combined task per tile drives both reduction networks
            // concurrently (all upstream work before either blocking
            // broadcast receive).
            let both = |x, y| tiles[self.idx(x, y)].1.fused_allreduce.expect("fused mode");
            c.dot += r.phase(fabric, "dot", tiles, |t| t.1.scalar.dot_qy_yy)?;
            c.allreduce += r.allreduce(fabric, both)?;
            c.scalar += r.phase(fabric, "scalar", tiles, |t| t.1.scalar.post_omega_fused)?;
        } else {
            c.dot += r.phase(fabric, "dot", tiles, |t| t.1.scalar.dot_qy)?;
            c.allreduce += reduce(fabric)?;
            c.scalar += r.phase(fabric, "scalar", tiles, |t| t.1.scalar.post_qy)?;
            c.dot += r.phase(fabric, "dot", tiles, |t| t.1.scalar.dot_yy)?;
            c.allreduce += reduce(fabric)?;
            c.scalar += r.phase(fabric, "scalar", tiles, |t| t.1.scalar.post_yy)?;
        }
        // x := x + α p + ω q
        c.update += r.phase(fabric, "update", tiles, |t| t.1.scalar.upd_x)?;
        // r := q − ω y
        c.update += r.phase(fabric, "update", tiles, |t| t.1.scalar.upd_r)?;
        // β and ρ roll-over
        c.dot += r.phase(fabric, "dot", tiles, |t| t.1.scalar.dot_rho)?;
        c.allreduce += reduce(fabric)?;
        c.scalar += r.phase(fabric, "scalar", tiles, |t| t.1.scalar.post_rho)?;
        // p := r + β (p − ω s)
        c.update += r.phase(fabric, "update", tiles, |t| t.1.scalar.upd_p1)?;
        c.update += r.phase(fabric, "update", tiles, |t| t.1.scalar.upd_p2)?;
        Ok(c)
    }

    /// Computes ‖r‖ on the wafer (observability; not part of Table I's
    /// per-iteration operation budget).
    pub fn residual_norm(&self, fabric: &mut impl WaferExec) -> f32 {
        self.try_residual_norm(fabric)
            .unwrap_or_else(|e| panic!("bicgstab residual phase stalled: {e}"))
    }

    /// Fallible [`WaferBicgstab::residual_norm`].
    pub fn try_residual_norm(&self, fabric: &mut impl WaferExec) -> Result<f32, Box<StallReport>> {
        let (r, tiles) = (self.region, &self.tiles);
        r.phase(fabric, "dot", tiles, |t| t.1.scalar.dot_rr)?;
        r.allreduce(fabric, |x, y| self.allreduce.task(x, y))?;
        r.phase(fabric, "scalar", tiles, |t| t.1.scalar.post_rr)?;
        Ok(fabric.reg(0, 0, regs::RR).max(0.0).sqrt())
    }

    /// Reads the iterate back from tile memories (global mesh order).
    pub fn read_x(&self, fabric: &impl WaferExec) -> Vec<F16> {
        let m = self.mapping;
        let mut out = vec![F16::ZERO; m.cores() * m.z];
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                let (vecs, _) = &self.tiles[self.idx(x, y)];
                let rows = m.core_rows(x, y);
                let local = fabric.load_f16(x, y, vecs.x, m.z);
                out[rows].copy_from_slice(&local);
            }
        }
        out
    }

    /// SRAM address of tile `(x, y)`'s slice of the iterate `x` (fault
    /// targeting and inspection).
    pub fn x_addr(&self, x: usize, y: usize) -> u32 {
        self.tiles[self.idx(x, y)].0.x
    }
}

impl<E: WaferExec> WaferSolver<E> for WaferBicgstab {
    type Cycles = IterCycles;

    fn load(&self, exec: &mut E, b: &[F16]) -> Result<(), Box<StallReport>> {
        self.try_load_rhs(exec, b)
    }

    fn step(&self, exec: &mut E, _: usize) -> Result<IterCycles, Box<StallReport>> {
        self.try_iterate(exec)
    }

    fn norm_r(&self, exec: &mut E) -> Result<f64, Box<StallReport>> {
        Ok(self.try_residual_norm(exec)? as f64)
    }

    fn fetch_x(&self, exec: &E) -> Vec<F16> {
        self.read_x(exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solver::policy::MixedF16;
    use solver::{bicgstab as host_bicgstab, SolveOptions};
    use stencil::mesh::Mesh3D;
    use stencil::problem::manufactured;

    fn problem(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>, Vec<f64>) {
        let p = manufactured(mesh, (1.0, -0.5, 0.5), 11).preconditioned();
        let a16: DiaMatrix<F16> = p.matrix.convert();
        let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        (a16, b16, p.exact.unwrap())
    }

    #[test]
    fn wafer_bicgstab_converges() {
        let mesh = Mesh3D::new(4, 4, 8);
        let (a, b, exact) = problem(mesh);
        let mut fabric = Fabric::new(4, 4);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        let (x, stats) = solver.solve(&mut fabric, &b, 12);
        let last = *stats.residuals.last().unwrap();
        assert!(last < 0.05, "relative residual after 12 iters: {last}");
        // Solution should be close to the exact one at fp16 level.
        let err = x.iter().zip(&exact).map(|(a, b)| (a.to_f64() - b).abs()).fold(0.0, f64::max);
        let scale = exact.iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!(err < 0.15 * scale.max(1.0), "max err {err} (scale {scale})");
    }

    #[test]
    fn wafer_matches_host_mixed_policy_trajectory() {
        // The wafer solve and the host MixedF16 solve use the same
        // arithmetic classes (fp16 storage, fp32 dot accumulation); their
        // residual trajectories agree to within rounding-order noise.
        let mesh = Mesh3D::new(3, 3, 6);
        let (a, b, _) = problem(mesh);
        let mut fabric = Fabric::new(3, 3);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        let iters = 6;
        let (_, stats) = solver.solve(&mut fabric, &b, iters);

        let opts = SolveOptions { max_iters: iters, rtol: 0.0, record_true_residual: false };
        let host = host_bicgstab::<MixedF16>(&a, &b, &opts);
        // Once either trajectory reaches the fp16 storage noise floor
        // (2^-11 ≈ 4.9e-4 relative), recursive residuals are rounding noise
        // and their ratio is instance-dependent; clamp the comparison there.
        let floor = 5e-4;
        for (i, rec) in host.history.records.iter().enumerate() {
            let wafer = stats.residuals[i].max(floor);
            let host_rel = rec.recursive_rel.max(floor);
            let ratio = (wafer / host_rel).max(host_rel / wafer);
            assert!(ratio < 5.0, "iter {}: wafer {wafer:.3e} vs host {host_rel:.3e}", i + 1,);
        }
    }

    #[test]
    fn spmv_dominates_iteration_cycles_for_large_z() {
        let mesh = Mesh3D::new(3, 3, 64);
        let (a, b, _) = problem(mesh);
        let mut fabric = Fabric::new(3, 3);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        solver.load_rhs(&mut fabric, &b);
        let c = solver.iterate(&mut fabric);
        assert!(c.spmv > c.dot, "{c:?}");
        assert!(c.spmv > c.update, "{c:?}");
        assert!(c.total() > 0);
    }

    #[test]
    fn fused_variant_matches_standard_and_cuts_reduction_rounds() {
        let mesh = Mesh3D::new(8, 8, 16);
        let (a, b, _) = problem(mesh);
        let iters = 6;

        let mut f1 = Fabric::new(8, 8);
        let standard = WaferBicgstab::build(&mut f1, &a);
        assert!(!standard.is_fused());
        let (_, s1) = standard.solve(&mut f1, &b, iters);

        let mut f2 = Fabric::new(8, 8);
        let fused = WaferBicgstab::build_fused(&mut f2, &a);
        assert!(fused.is_fused());
        let (_, s2) = fused.solve(&mut f2, &b, iters);

        // Same numerics up to reduction-order rounding: under port
        // contention the two networks' f32 sums associate differently, so
        // trajectories agree early and may drift late (as with any
        // reduction-order change). Check the early iterations tightly and
        // overall convergence loosely.
        for (r1, r2) in s1.residuals.iter().zip(&s2.residuals).take(3) {
            let ratio = (r1 / r2).max(r2 / r1);
            assert!(ratio < 1.2, "early trajectories must agree: {r1} vs {r2}");
        }
        let best1 = s1.residuals.iter().copied().fold(f64::INFINITY, f64::min);
        let best2 = s2.residuals.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(best2 < 10.0 * best1 + 0.05, "fused must converge comparably: {best1} vs {best2}");
        // Fewer blocking reduction rounds -> fewer allreduce cycles. (The
        // benefit grows with fabric diameter; at 8x8 it is ~10%, at 24x24
        // ~14%, and at machine scale the fused round approaches the cost of
        // a single one.)
        let ar1: u64 = s1.iterations.iter().map(|c| c.allreduce).sum();
        let ar2: u64 = s2.iterations.iter().map(|c| c.allreduce).sum();
        assert!((ar2 as f64) < 0.95 * ar1 as f64, "fused must cut reduction time: {ar1} -> {ar2}");
        assert!(s2.mean_cycles() < s1.mean_cycles(), "fused iteration is faster overall");
    }

    #[test]
    fn memory_fits_paper_z() {
        // The solver layout must accommodate the paper's Z = 1536 in 48 KB.
        let mesh = Mesh3D::new(2, 2, 1536);
        let a16: DiaMatrix<F16> = {
            let p = manufactured(mesh, (0.0, 0.0, 0.0), 1).preconditioned();
            p.matrix.convert()
        };
        let mut fabric = Fabric::new(2, 2);
        let _solver = WaferBicgstab::build(&mut fabric, &a16);
        let used = fabric.tile(0, 0).mem.used();
        assert!(used <= 48 * 1024, "tile memory {used} exceeds SRAM");
        assert!(used > 26 * 1536, "layout should hold 13 Z-vectors: {used}");
    }
}

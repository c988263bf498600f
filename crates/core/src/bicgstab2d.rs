//! BiCGStab on the **2D block mapping** of §IV.2.
//!
//! The paper sketches the 9-point 2D SpMV and asserts "the efficiency of
//! this approach is approximately the same as for the 3D mapping". This
//! module completes the sketch into a full solver so that claim can be
//! *measured*: the two SpMVs use the output-halo-exchange kernel (sharing
//! one copy of the nine coefficient arrays), the dots run row-wise with the
//! mixed-precision MAC, the AXPY/XPAY updates sweep the block row by row,
//! and the scalar coefficients use the same Fig. 6 AllReduce as the 3D
//! solver.
//!
//! The result vectors `s = A p` and `y = A q` are *not copied out* of the
//! extended output buffers: dot products and updates address their interior
//! rows directly (each interior row `(i+1, 1..=by)` is a contiguous slice).

use crate::allreduce::AllReduce;
use crate::bicgstab::{coeff, regs, IterCycles};
use crate::exec::{TileRegion, WaferExec};
use crate::recovery::{RecoveryLog, RecoveryPolicy, WaferSolver};
use crate::spmv2d::{Spmv2dLayout, WaferSpmv2d};
use stencil::decomp::Block2D;
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh2D;
use wse_arch::dsr::mk;
use wse_arch::fabric::StallReport;
use wse_arch::instr::{Op, RegOp, Stmt, Task, TensorInstr};
use wse_arch::types::{Dtype, TaskId};
use wse_arch::{Fabric, Tile};
use wse_float::F16;

/// Per-tile vector addresses (all `bx·by` contiguous block arrays except
/// the SpMV sources/outputs, which live in the kernel layouts).
#[derive(Copy, Clone, Debug)]
struct Tile2dVecs {
    /// Residual.
    r: u32,
    /// Shadow residual.
    r0: u32,
    /// Iterate.
    x: u32,
}

#[derive(Clone, Debug)]
struct Tile2dTasks {
    spmv_ps: TaskId,
    spmv_qy: TaskId,
    dot_r0s: TaskId,
    dot_qy: TaskId,
    dot_yy: TaskId,
    dot_rho: TaskId,
    dot_rr: TaskId,
    post_r0s: TaskId,
    post_qy: TaskId,
    post_yy: TaskId,
    post_rho: TaskId,
    init_rho: TaskId,
    post_rr: TaskId,
    upd_q: TaskId,
    upd_x: TaskId,
    upd_r: TaskId,
    upd_p: TaskId,
}

/// The 2D-mapped wafer BiCGStab solver.
///
/// The program occupies the `w × h` tile region whose top-left tile sits
/// at `origin` (`(0, 0)` unless built with
/// [`WaferBicgstab2d::build_at`]). The handle is `Clone`: because routing
/// is per-tile state, a built program is translation-invariant, and a
/// region blitted elsewhere is driven through [`WaferBicgstab2d::rebased`]
/// — this is what lets the multi-tenant service compile once on a scratch
/// fabric and place the cached image into any tenant region.
#[derive(Clone)]
pub struct WaferBicgstab2d {
    /// The program's tile region. The 2D SpMV's halo exchange happens
    /// inside its task chain, so it is attributed to the "spmv" phase,
    /// matching how the paper accounts the broadcast.
    region: TileRegion,
    block: Block2D,
    lay_p: Vec<Spmv2dLayout>,
    vecs: Vec<Tile2dVecs>,
    tasks: Vec<Tile2dTasks>,
    allreduce: AllReduce,
}

/// Emits `bx` row-wise statements applying `f(row_dst, row_a, row_b)` over
/// contiguous row slices of length `by`.
fn rowwise(
    tile: &mut Tile,
    bx: usize,
    by: usize,
    mut row_addrs: impl FnMut(usize) -> (u32, u32, Option<u32>),
    op: Op,
) -> Vec<Stmt> {
    let mut body = Vec::with_capacity(bx);
    for i in 0..bx {
        let (dst, a, b) = row_addrs(i);
        let dd = tile.core.add_dsr(mk::tensor16(dst, by as u32));
        let da = tile.core.add_dsr(mk::tensor16(a, by as u32));
        let db = b.map(|addr| tile.core.add_dsr(mk::tensor16(addr, by as u32)));
        body.push(Stmt::Exec(TensorInstr { op, dst: Some(dd), a: Some(da), b: db }));
    }
    body
}

/// Emits a row-wise mixed-precision dot of two block-shaped operands into
/// `AR_IN`-style registers.
fn rowwise_dot(
    tile: &mut Tile,
    bx: usize,
    by: usize,
    mut row_addrs: impl FnMut(usize) -> (u32, u32),
    move_to: usize,
) -> Vec<Stmt> {
    let mut body = vec![Stmt::SetReg { reg: regs::DOT_ACC, value: 0.0 }];
    for i in 0..bx {
        let (a, b) = row_addrs(i);
        let da = tile.core.add_dsr(mk::tensor16(a, by as u32));
        let db = tile.core.add_dsr(mk::tensor16(b, by as u32));
        body.push(Stmt::Exec(TensorInstr {
            op: Op::MacReg { acc: regs::DOT_ACC },
            dst: None,
            a: Some(da),
            b: Some(db),
        }));
    }
    body.push(Stmt::RegArith { op: RegOp::Mov, dst: move_to, a: regs::DOT_ACC, b: regs::DOT_ACC });
    body
}

impl WaferBicgstab2d {
    /// Distributes a unit-diagonal 9-point system (mesh = `block` ×
    /// fabric) and builds all per-tile programs.
    ///
    /// # Panics
    /// Panics on geometry mismatch, non-unit diagonal, or SRAM exhaustion.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>, block: Block2D) -> WaferBicgstab2d {
        Self::build_at(fabric, a, block, (0, 0))
    }

    /// Like [`WaferBicgstab2d::build`], with the program's `w × h` tile
    /// region placed so its top-left tile sits at `origin` — the
    /// origin-parameterized builder tenant regions are populated with. All
    /// routes and tasks stay strictly inside the region, so co-resident
    /// programs in disjoint regions cannot interact.
    ///
    /// # Panics
    /// Panics on geometry mismatch, non-unit diagonal, SRAM exhaustion, or
    /// a region reaching past the fabric.
    pub fn build_at(
        fabric: &mut Fabric,
        a: &DiaMatrix<F16>,
        block: Block2D,
        origin: (usize, usize),
    ) -> WaferBicgstab2d {
        assert!(stencil::precond::has_unit_diagonal(a), "matrix must be diagonally preconditioned");
        let mesh3 = a.mesh();
        assert_eq!(mesh3.nz, 1, "2D mapping requires nz == 1");
        let (w, h) = (mesh3.nx / block.bx, mesh3.ny / block.by);
        assert_eq!(w * block.bx, mesh3.nx, "mesh x must tile evenly");
        assert_eq!(h * block.by, mesh3.ny, "mesh y must tile evenly");

        assert!(w >= 2 && h >= 2, "2D solver needs at least a 2x2 tile region");
        let (ox, oy) = origin;
        assert!(ox + w <= fabric.width() && oy + h <= fabric.height(), "region exceeds fabric");
        WaferSpmv2d::configure_routes_at(fabric, ox, oy, w, h);
        let allreduce = AllReduce::build_at(
            fabric,
            ox,
            oy,
            w,
            h,
            regs::AR_IN,
            regs::AR_OUT,
            regs::AR_ACC,
            crate::allreduce::colors::DEFAULT_BASE,
        );

        let (bx, by) = (block.bx, block.by);
        let n = (bx * by) as u32;
        let mut lay_p = Vec::new();
        let mut vecs = Vec::new();
        let mut tasks = Vec::new();

        for ty in 0..h {
            for tx in 0..w {
                let tile = fabric.tile_mut(ox + tx, oy + ty);
                // One copy of the nine coefficient arrays, shared by both
                // SpMV instances (as the paper's memory accounting assumes).
                let mut coef = [0u32; 9];
                for c in &mut coef {
                    *c = tile.mem.alloc_vec(n, Dtype::F16).expect("SRAM: coefficients");
                }
                let ub = ((bx + 2) * (by + 2)) as u32;
                let lp = Spmv2dLayout {
                    block,
                    coef,
                    v: tile.mem.alloc_vec(n, Dtype::F16).expect("SRAM: p"),
                    ubuf: tile.mem.alloc_vec(ub, Dtype::F16).expect("SRAM: s"),
                };
                let lq = Spmv2dLayout {
                    block,
                    coef,
                    v: tile.mem.alloc_vec(n, Dtype::F16).expect("SRAM: q"),
                    ubuf: tile.mem.alloc_vec(ub, Dtype::F16).expect("SRAM: y"),
                };
                WaferSpmv2d::load_tile_coefficients(tile, &lp, a, tx, ty);
                let tv = Tile2dVecs {
                    r: tile.mem.alloc_vec(n, Dtype::F16).expect("SRAM: r"),
                    r0: tile.mem.alloc_vec(n, Dtype::F16).expect("SRAM: r0"),
                    x: tile.mem.alloc_vec(n, Dtype::F16).expect("SRAM: x"),
                };

                let spmv_ps = WaferSpmv2d::build_tile_task(tile, &lp, tx, ty, w, h);
                let spmv_qy = WaferSpmv2d::build_tile_task(tile, &lq, tx, ty, w, h);

                let row = |base: u32, i: usize| base + 2 * (i * by) as u32;
                let s_row = |i: usize| lp.u_addr(i + 1, 1);
                let y_row = |i: usize| lq.u_addr(i + 1, 1);

                // --- Dots. ---
                let dot_r0s = {
                    let body =
                        rowwise_dot(tile, bx, by, |i| (row(tv.r0, i), s_row(i)), regs::AR_IN);
                    tile.core.add_task(Task::new("2d_dot_r0s", body))
                };
                let dot_qy = {
                    let body = rowwise_dot(tile, bx, by, |i| (row(lq.v, i), y_row(i)), regs::AR_IN);
                    tile.core.add_task(Task::new("2d_dot_qy", body))
                };
                let dot_yy = {
                    let body = rowwise_dot(tile, bx, by, |i| (y_row(i), y_row(i)), regs::AR_IN);
                    tile.core.add_task(Task::new("2d_dot_yy", body))
                };
                let dot_rho = {
                    let body =
                        rowwise_dot(tile, bx, by, |i| (row(tv.r0, i), row(tv.r, i)), regs::AR_IN);
                    tile.core.add_task(Task::new("2d_dot_rho", body))
                };
                let dot_rr = {
                    let body =
                        rowwise_dot(tile, bx, by, |i| (row(tv.r, i), row(tv.r, i)), regs::AR_IN);
                    tile.core.add_task(Task::new("2d_dot_rr", body))
                };

                // --- Scalar phases (the 3D solver's bodies). ---
                let post_r0s = tile.core.add_task(Task::new("2d_post_r0s", coeff::post_r0s()));
                let post_qy = tile.core.add_task(Task::new("2d_post_qy", coeff::post_qy()));
                let post_yy = tile.core.add_task(Task::new("2d_post_yy", coeff::post_yy()));
                let post_rho = tile.core.add_task(Task::new("2d_post_rho", coeff::post_rho()));
                let init_rho = tile.core.add_task(Task::new("2d_init_rho", coeff::init_rho()));
                let post_rr = tile.core.add_task(Task::new("2d_post_rr", coeff::post_rr()));

                // --- Vector updates (row-wise). ---
                // q := r − α s  (q is the second SpMV's input block).
                let upd_q = {
                    let body = rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(lq.v, i), row(tv.r, i), Some(s_row(i))),
                        Op::Xpay { scalar: regs::NEG_ALPHA },
                    );
                    tile.core.add_task(Task::new("2d_upd_q", body))
                };
                // x += α p; x += ω q.
                let upd_x = {
                    let mut body = rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(tv.x, i), row(lp.v, i), None),
                        Op::Axpy { scalar: regs::ALPHA },
                    );
                    body.extend(rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(tv.x, i), row(lq.v, i), None),
                        Op::Axpy { scalar: regs::OMEGA },
                    ));
                    tile.core.add_task(Task::new("2d_upd_x", body))
                };
                // r := q − ω y.
                let upd_r = {
                    let body = rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(tv.r, i), row(lq.v, i), Some(y_row(i))),
                        Op::Xpay { scalar: regs::NEG_OMEGA },
                    );
                    tile.core.add_task(Task::new("2d_upd_r", body))
                };
                // p := r + β (p − ω s): tilt then XPAY, row-wise.
                let upd_p = {
                    let mut body = rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(lp.v, i), row(lp.v, i), Some(s_row(i))),
                        Op::Xpay { scalar: regs::NEG_OMEGA },
                    );
                    body.extend(rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(lp.v, i), row(tv.r, i), Some(row(lp.v, i))),
                        Op::Xpay { scalar: regs::BETA },
                    ));
                    tile.core.add_task(Task::new("2d_upd_p", body))
                };

                lay_p.push(lp);
                vecs.push(tv);
                // Every phase task is a host-activated entry point.
                for t in [
                    spmv_ps, spmv_qy, dot_r0s, dot_qy, dot_yy, dot_rho, dot_rr, post_r0s, post_qy,
                    post_yy, post_rho, init_rho, post_rr, upd_q, upd_x, upd_r, upd_p,
                ] {
                    tile.core.mark_entry(t);
                }
                tasks.push(Tile2dTasks {
                    spmv_ps,
                    spmv_qy,
                    dot_r0s,
                    dot_qy,
                    dot_yy,
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
                    upd_p,
                });
            }
        }
        crate::debug_lint(fabric);
        let budget = 2_000 * (block.points() as u64) + 100_000;
        let region = TileRegion { origin, w, h, budget };
        WaferBicgstab2d { region, block, lay_p, vecs, tasks, allreduce }
    }

    /// A handle for the **same program** resident at another origin — used
    /// after blitting the built region (e.g. a cached compiled image) to a
    /// different place on a possibly different fabric. Task ids, SRAM
    /// addresses, and layouts are all per-tile state that the blit copied
    /// verbatim; only the origin changes.
    pub fn rebased(&self, origin: (usize, usize)) -> WaferBicgstab2d {
        let mut s = self.clone();
        s.region.origin = origin;
        s.allreduce = self.allreduce.rebased(origin.0, origin.1);
        s
    }

    /// The `(w, h)` tile extent of the program's region.
    pub fn region_dims(&self) -> (usize, usize) {
        (self.region.w, self.region.h)
    }

    /// The fabric coordinates of the region's top-left tile.
    pub fn origin(&self) -> (usize, usize) {
        self.region.origin
    }

    /// The global 2D mesh the region covers.
    fn mesh(&self) -> Mesh2D {
        Mesh2D::new(self.region.w * self.block.bx, self.region.h * self.block.by)
    }

    /// [`WaferSolver::solve_with_recovery`] on a fabric, callable without
    /// importing the trait.
    pub fn solve_with_recovery(
        &self,
        fabric: &mut Fabric,
        a: &DiaMatrix<F16>,
        b: &[F16],
        iters: usize,
        policy: &RecoveryPolicy,
    ) -> (Vec<F16>, Vec<f64>, RecoveryLog) {
        WaferSolver::solve_with_recovery(self, fabric, a, b, iters, policy)
    }
}

impl<E: WaferExec> WaferSolver<E> for WaferBicgstab2d {
    type Cycles = IterCycles;

    /// Scatters `b` (global 2D mesh order), zeroes `x`, seeds ρ and ε.
    fn load(&self, exec: &mut E, b: &[F16]) -> Result<(), Box<StallReport>> {
        let (bx, by) = (self.block.bx, self.block.by);
        let mesh = self.mesh();
        assert_eq!(b.len(), mesh.len(), "rhs length mismatch");
        let (r, (ox, oy)) = (self.region, self.region.origin);
        for ty in 0..r.h {
            for tx in 0..r.w {
                let k = ty * r.w + tx;
                let mut local = vec![F16::ZERO; bx * by];
                for i in 0..bx {
                    for j in 0..by {
                        local[i * by + j] = b[mesh.idx(tx * bx + i, ty * by + j)];
                    }
                }
                let (x, y) = (ox + tx, oy + ty);
                exec.store_f16(x, y, self.vecs[k].r, &local);
                exec.store_f16(x, y, self.vecs[k].r0, &local);
                exec.store_f16(x, y, self.lay_p[k].v, &local);
                exec.store_f16(x, y, self.vecs[k].x, &vec![F16::ZERO; bx * by]);
                exec.set_reg(x, y, regs::EPS, 1e-30);
            }
        }
        r.phase(exec, "dot", &self.tasks, |t| t.dot_rho)?;
        r.allreduce(exec, |x, y| self.allreduce.task(x, y))?;
        r.phase(exec, "scalar", &self.tasks, |t| t.init_rho)?;
        Ok(())
    }

    fn step(&self, exec: &mut E, _: usize) -> Result<IterCycles, Box<StallReport>> {
        let (r, tasks) = (self.region, &self.tasks);
        let reduce = |e: &mut E| r.allreduce(e, |x, y| self.allreduce.task(x, y));
        let mut c = IterCycles::default();
        c.spmv += r.phase(exec, "spmv", tasks, |t| t.spmv_ps)?;
        c.dot += r.phase(exec, "dot", tasks, |t| t.dot_r0s)?;
        c.allreduce += reduce(exec)?;
        c.scalar += r.phase(exec, "scalar", tasks, |t| t.post_r0s)?;
        c.update += r.phase(exec, "update", tasks, |t| t.upd_q)?;
        c.spmv += r.phase(exec, "spmv", tasks, |t| t.spmv_qy)?;
        c.dot += r.phase(exec, "dot", tasks, |t| t.dot_qy)?;
        c.allreduce += reduce(exec)?;
        c.scalar += r.phase(exec, "scalar", tasks, |t| t.post_qy)?;
        c.dot += r.phase(exec, "dot", tasks, |t| t.dot_yy)?;
        c.allreduce += reduce(exec)?;
        c.scalar += r.phase(exec, "scalar", tasks, |t| t.post_yy)?;
        c.update += r.phase(exec, "update", tasks, |t| t.upd_x)?;
        c.update += r.phase(exec, "update", tasks, |t| t.upd_r)?;
        c.dot += r.phase(exec, "dot", tasks, |t| t.dot_rho)?;
        c.allreduce += reduce(exec)?;
        c.scalar += r.phase(exec, "scalar", tasks, |t| t.post_rho)?;
        c.update += r.phase(exec, "update", tasks, |t| t.upd_p)?;
        Ok(c)
    }

    fn norm_r(&self, exec: &mut E) -> Result<f64, Box<StallReport>> {
        let r = self.region;
        r.phase(exec, "dot", &self.tasks, |t| t.dot_rr)?;
        r.allreduce(exec, |x, y| self.allreduce.task(x, y))?;
        r.phase(exec, "scalar", &self.tasks, |t| t.post_rr)?;
        let (ox, oy) = r.origin;
        Ok(exec.reg(ox, oy, regs::RR).max(0.0).sqrt() as f64)
    }

    /// Gathers the iterate (global 2D mesh order).
    fn fetch_x(&self, exec: &E) -> Vec<F16> {
        let (bx, by) = (self.block.bx, self.block.by);
        let mesh = self.mesh();
        let (r, (ox, oy)) = (self.region, self.region.origin);
        let mut out = vec![F16::ZERO; mesh.len()];
        for ty in 0..r.h {
            for tx in 0..r.w {
                let local = exec.load_f16(ox + tx, oy + ty, self.vecs[ty * r.w + tx].x, bx * by);
                for i in 0..bx {
                    for j in 0..by {
                        out[mesh.idx(tx * bx + i, ty * by + j)] = local[i * by + j];
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solver::policy::MixedF16;
    use solver::{bicgstab as host_bicgstab, SolveOptions};
    use stencil::precond::jacobi_scale;
    use stencil::stencil9::convection_diffusion9;

    fn system(w: usize, h: usize, block: Block2D) -> (DiaMatrix<F16>, Vec<F16>) {
        let mesh = block.covered_mesh(w, h);
        let a = convection_diffusion9(mesh, (1.5, -0.5));
        let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i % 9) as f64) * 0.125 - 0.5).collect();
        let mut b = vec![0.0; mesh.len()];
        a.matvec_f64(&exact, &mut b);
        let sys = jacobi_scale(&a, &b);
        let a16: DiaMatrix<F16> = sys.matrix.convert();
        let b16: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        (a16, b16)
    }

    #[test]
    fn two_d_bicgstab_converges() {
        let block = Block2D::new(4, 4);
        let (a, b) = system(3, 3, block);
        let mut fabric = Fabric::new(3, 3);
        let solver = WaferBicgstab2d::build(&mut fabric, &a, block);
        let (_, stats) = solver.solve(&mut fabric, &b, 20);
        let best = stats.residuals.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(best < 0.02, "best residual {best} ({:?})", stats.residuals);
    }

    #[test]
    fn two_d_matches_host_mixed_policy() {
        let block = Block2D::new(3, 3);
        let (a, b) = system(3, 3, block);
        let mut fabric = Fabric::new(3, 3);
        let solver = WaferBicgstab2d::build(&mut fabric, &a, block);
        let iters = 6;
        let (_, stats) = solver.solve(&mut fabric, &b, iters);
        let host = host_bicgstab::<MixedF16>(
            &a,
            &b,
            &SolveOptions { max_iters: iters, rtol: 0.0, record_true_residual: false },
        );
        for (wr, hr) in stats.residuals.iter().zip(&host.history.records).take(4) {
            let ratio = (wr / hr.recursive_rel.max(1e-12)).max(hr.recursive_rel / wr.max(1e-12));
            assert!(ratio < 5.0, "wafer {wr:.3e} vs host {:.3e}", hr.recursive_rel);
        }
    }

    #[test]
    fn efficiency_comparable_to_3d_mapping() {
        // The paper's §IV.2 claim. Compare cycles per meshpoint per
        // iteration: 3D with z = 16 on 4x4 (256 points) vs 2D with 4x4
        // blocks on 4x4 (256 points).
        use crate::bicgstab::WaferBicgstab;
        use stencil::mesh::Mesh3D;
        use stencil::problem::manufactured;

        let mesh3 = Mesh3D::new(4, 4, 16);
        let p3 = manufactured(mesh3, (1.0, -0.5, 0.5), 3).preconditioned();
        let a3: DiaMatrix<F16> = p3.matrix.convert();
        let b3: Vec<F16> = p3.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        let mut f3 = Fabric::new(4, 4);
        let s3 = WaferBicgstab::build(&mut f3, &a3);
        s3.load_rhs(&mut f3, &b3);
        let c3 = s3.iterate(&mut f3).total() as f64 / 256.0;

        let block = Block2D::new(4, 4);
        let (a2, b2) = system(4, 4, block);
        let mut f2 = Fabric::new(4, 4);
        let s2 = WaferBicgstab2d::build(&mut f2, &a2, block);
        s2.load(&mut f2, &b2).unwrap();
        let c2 = s2.step(&mut f2, 0).unwrap().total() as f64 / 256.0;

        let ratio = (c2 / c3).max(c3 / c2);
        assert!(
            ratio < 4.0,
            "2D and 3D mappings should be within a small factor: {c3:.1} vs {c2:.1} cycles/point"
        );
    }
}

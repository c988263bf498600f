//! Heterogeneous-media workflow: a high-contrast variable-coefficient
//! diffusion system (the matrix class multiphase physics produces), its
//! conditioning, the fp16 plateau it induces on the wafer, and the
//! refinement loop that recovers full accuracy.
//!
//! ```text
//! cargo run --release --example heterogeneous_media [-- <contrast-exponent>]
//! ```

use wafer_stencil::kernels::WaferSolver;
use wafer_stencil::prelude::*;
use wafer_stencil::solver_::refinement::{iterative_refinement, RefinementOptions};
use wafer_stencil::solver_::spectral::estimate_condition;
use wafer_stencil::solver_::study::run_policy;
use wafer_stencil::stencil_::precond::jacobi_scale;
use wafer_stencil::stencil_::variable::{variable_diffusion, DiffusivityField};

fn main() {
    let contrast_exp: i32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let contrast = 10f64.powi(contrast_exp);

    let mesh = Mesh3D::new(5, 5, 8);
    println!(
        "random log-uniform diffusivity, contrast 1:{contrast:.0}, mesh {}x{}x{}",
        mesh.nx, mesh.ny, mesh.nz
    );
    let field = DiffusivityField::random(mesh, 1.0 / contrast, 1.0, 2024);
    let a = variable_diffusion(&field);
    let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i * 7) % 13) as f64 * 0.1 - 0.6).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&exact, &mut b);

    let raw_kappa = estimate_condition(&a, 150).kappa;
    let sys = jacobi_scale(&a, &b);
    let pre_kappa = estimate_condition(&sys.matrix, 150).kappa;
    println!("condition estimate: raw {raw_kappa:.1} -> Jacobi-scaled {pre_kappa:.1}");

    // fp16-plateau on the host at the wafer's precision policy.
    let opts = SolveOptions { max_iters: 40, rtol: 1e-14, record_true_residual: true };
    let mixed = run_policy::<MixedF16>(&sys.matrix, &sys.rhs, &opts);
    println!(
        "mixed-precision BiCGStab plateau: {:.2e} (≈ κ·ε16 = {:.2e})",
        mixed.best(),
        pre_kappa * f64::powi(2.0, -11)
    );

    // The same system on the simulated wafer.
    let a16: DiaMatrix<F16> = sys.matrix.convert();
    let b16: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let mut fabric = Fabric::new(mesh.nx, mesh.ny);
    let wafer = WaferBicgstab::build(&mut fabric, &a16);
    let (_, stats) = wafer.solve(&mut fabric, &b16, 25);
    let wafer_best = stats.residuals.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "on-wafer BiCGStab best residual: {wafer_best:.2e} ({} iterations run)",
        stats.residuals.len()
    );

    // Refinement: fp16 inner solves, fp64 answer.
    let refined = iterative_refinement::<MixedF16>(
        &sys.matrix,
        &sys.rhs,
        &RefinementOptions { max_outer: 30, inner_iters: 10, rtol: 1e-10 },
    );
    let err = refined.x.iter().zip(&exact).map(|(x, e)| (x - e).abs()).fold(0.0_f64, f64::max);
    println!(
        "iterative refinement: converged = {}, outer passes = {}, final residual = {:.2e}, max solution error = {:.2e}",
        refined.converged,
        refined.outer_iters,
        refined.history.final_recursive(),
        err
    );
    println!("(fp16 arithmetic everywhere inside; fp64 accuracy outside — §VI.B's remedy)");
}

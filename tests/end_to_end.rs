//! End-to-end integration: CFD → stencil system → wafer solver, and
//! wafer-vs-host consistency across problem classes.

use wafer_stencil::cfd_::cavity::Cavity;
use wafer_stencil::cfd_::grid::Component;
use wafer_stencil::kernels::WaferSolver;
use wafer_stencil::prelude::*;
use wafer_stencil::solver_::policy::MixedF16;
use wafer_stencil::stencil_::precond::jacobi_scale;

/// The full pipeline of the paper: a CFD momentum system, diagonally
/// preconditioned, solved by BiCGStab *on the simulated wafer*.
#[test]
fn cfd_momentum_system_solves_on_the_wafer() {
    // Small cavity whose u-face mesh (nx+1=5 × ny=4 × nz=4) fits a 5×4
    // fabric with Z = 4.
    let mut cavity = Cavity::new(4, 4, 4, 0.1);
    cavity.run(3);
    let sys = cavity.momentum_system(Component::U);
    let scaled = jacobi_scale(&sys.matrix, &sys.rhs);
    let a16: DiaMatrix<F16> = scaled.matrix.convert();
    let b16: Vec<F16> = scaled.rhs.iter().map(|&v| F16::from_f64(v)).collect();

    let mesh = a16.mesh();
    let mut fabric = Fabric::new(mesh.nx, mesh.ny);
    let wafer = WaferBicgstab::build(&mut fabric, &a16);
    let (x, stats) = wafer.solve(&mut fabric, &b16, 10);

    let last = *stats.residuals.last().unwrap();
    assert!(last < 1e-2, "wafer solve of a CFD system: residual {last}");

    // Cross-check against the host solver at the same precision.
    let opts = SolveOptions { max_iters: 10, rtol: 0.0, record_true_residual: false };
    let host = bicgstab::<MixedF16>(&a16, &b16, &opts);
    let max_dev =
        x.iter().zip(&host.x).map(|(a, b)| (a.to_f64() - b.to_f64()).abs()).fold(0.0_f64, f64::max);
    let scale = host.x.iter().map(|v| v.to_f64().abs()).fold(0.0_f64, f64::max);
    assert!(
        max_dev < 0.1 * scale.max(0.1),
        "wafer and host solutions diverged: {max_dev} (scale {scale})"
    );
}

/// The wafer solver handles every operator class the paper mentions:
/// symmetric diffusion, convection-dominated, and random dominant systems.
#[test]
fn wafer_solver_across_problem_classes() {
    use wafer_stencil::stencil_::problem::{manufactured, random_dominant};
    let mesh = Mesh3D::new(4, 4, 12);
    let cases: Vec<(&str, wafer_stencil::stencil_::problem::Problem)> = vec![
        ("diffusion", manufactured(mesh, (0.0, 0.0, 0.0), 5)),
        ("convection", manufactured(mesh, (3.0, -2.0, 1.0), 6)),
        ("random", random_dominant(mesh, 1.6, 7)),
    ];
    for (name, p) in cases {
        let p = p.preconditioned();
        let a16: DiaMatrix<F16> = p.matrix.convert();
        let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        let mut fabric = Fabric::new(4, 4);
        let wafer = WaferBicgstab::build(&mut fabric, &a16);
        let (_, stats) = wafer.solve(&mut fabric, &b16, 12);
        let best = stats.residuals.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(best < 0.05, "{name}: best residual {best}");
    }
}

/// The host solver at fp64 agrees with the wafer's fp16 answer to fp16
/// accuracy — precision, not algorithm, is the difference.
#[test]
fn precision_not_algorithm_separates_wafer_from_fp64() {
    let p = manufactured(Mesh3D::new(4, 4, 16), (1.0, 0.5, -0.5), 9).preconditioned();
    let exact = p.exact.clone().unwrap();

    // fp64 host answer.
    let opts = SolveOptions { max_iters: 60, rtol: 1e-12, record_true_residual: false };
    let host = bicgstab::<Fp64>(&p.matrix, &p.rhs, &opts);
    let host_err = host.x.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0_f64, f64::max);
    assert!(host_err < 1e-8, "fp64 err {host_err}");

    // Wafer fp16 answer.
    let a16: DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let mut fabric = Fabric::new(4, 4);
    let wafer = WaferBicgstab::build(&mut fabric, &a16);
    let (x, _) = wafer.solve(&mut fabric, &b16, 15);
    let wafer_err =
        x.iter().zip(&exact).map(|(a, b)| (a.to_f64() - b).abs()).fold(0.0_f64, f64::max);
    let scale = exact.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
    // fp16 has ~1e-3 relative precision; conditioning costs a bit more.
    assert!(wafer_err < 0.05 * scale.max(1.0), "wafer err {wafer_err} vs scale {scale}");
    assert!(wafer_err > host_err, "fp16 cannot beat fp64");
}

/// Simulated cycles per iteration are stable across iterations (the paper
/// measured a 0.2% standard deviation across 171 iterations).
#[test]
fn iteration_cycles_are_stable() {
    let p = manufactured(Mesh3D::new(4, 4, 32), (1.0, 0.0, 0.0), 11).preconditioned();
    let a16: DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let mut fabric = Fabric::new(4, 4);
    let wafer = WaferBicgstab::build(&mut fabric, &a16);
    let (_, stats) = wafer.solve(&mut fabric, &b16, 8);
    let totals: Vec<f64> = stats.iterations.iter().map(|c| c.total() as f64).collect();
    let mean = totals.iter().sum::<f64>() / totals.len() as f64;
    let var = totals.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / totals.len() as f64;
    let rel_std = var.sqrt() / mean;
    assert!(rel_std < 0.05, "cycle count should be nearly deterministic: rel std {rel_std}");
}

//! Quickstart: solve a 7-point stencil system with BiCGStab running on a
//! simulated corner of the wafer-scale engine, and compare with the host
//! reference solver.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use wafer_stencil::kernels::WaferSolver;
use wafer_stencil::prelude::*;

fn main() {
    // 1. Build a nonsymmetric convection–diffusion problem with a known
    //    solution on a 6×6×64 mesh, and Jacobi-scale it so the main
    //    diagonal is all ones (the form the wafer kernel stores).
    let mesh = Mesh3D::new(6, 6, 64);
    let problem = manufactured(mesh, (1.5, -0.5, 0.5), 2024).preconditioned();
    println!("mesh {}x{}x{} = {} unknowns", mesh.nx, mesh.ny, mesh.nz, mesh.len());

    // 2. Narrow to the paper's precision: fp16 storage everywhere.
    let a16: DiaMatrix<F16> = problem.matrix.convert();
    let b16: Vec<F16> = problem.rhs.iter().map(|&v| F16::from_f64(v)).collect();

    // 3. Solve on a simulated 6×6 fabric region: every vector element and
    //    matrix coefficient lives in some tile's 48 KB SRAM; the SpMV is
    //    the Listing-1 dataflow; dots allreduce over the fabric.
    let mut fabric = Fabric::new(6, 6);
    let wafer = WaferBicgstab::build(&mut fabric, &a16);
    let iters = 10;
    let (x_wafer, stats) = wafer.solve(&mut fabric, &b16, iters);

    println!("\non-wafer BiCGStab ({iters} iterations):");
    for (i, (c, r)) in stats.iterations.iter().zip(&stats.residuals).enumerate() {
        println!(
            "  iter {:>2}: {:>7} cycles (spmv {:>5}, dot {:>5}, allreduce {:>5}, update {:>5})  |r|/|b| = {:.3e}",
            i + 1,
            c.total(),
            c.spmv,
            c.dot,
            c.allreduce,
            c.update,
            r
        );
    }
    println!("  mean cycles/iteration: {:.0}", stats.mean_cycles());

    // 4. Reference: the same algorithm, same precision policy, on the host.
    let opts = SolveOptions { max_iters: iters, rtol: 0.0, record_true_residual: true };
    let host = bicgstab::<MixedF16>(&a16, &b16, &opts);
    println!(
        "\nhost mixed-precision reference: final |r|/|b| = {:.3e}",
        host.history.final_recursive()
    );

    // 5. Compare against the known exact solution.
    let exact = problem.exact.as_ref().unwrap();
    let err = |x: &[F16]| -> f64 {
        x.iter().zip(exact).map(|(a, b)| (a.to_f64() - b).abs()).fold(0.0_f64, f64::max)
    };
    println!("\nmax error vs exact solution:");
    println!("  wafer: {:.4}", err(&x_wafer));
    println!("  host:  {:.4}", err(&host.x));
    println!("(both are fp16-accuracy solutions — that is the paper's Fig. 9 point)");
}

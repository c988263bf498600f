//! Thermal lid-driven cavity: the flow solver coupled with the
//! passive-scalar (energy) equation — the complexity level §VI defers —
//! with the temperature system solved both on the host and on the simulated
//! wafer.
//!
//! ```text
//! cargo run --release --example thermal_cavity [-- <cells> <flow-iters> <steps>]
//! ```

use wafer_stencil::cfd_::scalar::ScalarTransport;
use wafer_stencil::cfd_::Cavity;
use wafer_stencil::kernels::WaferSolver;
use wafer_stencil::prelude::*;
use wafer_stencil::stencil_::precond::jacobi_scale;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let flow_iters: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);
    let steps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(25);

    println!("developing cavity flow ({n}^3, {flow_iters} SIMPLE iterations)…");
    let mut cavity = Cavity::new(n, n, n, 0.05);
    cavity.run(flow_iters);
    let field = &cavity.solver.field;

    println!("advecting temperature from a hot lid ({steps} implicit steps)…");
    let mut scalar = ScalarTransport::new(field, 0.02, 1.0, 0.0);
    for s in 0..steps {
        let iters = scalar.step(field, 0.3, 60);
        if (s + 1) % 5 == 0 {
            let (lo, hi) = scalar.min_max();
            println!(
                "  step {:>3}: mean T = {:.4}, range [{:.4}, {:.4}], solver iters {}",
                s + 1,
                scalar.mean(),
                lo,
                hi,
                iters
            );
        }
    }

    // Mid-plane temperature map (x-z slice at y = n/2).
    let mesh = field.grid.p_mesh();
    println!("\nmid-plane temperature (z up, lid at top; '.' cold → '#' hot):");
    let glyphs: &[u8] = b" .:-=+*#";
    for k in (0..n).rev() {
        let mut row = String::new();
        for i in 0..n {
            let t = scalar.t[mesh.idx(i, n / 2, k)];
            let g = ((t.clamp(0.0, 1.0)) * (glyphs.len() - 1) as f64).round() as usize;
            row.push(glyphs[g] as char);
            row.push(glyphs[g] as char);
        }
        println!("  |{row}|");
    }

    // The energy equation is just another nonsymmetric 7-point system —
    // solve one step's system on the simulated wafer too.
    println!("\nsolving one energy system on the simulated wafer…");
    let sys = scalar.assemble(field, 0.3);
    let scaled = jacobi_scale(&sys.matrix, &sys.rhs);
    let a16: DiaMatrix<F16> = scaled.matrix.convert();
    let b16: Vec<F16> = scaled.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let mut fabric = Fabric::new(n, n);
    let wafer = WaferBicgstab::build(&mut fabric, &a16);
    let (x, stats) = wafer.solve(&mut fabric, &b16, 8);
    println!(
        "  wafer residual after 8 iterations: {:.3e} ({} unknowns, {:.0} cycles/iter)",
        stats.residuals.last().unwrap(),
        x.len(),
        stats.mean_cycles()
    );
    let host_mean = scalar.t.iter().sum::<f64>() / scalar.t.len() as f64;
    let wafer_mean = x.iter().map(|v| v.to_f64()).sum::<f64>() / x.len() as f64;
    println!("  mean T: host {host_mean:.4} vs wafer {wafer_mean:.4} (fp16 accuracy)");
}

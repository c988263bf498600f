//! Driver parity: pins, for every wafer solver driver and mode, the
//! program each builder emits and the numbers a short solve produces.
//!
//! For each configuration the suite records
//!
//! * the `program_digest` of the built fabric (of each shard for the
//!   multi-wafer driver) — the emitted program, byte for byte;
//! * the f64 bits of every per-iteration relative residual;
//! * the per-iteration simulated cycle totals;
//! * an FNV-1a hash of the final iterate's fp16 bits.
//!
//! A recovering solve of the same system must commit the same residual
//! trajectory and iterate as the plain solve. Any refactor of the drivers'
//! build, solve or recovery paths must leave every constant here
//! untouched.

use wafer_stencil::arch::Fabric;
use wafer_stencil::float::F16;
use wafer_stencil::kernels::bicgstab2d::WaferBicgstab2d;
use wafer_stencil::kernels::cg::{CgVariant, WaferCg};
use wafer_stencil::kernels::{RecoveryPolicy, WaferBicgstab, WaferBicgstabMulti, WaferSolver};
use wafer_stencil::stencil_::decomp::Block2D;
use wafer_stencil::stencil_::dia::DiaMatrix;
use wafer_stencil::stencil_::mesh::Mesh3D;
use wafer_stencil::stencil_::precond::jacobi_scale;
use wafer_stencil::stencil_::problem::manufactured;
use wafer_stencil::stencil_::stencil7::poisson;
use wafer_stencil::stencil_::stencil9::convection_diffusion9;
use wse_multi::{HostLink, MultiFabric};
use wse_serve::program_digest;

/// Iterations of every pinned solve.
const ITERS: usize = 6;

/// What one driver configuration produced.
struct Observed {
    digests: Vec<u64>,
    cycles: Vec<u64>,
    residuals: Vec<f64>,
    x: Vec<F16>,
    /// Residuals and iterate of a fault-free recovering solve.
    recovered: (Vec<f64>, Vec<F16>),
}

/// The pinned expectation for one configuration.
struct Pinned {
    digests: &'static [u64],
    cycles: &'static [u64],
    residual_bits: &'static [u64],
    x_hash: u64,
}

fn fnv(x: &[F16]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(r: &[f64]) -> Vec<u64> {
    r.iter().map(|v| v.to_bits()).collect()
}

fn check(name: &str, got: Observed, want: Pinned) {
    let rb = bits(&got.residuals);
    let xh = fnv(&got.x);
    let ok = got.digests == want.digests
        && got.cycles == want.cycles
        && rb == want.residual_bits
        && xh == want.x_hash;
    let hex = |v: &[u64]| v.iter().map(|b| format!("{b:#018x}")).collect::<Vec<_>>().join(", ");
    assert!(
        ok,
        "{name} drifted from its pinned values; observed:\n\
         digests: &[{}], cycles: &{:?}, residual_bits: &[{}], x_hash: {xh:#018x}",
        hex(&got.digests),
        got.cycles,
        hex(&rb)
    );
    assert_eq!(bits(&got.recovered.0), rb, "{name}: recovering solve changed the trajectory");
    assert_eq!(fnv(&got.recovered.1), xh, "{name}: recovering solve changed the iterate");
}

fn to16(a: &DiaMatrix<f64>, b: &[f64]) -> (DiaMatrix<F16>, Vec<F16>) {
    (a.convert(), b.iter().map(|&v| F16::from_f64(v)).collect())
}

fn system_3d(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>) {
    let p = manufactured(mesh, (1.0, -0.5, 0.5), 11).preconditioned();
    to16(&p.matrix, &p.rhs)
}

fn system_spd(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>) {
    let a = poisson(mesh);
    let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i * 7) % 9) as f64 * 0.125 - 0.5).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&exact, &mut b);
    let sys = jacobi_scale(&a, &b);
    to16(&sys.matrix, &sys.rhs)
}

fn system_2d(w: usize, h: usize, block: Block2D) -> (DiaMatrix<F16>, Vec<F16>) {
    let mesh = block.covered_mesh(w, h);
    let a = convection_diffusion9(mesh, (1.5, -0.5));
    let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i % 9) as f64) * 0.125 - 0.5).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&exact, &mut b);
    let sys = jacobi_scale(&a, &b);
    to16(&sys.matrix, &sys.rhs)
}

// --- Driver adapters: the only lines that name a driver's solve API. ---

fn observe_3d(fused: bool) -> Observed {
    let (a, b) = system_3d(Mesh3D::new(4, 4, 8));
    let build = if fused { WaferBicgstab::build_fused } else { WaferBicgstab::build };
    let mut fabric = Fabric::new(4, 4);
    let solver = build(&mut fabric, &a);
    let digests = vec![program_digest(&fabric)];
    let (x, stats) = solver.solve(&mut fabric, &b, ITERS);
    let mut f2 = Fabric::new(4, 4);
    let s2 = build(&mut f2, &a);
    let (rx, rres, _) = s2.solve_with_recovery(&mut f2, &a, &b, ITERS, &RecoveryPolicy::default());
    Observed {
        digests,
        cycles: stats.iterations.iter().map(|c| c.total()).collect(),
        residuals: stats.residuals,
        x,
        recovered: (rres, rx),
    }
}

fn observe_2d() -> Observed {
    let block = Block2D::new(4, 4);
    let (a, b) = system_2d(3, 3, block);
    let mut fabric = Fabric::new(3, 3);
    let solver = WaferBicgstab2d::build(&mut fabric, &a, block);
    let digests = vec![program_digest(&fabric)];
    let (x, stats) = solver.solve(&mut fabric, &b, ITERS);
    let mut f2 = Fabric::new(3, 3);
    let s2 = WaferBicgstab2d::build(&mut f2, &a, block);
    let (rx, rres, _) = s2.solve_with_recovery(&mut f2, &a, &b, ITERS, &RecoveryPolicy::default());
    Observed {
        digests,
        cycles: stats.iterations.iter().map(|c| c.total()).collect(),
        residuals: stats.residuals,
        x,
        recovered: (rres, rx),
    }
}

fn observe_cg(variant: CgVariant) -> Observed {
    let (a, b) = system_spd(Mesh3D::new(4, 4, 8));
    let mut fabric = Fabric::new(4, 4);
    let solver = WaferCg::build(&mut fabric, &a, variant);
    let digests = vec![program_digest(&fabric)];
    let (x, stats) = solver.solve(&mut fabric, &b, ITERS);
    let mut f2 = Fabric::new(4, 4);
    let s2 = WaferCg::build(&mut f2, &a, variant);
    let (rx, rres, _) = s2.solve_with_recovery(&mut f2, &a, &b, ITERS, &RecoveryPolicy::default());
    Observed {
        digests,
        cycles: stats.iterations.iter().map(|c| c.total()).collect(),
        residuals: stats.residuals,
        x,
        recovered: (rres, rx),
    }
}

fn observe_multi(build: fn(&mut MultiFabric, &DiaMatrix<F16>) -> WaferBicgstabMulti) -> Observed {
    let (a, b) = system_3d(Mesh3D::new(6, 4, 8));
    let new = || MultiFabric::new(6, 4, 2, HostLink::paper_default());
    let mut multi = new();
    let solver = build(&mut multi, &a);
    let digests = (0..multi.k()).map(|m| program_digest(multi.shard(m))).collect();
    let (x, stats) = solver.solve(&mut multi, &b, ITERS);
    let mut m2 = new();
    let s2 = build(&mut m2, &a);
    let (rx, rres, _) = s2.solve_with_recovery(&mut m2, &a, &b, ITERS, &RecoveryPolicy::default());
    Observed {
        digests,
        cycles: stats.iterations.iter().map(|c| c.total()).collect(),
        residuals: stats.residuals,
        x,
        recovered: (rres, rx),
    }
}

// --- Pinned values. ---

#[test]
fn bicgstab_3d_standard() {
    check(
        "3D standard",
        observe_3d(false),
        Pinned {
            digests: &[0x0875e653359f65f0],
            cycles: &[248, 248, 248, 247, 248, 249],
            residual_bits: &[
                0x3fb9a30c547ef323,
                0x3f9d7c877c58f85a,
                0x3f8903ce123be6b5,
                0x3f82dddfa63774ba,
                0x3f6b198c9188a253,
                0x3f493d62f1543ac5,
            ],
            x_hash: 0x39edf8c1bc094ae8,
        },
    );
}

#[test]
fn bicgstab_3d_fused() {
    check(
        "3D fused",
        observe_3d(true),
        Pinned {
            digests: &[0xb9f24a516104b2bf],
            cycles: &[239, 240, 239, 237, 239, 239],
            residual_bits: &[
                0x3fb9a30c547ef323,
                0x3f9d7c8111ac1b32,
                0x3f8903fd72a72573,
                0x3f82dce2152a959d,
                0x3f677265b8125272,
                0x3f49480c493f163f,
            ],
            x_hash: 0xe73e6dca6064f3c6,
        },
    );
}

#[test]
fn bicgstab_2d() {
    check(
        "2D",
        observe_2d(),
        Pinned {
            digests: &[0x99068cf8bdcbf046],
            cycles: &[288, 286, 292, 286, 292, 286],
            residual_bits: &[
                0x3f9db9da35d44dd5,
                0x3f9a3d4b9796353f,
                0x3f5e7d52695bf7a4,
                0x3f4c16d6948ed7b3,
                0x3f33c8131571c719,
                0x3f235d79238e9ce4,
            ],
            x_hash: 0xbf806b71bd989517,
        },
    );
}

#[test]
fn cg_standard() {
    check(
        "CG standard",
        observe_cg(CgVariant::Standard),
        Pinned {
            digests: &[0xb09a7e930cb57dd6],
            cycles: &[121, 120, 121, 121, 121, 121],
            residual_bits: &[
                0x3fd346a772349a20,
                0x3fb70a313ac7a019,
                0x3fa23a2e37b94abe,
                0x3f906368c59175ef,
                0x3f76eb7a2accfe66,
                0x3f635b10fcef071c,
            ],
            x_hash: 0x098c8f84ae59a75e,
        },
    );
}

#[test]
fn cg_single_reduction() {
    check(
        "CG single-reduction",
        observe_cg(CgVariant::SingleReduction),
        Pinned {
            digests: &[0x06481006b1a113d3],
            cycles: &[117, 120, 119, 120, 120, 120],
            residual_bits: &[
                0x3fd346a633030a42,
                0x3fb709ec15f337e5,
                0x3fa236f67fbf8c34,
                0x3f90670b5b332279,
                0x3f76e698325b69b2,
                0x3f635a7560aae4b2,
            ],
            x_hash: 0x3ecf87e6c08fc22a,
        },
    );
}

#[test]
fn multi_k2_fused() {
    check(
        "multi k=2 fused",
        observe_multi(WaferBicgstabMulti::build_fused),
        Pinned {
            digests: &[0x0a4168f6fac5a0f2, 0x93a10f7290c82968],
            cycles: &[905, 905, 905, 905, 905, 905],
            residual_bits: &[
                0x3fc654a5865ce9d1,
                0x3fa86fbb93d3a29a,
                0x3f9532ff93cc32a9,
                0x3f82de198764bc61,
                0x3f8172cfea010d63,
                0x3f5e04eb12631026,
            ],
            x_hash: 0xd664a25c7becabde,
        },
    );
}

#[test]
fn multi_k2_overlapped() {
    check(
        "multi k=2 overlapped",
        observe_multi(WaferBicgstabMulti::build),
        Pinned {
            digests: &[0x5305252d9e058b5f, 0x098d9a2c20918745],
            cycles: &[1954, 1954, 1954, 1954, 1954, 1954],
            residual_bits: &[
                0x3fc654a111666234,
                0x3fa8708460d5ef46,
                0x3f952d93eb6c736f,
                0x3f82db66b620a02e,
                0x3f817b78122668c8,
                0x3f600d83590d5ea8,
            ],
            x_hash: 0xb182cb97a90aba88,
        },
    );
}

#[test]
fn multi_k2_serial() {
    check(
        "multi k=2 serial",
        observe_multi(WaferBicgstabMulti::build_serial),
        Pinned {
            digests: &[0xdee9dd7c7baef3ee, 0xdc142bd2d3d3e984],
            cycles: &[2051, 2054, 2055, 2054, 2054, 2056],
            residual_bits: &[
                0x3fc6540988a85f52,
                0x3fa86d186b597e90,
                0x3f952f337e83cab4,
                0x3f82d38c88f97b2c,
                0x3f816fb240767577,
                0x3f5ae5db69dfc403,
            ],
            x_hash: 0xcfea80a0d5642def,
        },
    );
}

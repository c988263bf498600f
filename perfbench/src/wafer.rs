//! The two wafer workloads, `wafer-dense` and `multiwafer-k4`, driven by
//! one solve loop over a [`WaferSystem`].
//!
//! A solve is: set up (manufacture the seeded problem, make the machine,
//! build the program, load the right-hand side), run a fixed number of
//! iterations each followed by `residual_norm`, read `x` back and check
//! its f64 true residual. The iteration count is fixed so every simulated
//! number is a function of the seed alone; solves repeat, each on a fresh
//! machine, until the run's time is spent.

use crate::report::{Clock, Metrics};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::timed::{add_delta, PhaseTally, TimedExec, PHASES};
use std::time::Instant;
use stencil::mesh::Mesh3D;
use stencil::problem::manufactured;
use stencil::DiaMatrix;
use wse_arch::{Fabric, FabricPerf, StallReport};
use wse_core::bicgstab::IterCycles;
use wse_core::{MultiIterCycles, WaferBicgstab, WaferBicgstabMulti};
use wse_float::F16;
use wse_multi::{HostLink, MultiFabric};

/// Simulated clock, GHz (the CS-1's inferred 0.9 GHz).
pub const CLOCK_GHZ: f64 = 0.9;
/// Convection velocity of the manufactured problems (the seed varies the
/// manufactured solution's noise, not the operator's character).
const VELOCITY: (f64, f64, f64) = (1.0, -0.5, 0.5);
/// Set-ups per run at least, so `setup_s` is always a median of several.
const MIN_SETUPS: usize = 3;

/// Host wall time of one set-up, split by the call it went to.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total_s: f64,
    /// `stencil::problem::manufactured` plus preconditioning and fp16
    /// conversion.
    pub manufacture_s: f64,
    /// The solver's program build.
    pub build_s: f64,
    /// `load_rhs`.
    pub load_rhs_s: f64,
    /// Simulated cycles `load_rhs` took.
    pub load_cycles: u64,
}

/// Cumulative machine counters the solve loop takes deltas of.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Fabric counters summed over every wafer.
    pub perf: FabricPerf,
    /// Seam frames sent, all seams and directions.
    pub frames: u64,
    /// Seam frames retransmitted.
    pub retransmits: u64,
}

/// A machine plus a built solver that the solve loop can drive.
pub trait WaferSystem: Sized {
    /// Per-iteration cycle breakdown the solver returns.
    type Cycles: Copy + PartialEq + std::fmt::Debug;
    /// Layer the `iterate` and `residual_norm` spans are attributed to.
    const SOLVER_LAYER: &'static str;
    /// Iterations per solve.
    const ITERS: usize;

    /// Builds a fresh machine for `seed` and loads the right-hand side.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<(Self, SetupTimes), String>;
    /// One solver iteration.
    fn iterate(&mut self, tr: &mut Tracer) -> Result<Self::Cycles, Box<StallReport>>;
    /// The on-wafer residual norm.
    fn residual_norm(&mut self, tr: &mut Tracer) -> Result<f32, Box<StallReport>>;
    /// The iterate, read back from tile memories.
    fn read_x(&mut self, tr: &mut Tracer) -> Vec<F16>;
    /// f64 `‖b − A·x‖ / ‖b‖` on the preconditioned system.
    fn true_rel_residual(&self, x: &[F16]) -> f64;
    /// Machine clock, cycles.
    fn cycle(&self) -> u64;
    /// Tiles the machine simulates.
    fn tiles(&self) -> usize;
    /// Counters so far (only read in the traced run).
    fn counters(&self) -> Counters;
    /// Per-phase wall time tallied by the timing wrapper, if it has one.
    fn phase_tally(&self) -> Option<&PhaseTally>;
    /// Simulated cycles of one iteration.
    fn total(c: &Self::Cycles) -> u64;
    /// The on-wafer (core) part of an iteration's cycles.
    fn core_cycles(c: &Self::Cycles) -> IterCycles;
    /// Exposed halo, hidden halo and host AllReduce cycles (`None` on one
    /// wafer, which has no seams).
    fn seam_cycles(c: &Self::Cycles) -> Option<[u64; 3]>;
    /// The operator spec, mesh and fabric the DSL and lint probe uses.
    fn probe_geometry() -> (&'static str, Mesh3D, (usize, usize));
}

/// What one pass of the solve loop measured.
pub struct WaferPass<C> {
    /// One entry per set-up.
    pub setups: Vec<SetupTimes>,
    /// `iterate` + `residual_norm` wall time, one per iteration.
    pub iter_s: Vec<f64>,
    /// `iterate` alone.
    pub iterate_s: Vec<f64>,
    /// `residual_norm` alone.
    pub residual_s: Vec<f64>,
    /// Simulated tile-cycles per host second, one per iteration.
    pub tile_rate: Vec<f64>,
    /// `read_x`.
    pub read_x_s: Vec<f64>,
    /// Per-iteration cycles of the first solve (every solve must match).
    pub cycles: Vec<C>,
    /// Simulated cycles of a solve: load, iterations and residual norms.
    pub solve_cycles: u64,
    /// True relative residual of the first solve's iterate.
    pub true_rel: f64,
    /// FNV-1a digest of the first solve's `x` bits.
    pub digest: u64,
    /// Solves attempted.
    pub solves: u64,
    /// Solves that failed a check.
    pub failed: u64,
    /// Why each failed check failed.
    pub notes: Vec<String>,
    /// Counter deltas over the tallied iterations (traced pass only).
    pub counters: Counters,
    /// Iterations whose counters were tallied.
    pub counted: usize,
    /// Per-phase wall seconds summed over solves (traced pass only).
    pub phase_s: [f64; 5],
    /// Simulated cycles of the tallied phases.
    pub phase_cycles: u64,
    /// Tiles per machine.
    pub tiles: usize,
    /// Recorder window of the pass, ns.
    pub window: (u64, u64),
}

impl<C> Default for WaferPass<C> {
    fn default() -> Self {
        WaferPass {
            setups: Vec::new(),
            iter_s: Vec::new(),
            iterate_s: Vec::new(),
            residual_s: Vec::new(),
            tile_rate: Vec::new(),
            read_x_s: Vec::new(),
            cycles: Vec::new(),
            solve_cycles: 0,
            true_rel: f64::NAN,
            digest: 0,
            solves: 0,
            failed: 0,
            notes: Vec::new(),
            counters: Counters::default(),
            counted: 0,
            phase_s: [0.0; 5],
            phase_cycles: 0,
            tiles: 0,
            window: (0, 0),
        }
    }
}

/// FNV-1a over the fp16 bit patterns of `x`.
pub fn digest(x: &[F16]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// f64 `‖b − A·x‖ / ‖b‖`.
fn rel_residual(a: &DiaMatrix<f64>, b: &[F16], x: &[F16]) -> f64 {
    let x64: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
    let mut ax = vec![0.0; x64.len()];
    a.matvec_f64(&x64, &mut ax);
    let (mut rr, mut bb) = (0.0, 0.0);
    for (axi, bi) in ax.iter().zip(b) {
        let bi = bi.to_f64();
        rr += (bi - axi) * (bi - axi);
        bb += bi * bi;
    }
    (rr / bb).sqrt()
}

fn elapsed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs solves until `budget_s` is spent (at least one), then tops the
/// set-up count up to [`MIN_SETUPS`].
pub fn run_pass<S: WaferSystem>(seed: u64, budget_s: f64, tr: &mut Tracer) -> WaferPass<S::Cycles> {
    let mut p = WaferPass::<S::Cycles> { window: (tr.now(), 0), ..WaferPass::default() };
    let clock = Instant::now();
    let mut longest = 0.0f64;
    loop {
        let t_solve = Instant::now();
        p.solves += 1;
        let (mut sys, st) = match S::setup(seed, tr) {
            Ok(pair) => pair,
            Err(e) => {
                p.failed += 1;
                p.notes.push(format!("set-up failed: {e}"));
                break;
            }
        };
        p.setups.push(st);
        p.tiles = sys.tiles();
        let mut cycles = Vec::with_capacity(S::ITERS);
        let mut solve_cycles = st.load_cycles;
        let mut stall = None;
        for _ in 0..S::ITERS {
            let before = tr.armed().then(|| sys.counters());
            let c0 = sys.cycle();
            tr.begin(S::SOLVER_LAYER, "iterate");
            let (it, ti) = elapsed(|| sys.iterate(tr));
            tr.end();
            tr.begin(S::SOLVER_LAYER, "residual_norm");
            let (rn, tn) = elapsed(|| sys.residual_norm(tr));
            tr.end();
            let c = match (it, rn) {
                (Ok(c), Ok(_)) => c,
                (Err(e), _) | (_, Err(e)) => {
                    stall = Some(e.to_string());
                    break;
                }
            };
            let dc = sys.cycle() - c0;
            solve_cycles += dc;
            p.iter_s.push(ti + tn);
            p.iterate_s.push(ti);
            p.residual_s.push(tn);
            p.tile_rate.push((dc * sys.tiles() as u64) as f64 / (ti + tn));
            if let Some(b) = before {
                let a = sys.counters();
                add_delta(&mut p.counters.perf, &b.perf, &a.perf);
                p.counters.frames += a.frames - b.frames;
                p.counters.retransmits += a.retransmits - b.retransmits;
                p.counted += 1;
            }
            cycles.push(c);
        }
        if let Some(tally) = sys.phase_tally() {
            for (acc, s) in p.phase_s.iter_mut().zip(tally.wall_s) {
                *acc += s;
            }
            p.phase_cycles += tally.cycles;
        }
        if let Some(e) = stall {
            p.failed += 1;
            p.notes.push(format!("solve stalled: {e}"));
            break;
        }
        let (x, tx) = elapsed(|| sys.read_x(tr));
        p.read_x_s.push(tx);
        let rel = tr.span("bench", "true_residual", || sys.true_rel_residual(&x));
        let d = digest(&x);
        let mut ok = true;
        if !(rel.is_finite() && rel < 1.0) {
            ok = false;
            p.notes.push(format!("true relative residual {rel} is not below its start of 1"));
        }
        if p.cycles.is_empty() {
            (p.cycles, p.solve_cycles, p.true_rel, p.digest) = (cycles, solve_cycles, rel, d);
        } else if (&cycles, solve_cycles, rel.to_bits(), d)
            != (&p.cycles, p.solve_cycles, p.true_rel.to_bits(), p.digest)
        {
            ok = false;
            p.notes.push("a repeated solve of the same seed differed from the first".into());
        }
        if !ok {
            p.failed += 1;
        }
        drop(sys);
        longest = longest.max(t_solve.elapsed().as_secs_f64());
        if clock.elapsed().as_secs_f64() + longest > budget_s {
            break;
        }
    }
    while p.setups.len() < MIN_SETUPS && p.failed == 0 {
        match S::setup(seed, tr) {
            Ok((_, st)) => p.setups.push(st),
            Err(e) => {
                p.failed += 1;
                p.notes.push(format!("set-up failed: {e}"));
            }
        }
    }
    p.window.1 = tr.now();
    p
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end<S: WaferSystem>(p: &WaferPass<S::Cycles>, m: &mut Metrics) {
    let setups: Vec<f64> = p.setups.iter().map(|s| s.total_s).collect();
    let builds: Vec<f64> = p.setups.iter().map(|s| s.build_s * 1e3).collect();
    let n = p.iter_s.len();
    m.put("setup_s", median(&setups), Clock::Wall, setups.len());
    m.put("host_s_per_iter", median(&p.iter_s), Clock::Wall, n);
    m.put("tile_cycles_per_s", median(&p.tile_rate), Clock::Wall, n);
    let iter_cycles: u64 = p.cycles.iter().map(S::total).sum();
    m.put(
        "sim_us_per_iter",
        to_us(iter_cycles) / p.cycles.len() as f64,
        Clock::Sim,
        p.cycles.len(),
    );
    m.put("true_rel_residual", p.true_rel, Clock::Sim, 1);
    // From the per-iteration median rather than the few whole solves a run
    // holds: the same quantity, with many more samples behind it.
    let solve_s = S::ITERS as f64 * median(&p.iter_s) + median(&p.read_x_s);
    m.put("solves_per_host_s", 1.0 / solve_s, Clock::Wall, n);
    m.put("compile_ms", median(&builds), Clock::Wall, builds.len());
    // Every solve of a seed is the same simulated work, so its sojourn is
    // one value repeated; the percentiles are taken all the same.
    let sojourn = vec![to_us(p.solve_cycles); p.read_x_s.len()];
    m.put("sojourn_p50_us", percentile(&sojourn, 50.0), Clock::Sim, sojourn.len());
    m.put("sojourn_p99_us", percentile(&sojourn, 99.0), Clock::Sim, sojourn.len());
    m.put("sim_solves_per_s", 1e6 / to_us(p.solve_cycles), Clock::Sim, sojourn.len());
}

/// The per-layer metrics of a traced pass.
pub fn per_layer<S: WaferSystem>(p: &WaferPass<S::Cycles>, m: &mut Metrics) {
    let pick = |f: fn(&SetupTimes) -> f64| -> Vec<f64> { p.setups.iter().map(f).collect() };
    let iters = p.cycles.len() as f64;
    let counted = p.counted.max(1) as f64;
    let solver_iters = p.iter_s.len();
    m.put("stencil.manufacture_s", median(&pick(|s| s.manufacture_s)), Clock::Wall, p.setups.len());
    // Only the single-wafer solver runs its phases through `TimedExec`.
    if p.phase_cycles > 0 {
        for (i, phase) in PHASES.iter().enumerate() {
            let v = p.phase_s[i] / solver_iters as f64;
            m.put(&format!("wse-arch.phase_s.{phase}"), v, Clock::Wall, solver_iters);
        }
        let phase_total: f64 = p.phase_s.iter().sum();
        let ns = phase_total * 1e9 / (p.phase_cycles * p.tiles as u64) as f64;
        m.put("wse-arch.ns_per_tile_cycle", ns, Clock::Wall, solver_iters);
    }
    let perf = &p.counters.perf;
    let busy = perf.busy_cycles as f64 / (perf.busy_cycles + perf.idle_cycles).max(1) as f64;
    m.put("wse-arch.busy_frac", busy, Clock::Sim, p.counted);
    m.put("wse-arch.flits_routed", perf.flits_routed as f64 / counted, Clock::Sim, p.counted);
    let bp = perf.backpressure_total() as f64 / counted;
    m.put("wse-arch.backpressure_cycles", bp, Clock::Sim, p.counted);
    m.put("wse-arch.flops_f16", perf.flops_f16 as f64 / counted, Clock::Sim, p.counted);
    m.put("core.build_s", median(&pick(|s| s.build_s)), Clock::Wall, p.setups.len());
    m.put("core.load_rhs_s", median(&pick(|s| s.load_rhs_s)), Clock::Wall, p.setups.len());
    m.put("core.read_x_s", median(&p.read_x_s), Clock::Wall, p.read_x_s.len());
    let layer = S::SOLVER_LAYER;
    m.put(&format!("{layer}.iterate_s"), median(&p.iterate_s), Clock::Wall, solver_iters);
    m.put(&format!("{layer}.residual_norm_s"), median(&p.residual_s), Clock::Wall, solver_iters);
    let core: Vec<IterCycles> = p.cycles.iter().map(S::core_cycles).collect();
    let mean = |f: fn(&IterCycles) -> u64| core.iter().map(f).sum::<u64>() as f64 / iters;
    m.put("core.sim_cycles.spmv", mean(|c| c.spmv), Clock::Sim, core.len());
    m.put("core.sim_cycles.dot", mean(|c| c.dot), Clock::Sim, core.len());
    m.put("core.sim_cycles.allreduce", mean(|c| c.allreduce), Clock::Sim, core.len());
    m.put("core.sim_cycles.update", mean(|c| c.update), Clock::Sim, core.len());
    m.put("core.sim_cycles.scalar", mean(|c| c.scalar), Clock::Sim, core.len());
    let seam: Option<Vec<[u64; 3]>> = p.cycles.iter().map(S::seam_cycles).collect();
    if let Some(seam) = seam {
        for (i, name) in ["halo_exposed", "halo_hidden", "host_allreduce"].iter().enumerate() {
            let v = seam.iter().map(|s| s[i]).sum::<u64>() as f64 / iters;
            m.put(&format!("wse-multi.sim_cycles.{name}"), v, Clock::Sim, seam.len());
        }
        m.put("wse-multi.frames", p.counters.frames as f64 / counted, Clock::Sim, p.counted);
        let retransmits = p.counters.retransmits as f64 / counted;
        m.put("wse-multi.retransmits", retransmits, Clock::Sim, p.counted);
    }
}

/// Times `wse_dsl::plan` and `lower` on the workload's operator and lints
/// the lowered program. Returns `(plan_us, lower_us, lint_ms, findings)`.
pub fn dsl_probe<S: WaferSystem>(
    seed: u64,
    tr: &mut Tracer,
) -> Result<(f64, f64, f64, usize), String> {
    let (name, mesh, (w, h)) = S::probe_geometry();
    let spec = wse_dsl::catalog::get(name).ok_or_else(|| format!("no catalog operator {name}"))?;
    let a = manufactured(mesh, VELOCITY, seed).preconditioned().matrix;
    let geometry = wse_dsl::plan::Geometry { fabric_w: w, fabric_h: h, block: None };
    tr.begin("wse-dsl", "plan");
    let (planned, plan_s) = elapsed(|| wse_dsl::plan(&spec, mesh, geometry));
    tr.end();
    planned.map_err(|e| format!("plan({name}) failed: {e}"))?;
    let mut fabric = Fabric::new(w, h);
    tr.begin("wse-dsl", "lower");
    let (lowered, lower_s) = elapsed(|| wse_dsl::lower(&mut fabric, &spec, &a, None));
    tr.end();
    lowered.map_err(|e| format!("lower({name}) failed: {e}"))?;
    tr.begin("wse-lint", "lint");
    let (diags, lint_s) = elapsed(|| wse_lint::lint(&fabric));
    tr.end();
    Ok((plan_s * 1e6, lower_s * 1e6, lint_s * 1e3, diags.len()))
}

fn to_us(cycles: u64) -> f64 {
    cycles as f64 / (CLOCK_GHZ * 1e3)
}

/// Builds the manufactured, preconditioned problem in fp16.
fn problem(mesh: Mesh3D, seed: u64) -> (DiaMatrix<f64>, DiaMatrix<F16>, Vec<F16>) {
    let p = manufactured(mesh, VELOCITY, seed).preconditioned();
    let a16: DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    (p.matrix, a16, b16)
}

/// `wafer-dense`: the paper's Listing-1 BiCGStab on one 32×32-tile wafer.
pub struct Dense {
    fabric: Fabric,
    solver: WaferBicgstab,
    a: DiaMatrix<f64>,
    b: Vec<F16>,
    tally: PhaseTally,
}

impl Dense {
    const FABRIC: (usize, usize) = (32, 32);
    const Z: usize = 32;
}

impl WaferSystem for Dense {
    type Cycles = IterCycles;
    const SOLVER_LAYER: &'static str = "core";
    const ITERS: usize = 3;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<(Self, SetupTimes), String> {
        let t = Instant::now();
        let mesh = Mesh3D::new(Self::FABRIC.0, Self::FABRIC.1, Self::Z);
        tr.begin("stencil", "manufactured");
        let ((a, a16, b), manufacture_s) = elapsed(|| problem(mesh, seed));
        tr.end();
        let mut fabric = tr.span("wse-arch", "new", || Fabric::new(Self::FABRIC.0, Self::FABRIC.1));
        tr.begin("core", "build");
        let (solver, build_s) = elapsed(|| WaferBicgstab::build(&mut fabric, &a16));
        tr.end();
        let mut sys = Dense { fabric, solver, a, b, tally: PhaseTally::default() };
        tr.begin("core", "load_rhs");
        let c0 = sys.fabric.cycle();
        let (loaded, load_rhs_s) = elapsed(|| {
            if tr.armed() {
                let exec =
                    &mut TimedExec { fabric: &mut sys.fabric, tracer: tr, tally: &mut sys.tally };
                sys.solver.try_load_rhs(exec, &sys.b)
            } else {
                sys.solver.try_load_rhs(&mut sys.fabric, &sys.b)
            }
        });
        tr.end();
        loaded.map_err(|e| e.to_string())?;
        let load_cycles = sys.fabric.cycle() - c0;
        let total_s = t.elapsed().as_secs_f64();
        Ok((sys, SetupTimes { total_s, manufacture_s, build_s, load_rhs_s, load_cycles }))
    }

    fn iterate(&mut self, tr: &mut Tracer) -> Result<IterCycles, Box<StallReport>> {
        if !tr.armed() {
            return self.solver.try_iterate(&mut self.fabric);
        }
        self.tally.counting = true;
        let r = self.solver.try_iterate(&mut TimedExec {
            fabric: &mut self.fabric,
            tracer: tr,
            tally: &mut self.tally,
        });
        self.tally.counting = false;
        r
    }

    fn residual_norm(&mut self, tr: &mut Tracer) -> Result<f32, Box<StallReport>> {
        if !tr.armed() {
            return self.solver.try_residual_norm(&mut self.fabric);
        }
        self.tally.counting = true;
        let r = self.solver.try_residual_norm(&mut TimedExec {
            fabric: &mut self.fabric,
            tracer: tr,
            tally: &mut self.tally,
        });
        self.tally.counting = false;
        r
    }

    fn read_x(&mut self, tr: &mut Tracer) -> Vec<F16> {
        tr.span("core", "read_x", || self.solver.read_x(&self.fabric))
    }

    fn true_rel_residual(&self, x: &[F16]) -> f64 {
        rel_residual(&self.a, &self.b, x)
    }

    fn cycle(&self) -> u64 {
        self.fabric.cycle()
    }

    fn tiles(&self) -> usize {
        self.fabric.width() * self.fabric.height()
    }

    fn counters(&self) -> Counters {
        Counters { perf: self.tally.perf, frames: 0, retransmits: 0 }
    }

    fn phase_tally(&self) -> Option<&PhaseTally> {
        Some(&self.tally)
    }

    fn total(c: &IterCycles) -> u64 {
        c.total()
    }

    fn core_cycles(c: &IterCycles) -> IterCycles {
        *c
    }

    fn seam_cycles(_: &IterCycles) -> Option<[u64; 3]> {
        None
    }

    fn probe_geometry() -> (&'static str, Mesh3D, (usize, usize)) {
        let (w, h) = Self::FABRIC;
        ("star7-3d", Mesh3D::new(w, h, Self::Z), (w, h))
    }
}

/// `multiwafer-k4`: fused BiCGStab across four 4×4-tile wafers.
pub struct Multi {
    multi: MultiFabric,
    solver: WaferBicgstabMulti,
    a: DiaMatrix<f64>,
    b: Vec<F16>,
}

impl Multi {
    const K: usize = 4;
    const WAFER: (usize, usize) = (4, 4);
    const Z: usize = 256;

    fn mesh() -> Mesh3D {
        Mesh3D::new(Self::WAFER.0 * Self::K, Self::WAFER.1, Self::Z)
    }
}

impl WaferSystem for Multi {
    type Cycles = MultiIterCycles;
    const SOLVER_LAYER: &'static str = "wse-multi";
    const ITERS: usize = 4;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<(Self, SetupTimes), String> {
        let t = Instant::now();
        tr.begin("stencil", "manufactured");
        let ((a, a16, b), manufacture_s) = elapsed(|| problem(Self::mesh(), seed));
        tr.end();
        let mut multi = tr.span("wse-multi", "new", || {
            let link = HostLink::new(1000.0, 0.2, CLOCK_GHZ);
            MultiFabric::new(Self::WAFER.0 * Self::K, Self::WAFER.1, Self::K, link)
        });
        tr.begin("core", "build_fused");
        let (solver, build_s) = elapsed(|| WaferBicgstabMulti::build_fused(&mut multi, &a16));
        tr.end();
        // The reliable seam transport, armed once the build has declared
        // the seam channels: cycle-identical to the trusted link when
        // fault-free, and the source of the frame counters.
        tr.span("wse-multi", "arm_transport", || multi.arm_transport());
        let c0 = multi.cycle();
        tr.begin("core", "load_rhs");
        let (loaded, load_rhs_s) = elapsed(|| solver.try_load_rhs(&mut multi, &b));
        tr.end();
        loaded.map_err(|e| e.to_string())?;
        let load_cycles = multi.cycle() - c0;
        let total_s = t.elapsed().as_secs_f64();
        let times = SetupTimes { total_s, manufacture_s, build_s, load_rhs_s, load_cycles };
        Ok((Multi { multi, solver, a, b }, times))
    }

    fn iterate(&mut self, _: &mut Tracer) -> Result<MultiIterCycles, Box<StallReport>> {
        self.solver.try_iterate(&mut self.multi)
    }

    fn residual_norm(&mut self, _: &mut Tracer) -> Result<f32, Box<StallReport>> {
        self.solver.try_residual_norm(&mut self.multi)
    }

    fn read_x(&mut self, tr: &mut Tracer) -> Vec<F16> {
        tr.span("core", "read_x", || self.solver.read_x(&self.multi))
    }

    fn true_rel_residual(&self, x: &[F16]) -> f64 {
        rel_residual(&self.a, &self.b, x)
    }

    fn cycle(&self) -> u64 {
        self.multi.cycle()
    }

    fn tiles(&self) -> usize {
        self.multi.global_width() * self.multi.height()
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        let zero = FabricPerf::default();
        for m in 0..self.multi.k() {
            add_delta(&mut c.perf, &zero, &self.multi.shard(m).perf());
        }
        for seam in 0..self.multi.k() - 1 {
            for dir in 0..2 {
                c.frames += self.multi.link_stats(seam, dir).frames;
            }
        }
        c.retransmits = self.multi.retransmits();
        c
    }

    fn phase_tally(&self) -> Option<&PhaseTally> {
        None
    }

    fn total(c: &MultiIterCycles) -> u64 {
        c.total()
    }

    fn core_cycles(c: &MultiIterCycles) -> IterCycles {
        c.compute
    }

    fn seam_cycles(c: &MultiIterCycles) -> Option<[u64; 3]> {
        Some([c.halo, c.halo_hidden, c.host_allreduce])
    }

    fn probe_geometry() -> (&'static str, Mesh3D, (usize, usize)) {
        ("star7-3d", Self::mesh(), (Self::WAFER.0 * Self::K, Self::WAFER.1))
    }
}

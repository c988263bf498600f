//! `served-mix`: two tenants share one 8×4 wafer through `wse-serve`.
//!
//! Seeded open-loop arrivals of 1,000 jobs: repeated shapes (`Laplace9`,
//! convection, the DSL's `box9-2d`) that hit the program cache or stay
//! resident, and one job in eight a fresh convection shape that forces a
//! cold compile (build plus lint). The stream is a function of the seed
//! alone, so every simulated number is too; the stream is replayed on a
//! fresh service until the run's time is spent.

use crate::report::{Clock, Metrics};
use crate::spans::Tracer;
use crate::stats::{median, percentile, tail};
use crate::wafer::CLOCK_GHZ;
use std::collections::HashSet;
use std::time::Instant;
use stencil::decomp::Block2D;
use stencil::mesh::Mesh3D;
use wse_arch::{Fabric, SplitMix64};
use wse_core::RecoveryPolicy;
use wse_float::F16;
use wse_serve::{
    open_loop_arrivals, Backend, CacheTier, CompiledProgram, JobRecord, JobSpec, ProgramKey,
    ServiceReport, StencilKind, TenantSpec, WaferService,
};

/// Jobs per stream: enough that ten lie beyond the p99 sojourn.
const JOBS: usize = 1000;
/// Mean arrival rate, jobs per simulated µs; the service keeps up at
/// this rate (no growing backlog), so sojourn measures service, not a
/// queue that grows with the run.
const RATE_PER_US: f64 = 0.0005;
/// Iterations per job.
const MAX_ITERS: usize = 6;
/// Every `FRESH_EVERY`-th job is a fresh convection shape.
const FRESH_EVERY: usize = 8;
/// Service set-ups per replay of the stream.
const SETUPS_PER_REPLAY: usize = 5;
/// Every `CHECK_EVERY`-th job is re-solved outside the service to check
/// its answer against the f64 true residual (odd, so both tenants and
/// every position in the shape pattern are sampled).
const CHECK_EVERY: usize = 3;

/// The three repeated job shapes.
fn shapes() -> [ProgramKey; 3] {
    [
        ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::Laplace9),
        ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(0.5, -0.25)),
        ProgramKey::bicgstab2d((12, 8), (4, 4), StencilKind::dsl("box9-2d")),
    ]
}

/// The job stream and its arrival times. Tenants alternate and the
/// repeated shape changes every [`FRESH_EVERY`] jobs, so the cache tiers
/// follow one fixed pattern; the seed drives the right-hand sides, the
/// fresh shapes' velocities and the arrival times.
pub fn stream(seed: u64) -> (Vec<JobSpec>, Vec<f64>) {
    let shapes = shapes();
    let mut rng = SplitMix64::new(seed);
    let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let jobs = (0..JOBS)
        .map(|i| {
            let key = if i % FRESH_EVERY == FRESH_EVERY - 1 {
                let (vx, vy) = (unit() - 0.5, unit() - 0.5);
                ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(vx, vy))
            } else {
                shapes[(i / FRESH_EVERY) % shapes.len()]
            };
            let rhs_seed = (unit() * (1u64 << 53) as f64) as u64;
            JobSpec { tenant: i % 2, key, rhs_seed, max_iters: MAX_ITERS }
        })
        .collect();
    (jobs, open_loop_arrivals(seed ^ 0x5eed_a771_7a15, JOBS, RATE_PER_US))
}

fn service() -> WaferService {
    WaferService::new(
        Backend::Single(Fabric::new(8, 4)),
        vec![TenantSpec::new("acme", (3, 2), JOBS), TenantSpec::new("zenith", (3, 2), JOBS)],
    )
    .expect("two 3x2 tenants fit an 8x4 fabric")
}

/// What the served-mix pass measured.
#[derive(Default)]
pub struct ServedPass {
    /// Wall time of each stream generation plus service construction.
    pub setups: Vec<f64>,
    /// Wall time of each `WaferService::run`.
    pub run_s: Vec<f64>,

    /// Wall time of each `WaferService::report`.
    pub report_s: Vec<f64>,
    /// Cold compiles' host µs, all replays.
    pub cold_us: Vec<f64>,
    /// Cache lookups' host µs, all replays.
    pub warm_us: Vec<f64>,
    /// The first replay's report (every replay must match it).
    pub first: Option<ServiceReport>,
    /// True relative residuals of the re-solved jobs.
    pub true_rel: Vec<f64>,
    /// Re-solved resident jobs whose residual differs from a fresh region's.
    pub resident_drift: usize,
    /// Resident jobs re-solved.
    pub resident_checked: usize,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    /// Why each failed check failed.
    pub notes: Vec<String>,
    /// Traced only: bench-side `CompiledProgram::compile` ms per distinct key.
    pub compile_ms: Vec<f64>,
    /// Traced only: `wse_lint::lint` ms per compiled image.
    pub lint_ms: Vec<f64>,
    /// Traced only: lint findings over every compiled image.
    pub findings: usize,
    /// Recorder window of the pass, ns.
    pub window: (u64, u64),
}

/// The tier each executed job must get, replaying the cache and residency
/// rules over the jobs in execution order.
fn expected_tiers(records: &[JobRecord]) -> Vec<CacheTier> {
    let mut cached = HashSet::new();
    let mut resident: Vec<Option<ProgramKey>> = vec![None; 2];
    records
        .iter()
        .map(|r| {
            let tier = if resident[r.tenant] == Some(r.key) {
                CacheTier::Resident
            } else if cached.contains(&r.key) {
                CacheTier::Hit
            } else {
                CacheTier::Cold
            };
            cached.insert(r.key);
            resident[r.tenant] = Some(r.key);
            tier
        })
        .collect()
}

/// Checks one replay; returns the number of failed jobs.
fn check(report: &ServiceReport, jobs: &[JobSpec], notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for r in &report.records {
        let ok =
            r.reject.is_none() && r.rollbacks == 0 && r.final_rel.is_finite() && r.final_rel < 1.0;
        if !ok {
            failed += 1;
            notes.push(format!(
                "job {} ({}): reject {:?}, rollbacks {}, final_rel {}",
                r.job, r.key.stencil, r.reject, r.rollbacks, r.final_rel
            ));
        }
    }
    if report.submitted != jobs.len() || report.completed != jobs.len() {
        notes.push(format!("{} of {} jobs completed", report.completed, jobs.len()));
    }
    let got: Vec<Option<CacheTier>> = report.records.iter().map(|r| r.tier).collect();
    let want: Vec<Option<CacheTier>> =
        expected_tiers(&report.records).into_iter().map(Some).collect();
    let distinct: HashSet<ProgramKey> = jobs.iter().map(|j| j.key).collect();
    if got != want || report.tiers.0 != distinct.len() {
        notes.push(format!(
            "tiers {:?} do not follow the key sequence ({} distinct keys)",
            report.tiers,
            distinct.len()
        ));
    }
    failed
}

/// One job's deterministic outcome: tier, cycle window, and the bits of
/// its completion time and final residual.
type JobOutcome = (Option<CacheTier>, (u64, u64), u64, u64);

/// The deterministic part of a replay, for comparing replays bit for bit.
fn fingerprint(report: &ServiceReport) -> Vec<JobOutcome> {
    report
        .records
        .iter()
        .map(|r| (r.tier, r.window, r.completion_us.to_bits(), r.final_rel.to_bits()))
        .collect()
}

/// Re-solves `job` on a freshly compiled image, with the right-hand side
/// the service manufactures. Returns the f64 true residual of that iterate
/// and whether its recursive residual matches the service's bit for bit.
fn resolve(job: &JobSpec, record: &JobRecord, tr: &mut Tracer) -> Result<(f64, bool), String> {
    tr.begin("wse-serve", "compile");
    let compiled = CompiledProgram::compile(&job.key);
    tr.end();
    let mut program = compiled.map_err(|e| format!("job {}: compile failed: {e}", record.job))?;
    let n = job.key.points();
    let mut rng = SplitMix64::new(job.rhs_seed);
    let exact: Vec<f64> =
        (0..n).map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5).collect();
    let mut b64 = vec![0.0f64; n];
    program.matrix_f64.matvec_f64(&exact, &mut b64);
    let b: Vec<F16> = b64.iter().map(|&v| F16::from_f64(v)).collect();
    tr.begin("core", "solve_with_recovery");
    let (x, residuals, _) = program.solver.solve_with_recovery(
        &mut program.image,
        &program.matrix,
        &b,
        job.max_iters,
        &RecoveryPolicy::default(),
    );
    tr.end();
    let same = residuals.last().is_some_and(|r| r.to_bits() == record.final_rel.to_bits());
    tr.begin("bench", "true_residual");
    let x64: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
    let mut ax = vec![0.0; n];
    program.matrix_f64.matvec_f64(&x64, &mut ax);
    let rr: f64 = ax.iter().zip(&b).map(|(a, b)| (b.to_f64() - a).powi(2)).sum();
    let bb: f64 = b.iter().map(|b| b.to_f64().powi(2)).sum();
    tr.end();
    Ok(((rr / bb).sqrt(), same))
}

/// Replays the seeded stream until `budget_s` is spent (at least once).
pub fn run_pass(seed: u64, budget_s: f64, tr: &mut Tracer) -> ServedPass {
    let mut p = ServedPass { window: (tr.now(), 0), ..ServedPass::default() };
    let clock = Instant::now();
    let mut longest = 0.0f64;
    let mut jobs = Vec::new();
    loop {
        let t_replay = Instant::now();
        let mut svc = None;
        for _ in 0..SETUPS_PER_REPLAY {
            let t = Instant::now();
            let (j, arrivals) = tr.span("bench", "stream", || stream(seed));
            let s = tr.span("wse-serve", "new", service);
            p.setups.push(t.elapsed().as_secs_f64());
            jobs = j;
            svc = Some((s, arrivals));
        }
        let (mut svc, arrivals) = svc.expect("at least one set-up");
        let t = Instant::now();
        tr.span("wse-serve", "run", || {
            svc.run(&jobs, &arrivals);
        });
        p.run_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let report = tr.span("wse-serve", "report", || svc.report());
        p.report_s.push(t.elapsed().as_secs_f64());
        drop(svc);
        p.cold_us.extend(&report.cold_host_us);
        p.warm_us.extend(&report.warm_host_us);
        p.attempted += jobs.len() as u64;
        p.failed += check(&report, &jobs, &mut p.notes);
        match &p.first {
            None => p.first = Some(report),
            Some(first) if fingerprint(first) != fingerprint(&report) => {
                p.notes.push("a replay of the same stream differed from the first".into());
            }
            Some(_) => {}
        }
        longest = longest.max(t_replay.elapsed().as_secs_f64());
        if clock.elapsed().as_secs_f64() + longest > budget_s {
            break;
        }
    }
    let first = p.first.take().expect("at least one replay");
    // A cold or hit job starts from a freshly blitted region, so its
    // re-solve is the service's own computation and must match it bit for
    // bit; its true residual is the service's answer. A resident job
    // starts from whatever its predecessor left in the region, so its
    // re-solve on a fresh image is only compared, and a mismatch counted.
    for record in first.records.iter().filter(|r| r.job % CHECK_EVERY == 0) {
        let resident = record.tier == Some(CacheTier::Resident);
        match resolve(&jobs[record.job], record, tr) {
            Ok((_, same)) if resident => {
                p.resident_checked += 1;
                p.resident_drift += usize::from(!same);
            }
            Ok((rel, true)) if rel.is_finite() && rel < 1.0 => p.true_rel.push(rel),
            Ok((rel, true)) => {
                p.notes.push(format!("job {}: true residual {rel} not below 1", record.job))
            }
            Ok((_, false)) => p.notes.push(format!(
                "job {}: a re-solve on a fresh image differs from the service's answer",
                record.job
            )),
            Err(e) => p.notes.push(e),
        }
    }
    p.first = Some(first);
    if tr.armed() {
        let mut seen = HashSet::new();
        for job in jobs.iter().filter(|j| seen.insert(j.key)) {
            tr.begin("wse-serve", "compile");
            let t = Instant::now();
            let compiled = CompiledProgram::compile(&job.key);
            p.compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end();
            let Ok(program) = compiled else {
                p.notes.push(format!("bench-side compile of {} failed", job.key.stencil));
                continue;
            };
            tr.begin("wse-lint", "lint");
            let t = Instant::now();
            p.findings += wse_lint::lint(&program.image).len();
            p.lint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end();
        }
    }
    p.window.1 = tr.now();
    p
}

fn first(p: &ServedPass) -> &ServiceReport {
    p.first.as_ref().expect("at least one replay")
}

/// Simulated cycles and tile-cycles of the solves of one replay.
fn solve_work(report: &ServiceReport) -> (u64, u64, u64) {
    let (mut cycles, mut tile_cycles, mut iters) = (0, 0, 0);
    for r in &report.records {
        let c = r.window.1 - r.window.0;
        let (w, h) = r.key.region_tiles();
        cycles += c;
        tile_cycles += c * (w * h) as u64;
        iters += r.iterations as u64;
    }
    (cycles, tile_cycles, iters)
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(p: &ServedPass, m: &mut Metrics) {
    let report = first(p);
    let (cycles, tile_cycles, iters) = solve_work(report);
    let reps = p.run_s.len();
    let per_iter: Vec<f64> = p.run_s.iter().map(|s| s / iters as f64).collect();
    let rate: Vec<f64> = p.run_s.iter().map(|s| tile_cycles as f64 / s).collect();
    let solves: Vec<f64> = p.run_s.iter().map(|s| report.completed as f64 / s).collect();
    let cold_ms: Vec<f64> = p.cold_us.iter().map(|us| us / 1e3).collect();
    let sojourn: Vec<f64> = report.records.iter().map(|r| r.sojourn_us()).collect();
    m.put("setup_s", median(&p.setups), Clock::Wall, p.setups.len());
    m.put("host_s_per_iter", median(&per_iter), Clock::Wall, reps);
    m.put("tile_cycles_per_s", median(&rate), Clock::Wall, reps);
    m.put(
        "sim_us_per_iter",
        cycles as f64 / iters as f64 / (CLOCK_GHZ * 1e3),
        Clock::Sim,
        iters as usize,
    );
    m.put("true_rel_residual", median(&p.true_rel), Clock::Sim, p.true_rel.len());
    m.put("solves_per_host_s", median(&solves), Clock::Wall, reps);
    m.put("compile_ms", median(&cold_ms), Clock::Wall, cold_ms.len());
    m.put("sojourn_p50_us", percentile(&sojourn, 50.0), Clock::Sim, sojourn.len());
    m.put("sojourn_p99_us", percentile(&sojourn, 99.0), Clock::Sim, sojourn.len());
    m.put("sim_solves_per_s", report.solves_per_sec, Clock::Sim, report.completed);
}

/// Whether two passes simulated the same thing, bit for bit.
pub fn same_simulation(a: &ServedPass, b: &ServedPass) -> bool {
    let bits = |p: &ServedPass| p.true_rel.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    fingerprint(first(a)) == fingerprint(first(b))
        && bits(a) == bits(b)
        && a.resident_drift == b.resident_drift
}

/// Whether at least ten jobs lie beyond the p99 sojourn: the highest
/// percentile with ten samples beyond it must be p99 or above.
pub fn p99_supported(p: &ServedPass) -> bool {
    let sojourn: Vec<f64> = first(p).records.iter().map(|r| r.sojourn_us()).collect();
    tail(&sojourn, 10).is_some_and(|(level, _)| level >= 99.0)
}

/// The per-layer metrics of a traced pass.
pub fn per_layer(p: &ServedPass, m: &mut Metrics) {
    let report = first(p);
    let reps = p.run_s.len();
    let place_solve: Vec<f64> = p
        .run_s
        .iter()
        .map(|s| {
            let host_us: f64 = p.cold_us.iter().chain(&p.warm_us).sum::<f64>() / reps as f64;
            (s - host_us / 1e6) * 1e3 / report.completed as f64
        })
        .collect();
    let waits: Vec<f64> = report.records.iter().map(|r| r.start_us - r.arrival_us).collect();
    let report_ms: Vec<f64> = p.report_s.iter().map(|s| s * 1e3).collect();
    m.put("wse-lint.lint_ms", median(&p.lint_ms), Clock::Wall, p.lint_ms.len());
    m.put("wse-lint.findings", p.findings as f64, Clock::Sim, p.lint_ms.len());
    m.put("wse-serve.compile_ms", median(&p.compile_ms), Clock::Wall, p.compile_ms.len());
    m.put("wse-serve.lookup_us", median(&p.warm_us), Clock::Wall, p.warm_us.len());
    m.put("wse-serve.place_solve_ms_per_job", median(&place_solve), Clock::Wall, reps);
    m.put("wse-serve.report_ms", median(&report_ms), Clock::Wall, reps);
    m.put("wse-serve.hit_rate", report.cache.hit_rate(), Clock::Sim, report.completed);
    m.put("wse-serve.tier.cold", report.tiers.0 as f64, Clock::Sim, 1);
    m.put("wse-serve.tier.hit", report.tiers.1 as f64, Clock::Sim, 1);
    m.put("wse-serve.tier.resident", report.tiers.2 as f64, Clock::Sim, 1);
    m.put("wse-serve.queue_wait_us_p50", median(&waits), Clock::Sim, waits.len());
    let rollbacks: usize = report.records.iter().map(|r| r.rollbacks).sum();
    m.put("wse-serve.rollbacks", rollbacks as f64, Clock::Sim, report.records.len());
    m.put("wse-serve.resident_drift", p.resident_drift as f64, Clock::Sim, p.resident_checked);
}

/// Times `wse_dsl::plan` and `lower` on the DSL shape the stream serves.
/// Returns `(plan_us, lower_us)`.
pub fn dsl_probe(tr: &mut Tracer) -> Result<(f64, f64), String> {
    let spec = wse_dsl::catalog::get("box9-2d").ok_or("no catalog operator box9-2d")?;
    let mesh = Mesh3D::new(8, 8, 1);
    let block = Block2D::new(4, 4);
    let a = spec.matrix(mesh).map_err(|e| e.to_string())?;
    let geometry = wse_dsl::plan::Geometry { fabric_w: 2, fabric_h: 2, block: Some(block) };
    tr.begin("wse-dsl", "plan");
    let t = Instant::now();
    let planned = wse_dsl::plan(&spec, mesh, geometry);
    let plan_us = t.elapsed().as_secs_f64() * 1e6;
    tr.end();
    planned.map_err(|e| format!("plan(box9-2d) failed: {e}"))?;
    let mut fabric = Fabric::new(2, 2);
    tr.begin("wse-dsl", "lower");
    let t = Instant::now();
    let lowered = wse_dsl::lower(&mut fabric, &spec, &a, Some(block));
    let lower_us = t.elapsed().as_secs_f64() * 1e6;
    tr.end();
    lowered.map_err(|e| format!("lower(box9-2d) failed: {e}"))?;
    Ok((plan_us, lower_us))
}

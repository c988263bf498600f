//! A benchmark-side [`WaferExec`] that times each `run_phase` call.
//!
//! Every call is forwarded to the inner [`Fabric`]; `run_phase` is also
//! wrapped in a `wse-arch` span and, while counting is on, its wall time,
//! simulated cycles and [`FabricPerf`] deltas are tallied per phase name.
//! The wrapper only observes, so the simulated machine sees exactly the
//! calls a bare `Fabric` would.

use crate::spans::Tracer;
use std::time::Instant;
use wse_arch::types::{Reg, TaskId};
use wse_arch::{Fabric, FabricPerf, StallReport};
use wse_core::WaferExec;
use wse_float::F16;

/// The BiCGStab phase names, in report order.
pub const PHASES: [&str; 5] = ["spmv", "dot", "allreduce", "update", "scalar"];

/// Per-phase wall time and simulated work.
#[derive(Default)]
pub struct PhaseTally {
    /// Tally only while `true` (the caller brackets the calls it wants).
    pub counting: bool,
    /// Wall seconds per entry of [`PHASES`].
    pub wall_s: [f64; 5],
    /// Simulated cycles, summed over phases.
    pub cycles: u64,
    /// Counter deltas summed over the tallied phases.
    pub perf: FabricPerf,
}

/// Adds `after - before` of every counter to `acc`.
pub fn add_delta(acc: &mut FabricPerf, before: &FabricPerf, after: &FabricPerf) {
    acc.flops_f16 += after.flops_f16 - before.flops_f16;
    acc.flops_f32 += after.flops_f32 - before.flops_f32;
    acc.busy_cycles += after.busy_cycles - before.busy_cycles;
    acc.idle_cycles += after.idle_cycles - before.idle_cycles;
    acc.flits_routed += after.flits_routed - before.flits_routed;
    acc.ctrl_stmts += after.ctrl_stmts - before.ctrl_stmts;
    for p in 0..acc.backpressure.len() {
        acc.backpressure[p] += after.backpressure[p] - before.backpressure[p];
    }
}

/// The timing wrapper.
pub struct TimedExec<'a> {
    /// The machine every call is forwarded to.
    pub fabric: &'a mut Fabric,
    /// Where the `run_phase` spans go.
    pub tracer: &'a mut Tracer,
    /// Where the per-phase tallies go.
    pub tally: &'a mut PhaseTally,
}

impl WaferExec for TimedExec<'_> {
    type Checkpoint = <Fabric as WaferExec>::Checkpoint;

    fn dims(&self) -> (usize, usize) {
        self.fabric.dims()
    }

    fn activate(&mut self, x: usize, y: usize, task: TaskId) {
        self.fabric.activate(x, y, task);
    }

    fn run_phase(
        &mut self,
        name: &'static str,
        budget: u64,
        window: u64,
    ) -> Result<u64, Box<StallReport>> {
        if !self.tally.counting {
            return self
                .tracer
                .span("wse-arch", name, || self.fabric.run_phase(name, budget, window));
        }
        let before = self.fabric.perf();
        let t0 = Instant::now();
        let r = self.tracer.span("wse-arch", name, || self.fabric.run_phase(name, budget, window));
        let wall = t0.elapsed().as_secs_f64();
        let slot = PHASES.iter().position(|&p| p == name).expect("a BiCGStab phase name");
        self.tally.wall_s[slot] += wall;
        if let Ok(c) = r {
            self.tally.cycles += c;
        }
        add_delta(&mut self.tally.perf, &before, &self.fabric.perf());
        r
    }

    fn store_f16(&mut self, x: usize, y: usize, addr: u32, data: &[F16]) {
        self.fabric.store_f16(x, y, addr, data);
    }

    fn load_f16(&self, x: usize, y: usize, addr: u32, len: usize) -> Vec<F16> {
        self.fabric.load_f16(x, y, addr, len)
    }

    fn set_reg(&mut self, x: usize, y: usize, reg: Reg, value: f32) {
        self.fabric.set_reg(x, y, reg, value);
    }

    fn reg(&self, x: usize, y: usize, reg: Reg) -> f32 {
        self.fabric.reg(x, y, reg)
    }

    fn checkpoint(&mut self) -> Self::Checkpoint {
        self.fabric.checkpoint()
    }

    fn restore_checkpoint(&mut self, ckpt: &Self::Checkpoint) {
        self.fabric.restore_checkpoint(ckpt);
    }

    fn reset_transient(&mut self) {
        WaferExec::reset_transient(self.fabric);
    }

    fn phase_marker(&mut self, name: &'static str) {
        WaferExec::phase_marker(self.fabric, name);
    }
}

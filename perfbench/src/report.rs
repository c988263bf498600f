//! Metric records and the result line.
//!
//! Every metric is printed as one JSON record carrying its layer, unit,
//! whether it reads the deterministic simulated clock or host wall time,
//! its sample count, and the host fingerprint. The last stdout line is the
//! result object: `correct`, `attempted`, `failed`, and the end-to-end
//! (untraced run) or per-layer (traced run) metrics.

use crate::host::Host;
use std::fmt::Write as _;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("host_s_per_iter", "s"),
    ("tile_cycles_per_s", "1/s"),
    ("solves_per_host_s", "1/s"),
    ("compile_ms", "ms"),
    ("true_rel_residual", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed with the records but kept out of the result
/// line. The simulated times are exact functions of the workload, and on
/// the wafer workloads they do not change with the seed, so they would
/// read the same on every run; `fail_frac` is 0 in every accepted run, so
/// it cannot carry a relative bound (the result line's `attempted` and
/// `failed` carry it instead).
pub const RECORD_ONLY: [(&str, &str); 6] = [
    ("steal_frac", "ratio"),
    ("sim_us_per_iter", "us"),
    ("sojourn_p50_us", "us"),
    ("sojourn_p99_us", "us"),
    ("sim_solves_per_s", "1/s"),
    ("fail_frac", "ratio"),
];

/// Layers the per-layer self-time shares are reported for.
pub const LAYERS: [&str; 8] =
    ["bench", "stencil", "wse-arch", "core", "wse-multi", "wse-dsl", "wse-lint", "wse-serve"];

/// Per-layer metrics that are not self-time shares: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("stencil.manufacture_s", "s"),
    ("wse-arch.phase_s.spmv", "s"),
    ("wse-arch.phase_s.dot", "s"),
    ("wse-arch.phase_s.allreduce", "s"),
    ("wse-arch.phase_s.update", "s"),
    ("wse-arch.phase_s.scalar", "s"),
    ("wse-arch.ns_per_tile_cycle", "ns"),
    ("wse-arch.busy_frac", "ratio"),
    ("wse-arch.flits_routed", "count"),
    ("wse-arch.backpressure_cycles", "count"),
    ("wse-arch.flops_f16", "count"),
    ("core.build_s", "s"),
    ("core.load_rhs_s", "s"),
    ("core.read_x_s", "s"),
    ("core.iterate_s", "s"),
    ("core.residual_norm_s", "s"),
    ("core.sim_cycles.spmv", "cycles"),
    ("core.sim_cycles.dot", "cycles"),
    ("core.sim_cycles.allreduce", "cycles"),
    ("core.sim_cycles.update", "cycles"),
    ("core.sim_cycles.scalar", "cycles"),
    ("wse-multi.iterate_s", "s"),
    ("wse-multi.residual_norm_s", "s"),
    ("wse-multi.sim_cycles.halo_exposed", "cycles"),
    ("wse-multi.sim_cycles.halo_hidden", "cycles"),
    ("wse-multi.sim_cycles.host_allreduce", "cycles"),
    ("wse-multi.frames", "count"),
    ("wse-multi.retransmits", "count"),
    ("wse-dsl.plan_us", "us"),
    ("wse-dsl.lower_us", "us"),
    ("wse-lint.lint_ms", "ms"),
    ("wse-lint.findings", "count"),
    ("wse-serve.compile_ms", "ms"),
    ("wse-serve.lookup_us", "us"),
    ("wse-serve.place_solve_ms_per_job", "ms"),
    ("wse-serve.report_ms", "ms"),
    ("wse-serve.hit_rate", "ratio"),
    ("wse-serve.tier.cold", "count"),
    ("wse-serve.tier.hit", "count"),
    ("wse-serve.tier.resident", "count"),
    ("wse-serve.queue_wait_us_p50", "us"),
    ("wse-serve.rollbacks", "count"),
    ("wse-serve.resident_drift", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
];

/// Which clock a metric reads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Deterministic: simulated cycles or counts; bit-identical per seed.
    Sim,
    /// Host wall time or memory: machine-dependent.
    Wall,
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Layer it belongs to (`e2e` for end-to-end metrics).
    pub layer: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Clock the value reads.
    pub clock: Clock,
    /// Number of samples the value summarizes.
    pub samples: usize,
}

/// A metric set under construction: names are checked against the lists
/// above, so a workload cannot report an undeclared metric.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name`; the unit comes from the declared lists.
    ///
    /// # Panics
    /// Panics on an undeclared or duplicate name.
    pub fn put(&mut self, name: &str, value: f64, clock: Clock, samples: usize) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        let layer = if END_TO_END.iter().chain(&RECORD_ONLY).any(|(n, _)| *n == name) {
            "e2e".to_string()
        } else {
            let root = name.split('.').next().expect("non-empty name");
            if root == "self_frac" {
                name["self_frac.".len()..].to_string()
            } else {
                root.to_string()
            }
        };
        self.0.push(Metric { name: name.to_string(), layer, unit, value, clock, samples });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The declared unit of `name`, if it is declared.
pub fn unit_of(name: &str) -> Option<&'static str> {
    if let Some(layer) = name.strip_prefix("self_frac.") {
        return LAYERS.contains(&layer).then_some("ratio");
    }
    END_TO_END
        .iter()
        .chain(&RECORD_ONLY)
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Every per-layer metric name, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<String> {
    PER_LAYER
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(LAYERS.iter().map(|l| format!("self_frac.{l}")))
        .collect()
}

/// One JSON record per metric.
pub fn records(workload: &str, seed: u64, traced: bool, m: &Metrics, host: &Host) -> String {
    let host = host.json();
    let mut s = String::new();
    for r in &m.0 {
        let _ = writeln!(
            s,
            "{{\"record\": \"perfbench\", \"workload\": {}, \"seed\": {seed}, \"traced\": {traced}, \
             \"layer\": {}, \"metric\": {}, \"value\": {}, \"unit\": {}, \"deterministic\": {}, \
             \"samples\": {}, \"host\": {host}}}",
            quote(workload),
            quote(&r.layer),
            quote(&r.name),
            number(r.value),
            quote(r.unit),
            r.clock == Clock::Sim,
            r.samples,
        );
    }
    s
}

/// The result line: `correct`, `attempted`, `failed` and the named metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    m: &Metrics,
    names: &[String],
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|n| {
            let v = m.get(n).unwrap_or_else(|| panic!("metric {n} was not measured"));
            let unit = unit_of(n).expect("declared metric");
            format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(n), number(v), quote(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which fail the correctness checks) print as null.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program reports, with the same units.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let declared = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer_names().into_iter().map(|n| {
                let u = unit_of(&n).unwrap();
                (n, u)
            }))
            .collect();
        assert_eq!(declared - workloads, names.len());
        for (n, u) in names {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_lists_the_requested_metrics() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, Clock::Wall, 3);
        m.put("self_frac.core", 0.25, Clock::Wall, 1);
        assert_eq!(m.0[1].layer, "core");
        let line = result_line(true, 4, 0, &m, &["setup_s".to_string()]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}

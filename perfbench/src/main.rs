//! The repository's benchmark: one seeded workload per invocation, end to
//! end (untraced) or per layer (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wafer-dense|multiwafer-k4|served-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the whole time goes to an untraced pass and the result
//! line carries the end-to-end metrics. With `--trace 1` the time is split:
//! an untraced pass, then a traced pass whose spans give the per-layer
//! metrics; the two must agree on every simulated number, and the gap in
//! their host times is reported as the tracing overhead. Stdout ends with
//! the result line; any failed check makes the exit status 1.

mod host;
mod report;
mod served;
mod spans;
mod stats;
mod timed;
mod wafer;

use host::Host;
use report::{Clock, Metrics, END_TO_END};
use spans::Tracer;
use stats::median;
use wafer::{Dense, Multi, WaferSystem};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["wafer-dense", "multiwafer-k4", "served-mix"];

const USAGE: &str = "usage: perfbench --workload <wafer-dense|multiwafer-k4|served-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} outside (0, 3600]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args { workload: workload.to_string(), seed, seconds, trace })
}

/// What a workload run produced.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    tracer: Option<Tracer>,
}

/// Traced-run metrics every workload reports: the overhead, the share of
/// the traced window no span covers, and each layer's self-time share.
fn trace_metrics(tr: &Tracer, window: (u64, u64), overhead: f64, m: &mut Metrics) {
    m.put("trace.overhead_frac", overhead, Clock::Wall, 2);
    let uncovered = spans::uncovered_share(tr.spans(), window.0, window.1);
    m.put("trace.uncovered_frac", uncovered, Clock::Wall, tr.spans().len());
    let self_ns = spans::layer_self_times(tr.spans());
    let wall = (window.1 - window.0) as f64;
    for layer in report::LAYERS {
        let ns = self_ns.iter().find(|(l, _)| *l == layer).map_or(0, |(_, t)| *t);
        m.put(&format!("self_frac.{layer}"), ns as f64 / wall, Clock::Wall, tr.spans().len());
    }
}

/// Per-layer metrics a workload does not exercise read 0 with 0 samples.
fn fill_unexercised(m: &mut Metrics) {
    for name in report::per_layer_names() {
        if m.get(&name).is_none() {
            m.put(&name, 0.0, Clock::Sim, 0);
        }
    }
}

fn wafer_workload<S: WaferSystem>(args: &Args) -> Outcome {
    let mut m = Metrics::default();
    let mut off = Tracer::new(false);
    if !args.trace {
        let p = wafer::run_pass::<S>(args.seed, args.seconds, &mut off);
        if p.failed == 0 && p.notes.is_empty() {
            wafer::end_to_end::<S>(&p, &mut m);
        }
        return Outcome {
            metrics: m,
            attempted: p.solves,
            failed: p.failed,
            notes: p.notes,
            tracer: None,
        };
    }
    let plain = wafer::run_pass::<S>(args.seed, args.seconds / 2.0, &mut off);
    let mut tr = Tracer::new(true);
    let start = tr.now();
    let mut notes = plain.notes.clone();
    match wafer::dsl_probe::<S>(args.seed, &mut tr) {
        Ok((plan_us, lower_us, lint_ms, findings)) => {
            m.put("wse-dsl.plan_us", plan_us, Clock::Wall, 1);
            m.put("wse-dsl.lower_us", lower_us, Clock::Wall, 1);
            m.put("wse-lint.lint_ms", lint_ms, Clock::Wall, 1);
            m.put("wse-lint.findings", findings as f64, Clock::Sim, 1);
            if findings != 0 {
                notes.push(format!("{findings} lint findings on the lowered operator"));
            }
        }
        Err(e) => notes.push(e),
    }
    let traced = wafer::run_pass::<S>(args.seed, args.seconds / 2.0, &mut tr);
    notes.extend(traced.notes.iter().cloned());
    let (attempted, failed) = (plain.solves + traced.solves, plain.failed + traced.failed);
    if failed == 0 && notes.is_empty() {
        if (&plain.cycles, plain.solve_cycles, plain.digest, plain.true_rel.to_bits())
            != (&traced.cycles, traced.solve_cycles, traced.digest, traced.true_rel.to_bits())
        {
            notes.push("traced and untraced runs differ in simulated cycles or x".into());
        }
        wafer::end_to_end::<S>(&plain, &mut m);
        wafer::per_layer::<S>(&traced, &mut m);
        let overhead = median(&traced.iter_s) / median(&plain.iter_s) - 1.0;
        trace_metrics(&tr, (start, traced.window.1), overhead, &mut m);
        fill_unexercised(&mut m);
    }
    Outcome { metrics: m, attempted, failed, notes, tracer: Some(tr) }
}

fn served_workload(args: &Args) -> Outcome {
    let mut m = Metrics::default();
    let mut off = Tracer::new(false);
    let check_p99 = |p: &served::ServedPass, notes: &mut Vec<String>| {
        if !served::p99_supported(p) {
            notes.push("fewer than ten jobs lie beyond the p99 sojourn".into());
        }
    };
    if !args.trace {
        let p = served::run_pass(args.seed, args.seconds, &mut off);
        let mut notes = p.notes.clone();
        check_p99(&p, &mut notes);
        if p.failed == 0 && notes.is_empty() {
            served::end_to_end(&p, &mut m);
        }
        return Outcome {
            metrics: m,
            attempted: p.attempted,
            failed: p.failed,
            notes,
            tracer: None,
        };
    }
    let plain = served::run_pass(args.seed, args.seconds / 2.0, &mut off);
    let mut tr = Tracer::new(true);
    let start = tr.now();
    let mut notes = plain.notes.clone();
    check_p99(&plain, &mut notes);
    match served::dsl_probe(&mut tr) {
        Ok((plan_us, lower_us)) => {
            m.put("wse-dsl.plan_us", plan_us, Clock::Wall, 1);
            m.put("wse-dsl.lower_us", lower_us, Clock::Wall, 1);
        }
        Err(e) => notes.push(e),
    }
    let traced = served::run_pass(args.seed, args.seconds / 2.0, &mut tr);
    notes.extend(traced.notes.iter().cloned());
    if traced.findings != 0 {
        notes.push(format!("{} lint findings on cold-compiled images", traced.findings));
    }
    let (attempted, failed) = (plain.attempted + traced.attempted, plain.failed + traced.failed);
    if failed == 0 && notes.is_empty() {
        if !served::same_simulation(&plain, &traced) {
            notes.push("traced and untraced runs differ in simulated results".into());
        }
        served::end_to_end(&plain, &mut m);
        served::per_layer(&traced, &mut m);
        let overhead = median(&traced.run_s) / median(&plain.run_s) - 1.0;
        trace_metrics(&tr, (start, traced.window.1), overhead, &mut m);
        fill_unexercised(&mut m);
    }
    Outcome { metrics: m, attempted, failed, notes, tracer: Some(tr) }
}

/// The process's resident-set high-water mark, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // One CPU: on a small shared host, two busy threads get their vCPUs
    // stolen by the hypervisor and every fork/join waits on the straggler,
    // which made two-thread wall times swing several-fold between runs.
    let host_nproc = host::available_cpus();
    if let Err(e) = host::pin_to_one_cpu() {
        eprintln!("perfbench: cannot pin to one CPU: {e}");
        std::process::exit(1);
    }
    let host = Host::detect(host_nproc);
    let steal0 = host::steal_ticks();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (pinned to 1 of {} CPUs, {}, {}, {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.host_nproc,
        host.cpu,
        host.rustc,
        host.profile
    );
    let mut out = match args.workload.as_str() {
        "wafer-dense" => wafer_workload::<Dense>(&args),
        "multiwafer-k4" => wafer_workload::<Multi>(&args),
        "served-mix" => served_workload(&args),
        w => unreachable!("parse_args admitted workload {w}"),
    };
    match peak_rss_mb() {
        Some(mb) if out.metrics.get("setup_s").is_some() => {
            out.metrics.put("peak_rss_mb", mb, Clock::Wall, 1)
        }
        Some(_) => {}
        None => out.notes.push("no VmHWM in /proc/self/status".into()),
    }
    let steal1 = host::steal_ticks();
    let steal = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    out.metrics.put("steal_frac", steal, Clock::Wall, 1);
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.put("fail_frac", fail_frac, Clock::Sim, out.attempted as usize);

    if let Some(tr) = &out.tracer {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-{}.json", args.workload, args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
            Ok(()) => println!("spans: {} written to {path}", tr.spans().len()),
            Err(e) => out.notes.push(format!("writing {path}: {e}")),
        }
    }
    print!("{}", report::records(&args.workload, args.seed, args.trace, &out.metrics, &host));
    for note in &out.notes {
        println!("CHECK FAILED: {note}");
    }
    let correct = out.failed == 0 && out.notes.is_empty();
    let names: Vec<String> = if args.trace {
        report::per_layer_names()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    if correct {
        println!("{}", report::result_line(true, out.attempted, out.failed, &out.metrics, &names));
    } else {
        let empty = Metrics::default();
        println!("{}", report::result_line(false, out.attempted, out.failed, &empty, &[]));
        std::process::exit(1);
    }
}

//! Layer-isolated benchmark of the Spindle reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig8-sim|hyper-churn|fleet-tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes one layer do nearly all the timed work (see
//! `README.md`). The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Every workload
//! reports every metric; a layer a workload does not exercise reports zero
//! work, which is how the isolation shows.

mod alloc;
mod churn;
mod fig8;
mod fleet;
mod gauge;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gauge::Gauge;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, reported with tracing off: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("op_mean_scaled_ms", "ms"),
    ("op_tail_scaled_ms", "ms"),
    ("model_ms", "ms"),
    ("slo_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    // runtime.sim
    ("sim.call_p50_ms", "ms"),
    ("sim.flows", "count"),
    ("sim.syncs", "count"),
    ("sim.events", "count"),
    ("sim.allocs", "count"),
    ("sim.alloc_bytes", "B"),
    // iteration breakdown
    ("iter.compute_ms", "ms"),
    ("iter.comm_ms", "ms"),
    ("iter.sync_ms", "ms"),
    ("iter.idle_share", "ratio"),
    ("plan.vs_optimum", "x"),
    ("iter.serialized_ms", "ms"),
    ("iter.engine_over_sim", "x"),
    // baselines
    ("baselines.deepspeed_iter_ms", "ms"),
    ("baselines.distmm_iter_ms", "ms"),
    ("baselines.optimus_iter_ms", "ms"),
    ("baselines.speedup_vs_decoupled", "x"),
    // core and estimator
    ("core.replans", "count"),
    ("core.replan_p50_ms", "ms"),
    ("core.topo_replan_mean_ms", "ms"),
    ("core.mpsp_solves", "count"),
    ("core.bisection_iters", "count"),
    ("core.waves_crafted", "count"),
    ("core.levels_reused_share", "ratio"),
    ("core.placement_reused_share", "ratio"),
    ("core.allocs_per_replan", "count"),
    ("estimator.curve_fits", "count"),
    ("estimator.hit_rate", "ratio"),
    // runtime.migrate and runtime.recovery
    ("migrate.calls", "count"),
    ("migrate.bytes", "B"),
    ("recovery.restore_bytes", "B"),
    ("recovery.rematerialized", "count"),
    ("recovery.priced_ms", "ms"),
    ("migrate.price_call_ms", "ms"),
    // service
    ("service.requests", "count"),
    ("service.submit_call_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.plan_ms", "ms"),
    ("service.transport_ms", "ms"),
    ("service.coalescing_ratio", "ratio"),
    ("service.capacity_rps", "1/s"),
    ("service.refused", "count"),
    ("service.allocs_per_request", "count"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.open_mean_ms", "ms"),
    ("loadgen.open_tail_ms", "ms"),
    // raw wall-clock figures and the host-speed gauge
    ("wall.op_mean_ms", "ms"),
    ("wall.op_tail_ms", "ms"),
    ("wall.setup_s", "s"),
    ("gauge.reading_ms", "ms"),
    // the traced run itself
    ("trace.layer_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups before the timed loop.
const SETUP_FIRST: usize = 3;
/// The timed loop sets up again, at a pause, at most this often.
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Opts {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

/// Everything one run measured, checked and counted.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
}

impl Report {
    fn new() -> Self {
        let zeros = |list: &[(&'static str, &str)]| list.iter().map(|&(n, _)| (n, 0.0)).collect();
        Self {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            e2e: zeros(END_TO_END),
            layer: zeros(PER_LAYER),
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        *self
            .e2e
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown end-to-end metric {name}")) = value;
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        *self
            .layer
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}")) = value;
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|&(_, ok)| ok)
    }

    fn json(&self, traced: bool) -> String {
        let (list, values) = if traced {
            (PER_LAYER, &self.layer)
        } else {
            (END_TO_END, &self.e2e)
        };
        // A metric that is not finite, or a run that attempted nothing, is a
        // failed run; the JSON still has to parse.
        let finite = list.iter().all(|&(name, _)| values[name].is_finite());
        let metrics: Vec<String> = list
            .iter()
            .map(|&(name, unit)| {
                let v = values[name];
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && finite && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Times the workload's set-up: [`SETUP_FIRST`] times before the timed loop,
/// then once more at each pause the loop offers once [`SETUP_EVERY`] has
/// passed.
pub struct SetupClock<F> {
    build: F,
    times: Vec<f64>,
    next: Instant,
    paused: Duration,
}

impl<T, F: FnMut() -> T> SetupClock<F> {
    /// Sets up [`SETUP_FIRST`] times; returns the clock and the last set-up.
    pub fn start(mut build: F) -> (Self, T) {
        let mut times = Vec::with_capacity(SETUP_FIRST);
        let mut last = None;
        for _ in 0..SETUP_FIRST {
            drop(last.take());
            let start = Instant::now();
            last = Some(build());
            times.push(start.elapsed().as_secs_f64());
        }
        let clock = Self {
            build,
            times,
            next: Instant::now() + SETUP_EVERY,
            paused: Duration::ZERO,
        };
        (clock, last.expect("SETUP_FIRST is positive"))
    }

    /// A pause in the timed loop: if [`SETUP_EVERY`] has passed since the
    /// last set-up, sets up once more and drops the result.
    pub fn pause(&mut self) {
        let start = Instant::now();
        if start < self.next {
            return;
        }
        let built = (self.build)();
        self.times.push(start.elapsed().as_secs_f64());
        drop(built);
        let end = Instant::now();
        self.paused += end - start;
        self.next = end + SETUP_EVERY;
    }
}

impl<F> SetupClock<F> {
    /// Wall time spent in pauses, dropping the set-ups included.
    pub fn paused(&self) -> Duration {
        self.paused
    }

    /// Median set-up wall time, seconds. A set-up that a burst of outside
    /// load or a slow thread wake-up stretched does not move it.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.times)
    }
}

/// Reports `setup_s`: the median set-up time scaled to the gauge's median
/// reading over the run. Set-ups are scaled by the whole run's readings, not
/// by readings taken next to them: on fleet-tcp a set-up leaves an ingress
/// whose threads are still starting, and a reading taken then runs slow.
pub fn report_setup<F>(report: &mut Report, clock: &SetupClock<F>, gauge: &Gauge) {
    report.e2e("setup_s", clock.median_s() * gauge.scale());
}

/// Reports the per-layer wall-clock figures behind the scaled end-to-end
/// ones, and the gauge's median reading.
pub fn report_wall<F>(
    report: &mut Report,
    wall: &stats::Windowed,
    clock: &SetupClock<F>,
    gauge: &Gauge,
) {
    report.layer("wall.op_mean_ms", wall.mean);
    report.layer("wall.op_tail_ms", wall.tail);
    report.layer("wall.setup_s", clock.median_s());
    report.layer("gauge.reading_ms", gauge.median_ms());
}

/// Peak resident set size (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new();
    let mut tracer = trace::Tracer::new();
    match opts.workload.as_str() {
        "fig8-sim" => fig8::run(&opts, &mut tracer, &mut report),
        "hyper-churn" => churn::run(&opts, &mut tracer, &mut report),
        "fleet-tcp" => fleet::run(&opts, &mut tracer, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    report.e2e("peak_rss_mb", peak_rss_mib());
    if opts.trace {
        let path = PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
        match tracer.write(&path) {
            Ok(()) => println!(
                "trace: {} spans -> {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => report.check(format!("write trace {}: {e}", path.display()), false),
        }
    }
    for (name, ok) in &report.checks {
        println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    println!("{}", report.json(opts.trace));
    ExitCode::SUCCESS
}

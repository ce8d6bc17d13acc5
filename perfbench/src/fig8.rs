//! `fig8-sim`: the event simulator alone. Set-up plans `hyperscale(64)` on
//! 512 GPUs cold with Spindle and three baselines; the timed closed loop only
//! calls `Simulator::run_iteration` on Spindle's plan under the contended
//! model, so no planner or service code runs while the clock does.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle_baselines::SystemKind;
use spindle_cluster::ClusterSpec;
use spindle_core::{ExecutionPlan, SpindleSession};
use spindle_graph::ComputationGraph;
use spindle_runtime::{RuntimeEngine, SimConfig, SimReport, Simulator};
use spindle_workloads::hyperscale;

use crate::gauge::{Gauge, NOMINAL_MS};
use crate::stats::{gauged, mean, median, windowed, MIN_SAMPLES};
use crate::trace::Tracer;
use crate::{Opts, Report, SetupClock};

const TASKS: usize = 64;
const GPUS: usize = 512;
/// Relative compute-time jitter drawn from the run's seed: each seed is a
/// slightly different training iteration of the same plan.
const COMPUTE_JITTER: f64 = 0.02;
/// Calls per timing window: the window's p90 keeps 10 calls beyond it.
const WINDOW: usize = 100;
/// The gauge is read after every call that ends this long after the last
/// reading: after every call, as a call takes about 50 ms.
const GAUGE_EVERY: Duration = Duration::from_millis(20);
/// A `run_iteration` call slower than this counts as a miss.
const CALL_LIMIT: Duration = Duration::from_millis(500);

const BASELINES: [SystemKind; 3] = [
    SystemKind::SpindleOptimus,
    SystemKind::DistMmMt,
    SystemKind::DeepSpeed,
];

struct Setup {
    graph: Arc<ComputationGraph>,
    cluster: ClusterSpec,
    spindle: Arc<ExecutionPlan>,
    baselines: Vec<(SystemKind, Arc<ExecutionPlan>)>,
    sim: Simulator,
}

fn contended(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        compute_jitter: COMPUTE_JITTER,
        ..SimConfig::contended()
    }
}

fn setup(seed: u64) -> Setup {
    let graph = Arc::new(hyperscale(TASKS).expect("the hyperscale preset builds"));
    let cluster = ClusterSpec::homogeneous(GPUS / 8, 8);
    let plan_cold = |kind: SystemKind| {
        let mut session = SpindleSession::new(cluster.clone());
        Arc::new(
            kind.planning_system()
                .plan(&graph, &mut session)
                .unwrap_or_else(|e| panic!("{kind} fails to plan hyperscale({TASKS}): {e}")),
        )
    };
    let spindle = plan_cold(SystemKind::Spindle);
    let baselines = BASELINES.iter().map(|&k| (k, plan_cold(k))).collect();
    let sim = Simulator::new(Arc::clone(&spindle), &cluster)
        .with_graph(Arc::clone(&graph))
        .with_config(contended(seed));
    Setup {
        graph,
        cluster,
        spindle,
        baselines,
        sim,
    }
}

fn simulate(setup: &Setup, plan: &Arc<ExecutionPlan>, config: SimConfig) -> SimReport {
    Simulator::new(Arc::clone(plan), &setup.cluster)
        .with_graph(Arc::clone(&setup.graph))
        .with_config(config)
        .run_iteration()
        .expect("every fig8 plan simulates")
}

pub fn run(opts: &Opts, tracer: &mut Tracer, report: &mut Report) {
    let mut gauge = Gauge::new(GAUGE_EVERY);
    let (mut clock, setup) = SetupClock::start(|| setup(opts.seed));

    // Timed closed loop. In the traced run every other call is traced, so
    // the two halves give the tracing overhead. Between calls the gauge is
    // read, and now and then the set-up is timed again.
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut first: Option<SimReport> = None;
    let mut drift = 0u64;
    let gauge_before = gauge.spent();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let mut call = 0u64;
    // At least enough untraced calls for one window's figures.
    while Instant::now() < deadline || plain_ms.len() < MIN_SAMPLES {
        let traced = opts.trace && call % 2 == 1;
        tracer.set_enabled(traced);
        let t = Instant::now();
        let result = tracer.span("run_iteration", call, || setup.sim.run_iteration());
        let took = t.elapsed();
        report.attempted += 1;
        match result {
            Ok(r) => {
                if took > CALL_LIMIT {
                    report.failed += 1;
                }
                match &first {
                    None => first = Some(r),
                    Some(f) if f.total_s().to_bits() != r.total_s().to_bits() => drift += 1,
                    Some(_) => {}
                }
            }
            Err(_) => report.failed += 1,
        }
        if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(took.as_secs_f64() * 1e3);
        call += 1;
        gauge.tick(plain_ms.len());
        clock.pause();
    }
    let wall_s = (start.elapsed() - clock.paused() - (gauge.spent() - gauge_before)).as_secs_f64();
    tracer.set_enabled(false);
    crate::report_setup(report, &clock, &gauge);

    // Everything below is outside the timed region.
    let Some(spindle) = first else {
        report.check("run_iteration succeeds", false);
        return;
    };
    report.check(
        "every run_iteration returns the same iteration time",
        drift == 0,
    );
    let iter_ms = spindle.total_ms();
    let baseline_ms: Vec<(SystemKind, f64)> = setup
        .baselines
        .iter()
        .map(|(k, plan)| (*k, simulate(&setup, plan, contended(opts.seed)).total_ms()))
        .collect();
    let of = |kind: SystemKind| {
        baseline_ms
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, ms)| ms)
            .expect("kind is in BASELINES")
    };
    let decoupled_ms = of(SystemKind::DeepSpeed);
    report.check(
        format!("Spindle {iter_ms:.3} ms beats decoupled {decoupled_ms:.3} ms"),
        iter_ms < decoupled_ms,
    );

    let wall = windowed(&plain_ms, WINDOW);
    let timed = gauged(&plain_ms, WINDOW, gauge.readings(), NOMINAL_MS);
    report.e2e("op_mean_scaled_ms", timed.mean);
    report.e2e("op_tail_scaled_ms", timed.tail);
    report.e2e("model_ms", iter_ms);
    report.e2e(
        "slo_ratio",
        (report.attempted - report.failed) as f64 / report.attempted as f64,
    );
    println!(
        "fig8-sim: {} run_iteration calls in {wall_s:.2} s; median of {} windows: mean {:.3} ms, p{} {:.3} ms \
         (scaled to the gauge: {:.3} ms, {:.3} ms); Spindle {iter_ms:.3} ms vs decoupled {decoupled_ms:.3} ms",
        report.attempted,
        wall.windows,
        wall.mean,
        wall.tail_level * 100.0,
        wall.tail,
        timed.mean,
        timed.tail
    );

    if !opts.trace {
        return;
    }
    crate::report_wall(report, &wall, &clock, &gauge);
    let calls: Vec<_> = tracer.named("run_iteration").collect();
    let allocs: Vec<u64> = calls.iter().map(|s| s.allocs.allocs).collect();
    report.check(
        "allocations per run_iteration repeat exactly",
        allocs.windows(2).all(|w| w[0] == w[1]),
    );
    report.layer(
        "sim.call_p50_ms",
        median(&calls.iter().map(|s| s.ms()).collect::<Vec<_>>()),
    );
    report.layer("sim.flows", spindle.flows_executed() as f64);
    report.layer("sim.syncs", spindle.syncs_executed() as f64);
    report.layer("sim.events", spindle.event_log().len() as f64);
    report.layer("sim.allocs", calls[0].allocs.allocs as f64);
    report.layer("sim.alloc_bytes", calls[0].allocs.bytes as f64);
    report.layer("iter.compute_ms", spindle.compute_s() * 1e3);
    report.layer("iter.comm_ms", spindle.comm_s() * 1e3);
    report.layer("iter.sync_ms", spindle.sync_s() * 1e3);
    let busy_s: f64 = spindle.device_busy_s().values().sum();
    report.layer(
        "iter.idle_share",
        1.0 - busy_s / (GPUS as f64 * spindle.total_s()),
    );
    report.layer(
        "plan.vs_optimum",
        setup.spindle.makespan() / setup.spindle.theoretical_optimum(),
    );
    let serialized = SimConfig {
        seed: opts.seed,
        compute_jitter: COMPUTE_JITTER,
        ..SimConfig::default()
    };
    report.layer(
        "iter.serialized_ms",
        simulate(&setup, &setup.spindle, serialized).total_ms(),
    );
    let engine = RuntimeEngine::new(Arc::clone(&setup.spindle), &setup.cluster)
        .with_graph(Arc::clone(&setup.graph))
        .run_iteration()
        .expect("the engine runs Spindle's plan");
    // The analytical engine has no seeded input, so its time alone would
    // read the same on every run; its ratio to the simulated iteration
    // does not.
    report.layer("iter.engine_over_sim", engine.iteration_time_ms() / iter_ms);
    report.layer("baselines.deepspeed_iter_ms", decoupled_ms);
    report.layer("baselines.distmm_iter_ms", of(SystemKind::DistMmMt));
    report.layer("baselines.optimus_iter_ms", of(SystemKind::SpindleOptimus));
    report.layer("baselines.speedup_vs_decoupled", decoupled_ms / iter_ms);
    // Share of the timed loop's wall time, set-up pauses excluded, spent
    // inside `run_iteration` (span time for traced calls, the loop's own
    // timing for the rest).
    let in_sim_ms = tracer.top_level_ms(&["run_iteration"]) + plain_ms.iter().sum::<f64>();
    report.layer("trace.layer_share", in_sim_ms / (wall_s * 1e3));
    report.layer(
        "trace.overhead_pct",
        (mean(&traced_ms) / mean(&plain_ms) - 1.0) * 100.0,
    );
}

//! `hyper-churn`: the planner alone. A pass replays four seeded segments on
//! 256 GPUs, each with a fresh session: a hyperscale churn trace merged with
//! seeded device loss and restore events. Each event is one closed-loop step
//! (`replan`, or `remove_devices`/`restore_devices` then `replan`). After a
//! loss the old and new plans are priced too, timed apart from the step. No
//! simulator runs. Every pass does identical work.

use std::time::{Duration, Instant};

use spindle_cluster::{ClusterSpec, DeviceId};
use spindle_core::{ExecutionPlan, MetaOpId, SpindleSession};
use spindle_graph::ComputationGraph;
use spindle_runtime::{migration_flows, price_migration, price_restore, CheckpointPolicy};
use spindle_service::ReplanSummary;
use spindle_workloads::{hyperscale_churn, ArrivalSchedule, DeviceChurnKind, ScheduleEvent};

use crate::alloc::AllocCount;
use crate::gauge::{Gauge, NOMINAL_MS};
use crate::stats::{gauged, mean, median, windowed};
use crate::trace::Tracer;
use crate::{Opts, Report, SetupClock};

const GPUS: usize = 256;
/// Independent segments per pass, each replayed by a fresh session. Which
/// devices are down, and for how long, differs a lot between traces and
/// moves the planning cost with it; a pass of several segments averages
/// that out, so the work of a run depends less on its seed.
const SEGMENTS: usize = 4;
const INITIAL_TASKS: usize = 40;
/// Task-mix toggles per segment.
const TOGGLES: usize = 200;
/// Device loss and restore events per segment.
const DEVICE_EVENTS: usize = 12;
const MEAN_GAP_S: f64 = 30.0;
/// An event step slower than this counts as failed. It only catches gross
/// stalls: steps take a few milliseconds.
const STEP_LIMIT: Duration = Duration::from_millis(250);
/// The gauge is read between steps at most this often: about every tenth
/// step.
const GAUGE_EVERY: Duration = Duration::from_millis(20);
/// The verification pass compares every this many warm re-plans with a cold
/// session's plan of the same graph on the same topology.
const CHECK_EVERY: usize = 20;

enum Step {
    /// Index into the schedule's arrivals.
    Mix(usize),
    Remove(Vec<DeviceId>),
    Restore(Vec<DeviceId>),
}

struct Segment {
    schedule: ArrivalSchedule,
    steps: Vec<Step>,
}

struct Trace {
    cluster: ClusterSpec,
    segments: Vec<Segment>,
    /// Steps per pass, over every segment.
    steps: usize,
}

fn setup(seed: u64) -> Trace {
    let segments: Vec<Segment> = (0..SEGMENTS as u64)
        .map(|j| segment(seed.wrapping_mul(SEGMENTS as u64).wrapping_add(j)))
        .collect();
    Trace {
        cluster: ClusterSpec::homogeneous(GPUS / 8, 8),
        steps: segments.iter().map(|s| s.steps.len()).sum(),
        segments,
    }
}

fn segment(seed: u64) -> Segment {
    let schedule = hyperscale_churn(seed, INITIAL_TASKS, TOGGLES, MEAN_GAP_S)
        .expect("the hyperscale churn trace builds")
        .with_seeded_device_churn(seed, GPUS as u32, DEVICE_EVENTS);
    let devices = |ids: &[u32]| ids.iter().map(|&d| DeviceId(d)).collect();
    // The timeline lists the arrivals in their own order.
    let mut arrival = 0;
    let steps = schedule
        .timeline()
        .into_iter()
        .map(|event| match event {
            ScheduleEvent::Phase(_) => {
                arrival += 1;
                Step::Mix(arrival - 1)
            }
            ScheduleEvent::Churn(c) => match c.kind {
                DeviceChurnKind::Remove => Step::Remove(devices(&c.devices)),
                DeviceChurnKind::Restore => Step::Restore(devices(&c.devices)),
            },
        })
        .collect();
    Segment { schedule, steps }
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    step_ms: Vec<f64>,
    wall_ms: f64,
    /// Steps with a plan error or slower than [`STEP_LIMIT`].
    failed: u64,
    recovery_ms: f64,
    /// Sum of the planned iteration times (makespans) of every re-plan.
    makespan_ms: f64,
    replans: u64,
    topo_replan_ms: Vec<f64>,
    levels_reused: usize,
    levels_total: usize,
    placement_reused: usize,
    migrate_calls: u64,
    migrate_bytes: u64,
    restore_bytes: u64,
    rematerialized: usize,
    price_ms: Vec<f64>,
    replan_allocs: u64,
    mpsp_solves: u64,
    bisection_iters: u64,
    waves_crafted: u64,
    curve_fits: usize,
    cache_hits: usize,
    /// Verification pass only: warm re-plans compared with cold plans and
    /// MetaOps that lost every replica, each with its failures.
    cold_checks: usize,
    cold_failures: Vec<String>,
    loss_checks: usize,
    loss_failures: Vec<String>,
}

/// The placed MetaOps of `plan` and their devices; with `stateful`, only
/// entries that hold resident state.
fn sites(plan: &ExecutionPlan, stateful: bool) -> Vec<(MetaOpId, Vec<DeviceId>)> {
    let mut out: Vec<(MetaOpId, Vec<DeviceId>)> = Vec::new();
    for wave in plan.waves() {
        for entry in &wave.entries {
            let Some(group) = &entry.placement else {
                continue;
            };
            if stateful && entry.memory_per_device == 0 {
                continue;
            }
            match out.iter_mut().find(|(m, _)| *m == entry.metaop) {
                Some((_, devices)) => devices.extend(group.iter()),
                None => out.push((entry.metaop, group.iter().collect())),
            }
        }
    }
    out
}

/// Runs one pass: every segment in turn. With a gauge, reads it between
/// steps now and then, tagged with `offset` plus the steps done in the pass.
fn run_pass(
    trace: &Trace,
    tracer: &mut Tracer,
    pass_id: u64,
    verify: bool,
    mut gauge: Option<(&mut Gauge, usize)>,
) -> Pass {
    let mut pass = Pass::default();
    let pass_start = Instant::now();
    let mut first = 0;
    for segment in &trace.segments {
        let ctx = Ctx {
            cluster: &trace.cluster,
            pass_id,
            first,
            verify,
        };
        run_segment(
            segment,
            &ctx,
            &mut pass,
            tracer,
            gauge.as_mut().map(|(g, o)| (&mut **g, *o)),
        );
        first += segment.steps.len();
    }
    pass.wall_ms = pass_start.elapsed().as_secs_f64() * 1e3;
    pass
}

/// Where a segment sits in its pass.
struct Ctx<'a> {
    cluster: &'a ClusterSpec,
    pass_id: u64,
    /// Steps of the pass before this segment.
    first: usize,
    verify: bool,
}

/// Replays one segment with a fresh session, adding to `pass`.
fn run_segment(
    segment: &Segment,
    ctx: &Ctx,
    pass: &mut Pass,
    tracer: &mut Tracer,
    mut gauge: Option<(&mut Gauge, usize)>,
) {
    let (cluster, pass_id, verify) = (ctx.cluster, ctx.pass_id, ctx.verify);
    let policy = CheckpointPolicy::every(100);
    let mut session = SpindleSession::new(cluster.clone());
    let mut graph: Option<&ComputationGraph> = None;
    let mut plan: Option<ExecutionPlan> = None;
    for (j, step) in segment.steps.iter().enumerate() {
        let k = ctx.first + j;
        if let Some((gauge, offset)) = gauge.as_mut() {
            gauge.tick(*offset + k);
        }
        let request = pass_id << 32 | k as u64;
        let t = Instant::now();
        let span = tracer.begin("step", request);
        let mut lost = false;
        let mut failed = false;
        let topo = !matches!(step, Step::Mix(_));
        match step {
            Step::Mix(i) => graph = Some(&segment.schedule.arrivals()[*i].graph),
            Step::Remove(devices) => {
                lost = true;
                if tracer
                    .span("remove_devices", request, || {
                        session.remove_devices(devices)
                    })
                    .is_err()
                {
                    failed = true;
                }
            }
            Step::Restore(devices) => {
                tracer.span("restore_devices", request, || {
                    session.restore_devices(devices)
                });
            }
        }
        let g = graph.expect("the trace opens with a task mix");
        let r = Instant::now();
        let (outcome, allocs) = tracer.span("replan", request, || {
            let before = AllocCount::now();
            let outcome = session.replan(g);
            (outcome, before.until(AllocCount::now()))
        });
        let replan_ms = r.elapsed().as_secs_f64() * 1e3;
        pass.replan_allocs += allocs.allocs;
        pass.replans += 1;
        tracer.end(span);
        let took = t.elapsed();
        pass.step_ms.push(took.as_secs_f64() * 1e3);
        failed |= took > STEP_LIMIT || outcome.is_err();
        pass.failed += u64::from(failed);
        let Ok(outcome) = outcome else {
            continue;
        };
        if topo {
            pass.topo_replan_ms.push(replan_ms);
        }
        pass.makespan_ms += outcome.plan.makespan() * 1e3;
        pass.levels_reused += outcome.levels_reused;
        pass.levels_total += outcome.levels_total;
        pass.placement_reused += usize::from(outcome.placement_reused);
        if lost {
            if let Some(old) = &plan {
                let p = Instant::now();
                let pricing = tracer.begin("recovery", request);
                let migration = tracer.span("migration_flows", request, || {
                    migration_flows(old, &outcome.plan, session.cluster())
                });
                let move_s = tracer.span("price_migration", request, || {
                    price_migration(session.cluster(), &migration.flows, true)
                });
                let restore_s = tracer.span("price_restore", request, || {
                    price_restore(session.cluster(), &migration.restores, &policy, true)
                });
                tracer.end(pricing);
                pass.price_ms.push(p.elapsed().as_secs_f64() * 1e3);
                pass.recovery_ms += (move_s + restore_s) * 1e3;
                pass.migrate_calls += 1;
                pass.migrate_bytes += migration.migration_bytes();
                pass.restore_bytes += migration.restore_bytes();
                pass.rematerialized += migration.rematerialized_metaops();
                if verify {
                    // A MetaOp whose every old replica died must come back
                    // from storage at each of its new sites.
                    let survivors = session.cluster().all_devices();
                    let new_sites = sites(&outcome.plan, true);
                    for (metaop, old_sites) in sites(old, false) {
                        if old_sites.iter().any(|d| survivors.contains(*d)) {
                            continue;
                        }
                        let Some((_, placed)) = new_sites.iter().find(|(m, _)| *m == metaop) else {
                            continue;
                        };
                        pass.loss_checks += 1;
                        for &d in placed {
                            if !migration
                                .restores
                                .iter()
                                .any(|r| r.metaop == metaop && r.to == d)
                            {
                                pass.loss_failures.push(format!(
                                    "step {k}: {metaop:?} lost every replica but {d:?} gets no restore flow"
                                ));
                            }
                        }
                    }
                }
            }
        }
        if verify && k.is_multiple_of(CHECK_EVERY) {
            pass.cold_checks += 1;
            let mut cold = SpindleSession::new(cluster.clone());
            let removed = session.removed_devices().to_vec();
            let cold_fp = cold
                .remove_devices(&removed)
                .and_then(|_| cold.replan(g))
                .map(|o| ReplanSummary::of(&o).plan_fingerprint);
            let warm_fp = ReplanSummary::of(&outcome).plan_fingerprint;
            if cold_fp.as_ref().ok() != Some(&warm_fp) {
                pass.cold_failures.push(format!(
                    "step {k}: warm re-plan fingerprint {warm_fp:#x} != cold {cold_fp:?} \
                     (devices lost {}, levels replaced {})",
                    outcome.devices_lost, outcome.levels_replaced
                ));
            }
        }
        plan = Some(outcome.plan);
    }
    let stats = session.planning_stats();
    pass.mpsp_solves += stats.mpsp_solves;
    pass.bisection_iters += stats.bisection_iterations;
    pass.waves_crafted += stats.waves_crafted;
    let cache = session.cache_stats();
    pass.curve_fits += cache.fits;
    pass.cache_hits += cache.hits;
}

pub fn run(opts: &Opts, tracer: &mut Tracer, report: &mut Report) {
    let mut gauge = Gauge::new(GAUGE_EVERY);
    let (mut clock, trace) = SetupClock::start(|| setup(opts.seed));

    // Timed closed loop of whole passes. In the traced run every other pass
    // is traced, so the two halves give the tracing overhead. Untraced
    // passes read the gauge between steps; between passes the set-up is
    // timed again now and then.
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let gauge_before = gauge.spent();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut id = 0u64;
    // The traced run needs at least one traced pass.
    while start.elapsed() < budget || (opts.trace && traced.is_empty()) {
        let on = opts.trace && id % 2 == 1;
        tracer.set_enabled(on);
        let done = plain.len() * trace.steps;
        let pass = run_pass(
            &trace,
            tracer,
            id,
            false,
            (!on).then_some((&mut gauge, done)),
        );
        if on { &mut traced } else { &mut plain }.push(pass);
        id += 1;
        clock.pause();
    }
    let wall_s = (start.elapsed() - clock.paused() - (gauge.spent() - gauge_before)).as_secs_f64();
    tracer.set_enabled(false);
    crate::report_setup(report, &clock, &gauge);

    // Outside the timed region: one verification pass.
    let verify = run_pass(&trace, tracer, id, true, None);
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    for p in &all {
        report.attempted += p.step_ms.len() as u64;
        report.failed += p.failed;
    }
    report.check(
        format!(
            "{} sampled warm re-plans equal a cold session's plan",
            verify.cold_checks
        ),
        verify.cold_checks > 0 && verify.cold_failures.is_empty(),
    );
    report.check(
        format!(
            "{} MetaOps that lost every replica get restore flows",
            verify.loss_checks
        ),
        verify.loss_failures.is_empty(),
    );
    for f in verify
        .cold_failures
        .iter()
        .chain(&verify.loss_failures)
        .take(5)
    {
        println!("  {f}");
    }
    report.check(
        "every pass plans the same iterations and prices the same recovery",
        all.iter().all(|p| {
            p.makespan_ms.to_bits() == verify.makespan_ms.to_bits()
                && p.recovery_ms.to_bits() == verify.recovery_ms.to_bits()
        }),
    );
    let planned_ms = verify.makespan_ms / verify.replans as f64;

    let step_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.step_ms.iter().copied())
        .collect();
    // One window per pass: every pass does identical work.
    let wall = windowed(&step_ms, trace.steps);
    let timed = gauged(&step_ms, trace.steps, gauge.readings(), NOMINAL_MS);
    report.e2e("op_mean_scaled_ms", timed.mean);
    report.e2e("op_tail_scaled_ms", timed.tail);
    report.e2e("model_ms", planned_ms);
    report.e2e(
        "slo_ratio",
        (report.attempted - report.failed) as f64 / report.attempted as f64,
    );
    println!(
        "hyper-churn: {} passes of {} steps in {wall_s:.2} s; median of {} passes: step mean {:.3} ms, p{} {:.3} ms \
         (scaled to the gauge: {:.3} ms, {:.3} ms); planned iteration {planned_ms:.3} ms; recovery {:.3} ms/pass over {} losses",
        all.len(),
        trace.steps,
        wall.windows,
        wall.mean,
        wall.tail_level * 100.0,
        wall.tail,
        timed.mean,
        timed.tail,
        verify.recovery_ms,
        verify.migrate_calls
    );

    if !opts.trace {
        return;
    }
    crate::report_wall(report, &wall, &clock, &gauge);
    let Some(t) = traced.first() else {
        report.check("the traced run completes a traced pass", false);
        return;
    };
    report.check(
        "allocations per pass repeat exactly",
        traced.iter().all(|p| p.replan_allocs == t.replan_allocs),
    );
    report.layer("core.replans", t.replans as f64);
    report.layer(
        "core.replan_p50_ms",
        median(&tracer.named("replan").map(|s| s.ms()).collect::<Vec<_>>()),
    );
    report.layer("core.topo_replan_mean_ms", mean(&t.topo_replan_ms));
    report.layer("core.mpsp_solves", t.mpsp_solves as f64);
    report.layer("core.bisection_iters", t.bisection_iters as f64);
    report.layer("core.waves_crafted", t.waves_crafted as f64);
    report.layer(
        "core.levels_reused_share",
        t.levels_reused as f64 / t.levels_total.max(1) as f64,
    );
    report.layer(
        "core.placement_reused_share",
        t.placement_reused as f64 / t.replans.max(1) as f64,
    );
    report.layer(
        "core.allocs_per_replan",
        t.replan_allocs as f64 / t.replans.max(1) as f64,
    );
    report.layer("estimator.curve_fits", t.curve_fits as f64);
    report.layer(
        "estimator.hit_rate",
        t.cache_hits as f64 / (t.cache_hits + t.curve_fits).max(1) as f64,
    );
    report.layer("migrate.calls", t.migrate_calls as f64);
    report.layer("migrate.bytes", t.migrate_bytes as f64);
    report.layer("recovery.restore_bytes", t.restore_bytes as f64);
    report.layer("recovery.rematerialized", t.rematerialized as f64);
    report.layer("recovery.priced_ms", t.recovery_ms);
    report.layer("migrate.price_call_ms", mean(&t.price_ms));
    let in_layers: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| s.ms())
        .sum();
    let traced_wall: f64 = traced.iter().map(|p| p.wall_ms).sum();
    report.layer("trace.layer_share", in_layers / traced_wall);
    let traced_steps: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.step_ms.iter().copied())
        .collect();
    report.layer(
        "trace.overhead_pct",
        (mean(&traced_steps) / mean(&step_ms) - 1.0) * 100.0,
    );
}

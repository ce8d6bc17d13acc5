//! `fleet-tcp`: the service path alone. A `TcpIngress` with one worker on
//! 32 GPUs serves a seeded 48-tenant CLIP fleet whose plans are warm-cache
//! hits, so the wire, the ingress poll loop, the queue and coalescing
//! dominate. One generator thread drives one `TcpClient`, on a core of its
//! own with the ingress's threads on another: first an open loop at a fixed
//! rate (latency from each request's due time), then a closed loop keeping a
//! fixed window of distinct tenants outstanding.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use spindle_cluster::ClusterSpec;
use spindle_graph::ComputationGraph;
use spindle_service::{
    ApiCompletion, LocalClient, ServiceApi, ServiceConfig, SubmitError, TcpClient, TcpIngress,
};
use spindle_workloads::{ArrivalSchedule, TenantFleet};

use crate::alloc::AllocCount;
use crate::gauge::{Gauge, NOMINAL_MS};
use crate::stats::{gauged, mean, median, windowed, Outstanding, Pending};
use crate::trace::Tracer;
use crate::{Opts, Report, SetupClock};

const TENANTS: usize = 48;
const PHASES_PER_TENANT: usize = 4;
const MEAN_GAP_S: f64 = 30.0;
/// Open-loop offered rate, requests per second — about a tenth of the
/// closed loop's capacity.
const RATE_PER_S: f64 = 400.0;
/// Share of the run spent in the open loop; the closed loop takes the rest.
const OPEN_SHARE: f64 = 0.4;
/// Distinct tenants kept outstanding by the closed loop.
const OUTSTANDING: usize = 8;
/// Latency limit of one request, from its due time. Requests normally
/// complete within a few milliseconds; the limit leaves room for a stall of
/// the shared host itself, which can last tens of milliseconds.
const REQUEST_LIMIT: Duration = Duration::from_millis(100);
/// Requests per latency window: the window's p90 keeps 10 beyond it.
const WINDOW: usize = 100;
/// The closed loop's completions are counted per bin of this length.
/// Between bins it drains, reads the gauge, and now and then times the
/// set-up again.
const RATE_BIN: Duration = Duration::from_millis(100);
/// Gauge readings taken back to back, with nothing outstanding, before the
/// closed loop and between its bins.
const GAUGE_READS: usize = 3;
/// How long the generator sleeps before reading the gauge. The ingress's
/// poll loop spins for a while after its last request before it backs off
/// into sleeps of up to 2 ms, and a reading taken while it spins runs slow.
const GAUGE_SETTLE: Duration = Duration::from_millis(5);
/// How long to wait for stragglers after a phase.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_depth: 64,
        ..ServiceConfig::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Open,
    Closed,
}

/// Request latencies of one phase, split by whether the request was traced.
#[derive(Default)]
struct Latencies {
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
}

/// The generator: one client plus everything it measures.
struct Load {
    client: TcpClient,
    phase: Phase,
    outstanding: Outstanding,
    /// Event indices of accepted submissions, in order.
    accepted: Vec<usize>,
    final_fp: BTreeMap<u64, u64>,
    submitted: u64,
    refused: u64,
    errors: u64,
    misses: u64,
    completions: u64,
    /// Planned iteration time of every set-up completion.
    setup_makespan_ms: Vec<f64>,
    open: Latencies,
    closed: Latencies,
    // Open-loop breakdown.
    submit_ms: Vec<f64>,
    late_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    plan_ms: Vec<f64>,
    transport_ms: Vec<f64>,
    replans: u64,
    levels_reused: u64,
    levels_total: u64,
    placement_reused: u64,
    curve_fits: u64,
    cache_hits: u64,
}

impl Load {
    fn new(client: TcpClient) -> Self {
        Self {
            client,
            phase: Phase::Setup,
            outstanding: Outstanding::default(),
            accepted: Vec::new(),
            final_fp: BTreeMap::new(),
            submitted: 0,
            refused: 0,
            errors: 0,
            misses: 0,
            completions: 0,
            setup_makespan_ms: Vec::new(),
            open: Latencies::default(),
            closed: Latencies::default(),
            submit_ms: Vec::new(),
            late_ms: Vec::new(),
            queue_ms: Vec::new(),
            plan_ms: Vec::new(),
            transport_ms: Vec::new(),
            replans: 0,
            levels_reused: 0,
            levels_total: 0,
            placement_reused: 0,
            curve_fits: 0,
            cache_hits: 0,
        }
    }

    /// Submits event `idx`, due at `due`; `false` if it was not accepted.
    fn submit(
        &mut self,
        events: &[(u64, Arc<ComputationGraph>)],
        idx: usize,
        due: Instant,
        tracer: &mut Tracer,
    ) -> bool {
        let (tenant, graph) = &events[idx];
        let request = self.submitted;
        self.submitted += 1;
        let sent = Instant::now();
        let result = tracer.span("submit", request, || self.client.submit(*tenant, graph));
        if self.phase == Phase::Open {
            self.submit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            self.late_ms
                .push(sent.duration_since(due).as_secs_f64() * 1e3);
        }
        match result {
            Ok(()) => {
                let traced = tracer.enabled();
                self.outstanding
                    .push(*tenant, Pending { due, sent, traced });
                self.accepted.push(idx);
                true
            }
            Err(SubmitError::QueueFull { .. } | SubmitError::Throttled { .. }) => {
                self.refused += 1;
                false
            }
            Err(SubmitError::WorkerGone) => {
                self.errors += 1;
                false
            }
        }
    }

    /// Waits up to `timeout` for one completion and accounts for it.
    fn poll(&mut self, timeout: Duration, tracer: &mut Tracer) -> bool {
        let request = self.submitted;
        let Some(done) = tracer.span("poll_completion", request, || {
            self.client.poll_completion(timeout)
        }) else {
            return false;
        };
        self.complete(&done, Instant::now());
        true
    }

    fn complete(&mut self, done: &ApiCompletion, now: Instant) {
        self.completions += 1;
        let folded = self.outstanding.complete(done.tenant, done.coalesced);
        match &done.result {
            Ok(summary) => {
                self.final_fp.insert(done.tenant, summary.plan_fingerprint);
                match self.phase {
                    Phase::Setup => self
                        .setup_makespan_ms
                        .push(f64::from_bits(summary.makespan_bits) * 1e3),
                    Phase::Open => {
                        self.replans += 1;
                        self.levels_reused += u64::from(summary.levels_reused);
                        self.levels_total += u64::from(summary.levels_total);
                        self.placement_reused += u64::from(summary.placement_reused);
                        self.curve_fits += u64::from(summary.new_curve_fits);
                        self.cache_hits += u64::from(summary.cache_hits);
                    }
                    Phase::Closed => {}
                }
            }
            Err(_) => {
                // Every request the failed re-plan folded failed with it.
                self.errors += folded.len() as u64;
                return;
            }
        }
        let latencies = match self.phase {
            Phase::Setup => return,
            Phase::Open => &mut self.open,
            Phase::Closed => &mut self.closed,
        };
        for p in &folded {
            let latency = now.duration_since(p.due);
            if latency > REQUEST_LIMIT {
                self.misses += 1;
            }
            let ms = latency.as_secs_f64() * 1e3;
            if p.traced {
                &mut latencies.traced_ms
            } else {
                &mut latencies.plain_ms
            }
            .push(ms);
        }
        if let (Phase::Open, Some(oldest)) = (self.phase, folded.first()) {
            let service = done.queue_wait + done.plan_time;
            self.queue_ms.push(done.queue_wait.as_secs_f64() * 1e3);
            self.plan_ms.push(done.plan_time.as_secs_f64() * 1e3);
            self.transport_ms.push(
                now.duration_since(oldest.sent)
                    .saturating_sub(service)
                    .as_secs_f64()
                    * 1e3,
            );
        }
    }

    /// Polls until nothing is outstanding or `DRAIN_LIMIT` passes.
    fn drain(&mut self, tracer: &mut Tracer) {
        let until = Instant::now() + DRAIN_LIMIT;
        while !self.outstanding.is_empty() && Instant::now() < until {
            self.poll(Duration::from_millis(50), tracer);
        }
    }

    /// Waits for `due`, accounting for completions meanwhile. A socket read
    /// timeout overshoots by up to two 4 ms kernel ticks, so the wait reads
    /// the socket only while a completion is owed (its data ends the read
    /// early) and otherwise sleeps, which is precise to well under a
    /// millisecond.
    fn wait_until(&mut self, due: Instant, tracer: &mut Tracer) {
        loop {
            let now = Instant::now();
            if now >= due {
                return;
            }
            if self.outstanding.is_empty() {
                std::thread::sleep(due - now);
            } else {
                self.poll(due - now, tracer);
            }
        }
    }
}

struct Setup {
    cluster: ClusterSpec,
    events: Vec<(u64, Arc<ComputationGraph>)>,
    ingress: TcpIngress,
    load: Load,
}

fn setup(seed: u64) -> Setup {
    // Like `TenantFleet::clip_fleet`, but every tenant replays a schedule of
    // its own rather than one of a pool of 8. The work of a run is then an
    // average over 48 seeded schedules and depends less on the seed; seeds
    // do not share schedules.
    let pool: Vec<ArrivalSchedule> = (0..TENANTS as u64)
        .map(|i| {
            ArrivalSchedule::multitask_clip_arrivals(
                seed.wrapping_mul(TENANTS as u64).wrapping_add(i),
                PHASES_PER_TENANT,
                MEAN_GAP_S,
            )
        })
        .collect::<Result<_, _>>()
        .expect("the CLIP schedules build");
    let fleet = TenantFleet::from_pool("CLIP fleet", &pool, seed, TENANTS, MEAN_GAP_S);
    let events: Vec<(u64, Arc<ComputationGraph>)> = fleet
        .events()
        .iter()
        .map(|e| (e.tenant as u64, Arc::clone(&e.graph)))
        .collect();
    let cluster = ClusterSpec::homogeneous(4, 8);
    // The ingress's threads inherit the affinity of the thread that binds
    // it: bind on the service's core, then move the generator to its own.
    let cores = first_two_cores();
    if let Some((_, service_core)) = cores {
        pin_to(service_core);
    }
    let ingress = TcpIngress::bind("127.0.0.1:0", cluster.clone(), service_config())
        .expect("binding the loopback ingress");
    if let Some((generator_core, _)) = cores {
        pin_to(generator_core);
    }
    let client = TcpClient::connect(ingress.local_addr()).expect("connecting to the ingress");
    let mut load = Load::new(client);
    // Warm every tenant's caches with every graph it will be sent, each
    // tenant's in trace order. The tenants go side by side, each with one
    // request outstanding at a time, so none is coalesced away and the
    // set-up's time is mostly planning rather than waiting for round trips.
    let mut off = Tracer::new();
    let mut queues: BTreeMap<u64, VecDeque<usize>> = BTreeMap::new();
    for (idx, (tenant, _)) in events.iter().enumerate() {
        queues.entry(*tenant).or_default().push_back(idx);
    }
    loop {
        for (tenant, queue) in &mut queues {
            if !load.outstanding.contains(*tenant) {
                if let Some(idx) = queue.pop_front() {
                    load.submit(&events, idx, Instant::now(), &mut off);
                }
            }
        }
        if load.outstanding.is_empty() && queues.values().all(VecDeque::is_empty) {
            break;
        }
        load.poll(Duration::from_millis(100), &mut off);
    }
    Setup {
        cluster,
        events,
        ingress,
        load,
    }
}

/// Words of the CPU masks passed to the affinity calls (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The first two CPUs the process could run on when it first asked, if it
/// could run on two. The answer is kept: once the generator is pinned, its
/// own mask holds one CPU.
///
/// The generator and the ingress's acceptor and worker threads are three
/// busy threads on what is often a 2-core host. Left to the scheduler, where
/// they land changes from run to run, and with it the closed loop's latency:
/// five runs spread by 37 % raw, in two modes about 1.5 ms and 1.0 ms apart,
/// which no host-speed gauge can correct. With the generator on one core and
/// the service's threads on the other, six runs stayed in the faster mode
/// and spread by 9 % once scaled to the gauge.
fn first_two_cores() -> Option<(usize, usize)> {
    static CORES: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *CORES.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let mut cores = (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
        Some((cores.next()?, cores.next()?))
    })
}

/// Restricts the calling thread to `core`; threads it spawns later inherit
/// that.
fn pin_to(core: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[core / 64] = 1 << (core % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "pinning the generator thread to CPU {core}");
}

/// Replays the accepted submissions in process and returns each tenant's
/// final plan fingerprint.
fn local_replay(
    cluster: &ClusterSpec,
    events: &[(u64, Arc<ComputationGraph>)],
    accepted: &[usize],
) -> BTreeMap<u64, u64> {
    let mut client = LocalClient::start(cluster.clone(), service_config());
    let mut fps = BTreeMap::new();
    let record = |done: ApiCompletion, fps: &mut BTreeMap<u64, u64>| {
        if let Ok(summary) = done.result {
            fps.insert(done.tenant, summary.plan_fingerprint);
        }
    };
    for &idx in accepted {
        let (tenant, graph) = &events[idx];
        while client.submit(*tenant, graph).is_err() {
            if let Some(done) = client.poll_completion(Duration::from_millis(10)) {
                record(done, &mut fps);
            }
        }
        while let Some(done) = client.poll_completion(Duration::ZERO) {
            record(done, &mut fps);
        }
    }
    let (_, rest) = client.finish();
    for done in rest {
        record(done, &mut fps);
    }
    fps
}

pub fn run(opts: &Opts, tracer: &mut Tracer, report: &mut Report) {
    let mut gauge = Gauge::new(Duration::ZERO);
    let (mut clock, setup) = SetupClock::start(|| setup(opts.seed));
    let Setup {
        cluster,
        events,
        ingress,
        mut load,
    } = setup;
    // Set-up planned every event once, in each tenant's own order, so the
    // planned iteration times of those plans are deterministic.
    let planned_ms = mean(&load.setup_makespan_ms);
    let setup_submitted = load.submitted;
    let setup_errors = load.errors;

    // Open loop at a fixed rate; request `i` is due at `i / RATE_PER_S`. In
    // the traced run every other request is traced.
    let open_s = opts.seconds * OPEN_SHARE;
    let offered = (open_s * RATE_PER_S).floor() as usize;
    load.phase = Phase::Open;
    let allocs_before = AllocCount::now();
    let mut traced_wall = Duration::ZERO;
    let start = Instant::now();
    for i in 0..offered {
        let traced = opts.trace && i % 2 == 1;
        tracer.set_enabled(traced);
        let segment = Instant::now();
        let due = start + Duration::from_secs_f64(i as f64 / RATE_PER_S);
        load.wait_until(due, tracer);
        load.submit(&events, i % events.len(), due, tracer);
        if traced {
            traced_wall += segment.elapsed();
        }
    }
    tracer.set_enabled(false);
    load.drain(tracer);
    let open_allocs = allocs_before.until(AllocCount::now());
    let open_layer_ms = tracer.top_level_ms(&["submit", "poll_completion"]);
    let open_failed =
        load.refused + load.errors - setup_errors + load.misses + load.outstanding.len() as u64;

    // Closed loop: keep OUTSTANDING distinct tenants outstanding, each tenant
    // cycling through its own events. Latency runs from send to completion.
    load.phase = Phase::Closed;
    let mut by_tenant: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (idx, (tenant, _)) in events.iter().enumerate() {
        by_tenant.entry(*tenant).or_default().push(idx);
    }
    let tenants: Vec<u64> = by_tenant.keys().copied().collect();
    let mut cursor = vec![0usize; tenants.len()];
    let mut next = 0usize;
    let mut rates = Vec::new();
    let closed_budget = Duration::from_secs_f64(opts.seconds - open_s);
    let closed_start = Instant::now();
    let mut bin_start = closed_start;
    let mut bin_done = load.completions;
    let read_gauge = |gauge: &mut Gauge, done: usize| {
        std::thread::sleep(GAUGE_SETTLE);
        for _ in 0..GAUGE_READS {
            gauge.read(done);
        }
    };
    read_gauge(&mut gauge, 0);
    while closed_start.elapsed() < closed_budget {
        if bin_start.elapsed() >= RATE_BIN {
            let done = load.completions - bin_done;
            rates.push(done as f64 / bin_start.elapsed().as_secs_f64());
            // With nothing outstanding, read the gauge and now and then time
            // the set-up again.
            load.drain(tracer);
            read_gauge(&mut gauge, load.closed.plain_ms.len());
            clock.pause();
            bin_start = Instant::now();
            bin_done = load.completions;
        }
        while load.outstanding.len() < OUTSTANDING {
            let k = (0..tenants.len())
                .map(|k| (next + k) % tenants.len())
                .find(|&k| !load.outstanding.contains(tenants[k]))
                .expect("OUTSTANDING is below the tenant count");
            next = (k + 1) % tenants.len();
            let own = &by_tenant[&tenants[k]];
            let idx = own[cursor[k] % own.len()];
            cursor[k] += 1;
            tracer.set_enabled(opts.trace && load.submitted % 2 == 1);
            let accepted = load.submit(&events, idx, Instant::now(), tracer);
            tracer.set_enabled(false);
            if !accepted {
                break;
            }
        }
        load.poll(Duration::from_millis(100), tracer);
    }
    load.drain(tracer);
    let unanswered = load.outstanding.len() as u64;
    crate::report_setup(report, &clock, &gauge);

    // Outside the timed region: shut down, then replay in process.
    let (wire, rest) = load.client.finish();
    for done in rest {
        if let Ok(summary) = done.result {
            load.final_fp.insert(done.tenant, summary.plan_fingerprint);
        }
    }
    let service = ingress.shutdown();
    let replay = local_replay(&cluster, &events, &load.accepted);
    report.check(
        format!(
            "{} tenants' final TCP plans match an in-process replay",
            load.final_fp.len()
        ),
        load.final_fp.len() == TENANTS && load.final_fp == replay,
    );
    report.check("no re-plan failed", wire.errors == 0 && service.errors == 0);

    report.attempted = load.submitted - setup_submitted;
    report.failed = load.refused + load.errors - setup_errors + load.misses + unanswered;
    let wall = windowed(&load.closed.plain_ms, WINDOW);
    let closed = gauged(&load.closed.plain_ms, WINDOW, gauge.readings(), NOMINAL_MS);
    report.e2e("op_mean_scaled_ms", closed.mean);
    report.e2e("op_tail_scaled_ms", closed.tail);
    report.e2e("model_ms", planned_ms);
    report.e2e(
        "slo_ratio",
        (offered as u64).saturating_sub(open_failed) as f64 / offered as f64,
    );
    let open = windowed(&load.open.plain_ms, WINDOW);
    println!(
        "fleet-tcp: open loop {offered} requests at {RATE_PER_S}/s, median of {} windows: \
         mean {:.3} ms, p{} {:.3} ms from the due time; closed loop of {OUTSTANDING}: \
         {:.0} req/s, median of {} windows: mean {:.3} ms, p{} {:.3} ms (scaled to the gauge: \
         {:.3} ms, {:.3} ms); {} refused, {} over {} ms; planned iteration {planned_ms:.3} ms",
        open.windows,
        open.mean,
        open.tail_level * 100.0,
        open.tail,
        median(&rates),
        wall.windows,
        wall.mean,
        wall.tail_level * 100.0,
        wall.tail,
        closed.mean,
        closed.tail,
        load.refused,
        load.misses,
        REQUEST_LIMIT.as_millis()
    );

    if !opts.trace {
        return;
    }
    crate::report_wall(report, &wall, &clock, &gauge);
    let served = load.replans.max(1) as f64;
    report.layer("core.replans", load.replans as f64);
    report.layer(
        "core.levels_reused_share",
        load.levels_reused as f64 / load.levels_total.max(1) as f64,
    );
    report.layer(
        "core.placement_reused_share",
        load.placement_reused as f64 / served,
    );
    report.layer("estimator.curve_fits", load.curve_fits as f64);
    report.layer(
        "estimator.hit_rate",
        load.cache_hits as f64 / (load.cache_hits + load.curve_fits).max(1) as f64,
    );
    report.layer("service.requests", offered as f64);
    report.layer("service.submit_call_ms", mean(&load.submit_ms));
    report.layer("service.queue_wait_ms", mean(&load.queue_ms));
    report.layer("service.plan_ms", mean(&load.plan_ms));
    report.layer("service.transport_ms", mean(&load.transport_ms));
    report.layer(
        "service.coalescing_ratio",
        (load.open.plain_ms.len() + load.open.traced_ms.len()) as f64 / served,
    );
    report.layer("service.refused", load.refused as f64);
    report.layer(
        "service.allocs_per_request",
        open_allocs.allocs as f64 / offered as f64,
    );
    report.layer("service.capacity_rps", median(&rates));
    report.layer("loadgen.late_ms", mean(&load.late_ms));
    report.layer("loadgen.open_mean_ms", open.mean);
    report.layer("loadgen.open_tail_ms", open.tail);
    report.layer(
        "trace.layer_share",
        open_layer_ms / (traced_wall.as_secs_f64() * 1e3),
    );
    report.layer(
        "trace.overhead_pct",
        (mean(&load.closed.traced_ms) / mean(&load.closed.plain_ms) - 1.0) * 100.0,
    );
}

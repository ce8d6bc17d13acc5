//! Golden bit-identity pins for the event-driven simulator.
//!
//! Each case runs one Spindle plan under one simulator configuration and
//! compares the report against values recorded from the full-scan
//! simulator: the bit patterns of the iteration time and its stage
//! breakdown, the flow/sync/event counts, and an FNV-1a digest of the event
//! log. Any change to event ordering, float evaluation order or tie-breaking
//! shows up here as a changed bit, not as a tolerance drift.
//!
//! The plans come from `SpindleSession::plan`, so a planner or estimator
//! change moves these bits too. Each case therefore first checks that the
//! plan is the one the pins were recorded on (its wave count and a digest of
//! its waves) and fails with its own message if not: a simulator refactor
//! keeps every pin unedited; a deliberate planner, estimator or simulator
//! model change re-pins the affected values and says so in CHANGES.md.

use std::sync::Arc;

use spindle::cluster::{LinkId, NodeId};
use spindle::prelude::*;
use spindle::runtime::{
    BackgroundFlow, EventLog, FaultReport, FaultSpec, SimConfig, SimReport, Simulator, Straggler,
};
use spindle::workloads::hyperscale;

/// What a case pins, compared field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    total: u64,
    compute: u64,
    comm: u64,
    sync: u64,
    flows: usize,
    syncs: usize,
    events: usize,
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over every event's time bits and `Debug` rendering.
fn log_digest(log: &EventLog) -> u64 {
    log.entries().iter().fold(FNV_OFFSET, |h, e| {
        let h = fnv1a(h, &e.time_s.to_bits().to_le_bytes());
        fnv1a(h, format!("{:?}", e.kind).as_bytes())
    })
}

fn observe(report: &SimReport, fault: Option<&FaultReport>) -> Golden {
    let mut digest = log_digest(report.event_log());
    if let Some(f) = fault {
        digest = fnv1a(digest, format!("{f:?}").as_bytes());
    }
    Golden {
        total: report.total_s().to_bits(),
        compute: report.compute_s().to_bits(),
        comm: report.comm_s().to_bits(),
        sync: report.sync_s().to_bits(),
        flows: report.flows_executed(),
        syncs: report.syncs_executed(),
        events: report.event_log().len(),
        digest,
    }
}

/// The plan a case's pins were recorded on: wave count and FNV-1a digest of
/// the waves' `Debug` rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanPin {
    waves: usize,
    digest: u64,
}

fn plan_pin(plan: &ExecutionPlan) -> PlanPin {
    PlanPin {
        waves: plan.num_waves(),
        digest: fnv1a(FNV_OFFSET, format!("{:?}", plan.waves()).as_bytes()),
    }
}

struct Case {
    graph: Arc<ComputationGraph>,
    cluster: ClusterSpec,
    plan: Arc<ExecutionPlan>,
}

impl Case {
    fn new(graph: ComputationGraph, gpus: usize) -> Self {
        let cluster = ClusterSpec::homogeneous(gpus / 8, 8);
        let plan = Arc::new(SpindleSession::new(cluster.clone()).plan(&graph).unwrap());
        Self {
            graph: Arc::new(graph),
            cluster,
            plan,
        }
    }

    fn sim(&self, config: SimConfig) -> Simulator {
        Simulator::new(Arc::clone(&self.plan), &self.cluster)
            .with_graph(Arc::clone(&self.graph))
            .with_config(config)
    }

    /// Every pinned configuration, in a fixed order, with its observation.
    fn observations(&self) -> Vec<(&'static str, Golden)> {
        let jittered = SimConfig {
            seed: 1,
            compute_jitter: 0.02,
            ..SimConfig::contended()
        };
        let run = |config: SimConfig| {
            let report = self.sim(config).run_iteration().unwrap();
            observe(&report, None)
        };
        let last_node = NodeId(self.cluster.num_nodes() as u32 - 1);
        let background = vec![
            BackgroundFlow {
                nominal_s: 0.05,
                // Node 0's uplink twice: a duplicated link counts twice.
                footprint: vec![
                    LinkId::Uplink(NodeId(0)),
                    LinkId::Uplink(NodeId(0)),
                    LinkId::StorageLink(NodeId(0)),
                    LinkId::StorageSpine,
                ],
            },
            BackgroundFlow {
                nominal_s: 0.02,
                footprint: vec![
                    LinkId::IslandBus(last_node),
                    LinkId::Downlink(last_node),
                    LinkId::StorageSpine,
                ],
            },
        ];
        let contended = self.sim(jittered.clone()).run_iteration().unwrap();
        let fault = FaultSpec {
            at_s: contended.total_s() * 0.6,
            devices: vec![DeviceId(0), DeviceId(9)],
        };
        let (faulted, fault_report) = self
            .sim(jittered.clone())
            .run_iteration_with_fault(&fault)
            .unwrap();
        vec![
            ("contended", observe(&contended, None)),
            ("serialized", run(SimConfig::default())),
            (
                "straggler",
                run(SimConfig {
                    stragglers: vec![Straggler::persistent(DeviceId(3), 2.5)],
                    ..jittered.clone()
                }),
            ),
            (
                "background",
                run(SimConfig {
                    background_flows: background,
                    ..jittered
                }),
            ),
            ("fault", observe(&faulted, Some(&fault_report))),
        ]
    }
}

fn check(case: &Case, plan: PlanPin, pinned: &[(&str, Golden)]) {
    let got = plan_pin(&case.plan);
    assert_eq!(
        got, plan,
        "the planner produced a different plan than the one these pins were \
         recorded on, so the simulator bits below cannot be compared; a \
         deliberate planner or estimator change re-pins this case"
    );
    let observed = case.observations();
    let mismatches: Vec<String> = observed
        .iter()
        .zip(pinned)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| format!("{name}: got {got:?}, want {want:?}"))
        .collect();
    assert_eq!(observed.len(), pinned.len());
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

const HYPERSCALE_16_PLAN: PlanPin = PlanPin {
    waves: 22,
    digest: 14544631514044581313,
};

const HYPERSCALE_16_ON_128: [(&str, Golden); 5] = [
    (
        "contended",
        Golden {
            total: 4589870820542518301,
            compute: 4586613320117273151,
            comm: 4571325813875475425,
            sync: 4582408874832431870,
            flows: 71,
            syncs: 62,
            events: 559,
            digest: 9460031993262474935,
        },
    ),
    (
        "serialized",
        Golden {
            total: 4592308848536421340,
            compute: 4586607198836675122,
            comm: 4572903531807549286,
            sync: 4588221610274693274,
            flows: 71,
            syncs: 62,
            events: 559,
            digest: 18040678247056262867,
        },
    ),
    (
        "straggler",
        Golden {
            total: 4593462159029479007,
            compute: 4591482008690864994,
            comm: 4571325813875475406,
            sync: 4582408874832431872,
            flows: 71,
            syncs: 62,
            events: 559,
            digest: 9183666090044757267,
        },
    ),
    (
        "background",
        Golden {
            total: 4590706488356646464,
            compute: 4586613320117273151,
            comm: 4573683346014344887,
            sync: 4584913291858696042,
            flows: 71,
            syncs: 62,
            events: 559,
            digest: 7837735703426822150,
        },
    ),
    (
        "fault",
        Golden {
            total: 4586408500891018479,
            compute: 4585843990694964095,
            comm: 4571166103722118017,
            sync: 0,
            flows: 61,
            syncs: 0,
            events: 376,
            digest: 13957802446146721388,
        },
    ),
];

const CLIP_10_PLAN: PlanPin = PlanPin {
    waves: 16,
    digest: 9069975130745385878,
};

const CLIP_10_ON_32: [(&str, Golden); 5] = [
    (
        "contended",
        Golden {
            total: 4591589533914949187,
            compute: 4588390434924557077,
            comm: 4567664680387933522,
            sync: 4585436542534248988,
            flows: 74,
            syncs: 46,
            events: 589,
            digest: 9077134068547526917,
        },
    ),
    (
        "serialized",
        Golden {
            total: 4591952939889393229,
            compute: 4588320851527449606,
            comm: 4571999046774239376,
            sync: 4585909200919026306,
            flows: 74,
            syncs: 46,
            events: 589,
            digest: 17129467902813838309,
        },
    ),
    (
        "straggler",
        Golden {
            total: 4594789160530389545,
            compute: 4593096394835470235,
            comm: 4567664680387933480,
            sync: 4585436542534248988,
            flows: 74,
            syncs: 46,
            events: 589,
            digest: 16058785049272444283,
        },
    ),
    (
        "background",
        Golden {
            total: 4592962282438534642,
            compute: 4588390434924557077,
            comm: 4570663177713236710,
            sync: 4587994633498588449,
            flows: 74,
            syncs: 46,
            events: 589,
            digest: 10464470946471309376,
        },
    ),
    (
        "fault",
        Golden {
            total: 4588470956937935542,
            compute: 4588147608104996780,
            comm: 4567320003853332642,
            sync: 0,
            flows: 54,
            syncs: 0,
            events: 414,
            digest: 11537082255840485991,
        },
    ),
];

#[test]
fn hyperscale_16_tasks_on_128_gpus_is_bit_identical() {
    check(
        &Case::new(hyperscale(16).unwrap(), 128),
        HYPERSCALE_16_PLAN,
        &HYPERSCALE_16_ON_128,
    );
}

#[test]
fn multitask_clip_10_tasks_on_32_gpus_is_bit_identical() {
    check(
        &Case::new(multitask_clip(10).unwrap(), 32),
        CLIP_10_PLAN,
        &CLIP_10_ON_32,
    );
}

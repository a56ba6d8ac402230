//! The three benchmark workloads: inputs generated from the seed, and
//! the set-up that turns them into a ready-to-run [`Simulation`].
//!
//! Every input (LSP choice per flow, outage links, simulator seed) is a
//! pure function of `(workload, seed)`, so the same seed rebuilds the
//! same run and the same serialized report.

use crate::trace::Tracer;
use mpls_control::{ControlPlane, LinkSpec, LspRequest, RouterRole, Topology};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_ldp::LdpConfig;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{FaultPlan, QueueDiscipline, RouterKind, ScaleFamily, ScaleSpec, Simulation};
use mpls_router::SwTimingModel;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8×8 heterogeneous-delay grid, embedded (cycle-stepped) routers.
    EmbeddedGrid,
    /// k=8 fat tree, 64k tunneled LSPs, hash FIB + flow cache.
    FabricFast,
    /// 6×6 grid under distributed LDP with staggered link outages.
    LdpChurn,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::EmbeddedGrid,
        Workload::FabricFast,
        Workload::LdpChurn,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbeddedGrid => "embedded-grid",
            Workload::FabricFast => "fabric-fast",
            Workload::LdpChurn => "ldp-churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// splitmix64: all input sampling derives from it.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn addr(a: u32, b: u32, c: u32, d: u32) -> u32 {
    (a << 24) | (b << 16) | (c << 8) | d
}

// ---------------------------------------------------------------------
// embedded-grid
// ---------------------------------------------------------------------

const GRID_SIDE: u32 = 8;
const GRID_CORNERS: [u32; 4] = [
    0,
    GRID_SIDE - 1,
    (GRID_SIDE - 1) * GRID_SIDE,
    GRID_SIDE * GRID_SIDE - 1,
];
/// LSPs per corner pair: the depth of the info base the modifier searches.
const GRID_LSPS_PER_PAIR: u32 = 64;
const GRID_FLOWS_PER_CORNER: u32 = 16;
/// Emission window of the grid flows.
const GRID_RUN_NS: u64 = 4_000_000;

/// Pair `i`, LSP `k` → `10.(100 + 16i).k.0/24`.
fn grid_prefix(pair: usize, k: u32) -> Prefix {
    Prefix::new(addr(10, 100 + 16 * pair as u32, k, 0), 24)
}

/// The EXT-10 heterogeneous-delay 8×8 grid (per-link salted delays, 8x
/// stretch on the row-2/3 and row-5/6 boundaries), with
/// [`GRID_LSPS_PER_PAIR`] LSPs from each corner to the opposite one.
pub fn grid_control_plane() -> ControlPlane {
    let mut topo = Topology::new();
    for id in 0..GRID_SIDE * GRID_SIDE {
        let role = if GRID_CORNERS.contains(&id) {
            RouterRole::Ler
        } else {
            RouterRole::Lsr
        };
        topo.add_node(id, role, format!("grid-{id}"));
    }
    for r in 0..GRID_SIDE {
        for c in 0..GRID_SIDE {
            let id = r * GRID_SIDE + c;
            let right = (c + 1 < GRID_SIDE).then(|| (id + 1, false));
            let down = (r + 1 < GRID_SIDE).then(|| (id + GRID_SIDE, true));
            for (neighbor, vertical) in [right, down].into_iter().flatten() {
                let mut delay_us = 5 + (id as u64 * 31 + neighbor as u64 * 7) % 20;
                if vertical && (r == 2 || r == 5) {
                    delay_us *= 8;
                }
                topo.add_link(LinkSpec {
                    a: id,
                    b: neighbor,
                    cost: 1,
                    bandwidth_bps: 1_000_000_000,
                    delay_ns: delay_us * 1_000,
                });
            }
        }
    }
    let mut cp = ControlPlane::new(topo);
    for (i, &corner) in GRID_CORNERS.iter().enumerate() {
        let dst = GRID_CORNERS[3 - i];
        for k in 0..GRID_LSPS_PER_PAIR {
            cp.attach_prefix(dst, grid_prefix(i, k));
            cp.establish_lsp(LspRequest::best_effort(corner, dst, grid_prefix(i, k)))
                .expect("grid LSP signals");
        }
    }
    cp
}

/// 16 Poisson flows per corner, spread evenly over the depth of their
/// pair's LSPs (every fourth LSP). The seed deals the depths out to the
/// flows, so every seed searches the same depths.
fn grid_flows(seed: u64) -> Vec<FlowSpec> {
    let mut flows = Vec::new();
    for (i, &corner) in GRID_CORNERS.iter().enumerate() {
        let mut depth: Vec<u32> = (0..GRID_FLOWS_PER_CORNER).collect();
        for j in (1..depth.len()).rev() {
            let r = mix(seed ^ ((i as u64) << 40) ^ j as u64);
            depth.swap(j, (r % (j as u64 + 1)) as usize);
        }
        for j in 0..GRID_FLOWS_PER_CORNER {
            let r = mix(seed ^ ((i as u64) << 32) ^ j as u64);
            let k = 4 * depth[j as usize] + 3;
            flows.push(FlowSpec {
                name: format!("c{i}-f{j}"),
                ingress: corner,
                src_addr: addr(10, 0, i as u32, j + 1),
                dst_addr: addr(10, 100 + 16 * i as u32, k, 1 + ((r >> 8) % 250) as u32),
                payload_bytes: 500,
                precedence: 0,
                pattern: TrafficPattern::Poisson {
                    mean_interval_ns: 256_000,
                },
                start_ns: 0,
                stop_ns: GRID_RUN_NS,
                police: None,
            });
        }
    }
    flows
}

// ---------------------------------------------------------------------
// fabric-fast
// ---------------------------------------------------------------------

const FABRIC_RUN_NS: u64 = 20_000_000;

/// The EXT-15 quick fat tree: k=8 with 6 LERs per edge (272 nodes),
/// 64k LSPs in tunnels, 256 CBR flows.
fn fabric_spec(seed: u64) -> ScaleSpec {
    ScaleSpec {
        family: ScaleFamily::FatTree {
            k: 8,
            lers_per_edge: 6,
        },
        lsps_total: 64_000,
        tunnel_strides: 4,
        flows: 256,
        payload_bytes: 256,
        flow_interval_ns: 100_000,
        flow_start_ns: 0,
        flow_stop_ns: FABRIC_RUN_NS,
        bandwidth_bps: 10_000_000_000,
        delay_ns: 10_000,
        seed: mix(seed ^ 0xFAB),
    }
}

// ---------------------------------------------------------------------
// ldp-churn
// ---------------------------------------------------------------------

const LDP_SIDE: u32 = 6;
const LDP_LERS: [u32; 4] = [
    0,
    LDP_SIDE - 1,
    (LDP_SIDE - 1) * LDP_SIDE,
    LDP_SIDE * LDP_SIDE - 1,
];
const LDP_FLOWS_PER_LER: u32 = 8;
/// Flows start once LDP has converged, so bring-up blackholing does not
/// dominate the data.
const LDP_FLOW_START_NS: u64 = 10_000_000;
const LDP_RUN_NS: u64 = 60_000_000;
const LDP_OUTAGES: u64 = 8;
const LDP_FIRST_OUTAGE_NS: u64 = 14_000_000;
const LDP_OUTAGE_EVERY_NS: u64 = 5_000_000;
const LDP_OUTAGE_LEN_NS: u64 = 3_000_000;

fn ldp_prefix(ler: usize) -> Prefix {
    Prefix::new(addr(192, 168, ler as u32 + 1, 0), 24)
}

/// 6×6 grid with mixed link costs; an LSP between every ordered pair of
/// the four corner LERs (their FECs are re-originated by LDP).
fn ldp_control_plane() -> ControlPlane {
    let last = LDP_SIDE * LDP_SIDE - 1;
    let mut topo = Topology::new();
    for id in 0..=last {
        let role = if LDP_LERS.contains(&id) {
            RouterRole::Ler
        } else {
            RouterRole::Lsr
        };
        topo.add_node(id, role, format!("n{id}"));
    }
    for r in 0..LDP_SIDE {
        for c in 0..LDP_SIDE {
            let id = r * LDP_SIDE + c;
            let right = (c + 1 < LDP_SIDE).then(|| id + 1);
            let down = (r + 1 < LDP_SIDE).then(|| id + LDP_SIDE);
            for next in [right, down].into_iter().flatten() {
                topo.add_link(LinkSpec {
                    a: id,
                    b: next,
                    cost: 1 + ((id as u64 * 13 + next as u64 * 5) % 3) as u32,
                    bandwidth_bps: 1_000_000_000,
                    delay_ns: 20_000,
                });
            }
        }
    }
    let mut cp = ControlPlane::new(topo);
    for (i, &ler) in LDP_LERS.iter().enumerate() {
        cp.attach_prefix(ler, ldp_prefix(i));
    }
    for (i, &ingress) in LDP_LERS.iter().enumerate() {
        for (e, &egress) in LDP_LERS.iter().enumerate() {
            if i != e {
                cp.establish_lsp(LspRequest::best_effort(ingress, egress, ldp_prefix(e)))
                    .expect("ldp grid LSP signals");
            }
        }
    }
    cp
}

/// 8 Poisson flows per LER, spread over the other three LERs.
fn ldp_flows(seed: u64) -> Vec<FlowSpec> {
    let mut flows = Vec::new();
    for (i, &ler) in LDP_LERS.iter().enumerate() {
        for j in 0..LDP_FLOWS_PER_LER {
            let peer = (i + 1 + j as usize % 3) % 4;
            let r = mix(seed ^ 0x1D9 ^ ((i as u64) << 32) ^ j as u64);
            flows.push(FlowSpec {
                name: format!("l{i}-f{j}"),
                ingress: ler,
                src_addr: addr(192, 168, i as u32 + 1, j + 10),
                dst_addr: addr(192, 168, peer as u32 + 1, 1 + (r % 250) as u32),
                payload_bytes: 400,
                precedence: 0,
                pattern: TrafficPattern::Poisson {
                    mean_interval_ns: 40_000,
                },
                start_ns: LDP_FLOW_START_NS,
                stop_ns: LDP_RUN_NS,
                police: None,
            });
        }
    }
    flows
}

/// Eight staggered, non-overlapping outages of eight links spread over
/// the grid (every seventh link). The seed deals out the order, so every
/// seed cuts the same links and does comparable reconvergence work.
fn ldp_fault_plan(cp: &ControlPlane, seed: u64) -> FaultPlan {
    let links = cp.topology().links().len() as u64;
    let mut order: Vec<u64> = (0..LDP_OUTAGES).map(|m| (7 * m + 3) % links).collect();
    for j in (1..order.len()).rev() {
        let r = mix(seed ^ 0xFA17 ^ j as u64);
        order.swap(j, (r % (j as u64 + 1)) as usize);
    }
    let mut plan = FaultPlan::default();
    for (m, &link) in order.iter().enumerate() {
        let down = LDP_FIRST_OUTAGE_NS + m as u64 * LDP_OUTAGE_EVERY_NS;
        plan.outage(link as u32, down, down + LDP_OUTAGE_LEN_NS);
    }
    plan
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// Everything a set-up produces: the simulation about to run, plus what
/// the correctness check and the per-layer replay need.
pub struct Prepared {
    /// The simulation, ready for `run`.
    pub sim: Simulation,
    /// Run horizon (ns).
    pub horizon_ns: u64,
    /// The signaled control plane the routers were programmed from.
    pub cp: ControlPlane,
    /// The flows attached to the run.
    pub flows: Vec<FlowSpec>,
    /// Router model of every node.
    pub kind: RouterKind,
}

/// The router model a workload runs.
fn router_kind(w: Workload) -> RouterKind {
    match w {
        Workload::EmbeddedGrid => RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        Workload::FabricFast | Workload::LdpChurn => RouterKind::SoftwareFast {
            timing: SwTimingModel::default(),
            cache: true,
        },
    }
}

/// Builds the workload from scratch: topology and signaling, the
/// simulation, its flows, LDP and the fault plan. `with_flows = false`
/// leaves the traffic out (the control-plane-only run of the ledger).
/// Each phase is a span on `tr`.
pub fn prepare(
    w: Workload,
    seed: u64,
    shards: usize,
    with_flows: bool,
    tr: &mut Tracer,
) -> Prepared {
    let kind = router_kind(w);
    let sim_seed = mix(seed ^ 0x5EED);
    let queue = QueueDiscipline::Fifo { capacity: 64 };
    let (cp, flows, horizon_ns) = match w {
        Workload::EmbeddedGrid => {
            let s = tr.begin("control.signal");
            let cp = grid_control_plane();
            tr.end(s);
            (cp, grid_flows(seed), GRID_RUN_NS + 20_000_000)
        }
        Workload::FabricFast => {
            let s = tr.begin("control.signal");
            let wl = fabric_spec(seed)
                .build()
                .expect("fat-tree workload signals");
            tr.end(s);
            (wl.cp, wl.flows, FABRIC_RUN_NS + 5_000_000)
        }
        Workload::LdpChurn => {
            let s = tr.begin("control.signal");
            let cp = ldp_control_plane();
            tr.end(s);
            (cp, ldp_flows(seed), LDP_RUN_NS + 20_000_000)
        }
    };
    let s = tr.begin("net.build");
    let mut sim = Simulation::build(&cp, kind, queue, sim_seed);
    tr.end(s);
    sim.set_shards(shards);
    if with_flows {
        let s = tr.begin("net.add_flow");
        for f in &flows {
            sim.add_flow(f.clone());
        }
        tr.end(s);
    }
    if w == Workload::LdpChurn {
        let s = tr.begin("ldp.enable");
        sim.enable_ldp(LdpConfig::default());
        sim.set_fault_plan(ldp_fault_plan(&cp, seed));
        tr.end(s);
    }
    Prepared {
        sim,
        horizon_ns,
        cp,
        flows: if with_flows { flows } else { Vec::new() },
        kind,
    }
}

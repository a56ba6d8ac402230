//! Segment routing end to end: source-routed delivery, metadata LSEs,
//! coordinator-side repair, and ECMP determinism.
//!
//! SR inverts the LDP state model: transit nodes carry only their own
//! node-SID binding (CONTINUE/NEXT), and the whole route rides in the
//! packet as a stack of SIDs assembled at the ingress. These tests
//! check the consequences at the system level:
//!
//! - a source-routed flow delivers end to end, with the entropy pair
//!   and (optionally) the MNA sub-stack riding below the SIDs and
//!   stripped before IP delivery;
//! - cutting a link on the compiled route blackholes only for the
//!   detection window — repair is a coordinator recompile, not a
//!   signaling wave — and the fault record closes;
//! - when loose-hop compression leaves multi-hop segments across an
//!   equal-cost fabric, transit ECMP keyed by the RFC 6790 entropy
//!   label picks byte-identical paths at every shard count: the
//!   entropy label is the *only* hash input, so no per-shard state can
//!   leak into path choice.

use mpls_control::{ControlPlane, LspRequest, Topology};
use mpls_dataplane::ftn::Prefix;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{
    ControlMode, FaultPlan, QueueDiscipline, RestorationPolicy, RouterKind, Simulation,
};
use mpls_packet::ipv4::parse_addr;
use mpls_router::SwTimingModel;
use mpls_sr::SrConfig;
use proptest::prelude::*;

fn flow(name: &str, ingress: u32, src: &str, dst: &str, stop_ns: u64) -> FlowSpec {
    FlowSpec {
        name: name.into(),
        ingress,
        src_addr: parse_addr(src).unwrap(),
        dst_addr: parse_addr(dst).unwrap(),
        payload_bytes: 256,
        precedence: 0,
        pattern: TrafficPattern::Cbr {
            interval_ns: 1_000_000,
        },
        start_ns: 0,
        stop_ns,
        police: None,
    }
}

/// Figure-1 plane with one LSP 0 -> 1 whose FEC is 192.168.1.0/24.
fn figure1_plane() -> ControlPlane {
    let mut cp = ControlPlane::new(Topology::figure1_example());
    cp.establish_lsp(LspRequest::best_effort(
        0,
        1,
        Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
    ))
    .expect("LSP signals");
    cp
}

fn build_sr(cp: &ControlPlane, cfg: SrConfig, seed: u64) -> Simulation {
    let mut sim = Simulation::build(
        cp,
        RouterKind::SoftwareHash {
            timing: SwTimingModel::default(),
        },
        QueueDiscipline::Fifo { capacity: 64 },
        seed,
    );
    sim.enable_sr(cfg);
    sim
}

/// Fault-free delivery over a strict source route. The northern path
/// 0 -> 2 -> 3 -> 1 needs three node SIDs; with the default entropy
/// config the ingress pushes SIDs + ELI + EL = 5 entries, all popped
/// or stripped before the packet leaves node 1 as plain IP.
#[test]
fn source_route_delivers_and_strips_metadata() {
    let cp = figure1_plane();
    let mut sim = build_sr(&cp, SrConfig::default(), 7);
    sim.add_flow(flow("app", 0, "10.0.0.1", "192.168.1.5", 20_000_000));
    let report = sim.run(1_000_000_000);

    assert_eq!(report.control.mode, ControlMode::Sr);
    let s = report.flow("app").unwrap();
    assert!(s.sent > 0);
    assert_eq!(s.delivered, s.sent, "strict source route must be lossless");

    let ingress = &report.routers[&0];
    assert_eq!(ingress.peak_stack_depth, 5, "3 SIDs + ELI + EL");
    assert_eq!(ingress.rld_violations, 0);
    // Strict per-hop SIDs pin every segment to one link: ECMP never
    // engages even though the entropy pair is present.
    let ecmp: u64 = report.routers.values().map(|r| r.ecmp_decisions).sum();
    assert_eq!(ecmp, 0, "strict stacks leave no ECMP choice");
}

/// The MNA sub-stack (bSPL + opcode LSE + ancillary LSE) rides below
/// the SIDs without disturbing delivery, and deepens the stack by
/// exactly its three entries.
#[test]
fn mna_substack_is_transparent_to_delivery() {
    let cp = figure1_plane();
    let cfg = SrConfig {
        mna: true,
        ..SrConfig::default()
    };
    let mut sim = build_sr(&cp, cfg, 7);
    sim.add_flow(flow("app", 0, "10.0.0.1", "192.168.1.5", 20_000_000));
    let report = sim.run(1_000_000_000);

    let s = report.flow("app").unwrap();
    assert_eq!(s.delivered, s.sent);
    assert_eq!(
        report.routers[&0].peak_stack_depth, 8,
        "3 SIDs + 3 MNA + ELI + EL"
    );
}

/// An RLD programmed shallower than the entropy pair's position makes
/// the pair unreadable: forwarding falls back to the first equal-cost
/// next hop and counts an RLD violation instead of hashing. Delivery
/// must not suffer — degraded load balancing, not loss.
#[test]
fn shallow_rld_counts_violations_not_losses() {
    let cp = fat_tree_plane();
    let cfg = SrConfig {
        max_push_depth: 3,
        rld: 2,
        ..SrConfig::default()
    };
    let mut sim = build_sr(&cp, cfg, 11);
    sim.add_flow(flow("app", 20, "10.0.0.1", "192.168.7.5", 20_000_000));
    let report = sim.run(1_000_000_000);

    let s = report.flow("app").unwrap();
    assert_eq!(s.delivered, s.sent);
    let violations: u64 = report.routers.values().map(|r| r.rld_violations).sum();
    let ecmp: u64 = report.routers.values().map(|r| r.ecmp_decisions).sum();
    assert!(violations > 0, "rld=2 cannot reach the entropy pair");
    assert_eq!(ecmp, 0, "unreadable entropy must disable hashing");
}

/// Cutting the northern link mid-run: stale source routes blackhole
/// until the coordinator detects the fault, recompiles, and downloads
/// fresh configs — then traffic flows again via the southern path. The
/// outage closes with a restored timestamp and packet conservation
/// holds (everything sent is delivered or charged to the dead link).
#[test]
fn link_failure_recompiles_and_restores() {
    let cp = figure1_plane();
    let link = cp.topology().link_between(2, 3).unwrap();
    let mut sim = build_sr(&cp, SrConfig::default(), 7);
    let mut plan = FaultPlan::new(RestorationPolicy::default());
    plan.outage(link, 5_000_000, 40_000_000);
    sim.set_fault_plan(plan);
    sim.add_flow(flow("app", 0, "10.0.0.1", "192.168.1.5", 60_000_000));
    let report = sim.run(1_000_000_000);

    assert_eq!(report.faults.len(), 1);
    let rec = &report.faults[0];
    assert!(rec.detected_ns.is_some(), "fault must be detected");
    assert!(rec.restored_ns.is_some(), "recompile must restore service");

    let s = report.flow("app").unwrap();
    assert!(s.link_dropped > 0, "detection window must blackhole");
    assert!(
        s.delivered > s.sent / 2,
        "most packets ride the recompiled route ({}/{})",
        s.delivered,
        s.sent
    );
    assert_eq!(s.delivered + s.link_dropped, s.sent, "conservation");
}

/// A 4-ary fat tree with LERs under edge 0 (pod 0) and edge 7 (pod 3):
/// four equal-cost switch paths between them. One LSP each way.
fn fat_tree_plane() -> ControlPlane {
    let topo = Topology::fat_tree(4, 1, 1_000_000_000, 10_000);
    let (a, b) = (20, 27); // LERs, edge-major after 20 switches
    let mut cp = ControlPlane::new(topo);
    cp.attach_prefix(b, Prefix::new(parse_addr("192.168.7.0").unwrap(), 24));
    cp.attach_prefix(a, Prefix::new(parse_addr("10.1.0.0").unwrap(), 16));
    cp.establish_lsp(LspRequest::best_effort(
        a,
        b,
        Prefix::new(parse_addr("192.168.7.0").unwrap(), 24),
    ))
    .expect("forward LSP");
    cp.establish_lsp(LspRequest::best_effort(
        b,
        a,
        Prefix::new(parse_addr("10.1.0.0").unwrap(), 16),
    ))
    .expect("reverse LSP");
    cp
}

/// Loose-hop compression across the fat tree engages transit ECMP, and
/// different (src, dst) pairs spread across the equal-cost fan-out.
#[test]
fn loose_hops_hash_flows_across_the_fabric() {
    let cp = fat_tree_plane();
    let cfg = SrConfig {
        max_push_depth: 3,
        ..SrConfig::default()
    };
    let mut sim = build_sr(&cp, cfg, 11);
    for i in 0..8 {
        sim.add_flow(flow(
            &format!("f{i}"),
            20,
            &format!("10.1.0.{}", i + 1),
            &format!("192.168.7.{}", i + 1),
            20_000_000,
        ));
    }
    let report = sim.run(1_000_000_000);

    for i in 0..8 {
        let s = report.flow(&format!("f{i}")).unwrap();
        assert_eq!(s.delivered, s.sent, "flow f{i} must be lossless");
    }
    let ecmp: u64 = report.routers.values().map(|r| r.ecmp_decisions).sum();
    assert!(ecmp > 0, "loose hops across a Clos must exercise ECMP");
    // The hash actually spreads: more than one core switch forwarded.
    let busy_cores = (0..4u32)
        .filter(|c| report.routers[c].forwarded > 0)
        .count();
    assert!(busy_cores > 1, "entropy hashing must use several cores");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// ECMP path choice is a pure function of the entropy label: the
    /// serialized report — flow stats, per-router counters, telemetry —
    /// is byte-identical across shard counts {1, 2, 4}. Any per-shard
    /// RNG or wall-clock leakage into the hash would split these bytes
    /// apart.
    #[test]
    fn ecmp_choice_is_shard_and_engine_invariant(
        seed in 0u64..10_000,
        nflows in 2usize..6,
        addr_salt in 0u8..200,
    ) {
        let cp = fat_tree_plane();
        let cfg = SrConfig { max_push_depth: 3, ..SrConfig::default() };
        let run = |shards: usize| {
            let mut sim = build_sr(&cp, cfg, seed);
            sim.set_shards(shards);
            for i in 0..nflows {
                let o = addr_salt as usize + i;
                sim.add_flow(flow(
                    &format!("f{i}"),
                    20,
                    &format!("10.1.0.{o}"),
                    &format!("192.168.7.{o}"),
                    10_000_000,
                ));
            }
            let report = sim.run(500_000_000);
            let ecmp: u64 = report.routers.values().map(|r| r.ecmp_decisions).sum();
            (serde_json::to_string(&report).expect("report serializes"), ecmp)
        };
        let (baseline, ecmp) = run(1);
        prop_assert!(ecmp > 0, "scenario must actually exercise ECMP");
        for shards in [1usize, 2, 4] {
            let (json, _) = run(shards);
            prop_assert_eq!(&json, &baseline, "{} shards diverged", shards);
        }
    }
}

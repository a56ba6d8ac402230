//! LDP convergence against the centralized fixed point.
//!
//! The distributed control plane knows nothing the wire didn't tell it,
//! yet on a fault-free network it must end up with the same forwarding
//! fixed point the omniscient solver computes before t=0: for every
//! (ingress, FEC) pair, tracing a packet through the converged LDP
//! tables reaches the same egress at the same total link cost as
//! tracing it through the centralized tables. Labels are *expected* to
//! differ (each plane allocates from its own space) — the comparison is
//! semantic, not syntactic.
//!
//! A second group exercises the failure path: cutting a link mid-run
//! must produce a finite detection delay (session hold-timer expiry), a
//! finite reconvergence (withdraw wave, then reroute), restored
//! delivery, and loss accounting that still conserves every packet.
//! Finally, the whole protocol must be shard-invariant: control PDUs
//! are ordinary coordinator events, so the serialized report is
//! byte-identical at any shard count.

use mpls_control::{
    ControlPlane, Hop, LinkSpec, LspRequest, NodeConfig, NodeId, RouterRole, Topology,
};
use mpls_core::ClockSpec;
use mpls_dataplane::ftn::Prefix;
use mpls_dataplane::LabelOp;
use mpls_ldp::LdpConfig;
use mpls_net::traffic::{FlowSpec, TrafficPattern};
use mpls_net::{
    ControlMode, FaultPlan, QueueDiscipline, RouterKind, SimReport, Simulation, TelemetryConfig,
};
use mpls_packet::ipv4::parse_addr;
use mpls_packet::Label;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A `rows x cols` grid with LERs in the opposite corners, a prefix
/// attached behind each LER, one LSP each way, and link costs varied by
/// `cost_salt` so shortest paths are not all trivially equal.
fn grid_plane(rows: u32, cols: u32, cost_salt: u64) -> ControlPlane {
    let last = rows * cols - 1;
    let mut topo = Topology::new();
    for id in 0..=last {
        let role = if id == 0 || id == last {
            RouterRole::Ler
        } else {
            RouterRole::Lsr
        };
        topo.add_node(id, role, format!("n{id}"));
    }
    let mut add = |a: u32, b: u32| {
        topo.add_link(LinkSpec {
            a,
            b,
            cost: 1 + ((a as u64 * 13 + b as u64 * 5 + cost_salt) % 3) as u32,
            bandwidth_bps: 200_000_000,
            delay_ns: 20_000,
        });
    };
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                add(id, id + 1);
            }
            if r + 1 < rows {
                add(id, id + cols);
            }
        }
    }
    let mut cp = ControlPlane::new(topo);
    cp.attach_prefix(last, Prefix::new(parse_addr("192.168.1.0").unwrap(), 24));
    cp.attach_prefix(0, Prefix::new(parse_addr("10.1.0.0").unwrap(), 16));
    cp.establish_lsp(LspRequest::best_effort(
        0,
        last,
        Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
    ))
    .expect("forward LSP");
    cp.establish_lsp(LspRequest::best_effort(
        last,
        0,
        Prefix::new(parse_addr("10.1.0.0").unwrap(), 16),
    ))
    .expect("reverse LSP");
    cp
}

fn build_ldp(cp: &ControlPlane, seed: u64) -> Simulation {
    let mut sim = Simulation::build(
        cp,
        RouterKind::Embedded {
            clock: ClockSpec::STRATIX_50MHZ,
        },
        QueueDiscipline::Fifo { capacity: 32 },
        seed,
    );
    sim.enable_ldp(LdpConfig::default());
    sim
}

/// Traces an unlabeled packet for `dst` from `ingress` through per-node
/// forwarding tables: FEC classification pushes, level-2 bindings swap
/// or pop, the next-hop table steers. Returns the delivering node and
/// the total link cost of the walk, or `None` when the packet would be
/// dropped. Panics on a walk longer than the node count (a loop).
fn trace(
    configs: &BTreeMap<NodeId, NodeConfig>,
    topo: &Topology,
    ingress: NodeId,
    dst: u32,
) -> Option<(NodeId, u64)> {
    let link_cost = |a: NodeId, b: NodeId| -> u64 {
        let id = topo.link_between(a, b).expect("adjacent nodes");
        topo.links()[id as usize].cost as u64
    };
    let cfg = configs.get(&ingress)?;
    let fec = cfg
        .fecs
        .iter()
        .filter(|f| f.prefix.contains(dst))
        .max_by_key(|f| f.prefix.len)?;
    let mut node = ingress;
    let mut label: Option<Label> = Some(fec.push_label);
    let mut hop = cfg.next_hop_for(label)?;
    let mut cost = 0u64;
    for _ in 0..configs.len() {
        match hop {
            Hop::Local => return Some((node, cost)),
            Hop::Node(next) => {
                cost += link_cost(node, next);
                node = next;
                let cfg = configs.get(&node)?;
                match label {
                    Some(l) => {
                        let b = cfg
                            .bindings
                            .iter()
                            .find(|b| b.level == 2 && b.key == l.value() as u64)?;
                        match b.op {
                            LabelOp::Swap => {
                                label = Some(b.new_label);
                                hop = cfg.next_hop_for(label)?;
                            }
                            LabelOp::Pop => {
                                label = None;
                                hop = cfg.ip_route_for(dst)?;
                            }
                            _ => panic!("unexpected op {:?} at node {node}", b.op),
                        }
                    }
                    None => hop = cfg.ip_route_for(dst)?,
                }
            }
        }
    }
    panic!("forwarding loop tracing {dst:#x} from {ingress}");
}

/// The (ingress, egress, probe address) pairs of the two signaled LSPs.
fn probes(cp: &ControlPlane) -> Vec<(NodeId, NodeId, u32)> {
    let last = cp.topology().nodes().len() as u32 - 1;
    vec![
        (0, last, parse_addr("192.168.1.5").unwrap()),
        (last, 0, parse_addr("10.1.0.5").unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fault-free convergence: on random grids with random link costs,
    /// the LDP tables route every FEC to the same egress at the same
    /// total cost as the centralized solver.
    #[test]
    fn random_grids_converge_to_the_centralized_fixed_point(
        rows in 2u32..4,
        cols in 2u32..5,
        cost_salt in 0u64..1000,
        seed in 0u64..10_000,
    ) {
        let cp = grid_plane(rows, cols, cost_salt);
        let report = build_ldp(&cp, seed).run(30_000_000);
        prop_assert_eq!(report.control.mode, ControlMode::Ldp);
        prop_assert!(report.control.convergence_ns.is_some(), "never settled");
        prop_assert_eq!(report.control.session_downs, 0);
        prop_assert_eq!(report.control.pdus_lost, 0);

        let ldp_fibs = report.fibs.as_ref().expect("ldp run exposes FIBs");
        let central: BTreeMap<NodeId, NodeConfig> = cp
            .topology()
            .nodes()
            .iter()
            .map(|n| (n.id, cp.config_for(n.id)))
            .collect();
        for (ingress, egress, dst) in probes(&cp) {
            let (ldp_end, ldp_cost) = trace(ldp_fibs, cp.topology(), ingress, dst)
                .expect("ldp tables route the probe");
            let (c_end, c_cost) = trace(&central, cp.topology(), ingress, dst)
                .expect("centralized tables route the probe");
            prop_assert_eq!(ldp_end, egress, "ldp delivered to the wrong node");
            prop_assert_eq!(c_end, egress);
            prop_assert_eq!(
                ldp_cost, c_cost,
                "path cost diverged for {}->{}", ingress, egress
            );
        }
    }
}

#[test]
fn link_fault_detects_reconverges_and_conserves_losses() {
    let cp = grid_plane(3, 3, 0);
    let mut sim = build_ldp(&cp, 7);
    // Cut the ingress corner's row link for good: the protocol must
    // detect by hold expiry and reroute down the column.
    let cut = cp.topology().link_between(0, 1).unwrap();
    let mut plan = FaultPlan::default();
    plan.link_down(20_000_000, cut);
    sim.set_fault_plan(plan);
    let flow = FlowSpec {
        name: "fwd".into(),
        ingress: 0,
        src_addr: parse_addr("10.1.0.5").unwrap(),
        dst_addr: parse_addr("192.168.1.5").unwrap(),
        payload_bytes: 400,
        precedence: 0,
        pattern: TrafficPattern::Cbr {
            interval_ns: 100_000,
        },
        start_ns: 10_000_000,
        stop_ns: 60_000_000,
        police: None,
    };
    sim.add_flow(flow);
    let report = sim.run(90_000_000);

    assert_eq!(report.faults.len(), 1);
    let rec = &report.faults[0];
    let hold = LdpConfig::default().hold_ns;
    let det = rec.detected_ns.expect("session expiry detected the cut");
    assert!(det > rec.down_ns, "detection cannot precede the failure");
    assert!(
        det <= rec.down_ns + 2 * hold,
        "detection took {} ns, expected within two hold times",
        det - rec.down_ns
    );
    let restored = rec.restored_ns.expect("withdraw wave reconverged");
    assert!(restored >= det);
    assert!(
        restored < 40_000_000,
        "reconvergence took {} ns",
        restored - rec.down_ns
    );

    // Service actually resumed: packets emitted after restoration ride
    // the new path, so losses are bounded by the outage window.
    let s = report.flow("fwd").unwrap();
    assert!(s.delivered > 0);
    assert!(s.link_dropped > 0, "stale tables blackholed into the cut");
    let outage_packets = (restored - rec.down_ns) / 100_000 + 2;
    assert!(
        (s.link_dropped + s.router_dropped) <= outage_packets,
        "losses ({} + {}) exceed the outage window ({outage_packets} packets)",
        s.link_dropped,
        s.router_dropped,
    );

    // Conservation: every packet is delivered or attributed to a cause,
    // per flow and in the per-cause totals.
    assert_eq!(
        s.sent,
        s.delivered + s.link_dropped + s.router_dropped + s.queue_dropped + s.loss_dropped
    );
    assert_eq!(report.link_drops, s.link_dropped);
    assert_eq!(rec.packets_lost, s.link_dropped);
}

/// A 2x2 grid engineered so every hello lands *exactly* on the
/// receiver's next tick: 1 Tbps links make each PDU serialize in 1 ns,
/// and the propagation delay is `hello_interval - 1`, so a hello sent
/// at tick `T` arrives at `T + 1 + (h - 1) = T + h` — the very instant
/// the next `LdpTick` fires.
fn collision_plane() -> ControlPlane {
    let mut topo = Topology::new();
    for id in 0..4u32 {
        let role = if id == 0 || id == 3 {
            RouterRole::Ler
        } else {
            RouterRole::Lsr
        };
        topo.add_node(id, role, format!("n{id}"));
    }
    for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        topo.add_link(LinkSpec {
            a,
            b,
            cost: 1,
            bandwidth_bps: 1_000_000_000_000,
            delay_ns: 999_999,
        });
    }
    let mut cp = ControlPlane::new(topo);
    cp.attach_prefix(3, Prefix::new(parse_addr("192.168.1.0").unwrap(), 24));
    cp.establish_lsp(LspRequest::best_effort(
        0,
        3,
        Prefix::new(parse_addr("192.168.1.0").unwrap(), 24),
    ))
    .expect("LSP");
    cp
}

/// Equal-timestamp tie-break, end to end: with the collision topology
/// above and a hold time *shorter* than the tick-to-tick silence, every
/// hold check races an in-flight hello carrying the refresh. The event
/// queue ranks global deliveries before timers ("the wire beats the
/// clock"), so sessions must never flap — and the winner must not
/// depend on the shard count.
#[test]
fn keepalive_at_exact_hold_expiry_keeps_the_session_on_any_shard_count() {
    let cp = collision_plane();
    let run = |shards: usize| -> String {
        let mut sim = Simulation::build(
            &cp,
            RouterKind::Embedded {
                clock: ClockSpec::STRATIX_50MHZ,
            },
            QueueDiscipline::Fifo { capacity: 32 },
            11,
        );
        // Silence observed by a tick that beats the colliding hello
        // would be `hello_interval - 1` ns; a hold of one less makes
        // that a session death. Only delivery-before-timer survives.
        sim.enable_ldp(LdpConfig {
            hello_interval_ns: 1_000_000,
            hold_ns: 999_998,
            ..LdpConfig::default()
        });
        sim.set_shards(shards);
        sim.add_flow(FlowSpec {
            name: "fwd".into(),
            ingress: 0,
            src_addr: parse_addr("10.1.0.5").unwrap(),
            dst_addr: parse_addr("192.168.1.5").unwrap(),
            payload_bytes: 200,
            precedence: 0,
            pattern: TrafficPattern::Cbr {
                interval_ns: 500_000,
            },
            start_ns: 10_000_000,
            stop_ns: 15_000_000,
            police: None,
        });
        let report: SimReport = sim.run(25_000_000);
        assert_eq!(report.control.mode, ControlMode::Ldp);
        assert!(report.control.sessions_established > 0, "bring-up failed");
        assert_eq!(
            report.control.session_downs, 0,
            "a hold timer beat a same-instant keepalive at {shards} shard(s)"
        );
        assert!(report.control.convergence_ns.is_some());
        let s = report.flow("fwd").unwrap();
        assert!(s.delivered > 0, "converged tables must carry traffic");
        serde_json::to_string(&report).expect("report serializes")
    };
    let baseline = run(1);
    for shards in [2, 4] {
        assert_eq!(
            baseline,
            run(shards),
            "tie-break outcome diverged at {shards} shards"
        );
    }
}

#[test]
fn ldp_runs_are_byte_identical_across_shard_counts() {
    let cp = grid_plane(3, 4, 3);
    let run = |shards: usize| -> (usize, String) {
        let mut sim = build_ldp(&cp, 42);
        sim.set_shards(shards);
        let cut = cp.topology().link_between(0, 1).unwrap();
        let mut plan = FaultPlan::default();
        plan.outage(cut, 20_000_000, 40_000_000);
        sim.set_fault_plan(plan);
        sim.add_flow(FlowSpec {
            name: "fwd".into(),
            ingress: 0,
            src_addr: parse_addr("10.1.0.5").unwrap(),
            dst_addr: parse_addr("192.168.1.5").unwrap(),
            payload_bytes: 400,
            precedence: 0,
            pattern: TrafficPattern::Poisson {
                mean_interval_ns: 150_000,
            },
            start_ns: 10_000_000,
            stop_ns: 50_000_000,
            police: None,
        });
        let sim = sim.with_telemetry(TelemetryConfig {
            sample_interval_ns: 250_000,
            ..TelemetryConfig::default()
        });
        let report: SimReport = sim.run(70_000_000);
        (
            report.engine.shards,
            serde_json::to_string(&report).expect("report serializes"),
        )
    };
    let (n1, baseline) = run(1);
    assert_eq!(n1, 1);
    for shards in [2, 4] {
        let (n, json) = run(shards);
        assert!(n > 1, "grid supports {shards} shards");
        assert_eq!(baseline, json, "{shards}-shard ldp run diverged");
    }
}

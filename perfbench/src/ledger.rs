//! The per-layer ledger of the traced run.
//!
//! Every number here is taken from outside the layer, by timing calls
//! into its public API from this crate:
//!
//! * a hop-by-hop replay of the workload's flows through routers built
//!   with `RouterKind::build` (`mpls-router`, and below it
//!   `mpls-dataplane` / `mpls-core`), rebuilding each hop's wire packet
//!   the way the simulator materializes it (`mpls-packet`);
//! * small loops over single layer operations at the workload's
//!   occupancy (FIB, flow cache, codec, event and link queues);
//! * the Table-6 sweep over an `embedded-grid` LSR's info base;
//! * exact counts from the workload run's `SimReport` and `EngineStats`.

use crate::median;
use crate::trace::Tracer;
use crate::workloads::{self, mix, Prepared, Workload};
use mpls_control::{ControlPlane, NodeId, RouterRole};
use mpls_core::modifier::Outcome;
use mpls_core::{table6, ClockSpec, IbOperation, LabelStackModifier, Level};
use mpls_dataplane::{Fib, FibLevel, FlowCache, HashFib, LabelBinding};
use mpls_net::event::EventRank;
use mpls_net::sim::SimPacket;
use mpls_net::traffic::FlowSpec;
use mpls_net::{EventQueue, LinkQueue, QueueDiscipline, RouterKind, SimReport, Simulation};
use mpls_packet::{
    CosBits, EtherType, EthernetFrame, Ipv4Header, Label, LabelStack, LabelStackEntry, MacAddr,
    MplsPacket,
};
use mpls_router::{Action, EmbeddedRouter};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Source-injected packets arrive on port `SOURCE_LANE + flow`, wire
/// packets on their global channel index — the simulator's numbering.
const SOURCE_LANE: u64 = 1 << 32;

/// Upper bound on packets replayed per round.
const REPLAY_PACKETS: usize = 4_096;

/// Rounds of (1-shard run, sharded run, replay) the ledger makes. Host
/// speed drifts on shared machines, so each replay is compared with the
/// runs taken right before it, and the ledger reports medians over
/// rounds.
const ROUNDS: usize = 5;

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i] as f64
}

/// Host ns per operation: `batch` runs `ops` operations; the median over
/// several batches of about a millisecond each.
fn per_op_ns(ops: u64, mut batch: impl FnMut()) -> f64 {
    let mut reps = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            batch();
        }
        if t.elapsed().as_micros() >= 1_000 || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                batch();
            }
            t.elapsed().as_nanos() as f64 / (reps as f64 * ops as f64)
        })
        .collect();
    median(&samples)
}

/// Median cost of recording one empty span: subtracted from per-call
/// spans so the ledger does not count the tracer itself.
fn timer_overhead_ns() -> u64 {
    let mut tr = Tracer::on();
    for _ in 0..2_000 {
        let s = tr.begin("timer");
        tr.end(s);
    }
    let mut d = tr
        .summary_from(0)
        .remove("timer")
        .expect("recorded")
        .durations;
    d.sort_unstable();
    d[d.len() / 2]
}

/// What the replay measured.
struct Replay {
    /// Timer-corrected duration of every `router.handle` span.
    handle_ns: Vec<u64>,
    /// Timer-corrected duration of every `packet.build` span.
    build_ns: Vec<u64>,
    /// Mean `RouterKind::build` time per node.
    router_build_ns: f64,
    /// Mean `reprogram` time per node.
    reprogram_ns: f64,
    /// A labeled packet seen mid-path, for the codec loop.
    sample: Option<MplsPacket>,
}

/// Walks every flow's packets hop by hop through freshly built routers,
/// round-robin over flows (packet `s` of every flow, then `s + 1`) as
/// constant-rate traffic interleaves in the simulator.
fn replay(
    cp: &ControlPlane,
    kind: RouterKind,
    flows: &[FlowSpec],
    sent_per_flow: &[u64],
    timer_ns: u64,
    tr: &mut Tracer,
) -> Replay {
    let first_span = tr.len();
    let topo = cp.topology();
    let mut chan: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    for (i, l) in topo.links().iter().enumerate() {
        chan.insert((l.a, l.b), 2 * i as u64);
        chan.insert((l.b, l.a), 2 * i as u64 + 1);
    }
    let configs: Vec<_> = topo.nodes().iter().map(|n| cp.config_for(n.id)).collect();
    let mut index = HashMap::new();
    let mut routers = Vec::new();
    for (n, cfg) in topo.nodes().iter().zip(&configs) {
        let s = tr.begin("router.build");
        let r = kind.build(n.id, n.role, cfg);
        tr.end(s);
        index.insert(n.id, routers.len());
        routers.push(r);
    }

    let templates: Vec<(EthernetFrame, Ipv4Header, bytes::Bytes)> = flows
        .iter()
        .map(|f| {
            let mut ip = Ipv4Header::new(
                f.src_addr,
                f.dst_addr,
                Ipv4Header::PROTO_UDP,
                64,
                f.payload_bytes,
            );
            ip.tos = f.precedence << 5;
            let eth = EthernetFrame {
                dst: MacAddr::from_node(f.ingress, 0),
                src: MacAddr::from_node(u32::MAX, 0),
                ethertype: EtherType::Ipv4,
            };
            (eth, ip, bytes::Bytes::from(vec![0u8; f.payload_bytes]))
        })
        .collect();

    let rounds = sent_per_flow.iter().copied().max().unwrap_or(0) as usize;
    let rounds = rounds.min(REPLAY_PACKETS / flows.len().max(1)).max(1);
    let mut sample = None;
    for seq in 0..rounds as u64 {
        for (fi, f) in flows.iter().enumerate() {
            if seq >= sent_per_flow[fi] {
                continue;
            }
            tr.set_request(seq << 16 | fi as u64);
            let (eth, ip, payload) = &templates[fi];
            let mut node = f.ingress;
            let mut port = SOURCE_LANE + fi as u64;
            let mut stack = LabelStack::default();
            let walk = tr.begin("replay.packet");
            for _ in 0..256 {
                let s = tr.begin("packet.build");
                let mut ip = *ip;
                ip.ident = (seq & 0xffff) as u16;
                let mut pkt = MplsPacket::ipv4(*eth, ip, payload.clone());
                pkt.splice_stack(stack.clone());
                tr.end(s);
                let s = tr.begin("router.handle");
                let out = routers[index[&node]].handle_on_port(black_box(pkt), port);
                tr.end(s);
                match out.action {
                    Action::Forward { next, packet } => {
                        if sample.is_none() && !packet.stack.is_empty() {
                            sample = Some(packet.clone());
                        }
                        port = chan[&(node, next)];
                        stack = packet.stack;
                        node = next;
                    }
                    Action::Deliver(_) | Action::Discard(_) => break,
                }
            }
            tr.end(walk);
        }
    }
    tr.set_request(0);
    for (r, cfg) in routers.iter_mut().zip(&configs) {
        let s = tr.begin("router.reprogram");
        r.reprogram(cfg);
        tr.end(s);
    }

    let summary = tr.summary_from(first_span);
    let corrected = |name: &str| -> Vec<u64> {
        summary.get(name).map_or_else(Vec::new, |st| {
            st.durations
                .iter()
                .map(|d| d.saturating_sub(timer_ns))
                .collect()
        })
    };
    let mean = |name: &str| {
        summary
            .get(name)
            .map_or(0.0, |s| {
                s.total_ns as f64 / s.count.max(1) as f64 - timer_ns as f64
            })
            .max(0.0)
    };
    Replay {
        handle_ns: corrected("router.handle"),
        build_ns: corrected("packet.build"),
        router_build_ns: mean("router.build"),
        reprogram_ns: mean("router.reprogram"),
        sample,
    }
}

/// The Table-6 sweep: every stored pair of the busiest `embedded-grid`
/// LSR's level-2 info base is looked up and swapped/popped once per
/// sweep. Returns (host ns per simulated cycle, ns per `update_stack`,
/// summed |measured − Table-6| cycles).
fn core_probe() -> (f64, f64, u64) {
    let cp = workloads::grid_control_plane();
    let lsr = cp
        .topology()
        .nodes()
        .iter()
        .filter(|n| n.role == RouterRole::Lsr)
        .max_by_key(|n| {
            let cfg = cp.config_for(n.id);
            (cfg.bindings.iter().filter(|b| b.level == 2).count(), n.id)
        })
        .expect("grid has LSRs");
    let router = EmbeddedRouter::new(
        lsr.id,
        RouterRole::Lsr,
        &cp.config_for(lsr.id),
        ClockSpec::STRATIX_50MHZ,
    );
    let mut m: LabelStackModifier = router.modifier().clone();
    let pairs: Vec<(u64, u64, IbOperation)> = {
        let level = m.info_base().level(Level::L2);
        (0..level.occupancy())
            .map(|s| level.peek(s).expect("slot below occupancy"))
            .collect()
    };
    let n = pairs.len() as u64;
    let absent = pairs.iter().map(|p| p.0).max().unwrap_or(0) + 1;

    let mut error = 0u64;
    let mut update_ns = Vec::new();
    let mut ns_per_cycle = Vec::new();
    let start = Instant::now();
    while ns_per_cycle.len() < 5 || start.elapsed().as_millis() < 200 {
        let (mut host_ns, mut cycles, mut upd_ns) = (0u64, 0u64, 0u64);
        for (k, &(key, _, op)) in pairs.iter().enumerate() {
            let k = k as u64 + 1;
            let t = Instant::now();
            let r = black_box(m.lookup(Level::L2, key));
            host_ns += t.elapsed().as_nanos() as u64;
            cycles += r.cycles;
            error += r.cycles.abs_diff(table6::search_hit_at(k));

            let label = Label::new(key as u32).expect("stored key is a label");
            m.user_push(LabelStackEntry::new(label, CosBits::BEST_EFFORT, true, 64));
            let t = Instant::now();
            let r = black_box(m.update_stack(0, CosBits::BEST_EFFORT, 64));
            let d = t.elapsed().as_nanos() as u64;
            host_ns += d;
            upd_ns += d;
            cycles += r.cycles;
            let expect = match op {
                IbOperation::Swap => table6::search_hit_at(k) + table6::SWAP_FROM_IB,
                IbOperation::Pop => table6::search_hit_at(k) + table6::POP_FROM_IB,
                IbOperation::Push => table6::search_hit_at(k) + table6::PUSH_FROM_IB,
                IbOperation::Nop => table6::update_verify_discard(k),
            };
            error += r.cycles.abs_diff(expect);
            while m.stack_depth() > 0 {
                let r = m.user_pop();
                debug_assert!(matches!(r.outcome, Outcome::Popped(_)));
            }
        }
        let r = m.lookup(Level::L2, absent);
        error += r.cycles.abs_diff(table6::search(n));
        update_ns.push(upd_ns as f64 / n.max(1) as f64);
        ns_per_cycle.push(host_ns as f64 / cycles.max(1) as f64);
    }
    (median(&ns_per_cycle), median(&update_ns), error)
}

/// Software FIB and flow cache at the occupancy of the workload's
/// fullest node. Returns (lookup ns, cache lookup ns, bind ns).
fn dataplane_probe(cp: &ControlPlane) -> (f64, f64, f64) {
    let cfg = cp
        .topology()
        .nodes()
        .iter()
        .map(|n| cp.config_for(n.id))
        .max_by_key(|c| c.bindings.len())
        .expect("workload has nodes");
    let level = |l: u8| match l {
        1 => FibLevel::L1,
        2 => FibLevel::L2,
        _ => FibLevel::L3,
    };
    let entries: Vec<(FibLevel, u64, LabelBinding)> = cfg
        .bindings
        .iter()
        .map(|b| (level(b.level), b.key, LabelBinding::new(b.new_label, b.op)))
        .collect();
    let fill = || {
        let mut fib: Fib<HashFib> = Fib::new();
        for &(l, k, b) in &entries {
            fib.bind(l, k, b);
        }
        fib
    };
    let n = entries.len().max(1) as u64;
    let bind_ns = per_op_ns(n, || {
        black_box(fill());
    });
    let fib = fill();
    // Look the keys up in a seeded shuffle, so no access pattern repeats
    // the insertion order.
    let mut keys: Vec<(FibLevel, u64)> = entries.iter().map(|e| (e.0, e.1)).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, (mix(i as u64) % (i as u64 + 1)) as usize);
    }
    let fib_ns = per_op_ns(n, || {
        for &(l, k) in &keys {
            black_box(fib.lookup(l, black_box(k)));
        }
    });
    let mut cache = FlowCache::default();
    let cached: Vec<(FibLevel, u64, u64)> = entries
        .iter()
        .take(FlowCache::DEFAULT_SLOTS)
        .enumerate()
        .map(|(i, e)| (e.0, e.1, i as u64))
        .collect();
    for (&(l, k, port), e) in cached.iter().zip(&entries) {
        cache.install(l, k, port, e.2, 1);
    }
    let cache_ns = per_op_ns(cached.len().max(1) as u64, || {
        for &(l, k, port) in &cached {
            black_box(cache.lookup(l, black_box(k), port));
        }
    });
    (fib_ns, cache_ns, bind_ns)
}

/// Wire codec on a labeled packet. Returns (encode ns, decode ns).
fn codec_probe(sample: &MplsPacket) -> (f64, f64) {
    let wire = sample.to_bytes().expect("replayed packet encodes");
    let encode = per_op_ns(1, || {
        black_box(black_box(sample).to_bytes().expect("encodes"));
    });
    let decode = per_op_ns(1, || {
        black_box(MplsPacket::from_bytes(black_box(&wire)).expect("decodes"));
    });
    (encode, decode)
}

#[derive(Debug)]
struct Ev;

impl EventRank for Ev {
    fn rank(&self) -> u8 {
        1
    }
}

/// `EventQueue` schedule+pop in a hold model at `depth` pending events,
/// and `LinkQueue` push+pop on an empty FIFO (light load: a packet
/// mostly finds its link idle). Returns (event ns, link ns).
fn net_probe(depth: usize) -> (f64, f64) {
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut x = 1u64;
    for _ in 0..depth.max(1) {
        x = mix(x);
        q.schedule(x % 1_000_000, Ev);
    }
    let event_ns = per_op_ns(1_000, || {
        for _ in 0..1_000 {
            let (t, ev) = q.pop().expect("hold model keeps the queue full");
            x = mix(x);
            q.schedule(t + x % 1_000_000, ev);
        }
    });
    let mut lq = LinkQueue::new(QueueDiscipline::Fifo { capacity: 64 });
    let pkt = SimPacket {
        flow: 0,
        stack: LabelStack::default(),
        seq: 0,
        sent_ns: 0,
        precedence: 0,
        base_wire: 554,
        ecn: false,
    };
    let link_ns = per_op_ns(1_000, || {
        for _ in 0..1_000 {
            black_box(lq.push(pkt.clone()));
            black_box(lq.pop());
        }
    });
    (event_ns, link_ns)
}

/// Inputs to [`measure`] from the timed part of the traced run.
pub struct RunFacts<'a> {
    /// Report of the last traced repetition.
    pub report: &'a SimReport,
    /// Median `control.signal` span time (s).
    pub signal_s: f64,
    /// Median `Simulation::build` time (s).
    pub net_build_s: f64,
    /// Untraced over traced `hops_per_s`.
    pub trace_overhead: f64,
}

/// Runs `sim` to `horizon_ns` under a `ledger.run` span; returns the
/// wall time (ns) and the report.
fn timed_run(sim: Simulation, horizon_ns: u64, tr: &mut Tracer) -> (f64, SimReport) {
    let s = tr.begin("ledger.run");
    let t = Instant::now();
    let report = sim.run(horizon_ns);
    let run_ns = t.elapsed().as_nanos() as f64;
    tr.end(s);
    (run_ns, report)
}

/// Builds the per-layer ledger. `shards` is the shard count of the
/// sharded runs. Returns the metrics, the human-readable lines, whether
/// the Table-6 reference held, and the report digests of the sharded
/// runs (for the caller's identity check).
pub fn measure(
    w: Workload,
    seed: u64,
    shards: usize,
    facts: &RunFacts<'_>,
    tr: &mut Tracer,
) -> (Vec<Metric>, Vec<String>, bool, Vec<String>) {
    let report = facts.report;
    let timer_ns = timer_overhead_ns();
    let sent: Vec<u64> = report.flows.iter().map(|(_, s)| s.sent).collect();
    let routers = report.routers.values();
    let hops: u64 = routers.clone().map(|r| r.packets_in).sum();
    let forwarded: u64 = routers.clone().map(|r| r.forwarded).sum();
    let cycles: u64 = routers.clone().map(|r| r.total_cycles).sum();
    let stage = |f: fn(&mpls_router::StageCycles) -> u64| -> f64 {
        report
            .routers
            .values()
            .map(|r| f(&r.stage_cycles))
            .sum::<u64>() as f64
    };
    let hits: u64 = routers.clone().map(|r| r.cache_hits).sum();
    let misses: u64 = routers.clone().map(|r| r.cache_misses).sum();
    let fib_lookups: u64 = routers.map(|r| r.fib_lookups).sum();
    let e = &report.engine;
    let events = e.total_events();
    let (event_ns, link_ns) = net_probe(report.flows.len());

    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let (mut handle, mut build) = (Vec::new(), Vec::new());
    let (mut router_build, mut reprogram) = (Vec::new(), Vec::new());
    let (mut run_ms, mut covered_ms, mut shares) = (Vec::new(), Vec::new(), Vec::new());
    let (mut speedup, mut extra_ns_per_round) = (Vec::new(), Vec::new());
    let (mut sharded_digests, mut sharded_report) = (Vec::new(), None);
    let mut sample = None;
    let mut last_cp = None;
    for _ in 0..ROUNDS {
        let p = workloads::prepare(w, seed, shards, true, &mut Tracer::off());
        let (run2_ns, report2) = timed_run(p.sim, p.horizon_ns, tr);
        let Prepared {
            sim,
            horizon_ns,
            cp,
            flows,
            kind,
        } = workloads::prepare(w, seed, 1, true, &mut Tracer::off());
        let (run_ns, _) = timed_run(sim, horizon_ns, tr);
        let rounds2 = report2.engine.epochs.max(1) as f64;
        speedup.push(run_ns / run2_ns);
        extra_ns_per_round.push((run2_ns - run_ns) / rounds2);
        sharded_digests.push(crate::check::digest(&report2));
        sharded_report = Some(report2);
        let rp = replay(&cp, kind, &flows, &sent, timer_ns, tr);
        let covered = hops as f64 * (mean(&rp.handle_ns) + mean(&rp.build_ns))
            + events as f64 * event_ns
            + forwarded as f64 * link_ns;
        run_ms.push(run_ns / 1e6);
        covered_ms.push(covered / 1e6);
        shares.push(covered / run_ns);
        handle.extend(rp.handle_ns);
        build.extend(rp.build_ns);
        router_build.push(rp.router_build_ns);
        reprogram.push(rp.reprogram_ns);
        sample = sample.or(rp.sample);
        last_cp = Some(cp);
    }
    let cp = last_cp.expect("at least one round");
    let e2 = sharded_report.expect("at least one round").engine;
    let balance = match (e2.shard_events.iter().min(), e2.shard_events.iter().max()) {
        (Some(&lo), Some(&hi)) if hi > 0 => lo as f64 / hi as f64,
        _ => 1.0,
    };
    handle.sort_unstable();
    let handle_mean = mean(&handle);
    let build_mean = mean(&build);
    let share = median(&shares);
    let self_ns = (median(&run_ms) - median(&covered_ms)) * 1e6;

    let (ns_per_cycle, update_ns, t6_error) = core_probe();
    let (fib_ns, cache_ns, bind_ns) = dataplane_probe(&cp);
    let (encode_ns, decode_ns) = sample.as_ref().map_or((0.0, 0.0), codec_probe);

    // The control plane alone: the same workload with its flows removed.
    let ctl = workloads::prepare(w, seed, 1, false, &mut Tracer::off());
    let s = tr.begin("ldp.control_run");
    let t = Instant::now();
    let ctl_report = ctl.sim.run(ctl.horizon_ns);
    let control_run_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let pdus = report.control.pdus_sent;
    let ctl_pdus = ctl_report.control.pdus_sent;

    let metrics: Vec<Metric> = vec![
        ("core.ns_per_cycle", ns_per_cycle, "ns/cycle"),
        ("core.update_ns", update_ns, "ns"),
        (
            "core.cycles_per_hop",
            cycles as f64 / hops.max(1) as f64,
            "cycle",
        ),
        ("core.stage_cycles.load", stage(|s| s.load), "cycle"),
        ("core.stage_cycles.update", stage(|s| s.update), "cycle"),
        ("core.stage_cycles.unload", stage(|s| s.unload), "cycle"),
        (
            "core.stage_cycles.slow_path",
            stage(|s| s.slow_path),
            "cycle",
        ),
        ("core.table6_error", t6_error as f64, "cycle"),
        ("router.hops", hops as f64, "count"),
        ("router.handle_ns.p50", quantile(&handle, 0.50), "ns"),
        ("router.handle_ns.p99", quantile(&handle, 0.99), "ns"),
        ("router.handle_ns.samples", handle.len() as f64, "count"),
        ("router.reprogram_ns", median(&reprogram), "ns"),
        ("router.build_ns", median(&router_build), "ns"),
        ("dataplane.fib_lookup_ns", fib_ns, "ns"),
        ("dataplane.cache_lookup_ns", cache_ns, "ns"),
        (
            "dataplane.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        ("dataplane.fib_lookups", fib_lookups as f64, "count"),
        ("dataplane.bind_ns", bind_ns, "ns"),
        ("packet.build_ns", build_mean, "ns"),
        ("packet.encode_ns", encode_ns, "ns"),
        ("packet.decode_ns", decode_ns, "ns"),
        ("net.build_s", facts.net_build_s, "s"),
        ("net.event_queue_ns", event_ns, "ns"),
        ("net.link_queue_ns", link_ns, "ns"),
        ("engine.rounds", e.epochs as f64, "count"),
        ("engine.events", events as f64, "count"),
        ("engine.global_events", e.global_events as f64, "count"),
        ("engine.shard_balance", balance, "ratio"),
        ("engine.sharded_rounds", e2.epochs as f64, "count"),
        ("engine.sharded_speedup", median(&speedup), "ratio"),
        (
            "engine.sharded_ns_per_round",
            median(&extra_ns_per_round),
            "ns",
        ),
        (
            "engine.self_ns_per_round",
            self_ns / e.epochs.max(1) as f64,
            "ns",
        ),
        (
            "engine.self_ns_per_event",
            self_ns / events.max(1) as f64,
            "ns",
        ),
        (
            "control.signal_us_per_lsp",
            facts.signal_s * 1e6 / cp.lsp_ids().len().max(1) as f64,
            "us",
        ),
        ("control.labels", cp.labels_allocated() as f64, "count"),
        ("ldp.pdus", pdus as f64, "count"),
        (
            "ldp.session_downs",
            report.control.session_downs as f64,
            "count",
        ),
        ("ldp.control_run_s", control_run_s, "s"),
        (
            "ldp.ns_per_pdu",
            if ctl_pdus == 0 {
                0.0
            } else {
                control_run_s * 1e9 / ctl_pdus as f64
            },
            "ns",
        ),
        ("ledger.run_share", share, "ratio"),
        ("ledger.trace_overhead", facts.trace_overhead, "ratio"),
    ];

    let mut lines = vec![
        format!(
            "ledger: {} replayed hops, {} spans, timer overhead {timer_ns} ns/span (subtracted)",
            handle.len(),
            tr.len()
        ),
        format!(
            "ledger: over {ROUNDS} rounds of run + replay (medians): run wall {:.1} ms; \
             covered {:.1} ms = {:.1}% (router.handle {:.0} ns + packet.build {:.0} ns per \
             hop x {hops} hops, event queue {event_ns:.1} ns x {events} events, link queue \
             {link_ns:.1} ns x {forwarded} transmissions)",
            median(&run_ms),
            median(&covered_ms),
            share * 100.0,
            handle_mean,
            build_mean,
        ),
        format!(
            "ledger: engine self time (residual estimate) {:.1} ms = {:.0} ns/round, {:.1} ns/event",
            self_ns / 1e6,
            self_ns / e.epochs.max(1) as f64,
            self_ns / events.max(1) as f64
        ),
        format!(
            "ledger: {shards}-shard runs of the same inputs: {} rounds, shard balance \
             {balance:.3}, speedup over 1 shard {:.3}, {:.0} ns of extra wall time per round",
            e2.epochs,
            median(&speedup),
            median(&extra_ns_per_round)
        ),
        format!(
            "ledger: Table-6 reference on an embedded-grid LSR info base: error {t6_error} cycles{}",
            if t6_error == 0 { " -- OK" } else { " -- MISMATCH" }
        ),
        format!(
            "ledger: tracing overhead: untraced/traced hops_per_s = {:.4}",
            facts.trace_overhead
        ),
    ];
    if share > 1.0 {
        lines.push(format!(
            "FLAG: replayed layers account for {:.1}% of run wall time (> 100%): \
             the replay does not match its workload",
            share * 100.0
        ));
    }
    (metrics, lines, t6_error == 0, sharded_digests)
}

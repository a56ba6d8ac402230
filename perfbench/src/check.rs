//! Per-repetition correctness checks on a run's [`SimReport`].

use mpls_net::SimReport;

/// FNV-1a over the serialized report: a compact identity for the whole
/// simulated outcome (flows, routers, links, faults, control summary).
pub fn digest(report: &SimReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}-{}", json.len())
}

/// Router visits: one packet handled by one router.
pub fn hops(report: &SimReport) -> u64 {
    report.routers.values().map(|r| r.packets_in).sum()
}

/// Per-flow and per-cause conservation: every packet sent is delivered
/// or attributed to exactly one drop counter (nothing left in flight at
/// the horizon), the per-cause breakdown sums to the router, link and
/// loss drops, and every flow delivered something.
pub fn conservation(report: &SimReport) -> Result<(), String> {
    for (spec, s) in &report.flows {
        let accounted = s.delivered
            + s.router_dropped
            + s.queue_dropped
            + s.policer_dropped
            + s.link_dropped
            + s.loss_dropped;
        if s.sent != accounted {
            return Err(format!(
                "flow {}: sent {} != delivered {} + drops {} (in flight at the horizon?)",
                spec.name,
                s.sent,
                s.delivered,
                accounted - s.delivered
            ));
        }
        let attributed = s.router_dropped + s.link_dropped + s.loss_dropped;
        if s.drop_causes.total() != attributed {
            return Err(format!(
                "flow {}: per-cause drops {} != router+link+loss drops {attributed}",
                spec.name,
                s.drop_causes.total()
            ));
        }
        if s.delivered == 0 {
            return Err(format!("flow {} delivered nothing", spec.name));
        }
    }
    if report.flows.is_empty() {
        return Err("no flows in the report".into());
    }
    Ok(())
}

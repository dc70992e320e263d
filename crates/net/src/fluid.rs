//! Per-link fair-share rate state for the hybrid fidelity tier.
//!
//! Long flows that leave the packet path (see `tlb-simnet`'s
//! `FidelityKind::Hybrid`) are modeled as fluid transfers: each flow owns a
//! fixed directed-link path and receives the max-min-style rate
//! `min over links l of capacity(l) / n_fluid(l)`, where `n_fluid(l)`
//! counts the fluid flows crossing `l`. Rates depend only on link
//! populations, so they change exactly when a flow joins, leaves, or a
//! link's capacity changes — the driver calls back in at those events and
//! nowhere else (this is the dslab `FairThroughputSharingModel` shape:
//! event-driven recompute, no per-byte work).
//!
//! Fluid flows share capacity only among themselves; coupling with
//! concurrent packet traffic on the same links is the documented modeling
//! approximation the hybrid tolerance bands absorb.
//!
//! Everything is deterministic: iteration orders are insertion orders and
//! arithmetic is plain `f64` evaluated in a fixed order. Every rate change
//! is reported with the completion time it projects; the *latest* report
//! for a flow supersedes the earlier ones, and keeping only that one (the
//! driver holds them in an indexed heap) is the driver's job — the model
//! itself never schedules anything.

/// Maximum directed links on a fluid path: NIC, two LB uplinks, and the
/// descent (core→agg, agg→edge, edge→host) of a three-tier fat tree.
pub const MAX_FLUID_PATH: usize = 6;

/// One pending rate update: the flow's new projected completion time,
/// superseding any the driver holds for it.
#[derive(Clone, Copy, Debug)]
pub struct RateChange {
    /// The affected fluid flow.
    pub flow: u32,
    /// Absolute completion time in seconds (`now + remaining / rate`).
    pub done_at_s: f64,
}

#[derive(Clone, Copy, Debug)]
struct FluidFlow {
    path: [u32; MAX_FLUID_PATH],
    path_len: u8,
    active: bool,
    /// Bytes still to deliver, advanced lazily at `updated_at`.
    remaining: f64,
    /// Current fair-share rate in bytes/second.
    rate: f64,
    /// When `remaining` was last advanced, in seconds.
    updated_at: f64,
}

const DEAD: FluidFlow = FluidFlow {
    path: [0; MAX_FLUID_PATH],
    path_len: 0,
    active: false,
    remaining: 0.0,
    rate: 0.0,
    updated_at: 0.0,
};

/// The fluid tier's whole state: per-link populations and per-flow rates.
#[derive(Debug)]
pub struct FluidNet {
    /// Per-directed-link capacity in bytes/second.
    caps: Vec<f64>,
    /// Live fluid flows crossing each link.
    n_on: Vec<u32>,
    /// Flow ids crossing each link, each live flow once per path link.
    on_link: Vec<Vec<u32>>,
    flows: Vec<FluidFlow>,
    /// The flows collected in the current scan, in collection order and
    /// once per shared link (sorted and deduplicated by
    /// [`FluidNet::finish_scan`]); scratch, reused across scans.
    scan: Vec<u32>,
    /// Pending rate changes since the last [`FluidNet::take_changes`].
    changes: Vec<RateChange>,
    active: usize,
}

impl FluidNet {
    /// Fluid state for `n_links` directed links and up to `n_flows` flows.
    /// Capacities start at zero; the driver sets them before any join.
    pub fn new(n_links: usize, n_flows: usize) -> FluidNet {
        FluidNet {
            caps: vec![0.0; n_links],
            n_on: vec![0; n_links],
            on_link: vec![Vec::new(); n_links],
            flows: vec![DEAD; n_flows],
            scan: Vec::new(),
            changes: Vec::new(),
            active: 0,
        }
    }

    /// Set a directed link's capacity (bytes/second). Call
    /// [`FluidNet::touch_link`] afterwards if flows may already cross it.
    pub fn set_capacity(&mut self, link: u32, bytes_per_sec: f64) {
        self.caps[link as usize] = bytes_per_sec;
    }

    /// Live fluid flows right now.
    #[inline]
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// The directed links an active `flow` occupies.
    pub fn path(&self, flow: u32) -> &[u32] {
        let f = &self.flows[flow as usize];
        debug_assert!(f.active, "path of an inactive fluid flow");
        &f.path[..f.path_len as usize]
    }

    /// Enter `flow` into the fluid tier with `bytes` to deliver over
    /// `path` (directed links). Emits rate changes for the joiner and every
    /// flow sharing a path link.
    pub fn join(&mut self, flow: u32, path: &[u32], bytes: f64, now_s: f64) {
        let fi = flow as usize;
        assert!(!self.flows[fi].active, "fluid join of an active flow");
        assert!(
            !path.is_empty() && path.len() <= MAX_FLUID_PATH,
            "fluid path length {} out of range",
            path.len()
        );
        assert!(bytes > 0.0, "fluid join with no bytes");
        // The sharers, collected before the joiner enters their lists.
        for &l in path {
            self.collect_on(l, None);
        }
        // Populations: the joiner enters every path link.
        for &l in path {
            self.n_on[l as usize] += 1;
            self.on_link[l as usize].push(flow);
        }
        let mut fixed = [0u32; MAX_FLUID_PATH];
        fixed[..path.len()].copy_from_slice(path);
        let f = &mut self.flows[fi];
        f.path = fixed;
        f.path_len = path.len() as u8;
        f.active = true;
        f.remaining = bytes;
        f.updated_at = now_s;
        f.rate = 0.0;
        self.active += 1;
        // New rates for the joiner and everything it displaced
        // (`finish_scan` advances each sharer at its old rate first).
        self.rerate(flow, now_s);
        self.finish_scan(now_s);
    }

    /// Remove `flow` from the fluid tier (completion or demotion back to
    /// the packet path), returning the bytes it still had to deliver.
    /// Sharers get their freed share back via emitted rate changes.
    pub fn leave(&mut self, flow: u32, now_s: f64) -> f64 {
        let fi = flow as usize;
        assert!(self.flows[fi].active, "fluid leave of an inactive flow");
        self.advance(flow, now_s);
        let remaining = self.flows[fi].remaining;
        let path = self.flows[fi].path;
        let path_len = self.flows[fi].path_len as usize;
        // The sharers, collected in the same pass that unlinks the leaver
        // (already advanced, and not to be re-rated).
        for &l in &path[..path_len] {
            self.collect_on(l, Some(flow));
            self.n_on[l as usize] -= 1;
        }
        self.flows[fi] = DEAD;
        self.active -= 1;
        self.finish_scan(now_s);
        remaining
    }

    /// A link's capacity changed (degradation/repair): re-rate every flow
    /// crossing it.
    pub fn touch_link(&mut self, link: u32, now_s: f64) {
        self.collect_on(link, None);
        self.finish_scan(now_s);
    }

    /// Drain the pending rate changes (deterministic order; a flow re-rated
    /// more than once since the last drain appears once per re-rate, latest
    /// last). A driver that keeps per-flow state from them drains after
    /// every [`FluidNet::leave`]: changes still pending for a flow when it
    /// leaves are not withdrawn.
    pub fn take_changes(&mut self, into: &mut Vec<RateChange>) {
        into.append(&mut self.changes);
    }

    // ---- internals -------------------------------------------------------

    /// Collect every flow on `link` for [`FluidNet::finish_scan`],
    /// unlinking `leaver` from the list in the same pass.
    fn collect_on(&mut self, link: u32, leaver: Option<u32>) {
        let scan = &mut self.scan;
        self.on_link[link as usize].retain(|&f| {
            let stays = Some(f) != leaver;
            if stays {
                scan.push(f);
            }
            stays
        });
    }

    /// Advance every flow collected in this scan (the whole affected set)
    /// at its old rate, then re-rate it — once each, in ascending flow-id
    /// order, the order [`FluidNet::take_changes`] hands to the driver, so
    /// it must not depend on link or insertion order. Costs the affected
    /// set, not the flow table.
    fn finish_scan(&mut self, now_s: f64) {
        let mut scan = std::mem::take(&mut self.scan);
        scan.sort_unstable();
        scan.dedup();
        for &f in &scan {
            debug_assert!(self.flows[f as usize].active, "collected an inactive flow");
            self.advance(f, now_s);
            self.rerate(f, now_s);
        }
        scan.clear();
        self.scan = scan;
    }

    /// Move `flow`'s byte clock to `now_s` at its current rate.
    fn advance(&mut self, flow: u32, now_s: f64) {
        let f = &mut self.flows[flow as usize];
        let dt = now_s - f.updated_at;
        if dt > 0.0 {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        f.updated_at = now_s;
    }

    /// Recompute `flow`'s fair share from current populations and emit the
    /// change.
    fn rerate(&mut self, flow: u32, now_s: f64) {
        let fi = flow as usize;
        let (path, path_len) = (self.flows[fi].path, self.flows[fi].path_len as usize);
        let mut rate = f64::INFINITY;
        for &l in &path[..path_len] {
            let li = l as usize;
            debug_assert!(self.n_on[li] > 0, "flow on a link with zero population");
            rate = rate.min(self.caps[li] / self.n_on[li] as f64);
        }
        assert!(
            rate.is_finite() && rate > 0.0,
            "fluid rate must be positive (zero-capacity link on a fluid path?)"
        );
        let f = &mut self.flows[fi];
        f.rate = rate;
        debug_assert_eq!(f.updated_at, now_s, "rerate before advance");
        self.changes.push(RateChange {
            flow,
            done_at_s: now_s + f.remaining / rate,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn last_change_for(net: &mut FluidNet, flow: u32) -> RateChange {
        let mut ch = Vec::new();
        net.take_changes(&mut ch);
        *ch.iter()
            .rev()
            .find(|c| c.flow == flow)
            .expect("no change for flow")
    }

    #[test]
    fn lone_flow_gets_full_capacity() {
        let mut net = FluidNet::new(3, 4);
        for l in 0..3 {
            net.set_capacity(l, 1000.0);
        }
        net.join(0, &[0, 1, 2], 500.0, 1.0);
        let c = last_change_for(&mut net, 0);
        assert!((c.done_at_s - 1.5).abs() < 1e-12, "500 B at 1000 B/s");
        assert_eq!(net.active_flows(), 1);
    }

    #[test]
    fn sharing_halves_the_rate_and_leaving_restores_it() {
        let mut net = FluidNet::new(2, 4);
        net.set_capacity(0, 1000.0);
        net.set_capacity(1, 1000.0);
        net.join(0, &[0], 1000.0, 0.0);
        // Flow 1 shares link 0: both drop to 500 B/s.
        net.join(1, &[0, 1], 1000.0, 0.0);
        let mut ch = Vec::new();
        net.take_changes(&mut ch);
        let c0 = ch.iter().rev().find(|c| c.flow == 0).unwrap();
        assert!((c0.done_at_s - 2.0).abs() < 1e-12, "1000 B at 500 B/s");
        // At t=1, flow 1 leaves with 500 B left; flow 0 also has 500 B
        // left and speeds back up to 1000 B/s -> done at 1.5.
        let rem = net.leave(1, 1.0);
        assert!((rem - 500.0).abs() < 1e-12);
        let c0 = last_change_for(&mut net, 0);
        assert!((c0.done_at_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_is_the_min_share_across_the_path() {
        let mut net = FluidNet::new(2, 4);
        net.set_capacity(0, 1000.0);
        net.set_capacity(1, 100.0);
        net.join(0, &[0, 1], 200.0, 0.0);
        let c = last_change_for(&mut net, 0);
        assert!((c.done_at_s - 2.0).abs() < 1e-12, "200 B at 100 B/s");
    }

    #[test]
    fn capacity_touch_rerates_only_crossing_flows() {
        let mut net = FluidNet::new(2, 4);
        net.set_capacity(0, 1000.0);
        net.set_capacity(1, 1000.0);
        net.join(0, &[0], 1000.0, 0.0);
        net.join(1, &[1], 1000.0, 0.0);
        let mut ch = Vec::new();
        net.take_changes(&mut ch);
        net.set_capacity(0, 500.0);
        net.touch_link(0, 1.0);
        ch.clear();
        net.take_changes(&mut ch);
        assert_eq!(ch.len(), 1, "only the crossing flow re-rates");
        assert_eq!(ch[0].flow, 0);
        // 1000 B of flow 0: 1 s at 1000 B/s leaves 0... it finished at
        // t=1.0 exactly; remaining clamped to 0 -> done immediately.
        assert!((ch[0].done_at_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn join_rerates_sharers_in_ascending_id_order() {
        // 10 k flow slots, almost all idle; the sharers sit on the three
        // path links in an order that is neither ascending nor per-link
        // sorted, and one of them crosses two of the links (collected once).
        let mut net = FluidNet::new(4, 10_000);
        for l in 0..4 {
            net.set_capacity(l, 1e6);
        }
        let sharers: [(u32, &[u32]); 6] = [
            (9_000, &[2]),
            (17, &[0, 2]),
            (4_321, &[1]),
            (3, &[2]),
            (8_999, &[0]),
            (5_000, &[3]), // off the joiner's path: must not re-rate
        ];
        for (f, path) in sharers {
            net.join(f, path, 1e6, 0.0);
        }
        let mut ch = Vec::new();
        net.take_changes(&mut ch);
        ch.clear();
        net.join(2_500, &[0, 1, 2], 1e6, 0.5);
        net.take_changes(&mut ch);
        // What the full-table walk produced: the joiner, then every marked
        // flow by ascending id.
        let order: Vec<u32> = ch.iter().map(|c| c.flow).collect();
        assert_eq!(order, vec![2_500, 3, 17, 4_321, 8_999, 9_000]);
        // And a leave hands the share back in the same order, leaver excluded.
        ch.clear();
        net.leave(2_500, 0.75);
        net.take_changes(&mut ch);
        let order: Vec<u32> = ch.iter().map(|c| c.flow).collect();
        assert_eq!(order, vec![3, 17, 4_321, 8_999, 9_000]);
    }

    #[test]
    fn churn_compacts_link_lists() {
        let mut net = FluidNet::new(1, 64);
        net.set_capacity(0, 1000.0);
        for f in 0..40 {
            net.join(f, &[0], 10.0, f as f64);
            if f >= 1 {
                net.leave(f - 1, f as f64);
            }
        }
        assert_eq!(net.active_flows(), 1);
        // A leaver is unlinked as it leaves: the list holds the live
        // sharers and nothing else.
        assert_eq!(net.on_link[0], vec![39]);
        assert_eq!(net.on_link[0].len(), net.n_on[0] as usize);
    }
}

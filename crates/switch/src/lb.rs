//! The load-balancer plug-in interface.
//!
//! A leaf switch delegates its uplink choice for every upstream packet to a
//! [`LoadBalancer`]. The balancer only sees switch-local state — the
//! [`PortView`] of uplink queues plus the packet itself — matching the
//! deployment model of the paper (§3: "TLB is deployed at the switch,
//! without any modifications on the end-hosts").

use crate::port::OutPort;
use tlb_engine::{SimRng, SimTime};
use tlb_net::Packet;

/// A read-only view of a leaf switch's uplink ports, handed to the balancer
/// for each decision. Borrow-based: no per-packet allocation.
///
/// The `mask` (bit `i` set ⇔ uplink `i` is *live*) reflects route
/// reconvergence after failures: a dead uplink stays addressable (indices
/// are stable) but [`PortView::shortest_bytes_rand`] skips it, and schemes
/// consult [`PortView::is_live`] before sticking to a cached port. With all
/// bits set — the only state a failure-free run ever sees — the helper
/// visits ports in exactly the historical order, so masked and unmasked fabrics
/// produce bit-identical decisions and RNG consumption.
#[derive(Clone, Copy)]
pub struct PortView<'a> {
    ports: &'a [OutPort],
    mask: u64,
}

impl<'a> PortView<'a> {
    /// Wrap a slice of uplink ports, all live.
    pub fn new(ports: &'a [OutPort]) -> PortView<'a> {
        PortView {
            ports,
            mask: Self::full_mask(ports.len()),
        }
    }

    /// Wrap a slice of uplink ports with an explicit liveness mask. Bits
    /// above `ports.len()` are ignored; at least one in-range bit must be
    /// set (callers resolve the no-live-path case before the balancer).
    pub fn with_mask(ports: &'a [OutPort], mask: u64) -> PortView<'a> {
        let mask = mask & Self::full_mask(ports.len());
        assert!(mask != 0, "PortView::with_mask with no live uplink");
        PortView { ports, mask }
    }

    /// The all-live mask for `n` uplinks (`n` ≤ 64).
    #[inline]
    pub fn full_mask(n: usize) -> u64 {
        debug_assert!(n <= 64, "at most 64 uplinks per LB switch");
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// The liveness mask (bit `i` set ⇔ uplink `i` usable).
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// True if uplink `i` is live.
    #[inline]
    pub fn is_live(&self, i: usize) -> bool {
        self.mask & (1u64 << i) != 0
    }

    /// Number of live uplinks.
    #[inline]
    pub fn n_live(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// The index of the `k`-th live uplink (0-based, ascending index
    /// order). Panics if fewer than `k + 1` uplinks are live.
    #[inline]
    pub fn nth_live(&self, k: usize) -> usize {
        let mut m = self.mask;
        for _ in 0..k {
            m &= m - 1; // clear lowest set bit
        }
        debug_assert!(m != 0, "nth_live past the live count");
        m.trailing_zeros() as usize
    }

    /// A uniformly random live uplink: one `rng.index` draw over the live
    /// count, so a full mask draws exactly the index an unmasked spray did.
    #[inline]
    pub fn random_live(&self, rng: &mut SimRng) -> usize {
        self.nth_live(rng.index(self.n_live()))
    }

    /// Rank of live uplink `i` among the live uplinks (inverse of
    /// [`nth_live`](Self::nth_live)). With a full mask this is `i` itself.
    #[inline]
    pub fn live_rank(&self, i: usize) -> usize {
        debug_assert!(self.is_live(i), "live_rank of a dead uplink");
        (self.mask & ((1u64 << i) - 1)).count_ones() as usize
    }

    /// Number of uplinks (= equal-cost paths from this leaf), live or not.
    #[inline]
    pub fn n_ports(&self) -> usize {
        self.ports.len()
    }

    /// Queue length of uplink `i` in packets.
    #[inline]
    pub fn qlen_pkts(&self, i: usize) -> usize {
        self.ports[i].len_pkts()
    }

    /// Queue length of uplink `i` in bytes.
    #[inline]
    pub fn qlen_bytes(&self, i: usize) -> u64 {
        self.ports[i].len_bytes()
    }

    /// Capacity of uplink `i` in bytes/second.
    #[inline]
    pub fn link_bytes_per_sec(&self, i: usize) -> u64 {
        self.ports[i].link().bytes_per_sec
    }

    /// The uplink with the fewest queued bytes, breaking ties uniformly at
    /// random. Deterministic tie-breaking would herd every decision onto
    /// the lowest-indexed port whenever queues equalize (the common case
    /// under DCTCP's shallow queues), synchronizing flows onto one uplink —
    /// the classic pitfall randomized "power of choices" schemes avoid.
    pub fn shortest_bytes_rand(&self, rng: &mut tlb_engine::SimRng) -> usize {
        assert!(
            !self.ports.is_empty(),
            "PortView::shortest_bytes_rand on a leaf with no uplink ports \
             (build the topology with at least one spine)"
        );
        let first = self.nth_live(0);
        let mut best = first;
        let mut best_bytes = self.ports[first].len_bytes();
        let mut ties = 1u64;
        for (i, p) in self.ports.iter().enumerate().skip(first + 1) {
            if !self.is_live(i) {
                continue;
            }
            let b = p.len_bytes();
            if b < best_bytes {
                best = i;
                best_bytes = b;
                ties = 1;
            } else if b == best_bytes {
                // Reservoir sampling over the tied minima.
                ties += 1;
                if rng.gen_range(ties) == 0 {
                    best = i;
                }
            }
        }
        best
    }

    /// Mean *live* uplink capacity (bytes/s); TLB's model term `C` under
    /// (possibly asymmetric) heterogeneous uplinks.
    pub fn mean_capacity(&self) -> f64 {
        let sum: u64 = self
            .ports
            .iter()
            .enumerate()
            .filter(|(i, _)| self.is_live(*i))
            .map(|(_, p)| p.link().bytes_per_sec)
            .sum();
        sum as f64 / self.n_live() as f64
    }
}

/// A leaf-switch load-balancing scheme.
///
/// The baselines and extensions implement it in `tlb-lb`, TLB itself in
/// `tlb-core`. A balancer has no name of its own: the scheme registry that
/// builds it (`tlb_simnet::Scheme`) names it.
pub trait LoadBalancer: Send {
    /// Pick the uplink for an upstream packet. Called for **every** packet a
    /// local host sends through this leaf (data, ACKs of reverse flows, and
    /// SYN/FIN control packets — the latter drive TLB's flow counting).
    fn choose_uplink(
        &mut self,
        pkt: &Packet,
        view: PortView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize;

    /// Periodic control-plane work (e.g. TLB's granularity recomputation and
    /// idle-flow sampling). Called every [`LoadBalancer::tick_interval`]
    /// when that returns `Some`.
    fn on_tick(&mut self, _view: PortView<'_>, _now: SimTime) {}

    /// How often [`LoadBalancer::on_tick`] should run; `None` disables it.
    fn tick_interval(&self) -> Option<SimTime> {
        None
    }

    /// Bytes of switch state the scheme maintains right now (flow tables,
    /// counters). Used to reproduce Fig. 15(b)'s memory-overhead comparison.
    fn state_bytes(&self) -> usize {
        0
    }

    /// The current long-flow switching threshold in bytes, for schemes that
    /// have one (TLB). `None` for everything else; `Some(u64::MAX)` encodes
    /// an infinite (pinning) threshold. Used by diagnostics and the Fig. 7
    /// harness.
    fn q_threshold(&self) -> Option<u64> {
        None
    }

    /// How many times the scheme rerouted an established long flow, for
    /// schemes that distinguish the case (TLB: long flows move only when
    /// their current uplink's queue crosses `q_th`). `None` for schemes
    /// without the notion. The scenario fuzzer's reroute oracle reads this.
    fn long_reroutes(&self) -> Option<u64> {
        None
    }

    /// How many times the scheme was *forced* off a cached port because a
    /// failure took it down (the liveness mask cleared its bit), for
    /// schemes that cache per-flow/flowlet ports. Kept separate from
    /// [`LoadBalancer::long_reroutes`] so the fuzzer's pinned-TLB
    /// zero-*voluntary*-reroute oracle stays strict under failure
    /// schedules. `None` for schemes without cached ports.
    fn forced_reroutes(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no uplink ports")]
    fn shortest_bytes_rand_rejects_empty_view() {
        let mut rng = tlb_engine::SimRng::new(1);
        PortView::new(&[]).shortest_bytes_rand(&mut rng);
    }

    #[test]
    fn mask_skips_dead_ports() {
        let ps = OutPort::filled(&[3, 1, 2, 0]);
        // Ports 1 and 3 dead: shortest must come from {0, 2}.
        let v = PortView::with_mask(&ps, 0b0101);
        assert_eq!(v.n_live(), 2);
        assert!(v.is_live(0) && !v.is_live(1) && v.is_live(2) && !v.is_live(3));
        assert_eq!(v.nth_live(0), 0);
        assert_eq!(v.nth_live(1), 2);
        let mut rng = tlb_engine::SimRng::new(7);
        assert_eq!(v.shortest_bytes_rand(&mut rng), 2);
        // Dead port 0: the first-live seed moves off index 0 and the
        // empty live port 3 wins.
        let w = PortView::with_mask(&ps, 0b1010);
        assert_eq!(w.shortest_bytes_rand(&mut rng), 3);
    }

    #[test]
    fn random_live_draws_only_live_ports() {
        let ps = OutPort::filled(&[0; 5]);
        // Ports 0, 2 and 4 dead: every draw lands on 1 or 3, and each
        // takes exactly the draw `nth_live(rng.index(n_live))` takes.
        let v = PortView::with_mask(&ps, 0b01010);
        let mut rng = SimRng::new(5);
        let mut twin = rng.clone();
        let mut hits = [0usize; 5];
        for _ in 0..400 {
            let p = v.random_live(&mut rng);
            assert_eq!(p, v.nth_live(twin.index(2)));
            hits[p] += 1;
        }
        assert_eq!([hits[0], hits[2], hits[4]], [0, 0, 0], "{hits:?}");
        assert!(hits[1] > 150 && hits[3] > 150, "{hits:?}");
    }

    #[test]
    fn full_mask_matches_unmasked() {
        let ps = OutPort::filled(&[5, 2, 7, 2, 2]);
        let a = PortView::new(&ps);
        let b = PortView::with_mask(&ps, PortView::full_mask(ps.len()));
        assert_eq!(a.mask(), b.mask());
        // Identical RNG consumption on the randomized tie-break.
        let mut r1 = tlb_engine::SimRng::new(9);
        let mut r2 = tlb_engine::SimRng::new(9);
        for _ in 0..200 {
            assert_eq!(
                a.shortest_bytes_rand(&mut r1),
                b.shortest_bytes_rand(&mut r2)
            );
        }
    }

    #[test]
    #[should_panic(expected = "no live uplink")]
    fn all_dead_mask_rejected() {
        let ps = OutPort::filled(&[1, 2]);
        PortView::with_mask(&ps, 0b100); // only out-of-range bit set
    }

    #[test]
    fn view_reports_lengths() {
        let ps = OutPort::filled(&[0, 4]);
        let v = PortView::new(&ps);
        assert_eq!(v.n_ports(), 2);
        assert_eq!(v.qlen_pkts(0), 0);
        assert_eq!(v.qlen_pkts(1), 4);
        assert_eq!(v.qlen_bytes(1), 6000);
        assert_eq!(v.link_bytes_per_sec(0), 125_000_000);
        assert_eq!(v.mean_capacity(), 125_000_000.0);
    }
}

#[cfg(test)]
mod rand_tiebreak_tests {
    use super::*;

    use tlb_engine::SimRng;

    #[test]
    fn rand_tiebreak_is_uniform_over_minima() {
        // Ports 1, 3, 4 tie at the minimum: each should win ~1/3 of calls.
        let ps = OutPort::filled(&[5, 2, 7, 2, 2]);
        let v = PortView::new(&ps);
        let mut rng = SimRng::new(42);
        let mut counts = [0usize; 5];
        let n = 9000;
        for _ in 0..n {
            counts[v.shortest_bytes_rand(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        for &i in &[1usize, 3, 4] {
            assert!(
                (2500..3500).contains(&counts[i]),
                "port {i} won {} of {n}: {counts:?}",
                counts[i]
            );
        }
    }

    #[test]
    fn rand_tiebreak_unique_minimum_is_deterministic() {
        let ps = OutPort::filled(&[4, 1, 9]);
        let v = PortView::new(&ps);
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(v.shortest_bytes_rand(&mut rng), 1);
        }
    }

    #[test]
    fn rand_tiebreak_single_port() {
        let ps = OutPort::filled(&[3]);
        let v = PortView::new(&ps);
        let mut rng = SimRng::new(2);
        assert_eq!(v.shortest_bytes_rand(&mut rng), 0);
    }
}

//! Permutation traffic: every host sends one long flow to a distinct
//! receiver. The classic stress pattern of the load-balancing literature
//! (CONGA, DRILL, Presto all use it): with `n` hosts per rack and `n`
//! uplinks, a perfect balancer sustains line rate for everyone, while hash
//! collisions (ECMP) leave some uplinks idle and others doubly loaded.

use crate::sizes::SizeDist;
use crate::spec::FlowSpec;
use tlb_engine::{SimRng, SimTime};
use tlb_net::{Fabric, FlowId, HostId};

/// Generate a random inter-rack permutation: each host sends exactly one
/// flow of `dist`-sampled size to a host in another rack, and each host
/// receives at most one flow. All flows start at t = 0.
pub fn permutation(topo: &Fabric, dist: &impl SizeDist, rng: &mut SimRng) -> Vec<FlowSpec> {
    assert!(topo.n_leaves() >= 2, "permutation needs at least 2 racks");
    let n = topo.n_hosts();
    // Random derangement-ish matching: shuffle receivers until every pair
    // is inter-rack. Rejection is cheap for >= 2 racks of equal size.
    let mut receivers: Vec<usize> = (0..n).collect();
    loop {
        rng.shuffle(&mut receivers);
        let ok = (0..n).all(|s| {
            let d = receivers[s];
            d != s && topo.leaf_of(HostId(s as u32)) != topo.leaf_of(HostId(d as u32))
        });
        if ok {
            break;
        }
    }
    (0..n)
        .map(|s| FlowSpec {
            id: FlowId(s as u32),
            src: HostId(s as u32),
            dst: HostId(receivers[s] as u32),
            size_bytes: dist.sample(rng),
            start: SimTime::ZERO,
            deadline: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::FixedBytes;
    use tlb_net::LeafSpineBuilder;

    #[test]
    fn is_a_valid_inter_rack_matching() {
        let topo: Fabric = LeafSpineBuilder::new(4, 4, 8).build();
        let mut rng = SimRng::new(3);
        let flows = permutation(&topo, &FixedBytes(1_000_000), &mut rng);
        assert_eq!(flows.len(), 32);
        // Each host sends once...
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.src, HostId(i as u32));
            assert_ne!(topo.leaf_of(f.src), topo.leaf_of(f.dst));
        }
        // ...and receives at most once.
        let mut dsts: Vec<u32> = flows.iter().map(|f| f.dst.0).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts.len(), 32);
    }

    #[test]
    fn deterministic_per_seed() {
        let topo: Fabric = LeafSpineBuilder::new(2, 4, 8).build();
        let a = permutation(&topo, &FixedBytes(1000), &mut SimRng::new(9));
        let b = permutation(&topo, &FixedBytes(1000), &mut SimRng::new(9));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dst, y.dst);
        }
    }

    #[test]
    fn two_rack_permutation_crosses_racks() {
        let topo: Fabric = LeafSpineBuilder::new(2, 2, 4).build();
        let mut rng = SimRng::new(1);
        let flows = permutation(&topo, &FixedBytes(1000), &mut rng);
        for f in &flows {
            assert_ne!(topo.leaf_of(f.src), topo.leaf_of(f.dst));
        }
    }
}

//! Scheduled fabric administration: the admin schedule's one handler —
//! link-quality changes, failures and repairs — and the routing
//! reconvergence a failure or repair forces. A handler mutates only state
//! every shard replica holds a full copy of (port props, admin flags,
//! reach masks), so under sharding each replica runs it whole on itself at
//! the event's own `(time, key)`; the hybrid tier's reaction at the end of
//! each is a no-op there (sharding refuses hybrid). A rate change rewrites
//! the port's props and nothing else: packets already on the wire keep
//! their arrival times, and the arena behind the link pipes was reserved
//! at build for every state the schedule reaches.

use super::link;
use super::portmap::PortId;
use super::Net;
use crate::config::{Change, Target};
use tlb_engine::SimTime;

impl Net<'_> {
    /// Apply the `i`-th configured admin event. A rate change rewrites
    /// both directions of its uplink by [`Change::apply`]. A failure or
    /// repair flips the admin state of the target port(s) and their
    /// reverse directions, reconverges routing (each replica's reach
    /// recompute reads the admin state of the *whole* fabric), then
    /// demotes the fluid tails that lost a link.
    pub(super) fn on_admin(&mut self, i: usize, now: SimTime) {
        let ev = self.cfg.admin_events[i];
        let down = match ev.change {
            Change::Down => true,
            Change::Up => false,
            Change::Rate { .. } => {
                let Target::Link { sw, up } = ev.target else {
                    unreachable!("validate refuses a rate change on a switch")
                };
                let changed = link::uplink_pair(&self.pmap, sw, up);
                for p in changed {
                    let port = &mut self.ports[p as usize];
                    port.set_link(ev.change.apply(port.link()));
                }
                return self.fluid_link_update(changed, now);
            }
        };
        match ev.target {
            Target::Link { sw, up } => {
                let p = self.pmap.sw_up(sw.index() as u32, up.index() as u32);
                self.set_link_state(p, down);
            }
            Target::Switch { sw } => {
                for p in self.pmap.sw[sw].all() {
                    self.set_link_state(p, down);
                }
            }
        }
        self.recompute_reach();
        self.demote_failed(now);
    }

    /// Take one directed port and its reverse down (or back up). Queued
    /// and in-service packets drain normally; while down, new admissions
    /// drop at the port with ordinary accounting. Idempotent: a failure
    /// targeting an already-dead port (duplicate schedule entries, or a
    /// switch failure overlapping a dead link) changes nothing.
    fn set_link_state(&mut self, p: PortId, down: bool) {
        for q in [p, self.pmap.rev[p as usize]] {
            self.ports[q as usize].set_down(down);
        }
    }

    /// Reconverge routing from port admin state. Runs only at failure
    /// events (and once at build) — never on the per-packet path.
    pub(super) fn recompute_reach(&mut self) {
        self.pmap.recompute_reach(&self.ports, &mut self.reach);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{AdminEvent, Change, Target};
    use crate::{Scheme, Simulation};
    use tlb_engine::SimTime;
    use tlb_net::{FlowId, HostId, LeafId, SpineId};
    use tlb_workload::FlowSpec;

    #[test]
    fn mid_run_link_change_applies() {
        // One path only; brown out at t=1ms; a long flow must slow down after.
        let mut cfg = crate::SimConfig::basic_paper(Scheme::Ecmp);
        cfg.topo = tlb_net::LeafSpineBuilder::new(2, 1, 2)
            .link_gbps(1.0)
            .target_rtt(SimTime::from_micros(100))
            .build();
        cfg.admin_events.push(AdminEvent {
            at: SimTime::from_millis(1),
            target: Target::Link {
                sw: LeafId(0),
                up: SpineId(0),
            },
            change: Change::Rate {
                new_prop_delay: None,
                bw_factor: 0.5,
                extra_delay: SimTime::ZERO,
            },
        });
        let r = Simulation::new(
            cfg,
            vec![FlowSpec {
                id: FlowId(0),
                src: HostId(0),
                dst: HostId(2),
                size_bytes: 5_000_000,
                start: SimTime::ZERO,
                deadline: None,
            }],
        )
        .run();
        assert_eq!(r.completed, 1);
        let fct = r.fct.fct_of(FlowId(0)).unwrap();
        // 5 MB at 1 Gbit/s ~ 40 ms; at 0.5 Gbit/s after the first ms ~ 79 ms.
        assert!(fct > 0.06, "brownout had no effect: fct {fct}");
    }
}

//! Differential conformance oracle for the TLB control law.
//!
//! Drives a real [`Tlb`] instance packet-by-packet against an independent
//! reference mirror of the paper's rules (§3/§5): SYN/FIN flow counting,
//! 100 KB reclassification, short-flows-per-packet / long-flows-sticky
//! forwarding, idle purging, and the Eq. 9 threshold recompute every
//! update interval. The mirror never peeks at `Tlb` internals — it checks
//! observable outputs only:
//!
//! * every chosen uplink obeys the forwarding rule for the flow's class
//!   (shortest-queue membership for short/control packets; stickiness
//!   below `q_th`, reroute-to-shortest at or above it);
//! * `Tlb::counts()`, which counts TLB's flow table, tracks the
//!   reference's incremental `(m_S, m_L)` (SYN/re-learn +1, reclassify,
//!   FIN −1, purge recount) after every op;
//! * `Tlb::long_reroutes()` tracks the reference reroute count;
//! * after every granularity update, `Tlb::q_th_bytes()` equals
//!   [`expected_q_th`] recomputed from first principles.
//!
//! The mutation self-check arms a seeded divergence in this harness (one
//! granularity update ticked over a view the reference does not use) and
//! asserts this oracle catches it *and* that the failure shrinks into a
//! replayable regression file — the end-to-end proof that the fuzzing
//! pipeline has teeth.

use tlb_core::{ThresholdMode, Tlb, TlbConfig};
use tlb_engine::{SimRng, SimTime};
use tlb_model::{q_th_min, ModelParams};
use tlb_net::{FlowId, HostId, Packet, PktKind, MSS_BYTES, RWND_BYTES};
use tlb_switch::{LoadBalancer, OutPort, PortView};

/// One scripted op: `(kind % 8, flow_id, queue_shape_selector)`.
/// Kinds: 0 = SYN, 6 = FIN, 7 = granularity tick, anything else = DATA
/// (51 kB payload). The skew — 5/8 data, 1/8 tick — keeps enough bytes
/// flowing between granularity updates that long flows exist when the
/// threshold recomputes, which both the stickiness and the Eq. 9 checks
/// need to bite.
pub type ConformanceOp = (u8, u32, u16);

/// Payload per DATA op — two of them push a flow past the 100 KB boundary,
/// so random scripts exercise both classes and the mid-life crossing.
const PAYLOAD: u32 = 51_000;

/// Re-derive the Eq. 9 threshold the way [`Tlb::on_tick`] must: from the
/// post-purge flow counts, the configuration, and the port view. Public so
/// tests can assert against an independently computed value.
pub fn expected_q_th(tlb: &Tlb, n_ports: usize, mean_capacity: f64) -> u64 {
    match tlb.config().threshold_mode {
        ThresholdMode::Fixed(q) => q,
        ThresholdMode::Adaptive => {
            let (m_short, m_long) = tlb.counts();
            if m_long == 0 {
                return 0;
            }
            let cfg = tlb.config();
            let params = ModelParams {
                n_paths: n_ports as f64,
                m_short: m_short as f64,
                m_long: m_long as f64,
                capacity: mean_capacity,
                rtt: cfg.rtt.as_secs_f64(),
                interval: cfg.update_interval.as_secs_f64(),
                w_long: RWND_BYTES as f64,
                mean_short: ModelParams::paper_defaults().mean_short,
                mss: MSS_BYTES as f64,
                deadline: cfg.deadline.as_secs_f64(),
            };
            q_th_min(&params).as_bytes_saturating()
        }
    }
}

/// Reference per-flow record (mirror of the paper's flow-table entry).
#[derive(Clone, Copy)]
struct MirrorFlow {
    bytes: u64,
    long: bool,
    counted: bool,
    port: usize,
    last_seen: SimTime,
}

/// Run one scripted conformance session. `fault` seeds a divergence: the
/// granularity update with that index (0-based, compare [`Tlb::updates`])
/// ticks TLB over all uplinks but the last, while the Eq. 9 reference
/// recomputes over all of them. Returns the first observed divergence
/// between the real TLB and the reference mirror.
pub fn run_conformance(
    n_ports: usize,
    ops: &[ConformanceOp],
    fault: Option<u64>,
) -> Result<(), String> {
    assert!(n_ports >= 2, "need at least two uplinks");
    let cfg = TlbConfig::paper_default();
    let mut tlb = Tlb::new(cfg);

    let mut rng = SimRng::new(7);
    let mut now = SimTime::ZERO;
    let mut mirror: std::collections::BTreeMap<u32, MirrorFlow> = std::collections::BTreeMap::new();
    let (mut m_short, mut m_long) = (0usize, 0usize);
    let mut reroutes = 0u64;

    for (i, &(kind, flow, qsel)) in ops.iter().enumerate() {
        // Deterministic pseudo-random queue shape for this op.
        let lens: Vec<usize> = (0..n_ports)
            .map(|p| {
                ((qsel as u64)
                    .wrapping_mul(2_654_435_761)
                    .wrapping_add(p as u64 * 7_919)
                    .wrapping_add(i as u64 * 104_729)
                    % 40) as usize
            })
            .collect();
        let qlen = |p: usize| lens[p] as u64 * 1500;
        let min_bytes = (0..n_ports).map(qlen).min().unwrap();
        let ports = OutPort::filled(&lens);

        if kind % 8 == 7 {
            // Granularity tick: purge, recount, recompute.
            now += cfg.update_interval;
            let seen = match fault {
                Some(idx) if idx == tlb.updates() => &ports[..n_ports - 1],
                _ => &ports[..],
            };
            tlb.on_tick(PortView::new(seen), now);
            let cutoff = now.saturating_sub(cfg.update_interval);
            mirror.retain(|_, f| f.last_seen >= cutoff);
            m_short = mirror.values().filter(|f| f.counted && !f.long).count();
            m_long = mirror.values().filter(|f| f.counted && f.long).count();
            if tlb.counts() != (m_short, m_long) {
                return Err(format!(
                    "op {i}: counts diverged after tick: tlb {:?} vs reference {:?}",
                    tlb.counts(),
                    (m_short, m_long)
                ));
            }
            let mean_capacity = PortView::new(&ports).mean_capacity();
            let expect = expected_q_th(&tlb, n_ports, mean_capacity);
            if tlb.q_th_bytes() != expect {
                return Err(format!(
                    "op {i}: q_th diverged after update {}: tlb {} vs Eq. 9 reference {} \
                     (m_S={m_short}, m_L={m_long})",
                    tlb.updates() - 1,
                    tlb.q_th_bytes(),
                    expect
                ));
            }
            continue;
        }

        now += SimTime::from_micros(5);
        let q_th_before = tlb.q_th_bytes();
        let pkt = match kind % 8 {
            0 => Packet::control(FlowId(flow), HostId(0), HostId(9), PktKind::Syn, 0, now),
            6 => Packet::control(FlowId(flow), HostId(0), HostId(9), PktKind::Fin, 0, now),
            _ => Packet::data(
                FlowId(flow),
                HostId(0),
                HostId(9),
                i as u32,
                PAYLOAD,
                40,
                now,
            ),
        };
        let chosen = tlb.choose_uplink(&pkt, PortView::new(&ports), now, &mut rng);
        if chosen >= n_ports {
            return Err(format!("op {i}: chose out-of-range port {chosen}"));
        }

        match kind % 8 {
            0 => {
                // SYN: counted insert (or upgrade), forwarded to a shortest
                // queue, flow re-pinned there.
                if qlen(chosen) != min_bytes {
                    return Err(format!(
                        "op {i}: SYN routed to port {chosen} ({} B) but shortest is {min_bytes} B",
                        qlen(chosen)
                    ));
                }
                let f = mirror.entry(flow).or_insert(MirrorFlow {
                    bytes: 0,
                    long: false,
                    counted: false,
                    port: chosen,
                    last_seen: now,
                });
                if !f.counted {
                    f.counted = true;
                    if f.long {
                        m_long += 1;
                    } else {
                        m_short += 1;
                    }
                }
                f.port = chosen;
                f.last_seen = now;
            }
            1..=5 => {
                let f = mirror.entry(flow).or_insert(MirrorFlow {
                    bytes: 0,
                    long: false,
                    counted: false,
                    port: chosen,
                    last_seen: now,
                });
                let relearned = if !f.counted && f.bytes == 0 && !f.long {
                    // Fresh (or purged-and-resumed) flow: relearned counted.
                    f.counted = true;
                    true
                } else {
                    false
                };
                f.last_seen = now;
                let cur = f.port;
                f.bytes += PAYLOAD as u64;
                let became_long = !f.long && f.bytes > TlbConfig::SHORT_THRESHOLD_BYTES;
                if became_long {
                    f.long = true;
                }
                if f.long {
                    // Long rule: sticky below q_th; at/above it, move to a
                    // shortest queue (a same-port "move" is not a reroute).
                    if qlen(cur) >= q_th_before {
                        if qlen(chosen) != min_bytes {
                            return Err(format!(
                                "op {i}: long flow {flow} rerouted to non-shortest port {chosen}"
                            ));
                        }
                        if chosen != cur {
                            reroutes += 1;
                        }
                        f.port = chosen;
                    } else if chosen != cur {
                        return Err(format!(
                            "op {i}: long flow {flow} moved {cur} -> {chosen} while its queue \
                             ({} B) is below q_th ({q_th_before} B)",
                            qlen(cur)
                        ));
                    }
                } else {
                    // Short rule: every packet to a shortest queue.
                    if qlen(chosen) != min_bytes {
                        return Err(format!(
                            "op {i}: short flow {flow} routed to port {chosen} ({} B) but \
                             shortest is {min_bytes} B",
                            qlen(chosen)
                        ));
                    }
                    f.port = chosen;
                }
                if relearned {
                    if f.long {
                        m_long += 1;
                    } else {
                        m_short += 1;
                    }
                } else if became_long && f.counted {
                    m_short = m_short.saturating_sub(1);
                    m_long += 1;
                }
            }
            _ => {
                // FIN: decrement and forget; the FIN itself takes a shortest
                // queue.
                if qlen(chosen) != min_bytes {
                    return Err(format!(
                        "op {i}: FIN routed to port {chosen} ({} B) but shortest is {min_bytes} B",
                        qlen(chosen)
                    ));
                }
                if let Some(f) = mirror.remove(&flow) {
                    if f.counted {
                        if f.long {
                            m_long = m_long.saturating_sub(1);
                        } else {
                            m_short = m_short.saturating_sub(1);
                        }
                    }
                }
            }
        }

        if tlb.counts() != (m_short, m_long) {
            return Err(format!(
                "op {i}: counts diverged: tlb {:?} vs reference {:?}",
                tlb.counts(),
                (m_short, m_long)
            ));
        }
        if tlb.long_reroutes() != reroutes {
            return Err(format!(
                "op {i}: reroute count diverged: tlb {} vs reference {reroutes}",
                tlb.long_reroutes()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Script ops as a proptest strategy: enough ticks and data packets
    /// that flows cross the boundary and thresholds move.
    fn ops_strategy() -> impl Strategy<Value = (usize, Vec<ConformanceOp>)> {
        (
            2usize..6,
            proptest::collection::vec((0u8..8, 0u32..4, 0u16..64), 1..120),
        )
    }

    proptest! {
        /// The real TLB must match the reference mirror on every script.
        #[test]
        fn prop_tlb_conforms_to_reference((n_ports, ops) in ops_strategy()) {
            if let Err(e) = run_conformance(n_ports, &ops, None) {
                return Err(proptest::TestCaseError::fail(e));
            }
        }
    }

    #[test]
    fn handcrafted_script_covers_all_rules() {
        // SYN, cross the boundary (2 x 51 kB), tick, reroute chances, FIN.
        let ops: Vec<ConformanceOp> = vec![
            (0, 1, 10),
            (1, 1, 3),
            (2, 1, 22), // 102 kB: long now
            (7, 0, 0),  // tick: q_th recomputed with m_L = 1
            (3, 1, 9),
            (4, 2, 30), // second flow, short
            (7, 0, 5),
            (5, 1, 55),
            (6, 1, 2), // FIN
            (7, 0, 1),
        ];
        run_conformance(4, &ops, None).unwrap();
    }

    /// Mutation self-check: arm the seeded divergence (granularity update
    /// 1 recomputes over one uplink too few) and require that (a) the
    /// conformance oracle catches it within the budgeted cases, (b) the
    /// failure shrinks and persists to a regression file, and (c)
    /// replaying that file alone reproduces the failure. This is the proof
    /// the fuzzing pipeline detects a real control-law bug end to end.
    #[test]
    fn mutation_self_check_catches_a_tick_over_the_wrong_view() {
        use proptest::TestCaseError;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let dir = std::env::temp_dir().join(format!("tlb-fuzz-mutation-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let run = |cases: u32| {
            let dir = dir.clone();
            catch_unwind(AssertUnwindSafe(move || {
                proptest::run_cases_with(
                    "mutation_self_check",
                    cases,
                    0,
                    Some(dir),
                    ops_strategy(),
                    |(n_ports, ops)| {
                        run_conformance(n_ports, &ops, Some(1)).map_err(TestCaseError::fail)
                    },
                );
            }))
        };

        // (a) The oracle must catch the armed bug.
        let first = run(64);
        assert!(
            first.is_err(),
            "the seeded wrong-view tick went undetected by the conformance oracle"
        );

        // (b) The failure must have shrunk and persisted.
        let file = dir.join("mutation_self_check.txt");
        let body = std::fs::read_to_string(&file).expect("regression file must be written");
        assert!(
            body.lines()
                .any(|l| l.starts_with("cc ") && l.contains("# shrunk input:")),
            "regression file must hold a shrunk case:\n{body}"
        );

        // (c) Replaying the persisted case alone (zero fresh cases) must
        // reproduce the failure.
        let replay = run(0);
        assert!(replay.is_err(), "persisted regression did not replay");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

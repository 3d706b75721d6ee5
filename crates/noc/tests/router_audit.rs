//! Router bookkeeping under random traffic: `NocNetwork::audit()` must hold
//! after every single cycle, on every topology and routing the router
//! supports, with and without a flaky link.
//!
//! The audit cross-checks each router's credit counts, buffer depths,
//! output-VC ownership, clock-gating counters and the per-port VC masks the
//! allocators walk, so a bookkeeping slip shows up on the cycle it happens
//! instead of as a deadlock or a wrong latency much later.

use proptest::prelude::*;
use ra_noc::{FaultPlan, NocConfig, NocNetwork, Routing, TopologyKind};
use ra_sim::{Cycle, MessageClass, NetMessage, Network, NodeId, Pcg32};

/// The network shapes under test. Every case is a 4x4 node grid.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Mesh,
    /// Dateline VC classes: the VC band splits in two halves per vnet.
    Torus,
    CMesh,
    O1Turn,
    /// A mesh whose interior links drop flits; lost heads leave orphaned
    /// body/tail flits that route computation must discard.
    Flaky,
}

fn config(shape: Shape, vcs: u32, depth: u32, seed: u64) -> NocConfig {
    let cfg = NocConfig::new(4, 4)
        .with_vcs_per_vnet(vcs)
        .with_vc_depth(depth)
        .with_seed(seed);
    match shape {
        Shape::Mesh => cfg,
        Shape::Torus => cfg.with_topology(TopologyKind::Torus),
        Shape::CMesh => cfg.with_topology(TopologyKind::CMesh { concentration: 2 }),
        Shape::O1Turn => cfg.with_routing(Routing::O1Turn),
        Shape::Flaky => cfg.with_faults(
            FaultPlan::new()
                .flaky_link(5, 1, 0, 2_000, 0.3)
                .flaky_link(6, 3, 0, 2_000, 0.3)
                .flaky_link(9, 0, 100, 1_500, 0.5),
        ),
    }
}

fn random_message(rng: &mut Pcg32, id: u64, nodes: u32) -> NetMessage {
    let class = MessageClass::ALL[rng.below(MessageClass::COUNT as u32) as usize];
    // 8..=72 bytes: single-flit control messages up to 5-flit data packets.
    let bytes = 8 + 16 * rng.below(5);
    NetMessage::new(
        id,
        NodeId(rng.below(nodes)),
        NodeId(rng.below(nodes)),
        class,
        bytes,
    )
}

/// Drives `cycles` cycles of random traffic, auditing after each, and
/// returns the network and the number of messages injected.
fn drive_audited(cfg: NocConfig, seed: u64, rate_pct: u32, cycles: u64) -> (NocNetwork, u64) {
    let nodes = cfg.shape.nodes() as u32;
    let mut net = NocNetwork::new(cfg).unwrap();
    let mut rng = Pcg32::new(seed, 0xA0D1);
    let mut id = 0;
    for now in 0..cycles {
        for _ in 0..nodes {
            if rng.below(100) < rate_pct {
                net.inject(random_message(&mut rng, id, nodes), Cycle(now));
                id += 1;
            }
        }
        net.tick(Cycle(now));
        if let Err(e) = net.audit() {
            panic!("audit failed after cycle {now}: {e}");
        }
    }
    (net, id)
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Mesh),
        Just(Shape::Torus),
        Just(Shape::CMesh),
        Just(Shape::O1Turn),
        Just(Shape::Flaky),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every cycle of random multi-class, multi-flit traffic leaves every
    /// router's bookkeeping consistent; fault-free networks then drain
    /// every message, still auditing clean.
    #[test]
    fn router_audit_holds_after_every_cycle(
        shape in arb_shape(),
        vcs_half in 1u32..4,
        depth in 1u32..5,
        seed in 0u64..10_000,
        rate_pct in 1u32..12,
    ) {
        // Even VC counts keep the torus dateline and O1TURN configs valid.
        let vcs = 2 * vcs_half;
        let cfg = config(shape, vcs, depth, seed);
        let (mut net, injected) = drive_audited(cfg, seed, rate_pct, 600);
        prop_assert_eq!(net.stats().injected, injected);
        if !matches!(shape, Shape::Flaky) {
            net.run_until_drained(200_000).unwrap();
            net.audit().unwrap();
            prop_assert_eq!(net.stats().delivered, injected);
            prop_assert_eq!(net.buffered_flits(), 0);
        }
    }
}

/// The flaky-link case really loses heads and discards their orphans, so
/// the property above covers that path of route computation.
#[test]
fn flaky_links_drop_flits_under_audit() {
    let (net, _) = drive_audited(config(Shape::Flaky, 2, 2, 7), 7, 8, 1_000);
    assert!(net.stats().faults.flits_dropped_flaky > 0);
}

/// All-pairs delivery at the largest VC count `NocConfig::validate`
/// accepts (64 per vnet, 192 per port): the allocators must see VCs in
/// every mask word, not just the first 64.
#[test]
fn all_pairs_deliver_at_sixty_four_vcs_per_vnet() {
    for topology in [TopologyKind::Mesh, TopologyKind::Torus] {
        let cfg = NocConfig::new(4, 4)
            .with_topology(topology)
            .with_vcs_per_vnet(64)
            .with_vc_depth(2);
        cfg.validate().unwrap();
        let mut net = NocNetwork::new(cfg).unwrap();
        let mut id = 0;
        for src in 0..16 {
            for dst in 0..16 {
                // Rotate classes so every vnet band (and so every mask
                // word of a port) carries traffic.
                let class = MessageClass::ALL[(id % MessageClass::COUNT as u64) as usize];
                net.inject(
                    NetMessage::new(id, NodeId(src), NodeId(dst), class, 40),
                    Cycle(0),
                );
                id += 1;
            }
        }
        let mut now = 0;
        while net.in_flight() > 0 {
            net.tick(Cycle(now));
            net.audit().unwrap();
            now += 1;
            assert!(
                now < 20_000,
                "{topology:?}: {} messages undelivered",
                net.in_flight()
            );
        }
        assert_eq!(net.stats().delivered, id, "{topology:?}");
        assert_eq!(net.buffered_flits(), 0, "{topology:?}");
    }
}

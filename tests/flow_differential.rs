//! Differential check of [`FlowVector::build`] against the pair-by-pair
//! path walk it replaced.
//!
//! The oracle below routes every (source, destination) pair on its own,
//! forking at each adaptive bundle, and keeps transitions in hash maps:
//! slow, but obviously a direct reading of the routing. The library build
//! merges all sources headed for one destination per channel. Both must
//! give the same transition key sets, the same flows, weights and `D̄` to
//! within float reassociation, and the same partition report.

use std::collections::HashMap;
use wormsim::faults::link_faults;
use wormsim::prelude::*;
use wormsim::topology::graph::NodeKind;
use wormsim::topology::hypercube::Hypercube;
use wormsim::topology::ids::{ChannelId, NodeId};
use wormsim::topology::mesh::Mesh;
use wormsim::workload::FlowHop;

/// What the oracle computes: per-channel unit flows, per-channel
/// continuation weights and the pattern-weighted distance.
struct OracleFlows {
    unit_flows: Vec<f64>,
    transitions: Vec<HashMap<usize, f64>>,
    avg_distance: f64,
}

/// One branch of a partially routed pair flow.
#[derive(Clone, Copy)]
struct Front {
    node: NodeId,
    via: usize,
    frac: f64,
    hops: usize,
}

/// The pair-by-pair walk: every pair's flow is pushed separately, split
/// evenly at adaptive bundles, and checked for loops, misrouted ejections
/// and empty bundles on the way.
fn pairwise_build(
    routing: &dyn FlowRouting,
    pattern: &DestinationPattern,
) -> Result<OracleFlows, WorkloadError> {
    let net = routing.network();
    let n_pe = net.num_processors();
    pattern.validate(n_pe)?;
    let n_ch = net.num_channels();
    let mut unit_flows = vec![0.0f64; n_ch];
    let mut transitions: Vec<HashMap<usize, f64>> = vec![HashMap::new(); n_ch];
    let mut weighted_hops = 0.0f64;
    let hop_cap = 4 * net.num_nodes();

    for src in 0..n_pe {
        // Summed per source first: folding ~10⁶ tiny path terms straight
        // into one total drifts it by ~1e-11 relative at N = 256.
        let mut src_hops = 0.0f64;
        for dst in 0..n_pe {
            let pair = pattern.dest_prob(src, dst, n_pe);
            if dst == src || pair == 0.0 {
                continue;
            }
            if !routing.reachable(src, dst) {
                return Err(WorkloadError::Disconnected { src, dest: dst });
            }
            let inject = net.processors()[src].inject;
            unit_flows[inject.index()] += pair;
            let mut frontier = vec![Front {
                node: net.channel(inject).dst,
                via: inject.index(),
                frac: pair,
                hops: 1,
            }];
            while let Some(f) = frontier.pop() {
                if f.hops > hop_cap {
                    return Err(WorkloadError::Routing(format!(
                        "route {src}->{dst} exceeded {hop_cap} hops"
                    )));
                }
                let (next, share): (Vec<ChannelId>, f64) = match routing.flow_hop(f.node, dst) {
                    FlowHop::Eject => {
                        let eject = net.processors()[dst].eject;
                        if net.channel(eject).src != f.node {
                            return Err(WorkloadError::Routing(format!(
                                "route {src}->{dst} ejected at the wrong switch"
                            )));
                        }
                        (vec![eject], f.frac)
                    }
                    FlowHop::Deterministic(ch) => (vec![ch], f.frac),
                    FlowHop::Adaptive([]) => {
                        return Err(WorkloadError::Routing(format!(
                            "route {src}->{dst}: empty adaptive bundle"
                        )))
                    }
                    FlowHop::Adaptive(members) => (members.to_vec(), f.frac / members.len() as f64),
                };
                for ch in next {
                    unit_flows[ch.index()] += share;
                    *transitions[f.via].entry(ch.index()).or_insert(0.0) += share;
                    let to = net.channel(ch).dst;
                    match net.node(to).kind {
                        NodeKind::Processor { index } if index != dst => {
                            return Err(WorkloadError::Routing(format!(
                                "flow for destination {dst} delivered to processor {index}"
                            )))
                        }
                        NodeKind::Processor { .. } => src_hops += share * (f.hops + 1) as f64,
                        NodeKind::Switch { .. } => frontier.push(Front {
                            node: to,
                            via: ch.index(),
                            frac: share,
                            hops: f.hops + 1,
                        }),
                    }
                }
            }
        }
        weighted_hops += src_hops;
    }
    Ok(OracleFlows {
        unit_flows,
        transitions,
        avg_distance: weighted_hops / n_pe as f64,
    })
}

fn assert_rel_close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-12 * want.abs(),
        "{what}: {got} vs oracle {want}"
    );
}

/// Builds `pattern` both ways on `routing` and asserts agreement.
fn assert_matches_oracle(name: &str, routing: &dyn FlowRouting, pattern: &DestinationPattern) {
    let oracle = pairwise_build(routing, pattern).unwrap();
    let flows = FlowVector::build(routing, pattern).unwrap();
    let case = format!("{name} {pattern:?}");
    assert_eq!(flows.num_channels(), oracle.unit_flows.len(), "{case}");
    for (c, want) in oracle.transitions.iter().enumerate() {
        let ch = ChannelId(c);
        assert_rel_close(
            flows.unit_flow(ch),
            oracle.unit_flows[c],
            &format!("{case} unit flow of channel {c}"),
        );
        let got = flows.transitions(ch);
        let mut want_keys: Vec<usize> = want.keys().copied().collect();
        want_keys.sort_unstable();
        let got_keys: Vec<usize> = got.iter().map(|&(to, _)| to).collect();
        assert_eq!(
            got_keys, want_keys,
            "{case}: transition keys of channel {c}"
        );
        for &(to, w) in got {
            assert_rel_close(w, want[&to], &format!("{case} transition {c}->{to}"));
        }
    }
    assert_rel_close(
        flows.avg_distance(),
        oracle.avg_distance,
        &format!("{case} D̄"),
    );
}

/// `all_basic()` plus transpose (every size used here is a square).
fn patterns() -> Vec<DestinationPattern> {
    let mut ps = DestinationPattern::all_basic();
    ps.push(DestinationPattern::Transpose);
    ps
}

#[test]
fn merged_build_matches_pairwise_walk_on_bfts() {
    for n in [16usize, 64, 256] {
        let tree = ButterflyFatTree::new(BftParams::paper(n).unwrap());
        for p in &patterns() {
            assert_matches_oracle(&format!("bft{n}"), &tree, p);
        }
    }
}

#[test]
fn merged_build_matches_pairwise_walk_on_mesh_and_hypercube() {
    // E-cube routing on the hypercube reaches one channel at consecutive
    // hop counts for a single destination, so the hop-synchronous sweep
    // must keep those shares apart for D̄ to come out right.
    let mesh = Mesh::new(4, 2).unwrap();
    let cube = Hypercube::new(4).unwrap();
    for p in &patterns() {
        assert_matches_oracle("mesh4x4", &mesh, p);
        assert_matches_oracle("cube16", &cube, p);
    }
}

#[test]
fn merged_build_matches_pairwise_walk_on_a_faulted_bft() {
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let bft = (0u64..)
        .map(|seed| FaultedBft::new(&tree, link_faults(tree.network(), 0.05, seed).unwrap()))
        .map(Result::unwrap)
        .find(FaultedBft::fully_connected)
        .unwrap();
    assert!(bft.plan().dead_channel_count() > 0);
    for p in &patterns() {
        assert_matches_oracle("faulted bft64", &bft, p);
    }
}

#[test]
fn partitioned_faulted_bft_reports_the_same_pair_as_the_pairwise_walk() {
    // Killing the leaf switch of PEs 4..8 cuts them off. Uniform traffic
    // first asks for 0→4; bit-complement first asks for 4→11, because
    // PEs 0..4 send only to reachable partners.
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let net = tree.network();
    let mut plan = FaultPlan::none(net);
    plan.kill_switch(net, net.channel(net.processors()[4].inject).dst)
        .unwrap();
    let bft = FaultedBft::new(&tree, plan).unwrap();
    for (pattern, src, dest) in [
        (DestinationPattern::Uniform, 0, 4),
        (DestinationPattern::BitComplement, 4, 11),
    ] {
        let Err(WorkloadError::Disconnected { src: s, dest: d }) = pairwise_build(&bft, &pattern)
        else {
            panic!("oracle must report the partition for {pattern:?}");
        };
        assert_eq!((s, d), (src, dest), "oracle pair for {pattern:?}");
        match FlowVector::build(&bft, &pattern) {
            Err(WorkloadError::Disconnected { src: s, dest: d }) => {
                assert_eq!((s, d), (src, dest), "{pattern:?}");
            }
            other => panic!("{pattern:?}: expected Disconnected, got {other:?}"),
        }
    }
}

//! Randomized differential suite: the two execution cores must produce
//! field-for-field identical `SimResult`s on arbitrary configurations.
//!
//! Each case draws a topology (butterfly fat-tree, hypercube, mesh), a
//! destination pattern, an arrival process (Poisson or bursty MMPP), an
//! offered load spanning idle to past-saturation, a lane configuration
//! (`L ∈ {1, 2, 4}`, both allocators) and a seed — then runs the config on
//! the reference oracle and the fast-forward core via
//! `testutil::assert_engine_equivalence`. Configs are tiny so a case costs
//! milliseconds; the value is in the breadth of the product space, which
//! no hand-picked pin set covers. CI runs this suite with the fixed
//! per-test seeding of the vendored proptest shim, so a divergence is
//! reproducible by re-running the single test.

use proptest::prelude::*;
use wormsim::prelude::*;
use wormsim::sim::config::{ArrivalProcess, LaneAllocatorKind, MmppProfile};
use wormsim::sim::router::{BftRouter, HypercubeRouter, MeshRouter};
use wormsim::topology::hypercube::Hypercube;
use wormsim::topology::mesh::Mesh;
use wormsim_testutil::assert_engine_equivalence;

/// The optimized core, checked against the reference oracle.
const OPTIMIZED: [EngineKind; 1] = [EngineKind::FastForward];

#[derive(Debug, Clone, Copy)]
enum Topo {
    Bft { c: usize, p: usize, levels: u32 },
    Cube { dim: u32 },
    Mesh { k: usize, n: u32 },
}

fn topo() -> impl Strategy<Value = Topo> {
    // One flat tuple with a discriminant (the vendored proptest shim's
    // unions require same-typed branches): kind 0 → BFT(a, b, c),
    // kind 1 → hypercube of dim a, kind 2 → (a)-ary (c)-mesh.
    (0u32..=2, 2usize..=4, 1usize..=2, 1u32..=2).prop_filter_map(
        "valid topology",
        |(kind, a, b, c)| match kind {
            0 => BftParams::new(a, b, c).ok().map(|_| Topo::Bft {
                c: a,
                p: b,
                levels: c,
            }),
            1 => Some(Topo::Cube { dim: a as u32 }),
            _ => Some(Topo::Mesh { k: a, n: c + 1 }),
        },
    )
}

fn pattern() -> impl Strategy<Value = DestinationPattern> {
    prop_oneof![
        Just(DestinationPattern::Uniform),
        Just(DestinationPattern::BitComplement),
        Just(DestinationPattern::HalfShift),
        Just(DestinationPattern::hot_spot()),
    ]
}

fn arrival() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        Just(ArrivalProcess::Poisson),
        Just(ArrivalProcess::Mmpp(MmppProfile::default_bursty())),
    ]
}

/// Offered load (percent of 0.3 flits/cycle/PE, spanning idle to past
/// saturation) paired with the worm length in flits.
fn load_and_flits() -> impl Strategy<Value = (u32, u32)> {
    (1u32..120, prop_oneof![Just(2u32), Just(8), Just(16)])
}

fn lanes() -> impl Strategy<Value = LaneConfig> {
    (
        prop_oneof![Just(1u32), Just(2), Just(4)],
        proptest::arbitrary::any::<bool>(),
    )
        .prop_filter_map("valid lane config", |(l, first_free)| {
            let kind = if first_free {
                LaneAllocatorKind::FirstFree
            } else {
                LaneAllocatorKind::RoundRobin
            };
            LaneConfig::new(l, kind).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn engines_agree_on_arbitrary_configs(
        topo in topo(),
        pat in pattern(),
        arr in arrival(),
        (load_pct, flits) in load_and_flits(),
        lc in lanes(),
        seed in 0u64..1_000,
    ) {
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            drain_cap_cycles: 4_000,
            seed,
            batches: 4,
        };
        let load = 0.003 * f64::from(load_pct);
        let traffic = TrafficConfig::from_flit_load(load, flits).unwrap()
            .with_pattern(pat)
            .with_arrival(arr);
        let label = format!("{topo:?} {pat:?} {arr:?} load={load} s={flits} L={} seed={seed}",
            lc.lanes());
        match topo {
            Topo::Bft { c, p, levels } => {
                let tree = ButterflyFatTree::new(BftParams::new(c, p, levels).unwrap());
                // Hot-spot / complement patterns assume the PE count fits;
                // skip draws the pattern cannot address.
                if traffic.pattern.validate(tree.network().num_processors()).is_err() {
                    return Ok(());
                }
                let router = BftRouter::new(&tree);
                assert_engine_equivalence(&router, &cfg, &traffic, &lc, &OPTIMIZED, &label);
            }
            Topo::Cube { dim } => {
                let cube = Hypercube::new(dim).unwrap();
                if traffic.pattern.validate(cube.network().num_processors()).is_err() {
                    return Ok(());
                }
                let router = HypercubeRouter::new(&cube);
                assert_engine_equivalence(&router, &cfg, &traffic, &lc, &OPTIMIZED, &label);
            }
            Topo::Mesh { k, n } => {
                let mesh = Mesh::new(k, n).unwrap();
                if traffic.pattern.validate(mesh.network().num_processors()).is_err() {
                    return Ok(());
                }
                let router = MeshRouter::new(&mesh);
                assert_engine_equivalence(&router, &cfg, &traffic, &lc, &OPTIMIZED, &label);
            }
        }
    }
}

//! Outputs pinned at the default seed ([`crate::workloads::DEFAULT_SEED`]).
//!
//! Simulation passes are pinned as one digest over every run's result
//! and observation snapshot; model knees and latencies to 1e-9 relative.
//! A change that alters any of them on purpose re-pins them here.

use crate::bench::Ctx;

/// Relative tolerance of pinned model values.
pub const REL_TOLERANCE: f64 = 1e-9;

const DIGESTS: &[(&str, u64)] = &[
    ("sim-loaded/pass0", 0xb313_9490_cc89_70ec),
    ("lanes-saturation/pass0", 0x0be3_fd61_e3d7_64f3),
    ("sim-sparse/pass0", 0xd3fc_dbe1_0cf4_4a4c),
];

const VALUES: &[(&str, f64)] = &[
    ("sim-loaded/bft1024/L1/x0.3/knee", 0.0390923320546875),
    (
        "sim-loaded/bft1024/L1/x0.3/model_latency",
        26.142914354963704,
    ),
    ("sim-loaded/bft1024/L1/x0.5/knee", 0.0390923320546875),
    (
        "sim-loaded/bft1024/L1/x0.5/model_latency",
        28.094632630281733,
    ),
    ("sim-loaded/bft1024/L1/x0.7/knee", 0.0390923320546875),
    (
        "sim-loaded/bft1024/L1/x0.7/model_latency",
        31.60763154582267,
    ),
    ("sim-loaded/bft1024/L1/x0.85/knee", 0.0390923320546875),
    (
        "sim-loaded/bft1024/L1/x0.85/model_latency",
        37.861485674637834,
    ),
    ("lanes-saturation/bft256/L2/x0.5/knee", 0.10487908561757812),
    ("lanes-saturation/bft256/L2/x0.75/knee", 0.10487908561757812),
    ("lanes-saturation/bft256/L2/x1/knee", 0.10487908561757812),
    ("lanes-saturation/bft256/L2/x1.25/knee", 0.10487908561757812),
    ("lanes-saturation/bft256/L2/x1.5/knee", 0.10487908561757812),
    ("lanes-saturation/bft256/L2/x2/knee", 0.10487908561757812),
    ("lanes-saturation/bft256/L4/x0.5/knee", 0.10645621472460938),
    ("lanes-saturation/bft256/L4/x0.75/knee", 0.10645621472460938),
    ("lanes-saturation/bft256/L4/x1/knee", 0.10645621472460938),
    ("lanes-saturation/bft256/L4/x1.25/knee", 0.10645621472460938),
    ("lanes-saturation/bft256/L4/x1.5/knee", 0.10645621472460938),
    ("lanes-saturation/bft256/L4/x2/knee", 0.10645621472460938),
    (
        "lanes-saturation/bft64-f5/L1/x0.5/knee",
        0.08952069584062501,
    ),
    (
        "lanes-saturation/bft64-f5/L1/x0.75/knee",
        0.08952069584062501,
    ),
    ("lanes-saturation/bft64-f5/L1/x1/knee", 0.08952069584062501),
    (
        "lanes-saturation/bft64-f5/L1/x1.25/knee",
        0.08952069584062501,
    ),
    (
        "lanes-saturation/bft64-f5/L1/x1.5/knee",
        0.08952069584062501,
    ),
    ("lanes-saturation/bft64-f5/L1/x2/knee", 0.08952069584062501),
    (
        "lanes-saturation/bft64-f5/L2/x0.5/knee",
        0.10670547227431643,
    ),
    (
        "lanes-saturation/bft64-f5/L2/x0.75/knee",
        0.10670547227431643,
    ),
    ("lanes-saturation/bft64-f5/L2/x1/knee", 0.10670547227431643),
    (
        "lanes-saturation/bft64-f5/L2/x1.25/knee",
        0.10670547227431643,
    ),
    (
        "lanes-saturation/bft64-f5/L2/x1.5/knee",
        0.10670547227431643,
    ),
    ("lanes-saturation/bft64-f5/L2/x2/knee", 0.10670547227431643),
    ("model-flows/bft1024-uniform/L1/knee", 0.03899460122455078),
    (
        "model-flows/bft1024-uniform/L1/curve_sum",
        1353.2475697274094,
    ),
    ("model-flows/bft1024-uniform/L2/knee", 0.05218826329300781),
    (
        "model-flows/bft1024-uniform/L2/curve_sum",
        1310.2703828683407,
    ),
    ("model-flows/bft1024-uniform/L4/knee", 0.05336103325464844),
    (
        "model-flows/bft1024-uniform/L4/curve_sum",
        1519.411001996271,
    ),
    ("model-flows/bft256-hotspot/L1/knee", 0.023656936605468748),
    ("model-flows/bft256-hotspot/L1/curve_sum", 959.3111131128147),
    ("model-flows/bft256-hotspot/L2/knee", 0.027994041649804687),
    ("model-flows/bft256-hotspot/L2/curve_sum", 919.3130367281447),
    ("model-flows/bft256-hotspot/L4/knee", 0.021882666360058593),
    ("model-flows/bft256-hotspot/L4/curve_sum", 866.8552935189927),
    ("model-flows/bft64-uniform-f5/L1/knee", 0.08952069584062501),
    (
        "model-flows/bft64-uniform-f5/L1/curve_sum",
        1147.25158315051,
    ),
    ("model-flows/bft64-uniform-f5/L2/knee", 0.10670547227431643),
    (
        "model-flows/bft64-uniform-f5/L2/curve_sum",
        1057.43731946679,
    ),
    ("model-flows/bft64-uniform-f5/L4/knee", 0.09311750951279299),
    (
        "model-flows/bft64-uniform-f5/L4/curve_sum",
        958.2296611881532,
    ),
    ("model-flows/closed-form/s16/knee", 0.0390923320546875),
    ("model-flows/closed-form/s16/curve_sum", 989.9990095360215),
    ("model-flows/closed-form/s32/knee", 0.039092332046875),
    ("model-flows/closed-form/s32/curve_sum", 1713.0185463051582),
    ("model-flows/closed-form/s64/knee", 0.039092332031249996),
    ("model-flows/closed-form/s64/curve_sum", 3159.057617965068),
    ("sim-sparse/bft64/L1/x0.02/knee", 0.15985838542968753),
    ("sim-sparse/bft64/L1/x0.04/knee", 0.15985838542968753),
    ("sim-sparse/bft64/L1/x0.06/knee", 0.15985838542968753),
    ("sim-sparse/bft64/L1/x0.08/knee", 0.15985838542968753),
    ("sim-sparse/bft64/L1/x0.1/knee", 0.15985838542968753),
];

fn lookup<T: Copy>(table: &[(&str, T)], key: &str) -> Option<T> {
    table.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

pub fn check_digest(ctx: &mut Ctx, key: &str, observed: u64) {
    match lookup(DIGESTS, key) {
        Some(pinned) => ctx.check(pinned == observed, || {
            format!("pin {key}: digest {observed:#018x}, pinned {pinned:#018x}")
        }),
        None => ctx.fail(format!(
            "pin {key}: no pinned digest (observed {observed:#018x})"
        )),
    }
}

pub fn check_value(ctx: &mut Ctx, key: &str, observed: f64) {
    match lookup(VALUES, key) {
        Some(pinned) => ctx.check(
            (observed - pinned).abs() <= REL_TOLERANCE * pinned.abs(),
            || format!("pin {key}: {observed:?}, pinned {pinned:?}"),
        ),
        None => ctx.fail(format!(
            "pin {key}: no pinned value (observed {observed:?})"
        )),
    }
}

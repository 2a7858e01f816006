//! Automatic model construction by exact path enumeration.
//!
//! The per-level fat-tree spec and the per-dimension hypercube spec exploit
//! hand-derived symmetry. For a network with *no* usable symmetry — a mesh,
//! whose corner and center switches see very different traffic — the same
//! §2 model can be built mechanically: enumerate the unique deterministic
//! route of every (source, destination) pair under uniform traffic, and
//! read off
//!
//! * per-channel arrival rates `λ` (exact flow conservation),
//! * per-channel forwarding probabilities `R(i|j)` (transition counts),
//! * the average distance `D̄`,
//!
//! with **one channel class per physical channel**. The resulting
//! [`EnumeratedModel`] solves Eq. 11 over thousands of classes and averages
//! Eq. 2 over the per-PE injection channels (which genuinely differ in a
//! mesh — the paper's Eq. 2 already anticipates this with its `1/N Σ_j`).
//!
//! Enumeration costs `O(N²·diameter)` — fine for the validation-scale
//! networks this is meant for (a 16×16 mesh enumerates in milliseconds).

use crate::bft::LatencyBreakdown;
use crate::error::ModelError;
use crate::framework::{ClassBody, ClassId, ClassSpec, Forward, NetworkSpec};
use crate::options::ModelOptions;
use crate::Result;
use std::collections::HashMap;
use wormsim_topology::graph::ChannelNetwork;
use wormsim_topology::ids::{ChannelId, NodeId};

/// A fully enumerated per-channel model: the class spec plus the list of
/// injection classes to average over (one per PE, equally weighted under
/// the uniform-sources assumption).
#[derive(Debug, Clone)]
pub struct EnumeratedModel {
    /// The per-channel network specification (class `i` ↔ channel `i`).
    pub spec: NetworkSpec,
    /// Injection channel class of every PE.
    pub injections: Vec<ClassId>,
}

impl EnumeratedModel {
    /// Average latency: Eq. 2's per-source average of `W_inj + x̄_inj`,
    /// plus `D̄ − 1`.
    ///
    /// # Errors
    ///
    /// Saturation of any channel, or spec inconsistencies.
    pub fn latency(&self, options: &ModelOptions) -> Result<LatencyBreakdown> {
        let sol = self.spec.solve(options)?;
        self.breakdown_from(&sol, options)
    }

    /// Saturation-aware [`Self::latency`]: total over every load,
    /// returning a typed [`wormsim_guard::SolveOutcome`] instead of
    /// erroring on saturation (see
    /// [`crate::framework::NetworkSpec::solve_outcome`]).
    ///
    /// # Errors
    ///
    /// Genuine usage errors only (malformed spec, invalid options).
    pub fn latency_outcome(
        &self,
        options: &ModelOptions,
    ) -> Result<wormsim_guard::SolveOutcome<LatencyBreakdown>> {
        match self.spec.solve_outcome(options)? {
            wormsim_guard::SolveOutcome::Converged(sol) => Ok(
                wormsim_guard::SolveOutcome::Converged(self.breakdown_from(&sol, options)?),
            ),
            wormsim_guard::SolveOutcome::Saturated { knee_estimate } => {
                Ok(wormsim_guard::SolveOutcome::Saturated { knee_estimate })
            }
            wormsim_guard::SolveOutcome::NoConvergence {
                iterations,
                residual,
            } => Ok(wormsim_guard::SolveOutcome::NoConvergence {
                iterations,
                residual,
            }),
        }
    }

    fn breakdown_from(
        &self,
        sol: &crate::framework::Solution,
        options: &ModelOptions,
    ) -> Result<LatencyBreakdown> {
        let mut w_sum = 0.0;
        let mut x_sum = 0.0;
        for inj in &self.injections {
            // Lane corrections per injection station (identities at L = 1):
            // the wait is already the M/G/L lane-slot wait, and the
            // injection hold is the multiplex-stretched residence.
            let x = sol.service_times[inj.0];
            w_sum += sol.waiting_times[inj.0];
            x_sum += self.spec.lane_residence(inj.0, x, options)?;
        }
        let n = self.injections.len() as f64;
        let (w, x) = (w_sum / n, x_sum / n);
        Ok(LatencyBreakdown {
            w_injection: w,
            x_injection: x,
            avg_distance: self.spec.avg_distance,
            total: w + x + self.spec.avg_distance - 1.0,
        })
    }

    /// Per-PE injection summary `(W_inj, x̄_inj)` — exposes the spatial
    /// asymmetry of non-symmetric networks (mesh corners vs. center).
    ///
    /// # Errors
    ///
    /// Same as [`Self::latency`].
    pub fn per_source_injection(&self, options: &ModelOptions) -> Result<Vec<(f64, f64)>> {
        let sol = self.spec.solve(options)?;
        Ok(self
            .injections
            .iter()
            .map(|inj| (sol.waiting_times[inj.0], sol.service_times[inj.0]))
            .collect())
    }
}

/// Builds an [`EnumeratedModel`] for a deterministic single-path router.
///
/// * `net` — the channel network (provides injection/ejection attachments).
/// * `next_channel` — the routing function: given a switch node and a
///   destination PE index, the channel taken next, or `None` to eject here
///   (the ejection channel is then looked up from the destination's ports).
///   Must be deterministic and loop-free (e-cube, dimension-order, …).
/// * `worm_flits` — worm length `s/f`.
/// * `lambda0` — per-PE message rate (uniform traffic, destination ≠ source).
///
/// # Errors
///
/// [`ModelError::Spec`] when a route exceeds `4·num_nodes` hops (loop
/// protection) or does not terminate at its destination.
pub fn enumerate_deterministic<F>(
    net: &ChannelNetwork,
    next_channel: F,
    worm_flits: f64,
    lambda0: f64,
) -> Result<EnumeratedModel>
where
    F: Fn(NodeId, usize) -> Option<ChannelId>,
{
    let n_pe = net.num_processors();
    if n_pe < 2 {
        return Err(ModelError::Spec(
            "enumeration needs at least two PEs".into(),
        ));
    }
    // Accumulate integer pair counts and convert to rates at the end, so
    // forwarding probabilities stay well-defined even at λ₀ = 0.
    let pair_rate = lambda0 / (n_pe as f64 - 1.0);
    let n_ch = net.num_channels();

    let mut counts = vec![0u64; n_ch];
    // transitions[i] : channel -> number of pairs forwarded i -> j.
    let mut transitions: Vec<HashMap<usize, u64>> = vec![HashMap::new(); n_ch];
    let mut total_hops = 0u64;
    let hop_cap = 4 * net.num_nodes();

    let mut path: Vec<usize> = Vec::with_capacity(32);
    for src in 0..n_pe {
        for dst in 0..n_pe {
            if src == dst {
                continue;
            }
            path.clear();
            let inject = net.processors()[src].inject;
            path.push(inject.index());
            let mut node = net.channel(inject).dst;
            loop {
                if path.len() > hop_cap {
                    return Err(ModelError::Spec(format!(
                        "route {src}->{dst} exceeded {hop_cap} hops: routing loop?"
                    )));
                }
                match next_channel(node, dst) {
                    Some(ch) => {
                        path.push(ch.index());
                        node = net.channel(ch).dst;
                    }
                    None => {
                        let eject = net.processors()[dst].eject;
                        if net.channel(eject).src != node {
                            return Err(ModelError::Spec(format!(
                                "route {src}->{dst} ejected at the wrong switch"
                            )));
                        }
                        path.push(eject.index());
                        break;
                    }
                }
            }
            total_hops += path.len() as u64;
            for (k, &ch) in path.iter().enumerate() {
                counts[ch] += 1;
                if k + 1 < path.len() {
                    *transitions[ch].entry(path[k + 1]).or_insert(0) += 1;
                }
            }
        }
    }

    let avg_distance = total_hops as f64 / (n_pe as f64 * (n_pe as f64 - 1.0));

    // Assemble one class per channel.
    let mut classes = Vec::with_capacity(n_ch);
    for ch in 0..n_ch {
        let info = net.channel(ChannelId(ch));
        let is_terminal = transitions[ch].is_empty();
        let body = if is_terminal {
            // Ejection channels and any unused channels: fixed service.
            ClassBody::Terminal {
                service_time: worm_flits,
            }
        } else {
            let mut forwards: Vec<Forward> = transitions[ch]
                .iter()
                .map(|(&to, &cnt)| Forward::flat(ClassId(to), 1, cnt as f64 / counts[ch] as f64))
                .collect();
            // Deterministic order for reproducible solves.
            forwards.sort_by_key(|f| f.to.0);
            ClassBody::Interior { forwards }
        };
        classes.push(ClassSpec {
            name: format!("{} {}", info.class, ChannelId(ch)),
            lambda: counts[ch] as f64 * pair_rate,
            servers: 1,
            body,
        });
    }

    let injections: Vec<ClassId> = (0..n_pe)
        .map(|pe| ClassId(net.processors()[pe].inject.index()))
        .collect();

    let spec = NetworkSpec {
        classes,
        worm_flits,
        injection: injections[0],
        avg_distance,
    };
    Ok(EnumeratedModel { spec, injections })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::hypercube_spec;
    use wormsim_topology::hypercube::Hypercube;
    use wormsim_topology::mesh::Mesh;

    #[test]
    fn hypercube_enumeration_matches_symmetry_derivation() {
        // The per-channel enumerated model and the hand-derived
        // per-dimension class model are the same mathematical object; their
        // latencies must agree to floating-point accuracy.
        let dim = 4u32;
        let cube = Hypercube::new(dim).unwrap();
        for lambda0 in [0.0, 0.002, 0.008] {
            let enumerated = enumerate_deterministic(
                cube.network(),
                |node, dest| cube.route(node, dest),
                16.0,
                lambda0,
            )
            .unwrap();
            let by_class = hypercube_spec(dim, 16.0, lambda0);
            let a = enumerated.latency(&ModelOptions::paper()).unwrap();
            let b = by_class.latency(&ModelOptions::paper()).unwrap();
            assert!(
                (a.total - b.total).abs() < 1e-9,
                "λ0={lambda0}: enumerated {} vs class-derived {}",
                a.total,
                b.total
            );
        }
    }

    #[test]
    fn hypercube_enumeration_recovers_exact_rates() {
        let dim = 5u32;
        let cube = Hypercube::new(dim).unwrap();
        let lambda0 = 0.004;
        let m = enumerate_deterministic(
            cube.network(),
            |node, dest| cube.route(node, dest),
            16.0,
            lambda0,
        )
        .unwrap();
        let n = (1u64 << dim) as f64;
        let expect = lambda0 * (n / 2.0) / (n - 1.0);
        for (i, class) in m.spec.classes.iter().enumerate() {
            let info = cube.network().channel(ChannelId(i));
            if matches!(
                info.class,
                wormsim_topology::graph::ChannelClass::Dimension { .. }
            ) {
                assert!(
                    (class.lambda - expect).abs() < 1e-12,
                    "channel {i}: λ {} vs {expect}",
                    class.lambda
                );
            }
        }
        assert!((m.spec.avg_distance - cube.average_distance()).abs() < 1e-12);
    }

    #[test]
    fn mesh_enumeration_exposes_positional_asymmetry() {
        // In a mesh, central channels carry more traffic than edge ones,
        // and central sources see more contention than corner sources.
        let mesh = Mesh::new(4, 2).unwrap();
        let m = enumerate_deterministic(
            mesh.network(),
            |node, dest| mesh.route(node, dest),
            16.0,
            0.004,
        )
        .unwrap();
        m.spec.validate().unwrap();
        let per_source = m.per_source_injection(&ModelOptions::paper()).unwrap();
        // Corner sources have the longest expected remaining paths under
        // uniform traffic, so their injected worms accumulate the most
        // downstream blocking: corner x̄_inj exceeds central x̄_inj.
        let (_, x_corner) = per_source[0]; // PE 0 = (0,0)
        let (_, x_center) = per_source[5]; // PE 5 = (1,1)
        assert!(
            x_corner > x_center,
            "corner source service {x_corner} should exceed central {x_center}"
        );
        // The asymmetry is real: min and max per-source service differ.
        let xs: Vec<f64> = per_source.iter().map(|&(_, x)| x).collect();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(0.0f64, f64::max);
        assert!(max - min > 1e-3, "mesh injection must vary by position");
        // Average latency sits above the zero-load bound.
        let lat = m.latency(&ModelOptions::paper()).unwrap();
        assert!(lat.total > 16.0 + m.spec.avg_distance - 1.0);
    }

    #[test]
    fn mesh_enumeration_distance_matches_closed_form() {
        let mesh = Mesh::new(5, 2).unwrap();
        let m = enumerate_deterministic(
            mesh.network(),
            |node, dest| mesh.route(node, dest),
            8.0,
            0.001,
        )
        .unwrap();
        assert!(
            (m.spec.avg_distance - mesh.average_distance()).abs() < 1e-12,
            "enumerated D̄ {} vs closed form {}",
            m.spec.avg_distance,
            mesh.average_distance()
        );
    }

    #[test]
    fn zero_load_enumerated_latency_is_exact() {
        let mesh = Mesh::new(3, 2).unwrap();
        let m = enumerate_deterministic(
            mesh.network(),
            |node, dest| mesh.route(node, dest),
            16.0,
            0.0,
        )
        .unwrap();
        let lat = m.latency(&ModelOptions::paper()).unwrap();
        assert!((lat.total - (16.0 + m.spec.avg_distance - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn loop_protection_rejects_broken_routers() {
        let mesh = Mesh::new(3, 2).unwrap();
        // A "router" that never ejects and ping-pongs forever.
        let err = enumerate_deterministic(
            mesh.network(),
            |node, _dest| {
                let out = &mesh.network().node(node).out_channels;
                out.iter().copied().find(|&ch| {
                    !matches!(
                        mesh.network().node(mesh.network().channel(ch).dst).kind,
                        wormsim_topology::graph::NodeKind::Processor { .. }
                    )
                })
            },
            16.0,
            0.001,
        )
        .unwrap_err();
        assert!(err.to_string().contains("loop"));
    }

    #[test]
    fn wrong_ejection_switch_is_detected() {
        let mesh = Mesh::new(3, 2).unwrap();
        // Eject immediately everywhere: wrong switch for almost all pairs.
        let err =
            enumerate_deterministic(mesh.network(), |_node, _dest| None, 16.0, 0.001).unwrap_err();
        assert!(err.to_string().contains("wrong switch"));
    }
}

//! Uniform random traffic.

use crate::{SimRng, TrafficPattern};
use wormsim_topology::{NodeId, Topology, TopologyKind};

/// Uniform traffic: every other node is an equally likely destination.
///
/// The paper motivates it as "representative of the traffic generated in
/// massively parallel computations in which array data are distributed
/// among the nodes using hashing techniques".
///
/// # Example
///
/// ```
/// use wormsim_topology::Topology;
/// use wormsim_traffic::{Uniform, TrafficPattern, SimRng};
///
/// let topo = Topology::torus(&[16, 16]);
/// let uniform = Uniform::new(&topo);
/// let mut rng = SimRng::seed_from(1);
/// let dest = uniform.sample_dest(topo.node_at(&[0, 0]), &mut rng);
/// assert_ne!(dest, topo.node_at(&[0, 0]));
/// ```
#[derive(Clone, Debug)]
pub struct Uniform {
    num_nodes: u32,
}

impl Uniform {
    /// Builds uniform traffic for `topo`.
    pub fn new(topo: &Topology) -> Self {
        Uniform {
            num_nodes: topo.num_nodes(),
        }
    }
}

impl TrafficPattern for Uniform {
    fn name(&self) -> String {
        "uniform".to_owned()
    }

    fn sample_dest(&self, src: NodeId, rng: &mut SimRng) -> NodeId {
        let r = rng.uniform_below(self.num_nodes - 1);
        // Skip over the source index to exclude self-traffic without bias.
        NodeId::new(if r >= src.index() { r + 1 } else { r })
    }

    fn dest_distribution(&self, src: NodeId) -> Vec<f64> {
        let p = 1.0 / (self.num_nodes - 1) as f64;
        let mut dist = vec![p; self.num_nodes as usize];
        dist[src.as_usize()] = 0.0;
        dist
    }

    /// Bit-identical to the trait's pair-by-pair fold without visiting the
    /// pairs: every term that fold adds to a hop class is the same
    /// `p = 1/(N-1)`, so adding `p` once per pair, from exact integer pair
    /// counts, reproduces each sum's rounding exactly.
    fn hop_class_weights(&self, topo: &Topology) -> Vec<f64> {
        let p = 1.0 / (self.num_nodes - 1) as f64;
        let n = f64::from(self.num_nodes);
        pairs_per_distance(topo)
            .iter()
            .enumerate()
            .map(|(d, &pairs)| {
                let mut w = 0.0;
                // Distance 0 is a node to itself: the fold skips it (p = 0).
                if d > 0 {
                    for _ in 0..pairs {
                        w += p;
                    }
                }
                w / n
            })
            .collect()
    }
}

/// Ordered node pairs `(src, dest)` at each minimal distance `0..=diameter`,
/// as exact integers. A torus is node-symmetric, so the counts are `N` times
/// the distance histogram from one node; on a mesh they are the convolution
/// of the per-dimension counts of ordered coordinate pairs.
fn pairs_per_distance(topo: &Topology) -> Vec<u64> {
    let torus = topo.kind() == TopologyKind::Torus;
    let mut counts = vec![1u64];
    for &k in topo.dims() {
        let k = u64::from(k);
        let per_dim: Vec<u64> = if torus {
            // Ring positions at each distance from coordinate 0.
            (0..=k / 2)
                .map(|j| if j == 0 || 2 * j == k { 1 } else { 2 })
                .collect()
        } else {
            // Ordered coordinate pairs on a line of k at each distance.
            (0..k)
                .map(|j| if j == 0 { k } else { 2 * (k - j) })
                .collect()
        };
        let mut next = vec![0u64; counts.len() + per_dim.len() - 1];
        for (a, &ca) in counts.iter().enumerate() {
            for (b, &cb) in per_dim.iter().enumerate() {
                next[a + b] += ca * cb;
            }
        }
        counts = next;
    }
    if torus {
        let n = u64::from(topo.num_nodes());
        for c in &mut counts {
            *c *= n;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_samples_self_and_covers_everything() {
        let topo = Topology::torus(&[4, 4]);
        let uniform = Uniform::new(&topo);
        let src = NodeId::new(7);
        let mut rng = SimRng::seed_from(2);
        let mut seen = [false; 16];
        for _ in 0..2_000 {
            let d = uniform.sample_dest(src, &mut rng);
            assert_ne!(d, src);
            seen[d.as_usize()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 15);
    }

    #[test]
    fn mean_distance_matches_topology() {
        let topo = Topology::torus(&[16, 16]);
        let uniform = Uniform::new(&topo);
        assert!((uniform.mean_distance(&topo) - topo.uniform_avg_distance()).abs() < 1e-9);
    }

    #[test]
    fn pair_counts_cover_every_ordered_pair() {
        for topo in [
            Topology::torus(&[5, 4]),
            Topology::mesh(&[3, 6]),
            Topology::torus(&[2]),
        ] {
            let n = u64::from(topo.num_nodes());
            let mut brute = vec![0u64; topo.diameter() as usize + 1];
            for src in topo.nodes() {
                for dest in topo.nodes() {
                    brute[topo.distance(src, dest) as usize] += 1;
                }
            }
            let counts = pairs_per_distance(&topo);
            assert_eq!(counts, brute, "{topo}");
            assert_eq!(counts.iter().sum::<u64>(), n * n);
        }
    }

    #[test]
    fn hop_class_weights_match_distance_distribution() {
        let topo = Topology::torus(&[8, 8]);
        let uniform = Uniform::new(&topo);
        let weights = uniform.hop_class_weights(&topo);
        let exact = topo.uniform_distance_distribution();
        for (h, &w) in weights.iter().enumerate() {
            assert!((w - exact.weight(h)).abs() < 1e-9, "hop class {h}");
        }
    }
}

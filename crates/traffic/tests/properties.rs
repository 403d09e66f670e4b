//! Property-based tests: every traffic pattern's sampler agrees with its
//! declared exact distribution, and distributions are proper.

use proptest::prelude::*;
use wormsim_topology::{NodeId, Topology};
use wormsim_traffic::{SimRng, TrafficConfig, TrafficPattern, Uniform};

/// Uniform traffic with the trait's default pair-by-pair
/// `hop_class_weights` fold, the reference for `Uniform`'s override.
#[derive(Debug)]
struct DefaultFold(Uniform);

impl TrafficPattern for DefaultFold {
    fn name(&self) -> String {
        self.0.name()
    }

    fn sample_dest(&self, src: NodeId, rng: &mut SimRng) -> NodeId {
        self.0.sample_dest(src, rng)
    }

    fn dest_distribution(&self, src: NodeId) -> Vec<f64> {
        self.0.dest_distribution(src)
    }
}

/// Random 1D/2D/3D tori and meshes with radices 2..=9 (odd radices and
/// k = 2 included).
fn arb_topology() -> impl Strategy<Value = Topology> {
    (prop::collection::vec(2u16..=9, 1..=3), any::<bool>()).prop_map(|(dims, torus)| {
        if torus {
            Topology::torus(&dims)
        } else {
            Topology::mesh(&dims)
        }
    })
}

fn arb_setup() -> impl Strategy<Value = (Topology, TrafficConfig, u32, u64)> {
    let topo = prop_oneof![
        Just(Topology::torus(&[8, 8])),
        Just(Topology::torus(&[16, 16])),
        Just(Topology::mesh(&[8, 8])),
        Just(Topology::torus(&[4, 4, 4])),
    ];
    let config = prop_oneof![
        Just(TrafficConfig::Uniform),
        Just(TrafficConfig::Hotspot {
            nodes: vec![vec![0, 0]],
            fraction: 0.04
        }),
        Just(TrafficConfig::Local { radius: 1 }),
        Just(TrafficConfig::Transpose),
        Just(TrafficConfig::BitReversal),
        Just(TrafficConfig::Complement),
    ];
    (topo, config, any::<u32>(), any::<u64>()).prop_map(|(t, c, src, seed)| {
        let n = t.num_nodes();
        (t, c, src % n, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Destination distributions are proper probability vectors with no
    /// self-traffic.
    #[test]
    fn distributions_are_proper((topo, config, src, _) in arb_setup()) {
        // Hotspot coordinates are 2-D in the strategy; fix for 3-D tori.
        let config = fix_dims(&topo, config);
        let Ok(pattern) = config.build(&topo) else { return Ok(()) };
        let dist = pattern.dest_distribution(NodeId::new(src));
        prop_assert_eq!(dist.len(), topo.num_nodes() as usize);
        let total: f64 = dist.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sums to {total}");
        prop_assert!(dist.iter().all(|&p| (0.0..=1.0).contains(&p)));
        prop_assert_eq!(dist[src as usize], 0.0);
    }

    /// Sampling never returns the source and always lands on a node with
    /// positive declared probability.
    #[test]
    fn samples_match_support((topo, config, src, seed) in arb_setup()) {
        let config = fix_dims(&topo, config);
        let Ok(pattern) = config.build(&topo) else { return Ok(()) };
        let src = NodeId::new(src);
        let dist = pattern.dest_distribution(src);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..200 {
            let dest = pattern.sample_dest(src, &mut rng);
            prop_assert_ne!(dest, src);
            prop_assert!(
                dist[dest.as_usize()] > 0.0,
                "sampled {:?} with zero declared probability", dest
            );
        }
    }

    /// Hop-class weights are a proper distribution whose mean matches the
    /// declared mean distance.
    #[test]
    fn hop_class_weights_are_proper((topo, config, _, _) in arb_setup()) {
        let config = fix_dims(&topo, config);
        let Ok(pattern) = config.build(&topo) else { return Ok(()) };
        let weights = pattern.hop_class_weights(&topo);
        let total: f64 = weights.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert_eq!(weights[0], 0.0, "no zero-hop messages");
        let mean: f64 = weights.iter().enumerate().map(|(h, w)| h as f64 * w).sum();
        prop_assert!((mean - pattern.mean_distance(&topo)).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Uniform`'s closed-form hop-class weights (and so its mean
    /// distance) equal the default fold bit for bit.
    #[test]
    fn uniform_weights_match_default_fold_bitwise(topo in arb_topology()) {
        let uniform = Uniform::new(&topo);
        let reference = DefaultFold(Uniform::new(&topo));
        let fast: Vec<u64> = uniform.hop_class_weights(&topo).iter().map(|w| w.to_bits()).collect();
        let fold: Vec<u64> = reference.hop_class_weights(&topo).iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(fast, fold, "{}", topo);
        prop_assert_eq!(
            uniform.mean_distance(&topo).to_bits(),
            reference.mean_distance(&topo).to_bits()
        );
    }
}

/// The strategy hard-codes 2-D hotspot coordinates; pad or truncate to the
/// topology's dimensionality so higher-dimensional cases stay exercised.
fn fix_dims(topo: &Topology, config: TrafficConfig) -> TrafficConfig {
    match config {
        TrafficConfig::Hotspot { nodes, fraction } => TrafficConfig::Hotspot {
            nodes: nodes
                .into_iter()
                .map(|mut coords| {
                    coords.resize(topo.num_dims(), 0);
                    coords
                })
                .collect(),
            fraction,
        },
        other => other,
    }
}

//! The three workloads, generated from the workload seed. The program under
//! test only ever sees the resulting experiments.

use wormsim::presets::{fig3, paper_algorithms, paper_loads};
use wormsim::{
    AlgorithmKind, ConvergencePolicy, Experiment, MeasurementSchedule, Topology, TrafficConfig,
};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["fig3-16x16", "large-4096", "many-small"];

/// One workload: the sweep plan's points, the seed each point simulates
/// with (the experiment keeps it private), and the sweep's worker count.
pub struct Workload {
    /// The points, in schedule order.
    pub experiments: Vec<Experiment>,
    /// `seeds[i]` is the seed `experiments[i]` was built with.
    pub seeds: Vec<u64>,
    /// Worker threads for the sweep (and the traced per-point pass).
    pub threads: usize,
}

/// SplitMix64: spreads one workload seed over many point seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeds per (algorithm, load) pair in `many-small`.
const MANY_SMALL_SEEDS: u64 = 20;

/// Builds workload `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, nproc: usize) -> Option<Workload> {
    let mut experiments = Vec::new();
    let mut seeds = Vec::new();
    let mut push = |experiment: Experiment, point_seed: u64| {
        experiments.push(experiment.seed(point_seed));
        seeds.push(point_seed);
    };
    let threads = match name {
        // The paper's Figure 3, as `sweep --algos all --quick` runs it.
        "fig3-16x16" => {
            let spec = fig3();
            for &algorithm in &spec.algorithms {
                for &load in &spec.loads {
                    push(
                        Experiment::new(spec.topology.clone(), algorithm)
                            .traffic(spec.traffic.clone())
                            .switching(spec.switching)
                            .offered_load(load)
                            .quick(),
                        seed,
                    );
                }
            }
            nproc
        }
        // Two 4096-node points, one after the other: ecube on 16^3 spends
        // its step in route, nbc on 64x64 in advance. Exactly two samples,
        // so that every seed simulates the same 1900 cycles per point.
        "large-4096" => {
            let schedule = MeasurementSchedule {
                warmup_cycles: 600,
                sample_cycles: 600,
                gap_cycles: 100,
                policy: ConvergencePolicy {
                    min_samples: 2,
                    max_samples: 2,
                    ..ConvergencePolicy::default()
                },
            };
            for (dims, algorithm) in [
                (&[16u16, 16, 16][..], AlgorithmKind::Ecube),
                (&[64, 64][..], AlgorithmKind::NegativeHopBonusCards),
            ] {
                push(
                    Experiment::new(Topology::torus(dims), algorithm)
                        .traffic(TrafficConfig::Uniform)
                        .offered_load(0.3)
                        .schedule(schedule),
                    seed,
                );
            }
            1
        }
        // Thousands of ~ms points: orchestration and journal bound.
        "many-small" => {
            let schedule = MeasurementSchedule {
                warmup_cycles: 200,
                sample_cycles: 200,
                gap_cycles: 20,
                policy: ConvergencePolicy {
                    max_samples: 5,
                    ..ConvergencePolicy::default()
                },
            };
            let mut stream = seed;
            for algorithm in paper_algorithms() {
                for load in paper_loads() {
                    for _ in 0..MANY_SMALL_SEEDS {
                        stream = splitmix64(stream);
                        push(
                            Experiment::new(Topology::torus(&[4, 4]), algorithm)
                                .traffic(TrafficConfig::Uniform)
                                .offered_load(load)
                                .schedule(schedule),
                            stream,
                        );
                    }
                }
            }
            nproc
        }
        _ => return None,
    };
    Some(Workload {
        experiments,
        seeds,
        threads,
    })
}

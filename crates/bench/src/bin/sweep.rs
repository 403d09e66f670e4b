//! General-purpose sweep CLI: compare any set of algorithms on any
//! topology/traffic/switching combination, with the same reporting
//! pipeline the figure regenerators use.
//!
//! ```text
//! sweep [--topo torus:16x16] [--algos all|phop,ecube,...]
//!       [--traffic uniform|hotspot:15,15@0.04|local:3|transpose|bitrev|complement]
//!       [--loads 0.1:1.0:0.1 | 0.1,0.5,0.9] [--switching wh|wh:4|vct|saf]
//!       [shared options, see --help]
//! ```
//!
//! The shared options (schedule, seed, threads, telemetry, budgets,
//! resume, supervision, backend) are the ones every sweep binary takes;
//! see `SweepOptions::parse`. Completed points are journaled to
//! `DIR/sweep.journal.jsonl`; `--resume <journal>` continues a crashed or
//! interrupted sweep, and the merged CSV is byte-identical to an
//! uninterrupted run.
//!
//! Examples:
//!
//! ```text
//! sweep --topo mesh:16x16 --algos ecube,2pn --loads 0.1:0.6:0.1 --quick
//! sweep --traffic hotspot:8,8@0.1 --algos extended --switching vct
//! ```

use wormsim::presets::FigureSpec;
use wormsim_bench::{
    cli, drop_unsupported, figure_plan, flag_value, parse_args_or_exit, partial_csv, print_figure,
    run_or_exit, write_csv, BackendChoice, SweepOptions,
};

const USAGE: &str = "sweep [--algos A] [--traffic W] [--loads L] [--switching S]";

/// Parses the sweep command line (program name already stripped): the
/// shared options plus the sweep's own axes. `--topo` is the network as
/// given (no hotspot remap, unlike the figure studies).
fn parse_args(args: Vec<String>) -> Result<(FigureSpec, SweepOptions), String> {
    let mut spec = FigureSpec {
        id: "sweep".to_owned(),
        title: "Custom sweep".to_owned(),
        topology: wormsim::presets::paper_topology(),
        traffic: wormsim::TrafficConfig::Uniform,
        switching: wormsim::Switching::wormhole(),
        loads: wormsim::presets::paper_loads(),
        algorithms: wormsim::presets::paper_algorithms().to_vec(),
    };
    let options = SweepOptions::parse(args, |flag, args, _| {
        match flag {
            "--algos" => spec.algorithms = cli::parse_algorithms(&flag_value(flag, args)?)?,
            "--traffic" => spec.traffic = cli::parse_traffic(&flag_value(flag, args)?)?,
            "--loads" => spec.loads = cli::parse_loads(&flag_value(flag, args)?)?,
            "--switching" => spec.switching = cli::parse_switching(&flag_value(flag, args)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if let Some(topology) = &options.topology {
        spec.topology = topology.clone();
    }
    // Drop algorithms the chosen topology rejects (e.g. nhop on odd tori),
    // reporting what was skipped rather than dying.
    for note in drop_unsupported(&mut spec.algorithms, &spec.topology)? {
        eprintln!("{note}");
    }
    Ok((spec, options))
}

fn main() {
    let (mut spec, options) = parse_args_or_exit(USAGE, parse_args);
    spec.title = format!(
        "{} on {} under {} ({:?})",
        spec.algorithms
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join("/"),
        spec.topology,
        spec.traffic,
        spec.switching,
    );

    let points = spec.algorithms.len() * spec.loads.len();
    let on = match &options.backend {
        BackendChoice::Local => format!("{} threads", options.threads),
        BackendChoice::Remote { workers } => format!("{} remote worker(s)", workers.len()),
    };
    eprintln!("running {points} points on {on}...");
    let plan = figure_plan(&spec, &options);
    // A fail-fast plan comes back without configuration errors.
    let run = run_or_exit(&plan, &options, partial_csv(&spec.id, &options.out_dir));
    let results: Vec<_> = run.outcomes.into_iter().flatten().flatten().collect();
    print_figure(&spec, &results);
    match write_csv(&spec.id, &results, &options.out_dir) {
        Ok(path) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(FigureSpec, SweepOptions), String> {
        parse_args(args.iter().map(|s| (*s).to_owned()).collect())
    }

    #[test]
    fn sweep_axes_parse() {
        let (spec, options) = parse(&[
            "--topo",
            "mesh:8x8",
            "--algos",
            "ecube,2pn",
            "--traffic",
            "hotspot:3,3@0.1",
            "--loads",
            "0.1,0.5",
            "--switching",
            "vct",
            "--seed",
            "11",
        ])
        .unwrap();
        assert_eq!(spec.topology, wormsim::topology::Topology::mesh(&[8, 8]));
        assert_eq!(spec.algorithms.len(), 2);
        assert_eq!(spec.loads, vec![0.1, 0.5]);
        assert_eq!(spec.switching, wormsim::Switching::VirtualCutThrough);
        // The network as given: the hotspot is not remapped.
        assert_eq!(
            spec.traffic,
            wormsim::TrafficConfig::Hotspot {
                nodes: vec![vec![3, 3]],
                fraction: 0.1
            }
        );
        assert_eq!(options.seed, 11);
    }

    #[test]
    fn bad_axes_are_usage_errors() {
        assert!(parse(&["--loads"]).is_err());
        assert!(parse(&["--loads", "0"]).is_err());
        assert!(parse(&["--algos", "warp"]).is_err());
        assert!(parse(&["--hyperdrive"]).is_err());
        // Nothing left to run is a usage error, not a panic.
        assert!(parse(&["--topo", "torus:9x9", "--algos", "nhop,nbc"]).is_err());
    }
}

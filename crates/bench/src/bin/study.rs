//! Runs one study of the paper's evaluation by name: the figures, the
//! in-text experiments and the ablations (see `wormsim_bench::studies`).
//!
//! ```text
//! study <name> [--quick|--saturation] [--topo T] [--seed N] [--out DIR] ...
//! ```
//!
//! Every study runs through the shared sweep harness: points run in
//! parallel (or on remote workers), completed points are journaled to
//! `DIR/<id>.journal.jsonl`, and `--resume <journal>` continues an
//! interrupted run with byte-identical output.

use wormsim_bench::studies::{self, STUDIES};
use wormsim_bench::{parse_args_or_exit, SweepOptions, OPTIONS_USAGE};

fn main() {
    let mut usage = "study <name> [options], where <name> is one of:\n".to_owned();
    for study in STUDIES {
        usage += &format!("  {:<22} {}\n", study.name, study.about);
    }
    usage += "options:";
    let (name, options) = parse_args_or_exit(&usage, |args| {
        let mut name = None;
        let options = SweepOptions::parse(args, |arg, _, _| {
            if arg.starts_with('-') || name.is_some() {
                return Ok(false);
            }
            name = Some(arg.to_owned());
            Ok(true)
        })?;
        Ok((name, options))
    });
    let Some(study) = name.as_deref().and_then(studies::find) else {
        match name {
            Some(name) => eprintln!("error: unknown study '{name}'"),
            None => eprintln!("error: name a study"),
        }
        eprintln!("usage: {usage} {OPTIONS_USAGE}");
        std::process::exit(2);
    };
    studies::run_study(study, &options);
}

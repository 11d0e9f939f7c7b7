//! Runs every registered experiment at (optionally `--tiny`/`--quick`)
//! scale, in process — the one-command reproduction of the paper's
//! evaluation section. The set of experiments is the
//! [`dtl_sim::experiments::registry`] itself, so a newly registered
//! experiment is picked up with no list to maintain here.
//!
//! * `--list` — print `name — summary` for every registered experiment
//!   and exit (CI greps this against `src/bin/` to catch drift).
//! * Shared flags (`--tiny`, `--seed`, `--jobs`, …) apply to every
//!   experiment; see the `dtl_bench` crate docs.

use dtl_bench::ExperimentCli;
use dtl_sim::experiments::registry;

fn main() {
    if std::env::args().any(|a| a == "--list") {
        for exp in registry() {
            println!("{} — {}", exp.name(), exp.summary());
        }
        return;
    }
    let cli = ExperimentCli::from_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    for exp in registry() {
        println!("\n########## {} ##########", exp.name());
        if let Err(msg) = dtl_bench::drive_experiment(*exp, &cli) {
            eprintln!("{msg}");
            eprintln!("{} failed; aborting the sweep", exp.name());
            std::process::exit(1);
        }
    }
    println!("\nall {} experiments regenerated; JSON results under results/", registry().len());
}

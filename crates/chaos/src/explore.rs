//! Seed-range exploration: the harness's outer loop.

use crate::executor::{execute, ChaosOutcome, Violation};
use crate::minimize::minimize;
use crate::plan::ChaosPlan;
use crate::ron::write_repro;

/// Default candidate-execution budget for minimization.
pub const DEFAULT_MINIMIZE_RUNS: usize = 200;

/// A seed whose scenario violated an invariant, with the minimized
/// reproduction.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The failing seed.
    pub seed: u64,
    /// The violation the full generated plan produced.
    pub violation: Violation,
    /// The minimized plan that still reproduces `violation.kind`.
    pub minimized: ChaosPlan,
    /// The repro file contents (write to `chaos-repro-<seed>.ron`).
    pub repro: String,
    /// Suggested repro file name.
    pub file_name: String,
    /// Trace-ring dumps from the original (unminimized) failing run,
    /// one JSONL dump of spans and events per node, each ending with
    /// the violation mark (write their concatenation to
    /// `chaos-trace-<seed>.jsonl`).
    pub traces: Vec<String>,
    /// Suggested trace file name, placed next to the repro.
    pub trace_file_name: String,
}

/// Outcome of exploring a seed range.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Total planned operations decided across honest runs.
    pub total_ops: u64,
    /// Total messages delivered.
    pub total_messages: u64,
    /// Seeds that violated an invariant.
    pub failures: Vec<SeedFailure>,
}

/// Generates and executes the scenario for one seed.
pub fn run_seed(seed: u64, mutate: bool) -> (ChaosPlan, ChaosOutcome) {
    let mut plan = ChaosPlan::generate(seed);
    if mutate {
        plan = plan.with_mutation();
    }
    let outcome = execute(&plan);
    (plan, outcome)
}

/// Explores `count` seeds starting at `start`. Violating seeds are
/// minimized (up to `minimize_runs` candidate executions each) and
/// returned with ready-to-write repro files.
pub fn explore(start: u64, count: u64, mutate: bool, minimize_runs: usize) -> ExploreReport {
    let mut report = ExploreReport::default();
    for seed in start..start + count {
        let (plan, outcome) = run_seed(seed, mutate);
        report.seeds_run += 1;
        report.total_ops += plan.ops.len() as u64;
        report.total_messages += outcome.delivered_messages;
        if let Some(violation) = outcome.violation {
            let minimized = minimize(&plan, violation.kind, minimize_runs);
            let repro = write_repro(&minimized, violation.kind);
            report.failures.push(SeedFailure {
                seed,
                violation,
                minimized,
                repro,
                file_name: format!("chaos-repro-{seed}.ron"),
                traces: outcome.traces,
                trace_file_name: format!("chaos-trace-{seed}.jsonl"),
            });
        }
    }
    report
}

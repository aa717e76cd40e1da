//! One short deterministic simulation with observability attached — the
//! CI `telemetry-smoke` job's subject.
//!
//! ```text
//! telemetry_smoke [--out DIR] [--duration-ms N] [--seed N]
//! ```
//!
//! Runs the scenario via [`Simulation::run_instrumented`], then:
//!
//! * writes the Prometheus exposition to `DIR/metrics.prom` and each
//!   node's trace-ring dump (spans and events) to
//!   `DIR/trace-node<i>.jsonl`;
//! * prints the exposition on stdout, preceded by
//!   `run-metric: <name>=<value>` lines carrying the simulator's own
//!   [`RunMetrics`];
//! * exits non-zero if the exposition fails its own round-trip parse or
//!   any trace fails JSONL parsing — the artifacts must be usable.
//!
//! The cross-checks of the default run (registry against run report,
//! view gauges, non-empty dumps) are the `telemetry_smoke` test of this
//! crate.
//!
//! [`RunMetrics`]: zugchain_sim::RunMetrics

use std::path::PathBuf;
use std::process::ExitCode;

use zugchain_sim::{Mode, ScenarioConfig, Simulation, Workload};

struct Args {
    out: PathBuf,
    duration_ms: u64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("telemetry-out"),
        duration_ms: 5_000,
        seed: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--duration-ms" => {
                args.duration_ms = value("--duration-ms")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--help" | "-h" => {
                println!("usage: telemetry_smoke [--out DIR] [--duration-ms N] [--seed N]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("telemetry_smoke: {err}");
            return ExitCode::from(2);
        }
    };

    let config = ScenarioConfig {
        mode: Mode::Zugchain,
        duration_ms: args.duration_ms,
        bus_cycle_ms: 64,
        workload: Workload::SyntheticPayload { bytes: 256 },
        ..ScenarioConfig::default()
    };
    let (metrics, capture) = Simulation::new(&config, args.seed).run_instrumented();

    if let Err(err) = std::fs::create_dir_all(&args.out) {
        eprintln!("telemetry_smoke: create {}: {err}", args.out.display());
        return ExitCode::FAILURE;
    }

    let exposition = capture.registry.render_prometheus();
    if let Err(err) = zugchain_telemetry::parse_prometheus(&exposition) {
        eprintln!("telemetry_smoke: exposition does not round-trip: {err}");
        return ExitCode::FAILURE;
    }
    if let Err(err) = std::fs::write(args.out.join("metrics.prom"), &exposition) {
        eprintln!("telemetry_smoke: write metrics.prom: {err}");
        return ExitCode::FAILURE;
    }
    for (node, trace) in capture.traces.iter().enumerate() {
        if let Err(err) = zugchain_telemetry::parse_jsonl(trace) {
            eprintln!("telemetry_smoke: node {node} trace is not valid JSONL: {err}");
            return ExitCode::FAILURE;
        }
        let path = args.out.join(format!("trace-node{node}.jsonl"));
        if let Err(err) = std::fs::write(&path, trace) {
            eprintln!("telemetry_smoke: write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }

    println!(
        "run-metric: consensus_decided={}",
        metrics.consensus_decided
    );
    println!("run-metric: batches_decided={}", metrics.batches_decided);
    println!("run-metric: logged_requests={}", metrics.logged_requests);
    println!("run-metric: blocks_created={}", metrics.blocks_created);
    println!("run-metric: view_changes={}", metrics.view_changes);
    print!("{exposition}");
    ExitCode::SUCCESS
}

//! Small-scale fleet run with observability attached — the CI
//! `fleet-smoke` job's subject.
//!
//! ```text
//! fleet_smoke [--out DIR] [--trains N] [--segments N] [--seed N]
//! ```
//!
//! Drives N simulated trains through record → export → sharded archive
//! ([`zugchain_sim::fleet`]), then:
//!
//! * prints one machine-readable `fleet-train:` line per train with the
//!   decided vs archived head comparison, and one `fleet-metric:` line
//!   per train carrying the registry's per-train
//!   `zugchain_archive_segments_total` (the default run's cross-check
//!   of these against the run report is also the tier-1 test
//!   `crates/sim/tests/fleet_smoke.rs`);
//! * writes the Prometheus exposition to `DIR/metrics.prom` (round-trip
//!   parsed first), audit bundles from the first three trains to
//!   `DIR/train-<id>-head.zab`, and each of those trains' replica key
//!   files (with their `train` directive) to `DIR/train-<id>-keys.txt`
//!   so CI re-verifies them offline with `zugchain-audit --train <id>`;
//! * exits non-zero if any train's chain is not fully archived or any
//!   per-train metric disagrees with the run report.

use std::path::PathBuf;
use std::process::ExitCode;

use zugchain_archive::keyfile;
use zugchain_sim::fleet::{run_fleet_instrumented, FleetConfig};

/// Trains whose head bundles + keyfiles are exported for offline audit.
const AUDITED_TRAINS: usize = 3;

struct Args {
    out: PathBuf,
    trains: usize,
    segments: usize,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("fleet-out"),
        trains: 16,
        segments: 2,
        seed: 0xF1EE7,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--trains" => args.trains = value("--trains")?.parse().map_err(|e| format!("{e}"))?,
            "--segments" => {
                args.segments = value("--segments")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--help" | "-h" => {
                println!("usage: fleet_smoke [--out DIR] [--trains N] [--segments N] [--seed N]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.trains == 0 || args.segments == 0 {
        return Err("--trains and --segments must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("fleet_smoke: {err}");
            return ExitCode::from(2);
        }
    };

    let config = FleetConfig {
        n_trains: args.trains,
        segments_per_train: args.segments,
        seed: args.seed,
        ..FleetConfig::default()
    };
    let (outcome, registry) = run_fleet_instrumented(&config);

    if let Err(err) = std::fs::create_dir_all(&args.out) {
        eprintln!("fleet_smoke: create {}: {err}", args.out.display());
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    for report in &outcome.trains {
        println!(
            "fleet-train: train={} decided_height={} archived_segments={} fully_archived={}",
            report.train, report.decided_height, report.archived_segments, report.fully_archived
        );
        if !report.fully_archived {
            eprintln!(
                "fleet_smoke: train {} decided head {:?} but shard head {:?}",
                report.train,
                (report.decided_height, report.decided_head),
                report.archived_head
            );
            failures += 1;
        }
        // The per-train telemetry series must agree with the run report.
        let metric = registry.counter_value(
            "zugchain_archive_segments_total",
            &[("node", "0"), ("train", &report.train.to_string())],
        );
        match metric {
            Some(value) => println!(
                "fleet-metric: train={} archive_segments_total={value}",
                report.train
            ),
            None => {
                eprintln!(
                    "fleet_smoke: no zugchain_archive_segments_total series for train {}",
                    report.train
                );
                failures += 1;
                continue;
            }
        }
        if metric != Some(report.archived_segments as u64) {
            eprintln!(
                "fleet_smoke: train {} metric {metric:?} != archived segments {}",
                report.train, report.archived_segments
            );
            failures += 1;
        }
    }
    println!(
        "fleet-total: trains={} requests={}",
        outcome.trains.len(),
        outcome.total_requests
    );

    let exposition = registry.render_prometheus();
    if let Err(err) = zugchain_telemetry::parse_prometheus(&exposition) {
        eprintln!("fleet_smoke: exposition does not round-trip: {err}");
        return ExitCode::FAILURE;
    }
    if let Err(err) = std::fs::write(args.out.join("metrics.prom"), &exposition) {
        eprintln!("fleet_smoke: write metrics.prom: {err}");
        return ExitCode::FAILURE;
    }

    // Export head bundles + keyfiles from the first few trains so CI can
    // re-verify them with the standalone `zugchain-audit --train` binary.
    for (train, keystore) in outcome.keystores.iter().take(AUDITED_TRAINS) {
        let head = match outcome.archive.head_of(*train) {
            Some((height, _)) => height,
            None => {
                eprintln!("fleet_smoke: train {train} has no archived head to bundle");
                failures += 1;
                continue;
            }
        };
        let bundle = match outcome.archive.audit_bundle(*train, head) {
            Some(bundle) => bundle,
            None => {
                eprintln!("fleet_smoke: no audit bundle for train {train} height {head}");
                failures += 1;
                continue;
            }
        };
        let bundle_path = args.out.join(format!("train-{train}-head.zab"));
        let keys_path = args.out.join(format!("train-{train}-keys.txt"));
        if let Err(err) = bundle.write_to(&bundle_path) {
            eprintln!("fleet_smoke: write {}: {err}", bundle_path.display());
            return ExitCode::FAILURE;
        }
        if let Err(err) = keyfile::write_keys_for_train(&keys_path, *train, keystore) {
            eprintln!("fleet_smoke: write {}: {err}", keys_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "fleet-bundle: train={train} height={head} bundle={} keys={}",
            bundle_path.display(),
            keys_path.display()
        );
    }

    if failures > 0 {
        eprintln!("fleet_smoke: {failures} check(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

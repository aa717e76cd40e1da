//! ZugChain benchmark: one command, three workloads, end-to-end metrics
//! with tracing off and a per-layer breakdown with tracing on.
//!
//! ```text
//! cargo run --release --offline --manifest-path zugbench/Cargo.toml -- \
//!     --workload record|ingest|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Scratch data goes to `.bench_tmp/` there
//! and is removed at exit. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones of the chosen
//! workload; with `--trace 1` they are every per-layer metric, from
//! single-threaded traced replays of all three workloads. The exit code
//! is 0 only when every correctness check passed.

mod ingest;
mod procfs;
mod record;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Record,
    Ingest,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Record => "record",
            Workload::Ingest => "ingest",
            Workload::Serve => "serve",
        }
    }
}

const USAGE: &str =
    "usage: zugbench --workload record|ingest|serve --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value {
                    "record" => Workload::Record,
                    "ingest" => Workload::Ingest,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| "--seconds must be a whole number")?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space for one run inside the working directory, removed on
/// drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir.canonicalize()?))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory `name`.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(Path::new(".bench_tmp"));
    }
}

/// The revision under test: the git commit when the working directory
/// is a git checkout, otherwise a digest over the sources the benchmark
/// builds from (`crates/` and `zugbench/src/`).
fn revision() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(reference) => {
                if let Ok(commit) = std::fs::read_to_string(Path::new(".git").join(reference)) {
                    return format!("git:{}", commit.trim());
                }
            }
            None => return format!("git:{head}"),
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "zugbench/src"] {
        collect_rs(Path::new(root), &mut files);
    }
    files.sort();
    let mut material = Vec::new();
    for file in &files {
        material.extend_from_slice(file.to_string_lossy().as_bytes());
        material.extend_from_slice(&std::fs::read(file).unwrap_or_default());
    }
    format!("src:{}", zugchain_crypto::Digest::of(&material).short())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn context_line(args: &Args, scratch: &ScratchDir) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"run_seconds\": {}, \"tracing\": \"{}\", \
         \"nproc\": {nproc}, \"revision\": \"{}\", \"tmp_fs\": \"{}\", \"build\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        report::json_escape(&revision()),
        report::json_escape(&procfs::filesystem_of(scratch.path())),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

fn print_report(outcome: &Outcome) {
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for m in &outcome.metrics {
        println!(
            "metric {:<44} {:>18.6} {:<6} (n={}){}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            if m.gated { "" } else { " [context only]" }
        );
    }
    // failed_frac is not a result metric (it is 0 on a healthy run); the
    // result line carries it as `attempted` and `failed`.
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "metric {:<44} {:>18.6} {:<6} (n={}) [as attempted/failed]",
        "failed_frac", failed_frac, "ratio", outcome.attempted
    );
    for violation in &outcome.violations {
        println!("CHECK FAILED: {violation}");
    }
    println!("correct: {}", outcome.correct());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("zugbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::create(args.workload.name()) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("zugbench: cannot create scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    println!("context: {}", context_line(&args, &scratch));
    let run = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        let mut outcome = Outcome::default();
        record::traced(args.seed, &scratch, &mut outcome);
        ingest::traced(args.seed, &scratch, &mut outcome);
        serve::traced(args.seed, &scratch, &mut outcome);
        outcome
    } else {
        match args.workload {
            Workload::Record => record::run(args.seed, run),
            Workload::Ingest => ingest::run(args.seed, run, &scratch),
            Workload::Serve => serve::run(args.seed, run, &scratch),
        }
    };
    drop(scratch);
    print_report(&outcome);
    if outcome.attempted == 0 {
        eprintln!("zugbench: no operation was attempted");
        return ExitCode::from(1);
    }
    println!("{}", report::result_json(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&argv("--workload serve --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::Serve,
                seed: 42,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload record --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload record --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload record --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload record --seed")).is_err());
    }
}

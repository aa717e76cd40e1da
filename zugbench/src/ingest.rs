//! `ingest`: the data-center side.
//!
//! A durable `FleetArchive` holds 16 trains, each with its own keyset,
//! `DataCenter` and four `ExportReplica`s. Two load threads each own half
//! the trains and loop: grow a chain by one segment (20 blocks x 10 small
//! JRU signal requests plus a 2f + 1 checkpoint certificate), run one
//! export round, then `FleetArchive::ingest` the certified result. One
//! operation is a segment exported and archived; throughput is reported
//! in archived requests per second.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use zugchain_archive::FleetArchive;

use crate::procfs;
use crate::report::{Outcome, Timed};
use crate::stats::{self, Sample};
use crate::trace::{layer_totals, Tracer, RECONCILE_TOLERANCE};
use crate::train::{self, Train, REQUESTS_PER_SEGMENT, TRAINS};
use crate::ScratchDir;

/// Archived requests after which `peak_rss_mb` is read (a 10 s run
/// archives 450k to 900k on a 2-core machine).
const RSS_AT_OPS: u64 = 250_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Load threads (never more than the machine's cores).
const MAX_THREADS: usize = 2;
/// Segments per train archived during set-up (warm-up).
const WARMUP_SEGMENTS: usize = 8;
/// Bundles verified offline after the timed phase.
const BUNDLE_SAMPLES: usize = 32;
/// Segments per train in the traced replay (16 x 64 = 1024 samples).
const TRACED_SEGMENTS_PER_TRAIN: usize = 64;

/// Set-up: a durable 16-train fleet archive with one archived segment
/// per train.
fn setup(seed: u64, dir: &Path) -> (FleetArchive, Vec<Train>) {
    let (archive, mut trains) = train::open_fleet(seed, dir);
    for t in &mut trains {
        train::advance(t, &archive, WARMUP_SEGMENTS);
    }
    (archive, trains)
}

/// What one load thread did.
#[derive(Default)]
struct Load {
    samples: Vec<Sample>,
    archived: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn load(
    trains: &mut [Train],
    archive: &FleetArchive,
    rss: &procfs::RssProbe,
    start: Instant,
    until: Instant,
) -> Load {
    let mut out = Load::default();
    let mut tracer = Tracer::with_enabled(false);
    'outer: loop {
        for t in trains.iter_mut() {
            if Instant::now() >= until {
                break 'outer;
            }
            t.grow_segment();
            out.attempted += REQUESTS_PER_SEGMENT;
            let started = Instant::now();
            let segments = t.export(&mut tracer);
            let mut archived = 0;
            for segment in &segments {
                match archive.ingest(segment) {
                    Ok(_) => {
                        archived += segment
                            .blocks
                            .iter()
                            .map(|b| b.requests.len() as u64)
                            .sum::<u64>()
                    }
                    Err(e) => out
                        .errors
                        .push(format!("train {}: ingest failed: {e:?}", t.id)),
                }
            }
            if archived == REQUESTS_PER_SEGMENT {
                out.samples.push(Sample {
                    at_s: start.elapsed().as_secs_f64(),
                    latency_ms: started.elapsed().as_secs_f64() * 1e3,
                    ops: archived,
                });
                out.archived += archived;
                rss.add(archived);
            } else {
                out.failed += REQUESTS_PER_SEGMENT;
            }
        }
    }
    out
}

/// The untraced `ingest` workload.
pub fn run(seed: u64, length: Duration, scratch: &ScratchDir) -> Outcome {
    let mut outcome = Outcome::default();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    outcome.note(format!(
        "ingest: durable FleetArchive, {TRAINS} trains, {} blocks x {} requests per segment, \
         fsync per segment and index, {threads} closed-loop load threads, set-up x{SETUP_REPEATS}",
        train::BLOCKS_PER_SEGMENT,
        train::BLOCK_SIZE
    ));

    let mut setup_s = Vec::new();
    let mut kept: Option<(FleetArchive, Vec<Train>, PathBuf)> = None;
    for attempt in 0..SETUP_REPEATS {
        if let Some((archive, trains, dir)) = kept.take() {
            drop((archive, trains));
            let _ = std::fs::remove_dir_all(dir);
        }
        let started = Instant::now();
        let dir = scratch.fresh(&format!("archive-{attempt}"));
        let (archive, trains) = setup(seed, &dir);
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((archive, trains, dir));
    }
    let (archive, trains, _dir) = kept.expect("at least one set-up");

    // Trains dealt round-robin to the load threads.
    let mut shares: Vec<Vec<Train>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, t) in trains.into_iter().enumerate() {
        shares[i % threads].push(t);
    }
    let host_before = procfs::HostSnapshot::now();
    let cpu_before = procfs::process_cpu_s();
    let started = Instant::now();
    let until = started + length;
    let rss = procfs::RssProbe::new(RSS_AT_OPS);
    let loads: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter_mut()
            .map(|share| {
                let (archive, rss) = (&archive, &rss);
                scope.spawn(move || load(share, archive, rss, started, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_s() - cpu_before;
    let host = procfs::HostSnapshot::now().since(&host_before);

    let mut trains: Vec<Train> = shares.into_iter().flatten().collect();
    trains.sort_by_key(|t| t.id.0);
    let mut samples = Vec::new();
    let mut archived = 0;
    for l in loads {
        samples.extend(l.samples);
        archived += l.archived;
        outcome.attempted += l.attempted;
        outcome.failed += l.failed;
        outcome.violations.extend(l.errors);
    }
    outcome
        .violations
        .extend(train::heads_match(&archive, &trains));
    outcome.violations.extend(train::bundles_verify(
        &archive,
        &trains,
        seed,
        BUNDLE_SAMPLES,
    ));
    outcome.note(format!(
        "ingest: {} segments archived ({archived} requests); latency is per segment, \
         ops and cpu are per archived request",
        samples.len()
    ));
    outcome.end_to_end(Timed {
        samples,
        elapsed_s: elapsed,
        cpu_s,
        rss,
        setup_s,
        host,
    });
    outcome
}

/// `(length, mtime)` of every file in `dir`.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, (u64, SystemTime)> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| {
                    let meta = e.metadata().ok()?;
                    Some((e.path(), (meta.len(), meta.modified().ok()?)))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Files created or replaced between two snapshots.
fn changed(
    before: &BTreeMap<PathBuf, (u64, SystemTime)>,
    after: &BTreeMap<PathBuf, (u64, SystemTime)>,
) -> u64 {
    after
        .iter()
        .filter(|(path, stamp)| before.get(*path) != Some(stamp))
        .count() as u64
}

/// The traced `ingest` breakdown, single-threaded: per-layer metrics
/// into `outcome`.
pub fn traced(seed: u64, scratch: &ScratchDir, outcome: &mut Outcome) {
    let dir = scratch.fresh("traced-archive");
    let (archive, mut trains) = setup(seed, &dir);
    let bytes_before = procfs::dir_bytes(&dir);
    let payload_before: u64 = trains.iter().map(|t| t.payload_bytes).sum();
    let msgs_before: u64 = trains.iter().map(|t| t.export_msgs).sum();

    let mut tracer = Tracer::new();
    let mut ingest_us = Vec::new();
    let mut ingest_cpu_ns = 0u64;
    let mut files_synced = 0u64;
    let mut archived = 0u64;
    let mut snapshot_ns = 0u64;
    let started = Instant::now();
    for _ in 0..TRACED_SEGMENTS_PER_TRAIN {
        for t in trains.iter_mut() {
            tracer.span("blockchain.segment_build", |_| t.grow_segment());
            let segments = t.export(&mut tracer);
            for segment in &segments {
                let snap_started = Instant::now();
                let shard = dir.join("trains").join(t.id.to_string());
                let before = snapshot(&shard);
                snapshot_ns += snap_started.elapsed().as_nanos() as u64;

                let cpu = procfs::thread_cpu_ns();
                let wall = Instant::now();
                let result = tracer.span("archive.ingest", |_| archive.ingest(segment));
                let wall_ns = wall.elapsed().as_nanos() as u64;
                ingest_cpu_ns += procfs::thread_cpu_ns() - cpu;
                if let Err(e) = result {
                    outcome.check(false, || format!("traced ingest failed: {e:?}"));
                    continue;
                }
                let requests: u64 = segment.blocks.iter().map(|b| b.requests.len() as u64).sum();
                archived += requests;
                ingest_us.push(wall_ns as f64 / 1e3 / requests as f64);

                let snap_started = Instant::now();
                files_synced += changed(&before, &snapshot(&shard));
                snapshot_ns += snap_started.elapsed().as_nanos() as u64;
            }
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64 - snapshot_ns;
    outcome.attempted += (TRACED_SEGMENTS_PER_TRAIN * TRAINS) as u64 * REQUESTS_PER_SEGMENT;
    outcome
        .violations
        .extend(train::heads_match(&archive, &trains));

    let n = archived.max(1) as f64;
    let t = layer_totals(tracer.spans());
    let per_op = |ns: u64| ns as f64 / 1e3 / n;
    let build = t.total_ns("blockchain.segment_build");
    let replica = t.total_ns("export.replica");
    let dc = t.total_ns("export.dc");
    let ingest = t.total_ns("archive.ingest");
    outcome.metric(
        "blockchain.segment_build_us_per_op",
        "us",
        per_op(build),
        archived,
    );
    outcome.metric("export.replica_us_per_op", "us", per_op(replica), archived);
    outcome.metric("export.dc_us_per_op", "us", per_op(dc), archived);
    let msgs: u64 = trains.iter().map(|t| t.export_msgs).sum::<u64>() - msgs_before;
    outcome.metric("export.msgs_per_op", "count", msgs as f64 / n, archived);

    let sorted = stats::sorted(ingest_us);
    let segments = sorted.len() as u64;
    match (
        stats::percentile(&sorted, 0.5),
        stats::percentile(&sorted, 0.99),
    ) {
        (Some(p50), Some(p99)) => {
            outcome.metric("archive.ingest_us_per_op.p50", "us", p50, segments);
            outcome.metric("archive.ingest_us_per_op.p99", "us", p99, segments);
        }
        _ => outcome.check(false, || {
            format!("{segments} ingest samples are too few for p99")
        }),
    }
    let cpu_per_op = ingest_cpu_ns as f64 / 1e3 / n;
    outcome.metric("archive.ingest_cpu_us_per_op", "us", cpu_per_op, archived);
    outcome.metric(
        "archive.ingest_wait_us_per_op",
        "us",
        per_op(ingest) - cpu_per_op,
        archived,
    );
    let payload: u64 = trains.iter().map(|t| t.payload_bytes).sum::<u64>() - payload_before;
    outcome.metric(
        "archive.disk_bytes_per_payload_byte",
        "ratio",
        (procfs::dir_bytes(&dir) - bytes_before) as f64 / payload as f64,
        archived,
    );
    outcome.metric(
        "archive.files_synced_per_op",
        "count",
        files_synced as f64 / n,
        archived,
    );

    let layers = build + replica + dc + ingest;
    let unaccounted = 1.0 - layers as f64 / wall_ns as f64;
    outcome.metric("ingest.traced_us_per_op", "us", per_op(wall_ns), archived);
    outcome.metric("ingest.unaccounted_frac", "ratio", unaccounted, archived);
    outcome.check(unaccounted.abs() <= RECONCILE_TOLERANCE, || {
        format!(
            "ingest: layer self times leave {:.1}% of the traced total unaccounted",
            unaccounted * 100.0
        )
    });
}

//! `serve`: juridical readers.
//!
//! Set-up builds a durable 16-train fleet through the same export and
//! ingest path as `ingest`, then starts `ApiServer` over loopback with
//! `ApiConfig::open()`. Two keep-alive `HttpClient` connections run
//! closed loops over a seeded, skewed mix (recent segments and higher
//! train ids favoured): 50% block pages (limit 100), 20% timelines, 20%
//! bundle downloads, 10% `/v1/trains`. One connection also ingests a new
//! segment for a random train every 50 reads. One operation is one HTTP
//! response.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zugchain_api::http::Request;
use zugchain_api::{ApiConfig, ApiServer, ApiService, Backend, HttpClient};
use zugchain_archive::{AuditBundle, FleetArchive};
use zugchain_telemetry::Registry;
use zugchain_wire::TrainId;

use crate::procfs;
use crate::report::{Outcome, Timed};
use crate::rng::Rng;
use crate::stats::{self, Sample};
use crate::trace::{layer_totals, Tracer};
use crate::train::{self, Train, BLOCK_SIZE, MS_PER_REQUEST, QUORUM, REQUESTS_PER_SEGMENT, TRAINS};
use crate::ScratchDir;

/// Responses after which `peak_rss_mb` is read (a 10 s run serves 50k
/// to 75k on a 2-core machine).
const RSS_AT_OPS: u64 = 25_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Segments per train archived before serving starts.
const SEGMENTS_PER_TRAIN: usize = 24;
/// Reader connections (never more than the machine's cores).
const MAX_CLIENTS: usize = 2;
/// Reads between two ingests on the writing connection.
const READS_PER_WRITE: u64 = 50;
/// Page size of block queries.
const PAGE_LIMIT: usize = 100;
/// Every this many block pages, one is compared with a direct read.
const PAGE_SAMPLE_EVERY: u64 = 16;
/// Queries in each traced replay.
const TRACED_QUERIES: usize = 6000;
/// Archive reads timed while a writer ingests (p99 needs ≥ 1000).
const TRACED_CONTENDED_READS: usize = 2000;

/// One reader query.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Query {
    Blocks {
        train: TrainId,
        from_sn: u64,
    },
    Timeline {
        train: TrainId,
        from_ms: u64,
        to_ms: u64,
    },
    Bundle {
        train: TrainId,
        sn: u64,
    },
    Trains,
}

impl Query {
    fn path(&self) -> String {
        match self {
            Query::Blocks { train, from_sn } => {
                format!("/v1/trains/{train}/blocks?from_sn={from_sn}&limit={PAGE_LIMIT}")
            }
            Query::Timeline {
                train,
                from_ms,
                to_ms,
            } => format!("/v1/trains/{train}/timeline?from_ms={from_ms}&to_ms={to_ms}"),
            Query::Bundle { train, sn } => format!("/v1/trains/{train}/bundle/{sn}"),
            Query::Trains => "/v1/trains".to_string(),
        }
    }

    fn kind(&self) -> usize {
        match self {
            Query::Blocks { .. } => 0,
            Query::Timeline { .. } => 1,
            Query::Bundle { .. } => 2,
            Query::Trains => 3,
        }
    }

    /// The parsed request `ApiService::respond` takes.
    fn request(&self) -> Request {
        let path = self.path();
        let (path, query) = path.split_once('?').unwrap_or((&path, ""));
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query
                .split('&')
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            http11: true,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }
}

/// The seeded query mix over the sequence numbers archived at set-up.
struct Mix {
    rng: Rng,
    head_sn: Vec<u64>,
}

impl Mix {
    fn new(seed: u64, stream: u64, trains: &[Train]) -> Self {
        Mix {
            rng: Rng::new(seed, 0x5E7E_0000 + stream),
            head_sn: trains.iter().map(Train::head_sn).collect(),
        }
    }

    fn next_query(&mut self) -> Query {
        let index = self.rng.recent(TRAINS as u64, 2) as usize;
        let train = TrainId(index as u64 + 1);
        let head = self.head_sn[index];
        let sn = 1 + self.rng.recent(head, 2);
        match self.rng.below(10) {
            0..=4 => {
                // Readers page through settled history from block starts
                // (full pages, cacheable); one in five follows the head
                // (partial pages, never cached).
                let blocks = head / BLOCK_SIZE as u64;
                let page = PAGE_LIMIT as u64;
                let block = if blocks <= page || self.rng.below(5) == 0 {
                    blocks - 1 - self.rng.below(page.min(blocks))
                } else {
                    self.rng.recent(blocks - page, 2)
                };
                Query::Blocks {
                    train,
                    from_sn: block * BLOCK_SIZE as u64 + 1,
                }
            }
            5 | 6 => {
                // The time window of one segment.
                let segment = (sn - 1) / REQUESTS_PER_SEGMENT;
                let first = segment * REQUESTS_PER_SEGMENT + 1;
                Query::Timeline {
                    train,
                    from_ms: first * MS_PER_REQUEST,
                    to_ms: (first + REQUESTS_PER_SEGMENT - 1) * MS_PER_REQUEST,
                }
            }
            7 | 8 => Query::Bundle { train, sn },
            _ => Query::Trains,
        }
    }
}

/// Set-up: the archived fleet (built with up to two threads).
fn build_fleet(seed: u64, dir: &std::path::Path) -> (FleetArchive, Vec<Train>) {
    let (archive, mut trains) = train::open_fleet(seed, dir);
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_CLIENTS);
    std::thread::scope(|scope| {
        for share in trains.chunks_mut(TRAINS.div_ceil(threads)) {
            let archive = &archive;
            scope.spawn(move || {
                for t in share {
                    train::advance(t, archive, SEGMENTS_PER_TRAIN);
                }
            });
        }
    });
    (archive, trains)
}

/// What one reader connection saw.
#[derive(Default)]
struct Reads {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    bundles: Vec<(TrainId, u64, Vec<u8>)>,
    pages: Vec<(TrainId, u64, String)>,
    errors: Vec<String>,
}

fn reader(
    addr: std::net::SocketAddr,
    mut mix: Mix,
    rss: &procfs::RssProbe,
    start: Instant,
    until: Instant,
    mut writer: Option<(&mut [Train], &FleetArchive, Rng)>,
) -> Reads {
    let mut client = HttpClient::new(addr);
    let mut out = Reads::default();
    let mut blocks_seen = 0u64;
    while Instant::now() < until {
        let query = mix.next_query();
        let started = Instant::now();
        let response = client.get(&query.path(), None);
        let latency = started.elapsed();
        out.attempted += 1;
        match response {
            Ok(r) if r.status == 200 => {
                rss.add(1);
                out.samples.push(Sample {
                    at_s: start.elapsed().as_secs_f64(),
                    latency_ms: latency.as_secs_f64() * 1e3,
                    ops: 1,
                });
                match query {
                    Query::Bundle { train, sn } => out.bundles.push((train, sn, r.body)),
                    Query::Blocks { train, from_sn } => {
                        blocks_seen += 1;
                        if blocks_seen.is_multiple_of(PAGE_SAMPLE_EVERY) {
                            out.pages.push((train, from_sn, r.text()));
                        }
                    }
                    _ => {}
                }
            }
            Ok(r) => {
                out.failed += 1;
                out.errors
                    .push(format!("{} answered {}", query.path(), r.status));
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("{} failed: {e}", query.path()));
            }
        }
        if let Some((trains, archive, rng)) = writer.as_mut() {
            if out.attempted % READS_PER_WRITE == 0 {
                let t = &mut trains[rng.below(trains.len() as u64) as usize];
                train::advance(t, archive, 1);
            }
        }
    }
    out
}

/// Block hashes of a rendered page, in order.
fn page_hashes(body: &str) -> Vec<String> {
    body.split("\"hash\":")
        .skip(1)
        .filter_map(|rest| {
            let rest = rest.trim_start().strip_prefix('"')?;
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

/// The untraced `serve` workload.
pub fn run(seed: u64, length: Duration, scratch: &ScratchDir) -> Outcome {
    let mut outcome = Outcome::default();
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_CLIENTS);
    outcome.note(format!(
        "serve: durable {TRAINS}-train fleet, {SEGMENTS_PER_TRAIN} segments per train at set-up, \
         ApiServer open config, {clients} keep-alive closed-loop readers, mix 50% blocks \
         (limit {PAGE_LIMIT}) / 20% timeline / 20% bundle / 10% trains, one ingest per \
         {READS_PER_WRITE} reads on reader 0, set-up x{SETUP_REPEATS}"
    ));

    let mut setup_s = Vec::new();
    let mut kept = None;
    for attempt in 0..SETUP_REPEATS {
        if let Some((server, archive, trains, dir)) = kept.take() {
            let mut server: ApiServer = server;
            server.stop();
            drop((archive, trains));
            let _ = std::fs::remove_dir_all::<std::path::PathBuf>(dir);
        }
        let started = Instant::now();
        let dir = scratch.fresh(&format!("fleet-{attempt}"));
        let (archive, trains) = build_fleet(seed, &dir);
        let server = ApiServer::start(
            ApiConfig::open(),
            Backend::Fleet(archive.clone()),
            Arc::new(Registry::new()),
        )
        .expect("start api server");
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((server, archive, trains, dir));
    }
    let (mut server, archive, mut trains, _dir) = kept.expect("at least one set-up");
    let addr = server.address();

    let mixes: Vec<Mix> = (0..clients as u64)
        .map(|c| Mix::new(seed, c, &trains))
        .collect();
    let host_before = procfs::HostSnapshot::now();
    let cpu_before = procfs::process_cpu_s();
    let started = Instant::now();
    let until = started + length;
    let rss = procfs::RssProbe::new(RSS_AT_OPS);
    let reads: Vec<Reads> = std::thread::scope(|scope| {
        let (archive, rss) = (&archive, &rss);
        let mut writer = Some((trains.as_mut_slice(), archive, Rng::new(seed, 0x3217E)));
        let handles: Vec<_> = mixes
            .into_iter()
            .map(|mix| {
                let writer = writer.take();
                scope.spawn(move || reader(addr, mix, rss, started, until, writer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_s() - cpu_before;
    let host = procfs::HostSnapshot::now().since(&host_before);
    server.stop();

    let mut samples = Vec::new();
    let mut bundles = Vec::new();
    let mut pages = Vec::new();
    for r in reads {
        samples.extend(r.samples);
        outcome.attempted += r.attempted;
        outcome.failed += r.failed;
        outcome.violations.extend(r.errors.into_iter().take(8));
        bundles.extend(r.bundles);
        pages.extend(r.pages);
    }
    check_bundles(&bundles, &trains, &mut outcome);
    check_pages(&pages, &archive, &mut outcome);
    outcome
        .violations
        .extend(train::heads_match(&archive, &trains));
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

/// Downloaded bundles verify offline against the train's public keys and
/// cover the requested sequence number (untimed).
fn check_bundles(bundles: &[(TrainId, u64, Vec<u8>)], trains: &[Train], outcome: &mut Outcome) {
    let mut bad = 0;
    for (train, sn, body) in bundles {
        let keystore = &trains[(train.0 - 1) as usize].keystore;
        let ok = AuditBundle::from_zab_bytes(body)
            .ok()
            .and_then(|b| b.verify(keystore, QUORUM).ok())
            .is_some_and(|block| block.header.first_sn <= *sn && *sn <= block.header.last_sn);
        if !ok {
            bad += 1;
        }
    }
    outcome.check(bad == 0, || {
        format!(
            "{bad} of {} bundles failed offline verification",
            bundles.len()
        )
    });
    outcome.note(format!(
        "serve: {} downloaded bundles verified offline",
        bundles.len()
    ));
}

/// Sampled pages equal a direct `page_by_sn` (a prefix of it, when the
/// page touched a chain head that has grown since).
fn check_pages(pages: &[(TrainId, u64, String)], archive: &FleetArchive, outcome: &mut Outcome) {
    let mut bad = 0;
    for (train, from_sn, body) in pages {
        let served = page_hashes(body);
        let direct: Vec<String> = archive
            .with_shard(*train, |a| a.page_by_sn(*from_sn, PAGE_LIMIT))
            .unwrap_or_default()
            .iter()
            .map(|info| info.hash.to_string())
            .collect();
        if served.is_empty() || !direct.starts_with(&served) {
            bad += 1;
        }
    }
    outcome.check(bad == 0, || {
        format!(
            "{bad} of {} sampled pages differ from page_by_sn",
            pages.len()
        )
    });
}

const KINDS: [&str; 4] = ["blocks", "timeline", "bundle", "trains"];

/// The traced `serve` breakdown: per-layer metrics into `outcome`.
pub fn traced(seed: u64, scratch: &ScratchDir, outcome: &mut Outcome) {
    let dir = scratch.fresh("traced-fleet");
    let (archive, mut trains) = build_fleet(seed, &dir);
    let mut mix = Mix::new(seed, 0, &trains);
    let queries: Vec<Query> = (0..TRACED_QUERIES).map(|_| mix.next_query()).collect();
    outcome.attempted += queries.len() as u64;
    let mut counts = [0u64; 4];
    for q in &queries {
        counts[q.kind()] += 1;
    }

    // 1. The transport-free serving core.
    let registry = Arc::new(Registry::new());
    let service = ApiService::new(
        ApiConfig::open(),
        Backend::Fleet(archive.clone()),
        registry.clone(),
    );
    let requests: Vec<Request> = queries.iter().map(Query::request).collect();
    let respond_names = [
        "api.respond.blocks",
        "api.respond.timeline",
        "api.respond.bundle",
        "api.respond.trains",
    ];
    let mut tracer = Tracer::new();
    let mut bytes = 0u64;
    let mut non_200 = 0;
    for (q, request) in queries.iter().zip(&requests) {
        let response = tracer.span(respond_names[q.kind()], |_| {
            service.respond(request, "bench")
        });
        bytes += response.body.len() as u64;
        non_200 += u64::from(response.status != 200);
    }
    outcome.check(non_200 == 0, || {
        format!("{non_200} traced responses were not 200")
    });
    let t = layer_totals(tracer.spans());
    for (kind, name) in KINDS.iter().zip(respond_names) {
        outcome.metric(
            format!("api.respond_us.{kind}"),
            "us",
            t.total_ns(name) as f64 / 1e3 / t.count(name).max(1) as f64,
            t.count(name),
        );
    }
    let respond_mean_us = respond_names.iter().map(|n| t.total_ns(n)).sum::<u64>() as f64
        / 1e3
        / queries.len() as f64;
    outcome.metric(
        "api.bytes_per_op",
        "B",
        bytes as f64 / queries.len() as f64,
        queries.len() as u64,
    );
    let hits = registry
        .counter_value("zugchain_api_cache_hits_total", &[])
        .unwrap_or(0);
    let misses = registry
        .counter_value("zugchain_api_cache_misses_total", &[])
        .unwrap_or(0);
    outcome.metric(
        "api.cache_hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        hits + misses,
    );

    // 2. The archive read path underneath.
    let read_names = [
        "archive.read.page",
        "archive.read.timeline",
        "archive.read.bundle",
    ];
    let mut tracer = Tracer::new();
    for q in &queries {
        match *q {
            Query::Blocks { train, from_sn } => {
                tracer.span(read_names[0], |_| {
                    archive.with_shard(train, |a| a.page_by_sn(from_sn, PAGE_LIMIT).len())
                });
            }
            Query::Timeline {
                train,
                from_ms,
                to_ms,
            } => {
                tracer.span(read_names[1], |_| {
                    archive.with_shard(train, |a| {
                        std::hint::black_box(a.timeline(from_ms, to_ms))
                            .events()
                            .len()
                    })
                });
            }
            Query::Bundle { train, sn } => {
                tracer.span(read_names[2], |_| {
                    archive.with_shard(train, |a| a.bundle_by_sn(sn).is_some())
                });
            }
            Query::Trains => {}
        }
    }
    let t = layer_totals(tracer.spans());
    for (kind, name) in ["page", "timeline", "bundle"].iter().zip(read_names) {
        outcome.metric(
            format!("archive.read_us.{kind}"),
            "us",
            t.total_ns(name) as f64 / 1e3 / t.count(name).max(1) as f64,
            t.count(name),
        );
    }

    // 3. The same sequence over loopback HTTP, against a fresh service so
    // its cache sees the same history.
    let mut server = ApiServer::start(
        ApiConfig::open(),
        Backend::Fleet(archive.clone()),
        Arc::new(Registry::new()),
    )
    .expect("start api server");
    let mut client = HttpClient::new(server.address());
    let started = Instant::now();
    let mut http_failures = 0;
    for q in &queries {
        match client.get(&q.path(), None) {
            Ok(r) if r.status == 200 => {}
            _ => http_failures += 1,
        }
    }
    let rtt_mean_us = started.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;
    server.stop();
    outcome.check(http_failures == 0, || {
        format!("{http_failures} traced HTTP requests failed")
    });
    outcome.metric(
        "api.transport_us_per_op",
        "us",
        rtt_mean_us - respond_mean_us,
        queries.len() as u64,
    );

    // 4. Archive reads while a writer keeps ingesting.
    let stop = AtomicBool::new(false);
    let mut read_ms = Vec::with_capacity(TRACED_CONTENDED_READS);
    std::thread::scope(|scope| {
        let archive_ref = &archive;
        let stop_ref = &stop;
        let trains_ref = &mut trains;
        let writer = scope.spawn(move || {
            let mut rng = Rng::new(seed, 0x3217E);
            while !stop_ref.load(Ordering::Relaxed) {
                let t = &mut trains_ref[rng.below(TRAINS as u64) as usize];
                train::advance(t, archive_ref, 1);
            }
        });
        for q in queries
            .iter()
            .filter(|q| matches!(q, Query::Blocks { .. }))
            .cycle()
            .take(TRACED_CONTENDED_READS)
        {
            let Query::Blocks { train, from_sn } = *q else {
                unreachable!()
            };
            let started = Instant::now();
            archive.with_shard(train, |a| a.page_by_sn(from_sn, PAGE_LIMIT).len());
            read_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread panicked");
    });
    let sorted = stats::sorted(read_ms);
    match stats::percentile(&sorted, 0.99) {
        Some(p99) => outcome.metric(
            "archive.read_during_write_p99_ms",
            "ms",
            p99,
            sorted.len() as u64,
        ),
        None => outcome.check(false, || "too few contended reads for p99".into()),
    }
    outcome
        .violations
        .extend(train::heads_match(&archive, &trains));
    outcome.note(format!(
        "serve traced: {} queries (blocks {}, timeline {}, bundle {}, trains {})",
        queries.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3]
    ));
}

//! Benchmarks the HTTP serving layer over a large archive: cold vs
//! segment-cached range reads and timelines at the service level (no
//! socket noise — [`zugchain_api::ApiService::respond`] is driven
//! directly, so the numbers isolate the cache economics), plus a
//! concurrent-reader sweep over real loopback HTTP that must finish
//! with zero 5xx responses. The recorded claims in `BENCH_archive.json`:
//! segment-cached range reads at least 5× colder-than-cache reads, and
//! 64 concurrent readers against a million-block archive served
//! errorlessly.
//!
//! Set `ZUGCHAIN_BENCH_QUICK=1` for the CI smoke variant (a small
//! archive and a short sweep). The full run builds a 1,000,000-block
//! archive (~1 GiB resident) and takes a few minutes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion, Throughput};
use zugchain_api::http::Request;
use zugchain_api::{ApiConfig, ApiServer, ApiService, Backend, HttpClient};
use zugchain_archive::{Archive, QueryEngine};
use zugchain_blockchain::{Block, BlockBuilder, LoggedRequest};
use zugchain_crypto::{KeyPair, Keystore};
use zugchain_export::CertifiedSegment;
use zugchain_mvb::PortAddress;
use zugchain_pbft::{Checkpoint, CheckpointProof, Message, NodeId};
use zugchain_signals::{Request as SignalRequest, SignalValue, TrainEvent};
use zugchain_telemetry::Registry;
use zugchain_wire::TrainId;

const QUORUM: usize = 3;
const TRAIN: TrainId = TrainId(9);
/// One request per block keeps the million-block build tractable; the
/// serving layer pages over blocks, so block count is the axis that
/// matters here.
const BLOCK_SIZE: usize = 1;
const PAGE_LIMIT: u64 = 100;

fn quick() -> bool {
    std::env::var_os("ZUGCHAIN_BENCH_QUICK").is_some()
}

fn signal_payload(sn: u64) -> Vec<u8> {
    let time_ms = sn * 64;
    zugchain_wire::to_bytes(&SignalRequest {
        cycle: sn,
        time_ms,
        events: vec![TrainEvent {
            name: "v_actual".to_string(),
            port: PortAddress(0x42),
            cycle: sn,
            time_ms,
            value: SignalValue::U16((sn % 4_000) as u16),
        }],
    })
}

fn certify(pairs: &[KeyPair], sn: u64, head: &Block) -> CheckpointProof {
    let checkpoint = Checkpoint {
        sn,
        state_digest: head.hash(),
    };
    let message = zugchain_wire::to_bytes(&Message::Checkpoint(checkpoint));
    CheckpointProof {
        checkpoint,
        signatures: (0..QUORUM)
            .map(|id| (NodeId(id as u64), pairs[id].sign(&message)))
            .collect(),
    }
}

/// Builds and ingests `n_segments × blocks_per_segment` single-request
/// blocks for [`TRAIN`], returning the query engine and the head sn.
fn populated_engine(n_segments: usize, blocks_per_segment: usize) -> (QueryEngine, u64) {
    let (pairs, keystore) = Keystore::generate(4, 7);
    let mut archive = Archive::in_memory_for_train(TRAIN, keystore, QUORUM);
    let mut builder = BlockBuilder::new(BLOCK_SIZE);
    let mut base = Block::genesis();
    let mut sn = 0u64;
    for _ in 0..n_segments {
        let mut blocks = Vec::with_capacity(blocks_per_segment);
        while blocks.len() < blocks_per_segment {
            sn += 1;
            if let Some(block) = builder.push(
                LoggedRequest {
                    sn,
                    origin: sn % 4,
                    payload: signal_payload(sn),
                },
                sn * 64,
            ) {
                blocks.push(block);
            }
        }
        let head = blocks.last().expect("nonempty").clone();
        let segment = CertifiedSegment {
            train: TRAIN,
            base_height: base.height(),
            base_hash: base.hash(),
            blocks,
            proof: certify(&pairs, sn, &head),
        };
        archive.ingest(&segment).expect("certified segment ingests");
        base = head;
    }
    (QueryEngine::new(archive), sn)
}

fn blocks_request(from_sn: u64) -> Request {
    Request {
        method: "GET".to_string(),
        path: format!("/v1/trains/{}/blocks", TRAIN.0),
        query: vec![
            ("from_sn".to_string(), from_sn.to_string()),
            ("limit".to_string(), PAGE_LIMIT.to_string()),
        ],
        http11: true,
        headers: Vec::new(),
        body: Vec::new(),
    }
}

fn timeline_request(from_ms: u64, to_ms: u64) -> Request {
    Request {
        method: "GET".to_string(),
        path: format!("/v1/trains/{}/timeline", TRAIN.0),
        query: vec![
            ("from_ms".to_string(), from_ms.to_string()),
            ("to_ms".to_string(), to_ms.to_string()),
        ],
        http11: true,
        headers: Vec::new(),
        body: Vec::new(),
    }
}

fn service(engine: &QueryEngine, cache_capacity: usize) -> ApiService {
    let config = ApiConfig {
        cache_capacity,
        ..ApiConfig::open()
    };
    ApiService::new(
        config,
        Backend::Single(engine.clone()),
        Arc::new(Registry::new()),
    )
}

/// Cold vs segment-cached range reads, at the service level. The cold
/// service runs with the cache disabled (capacity 0) — every read pays
/// the index walk and JSON encoding; the cached service serves the same
/// immutable full page out of the segment-keyed cache. The recorded
/// claim: cached ≥ 5× cold.
fn bench_blocks_pages(c: &mut Criterion, engine: &QueryEngine, head_sn: u64) {
    let mut group = c.benchmark_group("api/blocks");
    group.sample_size(if quick() { 10 } else { 20 });
    group.throughput(Throughput::Elements(PAGE_LIMIT));

    // Rotate across distinct pages so the cold path cannot luck into
    // locality; stay clear of the open tail so pages are always full.
    let pages = (head_sn / PAGE_LIMIT).saturating_sub(1).max(1);
    let cold = service(engine, 0);
    group.bench_function("range_cold", |b| {
        let mut page = 0u64;
        b.iter(|| {
            page = (page + 1) % pages;
            let response = cold.respond(&blocks_request(page * PAGE_LIMIT + 1), "bench");
            assert_eq!(response.status, 200);
            std::hint::black_box(response.body.len())
        });
    });

    let cached = service(engine, 4096);
    group.bench_function("range_cached", |b| {
        // Bounded rotation (all pages fit in the cache): after one warm
        // lap every read is a hit.
        let hot_pages = pages.min(1024);
        for page in 0..hot_pages {
            let response = cached.respond(&blocks_request(page * PAGE_LIMIT + 1), "bench");
            assert_eq!(response.status, 200);
        }
        let mut page = 0u64;
        b.iter(|| {
            page = (page + 1) % hot_pages;
            let response = cached.respond(&blocks_request(page * PAGE_LIMIT + 1), "bench");
            assert_eq!(response.status, 200);
            std::hint::black_box(response.body.len())
        });
    });
    group.finish();
}

/// Cold vs cached analysis timelines over a 2%-of-journey window — the
/// expensive decoded read the cache pays for most visibly.
fn bench_timeline(c: &mut Criterion, engine: &QueryEngine, head_sn: u64) {
    let span_ms = head_sn * 64;
    let (from, to) = (span_ms * 49 / 100, span_ms * 51 / 100);
    let mut group = c.benchmark_group("api/timeline");
    group.sample_size(if quick() { 10 } else { 20 });

    let cold = service(engine, 0);
    group.bench_function("window_cold", |b| {
        b.iter(|| {
            let response = cold.respond(&timeline_request(from, to), "bench");
            assert_eq!(response.status, 200);
            std::hint::black_box(response.body.len())
        });
    });

    let cached = service(engine, 64);
    group.bench_function("window_cached", |b| {
        b.iter(|| {
            let response = cached.respond(&timeline_request(from, to), "bench");
            assert_eq!(response.status, 200);
            std::hint::black_box(response.body.len())
        });
    });
    group.finish();
}

/// Audit-bundle assembly through the serving path (cache off: each
/// download reads the Merkle path kept for its segment and frames the
/// bundle).
fn bench_bundle(c: &mut Criterion, engine: &QueryEngine, head_sn: u64) {
    let cold = service(engine, 0);
    let request = Request {
        method: "GET".to_string(),
        path: format!("/v1/trains/{}/bundle/{}", TRAIN.0, head_sn / 2),
        query: Vec::new(),
        http11: true,
        headers: Vec::new(),
        body: Vec::new(),
    };
    c.bench_function("api/bundle_download", |b| {
        b.iter(|| {
            let response = cold.respond(&request, "bench");
            assert_eq!(response.status, 200);
            std::hint::black_box(response.body.len())
        });
    });
}

/// Concurrent-reader sweep over real loopback HTTP: every reader mixes
/// block pages, timeline windows, and bundle downloads; the run fails
/// if any response is 5xx. Prints one machine-readable line.
fn reader_sweep(engine: &QueryEngine, head_sn: u64, readers: usize, requests_each: u64) {
    let server = ApiServer::start(
        ApiConfig::open(),
        Backend::Single(engine.clone()),
        Arc::new(Registry::new()),
    )
    .expect("bind loopback");
    let address = server.address();
    let server_errors = AtomicU64::new(0);
    let total = AtomicU64::new(0);

    let started = Instant::now();
    std::thread::scope(|scope| {
        for reader in 0..readers {
            let server_errors = &server_errors;
            let total = &total;
            scope.spawn(move || {
                let mut client = HttpClient::new(address);
                let mut sn = (reader as u64 * 7919) % head_sn.max(1);
                for i in 0..requests_each {
                    sn = (sn + 7919) % head_sn.max(1);
                    let path = match i % 4 {
                        0 | 1 => format!(
                            "/v1/trains/{}/blocks?from_sn={}&limit={PAGE_LIMIT}",
                            TRAIN.0,
                            sn + 1
                        ),
                        2 => {
                            let from = sn * 64;
                            format!(
                                "/v1/trains/{}/timeline?from_ms={from}&to_ms={}",
                                TRAIN.0,
                                from + PAGE_LIMIT * 64
                            )
                        }
                        _ => format!("/v1/trains/{}/bundle/{}", TRAIN.0, sn + 1),
                    };
                    let response = client.get(&path, None).expect("reader request");
                    if response.status >= 500 {
                        server_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    total.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = started.elapsed();

    let mut server = server;
    server.stop();
    let issued = total.load(Ordering::Relaxed);
    let errors = server_errors.load(Ordering::Relaxed);
    let rps = issued as f64 / elapsed.as_secs_f64();
    println!(
        "query-serving: readers={readers} requests={issued} err5xx={errors} \
         blocks={head_sn} rps={rps:.0}"
    );
    assert_eq!(errors, 0, "the sweep must finish with zero 5xx responses");
}

fn bench_query_serving(c: &mut Criterion) {
    let (n_segments, blocks_per_segment) = if quick() { (40, 50) } else { (1_000, 1_000) };
    let build = Instant::now();
    let (engine, head_sn) = populated_engine(n_segments, blocks_per_segment);
    eprintln!(
        "query_serving: archive ready — {} blocks in {:.1}s",
        n_segments * blocks_per_segment,
        build.elapsed().as_secs_f64()
    );

    bench_blocks_pages(c, &engine, head_sn);
    bench_timeline(c, &engine, head_sn);
    bench_bundle(c, &engine, head_sn);

    let (readers, each) = if quick() { (8, 50) } else { (64, 400) };
    reader_sweep(&engine, head_sn, readers, each);
}

criterion_group!(benches, bench_query_serving);

fn main() {
    benches();
}

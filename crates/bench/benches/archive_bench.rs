//! Benchmarks the juridical archive's read and write paths: certified
//! segment ingestion (re-verification + indexing, in memory and into a
//! durable directory with fsync), point lookups,
//! indexed time-range scans, and audit-bundle build/verify — the
//! baselines recorded in `BENCH_archive.json`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use zugchain_archive::{Archive, FleetArchive};
use zugchain_blockchain::{Block, BlockBuilder, LoggedRequest};
use zugchain_crypto::{KeyPair, Keystore};
use zugchain_export::CertifiedSegment;
use zugchain_mvb::PortAddress;
use zugchain_pbft::{Checkpoint, CheckpointProof, Message, NodeId};
use zugchain_signals::{Request, SignalValue, TrainEvent};
use zugchain_wire::TrainId;

const QUORUM: usize = 3;
const BLOCK_SIZE: usize = 10;

fn signal_payload(sn: u64) -> Vec<u8> {
    let time_ms = sn * 64;
    zugchain_wire::to_bytes(&Request {
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

/// `n_segments` contiguous certified segments of `blocks_per_segment`
/// blocks (10 signal requests per block), chained off genesis.
fn certified_chain(
    pairs: &[KeyPair],
    n_segments: usize,
    blocks_per_segment: usize,
) -> Vec<CertifiedSegment> {
    certified_chain_for_train(TrainId::DEFAULT, pairs, n_segments, blocks_per_segment)
}

/// As [`certified_chain`], tagged with an origin train.
fn certified_chain_for_train(
    train: TrainId,
    pairs: &[KeyPair],
    n_segments: usize,
    blocks_per_segment: usize,
) -> Vec<CertifiedSegment> {
    let mut builder = BlockBuilder::new(BLOCK_SIZE);
    let mut base = Block::genesis();
    let mut segments = Vec::new();
    let mut sn = 0u64;
    for _ in 0..n_segments {
        let mut blocks = Vec::new();
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
        segments.push(CertifiedSegment {
            train,
            base_height: base.height(),
            base_hash: base.hash(),
            blocks,
            proof: certify(pairs, sn, &head),
        });
        base = head;
    }
    segments
}

fn populated_archive(pairs: &[KeyPair], keystore: &Keystore, n_segments: usize) -> Archive {
    let mut archive = Archive::in_memory(keystore.clone(), QUORUM);
    for segment in certified_chain(pairs, n_segments, 10) {
        archive.ingest(&segment).expect("certified segment ingests");
    }
    archive
}

/// Full ingest path: certificate + chain re-verification, Merkle
/// commitment, and all three indexes.
fn bench_ingest(c: &mut Criterion) {
    let (pairs, keystore) = Keystore::generate(4, 7);
    let mut group = c.benchmark_group("archive/ingest");
    group.sample_size(10);
    for blocks_per_segment in [10usize, 100] {
        let segments = certified_chain(&pairs, 4, blocks_per_segment);
        let requests = segments
            .iter()
            .map(|s| s.blocks.len() * BLOCK_SIZE)
            .sum::<usize>() as u64;
        group.throughput(Throughput::Elements(requests));
        group.bench_with_input(
            BenchmarkId::from_parameter(blocks_per_segment),
            &segments,
            |b, segments| {
                b.iter(|| {
                    let mut archive = Archive::in_memory(keystore.clone(), QUORUM);
                    for segment in segments {
                        archive.ingest(segment).expect("ingests");
                    }
                    std::hint::black_box(archive.request_count())
                });
            },
        );
    }
    group.finish();
}

/// The `archive/ingest/10` case against a durable archive: each
/// iteration opens a fresh directory (untimed) and ingests the four
/// segments, so the per-segment file write and fsync are included.
fn bench_ingest_durable(c: &mut Criterion) {
    let (pairs, keystore) = Keystore::generate(4, 7);
    let dir = std::env::temp_dir().join(format!("zugchain-bench-ingest-{}", std::process::id()));
    let mut group = c.benchmark_group("archive/ingest_durable");
    group.sample_size(10);
    let segments = certified_chain(&pairs, 4, 10);
    let requests = segments
        .iter()
        .map(|s| s.blocks.len() * BLOCK_SIZE)
        .sum::<usize>() as u64;
    group.throughput(Throughput::Elements(requests));
    group.bench_with_input(BenchmarkId::from_parameter(10), &segments, |b, segments| {
        b.iter_batched(
            || {
                let _ = std::fs::remove_dir_all(&dir);
                Archive::open(&dir, keystore.clone(), QUORUM)
                    .expect("fresh archive directory")
                    .0
            },
            |mut archive| {
                for segment in segments {
                    archive.ingest(segment).expect("ingests");
                }
                archive.request_count()
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_point_lookup(c: &mut Criterion) {
    let (pairs, keystore) = Keystore::generate(4, 7);
    let archive = populated_archive(&pairs, &keystore, 10);
    let last_sn = archive.request_count() as u64;
    c.bench_function("archive/point_lookup_by_sn", |b| {
        let mut sn = 0;
        b.iter(|| {
            sn = sn % last_sn + 1;
            std::hint::black_box(archive.block_by_sn(sn).expect("archived"))
        });
    });
}

fn bench_time_range_scan(c: &mut Criterion) {
    let (pairs, keystore) = Keystore::generate(4, 7);
    let archive = populated_archive(&pairs, &keystore, 10);
    let span_ms = archive.request_count() as u64 * 64;
    let mut group = c.benchmark_group("archive/time_range");
    // A 10%-of-journey window, decoded into requests and reduced to the
    // analysis timeline.
    let (from, to) = (span_ms * 45 / 100, span_ms * 55 / 100);
    let window = archive.requests_in(from, to).len() as u64;
    group.throughput(Throughput::Elements(window));
    group.bench_function("scan_decoded", |b| {
        b.iter(|| std::hint::black_box(archive.requests_in(from, to).len()));
    });
    group.bench_function("timeline", |b| {
        b.iter(|| std::hint::black_box(archive.timeline(from, to).findings().len()));
    });
    group.finish();
}

fn bench_audit_bundle(c: &mut Criterion) {
    let (pairs, keystore) = Keystore::generate(4, 7);
    let archive = populated_archive(&pairs, &keystore, 10);
    let (head_height, _) = archive.head().expect("nonempty");
    let mid = head_height / 2;
    c.bench_function("archive/bundle_build", |b| {
        b.iter(|| std::hint::black_box(archive.audit_bundle(mid).expect("bundle")));
    });
    let bundle = archive.audit_bundle(mid).expect("bundle");
    c.bench_function("archive/bundle_verify", |b| {
        b.iter(|| {
            std::hint::black_box(&bundle)
                .verify(&keystore, QUORUM)
                .expect("verifies")
        });
    });
}

/// Sharded fleet ingest: one thread per train, each draining its train's
/// pre-certified segments into a shared [`FleetArchive`]. Ingest takes
/// only its train's shard lock, so the only contention is the brief
/// read-locked shard lookup.
fn bench_fleet_ingest(c: &mut Criterion) {
    let (pairs, keystore) = Keystore::generate(4, 7);
    let mut group = c.benchmark_group("archive/fleet_ingest");
    group.sample_size(10);
    for n_trains in [4usize, 16, 32] {
        let per_train: Vec<(TrainId, Vec<CertifiedSegment>)> = (0..n_trains)
            .map(|i| {
                let train = TrainId(i as u64 + 1);
                (train, certified_chain_for_train(train, &pairs, 4, 10))
            })
            .collect();
        let requests = per_train
            .iter()
            .flat_map(|(_, segments)| segments.iter())
            .map(|s| s.blocks.len() * BLOCK_SIZE)
            .sum::<usize>() as u64;
        group.throughput(Throughput::Elements(requests));
        group.bench_with_input(
            BenchmarkId::new("per_shard", n_trains),
            &per_train,
            |b, per_train| {
                b.iter(|| {
                    let fleet = FleetArchive::in_memory(QUORUM);
                    for (train, _) in per_train {
                        fleet
                            .register_train(*train, keystore.clone())
                            .expect("fresh registration");
                    }
                    std::thread::scope(|scope| {
                        for (_, segments) in per_train {
                            let fleet = fleet.clone();
                            scope.spawn(move || {
                                for segment in segments {
                                    fleet.ingest(segment).expect("certified segment ingests");
                                }
                            });
                        }
                    });
                    std::hint::black_box(fleet.request_count())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_ingest_durable,
    bench_point_lookup,
    bench_time_range_scan,
    bench_audit_bundle,
    bench_fleet_ingest
);
criterion_main!(benches);

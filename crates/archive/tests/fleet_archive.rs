//! Fleet-archive integration: per-train shards ingest independently,
//! cross-train contamination is refused at every boundary (ingest,
//! recovery, audit), and fleet-wide queries route to exactly the shards
//! with records in the window, by each shard's own time index.

mod common;

use zugchain_archive::{FleetArchive, IngestError};
use zugchain_blockchain::{Block, BlockBuilder, LoggedRequest};
use zugchain_crypto::{KeyPair, Keystore};
use zugchain_export::CertifiedSegment;
use zugchain_signals::{Request, SignalValue};
use zugchain_wire::TrainId;

use common::{certified_chain_for_train, certify, keys, signal_payload, QUORUM};

#[test]
fn shards_ingest_and_query_independently() {
    let (pairs, keystore) = keys();
    let fleet = FleetArchive::in_memory(QUORUM);
    let trains = [TrainId(1), TrainId(2), TrainId(3)];
    for train in trains {
        fleet.register_train(train, keystore.clone()).unwrap();
        for certified in certified_chain_for_train(train, &pairs, 2, 3) {
            fleet.ingest(&certified).unwrap();
        }
    }
    assert_eq!(fleet.trains(), trains.to_vec());
    assert_eq!(fleet.segment_count(), 6);
    for train in trains {
        assert_eq!(fleet.segment_count_of(train), 2);
        // Identical chains per train → identical shard heads.
        assert_eq!(fleet.head_of(train), fleet.head_of(trains[0]));
    }
    // Fleet-wide time-range query returns every train's records, tagged.
    let all = fleet.requests_in(0, u64::MAX);
    assert_eq!(all.len(), 3 * 12);
    for train in trains {
        assert_eq!(all.iter().filter(|(t, ..)| *t == train).count(), 12);
    }
    let timelines = fleet.timelines_in(0, u64::MAX);
    assert_eq!(timelines.len(), 3);
    // A window covering nothing routes to no shard at all.
    assert!(fleet.trains_in(u64::MAX - 1, u64::MAX).is_empty());
}

#[test]
fn cross_train_segments_and_unknown_trains_are_refused() {
    let (pairs, keystore) = keys();
    let fleet = FleetArchive::in_memory(QUORUM);
    fleet.register_train(TrainId(1), keystore.clone()).unwrap();

    // Unregistered origin train.
    let stray = certified_chain_for_train(TrainId(9), &pairs, 1, 2);
    assert_eq!(
        fleet.ingest(&stray[0]),
        Err(IngestError::UnknownTrain { train: TrainId(9) })
    );

    // Another train's segment relabeled to a registered train fails:
    // train 9's replicas are a different keyset, so its checkpoint
    // certificate never verifies against train 1's shard.
    let (foreign_pairs, _) = Keystore::generate(4, 0x9999);
    let foreign = certified_chain_for_train(TrainId(9), &foreign_pairs, 1, 2);
    let mut relabeled = foreign[0].clone();
    relabeled.train = TrainId(1);
    assert!(matches!(
        fleet.ingest(&relabeled),
        Err(IngestError::Invalid(_))
    ));
    assert_eq!(fleet.segment_count(), 0);

    // Re-registering is refused, as is registering under a shared fleet
    // with a different keyset for the same id.
    let (_, other_keys) = Keystore::generate(4, 0xFEED);
    assert!(fleet.register_train(TrainId(1), other_keys).is_err());
}

#[test]
fn per_train_keysets_isolate_equivocating_neighbors() {
    // Train 2's replicas (a different keystore) certify a chain; train
    // 1's shard must reject it even when the segment claims train 1,
    // because the certificate never verifies against train 1's keys.
    let (pairs_1, keystore_1) = keys();
    let (pairs_2, keystore_2) = Keystore::generate(4, 0xB0B0);
    let fleet = FleetArchive::in_memory(QUORUM);
    fleet.register_train(TrainId(1), keystore_1).unwrap();
    fleet.register_train(TrainId(2), keystore_2).unwrap();

    let mut forged = certified_chain_for_train(TrainId(1), &pairs_2, 1, 2);
    assert!(matches!(
        fleet.ingest(&forged.remove(0)),
        Err(IngestError::Invalid(_))
    ));
    // The honest chains still land.
    for certified in certified_chain_for_train(TrainId(1), &pairs_1, 1, 2) {
        fleet.ingest(&certified).unwrap();
    }
    for certified in certified_chain_for_train(TrainId(2), &pairs_2, 1, 2) {
        fleet.ingest(&certified).unwrap();
    }
    assert_eq!(fleet.segment_count_of(TrainId(1)), 1);
    assert_eq!(fleet.segment_count_of(TrainId(2)), 1);
}

#[test]
fn durable_shards_recover_independently() {
    let (pairs, keystore) = keys();
    let dir = std::env::temp_dir().join(format!("zugchain-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    {
        let fleet = FleetArchive::open(&dir, QUORUM).unwrap();
        for train in [TrainId(1), TrainId(2)] {
            fleet.register_train(train, keystore.clone()).unwrap();
            for certified in certified_chain_for_train(train, &pairs, 2, 3) {
                fleet.ingest(&certified).unwrap();
            }
        }
    }

    // Corrupt train 1's second segment file; train 2's shard and a
    // cross-planted foreign segment file must not survive either.
    let shard_1 = dir.join("trains").join("1");
    let seg = shard_1.join("seg-0000000001.zas");
    let mut raw = std::fs::read(&seg).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0xFF;
    std::fs::write(&seg, &raw).unwrap();
    // Plant train 2's first segment into train 1's shard under the next
    // sequence slot — recovery must discard it as a wrong-train file.
    std::fs::copy(
        dir.join("trains").join("2").join("seg-0000000000.zas"),
        shard_1.join("seg-0000000002.zas"),
    )
    .unwrap();

    let fleet = FleetArchive::open(&dir, QUORUM).unwrap();
    let report_1 = fleet.register_train(TrainId(1), keystore.clone()).unwrap();
    let report_2 = fleet.register_train(TrainId(2), keystore.clone()).unwrap();
    assert_eq!(report_1.segments_recovered, 1);
    assert_eq!(report_1.segments_discarded, vec![1, 2]);
    assert_eq!(report_2.segments_recovered, 2);
    assert!(report_2.segments_discarded.is_empty());
    assert_eq!(fleet.segment_count_of(TrainId(1)), 1);
    assert_eq!(fleet.segment_count_of(TrainId(2)), 2);
    // The fleet's request count reflects only recovered records.
    assert_eq!(fleet.request_count(), 6 + 12);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_per_shard_ingest_yields_the_expected_counts() {
    let (pairs, keystore) = keys();
    let fleet = FleetArchive::in_memory(QUORUM);
    let trains = [TrainId(1), TrainId(2)];
    for train in trains {
        fleet.register_train(train, keystore.clone()).unwrap();
    }
    std::thread::scope(|scope| {
        for train in trains {
            let fleet = fleet.clone();
            let pairs = &pairs;
            scope.spawn(move || {
                for certified in certified_chain_for_train(train, pairs, 3, 2) {
                    fleet.ingest(&certified).unwrap();
                }
            });
        }
    });
    // Per train: 3 segments of 2 blocks of 2 requests each.
    assert_eq!(fleet.segment_count(), 2 * 3);
    assert_eq!(fleet.request_count(), 2 * 12);
    for train in trains {
        assert_eq!(fleet.segment_count_of(train), 3);
    }
    // Identical chains per train → identical shard heads.
    assert_eq!(fleet.head_of(TrainId(1)), fleet.head_of(TrainId(2)));
    assert!(fleet.head_of(TrainId(1)).is_some());
}

#[test]
fn fleet_audit_bundles_verify_per_train_only() {
    let (pairs, keystore) = keys();
    let (_, foreign_keys) = Keystore::generate(4, 0xD00D);
    let fleet = FleetArchive::in_memory(QUORUM);
    fleet.register_train(TrainId(7), keystore.clone()).unwrap();
    for certified in certified_chain_for_train(TrainId(7), &pairs, 1, 3) {
        fleet.ingest(&certified).unwrap();
    }
    let bundle = fleet.audit_bundle(TrainId(7), 2).expect("archived height");
    assert_eq!(bundle.train, TrainId(7));
    assert!(bundle.verify(&keystore, QUORUM).is_ok());
    // Another train's keyset never vouches for this bundle.
    assert!(bundle.verify(&foreign_keys, QUORUM).is_err());
    assert!(fleet.audit_bundle(TrainId(8), 2).is_none());
}

/// Block time of every block of a decodable train in
/// [`windowed_segment`]: later than every window the routing test asks
/// about, so only the decoded request time can route those trains.
const FAR_MS: u64 = 1_000_000;

/// One certified segment for `train`, off genesis: two blocks of two
/// requests, request `sn` (1..=4) at `t0 + 100 × sn`. A decodable train
/// carries that time in its signal payloads; an undecodable one carries
/// junk payloads, and each of its blocks carries the time of the request
/// that completed it, so its records count at block time.
fn windowed_segment(
    train: TrainId,
    pairs: &[KeyPair],
    t0: u64,
    decodable: bool,
) -> CertifiedSegment {
    let mut builder = BlockBuilder::new(2);
    let mut blocks = Vec::new();
    for sn in 1..=4u64 {
        let time_ms = t0 + 100 * sn;
        let (payload, block_ms) = if decodable {
            let payload = signal_payload(sn, time_ms, "v_actual", SignalValue::U16(sn as u16));
            (payload, FAR_MS)
        } else {
            let junk = vec![0xFF; 3];
            assert!(zugchain_wire::from_bytes::<Request>(&junk).is_err());
            (junk, time_ms)
        };
        let request = LoggedRequest {
            sn,
            origin: sn % 4,
            payload,
        };
        blocks.extend(builder.push(request, block_ms));
    }
    let genesis = Block::genesis();
    CertifiedSegment {
        train,
        base_height: genesis.height(),
        base_hash: genesis.hash(),
        proof: certify(pairs, 4, blocks.last().expect("two blocks")),
        blocks,
    }
}

/// Trains 1 and 2 record decodable requests at 1100–1400 and 2100–2400;
/// train 3's undecodable requests count at its block times, 3200 and
/// 3400.
fn ingest_windowed_trains(fleet: &FleetArchive, pairs: &[KeyPair], keystore: &Keystore) {
    for (train, t0, decodable) in [(1, 1000, true), (2, 2000, true), (3, 3000, false)] {
        let train = TrainId(train);
        fleet.register_train(train, keystore.clone()).unwrap();
        fleet
            .ingest(&windowed_segment(train, pairs, t0, decodable))
            .unwrap();
    }
}

/// Checks fleet routing over partial windows: `(from, to)`, the trains
/// routed, the `(train, sn)` requests and each timeline's speed profile.
fn assert_partial_window_routing(fleet: &FleetArchive) {
    type Speeds = Vec<(u64, u16)>;
    type Case<'a> = ((u64, u64), &'a [u64], &'a [(u64, u64)], &'a [(u64, Speeds)]);
    let cases: [Case; 6] = [
        // Touches only train 1's last record, with both bounds inclusive.
        ((1400, 2099), &[1], &[(1, 4)], &[(1, vec![(1400, 4)])]),
        // Spans trains 1 and 2.
        (
            (1300, 2200),
            &[1, 2],
            &[(1, 3), (1, 4), (2, 1), (2, 2)],
            &[
                (1, vec![(1300, 3), (1400, 4)]),
                (2, vec![(2100, 1), (2200, 2)]),
            ],
        ),
        // Train 3 routes by block time; its payloads yield no requests.
        (
            (2400, 3200),
            &[2, 3],
            &[(2, 4)],
            &[(2, vec![(2400, 4)]), (3, vec![])],
        ),
        ((3400, 3400), &[3], &[], &[(3, vec![])]),
        // Empty: between trains 1 and 2, and between train 3's blocks.
        ((1401, 2099), &[], &[], &[]),
        ((3201, 3399), &[], &[], &[]),
    ];
    for ((from, to), trains, requests, timelines) in cases {
        let window = format!("[{from}, {to}]");
        let routed: Vec<u64> = fleet.trains_in(from, to).iter().map(|t| t.0).collect();
        assert_eq!(routed, trains, "trains_in {window}");
        let found: Vec<(u64, u64)> = fleet
            .requests_in(from, to)
            .iter()
            .map(|(train, sn, ..)| (train.0, *sn))
            .collect();
        assert_eq!(found, requests, "requests_in {window}");
        let profiles: Vec<(u64, Speeds)> = fleet
            .timelines_in(from, to)
            .iter()
            .map(|(train, timeline)| (train.0, timeline.speed_profile().to_vec()))
            .collect();
        assert_eq!(profiles, timelines, "timelines_in {window}");
    }
    assert_eq!(fleet.request_count(), 3 * 4);
}

#[test]
fn partial_windows_route_to_exactly_the_trains_with_records() {
    let (pairs, keystore) = keys();
    let fleet = FleetArchive::in_memory(QUORUM);
    ingest_windowed_trains(&fleet, &pairs, &keystore);
    assert_partial_window_routing(&fleet);

    let dir = std::env::temp_dir().join(format!("zugchain-fleet-windows-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let fleet = FleetArchive::open(&dir, QUORUM).unwrap();
        ingest_windowed_trains(&fleet, &pairs, &keystore);
        assert_partial_window_routing(&fleet);
    }
    let reopened = FleetArchive::open(&dir, QUORUM).unwrap();
    for train in 1..=3 {
        let report = reopened
            .register_train(TrainId(train), keystore.clone())
            .unwrap();
        assert_eq!(report.segments_recovered, 1);
    }
    assert_partial_window_routing(&reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

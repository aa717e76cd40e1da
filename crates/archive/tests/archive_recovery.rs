//! Crash-recovery tests for the durable archive: a restarting data
//! center must come back to the longest *verified* segment prefix no
//! matter how the previous process died.

mod common;

use std::fs;
use std::path::PathBuf;

use common::{certified_chain, keys, QUORUM};
use zugchain_archive::{Archive, IngestError, SegmentViolation};
use zugchain_crypto::Digest;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zugchain-archive-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seg_path(dir: &std::path::Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:010}.zas"))
}

/// Populates a fresh on-disk archive with `n` verified segments.
fn populated(tag: &str, n: usize) -> (PathBuf, zugchain_crypto::Keystore, usize) {
    let (pairs, keystore) = keys();
    let dir = tempdir(tag);
    let (mut archive, report) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 0);
    let mut requests = 0;
    for certified in certified_chain(&pairs, n, 3) {
        requests += certified
            .blocks
            .iter()
            .map(|b| b.requests.len())
            .sum::<usize>();
        archive.ingest(&certified).unwrap();
    }
    (dir, keystore, requests)
}

#[test]
fn clean_reopen_is_lossless() {
    let (dir, keystore, requests) = populated("clean", 4);
    let (archive, report) = Archive::open(&dir, keystore, QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 4);
    assert!(report.segments_discarded.is_empty());
    assert_eq!(archive.segment_count(), 4);
    assert_eq!(archive.request_count(), requests);
}

#[test]
fn torn_final_segment_is_truncated() {
    let (dir, keystore, _) = populated("torn", 3);
    // Power loss mid-write of the last segment: cut the file in half.
    let path = seg_path(&dir, 2);
    let raw = fs::read(&path).unwrap();
    fs::write(&path, &raw[..raw.len() / 2]).unwrap();

    let (archive, report) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 2);
    assert_eq!(report.segments_discarded, vec![2]);
    assert_eq!(archive.segment_count(), 2);
    // The torn file is gone; a second restart is clean and idempotent.
    assert!(!path.exists());
    let (_, again) = Archive::open(&dir, keystore, QUORUM).unwrap();
    assert_eq!(again.segments_recovered, 2);
    assert!(again.segments_discarded.is_empty());
}

#[test]
fn gap_in_segment_sequence_truncates_the_rest() {
    let (dir, keystore, _) = populated("gap", 5);
    fs::remove_file(seg_path(&dir, 2)).unwrap();

    let (archive, report) = Archive::open(&dir, keystore, QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 2);
    // Segments 3 and 4 still verify in isolation but no longer extend a
    // contiguous prefix — juridically they are unanchored, so they go.
    assert_eq!(report.segments_discarded, vec![3, 4]);
    assert_eq!(archive.segment_count(), 2);
    assert!(!seg_path(&dir, 3).exists());
    assert!(!seg_path(&dir, 4).exists());
}

#[test]
fn bitflip_inside_a_segment_is_caught_by_the_checksum() {
    let (dir, keystore, _) = populated("bitflip", 3);
    let path = seg_path(&dir, 1);
    let mut raw = fs::read(&path).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x01;
    fs::write(&path, raw).unwrap();

    let (archive, report) = Archive::open(&dir, keystore, QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 1);
    assert_eq!(report.segments_discarded, vec![1, 2]);
    assert_eq!(archive.segment_count(), 1);
}

/// The file names in `dir`, sorted.
fn file_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn durable_ingest_leaves_one_file_per_segment() {
    for k in [1, 4] {
        let (dir, _, _) = populated(&format!("files-{k}"), k);
        let expected: Vec<String> = (0..k as u64)
            .map(|seq| format!("seg-{seq:010}.zas"))
            .collect();
        assert_eq!(file_names(&dir), expected, "{k} segments");
    }
}

#[test]
fn legacy_summary_and_stray_temp_files_are_removed_on_open() {
    let (dir, keystore, requests) = populated("legacy", 3);
    let (clean, clean_report) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
    let clean_head = clean.head();
    drop(clean);

    // An older build's summary, either well framed but stale or corrupt,
    // and the temp file of a segment write that crashed before its
    // rename. Neither may change what recovers.
    let summary = dir.join("index.zai");
    let stray = dir.join("seg-0000000003.tmp");
    let body = [0u8; 40];
    let stale = [b"ZGI1".as_slice(), Digest::of(&body).as_bytes(), &body].concat();
    let corrupt = vec![0xFF; 7];
    for legacy in [stale, corrupt] {
        fs::write(&summary, legacy).unwrap();
        fs::write(&stray, &fs::read(seg_path(&dir, 2)).unwrap()[..50]).unwrap();

        let (archive, report) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
        assert_eq!(report, clean_report);
        assert_eq!(report.segments_recovered, 3);
        assert!(report.segments_discarded.is_empty());
        assert_eq!(archive.head(), clean_head);
        assert_eq!(archive.request_count(), requests);
        assert!(!summary.exists(), "legacy summary removed");
        assert!(!stray.exists(), "stray temp file removed");
    }
    assert_eq!(file_names(&dir).len(), 3);
}

#[test]
fn recovered_archive_accepts_the_next_segment() {
    let (pairs, keystore) = keys();
    let dir = tempdir("resume");
    let segments = certified_chain(&pairs, 4, 2);
    {
        let (mut archive, _) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
        for certified in &segments[..3] {
            archive.ingest(certified).unwrap();
        }
    }
    // Tear the last segment; recovery drops it; re-ingesting segment 2
    // and then 3 must succeed — the export path replays from its cursor.
    let path = seg_path(&dir, 2);
    let raw = fs::read(&path).unwrap();
    fs::write(&path, &raw[..20]).unwrap();

    let (mut archive, report) = Archive::open(&dir, keystore, QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 2);
    archive.ingest(&segments[2]).unwrap();
    archive.ingest(&segments[3]).unwrap();
    assert_eq!(archive.segment_count(), 4);

    // And a stale replay is refused, not silently re-appended.
    let err = archive.ingest(&segments[1]).unwrap_err();
    assert!(matches!(err, IngestError::NotContiguous { .. }));
}

#[test]
fn tampered_certificate_never_survives_recovery() {
    let (pairs, keystore) = keys();
    let dir = tempdir("forge");
    let mut segments = certified_chain(&pairs, 2, 2);
    {
        let (mut archive, _) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
        archive.ingest(&segments[0]).unwrap();
        archive.ingest(&segments[1]).unwrap();
    }
    // Forge segment 1 on disk: valid file framing (magic + checksum) but
    // the certificate inside signs a different head. This simulates an
    // attacker with disk access but no replica keys.
    segments[1].proof = segments[0].proof.clone();
    let body = {
        use zugchain_archive::Segment;
        let forged = Segment::build(1, &segments[1]).unwrap();
        zugchain_wire::to_bytes(&forged)
    };
    let mut raw = Vec::new();
    raw.extend_from_slice(b"ZGS1");
    raw.extend_from_slice(zugchain_crypto::Digest::of(&body).as_bytes());
    raw.extend_from_slice(&body);
    fs::write(seg_path(&dir, 1), raw).unwrap();

    let (archive, report) = Archive::open(&dir, keystore.clone(), QUORUM).unwrap();
    assert_eq!(report.segments_recovered, 1);
    assert_eq!(report.segments_discarded, vec![1]);
    assert_eq!(archive.segment_count(), 1);

    // Direct ingestion of the forgery is rejected for the same reason.
    let mut fresh = Archive::in_memory(keystore, QUORUM);
    fresh.ingest(&segments[0]).unwrap();
    let err = fresh.ingest(&segments[1]).unwrap_err();
    assert!(matches!(
        err,
        IngestError::Invalid(SegmentViolation::CertifiesWrongHead { .. })
    ));
}

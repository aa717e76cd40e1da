//! Fleet-scale sharded archive: one juridical [`Archive`] per train,
//! ingesting concurrently, answering fleet-wide time-range queries.
//!
//! # Sharding
//!
//! A railway operator's data center receives certified segments from
//! every vehicle in the fleet. Chains of different trains are completely
//! independent — different replica keysets, different heights, different
//! heads — so the fleet archive stores them in independent *shards*: one
//! [`Archive`] per registered train, each holding its own lock. Ingest
//! from train A never contends with ingest from train B. On disk each
//! shard lives under `root/trains/<id>/` with its own segment files, so
//! crash recovery runs per train and one corrupted shard cannot take
//! down another's data.
//!
//! # Fleet-wide queries
//!
//! A fleet-wide query ("what did every vehicle record between t₀ and
//! t₁?") is routed to the trains that hold records in the range by one
//! range probe into each shard's own time index, under that shard's
//! read lock; the matching shards then serve the records. The fleet
//! keeps no index of its own, so ingest touches only its train's shard.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use zugchain_crypto::{Digest, Keystore};
use zugchain_export::CertifiedSegment;
use zugchain_signals::analysis::Timeline;
use zugchain_signals::Request;
use zugchain_wire::TrainId;

use crate::archive::{Archive, IngestError, RecoveryReport};
use crate::bundle::AuditBundle;

/// One train's shard: its archive behind its own lock.
struct Shard {
    archive: RwLock<Archive>,
}

struct FleetInner {
    root: Option<PathBuf>,
    quorum: usize,
    /// Registered shards. The map lock is held only to *look up* a
    /// shard (reads) or register a train (writes) — never across an
    /// ingest or query.
    shards: RwLock<BTreeMap<TrainId, Arc<Shard>>>,
    telemetry: RwLock<zugchain_telemetry::Telemetry>,
}

/// The fleet archive: one shard per train.
/// Cloning is cheap (an `Arc` bump); clones share all state, so one
/// handle per ingest thread is the intended usage.
#[derive(Clone)]
pub struct FleetArchive {
    inner: Arc<FleetInner>,
}

impl std::fmt::Debug for FleetArchive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetArchive")
            .field("root", &self.inner.root)
            .field("trains", &self.trains().len())
            .finish()
    }
}

fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl FleetArchive {
    /// An ephemeral fleet archive with no backing directory.
    pub fn in_memory(quorum: usize) -> Self {
        Self::build(None, quorum)
    }

    /// A durable fleet archive rooted at `root`; each registered train's
    /// shard lives under `root/trains/<id>/`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the root directory.
    pub fn open(root: impl AsRef<Path>, quorum: usize) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(root.join("trains"))?;
        Ok(Self::build(Some(root), quorum))
    }

    fn build(root: Option<PathBuf>, quorum: usize) -> Self {
        FleetArchive {
            inner: Arc::new(FleetInner {
                root,
                quorum,
                shards: RwLock::new(BTreeMap::new()),
                telemetry: RwLock::new(zugchain_telemetry::Telemetry::disabled()),
            }),
        }
    }

    /// Attaches a telemetry handle. Shards registered from now on
    /// publish `zugchain_archive_*` metrics under an additional
    /// `train="<id>"` label (via [`zugchain_telemetry::Telemetry::for_train`]).
    pub fn set_telemetry(&self, telemetry: &zugchain_telemetry::Telemetry) {
        *write(&self.inner.telemetry) = telemetry.clone();
    }

    /// Registers a train's shard with its replica keyset, opening (and
    /// recovering) the durable shard directory when the fleet is
    /// durable. Re-registering an already-known train is an error — a
    /// keyset swap must never silently re-scope an existing shard.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::AlreadyExists`] for a duplicate registration, or
    /// any I/O error from opening the shard directory.
    pub fn register_train(&self, train: TrainId, keystore: Keystore) -> io::Result<RecoveryReport> {
        let (mut archive, report) = match &self.inner.root {
            None => (
                Archive::in_memory_for_train(train, keystore, self.inner.quorum),
                RecoveryReport::default(),
            ),
            Some(root) => Archive::open_for_train(
                root.join("trains").join(train.to_string()),
                train,
                keystore,
                self.inner.quorum,
            )?,
        };
        {
            let telemetry = read(&self.inner.telemetry);
            if telemetry.is_enabled() {
                archive.set_telemetry(&telemetry.for_train(train.0));
            }
        }

        let mut shards = write(&self.inner.shards);
        if shards.contains_key(&train) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("train {train} is already registered"),
            ));
        }
        shards.insert(
            train,
            Arc::new(Shard {
                archive: RwLock::new(archive),
            }),
        );
        Ok(report)
    }

    fn shard(&self, train: TrainId) -> Option<Arc<Shard>> {
        read(&self.inner.shards).get(&train).cloned()
    }

    /// Verifies and ingests one certified segment into its origin
    /// train's shard, returning the shard-local sequence number.
    ///
    /// Only that train's shard lock is held, so segments of different
    /// trains verify, persist and index fully in parallel.
    ///
    /// # Errors
    ///
    /// [`IngestError::UnknownTrain`] for an unregistered origin train,
    /// otherwise whatever the shard's [`Archive::ingest`] reports.
    pub fn ingest(&self, certified: &CertifiedSegment) -> Result<u64, IngestError> {
        let shard = self
            .shard(certified.train)
            .ok_or(IngestError::UnknownTrain {
                train: certified.train,
            })?;
        let seq = write(&shard.archive).ingest(certified)?;
        Ok(seq)
    }

    /// Registered trains, ascending.
    pub fn trains(&self) -> Vec<TrainId> {
        read(&self.inner.shards).keys().copied().collect()
    }

    /// The `(height, hash)` head of one train's shard (`None` if the
    /// train is unregistered or its shard is empty).
    pub fn head_of(&self, train: TrainId) -> Option<(u64, Digest)> {
        read(&self.shard(train)?.archive).head()
    }

    /// Archived segment count of one train's shard.
    pub fn segment_count_of(&self, train: TrainId) -> usize {
        self.shard(train)
            .map_or(0, |s| read(&s.archive).segment_count())
    }

    /// Total archived segments across every shard.
    pub fn segment_count(&self) -> usize {
        let shards = read(&self.inner.shards);
        shards
            .values()
            .map(|s| read(&s.archive).segment_count())
            .sum()
    }

    /// Total archived requests across every shard.
    pub fn request_count(&self) -> usize {
        let shards = read(&self.inner.shards);
        shards
            .values()
            .map(|s| read(&s.archive).request_count())
            .sum()
    }

    /// Runs a closure against one train's archive under its read lock —
    /// the escape hatch for per-train queries ([`Archive::block_at`],
    /// [`Archive::requests_of_kinds`], …) without widening this API.
    pub fn with_shard<R>(&self, train: TrainId, f: impl FnOnce(&Archive) -> R) -> Option<R> {
        let shard = self.shard(train)?;
        let archive = read(&shard.archive);
        Some(f(&archive))
    }

    /// Trains holding at least one record in `[from_ms, to_ms]`,
    /// ascending — routing a fleet-wide query to only the shards that
    /// matter. Each shard answers from its own time index, so a record
    /// counts at the time that index gives it.
    pub fn trains_in(&self, from_ms: u64, to_ms: u64) -> Vec<TrainId> {
        let shards = read(&self.inner.shards);
        shards
            .iter()
            .filter(|(_, s)| read(&s.archive).has_records_in(from_ms, to_ms))
            .map(|(&train, _)| train)
            .collect()
    }

    /// Fleet-wide time-range query: every decodable signal request in
    /// `[from_ms, to_ms]` across every train, as
    /// `(train, sn, origin, request)` grouped by train and time-ordered
    /// within each.
    pub fn requests_in(&self, from_ms: u64, to_ms: u64) -> Vec<(TrainId, u64, u64, Request)> {
        let mut out = Vec::new();
        for train in self.trains_in(from_ms, to_ms) {
            if let Some(requests) = self.with_shard(train, |a| a.requests_in(from_ms, to_ms)) {
                out.extend(
                    requests
                        .into_iter()
                        .map(|(sn, origin, request)| (train, sn, origin, request)),
                );
            }
        }
        out
    }

    /// Per-train juridical [`Timeline`]s over a time range, one entry per
    /// train with records in the range.
    pub fn timelines_in(&self, from_ms: u64, to_ms: u64) -> Vec<(TrainId, Timeline)> {
        self.trains_in(from_ms, to_ms)
            .into_iter()
            .filter_map(|train| {
                self.with_shard(train, |a| a.timeline(from_ms, to_ms))
                    .map(|timeline| (train, timeline))
            })
            .collect()
    }

    /// Builds a court-ready [`AuditBundle`] from one train's shard.
    pub fn audit_bundle(&self, train: TrainId, height: u64) -> Option<AuditBundle> {
        self.with_shard(train, |a| a.audit_bundle(height))?
    }
}

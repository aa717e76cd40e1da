//! Response cache keyed on immutable archive state.
//!
//! The archive is append-only and its sealed segments never change, so
//! any response computed purely from sealed data is valid *forever* —
//! the cache needs no invalidation protocol, only an eviction policy
//! for memory. The server enforces the "sealed data only" rule at
//! insert time:
//!
//! * a **full** blocks page (`len == limit`) ends strictly before the
//!   open tail, so it is immutable under any future ingest — cacheable
//!   under `(train, from_sn, limit)`; a partial page touches the tail
//!   and is never inserted;
//! * an **audit bundle** is derived from one sealed segment — cacheable
//!   under `(train, height)` of the block holding the requested sn, so
//!   every sn of one block shares one entry (missing sns are not cached:
//!   they may appear later);
//! * a **timeline** spans the whole archive, so its key carries the
//!   segment count observed *in the same read-lock snapshot* that
//!   computed the body — a new segment changes the key instead of
//!   invalidating the entry.
//!
//! Eviction is insertion-order FIFO: with no invalidation there is no
//! staleness to chase, only a memory cap, and FIFO keeps the hot sealed
//! prefix resident in the steady state where readers walk history.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// One cached response body.
#[derive(Debug, Clone)]
pub struct CachedResponse {
    /// `Content-Type` the body was rendered with.
    pub content_type: &'static str,
    /// The body bytes, shared across concurrent readers.
    pub body: Arc<Vec<u8>>,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<String, CachedResponse>,
    order: VecDeque<String>,
}

/// A bounded, invalidation-free response cache.
#[derive(Debug)]
pub struct ResponseCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl ResponseCache {
    /// A cache holding up to `capacity` responses (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            capacity,
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// The cached response for `key`, if resident.
    pub fn get(&self, key: &str) -> Option<CachedResponse> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.map.get(key).cloned()
    }

    /// Inserts a response computed from sealed (immutable) data.
    pub fn put(&self, key: &str, content_type: &'static str, body: Arc<Vec<u8>>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.map.contains_key(key) {
            // Sealed data: a concurrent reader computed the same bytes.
            return;
        }
        while inner.map.len() >= self.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&oldest);
        }
        inner
            .map
            .insert(key.to_string(), CachedResponse { content_type, body });
        inner.order.push_back(key.to_string());
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<Vec<u8>> {
        Arc::new(text.as_bytes().to_vec())
    }

    #[test]
    fn round_trips_and_reports_len() {
        let cache = ResponseCache::new(4);
        assert!(cache.get("a").is_none());
        cache.put("a", "application/json", body("x"));
        let hit = cache.get("a").expect("resident");
        assert_eq!(&*hit.body, b"x");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_oldest_at_capacity() {
        let cache = ResponseCache::new(2);
        cache.put("a", "t", body("1"));
        cache.put("b", "t", body("2"));
        cache.put("c", "t", body("3"));
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResponseCache::new(0);
        cache.put("a", "t", body("1"));
        assert!(cache.get("a").is_none());
        assert!(cache.is_empty());
    }
}

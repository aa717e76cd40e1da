//! End-to-end serving tests over real sockets: bearer-token policy,
//! per-client rate limiting, segment-keyed cache economics (visible
//! through the hit/miss counters), and the load-bearing juridical
//! property — an audit bundle fetched over HTTP verifies *offline* with
//! nothing but the replica public keys, exactly as if it had been read
//! from the archive directory.

mod common;

use std::sync::Arc;

use zugchain_api::http::Request;
use zugchain_api::{ApiConfig, ApiServer, Backend, HttpClient};
use zugchain_archive::{Archive, AuditBundle, QueryEngine};
use zugchain_telemetry::Registry;
use zugchain_wire::TrainId;

use common::{certified_chain_for_train, keys, QUORUM};

const TRAIN: TrainId = TrainId(7);
const TOKEN: &str = "reader-secret";

/// A served archive: 4 segments × 3 blocks × 2 requests for train 7.
fn served(config: ApiConfig) -> (ApiServer, Arc<Registry>, zugchain_crypto::Keystore) {
    let (pairs, keystore) = keys();
    let mut archive = Archive::in_memory_for_train(TRAIN, keystore.clone(), QUORUM);
    for segment in &certified_chain_for_train(TRAIN, &pairs, 4, 3) {
        archive.ingest(segment).unwrap();
    }
    let registry = Arc::new(Registry::new());
    let server = ApiServer::start(
        config,
        Backend::Single(QueryEngine::new(archive)),
        Arc::clone(&registry),
    )
    .unwrap();
    (server, registry, keystore)
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry.counter_value(name, &[]).unwrap_or(0)
}

#[test]
fn bearer_token_gates_the_data_plane_only() {
    let config = ApiConfig {
        tokens: vec![TOKEN.to_string()],
        ..ApiConfig::open()
    };
    let (mut server, registry, _) = served(config);
    let mut client = HttpClient::new(server.address());

    // Data-plane endpoints demand the token.
    let denied = client.get("/v1/trains", None).unwrap();
    assert_eq!(denied.status, 401);
    assert_eq!(denied.header("www-authenticate"), Some("Bearer"));
    let wrong = client.get("/v1/trains", Some("not-the-token")).unwrap();
    assert_eq!(wrong.status, 401);
    let allowed = client.get("/v1/trains", Some(TOKEN)).unwrap();
    assert_eq!(allowed.status, 200);
    assert!(allowed.text().contains("\"count\":1"));

    // Liveness and exposition stay open: probes and scrapers carry no
    // bearer tokens.
    assert_eq!(client.get("/healthz", None).unwrap().status, 200);
    assert_eq!(client.get("/metrics", None).unwrap().status, 200);

    assert_eq!(
        counter(&registry, "zugchain_api_auth_failures_total"),
        2,
        "both rejected requests must be counted",
    );
    server.stop();
}

#[test]
fn rate_limiter_answers_429_with_retry_after() {
    let config = ApiConfig {
        rate_per_sec: 5,
        rate_burst: 5,
        ..ApiConfig::open()
    };
    let (mut server, registry, _) = served(config);
    let mut client = HttpClient::new(server.address());

    let mut limited = 0;
    for _ in 0..30 {
        let response = client.get("/v1/trains", None).unwrap();
        match response.status {
            200 => {}
            429 => {
                assert_eq!(response.header("retry-after"), Some("1"));
                limited += 1;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(
        limited > 0,
        "30 rapid requests at 5/s never hit the limiter"
    );
    assert_eq!(
        counter(&registry, "zugchain_api_rate_limited_total"),
        limited,
    );
    // /healthz is never rate limited — the probe must not kill the pod
    // because auditors are busy.
    assert_eq!(client.get("/healthz", None).unwrap().status, 200);
    server.stop();
}

/// Regression: `retry-after` used to be hardcoded to 1 second. A
/// low-rate limiter (one request per five seconds) must tell the
/// client the real wait, or every honest client retries four seconds
/// too early and burns its budget on guaranteed 429s.
#[test]
fn slow_rate_limiter_reports_honest_retry_after() {
    let config = ApiConfig {
        rate_period_ms: 5_000,
        rate_burst: 1,
        ..ApiConfig::open()
    };
    let (mut server, _, _) = served(config);
    let mut client = HttpClient::new(server.address());
    assert_eq!(client.get("/v1/trains", None).unwrap().status, 200);
    let limited = client.get("/v1/trains", None).unwrap();
    assert_eq!(limited.status, 429);
    assert_eq!(
        limited.header("retry-after"),
        Some("5"),
        "the header reflects the bucket's actual refill time"
    );
    server.stop();
}

#[test]
fn full_pages_are_cached_and_partial_pages_bypass() {
    let (mut server, registry, _) = served(ApiConfig::open());
    let mut client = HttpClient::new(server.address());

    // A full page (limit 2 < 12 blocks): first read misses, repeat hits,
    // and the bytes are identical.
    let cold = client.get("/v1/trains/7/blocks?limit=2", None).unwrap();
    assert_eq!(cold.status, 200);
    let misses = counter(&registry, "zugchain_api_cache_misses_total");
    let warm = client.get("/v1/trains/7/blocks?limit=2", None).unwrap();
    assert_eq!(warm.body, cold.body);
    assert_eq!(counter(&registry, "zugchain_api_cache_hits_total"), 1);
    assert_eq!(
        counter(&registry, "zugchain_api_cache_misses_total"),
        misses,
        "the warm read must not miss",
    );

    // A partial page (limit 100 > 12 blocks) touches the open tail, so
    // it is never inserted: repeating it never produces a hit.
    let hits = counter(&registry, "zugchain_api_cache_hits_total");
    for _ in 0..2 {
        let partial = client.get("/v1/trains/7/blocks?limit=100", None).unwrap();
        assert_eq!(partial.status, 200);
        assert!(partial.text().contains("\"count\":12"));
    }
    assert_eq!(
        counter(&registry, "zugchain_api_cache_hits_total"),
        hits,
        "a tail-touching page must bypass the cache",
    );
    server.stop();
}

#[test]
fn timeline_serves_and_caches() {
    let (mut server, registry, _) = served(ApiConfig::open());
    let mut client = HttpClient::new(server.address());

    let cold = client.get("/v1/trains/7/timeline?from_ms=0", None).unwrap();
    assert_eq!(cold.status, 200);
    let body = cold.text();
    assert!(body.contains("\"train\":7"), "body: {body}");
    assert!(
        body.contains("\"events\":24"),
        "4*3 blocks * 2 requests: {body}"
    );
    assert!(body.contains("\"max_speed_ckmh\":"), "body: {body}");

    let warm = client.get("/v1/trains/7/timeline?from_ms=0", None).unwrap();
    assert_eq!(warm.body, cold.body);
    assert!(counter(&registry, "zugchain_api_cache_hits_total") >= 1);
    server.stop();
}

#[test]
fn bundle_fetched_over_http_verifies_offline() {
    let (mut server, _, keystore) = served(ApiConfig::open());
    let mut client = HttpClient::new(server.address());

    // sn 11 lives in the 6th block (2 requests per block).
    let response = client.get("/v1/trains/7/bundle/11", None).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("content-type"),
        Some("application/octet-stream")
    );
    server.stop();

    // The server is gone; the fetched bytes plus the public keys alone
    // must reconstruct and verify the exhibit.
    let bundle = AuditBundle::from_zab_bytes(&response.body).unwrap();
    let block = bundle.verify(&keystore, QUORUM).unwrap();
    assert!(block.header.first_sn <= 11 && 11 <= block.header.last_sn);

    // A flipped byte must not verify: the transport cannot silently
    // corrupt an exhibit.
    let mut torn = response.body.clone();
    let last = torn.len() - 1;
    torn[last] ^= 1;
    assert!(
        AuditBundle::from_zab_bytes(&torn).is_err(),
        "a corrupted download must fail to even decode",
    );
}

#[test]
fn bundles_are_cached_once_per_block() {
    let (mut server, registry, _) = served(ApiConfig::open());
    let mut client = HttpClient::new(server.address());

    // sns 11 and 12 share the 6th block (2 requests per block): one
    // bundle, one cache entry.
    let first = client.get("/v1/trains/7/bundle/11", None).unwrap();
    assert_eq!(first.status, 200);
    let hits = counter(&registry, "zugchain_api_cache_hits_total");
    let misses = counter(&registry, "zugchain_api_cache_misses_total");
    let second = client.get("/v1/trains/7/bundle/12", None).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.body, first.body, "one block, one bundle");
    assert_eq!(
        counter(&registry, "zugchain_api_cache_hits_total"),
        hits + 1
    );
    assert_eq!(
        counter(&registry, "zugchain_api_cache_misses_total"),
        misses,
        "the block's second sn must not miss",
    );

    // The next block's first sn is a different entry.
    let next = client.get("/v1/trains/7/bundle/13", None).unwrap();
    assert_eq!(next.status, 200);
    assert_ne!(next.body, first.body);
    assert_eq!(
        counter(&registry, "zugchain_api_cache_misses_total"),
        misses + 1
    );

    // A missing sn is a 404 and is never cached: asking again is still
    // a 404, not a hit.
    let hits = counter(&registry, "zugchain_api_cache_hits_total");
    for _ in 0..2 {
        assert_eq!(
            client.get("/v1/trains/7/bundle/9999", None).unwrap().status,
            404
        );
    }
    assert_eq!(counter(&registry, "zugchain_api_cache_hits_total"), hits);
    server.stop();
}

#[test]
fn unknown_trains_and_bad_parameters_are_client_errors() {
    let (mut server, _, _) = served(ApiConfig::open());
    let mut client = HttpClient::new(server.address());

    assert_eq!(
        client.get("/v1/trains/99/blocks", None).unwrap().status,
        404
    );
    assert_eq!(
        client.get("/v1/trains/7/bundle/999", None).unwrap().status,
        404
    );
    assert_eq!(client.get("/nope", None).unwrap().status, 404);
    assert_eq!(
        client
            .get("/v1/trains/7/blocks?limit=0", None)
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client
            .get("/v1/trains/7/blocks?from_sn=x", None)
            .unwrap()
            .status,
        400
    );
    server.stop();
}

#[test]
fn non_get_methods_are_rejected_at_the_service() {
    let (mut server, _, _) = served(ApiConfig::open());
    let request = Request {
        method: "DELETE".to_string(),
        path: "/v1/trains".to_string(),
        query: Vec::new(),
        http11: true,
        headers: Vec::new(),
        body: Vec::new(),
    };
    let response = server.service().respond(&request, "test-client");
    assert_eq!(response.status, 405);
    server.stop();
}

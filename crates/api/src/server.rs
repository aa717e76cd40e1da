//! The serving core: router, handlers, and the threaded TCP front end.
//!
//! [`ApiService`] is the transport-free heart — it maps one parsed
//! [`Request`] to one [`Response`] through auth, rate limiting, the
//! segment-keyed cache, and the archive backend. [`ApiServer`] wraps it
//! in a thread-per-connection HTTP/1.1 listener (keep-alive, bounded
//! read buffers, stop-flag shutdown). The split keeps the policy layer
//! benchmarkable and testable without sockets, and lets the bench
//! isolate cache economics from loopback syscall noise.
//!
//! Thread-per-connection is deliberate: readers hold keep-alive
//! connections for many requests, and a fixed worker pool would let a
//! handful of idle keep-alive sockets starve new connections. Threads
//! poll their socket with a 250ms read timeout so a stop request is
//! honored promptly even on idle connections.

use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zugchain_archive::{Archive, BlockInfo, FleetArchive, QueryEngine};
use zugchain_telemetry::json::{self, JsonObject};
use zugchain_telemetry::{
    check_chain, Counter, Gauge, Histogram, Registry, Span, TraceStore, STAGES,
};
use zugchain_wire::TrainId;

use crate::auth::{Auth, AuthDecision};
use crate::cache::ResponseCache;
use crate::http::{self, Parsed, Request, Response};
use crate::ratelimit::RateLimiter;

/// Serving policy: credentials, rate limits, cache size, page bounds.
#[derive(Debug, Clone)]
pub struct ApiConfig {
    /// Accepted bearer tokens; empty means an open server.
    pub tokens: Vec<String>,
    /// Sustained per-client requests per second (0 = unlimited).
    pub rate_per_sec: u64,
    /// If nonzero, one sustained request per this many milliseconds —
    /// overrides `rate_per_sec` to express rates below one per second
    /// (e.g. 5000 is one request per five seconds).
    pub rate_period_ms: u64,
    /// Per-client burst allowance.
    pub rate_burst: u64,
    /// Response-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Page size when a blocks query gives no `limit`.
    pub default_page_limit: usize,
    /// Hard cap on a requested `limit`.
    pub max_page_limit: usize,
}

impl ApiConfig {
    /// An open server: no auth, no rate limit, a modest cache.
    pub fn open() -> Self {
        ApiConfig {
            tokens: Vec::new(),
            rate_per_sec: 0,
            rate_period_ms: 0,
            rate_burst: 0,
            cache_capacity: 1024,
            default_page_limit: 100,
            max_page_limit: 1000,
        }
    }
}

impl Default for ApiConfig {
    fn default() -> Self {
        Self::open()
    }
}

/// What the server serves: nothing (metrics/health only), one train's
/// archive, or a whole fleet.
#[derive(Clone)]
pub enum Backend {
    /// No archive behind the server — `/metrics` and `/healthz` only
    /// (the shape the cluster status socket uses).
    None,
    /// A single train's archive behind a [`QueryEngine`].
    Single(QueryEngine),
    /// A sharded fleet archive; train ids route to shards.
    Fleet(FleetArchive),
}

impl Backend {
    fn trains(&self) -> Vec<TrainId> {
        match self {
            Backend::None => Vec::new(),
            Backend::Single(engine) => vec![engine.with_archive(|a| a.train())],
            Backend::Fleet(fleet) => fleet.trains(),
        }
    }

    fn with_train<R>(&self, train: TrainId, f: impl FnOnce(&Archive) -> R) -> Option<R> {
        match self {
            Backend::None => None,
            Backend::Single(engine) => {
                engine.with_archive(|a| if a.train() == train { Some(f(a)) } else { None })
            }
            Backend::Fleet(fleet) => fleet.with_shard(train, f),
        }
    }
}

/// Endpoint labels used in metrics — a closed set so the counter matrix
/// can be pre-resolved instead of hitting the registry per request.
const ENDPOINTS: [&str; 8] = [
    "healthz", "metrics", "trains", "blocks", "timeline", "bundle", "trace", "other",
];
const STATUSES: [u16; 8] = [200, 400, 401, 404, 405, 429, 500, 501];

struct ApiMetrics {
    requests: HashMap<(&'static str, u16), Counter>,
    latency: HashMap<&'static str, Histogram>,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_entries: Gauge,
    rate_limited: Counter,
    auth_failures: Counter,
    registry: Arc<Registry>,
}

impl ApiMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        let mut requests = HashMap::new();
        let mut latency = HashMap::new();
        for endpoint in ENDPOINTS {
            for status in STATUSES {
                requests.insert(
                    (endpoint, status),
                    registry.counter(
                        "zugchain_api_requests_total",
                        &[
                            ("endpoint".to_string(), endpoint.to_string()),
                            ("status".to_string(), status.to_string()),
                        ],
                    ),
                );
            }
            latency.insert(
                endpoint,
                registry.histogram(
                    "zugchain_api_latency_us",
                    &[("endpoint".to_string(), endpoint.to_string())],
                ),
            );
        }
        ApiMetrics {
            requests,
            latency,
            cache_hits: registry.counter("zugchain_api_cache_hits_total", &[]),
            cache_misses: registry.counter("zugchain_api_cache_misses_total", &[]),
            cache_entries: registry.gauge("zugchain_api_cache_entries", &[]),
            rate_limited: registry.counter("zugchain_api_rate_limited_total", &[]),
            auth_failures: registry.counter("zugchain_api_auth_failures_total", &[]),
            registry,
        }
    }

    fn observe(&self, endpoint: &'static str, status: u16, elapsed_us: u64) {
        match self.requests.get(&(endpoint, status)) {
            Some(counter) => counter.inc(),
            // A status outside the pre-resolved matrix still counts.
            None => self
                .registry
                .counter(
                    "zugchain_api_requests_total",
                    &[
                        ("endpoint".to_string(), endpoint.to_string()),
                        ("status".to_string(), status.to_string()),
                    ],
                )
                .inc(),
        }
        if let Some(histogram) = self.latency.get(endpoint) {
            histogram.observe(elapsed_us);
        }
    }
}

/// The transport-free serving core: one request in, one response out.
pub struct ApiService {
    backend: Backend,
    auth: Auth,
    limiter: RateLimiter,
    cache: ResponseCache,
    metrics: ApiMetrics,
    registry: Arc<Registry>,
    /// Cross-node causal-span join point behind `/v1/trains/<id>/trace/<sn>`;
    /// without one the endpoint answers 404.
    traces: Option<Arc<TraceStore>>,
    default_page_limit: usize,
    max_page_limit: usize,
    started: Instant,
}

enum Route {
    Healthz,
    Metrics,
    Trains,
    Blocks(TrainId),
    Timeline(TrainId),
    Bundle(TrainId, u64),
    Trace(TrainId, u64),
    NotFound,
}

fn error_body(message: &str) -> String {
    JsonObject::new().field_str("error", message).finish()
}

impl ApiService {
    /// Builds the serving core over `backend`, instrumented into
    /// `registry` (which `/metrics` also renders).
    pub fn new(config: ApiConfig, backend: Backend, registry: Arc<Registry>) -> Self {
        Self::with_traces(config, backend, registry, None)
    }

    /// Like [`ApiService::new`] with a cluster-shared [`TraceStore`]
    /// behind the `/v1/trains/<id>/trace/<sn>` lifecycle endpoint.
    pub fn with_traces(
        config: ApiConfig,
        backend: Backend,
        registry: Arc<Registry>,
        traces: Option<Arc<TraceStore>>,
    ) -> Self {
        ApiService {
            traces,
            backend,
            auth: if config.tokens.is_empty() {
                Auth::open()
            } else {
                Auth::with_tokens(config.tokens.clone())
            },
            limiter: if config.rate_period_ms > 0 {
                RateLimiter::per_period(config.rate_period_ms, config.rate_burst)
            } else {
                RateLimiter::new(config.rate_per_sec, config.rate_burst)
            },
            cache: ResponseCache::new(config.cache_capacity),
            metrics: ApiMetrics::new(registry.clone()),
            registry,
            default_page_limit: config.default_page_limit.max(1),
            // Never above the engine's own cap, so the HTTP clamp and
            // the `page_by_sn` clamp agree on every request.
            max_page_limit: config.max_page_limit.clamp(1, Archive::MAX_PAGE_LIMIT),
            started: Instant::now(),
        }
    }

    /// The metrics registry `/metrics` renders.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Milliseconds since the service started — the rate limiter's
    /// clock (monotonic, so refill arithmetic never sees time jumps).
    pub fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn route(path: &str) -> (Route, &'static str) {
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        match segments.as_slice() {
            ["healthz"] => (Route::Healthz, "healthz"),
            ["metrics"] => (Route::Metrics, "metrics"),
            ["v1", "trains"] => (Route::Trains, "trains"),
            ["v1", "trains", id, "blocks"] => match TrainId::parse(id) {
                Some(train) => (Route::Blocks(train), "blocks"),
                None => (Route::NotFound, "blocks"),
            },
            ["v1", "trains", id, "timeline"] => match TrainId::parse(id) {
                Some(train) => (Route::Timeline(train), "timeline"),
                None => (Route::NotFound, "timeline"),
            },
            ["v1", "trains", id, "bundle", sn] => match (TrainId::parse(id), sn.parse::<u64>()) {
                (Some(train), Ok(sn)) => (Route::Bundle(train, sn), "bundle"),
                _ => (Route::NotFound, "bundle"),
            },
            ["v1", "trains", id, "trace", sn] => match (TrainId::parse(id), sn.parse::<u64>()) {
                (Some(train), Ok(sn)) => (Route::Trace(train, sn), "trace"),
                _ => (Route::NotFound, "trace"),
            },
            _ => (Route::NotFound, "other"),
        }
    }

    /// Serves one parsed request. `client` is the transport's fallback
    /// identity (peer address) for rate limiting on open servers.
    pub fn respond(&self, request: &Request, client: &str) -> Response {
        let started = Instant::now();
        let (route, endpoint) = Self::route(&request.path);
        let response = self.dispatch(request, client, route, endpoint);
        self.metrics.observe(
            endpoint,
            response.status,
            started.elapsed().as_micros() as u64,
        );
        response
    }

    fn dispatch(
        &self,
        request: &Request,
        client: &str,
        route: Route,
        endpoint: &'static str,
    ) -> Response {
        if request.method != "GET" {
            return Response::json(405, error_body("only GET is supported"));
        }
        // Health and metrics stay reachable without credentials: probes
        // and scrapers must keep working when tokens rotate.
        match route {
            Route::Healthz => return Response::text(200, "ok\n"),
            Route::Metrics => {
                return Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4",
                    body: self.registry.render_prometheus().into_bytes(),
                    extra_headers: Vec::new(),
                }
            }
            _ => {}
        }

        // Everything under /v1 is authenticated and rate limited.
        let identity = match self.auth.check(request.header("authorization")) {
            AuthDecision::Open => client.to_string(),
            AuthDecision::Allowed(token) => token,
            AuthDecision::Denied => {
                self.metrics.auth_failures.inc();
                return Response::json(401, error_body("missing or invalid bearer token"))
                    .with_header("www-authenticate", "Bearer");
            }
        };
        if let Err(wait_ms) = self.limiter.acquire(&identity, self.now_ms()) {
            self.metrics.rate_limited.inc();
            // The earliest retry that can succeed, rounded up to whole
            // seconds (the header's unit) — a 1-req/5-s limiter must
            // say 5, not send clients into a retry loop.
            let retry_after_s = wait_ms.div_ceil(1000).max(1);
            return Response::json(429, error_body("rate limit exceeded"))
                .with_header("retry-after", retry_after_s.to_string());
        }

        match route {
            Route::Healthz | Route::Metrics => unreachable!("handled above"),
            Route::Trains => self.serve_trains(),
            Route::Blocks(train) => self.serve_blocks(train, request),
            Route::Timeline(train) => self.serve_timeline(train, request),
            Route::Bundle(train, sn) => self.serve_bundle(train, sn),
            Route::Trace(train, sn) => self.serve_trace(train, sn),
            Route::NotFound => Response::json(
                404,
                error_body(&format!(
                    "no such resource: {} (endpoint family: {endpoint})",
                    request.path
                )),
            ),
        }
    }

    fn serve_trains(&self) -> Response {
        let mut rows = Vec::new();
        for train in self.backend.trains() {
            let Some(row) = self.backend.with_train(train, |archive| {
                let head = archive.head();
                let row = JsonObject::new()
                    .field_u64("train", train.0)
                    .field_opt_u64("head_height", head.map(|(h, _)| h));
                match head {
                    Some((_, hash)) => row.field_hex("head_hash", hash.as_bytes()),
                    None => row.field_raw("head_hash", "null"),
                }
                .field_u64("segments", archive.segment_count() as u64)
                .field_u64("requests", archive.request_count() as u64)
                .finish()
            }) else {
                continue;
            };
            rows.push(row);
        }
        let body = JsonObject::new()
            .field_u64("count", rows.len() as u64)
            .field_raw("trains", &json::array(rows))
            .finish();
        Response::json(200, body)
    }

    fn parse_u64(request: &Request, name: &str, default: u64) -> Result<u64, Response> {
        match request.query_param(name) {
            None | Some("") => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                Response::json(400, error_body(&format!("{name} must be a decimal number")))
            }),
        }
    }

    fn serve_blocks(&self, train: TrainId, request: &Request) -> Response {
        let from_sn = match Self::parse_u64(request, "from_sn", 0) {
            Ok(v) => v,
            Err(response) => return response,
        };
        let limit = match Self::parse_u64(request, "limit", self.default_page_limit as u64) {
            Ok(0) => return Response::json(400, error_body("limit must be at least 1")),
            Ok(v) => (v as usize).min(self.max_page_limit),
            Err(response) => return response,
        };

        // A *full* page ends strictly before the open tail, so it is
        // immutable under append-only ingest: cacheable forever under a
        // plain key. A partial page touches the tail and bypasses the
        // cache entirely.
        let key = format!("blocks/{}/{from_sn}/{limit}", train.0);
        if let Some(hit) = self.cache.get(&key) {
            self.metrics.cache_hits.inc();
            return Response {
                status: 200,
                content_type: hit.content_type,
                body: hit.body.as_ref().clone(),
                extra_headers: Vec::new(),
            };
        }
        self.metrics.cache_misses.inc();

        // Page and head are read under one archive borrow, so the
        // next-cursor decision below can't race a concurrent ingest.
        let Some((page, head_sn)) = self
            .backend
            .with_train(train, |a| (a.page_by_sn(from_sn, limit), a.head_sn()))
        else {
            return Response::json(404, error_body(&format!("unknown train {train}")));
        };
        // A next cursor exists only when the page ends strictly before
        // the archived head. A full page that reaches the head used to
        // advertise `last_sn + 1` anyway — a phantom cursor pointing
        // past the end, sending clients on a guaranteed-empty fetch.
        let next_sn = match (page.last(), head_sn) {
            (Some(last), Some(head)) if last.last_sn < head => Some(last.last_sn + 1),
            _ => None,
        };
        // Only a full page strictly inside the archived range is
        // immutable (its blocks AND its next cursor can never change
        // under append-only ingest) — a page touching the head would
        // gain a next cursor when the chain grows, so it must not be
        // cached.
        let full = page.len() == limit && next_sn.is_some();
        let body = JsonObject::new()
            .field_u64("train", train.0)
            .field_u64("from_sn", from_sn)
            .field_u64("limit", limit as u64)
            .field_u64("count", page.len() as u64)
            .field_raw("blocks", &json::array(page.iter().map(render_block_info)))
            .field_opt_u64("next_sn", next_sn)
            .finish()
            .into_bytes();
        if full {
            let shared = Arc::new(body);
            self.cache.put(&key, "application/json", shared.clone());
            self.metrics.cache_entries.set(self.cache.len() as i64);
            return Response {
                status: 200,
                content_type: "application/json",
                body: shared.as_ref().clone(),
                extra_headers: Vec::new(),
            };
        }
        Response {
            status: 200,
            content_type: "application/json",
            body,
            extra_headers: Vec::new(),
        }
    }

    fn serve_timeline(&self, train: TrainId, request: &Request) -> Response {
        let from_ms = match Self::parse_u64(request, "from_ms", 0) {
            Ok(v) => v,
            Err(response) => return response,
        };
        let to_ms = match Self::parse_u64(request, "to_ms", u64::MAX) {
            Ok(v) => v,
            Err(response) => return response,
        };

        // Timelines span the whole archive, so the cache key carries
        // the segment count observed in the same read-lock snapshot as
        // the body: a new segment changes the key rather than
        // invalidating the entry (version-keyed, invalidation-free).
        let Some(seg_count) = self.backend.with_train(train, |a| a.segment_count()) else {
            return Response::json(404, error_body(&format!("unknown train {train}")));
        };
        let key = format!("timeline/{}/{from_ms}/{to_ms}/{seg_count}", train.0);
        if let Some(hit) = self.cache.get(&key) {
            self.metrics.cache_hits.inc();
            return Response {
                status: 200,
                content_type: hit.content_type,
                body: hit.body.as_ref().clone(),
                extra_headers: Vec::new(),
            };
        }
        self.metrics.cache_misses.inc();

        // Recompute the count *inside* the closure that builds the
        // body: ingest may have sealed a segment since the lookup, and
        // the insert key must describe exactly the snapshot served.
        let Some((snapshot_count, body)) = self.backend.with_train(train, |archive| {
            let timeline = archive.timeline(from_ms, to_ms);
            let body = JsonObject::new()
                .field_u64("train", train.0)
                .field_u64("from_ms", from_ms)
                .field_u64("to_ms", to_ms)
                .field_u64("events", timeline.events().len() as u64)
                .field_opt_u64("max_speed_ckmh", timeline.max_speed_ckmh().map(u64::from))
                .field_u64("speed_samples", timeline.speed_profile().len() as u64)
                .field_raw(
                    "findings",
                    &json::string_array(timeline.findings().iter().map(|f| f.to_string())),
                )
                .finish()
                .into_bytes();
            (archive.segment_count(), body)
        }) else {
            return Response::json(404, error_body(&format!("unknown train {train}")));
        };
        let shared = Arc::new(body);
        let insert_key = format!("timeline/{}/{from_ms}/{to_ms}/{snapshot_count}", train.0);
        self.cache
            .put(&insert_key, "application/json", shared.clone());
        self.metrics.cache_entries.set(self.cache.len() as i64);
        Response {
            status: 200,
            content_type: "application/json",
            body: shared.as_ref().clone(),
            extra_headers: Vec::new(),
        }
    }

    /// Serves the assembled cross-node lifecycle of consensus sequence
    /// number `sn`: one entry per trace id decided at that sn (honest
    /// runs have exactly one; two is equivocation evidence), each with
    /// its canonical span chain and a completeness verdict. Never
    /// cached — traces grow while the pipeline runs; the body is a pure
    /// function of the store, so deterministic runs serve identical
    /// bytes.
    fn serve_trace(&self, train: TrainId, sn: u64) -> Response {
        let Some(store) = &self.traces else {
            return Response::json(404, error_body("causal tracing is not enabled"));
        };
        let mut traces = Vec::new();
        for trace_id in store.traces_for_sn(sn) {
            let spans: Vec<_> = store
                .assemble(trace_id)
                .into_iter()
                .filter(|span| span.train == train.0)
                .collect();
            if spans.is_empty() {
                continue;
            }
            let check = check_chain(&spans, &STAGES);
            traces.push(
                JsonObject::new()
                    .field_u64("trace_id", trace_id)
                    .field_u64("spans", spans.len() as u64)
                    .field_str("chain", &format!("{check:?}"))
                    .field_raw("lifecycle", &json::array(spans.iter().map(Span::to_json)))
                    .finish(),
            );
        }
        if traces.is_empty() {
            return Response::json(
                404,
                error_body(&format!("no trace recorded for sn {sn} on train {train}")),
            );
        }
        let body = JsonObject::new()
            .field_u64("train", train.0)
            .field_u64("sn", sn)
            .field_u64("count", traces.len() as u64)
            .field_raw("traces", &json::array(traces))
            .finish();
        Response::json(200, body)
    }

    fn serve_bundle(&self, train: TrainId, sn: u64) -> Response {
        // A bundle is derived from one sealed segment: immutable once
        // it exists. Every sn of a block gets the same bundle, so the
        // key is the block's height, resolved under the shard read lock.
        // Missing sns are *not* cached — they may be sealed into a
        // segment later.
        let missing = || {
            Response::json(
                404,
                error_body(&format!("no archived block contains sn {sn}")),
            )
        };
        let Some(height) = self.backend.with_train(train, |a| a.height_of_sn(sn)) else {
            return Response::json(404, error_body(&format!("unknown train {train}")));
        };
        let Some(height) = height else {
            return missing();
        };
        let key = format!("bundle/{}/{height}", train.0);
        if let Some(hit) = self.cache.get(&key) {
            self.metrics.cache_hits.inc();
            return Response {
                status: 200,
                content_type: hit.content_type,
                body: hit.body.as_ref().clone(),
                extra_headers: Vec::new(),
            };
        }
        self.metrics.cache_misses.inc();

        // The archive is append-only, so the height resolved above is
        // still archived under this second read lock.
        let Some(Some(bundle)) = self.backend.with_train(train, |a| a.audit_bundle(height)) else {
            return missing();
        };
        let bytes = Arc::new(bundle.to_zab_bytes());
        self.cache
            .put(&key, "application/octet-stream", bytes.clone());
        self.metrics.cache_entries.set(self.cache.len() as i64);
        Response {
            status: 200,
            content_type: "application/octet-stream",
            body: bytes.as_ref().clone(),
            extra_headers: Vec::new(),
        }
    }
}

fn render_block_info(info: &BlockInfo) -> String {
    JsonObject::new()
        .field_u64("height", info.height)
        .field_hex("hash", info.hash.as_bytes())
        .field_u64("first_sn", info.first_sn)
        .field_u64("last_sn", info.last_sn)
        .field_u64("time_ms", info.time_ms)
        .field_u64("requests", info.requests as u64)
        .finish()
}

/// How long an idle connection thread waits on a read before checking
/// the stop flag again.
const READ_POLL: Duration = Duration::from_millis(250);
/// Accept-loop poll interval on an idle listener.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Per-connection receive-buffer cap: one max head + one max body.
const MAX_BUFFERED: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES;

/// The threaded HTTP front end over an [`ApiService`].
pub struct ApiServer {
    address: SocketAddr,
    service: Arc<ApiService>,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
}

impl ApiServer {
    /// Binds `127.0.0.1:0` and starts serving `backend` with `config`,
    /// instrumented into `registry`.
    ///
    /// # Errors
    ///
    /// Socket bind/configure failures.
    pub fn start(config: ApiConfig, backend: Backend, registry: Arc<Registry>) -> io::Result<Self> {
        Self::bind("127.0.0.1:0", config, backend, registry)
    }

    /// Like [`ApiServer::start`] with a cluster-shared [`TraceStore`]
    /// behind the trace lifecycle endpoint.
    ///
    /// # Errors
    ///
    /// Socket bind/configure failures.
    pub fn start_with_traces(
        config: ApiConfig,
        backend: Backend,
        registry: Arc<Registry>,
        traces: Option<Arc<TraceStore>>,
    ) -> io::Result<Self> {
        Self::bind_with_traces("127.0.0.1:0", config, backend, registry, traces)
    }

    /// Like [`ApiServer::start`] with an explicit bind address.
    ///
    /// # Errors
    ///
    /// Socket bind/configure failures.
    pub fn bind(
        addr: &str,
        config: ApiConfig,
        backend: Backend,
        registry: Arc<Registry>,
    ) -> io::Result<Self> {
        Self::bind_with_traces(addr, config, backend, registry, None)
    }

    /// The fully general front-end constructor: explicit bind address
    /// plus an optional trace store.
    ///
    /// # Errors
    ///
    /// Socket bind/configure failures.
    pub fn bind_with_traces(
        addr: &str,
        config: ApiConfig,
        backend: Backend,
        registry: Arc<Registry>,
        traces: Option<Arc<TraceStore>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let address = listener.local_addr()?;
        let service = Arc::new(ApiService::with_traces(config, backend, registry, traces));
        let stop = Arc::new(AtomicBool::new(false));

        let accept_service = service.clone();
        let accept_stop = stop.clone();
        let accept_handle = std::thread::Builder::new()
            .name("zugchain-api-accept".into())
            .spawn(move || {
                let mut workers: Vec<JoinHandle<()>> = Vec::new();
                while !accept_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, peer)) => {
                            workers.retain(|w| !w.is_finished());
                            let service = accept_service.clone();
                            let stop = accept_stop.clone();
                            let worker = std::thread::Builder::new()
                                .name("zugchain-api-conn".into())
                                .spawn(move || serve_connection(stream, peer, &service, &stop));
                            if let Ok(worker) = worker {
                                workers.push(worker);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
                for worker in workers {
                    let _ = worker.join();
                }
            })?;

        Ok(ApiServer {
            address,
            service,
            stop,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address.
    pub fn address(&self) -> SocketAddr {
        self.address
    }

    /// The shared serving core (tests and benches drive it directly).
    pub fn service(&self) -> &Arc<ApiService> {
        &self.service
    }

    /// Stops accepting, winds down connection threads, and joins them.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ApiServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_connection(stream: TcpStream, peer: SocketAddr, service: &ApiService, stop: &AtomicBool) {
    let mut stream = stream;
    if stream.set_read_timeout(Some(READ_POLL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    // Rate-limit identity for unauthenticated servers: the peer IP, not
    // IP:port — one client machine is one bucket across connections.
    let client = peer.ip().to_string();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while !stop.load(Ordering::Relaxed) {
        // Drain complete pipelined requests already buffered.
        match http::parse_request(&buf) {
            Ok(Parsed::Complete { request, consumed }) => {
                buf.drain(..consumed);
                let keep_alive = request.keep_alive();
                let response = service.respond(&request, &client);
                if stream
                    .write_all(&http::render_response(&response, keep_alive))
                    .is_err()
                    || !keep_alive
                {
                    return;
                }
                continue;
            }
            Ok(Parsed::Partial) => {}
            Err(error) => {
                // Protocol damage: answer once and drop the connection
                // (the byte stream is unrecoverable).
                let response = Response::json(
                    http::error_status(&error),
                    JsonObject::new()
                        .field_str("error", &error.to_string())
                        .finish(),
                );
                let _ = stream.write_all(&http::render_response(&response, false));
                return;
            }
        }
        if buf.len() > MAX_BUFFERED {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
    }
}

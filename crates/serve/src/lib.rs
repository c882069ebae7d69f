//! # drange-serve — the network-facing randomness server
//!
//! An HTTP/1.1-over-TCP front-end on [`drange_core::RandomnessService`]
//! built from `std::net` only: an acceptor thread feeds accepted
//! connections through a [`drange_core::BatchChannel`]
//! to a fixed pool of worker threads, each of which owns a connection
//! for its keep-alive lifetime. Every wait on the serve path is
//! notification-driven — the connection queue, the request coalescer,
//! and the engine pool all park on condvars and are woken by the state
//! transition they wait for; the only clocks are socket read timeouts
//! (protocol idle limits) and the engine-side fetch timeout that maps
//! pool underruns to `503`.
//!
//! ## Endpoints
//!
//! | Endpoint | Method | Success | Failure |
//! |---|---|---|---|
//! | `/random?bytes=N&source=fast\|true` | GET/HEAD | `200` octet-stream | `400` bad/zero/oversized count or unknown/disabled source, `429 + Retry-After` rate limit, `503 + Retry-After` underrun |
//! | `/healthz` | GET | `200 ok` | `503 degraded` |
//! | `/metrics` | GET | `200` Prometheus text | — |
//! | `/-/shutdown` | POST | `200`, then graceful stop | `404` unless enabled |
//! | `/debug/trace?n=N` | GET/HEAD | `200` Chrome trace JSON | `404` unless the registry carries a flight recorder |
//! | `/debug/slow` | GET/HEAD | `200` slowest-requests table | `404` unless the registry carries a flight recorder |
//!
//! Every `/random` response — including `429`/`503` rejections —
//! carries `X-Drange-Request-Id`, the request's trace id, so clients
//! can correlate an error with the server-side trace in
//! `/debug/trace`. `/random` and `/healthz` responses that touched
//! engine state also carry `X-Drange-Degraded: true|false`, surfacing
//! the engine's cell-lifecycle degradation to clients that want to
//! react before `/healthz` flips (the `429` path deliberately omits it:
//! rate limiting never reads engine state).
//!
//! ## QoS tiers
//!
//! `/random` serves two sources, selected per request with
//! `?source=fast|true` (default [`ServerConfig::default_source`]):
//!
//! * **`true`** — raw health-screened harvest bits through the
//!   coalescer, drained straight from the engine's pool: every served
//!   byte is physical DRAM entropy, rate-bound by harvest throughput.
//! * **`fast`** — the per-shard ChaCha20 DRBG conditioning tier
//!   ([`drange_core::DrbgFarm`], DESIGN.md §5k): cryptographically
//!   conditioned output continuously reseeded from the same screened
//!   pool, served synchronously (no coalescer, no pool wait) at
//!   rates decoupled from harvest throughput. Requires the service's
//!   conditioning tier ([`drange_core::ServiceConfig::drbg`]); `400`
//!   when disabled.
//!
//! Every `/random` response past the rate limiter carries
//! `X-Drange-Source: fast|true` naming the tier that handled it, so
//! clients and smoke tests can assert which path served them.
//!
//! ## Tracing
//!
//! The server's [`MetricsRegistry`] is its one observability handle.
//! Built with [`MetricsRegistry::with_recorder`], it carries a
//! [`drange_core::telemetry::FlightRecorder`]: each request then
//! records a span tree — parse, rate limit, coalesced fetch, the
//! combined engine fetch and its pool drain, response write — into a
//! bounded in-memory ring, exported at `/debug/trace` (Chrome
//! trace-event JSON) and `/debug/slow` (a human-readable table of the
//! slowest requests). Those two endpoints exist exactly when the
//! recorder does; they expose request metadata, so build the recorder
//! (`drange-serve --debug-endpoints`) for operators, not the public
//! edge. Without one every span is a no-op that never reads the clock,
//! and `/debug/*` is `404`.
//!
//! ## Backpressure
//!
//! Load sheds in two layers, cheapest first: the per-IP token bucket
//! (`429`) spends no engine resources, and the coalescer's fetch
//! timeout (`503`, advertising [`ServerConfig::retry_after`]) bounds
//! how long a request may wait out a pool underrun. Each of the
//! [`ServerConfig::worker_threads`] workers holds at most one engine
//! fetch, so the workers themselves bound the load on the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod http;
pub mod ratelimit;
pub mod source;

use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use drange_core::sync::{Condvar, Flag, Mutex};
use drange_core::telemetry::{
    Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, Stage, TraceId, Tracer,
};
use drange_core::{BatchChannel, RandomnessService};

pub use coalesce::{Coalescer, FetchError};
pub use http::{Request, Response};
pub use ratelimit::{Admission, RateLimitConfig, RateLimiter};

/// Which randomness tier serves a `/random` request (the
/// `?source=fast|true` query parameter; see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceMode {
    /// Raw health-screened harvest bits via the coalescer and the
    /// engine's pool — every byte is physical DRAM entropy.
    #[default]
    True,
    /// The ChaCha20 DRBG conditioning tier, reseeded from the screened
    /// pool — conditioned output at rates decoupled from harvest.
    Fast,
}

impl SourceMode {
    /// The wire name used in `?source=` and `X-Drange-Source`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SourceMode::True => "true",
            SourceMode::Fast => "fast",
        }
    }

    /// Parses a `?source=` value (`"fast"` / `"true"`).
    #[must_use]
    pub fn parse(raw: &str) -> Option<SourceMode> {
        match raw {
            "true" => Some(SourceMode::True),
            "fast" => Some(SourceMode::Fast),
            _ => None,
        }
    }
}

/// Server tuning knobs. The defaults serve a localhost deployment;
/// benches and tests override the timeouts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Connection-serving worker threads.
    pub worker_threads: usize,
    /// Accepted connections queued for a free worker before the
    /// acceptor itself blocks (TCP's own backlog absorbs the rest).
    pub connection_backlog: usize,
    /// Keep-alive idle limit: a connection with no next request within
    /// this window is closed (also the slow-header read bound).
    pub keep_alive: Duration,
    /// Bytes served when `/random` has no `bytes` parameter.
    pub default_bytes: usize,
    /// Largest single `/random` request; beyond it is a `400`.
    pub max_request_bytes: usize,
    /// Engine-side wait bound per fetch; expiry is an underrun `503`.
    pub fetch_timeout: Duration,
    /// `Retry-After` advertised on `503` responses.
    pub retry_after: Duration,
    /// Requests at most this large are coalesced into combined engine
    /// requests; larger ones go straight through.
    pub coalesce_max_bytes: usize,
    /// Cap on requests combined into one engine request.
    pub coalesce_max_batch: usize,
    /// Per-IP token bucket; `None` disables rate limiting.
    pub rate_limit: Option<RateLimitConfig>,
    /// Whether `POST /-/shutdown` stops the server (off by default;
    /// meant for supervised deployments and CI smoke tests).
    pub allow_shutdown: bool,
    /// The tier serving `/random` requests that carry no `?source=`
    /// parameter (default [`SourceMode::True`]: raw harvest bits, the
    /// conservative choice — clients opt *in* to conditioned output).
    pub default_source: SourceMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            worker_threads: 8,
            connection_backlog: 256,
            keep_alive: Duration::from_secs(5),
            default_bytes: 32,
            max_request_bytes: 64 * 1024,
            fetch_timeout: Duration::from_secs(2),
            retry_after: Duration::from_secs(1),
            coalesce_max_bytes: 1024,
            coalesce_max_batch: 64,
            rate_limit: None,
            allow_shutdown: false,
            default_source: SourceMode::True,
        }
    }
}

/// Server-side metric handles (no-ops without a registry).
#[derive(Debug, Clone, Default)]
struct ServerTelemetry {
    connections_total: Counter,
    open_connections: Gauge,
    requests_total: Counter,
    bytes_served: Counter,
    rejected_ratelimit: Counter,
    rejected_bad_request: Counter,
    underruns: Counter,
    engine_failures: Counter,
    request_latency_ns: Histogram,
    served_true: Counter,
    served_fast: Counter,
}

impl ServerTelemetry {
    fn new(registry: &MetricsRegistry) -> Self {
        let rejected =
            |cause: &str| registry.counter("drange_server_rejected_total", &[("cause", cause)]);
        ServerTelemetry {
            connections_total: registry.counter("drange_server_connections_total", &[]),
            open_connections: registry.gauge("drange_server_open_connections", &[]),
            requests_total: registry.counter("drange_server_requests_total", &[]),
            bytes_served: registry.counter("drange_server_bytes_served_total", &[]),
            rejected_ratelimit: rejected("ratelimit"),
            rejected_bad_request: rejected("bad_request"),
            underruns: registry.counter("drange_server_underruns_total", &[]),
            engine_failures: registry.counter("drange_server_engine_failures_total", &[]),
            request_latency_ns: registry.histogram("drange_server_request_latency_ns", &[]),
            served_true: registry.counter("drange_server_served_total", &[("source", "true")]),
            served_fast: registry.counter("drange_server_served_total", &[("source", "fast")]),
        }
    }
}

/// State shared by the acceptor, the workers, and shutdown handles.
#[derive(Debug)]
struct ServerShared {
    service: Arc<RandomnessService>,
    registry: MetricsRegistry,
    config: ServerConfig,
    coalescer: Coalescer,
    limiter: Option<RateLimiter>,
    telemetry: ServerTelemetry,
    /// Span source for the request path (noop without a recorder).
    tracer: Tracer,
    /// Raised exactly once; workers and the acceptor observe it at
    /// their next loop head.
    stopping: Flag,
    /// Blocks [`Server::run_until_stopped`] until the stop signal.
    stop_state: Mutex<bool>,
    stop_cv: Condvar,
    /// The accepted-connection queue between acceptor and workers.
    /// Carries [`http::Conn`] (not bare streams) so a rotated
    /// keep-alive connection keeps its pipelined spill bytes.
    connections: BatchChannel<http::Conn>,
    /// Dialed to unblock the acceptor's `accept()` on stop.
    local_addr: SocketAddr,
}

impl ServerShared {
    /// Requests a stop: raise the latch, fail the connection queue's
    /// sender, wake the acceptor with a dummy dial, wake the owner.
    fn signal_stop(&self) {
        self.stopping.raise();
        self.connections.close();
        // An accept() with nobody dialing blocks forever; a throwaway
        // local connection is the portable std-only wakeup.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        let mut stopped = self.stop_state.lock();
        *stopped = true;
        drop(stopped);
        self.stop_cv.notify_all();
    }
}

/// A handle that can stop a running [`Server`] from another thread
/// (used by the `/-/shutdown` endpoint and signal handlers).
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    shared: Arc<ServerShared>,
}

impl ShutdownHandle {
    /// Requests a graceful stop (idempotent).
    pub fn signal(&self) {
        self.shared.signal_stop();
    }
}

/// The running server: an acceptor, a worker pool, and the listener's
/// bound address.
#[derive(Debug)]
pub struct Server {
    shared: Arc<ServerShared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port) and starts serving
    /// `service`. Engine and server metrics render at `/metrics` when
    /// they share `registry`. When `registry` carries a flight recorder
    /// ([`MetricsRegistry::with_recorder`]), every request records a
    /// span tree (parse, rate limit, fetch, engine wait, write) into
    /// its ring, and `/debug/trace` and `/debug/slow` export it.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener.
    pub fn bind(
        addr: SocketAddr,
        service: Arc<RandomnessService>,
        registry: MetricsRegistry,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.worker_threads.max(1);
        let tracer = registry.tracer();
        let coalescer = Coalescer::new(
            config.coalesce_max_bytes,
            config.coalesce_max_batch,
            config.coalesce_max_batch.max(1) * config.coalesce_max_bytes.max(1),
            config.fetch_timeout,
        );
        let limiter = config.rate_limit.map(RateLimiter::new);
        let telemetry = ServerTelemetry::new(&registry);
        let shared = Arc::new(ServerShared {
            service,
            registry,
            coalescer,
            limiter,
            telemetry,
            tracer,
            stopping: Flag::new(),
            stop_state: Mutex::new(false),
            stop_cv: Condvar::new(),
            connections: BatchChannel::new(config.connection_backlog, 1),
            local_addr,
            config,
        });

        let acceptor = thread::Builder::new().name("drange-accept".into()).spawn({
            let shared = Arc::clone(&shared);
            move || acceptor_loop(&shared, &listener)
        })?;
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("drange-worker-{i}"))
                    .spawn({
                        let shared = Arc::clone(&shared);
                        move || worker_loop(&shared)
                    })?,
            );
        }
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A cloneable handle that can stop this server from anywhere.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Parks until a [`ShutdownHandle::signal`] (e.g. the `/-/shutdown`
    /// endpoint) fires, then joins the threads. The binary's main
    /// thread lives here.
    pub fn run_until_stopped(mut self) {
        {
            let mut stopped = self.shared.stop_state.lock();
            while !*stopped {
                stopped = self.shared.stop_cv.wait(stopped);
            }
        }
        self.join_threads();
    }

    /// Stops the server and joins its threads (idempotent with an
    /// earlier `/-/shutdown`). In-flight responses complete; idle
    /// keep-alive connections close within the keep-alive window.
    pub fn shutdown(mut self) {
        self.shared.signal_stop();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.stopping.is_raised() {
            self.shared.signal_stop();
        }
        self.join_threads();
    }
}

/// Accepts connections into the worker queue until stopped.
fn acceptor_loop(shared: &ServerShared, listener: &TcpListener) {
    loop {
        if shared.stopping.is_raised() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.telemetry.connections_total.inc();
                if shared.stopping.is_raised() {
                    break;
                }
                if shared.connections.send(http::Conn::new(stream)).is_err() {
                    // Queue closed: we are stopping; the stream drops
                    // and the client sees a reset, which is the
                    // documented shutdown behavior for unserved
                    // connections.
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                if shared.stopping.is_raised() {
                    break;
                }
                // Transient accept errors (EMFILE under load) — the
                // listener itself is still good; keep accepting.
            }
        }
    }
    shared.connections.retire_sender();
}

/// Serves connections from the queue until it drains after shutdown.
///
/// Fairness: a worker does not own a keep-alive connection for its
/// whole lifetime. After each response, if other connections are
/// queued waiting for a worker, the current one is *rotated* — pushed
/// back onto the queue ([`BatchChannel::try_send`], never blocking) so
/// queued clients are served round-robin instead of starving behind
/// long-lived keep-alive sessions.
fn worker_loop(shared: &ServerShared) {
    while let Some(conn) = shared.connections.recv() {
        if shared.stopping.is_raised() {
            // Drain-and-drop: connections queued behind the stop signal
            // are closed, not served.
            continue;
        }
        shared.telemetry.open_connections.add(1);
        let mut current = Some(conn);
        while let Some(conn) = current.take() {
            if let Some(conn) = serve_connection(shared, conn) {
                if shared.stopping.is_raised() {
                    break;
                }
                if let Err(conn) = shared.connections.try_send(conn) {
                    // No room to rotate (queue refilled or closing):
                    // keep serving this connection ourselves.
                    current = Some(conn);
                }
            }
        }
        shared.telemetry.open_connections.sub(1);
    }
}

/// Serves requests on one connection until it closes (`None`) or
/// yields for rotation (`Some` — the connection is still live and owed
/// to the queue).
fn serve_connection(shared: &ServerShared, mut conn: http::Conn) -> Option<http::Conn> {
    let peer_ip = conn
        .stream()
        .peer_addr()
        .map(|a| a.ip())
        .unwrap_or(IpAddr::V4(Ipv4Addr::UNSPECIFIED));
    if conn
        .stream()
        .set_read_timeout(Some(shared.config.keep_alive))
        .is_err()
    {
        return None;
    }
    loop {
        if shared.stopping.is_raised() {
            return None;
        }
        // Captured before the (possibly idle) socket read so the retro
        // `serve.parse` child bills read+parse time; on a keep-alive
        // connection that includes the wait for the next request.
        let parse_t0 = shared.tracer.clock();
        match conn.read_request() {
            http::ReadOutcome::Request(request) => {
                let keep_alive = request.keep_alive && !shared.stopping.is_raised();
                // Every request gets a trace id — even with a noop
                // tracer, so `X-Drange-Request-Id` is always available
                // for log correlation.
                let trace = TraceId::next();
                let mut stage = Stage::root(
                    "serve.request",
                    &shared.telemetry.request_latency_ns,
                    &shared.tracer,
                    Some(trace),
                );
                let span = stage.span();
                if span.is_recording() {
                    span.attr_str("method", &request.method);
                    span.attr_str("path", &request.path);
                    span.attr_str("peer", &peer_ip.to_string());
                }
                span.child_since("serve.parse", parse_t0);
                let mut response = handle_request(shared, &request, peer_ip);
                if request.path == "/random" {
                    response = response.with_header("X-Drange-Request-Id", format!("{trace}"));
                }
                shared.telemetry.requests_total.inc();
                if !keep_alive {
                    response.close = true;
                }
                if request.method == "HEAD" {
                    response.head_only = true;
                }
                let write_t0 = shared.tracer.clock();
                let write_ok = http::write_response(conn.stream(), &response).is_ok();
                let span = stage.span();
                span.child_since("serve.write", write_t0);
                if span.is_recording() {
                    span.attr_u64("status", u64::from(response.status));
                }
                drop(stage);
                if !write_ok || response.close {
                    return None;
                }
                if !shared.connections.is_empty() {
                    return Some(conn);
                }
            }
            http::ReadOutcome::Closed | http::ReadOutcome::TimedOut => return None,
            http::ReadOutcome::Malformed(msg) => {
                let resp = Response::text(400, &format!("bad request: {msg}\n")).closing();
                let _ = http::write_response(conn.stream(), &resp);
                return None;
            }
            http::ReadOutcome::HeadTooLarge => {
                let resp = Response::text(431, "request head too large\n").closing();
                let _ = http::write_response(conn.stream(), &resp);
                return None;
            }
        }
    }
}

/// Routes one parsed request to its endpoint. The `/debug/*`
/// endpoints exist only while the registry carries a flight recorder.
fn handle_request(shared: &ServerShared, request: &Request, peer_ip: IpAddr) -> Response {
    let recorder = shared.registry.recorder();
    match (request.method.as_str(), request.path.as_str(), recorder) {
        ("GET" | "HEAD", "/random", _) => handle_random(shared, request, peer_ip),
        ("GET" | "HEAD", "/healthz", _) => handle_healthz(shared),
        ("GET" | "HEAD", "/metrics", _) => {
            Response::text(200, &shared.registry.render_prometheus())
        }
        ("POST", "/-/shutdown", _) if shared.config.allow_shutdown => {
            shared.signal_stop();
            Response::text(200, "shutting down\n").closing()
        }
        ("GET" | "HEAD", "/debug/trace", Some(rec)) => handle_debug_trace(rec, request),
        ("GET" | "HEAD", "/debug/slow", Some(rec)) => Response::text(200, &rec.render_slow_table()),
        (_, "/random" | "/healthz" | "/metrics", _)
        | (_, "/debug/trace" | "/debug/slow", Some(_)) => {
            Response::text(405, "method not allowed\n").with_header("Allow", "GET, HEAD".into())
        }
        _ => Response::text(404, "not found\n"),
    }
}

/// `GET /debug/trace?n=N` — Chrome trace-event JSON from the flight
/// recorder's ring (`?n=` keeps only the most recent N spans). Load it
/// in `chrome://tracing` or Perfetto.
fn handle_debug_trace(rec: &FlightRecorder, request: &Request) -> Response {
    let last_n = match request.query_param("n") {
        None => None,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => return Response::text(400, "n must be a non-negative integer\n"),
        },
    };
    Response::new(
        200,
        "application/json",
        rec.render_chrome_trace(last_n).into_bytes(),
    )
}

/// `GET /random?bytes=N` — the randomness endpoint.
fn handle_random(shared: &ServerShared, request: &Request, peer_ip: IpAddr) -> Response {
    let tel = &shared.telemetry;
    let retry_after_secs = shared.config.retry_after.as_secs().max(1).to_string();

    if let Some(limiter) = &shared.limiter {
        let mut limit_span = shared.tracer.span("serve.ratelimit");
        // xtask:allow(instant-hot-path) -- the token bucket needs the real wall clock; the span clock is only live with a recorder
        if let Admission::Limited { retry_after } = limiter.check_at(peer_ip, Instant::now()) {
            limit_span.attr_bool("limited", true);
            drop(limit_span);
            tel.rejected_ratelimit.inc();
            // No `X-Drange-Degraded` here by design: the rate-limit
            // path must stay the cheapest rejection and never touch
            // engine state.
            return Response::text(429, "rate limit exceeded\n")
                .with_header("Retry-After", retry_after.as_secs().max(1).to_string());
        }
    }

    let source = match request.query_param("source") {
        None => shared.config.default_source,
        Some(raw) => match SourceMode::parse(raw) {
            Some(mode) => mode,
            None => {
                tel.rejected_bad_request.inc();
                return Response::text(400, "source must be `fast` or `true`\n");
            }
        },
    };
    let bytes = match request.query_param("bytes") {
        None => shared.config.default_bytes,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                tel.rejected_bad_request.inc();
                return Response::text(400, "bytes must be a non-negative integer\n");
            }
        },
    };
    if bytes == 0 {
        tel.rejected_bad_request.inc();
        return Response::text(400, "bytes must be at least 1\n");
    }
    if bytes > shared.config.max_request_bytes {
        tel.rejected_bad_request.inc();
        return Response::text(
            400,
            &format!(
                "bytes exceeds the per-request limit of {}\n",
                shared.config.max_request_bytes
            ),
        );
    }
    if source == SourceMode::Fast {
        return handle_fast(shared, bytes)
            .with_header("X-Drange-Source", SourceMode::Fast.as_str().into());
    }
    let degraded = shared.service.is_degraded();
    let response = match shared.coalescer.fetch(&shared.service, bytes) {
        Ok(body) => {
            tel.bytes_served.add(body.len() as u64);
            tel.served_true.inc();
            Response::new(200, "application/octet-stream", body)
                .with_header("X-Drange-Degraded", degraded.to_string())
                .with_header("Cache-Control", "no-store".into())
        }
        Err(FetchError::Rejected(msg)) => {
            tel.rejected_bad_request.inc();
            Response::text(400, &format!("unserviceable request: {msg}\n"))
        }
        Err(FetchError::Underrun) => {
            tel.underruns.inc();
            Response::text(503, "randomness pool underrun\n")
                .with_header("Retry-After", retry_after_secs)
                .with_header("X-Drange-Degraded", degraded.to_string())
        }
        Err(FetchError::Engine(msg)) => {
            tel.engine_failures.inc();
            Response::text(500, &format!("engine failure: {msg}\n"))
                .with_header("X-Drange-Degraded", degraded.to_string())
                .closing()
        }
    };
    response.with_header("X-Drange-Source", SourceMode::True.as_str().into())
}

/// The `fast` tier: a synchronous DRBG generate — no coalescer, no
/// engine wait. The farm's own shard mutexes are
/// the only contention point, so this path's throughput is decoupled
/// from harvest rate (reseeds draw from the pool on their interval,
/// not per request).
fn handle_fast(shared: &ServerShared, bytes: usize) -> Response {
    let tel = &shared.telemetry;
    let retry_after_secs = shared.config.retry_after.as_secs().max(1).to_string();
    let mut span = shared.tracer.span("serve.fast");
    if span.is_recording() {
        span.attr_u64("bytes", bytes as u64);
    }
    match shared.service.generate_fast(bytes) {
        Ok(body) => {
            drop(span);
            tel.bytes_served.add(body.len() as u64);
            tel.served_fast.inc();
            Response::new(200, "application/octet-stream", body)
                .with_header("Cache-Control", "no-store".into())
        }
        Err(e) => {
            span.attr_bool("failed", true);
            drop(span);
            match e {
                drange_core::DrangeError::InvalidSpec(msg) => {
                    tel.rejected_bad_request.inc();
                    Response::text(400, &format!("unserviceable request: {msg}\n"))
                }
                // The shard has never been seeded and its first reseed
                // is blocked (health trip) or starved (pool timeout):
                // retryable, the same contract as a pool underrun.
                drange_core::DrangeError::Unhealthy(msg) => {
                    tel.underruns.inc();
                    Response::text(503, &format!("conditioning tier unhealthy: {msg}\n"))
                        .with_header("Retry-After", retry_after_secs)
                }
                drange_core::DrangeError::Engine(msg) => {
                    tel.underruns.inc();
                    Response::text(503, &format!("conditioning tier starved: {msg}\n"))
                        .with_header("Retry-After", retry_after_secs)
                }
                other => {
                    tel.engine_failures.inc();
                    Response::text(500, &format!("engine failure: {other}\n")).closing()
                }
            }
        }
    }
}

/// `GET /healthz` — liveness plus degradation.
fn handle_healthz(shared: &ServerShared) -> Response {
    let degraded = shared.service.is_degraded();
    let response = if degraded {
        Response::text(503, "degraded\n")
    } else {
        Response::text(200, "ok\n")
    };
    response.with_header("X-Drange-Degraded", degraded.to_string())
}

//! End-to-end tests for `drange-serve` over real sockets.
//!
//! Each test boots an in-process [`Server`] on a loopback port with a
//! PRNG (or scripted) source, talks plain HTTP/1.1 through
//! `std::net::TcpStream`, and asserts the response contract plus the
//! server-side invariants (no leaked request ids, correct telemetry).

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use drange_core::telemetry::MetricsRegistry;
use drange_core::{RandomnessService, ServiceConfig};
use drange_serve::source::{PrngHarvestSource, ScriptedSource, ScriptedState};
use drange_serve::{RateLimitConfig, Server, ServerConfig, SourceMode};

/// A parsed test-side response.
#[derive(Debug)]
struct TestResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl TestResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request on a fresh connection and reads the response.
fn roundtrip(addr: SocketAddr, request: &str) -> TestResponse {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(request.as_bytes()).expect("write request");
    read_response(&mut stream)
}

/// Reads one `Content-Length`-framed response off the stream.
fn read_response(stream: &mut TcpStream) -> TestResponse {
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "eof before response head completed: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("utf-8 head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse().expect("numeric content-length"))
        .unwrap_or(0);
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "eof before response body completed");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    TestResponse {
        status,
        headers,
        body,
    }
}

fn get(addr: SocketAddr, target: &str) -> TestResponse {
    roundtrip(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn prng_service(queue_bits: usize) -> Arc<RandomnessService> {
    let sources = vec![
        PrngHarvestSource::new(0xAAAA_0001),
        PrngHarvestSource::new(0xBBBB_0002),
    ];
    Arc::new(
        RandomnessService::with_sources(
            sources,
            ServiceConfig {
                queue_capacity: queue_bits,
                low_watermark: queue_bits / 16,
                min_entropy: 0.9,
                ..ServiceConfig::default()
            },
        )
        .expect("prng service"),
    )
}

fn boot(service: Arc<RandomnessService>, config: ServerConfig) -> Server {
    Server::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        service,
        MetricsRegistry::new(),
        config,
    )
    .expect("bind test server")
}

#[test]
fn concurrent_clients_get_disjoint_bytes_and_leak_no_ids() {
    let service = prng_service(1 << 16);
    let server = boot(
        Arc::clone(&service),
        ServerConfig {
            worker_threads: 4,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for _ in 0..8 {
        handles.push(thread::spawn(move || {
            let mut bodies = Vec::new();
            for _ in 0..5 {
                let resp = get(addr, "/random?bytes=16");
                assert_eq!(resp.status, 200, "body: {:?}", resp.body);
                assert_eq!(resp.body.len(), 16);
                assert_eq!(resp.header("X-Drange-Degraded"), Some("false"));
                bodies.push(resp.body);
            }
            bodies
        }));
    }
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    for handle in handles {
        for body in handle.join().expect("client thread") {
            assert!(
                seen.insert(body),
                "two clients received identical 16-byte buffers — aliased split"
            );
        }
    }
    assert_eq!(
        service.outstanding_requests(),
        0,
        "served requests must not leak ids"
    );
    server.shutdown();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let service = prng_service(1 << 16);
    let server = boot(Arc::clone(&service), ServerConfig::default());
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    for _ in 0..3 {
        stream
            .write_all(b"GET /random?bytes=8 HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let resp = read_response(&mut stream);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), 8);
    }
    drop(stream);
    server.shutdown();
    assert_eq!(service.outstanding_requests(), 0);
}

#[test]
fn zero_and_oversized_byte_counts_are_client_errors() {
    let service = prng_service(1 << 16);
    let server = boot(Arc::clone(&service), ServerConfig::default());
    let addr = server.local_addr();

    assert_eq!(get(addr, "/random?bytes=0").status, 400);
    assert_eq!(get(addr, "/random?bytes=notanumber").status, 400);
    let oversized = ServerConfig::default().max_request_bytes + 1;
    assert_eq!(get(addr, &format!("/random?bytes={oversized}")).status, 400);
    assert_eq!(service.outstanding_requests(), 0);
    server.shutdown();
}

#[test]
fn unknown_paths_and_methods_map_to_404_and_405() {
    let service = prng_service(1 << 16);
    let server = boot(service, ServerConfig::default());
    let addr = server.local_addr();

    assert_eq!(get(addr, "/nope").status, 404);
    // Debug endpoints are hidden (404, not 405) unless enabled.
    assert_eq!(get(addr, "/debug/trace").status, 404);
    assert_eq!(get(addr, "/debug/slow").status, 404);
    let resp = roundtrip(
        addr,
        "DELETE /random HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("Allow"), Some("GET, HEAD"));
    // /-/shutdown is 404 unless explicitly enabled.
    let resp = roundtrip(
        addr,
        "POST /-/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(resp.status, 404);
    server.shutdown();
}

#[test]
fn pool_exhaustion_returns_503_with_retry_after() {
    // A throttled source that trickles bits far slower than the
    // request drains them: the engine-side wait times out and the
    // server maps the underrun to 503 + Retry-After.
    let state = ScriptedState::new();
    state.throttle();
    let source = ScriptedSource::new(7, Arc::clone(&state), Duration::from_millis(200));
    let service = Arc::new(
        RandomnessService::with_sources(
            vec![source],
            ServiceConfig {
                queue_capacity: 1 << 15,
                low_watermark: 1 << 10,
                min_entropy: 0.9,
                ..ServiceConfig::default()
            },
        )
        .expect("scripted service"),
    );
    let server = boot(
        Arc::clone(&service),
        ServerConfig {
            fetch_timeout: Duration::from_millis(50),
            retry_after: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // 3000 bytes = 24_000 bits; the throttled source delivers 4096
    // bits per 200 ms, so a 50 ms fetch timeout always expires first.
    let resp = get(addr, "/random?bytes=3000");
    assert_eq!(resp.status, 503, "body: {:?}", resp.body);
    assert_eq!(resp.header("Retry-After"), Some("2"));
    assert!(
        resp.header("X-Drange-Request-Id").is_some(),
        "503 responses still identify the request"
    );
    assert!(
        resp.header("X-Drange-Degraded").is_some(),
        "underrun 503 reports degradation state"
    );
    assert_eq!(
        service.outstanding_requests(),
        0,
        "a timed-out fetch leaves no request id behind"
    );
    server.shutdown();
}

#[test]
fn degraded_source_flips_healthz_and_the_response_header() {
    let state = ScriptedState::new();
    let source = ScriptedSource::new(11, Arc::clone(&state), Duration::from_millis(1));
    let service = Arc::new(
        RandomnessService::with_sources(
            vec![source],
            ServiceConfig {
                queue_capacity: 1 << 14,
                low_watermark: 1 << 12,
                min_entropy: 0.9,
                ..ServiceConfig::default()
            },
        )
        .expect("scripted service"),
    );
    let server = boot(Arc::clone(&service), ServerConfig::default());
    let addr = server.local_addr();

    let resp = get(addr, "/healthz");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("X-Drange-Degraded"), Some("false"));

    state.degrade();
    // The flag propagates when the worker harvests its next batch;
    // draining the pool forces harvesting.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let _ = get(addr, "/random?bytes=512");
        let resp = get(addr, "/healthz");
        if resp.status == 503 {
            assert_eq!(resp.body, b"degraded\n");
            assert_eq!(resp.header("X-Drange-Degraded"), Some("true"));
            break;
        }
        assert!(
            Instant::now() < deadline,
            "degradation never reached /healthz"
        );
        thread::sleep(Duration::from_millis(10));
    }
    // The degraded flag rides /random responses too.
    let resp = get(addr, "/random?bytes=16");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("X-Drange-Degraded"), Some("true"));
    server.shutdown();
}

#[test]
fn rate_limit_returns_429_with_retry_after() {
    let service = prng_service(1 << 16);
    let server = boot(
        Arc::clone(&service),
        ServerConfig {
            rate_limit: Some(RateLimitConfig {
                rate_per_sec: 0.5,
                burst: 2.0,
            }),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    assert_eq!(get(addr, "/random?bytes=8").status, 200);
    assert_eq!(get(addr, "/random?bytes=8").status, 200);
    let resp = get(addr, "/random?bytes=8");
    assert_eq!(resp.status, 429, "third burst request must be limited");
    let retry: u64 = resp
        .header("Retry-After")
        .expect("429 must carry Retry-After")
        .parse()
        .expect("numeric Retry-After");
    assert!(retry >= 1);
    assert!(
        resp.header("X-Drange-Request-Id").is_some(),
        "even rate-limited responses identify the request"
    );
    // Rejections spend no engine resources and leak nothing.
    assert_eq!(service.outstanding_requests(), 0);
    server.shutdown();
}

#[test]
fn metrics_render_prometheus_with_server_series() {
    let service = prng_service(1 << 16);
    let server = boot(service, ServerConfig::default());
    let addr = server.local_addr();

    let _ = get(addr, "/random?bytes=64");
    let resp = get(addr, "/metrics");
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).expect("utf-8 metrics");
    for series in [
        "drange_server_requests_total",
        "drange_server_connections_total",
        "drange_server_bytes_served_total",
        "drange_server_request_latency_ns",
    ] {
        assert!(text.contains(series), "missing series {series}:\n{text}");
    }
    server.shutdown();
}

#[test]
fn client_disconnect_mid_request_leaks_nothing() {
    let service = prng_service(1 << 16);
    let server = boot(
        Arc::clone(&service),
        ServerConfig {
            worker_threads: 2,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // Fire a request and slam the connection shut without reading the
    // response; the server finishes the fetch, fails the write, and
    // must not leak the request id.
    for _ in 0..4 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /random?bytes=4096 HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        drop(stream);
    }
    // A full roundtrip afterwards proves the workers survived and
    // drained the aborted work.
    let resp = get(addr, "/random?bytes=16");
    assert_eq!(resp.status, 200);
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.outstanding_requests() != 0 {
        assert!(
            Instant::now() < deadline,
            "aborted connections leaked request ids: {}",
            service.outstanding_requests()
        );
        thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn debug_endpoints_export_traces_and_request_ids() {
    use drange_core::telemetry::{FlightRecorder, RecorderConfig};
    let recorder = FlightRecorder::with_config(RecorderConfig::default());
    let sources = vec![
        PrngHarvestSource::new(0xCCCC_0003),
        PrngHarvestSource::new(0xDDDD_0004),
    ];
    let service = Arc::new(
        RandomnessService::with_sources_traced(
            sources,
            ServiceConfig {
                queue_capacity: 1 << 16,
                low_watermark: 1 << 12,
                min_entropy: 0.9,
                ..ServiceConfig::default()
            },
            None,
            recorder.tracer(),
        )
        .expect("traced service"),
    );
    let server = Server::bind_with_recorder(
        "127.0.0.1:0".parse().expect("loopback"),
        Arc::clone(&service),
        MetricsRegistry::new(),
        ServerConfig {
            debug_endpoints: true,
            ..ServerConfig::default()
        },
        Some(recorder),
    )
    .expect("bind traced server");
    let addr = server.local_addr();

    for _ in 0..4 {
        let resp = get(addr, "/random?bytes=64");
        assert_eq!(resp.status, 200);
        let id = resp
            .header("X-Drange-Request-Id")
            .expect("200 carries a request id");
        assert_eq!(id.len(), 16, "trace ids are 16 hex digits: {id}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");
    }

    // The Chrome export carries the whole span tree: HTTP edge, the
    // coalesced fetch, the combined engine fetch and its pool drain,
    // and the harvest batches.
    let resp = get(addr, "/debug/trace");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("Content-Type"), Some("application/json"));
    let text = String::from_utf8(resp.body).expect("utf-8 trace json");
    assert!(text.contains("\"traceEvents\""), "{text}");
    for span in [
        "serve.request",
        "serve.parse",
        "serve.fetch",
        "serve.combine",
        "serve.write",
        "engine.pool_drain",
        "engine.batch",
        "engine.harvest",
    ] {
        assert!(text.contains(span), "missing span {span} in trace export");
    }

    assert_eq!(get(addr, "/debug/trace?n=5").status, 200);
    assert_eq!(get(addr, "/debug/trace?n=bogus").status, 400);

    let resp = get(addr, "/debug/slow");
    assert_eq!(resp.status, 200);
    let table = String::from_utf8(resp.body).expect("utf-8 slow table");
    assert!(table.contains("rank"), "{table}");
    assert!(table.contains("serve.request"), "{table}");
    server.shutdown();
}

#[test]
fn shutdown_endpoint_stops_the_server_when_enabled() {
    let service = prng_service(1 << 16);
    let server = boot(
        service,
        ServerConfig {
            allow_shutdown: true,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let resp = roundtrip(
        addr,
        "POST /-/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(resp.status, 200);
    // The endpoint raised the stop signal; run_until_stopped must
    // return promptly rather than parking forever.
    let joiner = thread::spawn(move || server.run_until_stopped());
    let deadline = Instant::now() + Duration::from_secs(30);
    while !joiner.is_finished() {
        assert!(Instant::now() < deadline, "server never stopped");
        thread::sleep(Duration::from_millis(10));
    }
    joiner.join().expect("server joined");
}

#[test]
fn source_param_selects_the_tier_and_stamps_the_source_header() {
    let service = prng_service(1 << 16);
    let server = boot(Arc::clone(&service), ServerConfig::default());
    let addr = server.local_addr();

    // Default (no ?source=) is the raw `true` tier.
    let resp = get(addr, "/random?bytes=32");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("X-Drange-Source"), Some("true"));
    assert_eq!(resp.body.len(), 32);

    // Explicit selections stamp their tier.
    let resp = get(addr, "/random?bytes=32&source=true");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("X-Drange-Source"), Some("true"));

    let resp = get(addr, "/random?bytes=32&source=fast");
    assert_eq!(resp.status, 200, "body: {:?}", resp.body);
    assert_eq!(resp.header("X-Drange-Source"), Some("fast"));
    assert_eq!(resp.body.len(), 32);
    assert_eq!(resp.header("Cache-Control"), Some("no-store"));
    assert!(
        resp.header("X-Drange-Request-Id").is_some(),
        "fast responses carry the trace id too"
    );

    // Consecutive fast responses never repeat (fast-key-erasure
    // ratchets between generates).
    let a = get(addr, "/random?bytes=32&source=fast");
    let b = get(addr, "/random?bytes=32&source=fast");
    assert_eq!((a.status, b.status), (200, 200));
    assert_ne!(a.body, b.body, "fast tier repeated output");

    // An unknown source is a client error, not a silent default.
    let resp = get(addr, "/random?bytes=32&source=bogus");
    assert_eq!(resp.status, 400);

    // The fast tier minted DRBG generates and credited entropy.
    let stats = service.drbg_stats().expect("conditioning on by default");
    assert!(stats.generates >= 3, "fast requests mint generates");
    assert!(stats.entropy_credited_bits > 0, "instantiation credited");
    server.shutdown();
}

#[test]
fn default_source_fast_serves_unannotated_requests_from_the_drbg() {
    let service = prng_service(1 << 16);
    let server = boot(
        Arc::clone(&service),
        ServerConfig {
            default_source: SourceMode::Fast,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let resp = get(addr, "/random?bytes=64");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("X-Drange-Source"), Some("fast"));
    assert_eq!(resp.body.len(), 64);
    // Clients can still opt back into raw harvest bits per request.
    let resp = get(addr, "/random?bytes=64&source=true");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("X-Drange-Source"), Some("true"));
    server.shutdown();
}

#[test]
fn fast_requests_against_a_disabled_tier_are_client_errors() {
    let sources = vec![PrngHarvestSource::new(0xEEEE_0005)];
    let service = Arc::new(
        RandomnessService::with_sources(
            sources,
            ServiceConfig {
                queue_capacity: 1 << 16,
                low_watermark: 1 << 12,
                min_entropy: 0.9,
                drbg: None,
            },
        )
        .expect("prng service without conditioning"),
    );
    let server = boot(Arc::clone(&service), ServerConfig::default());
    let addr = server.local_addr();

    let resp = get(addr, "/random?bytes=32&source=fast");
    assert_eq!(resp.status, 400, "body: {:?}", resp.body);
    assert_eq!(resp.header("X-Drange-Source"), Some("fast"));
    // The raw tier is unaffected by the disabled conditioning tier.
    let resp = get(addr, "/random?bytes=32");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("X-Drange-Source"), Some("true"));
    server.shutdown();
}

#[test]
fn served_by_source_metrics_split_the_tiers() {
    let sources = vec![
        PrngHarvestSource::new(0xFFFF_0006),
        PrngHarvestSource::new(0xFFFF_0007),
    ];
    let registry = MetricsRegistry::new();
    let service = Arc::new(
        RandomnessService::with_sources_telemetry(
            sources,
            ServiceConfig::default(),
            Some(&registry),
        )
        .expect("prng service"),
    );
    let server = Server::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        Arc::clone(&service),
        registry,
        ServerConfig::default(),
    )
    .expect("bind test server");
    let addr = server.local_addr();

    assert_eq!(get(addr, "/random?bytes=16&source=fast").status, 200);
    assert_eq!(get(addr, "/random?bytes=16&source=fast").status, 200);
    assert_eq!(get(addr, "/random?bytes=16&source=true").status, 200);

    let resp = get(addr, "/metrics");
    let text = String::from_utf8(resp.body).expect("utf-8 metrics");
    assert!(
        text.contains("drange_server_served_total{source=\"fast\"} 2"),
        "missing fast served counter:\n{text}"
    );
    assert!(
        text.contains("drange_server_served_total{source=\"true\"} 1"),
        "missing true served counter:\n{text}"
    );
    // The conditioning tier's own telemetry rides the same registry.
    assert!(
        text.contains("drange_drbg_generates_total"),
        "missing DRBG series:\n{text}"
    );
    server.shutdown();
}

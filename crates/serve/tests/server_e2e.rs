//! End-to-end service tests: a real `Server` on an ephemeral port, driven
//! by plain `TcpStream` clients speaking HTTP/1.1.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use swact::{wire, InputSpec, Options};
use swact_circuit::catalog;
use swact_serve::admission::{ClientPolicy, ClientTable};
use swact_serve::{Server, ServerConfig};

/// A parsed HTTP response: status, headers, body (de-chunked if needed).
struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the full response off the socket.
fn call(addr: std::net::SocketAddr, request: &str) -> HttpResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let raw = String::from_utf8(raw).expect("utf8 response");

    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body split");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .map(|l| {
            let (n, v) = l.split_once(':').expect("header");
            (n.trim().to_string(), v.trim().to_string())
        })
        .collect();

    let chunked = headers
        .iter()
        .any(|(n, v)| n.eq_ignore_ascii_case("transfer-encoding") && v == "chunked");
    let body = if chunked {
        dechunk(body)
    } else {
        body.to_string()
    };
    HttpResponse {
        status,
        headers,
        body,
    }
}

/// Reassembles a chunked body.
fn dechunk(raw: &str) -> String {
    let mut out = String::new();
    let mut rest = raw;
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..]; // skip the chunk's trailing CRLF
    }
}

fn post(path: &str, client: Option<&str>, body: &str) -> String {
    let client_header = client
        .map(|c| format!("X-Swact-Client: {c}\r\n"))
        .unwrap_or_default();
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\n{client_header}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n")
}

fn start_server(clients: ClientTable) -> Server {
    start_server_with(clients, None)
}

fn start_server_with(clients: ClientTable, cache_dir: Option<std::path::PathBuf>) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        handlers: 3,
        clients,
        drain: Duration::from_secs(5),
        cache_dir,
    })
    .expect("bind ephemeral port")
}

/// Extracts every `"switching":<x>` float from a response body.
fn switching_values(json: &str) -> Vec<f64> {
    json.split("\"switching\":")
        .skip(1)
        .map(|chunk| {
            let end = chunk.find(['}', ',']).expect("delimiter");
            chunk[..end].parse::<f64>().expect("float")
        })
        .collect()
}

#[test]
fn estimate_over_tcp_is_bit_identical_to_a_direct_engine_call() {
    let server = start_server(ClientTable::default());
    let addr = server.local_addr();

    let body = r#"{"circuit":"c17","p1":[0.1,0.2,0.3,0.4,0.5]}"#;
    let response = call(addr, &post("/v1/estimate", Some("alice"), body));
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-type"), Some("application/json"));

    // The same scenario computed directly, bypassing the server.
    let circuit = catalog::c17();
    let spec = InputSpec::independent(vec![0.1, 0.2, 0.3, 0.4, 0.5]);
    let direct = swact::estimate(&circuit, &spec, &Options::default()).expect("direct estimate");

    // The whole response body matches the wire encoding of the direct
    // result — float bits included.
    assert_eq!(response.body, wire::estimate_json(&direct, &circuit));
    let got = switching_values(&response.body);
    let expected = direct.switching_all();
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g.to_bits(), e.to_bits());
    }

    server.handle().shutdown();
    server.wait();
}

#[test]
fn batch_preserves_submission_order_and_flags_cache_hits() {
    let server = start_server(ClientTable::default());
    let addr = server.local_addr();

    let body = r#"{"circuit":"c17","scenarios":[{"p1":[0.1,0.1,0.1,0.1,0.1]},{"p1":[0.9,0.9,0.9,0.9,0.9]},{}]}"#;
    let first = call(addr, &post("/v1/batch", None, body));
    assert_eq!(first.status, 200);
    assert!(first
        .body
        .starts_with("{\"circuit\":\"c17\",\"cache_hit\":false,"));
    for i in 0..3 {
        assert!(
            first.body.contains(&format!("{{\"index\":{i},\"ok\":")),
            "item {i} present and ok"
        );
    }
    // Submission order on the wire.
    let p0 = first.body.find("\"index\":0").expect("item 0");
    let p1 = first.body.find("\"index\":1").expect("item 1");
    let p2 = first.body.find("\"index\":2").expect("item 2");
    assert!(p0 < p1 && p1 < p2);

    // Same request again: compiled junction trees are reused.
    let second = call(addr, &post("/v1/batch", None, body));
    assert!(second
        .body
        .starts_with("{\"circuit\":\"c17\",\"cache_hit\":true,"));
    // The estimates themselves are bit-identical across runs (the `reuse`
    // metadata legitimately differs — the warm run serves from caches).
    let a = switching_values(&first.body);
    let b = switching_values(&second.body);
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }

    server.handle().shutdown();
    server.wait();
}

/// The degradation-ladder summary and accuracy report introduced for the
/// sampling rung round-trip through both inference endpoints: every
/// estimate object carries an `accuracy` field (null for exact backends)
/// and a `degradation_counts` object with one counter per rung, matching
/// the wire encoding of a direct engine call byte for byte.
#[test]
fn estimate_and_batch_report_accuracy_and_per_rung_counts() {
    let server = start_server(ClientTable::default());
    let addr = server.local_addr();

    let body = r#"{"circuit":"c17","p1":[0.1,0.2,0.3,0.4,0.5]}"#;
    let single = call(addr, &post("/v1/estimate", None, body));
    assert_eq!(single.status, 200);
    assert!(single.body.contains("\"accuracy\":null"));
    assert!(single
        .body
        .contains("\"degradation_counts\":{\"replanned\":0,\"twostate\":0,\"sampling\":0}"));

    let circuit = catalog::c17();
    let spec = InputSpec::independent(vec![0.1, 0.2, 0.3, 0.4, 0.5]);
    let direct = swact::estimate(&circuit, &spec, &Options::default()).expect("direct estimate");
    assert_eq!(
        wire::degradation_counts_json(direct.degradations()),
        "{\"replanned\":0,\"twostate\":0,\"sampling\":0}"
    );
    assert_eq!(single.body, wire::estimate_json(&direct, &circuit));

    let batch_body = r#"{"circuit":"c17","scenarios":[{"p1":[0.1,0.2,0.3,0.4,0.5]},{}]}"#;
    let batch = call(addr, &post("/v1/batch", None, batch_body));
    assert_eq!(batch.status, 200);
    assert_eq!(batch.body.matches("\"accuracy\":").count(), 2);
    assert_eq!(batch.body.matches("\"degradation_counts\":").count(), 2);

    server.handle().shutdown();
    server.wait();
}

#[test]
fn sweep_streams_one_chunked_line_per_scenario_in_order() {
    let server = start_server(ClientTable::default());
    let addr = server.local_addr();

    // Build the request from the same f64 values the direct comparison
    // uses, encoded shortest-round-trip, so the server parses back the
    // identical bits.
    let levels = [0.2f64, 0.4, 0.6, 0.8];
    let scenarios: Vec<String> = levels
        .iter()
        .map(|&p| format!("{{\"p1\":[{0},{0},{0},{0},{0}]}}", wire::number(p)))
        .collect();
    let body = format!(
        "{{\"circuit\":\"c17\",\"scenarios\":[{}]}}",
        scenarios.join(",")
    );
    let response = call(addr, &post("/v1/sweep", Some("sweeper"), &body));
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("transfer-encoding"),
        Some("chunked"),
        "sweeps stream"
    );
    assert_eq!(
        response.header("content-type"),
        Some("application/x-ndjson")
    );

    let lines: Vec<&str> = response.body.lines().collect();
    assert_eq!(lines.len(), 4);
    let circuit = catalog::c17();
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"index\":{i},\"ok\":")));
        // Each line is bit-identical to the direct computation.
        let spec = InputSpec::independent(vec![levels[i]; 5]);
        let direct =
            swact::estimate(&circuit, &spec, &Options::default()).expect("direct estimate");
        let got = switching_values(line);
        for (g, e) in got.iter().zip(&direct.switching_all()) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    server.handle().shutdown();
    server.wait();
}

#[test]
fn two_concurrent_clients_succeed_while_a_zero_quota_client_gets_429() {
    let mut clients = ClientTable::default();
    clients.insert(
        "blocked",
        ClientPolicy {
            max_in_flight: Some(0),
            budget: swact::Budget::UNLIMITED,
        },
    );
    let server = start_server(clients);
    let addr = server.local_addr();

    // Two clients in flight at once, distinct scenarios each.
    let a = std::thread::spawn(move || {
        call(
            addr,
            &post(
                "/v1/estimate",
                Some("alice"),
                r#"{"circuit":"c17","p1":[0.3,0.3,0.3,0.3,0.3]}"#,
            ),
        )
    });
    let b = std::thread::spawn(move || {
        call(
            addr,
            &post(
                "/v1/estimate",
                Some("bob"),
                r#"{"circuit":"c17","p1":[0.7,0.7,0.7,0.7,0.7]}"#,
            ),
        )
    });
    let (ra, rb) = (a.join().expect("alice"), b.join().expect("bob"));
    assert_eq!(ra.status, 200);
    assert_eq!(rb.status, 200);
    assert_ne!(ra.body, rb.body, "different scenarios, different answers");

    // The revoked token is turned away with a structured body.
    let blocked = call(
        addr,
        &post(
            "/v1/estimate",
            Some("blocked"),
            r#"{"circuit":"c17","p1":[0.5,0.5,0.5,0.5,0.5]}"#,
        ),
    );
    assert_eq!(blocked.status, 429);
    assert_eq!(blocked.header("retry-after"), Some("1"));
    assert!(blocked.body.contains("\"code\":\"over_quota\""));

    // The throttle shows up on the metrics endpoint.
    let metrics = call(addr, &get("/metrics"));
    assert!(metrics.body.contains("swact_server_throttled_total 1\n"));

    server.handle().shutdown();
    server.wait();
}

#[test]
fn metrics_and_healthz_report_server_and_engine_state() {
    let server = start_server(ClientTable::default());
    let addr = server.local_addr();

    let health = call(addr, &get("/healthz"));
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"status\":\"ok\"}");

    call(
        addr,
        &post(
            "/v1/estimate",
            None,
            r#"{"circuit":"c17","p1":[0.5,0.5,0.5,0.5,0.5]}"#,
        ),
    );

    let metrics = call(addr, &get("/metrics"));
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    // Server-side counters.
    assert!(metrics
        .body
        .contains("swact_server_requests_total{endpoint=\"estimate\"} 1\n"));
    assert!(metrics
        .body
        .contains("swact_server_responses_total{endpoint=\"estimate\",class=\"2xx\"} 1\n"));
    // Engine counters exported through MetricsSnapshot::fields().
    assert!(metrics.body.contains("swact_engine_compile_misses 1\n"));
    assert!(metrics.body.contains("swact_engine_requests_completed 1\n"));

    server.handle().shutdown();
    server.wait();
}

/// Sends `raw`, closes the sending half, and returns whatever the server
/// wrote back before closing.
fn send_and_half_close(addr: std::net::SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(raw).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read");
    String::from_utf8(reply).expect("utf8 response")
}

#[test]
fn malformed_and_truncated_requests_are_counted_as_400s() {
    let server = start_server(ClientTable::default());
    let addr = server.local_addr();

    // A connection that sends nothing is no request and gets no answer.
    assert_eq!(send_and_half_close(addr, b""), "");
    let malformed = send_and_half_close(addr, b"GARBAGE\r\n\r\n");
    assert!(malformed.starts_with("HTTP/1.1 400 "), "{malformed}");
    let not_utf8 = send_and_half_close(addr, b"GET /\xff HTTP/1.1\r\n\r\n");
    assert!(not_utf8.starts_with("HTTP/1.1 400 "), "{not_utf8}");
    let cut_head = send_and_half_close(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n");
    assert!(cut_head.starts_with("HTTP/1.1 400 "), "{cut_head}");
    let cut_body = send_and_half_close(
        addr,
        b"POST /v1/estimate HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"circ",
    );
    assert!(cut_body.starts_with("HTTP/1.1 400 "), "{cut_body}");
    assert!(cut_body.contains("request ended before"), "{cut_body}");

    let metrics = call(addr, &get("/metrics"));
    assert!(
        metrics
            .body
            .contains("swact_server_requests_total{endpoint=\"other\"} 4\n"),
        "{}",
        metrics.body
    );
    assert!(metrics
        .body
        .contains("swact_server_responses_total{endpoint=\"other\",class=\"4xx\"} 4\n"));
    assert!(metrics
        .body
        .contains("swact_server_latency_seconds_count{endpoint=\"other\"} 4\n"));

    server.handle().shutdown();
    server.wait();
}

#[test]
fn typed_errors_map_to_statuses_with_structured_bodies() {
    let mut clients = ClientTable::default();
    clients.insert(
        "tiny-deadline",
        ClientPolicy {
            max_in_flight: None,
            budget: swact::Budget::deadline(Duration::ZERO),
        },
    );
    let server = start_server(clients);
    let addr = server.local_addr();

    // Unknown catalog name → 404.
    let missing = call(
        addr,
        &post("/v1/estimate", None, r#"{"circuit":"not-a-benchmark"}"#),
    );
    assert_eq!(missing.status, 404);
    assert!(missing.body.contains("\"code\":\"unknown_circuit\""));

    // Malformed JSON → 400 with the parser's offset in the message.
    let bad = call(addr, &post("/v1/estimate", None, "{nope"));
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("\"code\":\"bad_json\""));

    // Mismatched p1 length → 400 (engine-side validation error).
    let mismatch = call(
        addr,
        &post("/v1/estimate", None, r#"{"circuit":"c17","p1":[0.5]}"#),
    );
    assert_eq!(mismatch.status, 400);
    assert!(mismatch.body.contains("\"code\":\"invalid_request\""));

    // A zero deadline trips the engine's queue-deadline shed → 504.
    let late = call(
        addr,
        &post(
            "/v1/estimate",
            Some("tiny-deadline"),
            r#"{"circuit":"c17","p1":[0.5,0.5,0.5,0.5,0.5]}"#,
        ),
    );
    assert_eq!(late.status, 504);
    assert!(late.body.contains("\"code\":\"deadline_exceeded\""));

    // Wrong route → 404.
    let lost = call(addr, &get("/v2/nothing"));
    assert_eq!(lost.status, 404);
    assert!(lost.body.contains("\"code\":\"not_found\""));

    server.handle().shutdown();
    server.wait();
}

#[test]
fn out_of_range_probabilities_are_400s_and_the_server_keeps_serving() {
    // More bad requests than the server has handler threads (3): each must
    // be answered, so none may take its handler down.
    let server = start_server(ClientTable::default());
    let addr = server.local_addr();
    let bad_bodies = [
        (
            "/v1/estimate",
            r#"{"circuit":"c17","p1":[1.5,0.3,0.3,0.3,0.3]}"#,
        ),
        (
            "/v1/estimate",
            r#"{"circuit":"c17","p1":[-0.1,0.3,0.3,0.3,0.3]}"#,
        ),
        ("/v1/estimate", r#"{"circuit":"c17","p1":[2,2,2,2,2]}"#),
        (
            "/v1/estimate",
            r#"{"circuit":"c17","p1":[0.5,0.5,0.5,0.5,0.5],"activity":[0.9,0.5,0.5,0.5,1.5]}"#,
        ),
        (
            "/v1/batch",
            r#"{"circuit":"c17","scenarios":[{},{"p1":[0.3,0.3,7,0.3,0.3]}]}"#,
        ),
        (
            "/v1/sweep",
            r#"{"circuit":"c17","scenarios":[{"p1":[1e9,0.3,0.3,0.3,0.3]}]}"#,
        ),
    ];
    for (path, body) in bad_bodies {
        let response = call(addr, &post(path, None, body));
        assert_eq!(response.status, 400, "{path} {body}: {}", response.body);
        assert!(
            response.body.contains("\"code\":\"bad_request\""),
            "{path} {body}: {}",
            response.body
        );
    }

    let ok = call(
        addr,
        &post(
            "/v1/estimate",
            None,
            r#"{"circuit":"c17","p1":[0.3,0.3,0.3,0.3,0.3]}"#,
        ),
    );
    assert_eq!(ok.status, 200, "body: {}", ok.body);
    assert!(ok.body.contains("\"circuit\":\"c17\""));

    server.handle().shutdown();
    server.wait();
}

#[test]
fn inline_bench_netlists_are_accepted() {
    let server = start_server(ClientTable::default());
    let addr = server.local_addr();

    let netlist = "INPUT(a)\\nINPUT(b)\\nOUTPUT(y)\\ny = AND(a, b)";
    let body = format!("{{\"bench\":\"{netlist}\",\"p1\":[0.5,0.5]}}");
    let response = call(addr, &post("/v1/estimate", None, &body));
    assert_eq!(response.status, 200, "body: {}", response.body);
    assert!(response.body.starts_with("{\"circuit\":\"inline\""));
    assert!(response.body.contains("\"name\":\"y\""));

    server.handle().shutdown();
    server.wait();
}

#[test]
fn graceful_shutdown_drains_and_flips_healthz() {
    let server = start_server(ClientTable::default());
    let addr = server.local_addr();

    assert_eq!(call(addr, &get("/healthz")).status, 200);

    // Shutdown over the wire.
    let accepted = call(addr, &post("/admin/shutdown", None, ""));
    assert_eq!(accepted.status, 202);

    // Already-accepted connections still get answered while draining;
    // healthz now reports draining. (The acceptor may take a beat to
    // close the listener, so connects can still succeed briefly.)
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let request = get("/healthz");
        if stream.write_all(request.as_bytes()).is_ok() {
            let mut raw = String::new();
            let _ = stream.read_to_string(&mut raw);
            if let Some(status_line) = raw.lines().next() {
                assert!(
                    status_line.contains("503"),
                    "draining healthz must be 503, got: {status_line}"
                );
            }
        }
    }

    // wait() returns: acceptor and handlers all joined.
    server.wait();
}

/// Starts an idle server on `addr`, requests shutdown, and returns how
/// long `wait` took to return.
fn idle_shutdown_time(addr: &str) -> Duration {
    let server = Server::start(ServerConfig {
        addr: addr.to_string(),
        jobs: 1,
        handlers: 2,
        clients: ClientTable::default(),
        drain: Duration::from_secs(5),
        cache_dir: None,
    })
    .expect("bind ephemeral port");
    let started = std::time::Instant::now();
    server.handle().shutdown();
    server.wait();
    started.elapsed()
}

#[test]
fn idle_loopback_server_stops_promptly() {
    let took = idle_shutdown_time("127.0.0.1:0");
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}

#[test]
fn idle_wildcard_server_stops_promptly() {
    // The acceptor's wake connect must reach a `0.0.0.0` listener through
    // loopback.
    let took = idle_shutdown_time("0.0.0.0:0");
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}

#[test]
fn warm_start_serves_bit_identical_estimates_without_compiling() {
    let dir = std::env::temp_dir().join(format!("swact-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let body = r#"{"circuit":"c17","p1":[0.2,0.4,0.6,0.8,0.35]}"#;

    // First server lifetime: compile once, persist the artifact.
    let cold = start_server_with(ClientTable::default(), Some(dir.clone()));
    let cold_addr = cold.local_addr();
    let first = call(cold_addr, &post("/v1/estimate", None, body));
    assert_eq!(first.status, 200);
    let cold_metrics = cold.engine_metrics();
    assert_eq!(cold_metrics.artifacts_persisted, 1);
    cold.handle().shutdown();
    cold.wait();

    // Second lifetime (fresh engine = fresh process stand-in): healthz
    // reports warming until the pre-warm scan finishes, then the same
    // request is served from the loaded artifact with zero compiles.
    let warm = start_server_with(ClientTable::default(), Some(dir.clone()));
    let warm_addr = warm.local_addr();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let health = call(warm_addr, &get("/healthz"));
        if health.status == 200 {
            break;
        }
        assert_eq!(health.status, 503);
        assert_eq!(health.body, "{\"status\":\"warming\"}");
        assert!(
            std::time::Instant::now() < deadline,
            "pre-warm never finished"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let second = call(warm_addr, &post("/v1/estimate", None, body));
    assert_eq!(second.status, 200);
    assert_eq!(
        second.body, first.body,
        "warm-start responses must be byte-identical"
    );
    let warm_metrics = warm.engine_metrics();
    assert_eq!(warm_metrics.artifacts_loaded, 1);
    assert_eq!(
        warm_metrics.compile_misses, 0,
        "warm start must not compile"
    );

    // The artifact counters surface on /metrics for operators.
    let metrics = call(warm_addr, &get("/metrics"));
    assert!(metrics.body.contains("swact_engine_artifacts_loaded 1\n"));

    warm.handle().shutdown();
    warm.wait();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

//! swact-serve: a networked switching-activity inference service.
//!
//! Wraps a [`swact_engine::Engine`] in a small HTTP/1.1 + JSON server
//! built entirely on `std::net` (the workspace is vendored/offline — no
//! async runtime, no HTTP framework). The service turns the engine's
//! compile-once/propagate-many economics into a long-running process:
//! compiled junction trees stay cached across requests, so the steady
//! state is pure propagation.
//!
//! # Endpoints
//!
//! | Endpoint                | Body | Response |
//! |-------------------------|------|----------|
//! | `POST /v1/estimate`     | one circuit + input spec | the full [`Estimate`](swact::Estimate) as JSON |
//! | `POST /v1/batch`        | one circuit + N scenarios | per-scenario results in submission order |
//! | `POST /v1/sweep`        | one circuit + N scenarios | chunked stream: one JSON line per scenario |
//! | `GET /metrics`          | — | Prometheus text: engine + server counters |
//! | `GET /healthz`          | — | `200` serving / `503` draining |
//! | `POST /admin/shutdown`  | — | `202`, then graceful drain |
//!
//! # Admission control
//!
//! Clients identify with `X-Swact-Client`; each token maps to an
//! in-flight quota and a resource [`Budget`](swact::Budget) (see
//! [`admission`]). Over-quota requests get `429`; engine failures map to
//! typed statuses (`504` deadline, `422` budget, `500` panic) with
//! structured JSON error bodies — see [`error_status`].
//!
//! # Determinism
//!
//! Responses are byte-deterministic for a given engine state: floats are
//! encoded shortest-round-trip ([`swact::wire`]), object keys have fixed
//! order, and batch items come back in submission order. A client
//! parsing the JSON recovers the exact bits a direct [`Engine`] call
//! produces.

#![deny(clippy::unwrap_used)]

pub mod admission;
pub mod http;
pub mod json;
pub mod metrics;

mod signal;

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use swact::{wire, EstimateError, InputModel, InputSpec, Options};
use swact_circuit::{catalog, Circuit};
use swact_engine::{Engine, ShutdownMode};

use admission::ClientTable;
use http::{ChunkedWriter, HttpError, Request};
use json::Value;
use metrics::{classify, Endpoint, ServerMetrics};

pub use admission::{AdmissionGuard, ClientPolicy};
pub use signal::install_signal_handler;

/// How a [`Server`] is built.
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks an ephemeral
    /// port — read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Engine worker threads (`0` = one per CPU).
    pub jobs: usize,
    /// Connection-handler threads.
    pub handlers: usize,
    /// Per-client admission policies.
    pub clients: ClientTable,
    /// How long a graceful shutdown waits for in-flight work before
    /// cancelling whatever is still queued in the engine.
    pub drain: Duration,
    /// Disk tier for compiled models: the engine consults this directory
    /// before compiling and persists fresh compiles back, and the server
    /// pre-warms from it at boot (`/healthz` answers `503 warming` until
    /// the scan finishes). `None` keeps the cache memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            jobs: 0,
            handlers: 4,
            clients: ClientTable::default(),
            drain: Duration::from_secs(10),
            cache_dir: None,
        }
    }
}

/// Shared server state: the engine, admission table, counters, and the
/// coordination flags the acceptor/handlers/shutdown paths agree on.
struct Inner {
    engine: Engine,
    clients: ClientTable,
    metrics: ServerMetrics,
    /// Set once by any shutdown trigger (always through
    /// [`Inner::request_stop`]); the acceptor stops accepting and
    /// `/healthz` flips to 503.
    stop: AtomicBool,
    /// A connectable address of the listener: the loopback connect that
    /// wakes the acceptor out of its blocking `accept` goes here.
    wake_addr: SocketAddr,
    /// Cleared until the boot-time artifact pre-warm finishes; `/healthz`
    /// answers `503 warming` while it is unset so orchestrators do not
    /// route traffic at a cold cache. Starts `true` without a cache dir.
    ready: AtomicBool,
    /// Connection-handler thread count — the denominator when deriving
    /// `Retry-After` from backlog.
    handlers: usize,
    /// Connections accepted but not yet picked up by a handler.
    queue: Mutex<VecDeque<TcpStream>>,
    /// Signals handlers when a connection (or shutdown) is ready.
    available: Condvar,
    /// Signals [`Server::wait`] that shutdown has been requested (paired
    /// with the `queue` mutex).
    stopped: Condvar,
}

/// How long one wake connect may take. On loopback it completes or is
/// refused at once; only a full accept backlog makes it wait.
const WAKE_TIMEOUT: Duration = Duration::from_millis(200);

impl Inner {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<TcpStream>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one shutdown path: sets `stop`, wakes the acceptor, and
    /// notifies the handlers and [`Server::wait`]. Idempotent; must not be
    /// called with the queue lock held.
    fn request_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.wake_acceptor();
        // Taking the lock orders this notify after any waiter's check of
        // `stop`, so no waiter can miss it.
        drop(self.lock_queue());
        self.available.notify_all();
        self.stopped.notify_all();
    }

    /// Unblocks the acceptor's `accept` with one loopback connect, which
    /// the acceptor drops once it sees `stop`. Returns whether the connect
    /// succeeded; a failure (refused, full backlog, no free descriptor)
    /// leaves the retry to [`Server::wait`].
    fn wake_acceptor(&self) -> bool {
        TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT).is_ok()
    }

    /// Blocks until some trigger has called [`Inner::request_stop`].
    fn wait_for_stop(&self) {
        let mut queue = self.lock_queue();
        while !self.stopping() {
            queue = self
                .stopped
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The address a local connect reaches `local` at: an unspecified bind
/// address (`0.0.0.0`, `[::]`) maps to the loopback of the same family.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// A running service instance.
///
/// [`Server::start`] spawns the acceptor and handler threads and returns
/// immediately; [`Server::wait`] blocks until the server has shut down
/// (via [`ServerHandle::shutdown`], `POST /admin/shutdown`, or an
/// installed signal handler). Dropping the server also shuts it down.
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    drain: Duration,
    acceptor: Option<std::thread::JoinHandle<()>>,
    handlers: Vec<std::thread::JoinHandle<()>>,
}

/// A cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Triggers a graceful shutdown (idempotent; returns after one
    /// loopback connect that wakes the acceptor).
    pub fn shutdown(&self) {
        self.inner.request_stop();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.stopping()
    }

    /// A point-in-time copy of the engine's counters (usable after the
    /// server itself has been consumed by [`Server::wait`]).
    pub fn engine_metrics(&self) -> swact_engine::MetricsSnapshot {
        self.inner.engine.metrics()
    }
}

impl Server {
    /// Binds the listener, spins up the engine and thread pools, and
    /// starts serving.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        // A blocking listener: the acceptor sleeps in `accept` and
        // `request_stop` wakes it with a loopback connect, so no request
        // waits on a poll interval.
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let mut engine = match config.jobs {
            0 => Engine::new(),
            n => Engine::with_jobs(n),
        };
        if let Some(dir) = &config.cache_dir {
            engine = engine.with_cache_dir(dir);
        }
        let warm_start = config.cache_dir.is_some();
        let inner = Arc::new(Inner {
            engine,
            clients: config.clients,
            metrics: ServerMetrics::default(),
            stop: AtomicBool::new(false),
            wake_addr: wake_addr(local_addr),
            ready: AtomicBool::new(!warm_start),
            handlers: config.handlers.max(1),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stopped: Condvar::new(),
        });

        if warm_start {
            // Pre-warm off the startup path: the listener is live (so
            // `/healthz` can answer `warming`), but readiness flips only
            // once every persisted model is in the memory tier.
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                inner.engine.prewarm();
                inner.ready.store(true, Ordering::SeqCst);
            });
        }

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&listener, &inner))
        };
        let handlers = (0..config.handlers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || handler_loop(&inner))
            })
            .collect();

        Ok(Server {
            inner,
            local_addr,
            drain: config.drain,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A remote control usable from other threads (and the signal path).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// A point-in-time copy of the engine's counters.
    pub fn engine_metrics(&self) -> swact_engine::MetricsSnapshot {
        self.inner.engine.metrics()
    }

    /// Blocks until the server shuts down, then drains: stops accepting,
    /// waits up to the configured drain deadline for in-flight requests,
    /// cancels any engine work still queued past the deadline, and joins
    /// every thread.
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return; // already joined
        };
        self.inner.wait_for_stop();
        // `request_stop` has woken the acceptor once; should that connect
        // have failed, keep waking it until it has gone.
        while !acceptor.is_finished() && !self.inner.wake_acceptor() {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = acceptor.join();

        // Drain phase: give in-flight connections until the deadline,
        // then cancel queued engine jobs so handlers come home fast.
        let deadline = Instant::now() + self.drain;
        loop {
            let idle =
                self.inner.lock_queue().is_empty() && self.inner.clients.total_in_flight() == 0;
            if idle {
                break;
            }
            if Instant::now() >= deadline {
                self.inner.engine.shutdown(ShutdownMode::CancelQueued);
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.inner.available.notify_all();
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
        // Idempotent if the deadline path already cancelled.
        self.inner.engine.shutdown(ShutdownMode::Drain);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.request_stop();
        self.join_all();
    }
}

/// Accepts connections until shutdown, pushing them to the handler queue.
/// Blocks in `accept`; [`Inner::request_stop`] wakes it with a connect.
fn accept_loop(listener: &TcpListener, inner: &Inner) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let mut queue = inner.lock_queue();
                // Checked under the queue lock: a handler that saw `stop`
                // with an empty queue has exited, so nothing may be queued
                // after it. The stream (the wake connect, or a late
                // client) is dropped.
                if inner.stopping() {
                    return;
                }
                inner.metrics.connection_accepted();
                queue.push_back(stream);
                drop(queue);
                inner.available.notify_one();
            }
            Err(_) if inner.stopping() => return,
            // Transient accept errors (EMFILE, aborted handshake): keep
            // serving; the alternative is taking the whole service down.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Pops connections and serves them until shutdown *and* queue empty.
/// The 50 ms wait tick is also where a SIGINT/SIGTERM (which only sets a
/// flag) turns into [`Inner::request_stop`].
fn handler_loop(inner: &Inner) {
    loop {
        let stream = {
            let mut queue = inner.lock_queue();
            loop {
                // Ahead of the pop, so a signal is noticed under load too.
                if signal::signalled() && !inner.stopping() {
                    break None;
                }
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if inner.stopping() {
                    break None;
                }
                queue = inner
                    .available
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        match stream {
            Some(mut stream) => handle_connection(inner, &mut stream),
            None if inner.stopping() => return,
            None => inner.request_stop(), // a signal arrived: drain
        }
    }
}

/// A reader that counts the bytes it passes on, so a connection closed
/// before sending anything is not taken for a truncated request.
struct Counting<'a> {
    stream: &'a mut TcpStream,
    bytes: usize,
}

impl Read for Counting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes += n;
        Ok(n)
    }
}

/// One request-response exchange (connections are `Connection: close`).
fn handle_connection(inner: &Inner, stream: &mut TcpStream) {
    // A peer that connects and goes silent must not pin a handler.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut counting = Counting { stream, bytes: 0 };
    let read = http::read_request(&mut counting);
    let received = counting.bytes > 0;
    let request = match read {
        Ok(request) => request,
        Err(e) => {
            // A malformed head, or a request the stream ended inside of,
            // is a client error: answer 400 and count it on the unrouted
            // endpoint. A connection that sent nothing, timed out or was
            // reset leaves no request to count and no one to answer.
            let message = match e {
                HttpError::BadRequest(message) => message,
                HttpError::Io(e) if received && e.kind() == io::ErrorKind::UnexpectedEof => {
                    "request ended before its head or body was complete".to_string()
                }
                HttpError::Io(_) => return,
            };
            inner.metrics.request_started(Endpoint::Other);
            let started = Instant::now();
            let status = respond_error(stream, 400, "bad_request", &message).unwrap_or(0);
            inner
                .metrics
                .request_finished(Endpoint::Other, status, started.elapsed());
            return;
        }
    };

    let endpoint = classify(&request.method, &request.path);
    inner.metrics.request_started(endpoint);
    let started = Instant::now();
    let status = route(inner, stream, endpoint, &request).unwrap_or(0);
    inner
        .metrics
        .request_finished(endpoint, status, started.elapsed());
}

/// Dispatches one request; returns the response status for accounting
/// (`Err` means the socket died mid-response).
fn route(
    inner: &Inner,
    stream: &mut TcpStream,
    endpoint: Endpoint,
    request: &Request,
) -> io::Result<u16> {
    match endpoint {
        Endpoint::Healthz => {
            if inner.stopping() {
                respond_json(stream, 503, "{\"status\":\"draining\"}")
            } else if !inner.ready.load(Ordering::SeqCst) {
                respond_json(stream, 503, "{\"status\":\"warming\"}")
            } else {
                respond_json(stream, 200, "{\"status\":\"ok\"}")
            }
        }
        Endpoint::Metrics => {
            let body = inner.metrics.render_prometheus(&inner.engine.metrics());
            http::write_response(
                stream,
                200,
                "text/plain; version=0.0.4",
                body.as_bytes(),
                &[],
            )?;
            Ok(200)
        }
        Endpoint::Shutdown => {
            inner.request_stop();
            respond_json(stream, 202, "{\"status\":\"shutting-down\"}")
        }
        Endpoint::Estimate | Endpoint::Batch | Endpoint::Sweep => {
            if inner.stopping() {
                return respond_error(stream, 503, "draining", "server is shutting down");
            }
            let token = request.header("x-swact-client");
            let guard = match inner.clients.try_admit(token) {
                Ok(guard) => guard,
                Err(_policy) => {
                    inner.metrics.throttled();
                    let queued = inner.lock_queue().len();
                    let backoff = retry_after_seconds(
                        queued,
                        inner.clients.total_in_flight(),
                        inner.handlers,
                    );
                    http::write_response(
                        stream,
                        429,
                        "application/json",
                        error_body("over_quota", "client in-flight quota exhausted").as_bytes(),
                        &[("Retry-After", backoff.to_string())],
                    )?;
                    return Ok(429);
                }
            };
            match parse_inference_request(request, endpoint) {
                Ok(parsed) => serve_inference(inner, stream, endpoint, &parsed, &guard),
                Err((status, code, message)) => respond_error(stream, status, code, &message),
            }
        }
        Endpoint::Other => respond_error(
            stream,
            404,
            "not_found",
            &format!("no route for {} {}", request.method, request.path),
        ),
    }
}

/// A validated inference request: the circuit plus one spec per scenario.
struct InferenceRequest {
    circuit: Circuit,
    scenarios: Vec<InputSpec>,
}

type RequestError = (u16, &'static str, String);

fn bad(code: &'static str, message: impl Into<String>) -> RequestError {
    (400, code, message.into())
}

/// Parses and validates an estimate/batch/sweep body.
///
/// ```json
/// {
///   "circuit": "c17",              // catalog name, or
///   "bench": "INPUT(a) ...",       // inline ISCAS-85 netlist
///   "p1": [0.5, ...],              // estimate: one spec inline
///   "activity": [0.4, ...],        // optional, with "p1"
///   "scenarios": [{"p1": [...]}]   // batch/sweep: many specs
/// }
/// ```
fn parse_inference_request(
    request: &Request,
    endpoint: Endpoint,
) -> Result<InferenceRequest, RequestError> {
    let body = request
        .body_utf8()
        .map_err(|e| bad("bad_request", e.to_string()))?;
    let doc = json::parse(body).map_err(|e| bad("bad_json", e.to_string()))?;

    let circuit = match (doc.get("circuit"), doc.get("bench")) {
        (Some(name), None) => {
            let name = name
                .as_str()
                .ok_or_else(|| bad("bad_request", "`circuit` must be a string"))?;
            catalog::benchmark(name).ok_or_else(|| {
                (
                    404,
                    "unknown_circuit",
                    format!("`{name}` is not a catalog benchmark"),
                )
            })?
        }
        (None, Some(bench)) => {
            let source = bench
                .as_str()
                .ok_or_else(|| bad("bad_request", "`bench` must be a string"))?;
            swact_circuit::parse::parse_bench("inline", source)
                .map_err(|e| bad("bad_netlist", e.to_string()))?
        }
        _ => {
            return Err(bad(
                "bad_request",
                "body must have exactly one of `circuit` (catalog name) or `bench` (netlist)",
            ));
        }
    };

    let scenarios = match endpoint {
        Endpoint::Estimate => vec![parse_spec(&doc, &circuit)?],
        _ => {
            let list = doc
                .get("scenarios")
                .and_then(Value::as_array)
                .ok_or_else(|| bad("bad_request", "`scenarios` must be an array"))?;
            if list.is_empty() {
                return Err(bad("bad_request", "`scenarios` must not be empty"));
            }
            list.iter()
                .map(|s| parse_spec(s, &circuit))
                .collect::<Result<_, _>>()?
        }
    };

    Ok(InferenceRequest { circuit, scenarios })
}

/// One input spec: `{"p1": [...]}` with optional matching `"activity"`;
/// no `p1` at all means uniform inputs. Every input's model goes through
/// the fallible [`InputModel::new`] (activity `2·p1·(1−p1)` when absent), so
/// an out-of-range probability is a `400`, never a panic.
fn parse_spec(v: &Value, circuit: &Circuit) -> Result<InputSpec, RequestError> {
    let Some(p1) = v.get("p1") else {
        return Ok(InputSpec::uniform(circuit.num_inputs()));
    };
    let p1: Vec<f64> = p1
        .as_array()
        .ok_or_else(|| bad("bad_request", "`p1` must be an array of probabilities"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| bad("bad_request", "`p1` entries must be numbers"))
        })
        .collect::<Result<_, _>>()?;
    let activity: Vec<f64> = match v.get("activity") {
        None => p1.iter().map(|p| 2.0 * p * (1.0 - p)).collect(),
        Some(activity) => activity
            .as_array()
            .ok_or_else(|| bad("bad_request", "`activity` must be an array"))?
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| bad("bad_request", "`activity` entries must be numbers"))
            })
            .collect::<Result<_, _>>()?,
    };
    if activity.len() != p1.len() {
        return Err(bad("bad_request", "`activity` must match `p1` in length"));
    }
    let models = p1
        .iter()
        .zip(&activity)
        .map(|(&p, &a)| InputModel::new(p, a))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| bad("bad_request", e.to_string()))?;
    Ok(InputSpec::from_models(models))
}

/// Runs the engine and writes the endpoint-appropriate response.
fn serve_inference(
    inner: &Inner,
    stream: &mut TcpStream,
    endpoint: Endpoint,
    parsed: &InferenceRequest,
    guard: &AdmissionGuard,
) -> io::Result<u16> {
    let options = Options {
        budget: guard.budget(),
        ..Options::default()
    };
    match endpoint {
        Endpoint::Estimate => {
            let report =
                match inner
                    .engine
                    .estimate_batch(&parsed.circuit, &parsed.scenarios, &options)
                {
                    Ok(report) => report,
                    Err(e) => return respond_estimate_error(stream, &e),
                };
            match &report.items[0].result {
                Ok(estimate) => {
                    respond_json(stream, 200, &wire::estimate_json(estimate, &parsed.circuit))
                }
                Err(e) => respond_estimate_error(stream, e),
            }
        }
        Endpoint::Batch => {
            let report =
                match inner
                    .engine
                    .estimate_batch(&parsed.circuit, &parsed.scenarios, &options)
                {
                    Ok(report) => report,
                    Err(e) => return respond_estimate_error(stream, &e),
                };
            let mut body = format!(
                "{{\"circuit\":\"{}\",\"cache_hit\":{},\"items\":[",
                wire::escape(parsed.circuit.name()),
                report.cache_hit
            );
            for (i, item) in report.items.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                match &item.result {
                    Ok(estimate) => {
                        body.push_str(&format!(
                            "{{\"index\":{i},\"ok\":{}}}",
                            wire::estimate_json(estimate, &parsed.circuit)
                        ));
                    }
                    Err(e) => {
                        let (_, code) = error_status(e);
                        body.push_str(&format!(
                            "{{\"index\":{i},\"error\":{{\"code\":\"{code}\",\"message\":\"{}\"}}}}",
                            wire::escape(&e.to_string())
                        ));
                    }
                }
            }
            body.push_str("]}");
            respond_json(stream, 200, &body)
        }
        Endpoint::Sweep => serve_sweep(inner, stream, parsed, &options),
        _ => unreachable!("serve_inference is only called for inference endpoints"),
    }
}

/// Streams a sweep: scenarios run one at a time (sharing the engine's
/// compiled-model cache and the model's segment memos, so later
/// scenarios reuse earlier propagation work), each emitted as one
/// JSON line in its own chunk the moment it completes.
fn serve_sweep(
    inner: &Inner,
    stream: &mut TcpStream,
    parsed: &InferenceRequest,
    options: &Options,
) -> io::Result<u16> {
    // Run scenario 0 *before* committing to a 200 chunked response:
    // compile-stage failures (bad budget, unsupported backend) become
    // proper error statuses instead of a mid-stream abort.
    let first = match inner
        .engine
        .estimate_batch(&parsed.circuit, &parsed.scenarios[..1], options)
    {
        Ok(report) => report,
        Err(e) => return respond_estimate_error(stream, &e),
    };

    let mut writer = ChunkedWriter::start(stream, 200, "application/x-ndjson")?;
    writer.chunk(sweep_line(0, &first.items[0].result, &parsed.circuit).as_bytes())?;
    for (index, spec) in parsed.scenarios.iter().enumerate().skip(1) {
        let result =
            match inner
                .engine
                .estimate_batch(&parsed.circuit, std::slice::from_ref(spec), options)
            {
                Ok(report) => report
                    .items
                    .into_iter()
                    .next()
                    .map(|item| item.result)
                    .unwrap_or(Err(EstimateError::Cancelled)),
                Err(e) => Err(e),
            };
        writer.chunk(sweep_line(index, &result, &parsed.circuit).as_bytes())?;
    }
    writer.finish()?;
    Ok(200)
}

/// One NDJSON line of a sweep stream.
fn sweep_line(
    index: usize,
    result: &Result<swact::Estimate, EstimateError>,
    circuit: &Circuit,
) -> String {
    match result {
        Ok(estimate) => format!(
            "{{\"index\":{index},\"ok\":{}}}\n",
            wire::estimate_json(estimate, circuit)
        ),
        Err(e) => {
            let (_, code) = error_status(e);
            format!(
                "{{\"index\":{index},\"error\":{{\"code\":\"{code}\",\"message\":\"{}\"}}}}\n",
                wire::escape(&e.to_string())
            )
        }
    }
}

/// Seconds an over-quota client should wait before retrying, derived from
/// the server's actual backlog: queued connections plus requests in
/// flight, divided by the handler threads that drain them — i.e. roughly
/// how many "rounds" of service stand between the client and a free slot.
/// Deterministic in its inputs, at least 1 (the client *is* over quota,
/// so "now" is never the answer), clamped to 30 so a transient spike
/// never advises a multi-minute backoff.
fn retry_after_seconds(queued: usize, in_flight: usize, handlers: usize) -> u64 {
    (1 + (queued + in_flight) as u64 / handlers.max(1) as u64).min(30)
}

/// Maps an [`EstimateError`] to its HTTP status and stable error code.
///
/// | Error | Status |
/// |-------|--------|
/// | `DeadlineExceeded` | `504` |
/// | `BudgetExceeded`, `TooLarge`, `CorrelationBlowup` | `422` |
/// | `Panicked` | `500` |
/// | `Cancelled` | `503` |
/// | everything else (malformed specs, circuit errors) | `400` |
pub fn error_status(e: &EstimateError) -> (u16, &'static str) {
    match e {
        EstimateError::DeadlineExceeded { .. } => (504, "deadline_exceeded"),
        EstimateError::BudgetExceeded { .. } => (422, "budget_exceeded"),
        EstimateError::TooLarge { .. } => (422, "too_large"),
        EstimateError::CorrelationBlowup { .. } => (422, "correlation_blowup"),
        EstimateError::Panicked { .. } => (500, "panicked"),
        EstimateError::Cancelled => (503, "cancelled"),
        _ => (400, "invalid_request"),
    }
}

fn error_body(code: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"code\":\"{code}\",\"message\":\"{}\"}}}}",
        wire::escape(message)
    )
}

fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<u16> {
    http::write_response(stream, status, "application/json", body.as_bytes(), &[])?;
    Ok(status)
}

fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    code: &str,
    message: &str,
) -> io::Result<u16> {
    respond_json(stream, status, &error_body(code, message))
}

fn respond_estimate_error(stream: &mut TcpStream, e: &EstimateError) -> io::Result<u16> {
    let (status, code) = error_status(e);
    respond_error(stream, status, code, &e.to_string())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn error_statuses_follow_the_documented_table() {
        assert_eq!(
            error_status(&EstimateError::DeadlineExceeded {
                stage: "queue",
                deadline: Duration::from_secs(1),
            }),
            (504, "deadline_exceeded")
        );
        assert_eq!(
            error_status(&EstimateError::Panicked {
                message: "boom".into()
            })
            .0,
            500
        );
        assert_eq!(error_status(&EstimateError::Cancelled).0, 503);
        assert_eq!(error_status(&EstimateError::GroupStructureMismatch).0, 400);
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = ServerConfig::default();
        assert_eq!(config.addr, "127.0.0.1:7878");
        assert!(config.handlers >= 1);
        assert!(config.drain > Duration::ZERO);
        assert!(config.cache_dir.is_none());
    }

    #[test]
    fn retry_after_tracks_backlog() {
        // Idle server: retry immediately-ish, never 0.
        assert_eq!(retry_after_seconds(0, 0, 4), 1);
        // Light load still rounds down to the minimum.
        assert_eq!(retry_after_seconds(1, 2, 4), 1);
        // Saturated: backlog many rounds deep scales the advice.
        assert_eq!(retry_after_seconds(20, 20, 4), 11);
        // Clamped: a huge spike never advises more than 30 s.
        assert_eq!(retry_after_seconds(10_000, 0, 4), 30);
        // A zero handler count must not divide by zero.
        assert_eq!(retry_after_seconds(5, 0, 0), 6);
    }

    #[test]
    fn unspecified_bind_addresses_wake_through_loopback() {
        let wake = |addr: &str| wake_addr(addr.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7878"), "127.0.0.1:7878");
        assert_eq!(wake("[::]:7878"), "[::1]:7878");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
    }

    #[test]
    fn a_signal_stops_an_idle_server() {
        let _lock = signal::FLAG_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            handlers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let (done, stopped) = std::sync::mpsc::channel();
        let started = Instant::now();
        signal::raise_for_test();
        let waiter = std::thread::spawn(move || {
            server.wait();
            let _ = done.send(());
        });
        let outcome = stopped.recv_timeout(Duration::from_secs(5));
        let took = started.elapsed();
        signal::clear_for_test();
        assert!(outcome.is_ok(), "server ignored the signal");
        waiter.join().unwrap();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    }
}

//! The `serve` workload: `POST /v1/estimate` over loopback to a release
//! `swact serve` child process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use swact::{wire, CompiledEstimator, InputSpec, Options};
use swact_circuit::{parse::parse_bench, write::to_bench, Circuit};

use crate::inputs::{self, Rng, SERVE_SHAPES};
use crate::library::{self, ms, CompileStats, Plan};
use crate::metrics::{peak_rss_mb, Outcome};
use crate::stats::{median, window_rate, Fnv};
use crate::trace::Tracer;

/// Open-loop arrival rate, requests per second.
/// Light enough that requests seldom overlap, so latency shows the cost of
/// one request rather than how 7 server and client threads share 2 cores
/// (at 40 req/s the p50 moved 17% between runs, the tail 40%). The closed
/// loop covers saturation.
const RATE: f64 = 20.0;
/// Lengths of the open and closed loops as shares of `--seconds`. The open
/// loop gives the bounded `op_median_ms`, so it gets most of the run: the
/// host's slow spells last seconds, and a longer loop averages more of
/// them. The closed loop's rate is printed but not bounded.
const OPEN_SHARE: f64 = 1.5;
const CLOSED_SHARE: f64 = 0.25;
/// Client threads, and so connections open at once: no more than the 2
/// cores the benchmark is sized for.
const CLIENTS: usize = 2;
/// Open-loop responses whose `lines` are checked against direct calls.
const CHECKED: usize = 32;

/// One HTTP exchange as the client saw it.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub connect: Duration,
    /// From the request's last byte written to the response's first byte.
    pub ttfb: Duration,
    /// From connect start to the response's first byte.
    pub first_byte: Duration,
    pub total: Duration,
}

/// Splits a raw HTTP/1.1 response into status code and body.
pub fn parse_response(raw: &[u8]) -> Result<(u16, &[u8]), String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "header is not UTF-8")?;
    let status_line = head.lines().next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    match (parts.next(), parts.next().map(str::parse::<u16>)) {
        (Some(version), Some(Ok(code))) if version.starts_with("HTTP/1.") => {
            Ok((code, &raw[head_end + 4..]))
        }
        _ => Err(format!("bad status line `{status_line}`")),
    }
}

/// The `"lines":[…]` member of an estimate response, which must match a
/// direct library call byte for byte. (The rest of the response carries
/// reuse counters that depend on what the server estimated before.)
pub fn lines_field(json: &str) -> Option<&str> {
    let start = json.find("\"lines\":")?;
    let end = start + json[start..].find(",\"degradations\":")?;
    Some(&json[start..end])
}

/// Sends one request on a fresh connection and reads the whole response
/// (the server closes every connection after its response).
fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect = start.elapsed();
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(request)?;
    let sent = Instant::now();
    let mut raw = Vec::new();
    let mut first = [0u8; 1];
    stream.read_exact(&mut first)?;
    let ttfb = sent.elapsed();
    let first_byte = start.elapsed();
    raw.push(first[0]);
    stream.read_to_end(&mut raw)?;
    let total = start.elapsed();
    let (status, body) = parse_response(&raw)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(Reply {
        status,
        body: body.to_vec(),
        connect,
        ttfb,
        first_byte,
        total,
    })
}

fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `swact serve` child; killed and reaped on drop unless shut down.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn boot(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                "2",
                "--handlers",
                "2",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start `{}`: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        let addr = rest.split_whitespace().next().unwrap_or_default();
                        break addr.parse::<SocketAddr>().ok();
                    }
                }
                _ => break None,
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        let mut server = Server {
            child,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            stderr: Some(stderr),
        };
        if addr.is_none() {
            return Err("server did not report its address".to_string());
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match exchange(server.addr, &request("GET", "/healthz", "")) {
                Ok(reply) if reply.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => {
                    server.kill();
                    return Err("server never became healthy".to_string());
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    fn metrics(&self) -> Result<String, String> {
        let reply = exchange(self.addr, &request("GET", "/metrics", ""))
            .map_err(|e| format!("GET /metrics: {e}"))?;
        String::from_utf8(reply.body).map_err(|_| "metrics are not UTF-8".to_string())
    }

    /// Graceful shutdown, falling back to a kill after ten seconds.
    fn shutdown(mut self) {
        let _ = exchange(self.addr, &request("POST", "/admin/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill();
    }

    fn kill(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Value of the Prometheus sample named exactly `name` (labels included).
pub fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Counter deltas between two `/metrics` scrapes.
struct Delta<'a> {
    before: &'a str,
    after: &'a str,
}

impl Delta<'_> {
    fn get(&self, name: &str) -> f64 {
        prom(self.after, name) - prom(self.before, name)
    }
}

/// A served circuit: its netlist as sent, and the circuit the server
/// parses from it.
struct Served {
    bench_json: String,
    circuit: Circuit,
}

fn body(served: &Served, p1s: &[f64]) -> String {
    let p1s: Vec<String> = p1s.iter().map(|p| format!("{p:?}")).collect();
    format!(
        "{{\"bench\":\"{}\",\"p1\":[{}]}}",
        served.bench_json,
        p1s.join(",")
    )
}

/// One open-loop request as measured.
struct Sent {
    index: usize,
    reply: Result<Reply, String>,
    late: Duration,
    from_due: Duration,
}

pub fn serve(plan: &Plan, server_bin: &Path) -> Result<Outcome, String> {
    let served: Vec<Served> = SERVE_SHAPES
        .iter()
        .map(|shape| {
            let text = to_bench(&inputs::circuit(shape, plan.seed, 0));
            let circuit = parse_bench("inline", &text).expect("written netlists parse");
            Served {
                bench_json: wire::escape(&text),
                circuit,
            }
        })
        .collect();
    let draw = |tag: &str, i: usize| {
        let s = &served[i % served.len()];
        let p1s = inputs::random_p1s(
            &mut Rng::derive(plan.seed, tag, i as u64),
            s.circuit.num_inputs(),
        );
        (i % served.len(), p1s)
    };

    // Set-up: boot to healthy, then one compiling request per circuit.
    let mut setup = Vec::new();
    let mut server = None;
    let mut after_warmup = String::new();
    for _ in 0..plan.setup_reps(5) {
        if let Some(old) = server.take() {
            Server::shutdown(old);
        }
        let start = Instant::now();
        let s = Server::boot(server_bin)?;
        for (k, c) in served.iter().enumerate() {
            let (_, p1s) = draw("warmup", k);
            let reply = exchange(s.addr, &request("POST", "/v1/estimate", &body(c, &p1s)))
                .map_err(|e| format!("warm-up request: {e}"))?;
            if reply.status != 200 {
                return Err(format!("warm-up request answered {}", reply.status));
            }
        }
        setup.push(start.elapsed().as_secs_f64());
        after_warmup = s.metrics()?;
        server = Some(s);
    }
    let server = server.expect("at least one set-up repetition");

    // Open loop: seeded Poisson arrivals, each timed from its due time.
    let n = plan.ops(RATE * OPEN_SHARE, 20);
    let due = inputs::poisson_arrivals(&mut Rng::derive(plan.seed, "arrivals", 0), RATE, n);
    let requests: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let (k, p1s) = draw("open", i);
            request("POST", "/v1/estimate", &body(&served[k], &p1s))
        })
        .collect();
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let (mut sent, tracers): (Vec<Sent>, Vec<Tracer>) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut tracer = Tracer::new(origin);
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let due_at = origin + Duration::from_secs_f64(due[i]);
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        tracer.set_enabled(plan.trace && i % 2 == 1);
                        let start = Instant::now();
                        let reply = exchange(server.addr, &requests[i]).map_err(|e| e.to_string());
                        let end = Instant::now();
                        if let Ok(r) = &reply {
                            let op = tracer.record("op", i as u64, None, start, end);
                            let (connected, first_byte) = (start + r.connect, start + r.first_byte);
                            tracer.record("connect", i as u64, op, start, connected);
                            tracer.record("wait", i as u64, op, connected, first_byte);
                            tracer.record("read", i as u64, op, first_byte, start + r.total);
                        }
                        mine.push(Sent {
                            index: i,
                            reply,
                            late: start.saturating_duration_since(due_at),
                            from_due: end.saturating_duration_since(due_at),
                        });
                    }
                    (mine, tracer)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut tracers = Vec::new();
        for w in workers {
            let (mine, tracer) = w.join().expect("client threads do not panic");
            all.extend(mine);
            tracers.push(tracer);
        }
        (all, tracers)
    });
    sent.sort_by_key(|s| s.index);
    let after_open = server.metrics()?;

    // Closed loop: two clients send back to back; throughput at saturation.
    // The rate climbs for about two seconds after the open loop, so the
    // first seconds are a warm-up and are not counted. A seeded think time
    // of up to 2 ms keeps the clients from locking into one phase against
    // the server's accept loop, which otherwise sets a different rate per
    // run (up to 1.5x apart).
    let warmup = if plan.smoke() { 0.5 } else { 3.0 };
    let closed_for = (plan.seconds * CLOSED_SHARE).max(1.0);
    let next = AtomicUsize::new(0);
    let closed_start = Instant::now();
    let (done, closed_failed) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let (mut done, mut failed) = (Vec::new(), 0u64);
                    while closed_start.elapsed().as_secs_f64() < warmup + closed_for {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (k, p1s) = draw("closed", i);
                        let think = Rng::derive(plan.seed, "think", i as u64).unit() * 2e-3;
                        std::thread::sleep(Duration::from_secs_f64(think));
                        let req = request("POST", "/v1/estimate", &body(&served[k], &p1s));
                        match exchange(server.addr, &req) {
                            Ok(r) if r.status == 200 => done.push((
                                closed_start.elapsed().as_secs_f64() - warmup,
                                served[k].circuit.num_gates() as f64,
                            )),
                            _ => failed += 1,
                        }
                    }
                    (done, failed)
                })
            })
            .collect();
        workers
            .into_iter()
            .fold((Vec::new(), 0), |(mut all, failed), w| {
                let (done, f) = w.join().expect("client threads do not panic");
                all.extend(done);
                (all, failed + f)
            })
    });
    let rss = peak_rss_mb(Some(server.child.id()));
    let after_closed = server.metrics()?;
    server.shutdown();

    let mut out = Outcome {
        attempted: (n + done.len()) as u64 + closed_failed,
        failed: closed_failed,
        ..Outcome::default()
    };
    let mut fnv = Fnv::default();
    let mut latencies = Vec::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for s in &sent {
        match &s.reply {
            Ok(r) if r.status / 100 == 2 => {
                fnv.bytes(
                    lines_field(&String::from_utf8_lossy(&r.body))
                        .unwrap_or("")
                        .as_bytes(),
                );
                // An op's kind is the circuit it serves (`draw`).
                let sample = (s.index % served.len(), ms(s.from_due));
                latencies.push(sample);
                if plan.trace && s.index % 2 == 1 {
                    &mut traced
                } else {
                    &mut untraced
                }
                .push(sample);
            }
            Ok(r) => {
                eprintln!("request {}: status {}", s.index, r.status);
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("request {}: {e}", s.index);
                out.failed += 1;
            }
        }
    }

    // Correctness: a seeded sample of responses must carry exactly the
    // lines a direct library call encodes.
    let compiled: Vec<(CompiledEstimator, CompileStats)> = served
        .iter()
        .map(|s| {
            let c = &s.circuit;
            let ce = CompiledEstimator::compile(c, &Options::default())
                .expect("served circuits compile");
            let first = ce
                .estimate(&InputSpec::uniform(c.num_inputs()))
                .expect("estimates");
            let stats = CompileStats::of(c, &ce, &first);
            (ce, stats)
        })
        .collect();
    let mut pick = Rng::derive(plan.seed, "check", 0);
    for _ in 0..CHECKED.min(sent.len()) {
        let s = &sent[pick.below(sent.len())];
        let Ok(reply) = &s.reply else { continue };
        if reply.status != 200 {
            continue;
        }
        let (k, p1s) = draw("open", s.index);
        let direct = compiled[k]
            .0
            .estimate(&inputs::spec(&p1s))
            .map_err(|e| e.to_string())?;
        let expect = wire::estimate_json(&direct, &served[k].circuit);
        let got = String::from_utf8_lossy(&reply.body);
        if lines_field(&got).is_none() || lines_field(&got) != lines_field(&expect) {
            eprintln!(
                "request {}: served lines differ from a direct call",
                s.index
            );
            out.failed += 1;
        }
    }

    out.set("setup_s", median(&setup));
    let counted: Vec<(f64, f64)> = done.iter().copied().filter(|e| e.0 >= 0.0).collect();
    out.set("gates_per_s", window_rate(&counted, closed_for));
    out.latencies(&latencies);
    out.set("peak_rss_mb", rss);
    out.fnv = fnv.finish();

    // Layers: server counters over the open loop; compile-side layers from
    // the direct compiles of the same netlists.
    let open = Delta {
        before: &after_warmup,
        after: &after_open,
    };
    let stats: Vec<CompileStats> = compiled.into_iter().map(|(_, s)| s).collect();
    library::set_compile_layers(&mut out, &stats, 1.0);
    let requests = open.get("swact_engine_requests_completed").max(1.0);
    let per_req = |name: &str| open.get(name) * 1e3 / requests;
    let (queue, propagate, forward) = (
        per_req("swact_engine_queue_wait_seconds"),
        per_req("swact_engine_propagate_seconds"),
        per_req("swact_engine_forward_seconds"),
    );
    let server_ms = open.get("swact_server_latency_seconds_sum{endpoint=\"estimate\"}") * 1e3
        / open
            .get("swact_server_latency_seconds_count{endpoint=\"estimate\"}")
            .max(1.0);
    let replies: Vec<&Reply> = sent.iter().filter_map(|s| s.reply.as_ref().ok()).collect();
    let client_ms = replies.iter().map(|r| ms(r.total)).sum::<f64>() / replies.len().max(1) as f64;
    out.set("propagate.ms_per_op", propagate);
    out.set("forward.ms_per_op", forward);
    out.set(
        "estimate.other_ms_per_op",
        client_ms - queue - propagate - forward,
    );
    let (reused, recomputed) = (
        open.get("swact_engine_messages_reused"),
        open.get("swact_engine_messages_recomputed"),
    );
    out.set(
        "reuse.message_ratio",
        if reused + recomputed > 0.0 {
            reused / (reused + recomputed)
        } else {
            0.0
        },
    );
    out.set("reuse.messages_recomputed_per_op", recomputed / requests);
    let segments = stats.iter().map(|s| s.segments as f64).sum::<f64>() / stats.len() as f64;
    out.set(
        "reuse.segment_skip_ratio",
        open.get("swact_engine_segments_skipped") / (requests * segments),
    );
    out.set("engine.queue_wait_ms_per_op", queue);
    out.set(
        "engine.compile_misses",
        Delta {
            before: &after_warmup,
            after: &after_closed,
        }
        .get("swact_engine_compile_misses"),
    );
    out.set(
        "engine.max_queue_depth",
        prom(&after_closed, "swact_engine_max_queue_depth"),
    );
    out.set("serve.server_ms_per_req", server_ms);
    out.set(
        "serve.handler_ms_per_req",
        server_ms - queue - propagate - forward,
    );
    out.set(
        "serve.response_kb_per_req",
        replies.iter().map(|r| r.body.len() as f64).sum::<f64>()
            / 1024.0
            / replies.len().max(1) as f64,
    );
    out.set("client.outside_server_ms_per_req", client_ms - server_ms);
    let each =
        |f: &dyn Fn(&Sent) -> Option<f64>| -> Vec<f64> { sent.iter().filter_map(f).collect() };
    out.set(
        "client.connect_ms_p50",
        median(&each(&|s| s.reply.as_ref().ok().map(|r| ms(r.connect)))),
    );
    out.set(
        "client.ttfb_ms_p50",
        median(&each(&|s| s.reply.as_ref().ok().map(|r| ms(r.ttfb)))),
    );
    let late = each(&|s| Some(ms(s.late)));
    out.set("client.late_ms_p50", median(&late));
    out.set(
        "client.late_ms_max",
        late.iter().copied().fold(0.0, f64::max),
    );

    let mut tracer = Tracer::new(origin);
    tracers.into_iter().for_each(|t| tracer.absorb(t));
    library::finish_trace(plan, &mut out, tracer, (&traced, &untraced), 1.0, || {
        (
            served.iter().map(|s| s.circuit.clone()).collect(),
            stats.clone(),
        )
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_body_parse_from_canned_bytes() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_response(raw), Ok((200, &b"{}"[..])));
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n";
        assert_eq!(parse_response(raw).map(|r| r.0), Ok(429));
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
    }

    #[test]
    fn lines_are_cut_between_their_neighbours() {
        let json = "{\"circuit\":\"x\",\"lines\":[{\"name\":\"a\",\"p1\":0.5}],\"degradations\":[],\"reuse\":{}}";
        assert_eq!(
            lines_field(json),
            Some("\"lines\":[{\"name\":\"a\",\"p1\":0.5}]")
        );
        assert_eq!(lines_field("{\"lines\":[]}"), None);
        // And on a real encoding of a real estimate.
        let c17 = swact_circuit::catalog::c17();
        let est = swact::estimate(&c17, &InputSpec::uniform(5), &Options::default()).unwrap();
        let json = wire::estimate_json(&est, &c17);
        let field = lines_field(&json).unwrap();
        assert_eq!(field.matches("\"name\":").count(), c17.num_lines());
    }

    #[test]
    fn prometheus_samples_match_whole_names() {
        let text = "swact_engine_compile_misses 3\nswact_engine_compile_misses_total 9\n\
                    swact_server_latency_seconds_sum{endpoint=\"estimate\"} 0.25\n";
        assert_eq!(prom(text, "swact_engine_compile_misses"), 3.0);
        assert_eq!(
            prom(
                text,
                "swact_server_latency_seconds_sum{endpoint=\"estimate\"}"
            ),
            0.25
        );
        assert_eq!(prom(text, "absent"), 0.0);
    }
}

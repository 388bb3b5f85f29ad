//! `serve-fresh` and `serve-keepalive`: an in-process `leapme serve`
//! over the batch corpus and model, driven by two closed-loop clients
//! POSTing `/score` with 64 seeded pairs per request.

use crate::fixture::{self, Fnv, Scale, WorkDir};
use crate::report::Report;
use crate::{stats, Ctx};
use leapme::core::cancel::CancelToken;
use leapme::core::feature_cache;
use leapme::core::pipeline::LeapmeModel;
use leapme::core::sampling;
use leapme::data::model::{Dataset, PropertyPair};
use leapme::embedding::store::EmbeddingStore;
use leapme::features::PropertyFeatureStore;
use leapme::serve::{self, handlers, Request, ServeConfig, ServeState, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const PAIRS_PER_REQUEST: usize = 64;
const SETUPS: usize = 5;
/// Replay passes of the traced handler measurement.
const REPLAY_PASSES: usize = 3;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn bodies(scale: Scale) -> usize {
    match scale {
        Scale::Full => 128,
        Scale::Tiny => 8,
    }
}

/// Files `leapme embed`, `generate` and `train` leave for `leapme serve`.
struct Artifacts {
    dataset: std::path::PathBuf,
    embeddings: std::path::PathBuf,
    cache: std::path::PathBuf,
    model: std::path::PathBuf,
}

/// What `leapme serve --model --dataset --embeddings --feature-cache`
/// loads before it binds.
struct Loaded {
    model: LeapmeModel,
    dataset: Dataset,
    embeddings: EmbeddingStore,
    store: PropertyFeatureStore,
}

fn load(a: &Artifacts) -> Result<Loaded, String> {
    let model = LeapmeModel::load(&a.model).map_err(|e| e.to_string())?;
    let json = std::fs::read_to_string(&a.dataset).map_err(|e| e.to_string())?;
    let dataset = Dataset::from_json(&json).map_err(|e| e.to_string())?;
    let mut embeddings = EmbeddingStore::load_text(&a.embeddings).map_err(|e| e.to_string())?;
    embeddings.set_fuzzy_oov(true);
    let (store, status) = feature_cache::load_or_build(
        Some(&a.cache),
        &dataset,
        &embeddings,
        leapme::features::worker_threads(),
        None,
    )
    .map_err(|e| e.to_string())?;
    if status != feature_cache::CacheStatus::Hit {
        return Err(format!("server start missed the feature cache: {status:?}"));
    }
    Ok(Loaded {
        model,
        dataset,
        embeddings,
        store,
    })
}

fn state(l: Loaded) -> Arc<ServeState> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    Arc::new(ServeState::new(
        l.model,
        l.embeddings,
        l.dataset,
        l.store,
        None,
        config,
    ))
}

/// One set-up: corpus, embeddings, fixture training, artifact writes,
/// server start.
fn setup(ctx: &Ctx, work: &WorkDir) -> Result<(Artifacts, Arc<ServeState>, ServerHandle), String> {
    let corpus = fixture::corpus(ctx.scale);
    let a = Artifacts {
        dataset: work.path("dataset.json"),
        embeddings: work.path("vectors.txt"),
        cache: work.path("features.lfc"),
        model: work.path("model.lmp"),
    };
    leapme::data::io::atomic_write(&a.dataset, corpus.dataset.to_json().as_bytes())
        .map_err(|e| e.to_string())?;
    corpus
        .embeddings
        .save_text(&a.embeddings)
        .map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&a.cache);
    // Train from the files, as `leapme train` would read them, so the
    // cache fingerprint matches what the server loads.
    let json = std::fs::read_to_string(&a.dataset).map_err(|e| e.to_string())?;
    let dataset = Dataset::from_json(&json).map_err(|e| e.to_string())?;
    let mut embeddings = EmbeddingStore::load_text(&a.embeddings).map_err(|e| e.to_string())?;
    embeddings.set_fuzzy_oov(true);
    fixture::train_and_save(&dataset, &embeddings, ctx.seed, &a.cache, &a.model)?;
    let state = state(load(&a)?);
    let handle = serve::start(Arc::clone(&state), None).map_err(|e| format!("serve start: {e}"))?;
    Ok((a, state, handle))
}

/// One seeded `/score` request: its body and the bitwise-expected scores.
struct Body {
    pairs: Vec<PropertyPair>,
    json: String,
    expected: Vec<f32>,
}

fn draw_bodies(ctx: &Ctx, dataset: &Dataset) -> Vec<Body> {
    let all = sampling::test_pairs(dataset, &[]);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5C0E);
    (0..bodies(ctx.scale))
        .map(|_| {
            let pairs: Vec<PropertyPair> = (0..PAIRS_PER_REQUEST)
                .map(|_| all[rng.gen_range(0..all.len())].clone())
                .collect();
            let quads: Vec<(u16, String, u16, String)> = pairs
                .iter()
                .map(|PropertyPair(a, b)| (a.source.0, a.name.clone(), b.source.0, b.name.clone()))
                .collect();
            let json = format!(
                "{{\"pairs\":{}}}",
                serde_json::to_string(&quads).expect("pairs serialize")
            );
            Body {
                pairs,
                json,
                expected: Vec::new(),
            }
        })
        .collect()
}

/// A parsed `/score` response.
struct Scored {
    status: u16,
    body: String,
    close: bool,
}

/// Per-request client-side timings (ms).
struct Timing {
    latency_ms: f64,
    connect_ms: Option<f64>,
    ttfb_ms: f64,
    body_ms: f64,
}

/// A closed-loop HTTP/1.1 client on one (fresh or kept-alive) socket.
struct Client {
    addr: SocketAddr,
    keep_alive: bool,
    conn: Option<TcpStream>,
    opened: u64,
}

impl Client {
    fn new(addr: SocketAddr, keep_alive: bool) -> Self {
        Client {
            addr,
            keep_alive,
            conn: None,
            opened: 0,
        }
    }

    fn connect(&mut self) -> Result<(), String> {
        let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        self.conn = Some(s);
        self.opened += 1;
        Ok(())
    }

    /// Send one request and read its response. Latency runs from
    /// connect (fresh) or write (kept-alive) to the last byte.
    fn send(&mut self, raw: &[u8], ctx: &Ctx) -> Result<(Scored, Timing), String> {
        let start = Instant::now();
        let mut connect_ms = None;
        if self.conn.is_none() {
            self.connect()?;
            let done = Instant::now();
            ctx.tracer.record("serve.client.connect", start, done);
            connect_ms = Some((done - start).as_secs_f64() * 1e3);
        }
        let write_at = Instant::now();
        let origin = if self.keep_alive { write_at } else { start };
        let stream = self.conn.as_mut().expect("connected");
        let result = stream
            .write_all(raw)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_response(stream));
        let (scored, first_byte) = match result {
            Ok(r) => r,
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        let end = Instant::now();
        ctx.tracer.record("serve.client.ttfb", write_at, first_byte);
        ctx.tracer.record("serve.client.body", first_byte, end);
        if scored.close || !self.keep_alive {
            self.conn = None;
        }
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        Ok((
            scored,
            Timing {
                latency_ms: ms(origin, end),
                connect_ms,
                ttfb_ms: ms(write_at, first_byte),
                body_ms: ms(first_byte, end),
            },
        ))
    }
}

/// Read one `Content-Length`-framed response; returns it with the
/// arrival time of its first byte.
fn read_response(stream: &mut TcpStream) -> Result<(Scored, Instant), String> {
    let mut buf: Vec<u8> = Vec::with_capacity(8192);
    let mut chunk = [0u8; 8192];
    let mut first_byte = None;
    let head_end = loop {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before the response head".to_string());
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_ascii_lowercase();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let header = |name: &str| {
        head.lines()
            .find_map(|l| l.strip_prefix(name).map(|v| v.trim().to_string()))
    };
    let length: usize = header("content-length:")
        .and_then(|v| v.parse().ok())
        .ok_or("response without content-length")?;
    let close = header("connection:").is_none_or(|v| v != "keep-alive");
    while buf.len() < head_end + length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + length]).into_owned();
    Ok((
        Scored {
            status,
            body,
            close,
        },
        first_byte.expect("read at least one byte"),
    ))
}

/// The `scores` array of a `/score` response body, undegraded.
fn parse_scores(body: &str) -> Result<Vec<f32>, String> {
    if !body.contains("\"degraded\":false") {
        return Err("degraded response".to_string());
    }
    let start = body.find("\"scores\":[").ok_or("no scores")? + "\"scores\":[".len();
    let end = start + body[start..].find(']').ok_or("unterminated scores")?;
    body[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map(|v| v as f32)
                .map_err(|e| format!("score {s:?}: {e}"))
        })
        .collect()
}

fn bitwise_equal(got: &[f32], expected: &[f32]) -> bool {
    got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

fn raw_request(body: &str, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive {
        "connection: keep-alive\r\n"
    } else {
        ""
    };
    format!(
        "POST /score HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n{connection}content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `GET /metrics` counters the run reports as deltas.
const SERVER_COUNTERS: [(&str, &str); 6] = [
    ("admitted", "serve.admitted"),
    ("completed", "serve.completed"),
    ("shed", "serve.shed"),
    ("client_errors", "serve.client_errors"),
    ("disconnects", "serve.disconnects"),
    ("worker_panics", "serve.worker_panics"),
];

fn server_counters(addr: SocketAddr) -> Result<Vec<u64>, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nhost: perfbench\r\n\r\n")
        .map_err(|e| format!("metrics write: {e}"))?;
    let (resp, _) = read_response(&mut s)?;
    if resp.status != 200 {
        return Err(format!("/metrics answered {}", resp.status));
    }
    SERVER_COUNTERS
        .iter()
        .map(|(key, _)| {
            let tag = format!("\"{key}\":");
            let at = resp
                .body
                .find(&tag)
                .ok_or(format!("/metrics lacks {key}"))?
                + tag.len();
            resp.body[at..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("/metrics {key} is not a count"))
        })
        .collect()
}

/// What one closed-loop client measured.
#[derive(Default)]
struct ClientRun {
    timings: Vec<Timing>,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    reconnects: u64,
    errors: Vec<String>,
}

/// Run `CLIENTS` closed-loop clients until `deadline` (or, with
/// `passes`, through the body list that many times) and collect what
/// they saw. Each response is checked bitwise against its body's
/// expected scores.
fn drive(
    ctx: &Ctx,
    addr: SocketAddr,
    bodies: &[Body],
    keep_alive: bool,
    deadline: Option<Instant>,
) -> Vec<ClientRun> {
    let requests: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| raw_request(&b.json, keep_alive))
        .collect();
    let corrupt = ctx.corrupts("serve_bitwise");
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let requests = &requests;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xC11E47 + c as u64));
                    let mut client = Client::new(addr, keep_alive);
                    let mut run = ClientRun::default();
                    let mut next = c;
                    loop {
                        let idx = match deadline {
                            Some(d) if Instant::now() >= d => break,
                            Some(_) => rng.gen_range(0..bodies.len()),
                            // Warm-up: the clients split the body list.
                            None if next >= bodies.len() => break,
                            None => {
                                next += CLIENTS;
                                next - CLIENTS
                            }
                        };
                        run.attempted += 1;
                        match client.send(&requests[idx], ctx) {
                            Ok((scored, timing)) if scored.status == 200 => {
                                let mut expected = bodies[idx].expected.clone();
                                if corrupt {
                                    expected[0] = f32::from_bits(expected[0].to_bits() ^ 1);
                                }
                                match parse_scores(&scored.body) {
                                    Ok(got) if bitwise_equal(&got, &expected) => {}
                                    Ok(_) => run.mismatched += 1,
                                    Err(e) => {
                                        run.mismatched += 1;
                                        run.errors.push(e);
                                    }
                                }
                                run.timings.push(timing);
                            }
                            Ok((scored, _)) => {
                                run.failed += 1;
                                run.errors.push(format!("status {}", scored.status));
                            }
                            Err(e) => {
                                run.failed += 1;
                                run.errors.push(e);
                            }
                        }
                    }
                    run.reconnects = if keep_alive {
                        client.opened.saturating_sub(1)
                    } else {
                        0
                    };
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

pub fn run(ctx: &Ctx, report: &mut Report, keep_alive: bool) -> Result<(), String> {
    let work = WorkDir::create("serve").map_err(|e| format!("work dir: {e}"))?;
    let mut running: Option<(Artifacts, Arc<ServeState>, ServerHandle)> = None;
    for _ in 0..SETUPS {
        if let Some((_, _, handle)) = running.take() {
            handle.shutdown();
            handle.join();
        }
        let t = Instant::now();
        let up = setup(ctx, &work)?;
        report.setup_s.push(t.elapsed().as_secs_f64());
        running = Some(up);
    }
    let (artifacts, state, handle) = running.expect("at least one set-up");
    let addr = handle.addr();

    // Expected scores: in-process `score_pairs` on a separate load of
    // the same artifacts.
    let reference = load(&artifacts)?;
    let mut bodies = draw_bodies(ctx, &reference.dataset);
    for b in &mut bodies {
        b.expected = reference
            .model
            .score_pairs(&reference.store, &b.pairs)
            .map_err(|e| e.to_string())?;
    }

    // Warm the server's string cache on every body, then measure.
    let warm = drive(ctx, addr, &bodies, keep_alive, None);
    let resident_cache = || {
        let engine = state.single().expect("single-model server");
        let resident = engine.resident.read().unwrap_or_else(|e| e.into_inner());
        resident.store.string_cache_stats()
    };
    let cache_before = resident_cache();
    let counters_before = server_counters(addr)?;
    let started = Instant::now();
    let runs = drive(
        ctx,
        addr,
        &bodies,
        keep_alive,
        Some(started + Duration::from_secs_f64(ctx.seconds)),
    );
    let window = started.elapsed().as_secs_f64();
    let counters_after = server_counters(addr)?;
    let cache_after = resident_cache();
    handle.shutdown();
    let drain = handle.join();

    // -- gates -------------------------------------------------------------
    let mismatched: u64 = runs.iter().chain(&warm).map(|r| r.mismatched).sum();
    let checked: usize = runs.iter().chain(&warm).map(|r| r.timings.len()).sum();
    report.gate(
        "serve_bitwise",
        mismatched == 0 && checked > 0,
        format!("{checked} /score responses vs in-process score_pairs, {mismatched} differ"),
    );
    report.gate(
        "drain_clean",
        drain.clean,
        format!(
            "drain dropped {} queued connections",
            drain.dropped_at_shutdown
        ),
    );

    // -- end-to-end ----------------------------------------------------------
    let timings: Vec<&Timing> = runs.iter().flat_map(|r| &r.timings).collect();
    let latency: Vec<f64> = timings.iter().map(|t| t.latency_ms).collect();
    report.attempted = runs.iter().map(|r| r.attempted).sum();
    report.failed = runs.iter().map(|r| r.failed).sum();
    if latency.is_empty() {
        let errors: Vec<&String> = runs.iter().flat_map(|r| &r.errors).take(3).collect();
        return Err(format!("no /score request completed: {errors:?}"));
    }
    report.ops_per_s = latency.len() as f64 / window;
    report.timing("score_p50_ms", &latency, "ms");
    report.e2e("score_rps", report.ops_per_s, "1/s");
    report.op_ms = latency;
    report.info("pairs_per_request", PAIRS_PER_REQUEST);
    report.info("request_bodies", bodies.len());
    report.info("clients", CLIENTS);
    report.info("keep_alive", keep_alive);
    for e in runs.iter().flat_map(|r| &r.errors).take(3) {
        report.info("client_error", e);
    }
    let mut inputs = Fnv::default();
    for b in &bodies {
        inputs.str(&b.json);
    }
    report.info("inputs_digest", format!("{:016x}", inputs.0));

    // -- per layer -----------------------------------------------------------
    if ctx.tracer.enabled() {
        let ms = |f: fn(&Timing) -> f64| timings.iter().map(|t| f(t)).collect::<Vec<f64>>();
        let connect: Vec<f64> = timings.iter().filter_map(|t| t.connect_ms).collect();
        report.layer_median("serve.client.connect_ms", &connect);
        report.layer_median("serve.client.ttfb_ms", &ms(|t| t.ttfb_ms));
        report.layer_median("serve.client.body_ms", &ms(|t| t.body_ms));
        report.layer(
            "serve.client.reconnects",
            runs.iter().map(|r| r.reconnects).sum::<u64>() as f64,
        );
        for (i, (_, metric)) in SERVER_COUNTERS.iter().enumerate() {
            report.layer(
                metric,
                counters_after[i].saturating_sub(counters_before[i]) as f64,
            );
        }
        report.memo_layers(
            0,
            0,
            cache_after.0.saturating_sub(cache_before.0),
            cache_after.1.saturating_sub(cache_before.1),
        );
        report.layer_median(
            "trace.coverage",
            &ms(|t| (t.connect_ms.unwrap_or(0.0) + t.ttfb_ms + t.body_ms) / t.latency_ms.max(1e-9)),
        );
        replay_handlers(ctx, &artifacts, &bodies, &reference, report)?;
        let ttfb = report.layers["serve.client.ttfb_ms"];
        let handle_ms = report.layers["serve.handlers.handle_ms"];
        report.layer("serve.wait_ms", ttfb - handle_ms);
        let view = crate::trace::TraceView::new(ctx.tracer.records());
        crate::write_trace(ctx, &view)?;
    }
    Ok(())
}

/// Replay every body through `handlers::handle` on a separate
/// `ServeState` from the same artifacts (no socket), and time
/// `score_pairs` on the same pairs.
fn replay_handlers(
    ctx: &Ctx,
    artifacts: &Artifacts,
    bodies: &[Body],
    reference: &Loaded,
    report: &mut Report,
) -> Result<(), String> {
    let t = &ctx.tracer;
    let replay = state(load(artifacts)?);
    let requests: Vec<Request> = bodies
        .iter()
        .map(|b| Request {
            method: "POST".to_string(),
            path: "/score".to_string(),
            headers: vec![
                ("content-type".to_string(), "application/json".to_string()),
                ("content-length".to_string(), b.json.len().to_string()),
            ],
            body: b.json.as_bytes().to_vec(),
        })
        .collect();
    let timeout = replay.config.request_timeout;
    let mut handle_ms = Vec::new();
    let mut mismatched = 0usize;
    // Pass 0 warms the replay state's string cache like the server's.
    for pass in 0..=REPLAY_PASSES {
        for (req, body) in requests.iter().zip(bodies) {
            let token = CancelToken::new().with_timeout(timeout);
            let start = Instant::now();
            let resp = {
                let _span = t.span("serve.handlers.handle");
                handlers::handle(&replay, req, &token)
            };
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let mut expected = body.expected.clone();
            if ctx.corrupts("replay_bitwise") {
                expected[0] = f32::from_bits(expected[0].to_bits() ^ 1);
            }
            match parse_scores(&resp.body) {
                Ok(got) if resp.status == 200 && bitwise_equal(&got, &expected) => {}
                _ => mismatched += 1,
            }
            if pass > 0 {
                handle_ms.push(ms);
            }
        }
    }
    let mut score_ms = Vec::new();
    for body in bodies {
        let start = Instant::now();
        let _span = t.span("core.pipeline.score");
        reference
            .model
            .score_pairs(&reference.store, &body.pairs)
            .map_err(|e| e.to_string())?;
        score_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    report.gate(
        "replay_bitwise",
        mismatched == 0,
        format!(
            "{} handler replays vs in-process score_pairs, {mismatched} differ",
            requests.len() * (REPLAY_PASSES + 1)
        ),
    );
    let handle = stats::median(&handle_ms).unwrap_or(0.0);
    report.layer("serve.handlers.handle_ms", handle);
    report.layer(
        "serve.handlers.us_per_pair",
        handle * 1e3 / PAIRS_PER_REQUEST as f64,
    );
    report.layer_median("core.pipeline.score_ms", &score_ms);
    Ok(())
}

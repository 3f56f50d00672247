//! Soak / fault-injection harness: sustained closed-loop load against a
//! real in-process server while adversarial clients inject every failure
//! mode the overload hardening defends against — slow-loris trickles,
//! truncated and oversized bodies, corrupt-then-valid reload flapping,
//! and panic-triggering inputs — then audits the wreckage.
//!
//! The run fails unless:
//!
//! * the model that was serving at the start is still serving at the end,
//!   with a **monotonic version lineage** across every reload flap and
//!   quarantined panic;
//! * **every failed request is accounted for**: the 503s, 504s and
//!   panic-500s clients observed equal `shed_total`,
//!   `deadline_expired_total` and `worker_panics_total` in `/metrics`
//!   exactly, no worker respawned, and nothing came back with a status
//!   the scenario didn't predict;
//! * every injector completed at least one full cycle and saw its
//!   expected rejection (408 for the slow loris, 400 for truncated
//!   bodies, 413 for oversized ones, 400-then-200 for reload flaps);
//! * p99 latency and peak RSS stayed under their ceilings; and
//! * the graceful drain flushed a final crash-safe snapshot of the
//!   trained model.
//!
//! Shedding and queue-deadline expiry are additionally exercised
//! **deterministically** through two degraded replicas sharing the same
//! metrics sink: a maintenance-mode server (`max_queue = 0`) that must
//! shed every probe with `503` + `Retry-After`, and a zero-grace server
//! (1 ns queue deadline) that must expire every probe with `504`. Both
//! must report **live but correctly ready/not-ready** through the split
//! `/healthz` (readiness) and `/healthz/live` endpoints, as must a
//! follower syncing from an unreachable leader.
//!
//! With [`SoakConfig::exe`] set (the default for the `serve-soak`
//! binary), two **process-level topology injectors** run real
//! `--child-serve` children:
//!
//! * the **kill -9/restart cycle** SIGKILLs a child serving a
//!   WAL-attached model and restarts it, requiring recovery at exactly
//!   the acked version with predictions byte-identical to an uncrashed
//!   control process and a monotonic version lineage across cycles;
//! * the **follower-promotion probe** SIGKILLs a leader once its
//!   follower is caught up, requiring the follower to keep serving
//!   byte-identical predictions at a non-decreasing version while still
//!   bouncing writes with a 409 naming the (dead) leader.
//!
//! The `serve-soak` binary drives [`run`] and merges a `serve_soak` row
//! into `BENCH_serve.json` so CI gates on the p99 ceiling like any other
//! bench op.

use crate::batcher::{inject_panic_fill, panic_injection_gate, BatchConfig};
use crate::client::{Client, Response};
use crate::json::{self, Json};
use crate::loadgen::{bar_image, synthetic_model};
use crate::metrics::Metrics;
use crate::registry::Registry;
use crate::replica::ReplicaState;
use crate::server::{Server, ServerConfig};
use std::ffi::OsString;
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The byte value that arms every injected panic: an input consisting
/// entirely of this byte makes the model panic (via the test-only hook in
/// the batcher). Healthy soak traffic only ever contains `0`/`224` pixels,
/// so the marker can never collide with it.
pub const PANIC_MARKER: u8 = 231;

/// Soak-run parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Main load-phase duration.
    pub duration: Duration,
    /// Closed-loop healthy predict clients.
    pub clients: usize,
    /// Closed-loop online-training clients.
    pub train_clients: usize,
    /// Hypervector dimension of the synthetic model under test.
    pub dim: usize,
    /// Square image edge length (input size is `edge²`).
    pub edge: usize,
    /// Coalescing/overload configuration of the model under test.
    pub batch: BatchConfig,
    /// Per-request read deadline of the server (the slow-loris cutoff).
    pub request_deadline: Duration,
    /// p99 latency ceiling the run must stay under.
    pub p99_ceiling: Duration,
    /// Peak-RSS ceiling in MiB. `0` disables the check (it is also
    /// skipped where `/proc/self/status` is unavailable).
    pub rss_ceiling_mb: u64,
    /// Requests fired at each deterministic degraded replica (the
    /// maintenance-mode shedder and the zero-grace expirer).
    pub probes: usize,
    /// Path to the `serve-soak` binary itself, enabling the
    /// process-level topology injectors (`--child-serve` children that
    /// can be SIGKILLed): the kill -9/restart durability cycle and the
    /// follower-promotion probe. `None` skips both — the in-process
    /// injectors and readiness probes still run.
    pub exe: Option<PathBuf>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            duration: Duration::from_secs(10),
            clients: 6,
            train_clients: 2,
            dim: 2_048,
            edge: 8,
            batch: BatchConfig {
                max_batch: 16,
                max_linger: Duration::from_micros(500),
                max_queue: 128,
                queue_deadline: Duration::from_millis(500),
                // The pool is always on under soak (even on a 1-core
                // container) so the fault injectors exercise the sharded
                // predict path, not the inline fallback.
                predict_workers: hdc::batch::resolved_parallelism().max(2),
            },
            request_deadline: Duration::from_secs(2),
            // Tightened from the pre-pool 500 ms: sharded execution must
            // not cost tail latency.
            p99_ceiling: Duration::from_millis(450),
            rss_ceiling_mb: 512,
            probes: 25,
            exe: None,
        }
    }
}

impl SoakConfig {
    /// A short variant for in-crate tests: every injector still completes
    /// at least one cycle, but the whole run finishes in a few seconds.
    pub fn quick() -> Self {
        Self {
            duration: Duration::from_millis(1_500),
            clients: 3,
            train_clients: 1,
            dim: 1_024,
            edge: 4,
            request_deadline: Duration::from_secs(1),
            probes: 8,
            ..Self::default()
        }
    }
}

/// Everything one soak run observed, plus the gate verdict.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Client-observed 2xx responses.
    pub ok: u64,
    /// Client-observed 503s (must equal `metric_shed`).
    pub shed: u64,
    /// Client-observed 504s (must equal `metric_expired`).
    pub expired: u64,
    /// Client-observed quarantine 500s (must equal `metric_panics`).
    pub panicked: u64,
    /// Responses no scenario predicted (must be zero).
    pub unexpected: u64,
    /// Transport failures on connections that should never break (zero).
    pub transport: u64,
    /// Completed slow-loris cycles (each ended in a 408).
    pub loris_cycles: u64,
    /// Completed truncated-body cycles (each ended in a 400).
    pub truncated_cycles: u64,
    /// Completed oversized-body cycles (each ended in a 413).
    pub oversized_cycles: u64,
    /// Corrupt-reload attempts correctly rejected with 400.
    pub reload_rejects: u64,
    /// Valid reloads accepted mid-flap.
    pub reload_accepts: u64,
    /// Completed kill -9/restart cycles, each recovered bit-exactly
    /// against the uncrashed control process (0 when `exe` was unset).
    pub crash_cycles: u64,
    /// Completed follower promotions: the leader was SIGKILLed and the
    /// caught-up follower answered byte-identically (0 when `exe` unset).
    pub promotions: u64,
    /// `shed_total` from `/metrics` at the end of the run.
    pub metric_shed: u64,
    /// `deadline_expired_total` from `/metrics`.
    pub metric_expired: u64,
    /// `worker_panics_total` from `/metrics`.
    pub metric_panics: u64,
    /// `worker_respawns_total` from `/metrics` (must be zero).
    pub metric_respawns: u64,
    /// Total requests the server counted.
    pub requests_total: u64,
    /// Measured p99 latency (µs).
    pub p99_us: u64,
    /// The configured p99 ceiling (µs).
    pub p99_ceiling_us: u64,
    /// Peak RSS (`VmHWM`) in KiB, when the platform exposes it.
    pub rss_peak_kb: Option<u64>,
    /// Models flushed by the final graceful drain.
    pub flushed: usize,
    /// The model's training version at the end of the run.
    pub final_version: u64,
    /// The configuration that ran.
    pub config: SoakConfig,
    /// Every gate violation, empty when the run passed.
    pub failures: Vec<String>,
}

impl SoakReport {
    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The `serve_soak` bench row: `scalar_ns` is the p99 ceiling,
    /// `packed_ns` the measured p99, so the "speedup" is the ceiling
    /// headroom and the generic `> 1.0` floor asserts the ceiling held.
    pub fn bench_row(&self) -> Json {
        let ceiling_ns = self.p99_ceiling_us as f64 * 1_000.0;
        let measured_ns = self.p99_us.max(1) as f64 * 1_000.0;
        Json::obj([
            ("scalar_ns", Json::from(ceiling_ns)),
            ("packed_ns", Json::from(measured_ns)),
            ("speedup", Json::from(ceiling_ns / measured_ns)),
            (
                "note",
                Json::from(format!(
                    "p99 ceiling headroom under fault injection: {} ok, {} shed, {} expired, \
                     {} panics quarantined, {} reload flaps, {} kill -9 recoveries, \
                     {} promotions, drain flushed {}, kernel backend {}",
                    self.ok,
                    self.shed,
                    self.expired,
                    self.panicked,
                    self.reload_accepts,
                    self.crash_cycles,
                    self.promotions,
                    self.flushed,
                    hdc::kernel::backend::active()
                )),
            ),
        ])
    }

    /// Writes (or merges) the `serve_soak` row into the bench report at
    /// `path`: when the file already holds a loadgen report its other ops
    /// are preserved, otherwise a standalone `serve_soak`-suite document
    /// is written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_bench_json(&self, path: &Path, quick: bool) -> io::Result<()> {
        let existing = std::fs::read(path).ok().and_then(|bytes| json::parse(&bytes).ok());
        let doc = match existing {
            Some(Json::Obj(mut map)) if matches!(map.get("ops"), Some(Json::Obj(_))) => {
                if let Some(Json::Obj(ops)) = map.get_mut("ops") {
                    ops.insert("serve_soak".to_owned(), self.bench_row());
                }
                Json::Obj(map)
            }
            _ => {
                let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
                Json::obj([
                    ("suite", Json::from("serve_soak".to_owned())),
                    ("dim", Json::from(self.config.dim as u64)),
                    ("quick", Json::Bool(quick)),
                    ("cores", Json::from(cores as u64)),
                    ("kernel_backend", Json::from(hdc::kernel::backend::active().name())),
                    ("ops", Json::obj([("serve_soak", self.bench_row())])),
                ])
            }
        };
        std::fs::write(path, doc.render() + "\n")
    }
}

/// Client-side outcome counters, shared across every soak thread.
#[derive(Debug, Default)]
struct Tally {
    ok: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    panicked: AtomicU64,
    unexpected: AtomicU64,
    transport: AtomicU64,
    loris_cycles: AtomicU64,
    truncated_cycles: AtomicU64,
    oversized_cycles: AtomicU64,
    reload_rejects: AtomicU64,
    reload_accepts: AtomicU64,
    crash_cycles: AtomicU64,
    promotions: AtomicU64,
}

/// Bounded gate-violation collector (poison-tolerant: a panicking soak
/// thread must not hide the violations already recorded).
#[derive(Debug, Default)]
struct Failures(Mutex<Vec<String>>);

impl Failures {
    fn push(&self, message: String) {
        let mut log = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if log.len() < 64 {
            log.push(message);
        }
    }

    fn into_vec(self) -> Vec<String> {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Everything a soak thread needs, bundled so helpers stay at sane arity.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    addr: SocketAddr,
    config: &'a SoakConfig,
    tally: &'a Tally,
    failures: &'a Failures,
    stop: &'a AtomicBool,
}

/// Files every response into the bucket the overload contract predicts.
/// Anything outside {2xx, 503-with-Retry-After, 504, quarantine-500} is an
/// unexpected response and fails the run.
fn classify(ctx: Ctx<'_>, response: &Response, context: &str) {
    // Every response — success or rejection — must carry the request's
    // trace id, or logs and `/debug/traces` cannot be correlated with
    // what the client saw.
    if response.header("x-request-id").is_none() {
        ctx.failures.push(format!("{context}: response has no x-request-id header"));
    }
    match response.status {
        200..=299 => {
            ctx.tally.ok.fetch_add(1, Relaxed);
        }
        503 => {
            ctx.tally.shed.fetch_add(1, Relaxed);
            if response.retry_after_secs().is_none() {
                ctx.failures.push(format!("{context}: 503 without a Retry-After header"));
            }
        }
        504 => {
            ctx.tally.expired.fetch_add(1, Relaxed);
        }
        500 if String::from_utf8_lossy(&response.body).contains("panicked") => {
            ctx.tally.panicked.fetch_add(1, Relaxed);
        }
        other => {
            ctx.tally.unexpected.fetch_add(1, Relaxed);
            ctx.failures.push(format!(
                "{context}: unexpected status {other}: {}",
                String::from_utf8_lossy(&response.body)
            ));
        }
    }
}

/// Records a transport failure on a connection that must never break.
fn transport_failure(ctx: Ctx<'_>, context: &str, e: &io::Error) {
    ctx.tally.transport.fetch_add(1, Relaxed);
    ctx.failures.push(format!("{context}: transport error: {e}"));
}

/// Closed-loop healthy predict client: every response must be a 200, a
/// shed, or an expiry — never an unexplained failure.
fn predict_loop(ctx: Ctx<'_>, client_id: usize) {
    let Ok(mut client) = Client::connect(ctx.addr) else {
        ctx.failures.push(format!("predict client {client_id}: cannot connect"));
        return;
    };
    let edge = ctx.config.edge;
    let mut img = vec![0u8; edge * edge];
    let mut i = 0usize;
    while !ctx.stop.load(Relaxed) {
        bar_image(&mut img, edge, client_id + i);
        i = i.wrapping_add(1);
        let body = Client::predict_body("default", &img);
        match client.post("/v1/predict", &body) {
            Ok(response) => classify(ctx, &response, "healthy predict"),
            Err(e) => {
                transport_failure(ctx, "healthy predict", &e);
                match Client::connect(ctx.addr) {
                    Ok(fresh) => client = fresh,
                    Err(_) => return,
                }
            }
        }
    }
}

/// Closed-loop online-training client, streaming correctly labeled
/// examples through `/v1/train`.
fn train_loop(ctx: Ctx<'_>, client_id: usize) {
    let Ok(mut client) = Client::connect(ctx.addr) else {
        ctx.failures.push(format!("train client {client_id}: cannot connect"));
        return;
    };
    let edge = ctx.config.edge;
    let mut img = vec![0u8; edge * edge];
    let mut i = 0usize;
    while !ctx.stop.load(Relaxed) {
        let label = bar_image(&mut img, edge, client_id + i);
        i = i.wrapping_add(1);
        let body = Client::train_body("default", &img, label);
        match client.post("/v1/train", &body) {
            Ok(response) => classify(ctx, &response, "online train"),
            Err(e) => {
                transport_failure(ctx, "online train", &e);
                match Client::connect(ctx.addr) {
                    Ok(fresh) => client = fresh,
                    Err(_) => return,
                }
            }
        }
        // Training is the rarer operation; don't let it dominate the mix.
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Sends all-[`PANIC_MARKER`] inputs that make the model panic; every one
/// must come back as a quarantine 500 (or a shed/expiry under pressure) —
/// never a 200, and never with the worker dead.
fn panic_probe_loop(ctx: Ctx<'_>) {
    let Ok(mut client) = Client::connect(ctx.addr) else {
        ctx.failures.push("panic probe: cannot connect".to_owned());
        return;
    };
    let poisoned = vec![PANIC_MARKER; ctx.config.edge * ctx.config.edge];
    let body = Client::predict_body("default", &poisoned);
    while !ctx.stop.load(Relaxed) {
        match client.post("/v1/predict", &body) {
            Ok(response) => match response.status {
                500 if String::from_utf8_lossy(&response.body).contains("panicked") => {
                    ctx.tally.panicked.fetch_add(1, Relaxed);
                }
                503 => {
                    ctx.tally.shed.fetch_add(1, Relaxed);
                }
                504 => {
                    ctx.tally.expired.fetch_add(1, Relaxed);
                }
                other => {
                    ctx.tally.unexpected.fetch_add(1, Relaxed);
                    ctx.failures.push(format!(
                        "panic probe: poisoned input answered {other} instead of a quarantine 500"
                    ));
                }
            },
            Err(e) => {
                transport_failure(ctx, "panic probe", &e);
                match Client::connect(ctx.addr) {
                    Ok(fresh) => client = fresh,
                    Err(_) => return,
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reads one HTTP status line off `reader`, tolerating read-timeout
/// slices (partial bytes accumulate in `line` across calls). `Ok(None)`
/// means "nothing complete yet, keep going".
fn read_status_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> io::Result<Option<u16>> {
    match reader.read_line(line) {
        Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed before status line")),
        Ok(_) if line.ends_with('\n') => {
            line.split_ascii_whitespace().nth(1).and_then(|s| s.parse().ok()).map(Some).ok_or_else(
                || io::Error::new(io::ErrorKind::InvalidData, format!("bad status line {line:?}")),
            )
        }
        Ok(_) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid status line")),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// One slow-loris cycle: trickle header bytes forever (staying under the
/// server's dead-peer stall ceiling) and wait for the request-deadline
/// 408.
fn slow_loris_cycle(addr: SocketAddr, patience: Duration) -> io::Result<u16> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    writer.write_all(b"POST /v1/predict HTTP/1.1\r\nx-trickle: ")?;
    let start = Instant::now();
    loop {
        if start.elapsed() > patience {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "no response within patience"));
        }
        if let Some(status) = read_status_line(&mut reader, &mut line)? {
            return Ok(status);
        }
        // Ignore write failures: once the server answered and closed, the
        // response is already buffered on our side — the reads above (or
        // the EOF they surface) decide the cycle.
        let _ = writer.write_all(b"a");
        std::thread::sleep(Duration::from_millis(80));
    }
}

/// One raw-socket cycle that sends `head` (+ optional partial body),
/// optionally half-closes, and waits for the server's verdict.
fn raw_request_cycle(
    addr: SocketAddr,
    head_and_body: &[u8],
    half_close: bool,
    patience: Duration,
) -> io::Result<u16> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(head_and_body)?;
    writer.flush()?;
    if half_close {
        writer.shutdown(std::net::Shutdown::Write)?;
    }
    let mut line = String::new();
    let start = Instant::now();
    loop {
        if start.elapsed() > patience {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "no response within patience"));
        }
        if let Some(status) = read_status_line(&mut reader, &mut line)? {
            return Ok(status);
        }
    }
}

/// Runs `cycle` repeatedly (at least once) until the stop flag is set,
/// requiring `expected` each time.
fn fault_cycle_loop(
    ctx: Ctx<'_>,
    label: &str,
    expected: u16,
    counter: &AtomicU64,
    pause: Duration,
    mut cycle: impl FnMut() -> io::Result<u16>,
) {
    loop {
        match cycle() {
            Ok(status) if status == expected => {
                counter.fetch_add(1, Relaxed);
            }
            Ok(status) => {
                ctx.tally.unexpected.fetch_add(1, Relaxed);
                ctx.failures.push(format!("{label}: expected {expected}, got {status}"));
            }
            Err(e) => {
                ctx.tally.transport.fetch_add(1, Relaxed);
                ctx.failures.push(format!("{label}: cycle failed: {e}"));
            }
        }
        if ctx.stop.load(Relaxed) {
            return;
        }
        std::thread::sleep(pause);
    }
}

/// Corrupt-then-valid reload flapping against a live model: every corrupt
/// file must be rejected with 400 while the old model keeps serving and
/// its version lineage stays monotonic; every valid file must reload.
fn reload_flap_loop(ctx: Ctx<'_>, registry: &Registry, flap_path: &Path, valid_bytes: &[u8]) {
    let Ok(mut client) = Client::connect(ctx.addr) else {
        ctx.failures.push("reload flapper: cannot connect".to_owned());
        return;
    };
    let body = format!("{{\"model\":\"default\",\"path\":\"{}\"}}", flap_path.display());
    let mut last_version = registry.get("default").map(|e| e.version()).unwrap_or(0);
    let mut round = 0usize;
    loop {
        round += 1;
        // Alternate the two corruption shapes the registry must survive:
        // garbage magic and a mid-file truncation.
        let corrupt: &[u8] = if round.is_multiple_of(2) {
            b"HDXX this is not a model file"
        } else {
            &valid_bytes[..valid_bytes.len() / 2]
        };
        if let Err(e) = std::fs::write(flap_path, corrupt) {
            ctx.failures.push(format!("reload flapper: cannot write corrupt file: {e}"));
            return;
        }
        match client.post("/v1/reload", &body) {
            Ok(r) if r.status == 400 => {
                ctx.tally.reload_rejects.fetch_add(1, Relaxed);
            }
            Ok(r) => {
                ctx.tally.unexpected.fetch_add(1, Relaxed);
                ctx.failures.push(format!("corrupt reload answered {} instead of 400", r.status));
            }
            Err(e) => transport_failure(ctx, "corrupt reload", &e),
        }
        // The old model must have survived the rejected reload.
        match registry.get("default") {
            Ok(entry) => {
                let version = entry.version();
                if version < last_version {
                    ctx.failures.push(format!(
                        "version lineage went backwards: {last_version} -> {version}"
                    ));
                }
                last_version = version;
            }
            Err(_) => {
                ctx.failures.push("serving model disappeared after a corrupt reload".to_owned());
            }
        }
        if let Err(e) = std::fs::write(flap_path, valid_bytes) {
            ctx.failures.push(format!("reload flapper: cannot restore valid file: {e}"));
            return;
        }
        match client.post("/v1/reload", &body) {
            Ok(r) if r.is_success() => {
                ctx.tally.reload_accepts.fetch_add(1, Relaxed);
            }
            Ok(r) => {
                ctx.tally.unexpected.fetch_add(1, Relaxed);
                ctx.failures.push(format!("valid reload answered {}", r.status));
            }
            Err(e) => transport_failure(ctx, "valid reload", &e),
        }
        if ctx.stop.load(Relaxed) {
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Fires `probes` healthy predicts at a degraded replica sharing the main
/// run's metrics sink, requiring `expected` (503 from the maintenance-
/// mode shedder, 504 from the zero-grace expirer) every time — the
/// deterministic complement to whatever organic overload the load phase
/// produced.
fn degraded_replica_probe(
    ctx: Ctx<'_>,
    metrics: &Arc<Metrics>,
    batch: BatchConfig,
    expected: u16,
    expect_ready: bool,
    label: &str,
) {
    let registry = Arc::new(Registry::new(Arc::clone(metrics), batch));
    if registry
        .insert_model("default", synthetic_model(ctx.config.dim.min(1_024), ctx.config.edge))
        .is_err()
    {
        ctx.failures.push(format!("{label}: cannot register replica model"));
        return;
    }
    let server_config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let Ok(mut server) = Server::start(registry, &server_config) else {
        ctx.failures.push(format!("{label}: cannot start replica server"));
        return;
    };
    let Ok(mut client) = Client::connect(server.addr()) else {
        ctx.failures.push(format!("{label}: cannot connect"));
        server.shutdown();
        return;
    };
    // Liveness/readiness split: a degraded server is always *live*, but
    // only the maintenance-mode shedder (max_queue 0) is *not ready* —
    // neither state is allowed to leak into the other endpoint.
    match client.get("/healthz/live") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => ctx.failures.push(format!("{label}: /healthz/live answered {}", r.status)),
        Err(e) => transport_failure(ctx, label, &e),
    }
    let want_ready = if expect_ready { 200 } else { 503 };
    match client.get("/healthz") {
        Ok(r) if r.status == want_ready => {}
        Ok(r) => ctx
            .failures
            .push(format!("{label}: /healthz answered {} instead of {want_ready}", r.status)),
        Err(e) => transport_failure(ctx, label, &e),
    }
    let edge = ctx.config.edge;
    let mut img = vec![0u8; edge * edge];
    for i in 0..ctx.config.probes {
        bar_image(&mut img, edge, i);
        let body = Client::predict_body("default", &img);
        match client.post("/v1/predict", &body) {
            Ok(response) => {
                if response.status != expected {
                    ctx.failures.push(format!(
                        "{label}: probe {i} answered {} instead of {expected}",
                        response.status
                    ));
                }
                classify(ctx, &response, label);
            }
            Err(e) => transport_failure(ctx, label, &e),
        }
    }
    server.shutdown();
}

/// Deterministic liveness/readiness probe for a **syncing follower**: a
/// server flagged as a follower of an unreachable leader must be live
/// (`/healthz/live` 200) but not ready (`/healthz` 503 naming the
/// leader), keep serving reads, and bounce writes with a 409 whose body
/// carries the leader's address — exactly what a load balancer and a
/// redirecting client each need.
fn syncing_replica_probe(ctx: Ctx<'_>) {
    let registry = Arc::new(Registry::new(Arc::new(Metrics::new()), ctx.config.batch));
    if registry
        .insert_model("default", synthetic_model(ctx.config.dim.min(1_024), ctx.config.edge))
        .is_err()
    {
        ctx.failures.push("syncing replica: cannot register model".to_owned());
        return;
    }
    // A blackhole leader: the replica state exists and expects a model
    // that can never catch up, so readiness must stay false forever.
    let state = Arc::new(ReplicaState::new("10.255.255.1:9"));
    state.expect_models(&["default".to_owned()]);
    registry.set_replica(Arc::clone(&state));
    let server_config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let Ok(mut server) = Server::start(registry, &server_config) else {
        ctx.failures.push("syncing replica: cannot start server".to_owned());
        return;
    };
    let Ok(mut client) = Client::connect(server.addr()) else {
        ctx.failures.push("syncing replica: cannot connect".to_owned());
        server.shutdown();
        return;
    };
    match client.get("/healthz/live") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => ctx.failures.push(format!("syncing replica: /healthz/live answered {}", r.status)),
        Err(e) => transport_failure(ctx, "syncing replica liveness", &e),
    }
    match client.get("/healthz") {
        Ok(r) if r.status == 503 => {
            if !String::from_utf8_lossy(&r.body).contains("10.255.255.1:9") {
                ctx.failures
                    .push("syncing replica: /healthz 503 does not name the leader".to_owned());
            }
        }
        Ok(r) => ctx
            .failures
            .push(format!("syncing replica: /healthz answered {} instead of 503", r.status)),
        Err(e) => transport_failure(ctx, "syncing replica readiness", &e),
    }
    let mut img = vec![0u8; ctx.config.edge * ctx.config.edge];
    bar_image(&mut img, ctx.config.edge, 0);
    match client.post("/v1/predict", &Client::predict_body("default", &img)) {
        Ok(r) if r.is_success() => {}
        Ok(r) => {
            ctx.failures.push(format!("syncing replica: read answered {} instead of 200", r.status))
        }
        Err(e) => transport_failure(ctx, "syncing replica read", &e),
    }
    match client.post("/v1/train", &Client::train_body("default", &img, 0)) {
        Ok(r) if r.status == 409 => {
            let named = r
                .json()
                .ok()
                .and_then(|doc| doc.get("leader").and_then(Json::as_str).map(str::to_owned));
            if named.as_deref() != Some("10.255.255.1:9") {
                ctx.failures.push(format!(
                    "syncing replica: 409 body names leader {named:?} instead of the real one"
                ));
            }
        }
        Ok(r) => ctx
            .failures
            .push(format!("syncing replica: write answered {} instead of 409", r.status)),
        Err(e) => transport_failure(ctx, "syncing replica write", &e),
    }
    server.shutdown();
}

/// A `serve-soak --child-serve` child: a real inference server in its own
/// process, so the harness can SIGKILL it mid-flight and prove the WAL's
/// acked ⇒ durable contract with an actual dead process, not a simulation.
struct ChildServer {
    child: Child,
    addr: SocketAddr,
}

impl ChildServer {
    /// Spawns the child and blocks until it prints `LISTENING <addr>`.
    fn spawn(exe: &Path, args: &[OsString]) -> io::Result<ChildServer> {
        let mut child = Command::new(exe)
            .arg("--child-serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped child stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "child exited before printing LISTENING",
                ));
            }
            if let Some(rest) = line.trim().strip_prefix("LISTENING ") {
                let addr = rest.parse().map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad LISTENING line: {e}"))
                })?;
                // Keep draining stdout so the child can never block on a
                // full pipe.
                std::thread::spawn(move || {
                    let mut sink = String::new();
                    while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                        sink.clear();
                    }
                });
                return Ok(ChildServer { child, addr });
            }
        }
    }

    /// SIGKILL — no drop handlers, no flush, no goodbye. Anything the
    /// child acked must already be on disk.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// Reads a model's training version off a live server's `/v1/models`.
fn model_version(client: &mut Client, model: &str) -> Option<u64> {
    let doc = client.get("/v1/models").ok()?.json().ok()?;
    doc.get("models")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(model))?
        .get("version")
        .and_then(Json::as_f64)
        .map(|v| v as u64)
}

/// Streams `count` sequential, individually acked training examples.
/// Returns false (after recording a failure) on the first non-2xx.
fn train_acked(ctx: Ctx<'_>, client: &mut Client, count: usize, salt: usize, label: &str) -> bool {
    let edge = ctx.config.edge;
    let mut img = vec![0u8; edge * edge];
    for i in 0..count {
        let class = bar_image(&mut img, edge, salt + i);
        match client.post("/v1/train", &Client::train_body("default", &img, class)) {
            Ok(r) if r.is_success() => {}
            Ok(r) => {
                ctx.failures.push(format!("{label}: train {i} answered {}", r.status));
                return false;
            }
            Err(e) => {
                ctx.failures.push(format!("{label}: train {i} transport error: {e}"));
                return false;
            }
        }
    }
    true
}

/// Collects the raw response bodies for a fixed set of predict probes —
/// byte-for-byte comparable across servers that must agree.
fn predict_bodies(client: &mut Client, edge: usize, probes: usize) -> io::Result<Vec<Vec<u8>>> {
    let mut img = vec![0u8; edge * edge];
    let mut bodies = Vec::with_capacity(probes);
    for i in 0..probes {
        bar_image(&mut img, edge, i);
        let response = client.post("/v1/predict", &Client::predict_body("default", &img))?;
        if !response.is_success() {
            return Err(io::Error::other(format!("predict {i} answered {}", response.status)));
        }
        bodies.push(response.body);
    }
    Ok(bodies)
}

/// The kill -9/restart durability cycle: a victim child and an
/// identically trained **uncrashed control** child serve the same
/// file-backed model; after every SIGKILL + restart the victim must come
/// back at exactly the acked version, answer every probe byte-identically
/// to the control, and never move its version lineage backwards.
fn crash_recovery_probe(ctx: Ctx<'_>, exe: &Path, scratch: &Path) {
    let edge = ctx.config.edge;
    let model = synthetic_model(ctx.config.dim.min(1_024), edge);
    let victim_path = scratch.join("crash-victim.hdc");
    let control_path = scratch.join("crash-control.hdc");
    for path in [&victim_path, &control_path] {
        let saved = std::fs::File::create(path)
            .and_then(|f| model.save(io::BufWriter::new(f)).map_err(io::Error::other));
        if let Err(e) = saved {
            ctx.failures.push(format!("crash probe: cannot seed {}: {e}", path.display()));
            return;
        }
    }
    let spawn = |path: &Path| ChildServer::spawn(exe, &[OsString::from("--model"), path.into()]);
    let control = match spawn(&control_path) {
        Ok(c) => c,
        Err(e) => {
            ctx.failures.push(format!("crash probe: cannot spawn control child: {e}"));
            return;
        }
    };
    let mut victim = match spawn(&victim_path) {
        Ok(c) => c,
        Err(e) => {
            ctx.failures.push(format!("crash probe: cannot spawn victim child: {e}"));
            return;
        }
    };
    let Ok(mut control_client) = Client::connect(control.addr) else {
        ctx.failures.push("crash probe: cannot connect to control".to_owned());
        return;
    };

    let mut last_version = 0u64;
    for cycle in 0..2u64 {
        // Identical sequential acked trains to both processes; each ack
        // means the WAL record is fsynced, so the upcoming SIGKILL must
        // lose nothing.
        let trains = 5 + cycle as usize;
        let Ok(mut victim_client) = Client::connect(victim.addr) else {
            ctx.failures.push(format!("crash probe: cannot connect to victim (cycle {cycle})"));
            return;
        };
        let salt = cycle as usize * 100;
        if !train_acked(ctx, &mut victim_client, trains, salt, "crash victim")
            || !train_acked(ctx, &mut control_client, trains, salt, "crash control")
        {
            return;
        }
        let expected = model_version(&mut control_client, "default");

        victim.kill9();
        victim = match spawn(&victim_path) {
            Ok(c) => c,
            Err(e) => {
                ctx.failures.push(format!("crash probe: victim did not restart: {e}"));
                return;
            }
        };
        let Ok(mut victim_client) = Client::connect(victim.addr) else {
            ctx.failures.push("crash probe: cannot reconnect to recovered victim".to_owned());
            return;
        };
        let recovered = model_version(&mut victim_client, "default");
        // The WAL replay that brought the victim back must itself be
        // observable: a synthetic `recovery`-terminal trace in the ring.
        match victim_client.get("/debug/traces?terminal=recovery") {
            Ok(r) if r.is_success() => {
                let count = r
                    .json()
                    .ok()
                    .and_then(|doc| doc.get("traces")?.as_array().map(<[Json]>::len))
                    .unwrap_or(0);
                if count == 0 {
                    ctx.failures.push(format!(
                        "crash probe cycle {cycle}: recovered victim shows no \
                         'recovery'-terminal trace in /debug/traces"
                    ));
                }
            }
            Ok(r) => ctx.failures.push(format!(
                "crash probe cycle {cycle}: /debug/traces answered {} on the recovered victim",
                r.status
            )),
            Err(e) => transport_failure(ctx, "crash probe trace fetch", &e),
        }
        if recovered != expected {
            ctx.failures.push(format!(
                "crash probe cycle {cycle}: recovered at version {recovered:?} instead of the \
                 acked {expected:?} — the WAL lost or invented updates"
            ));
        }
        if recovered.unwrap_or(0) < last_version {
            ctx.failures.push(format!(
                "crash probe cycle {cycle}: version lineage went backwards: {last_version} -> \
                 {recovered:?}"
            ));
        }
        last_version = recovered.unwrap_or(0);
        match (
            predict_bodies(&mut victim_client, edge, 8),
            predict_bodies(&mut control_client, edge, 8),
        ) {
            (Ok(victim_bodies), Ok(control_bodies)) => {
                if victim_bodies != control_bodies {
                    ctx.failures.push(format!(
                        "crash probe cycle {cycle}: recovered predictions differ from the \
                         uncrashed control's — recovery is not bit-exact"
                    ));
                }
            }
            (v, c) => {
                ctx.failures.push(format!(
                    "crash probe cycle {cycle}: probe predicts failed (victim {:?}, control {:?})",
                    v.err(),
                    c.err()
                ));
            }
        }
        ctx.tally.crash_cycles.fetch_add(1, Relaxed);
    }
}

/// Waits until the follower's `/metrics` replication section reports the
/// model applied at (or past) `version`.
fn wait_follower_applied(addr: SocketAddr, version: u64, patience: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < patience {
        if let Ok(mut client) = Client::connect(addr) {
            let applied = client
                .get("/metrics")
                .ok()
                .and_then(|r| r.json().ok())
                .and_then(|doc| {
                    doc.get("replication")?
                        .get("models")?
                        .as_array()?
                        .iter()
                        .find(|m| m.get("name").and_then(Json::as_str) == Some("default"))?
                        .get("applied_version")
                        .and_then(Json::as_f64)
                })
                .map(|v| v as u64);
            if applied.is_some_and(|v| v >= version) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    false
}

/// The follower-promotion probe: a leader child and a follower child
/// tailing it; once the follower is caught up (replication lag 0 and
/// `/healthz` ready), SIGKILL the leader — the follower must keep
/// answering the same probes byte-identically at a non-decreasing
/// version, stay live, and keep bouncing writes with a 409 naming the
/// (dead) leader.
fn failover_probe(ctx: Ctx<'_>, exe: &Path, scratch: &Path) {
    let edge = ctx.config.edge;
    let model = synthetic_model(ctx.config.dim.min(1_024), edge);
    let leader_path = scratch.join("failover-leader.hdc");
    let saved = std::fs::File::create(&leader_path)
        .and_then(|f| model.save(io::BufWriter::new(f)).map_err(io::Error::other));
    if let Err(e) = saved {
        ctx.failures.push(format!("failover probe: cannot seed leader model: {e}"));
        return;
    }
    let mut leader =
        match ChildServer::spawn(exe, &[OsString::from("--model"), leader_path.clone().into()]) {
            Ok(c) => c,
            Err(e) => {
                ctx.failures.push(format!("failover probe: cannot spawn leader: {e}"));
                return;
            }
        };
    let follower = match ChildServer::spawn(
        exe,
        &[OsString::from("--follower-of"), leader.addr.to_string().into()],
    ) {
        Ok(c) => c,
        Err(e) => {
            ctx.failures.push(format!("failover probe: cannot spawn follower: {e}"));
            return;
        }
    };
    let Ok(mut leader_client) = Client::connect(leader.addr) else {
        ctx.failures.push("failover probe: cannot connect to leader".to_owned());
        return;
    };
    if !train_acked(ctx, &mut leader_client, 6, 0, "failover leader") {
        return;
    }
    let Some(expected) = model_version(&mut leader_client, "default") else {
        ctx.failures.push("failover probe: leader reports no model version".to_owned());
        return;
    };
    if !wait_follower_applied(follower.addr, expected, Duration::from_secs(30)) {
        ctx.failures
            .push(format!("failover probe: follower never caught up to leader version {expected}"));
        return;
    }
    let Ok(mut follower_client) = Client::connect(follower.addr) else {
        ctx.failures.push("failover probe: cannot connect to follower".to_owned());
        return;
    };
    match follower_client.get("/healthz") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => ctx.failures.push(format!(
            "failover probe: caught-up follower /healthz answered {} instead of 200",
            r.status
        )),
        Err(e) => transport_failure(ctx, "failover follower readiness", &e),
    }
    let leader_bodies = match predict_bodies(&mut leader_client, edge, 8) {
        Ok(b) => b,
        Err(e) => {
            ctx.failures.push(format!("failover probe: leader probe predicts failed: {e}"));
            return;
        }
    };

    leader.kill9();

    match predict_bodies(&mut follower_client, edge, 8) {
        Ok(follower_bodies) => {
            if follower_bodies != leader_bodies {
                ctx.failures.push(
                    "failover probe: follower predictions differ from the dead leader's — \
                     promotion would serve different answers"
                        .to_owned(),
                );
            }
        }
        Err(e) => {
            ctx.failures
                .push(format!("failover probe: follower stopped serving after the kill: {e}"));
            return;
        }
    }
    let follower_version = model_version(&mut follower_client, "default");
    if follower_version < Some(expected) {
        ctx.failures.push(format!(
            "failover probe: follower version {follower_version:?} fell below the leader's \
             acked {expected}"
        ));
    }
    let mut img = vec![0u8; edge * edge];
    let class = bar_image(&mut img, edge, 0);
    match follower_client.post("/v1/train", &Client::train_body("default", &img, class)) {
        Ok(r) if r.status == 409 => {
            if !String::from_utf8_lossy(&r.body).contains(&leader.addr.to_string()) {
                ctx.failures
                    .push("failover probe: follower 409 does not name its leader".to_owned());
            }
        }
        Ok(r) => ctx
            .failures
            .push(format!("failover probe: follower write answered {} instead of 409", r.status)),
        Err(e) => transport_failure(ctx, "failover follower write", &e),
    }
    match follower_client.get("/healthz/live") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => ctx.failures.push(format!(
            "failover probe: follower /healthz/live answered {} after the kill",
            r.status
        )),
        Err(e) => transport_failure(ctx, "failover follower liveness", &e),
    }
    ctx.tally.promotions.fetch_add(1, Relaxed);
}

/// Peak RSS (`VmHWM`) in KiB, read through the same probe `/metrics`
/// publishes so the gate and the endpoint can never disagree.
fn rss_peak_kb() -> Option<u64> {
    crate::metrics::rss_peak_kb()
}

/// Keeps the default panic hook from dumping a backtrace for every
/// *injected* panic — hundreds fire per soak run by design, drowning
/// real output in hundreds of KB of stderr. Real panics still reach
/// whatever hook was installed before. Installed once per process and
/// never removed, so concurrent test threads always see a valid chain.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if !message.is_some_and(|m| m.contains("injected model panic")) {
                previous(info);
            }
        }));
    });
}

/// Runs the full soak: load phase with every fault injector, the
/// deterministic degraded-replica probes, the recovery checks, and the
/// graceful drain — then audits the books.
pub fn run(config: &SoakConfig) -> SoakReport {
    // One soak owns the process-global panic injection end to end.
    let _hook = panic_injection_gate();
    silence_injected_panics();

    let metrics = Arc::new(Metrics::new());
    let registry = Arc::new(Registry::new(Arc::clone(&metrics), config.batch));
    registry
        .insert_model("default", synthetic_model(config.dim, config.edge))
        .expect("register soak model");
    let server_config = ServerConfig {
        workers: config.clients + config.train_clients + 8,
        request_deadline: config.request_deadline,
        ..ServerConfig::default()
    };
    let mut server = Server::start(Arc::clone(&registry), &server_config).expect("start server");
    let addr = server.addr();

    // Scratch file the reload flapper corrupts and restores. Seeding it
    // from a live snapshot also gives the registry a source path, so the
    // final drain has somewhere to autosave next to.
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).expect("create soak scratch dir");
    let flap_path = scratch.join("flap.hdc");
    registry.snapshot("default", &flap_path).expect("seed flap snapshot");
    let valid_bytes = std::fs::read(&flap_path).expect("read flap snapshot");

    let tally = Tally::default();
    let failures = Failures::default();
    let stop = AtomicBool::new(false);
    let ctx = Ctx { addr, config, tally: &tally, failures: &failures, stop: &stop };
    let loris_patience = config.request_deadline + Duration::from_secs(15);
    let raw_patience = Duration::from_secs(10);

    inject_panic_fill(Some(PANIC_MARKER));
    std::thread::scope(|scope| {
        for client_id in 0..config.clients {
            scope.spawn(move || predict_loop(ctx, client_id));
        }
        for client_id in 0..config.train_clients {
            scope.spawn(move || train_loop(ctx, client_id));
        }
        scope.spawn(move || panic_probe_loop(ctx));
        scope.spawn(move || {
            fault_cycle_loop(
                ctx,
                "slow loris",
                408,
                &ctx.tally.loris_cycles,
                Duration::from_millis(50),
                || slow_loris_cycle(addr, loris_patience),
            );
        });
        scope.spawn(move || {
            // Declares 100 body bytes, delivers 10, then half-closes: the
            // server must answer 400, not hang or tear down the listener.
            let raw = b"POST /v1/predict HTTP/1.1\r\ncontent-length: 100\r\n\r\n0123456789";
            fault_cycle_loop(
                ctx,
                "truncated body",
                400,
                &ctx.tally.truncated_cycles,
                Duration::from_millis(150),
                || raw_request_cycle(addr, raw, true, raw_patience),
            );
        });
        scope.spawn(move || {
            // Twice the 32 MiB body limit; the 413 must arrive without the
            // client sending a single body byte.
            let raw = b"POST /v1/predict HTTP/1.1\r\ncontent-length: 67108864\r\n\r\n";
            fault_cycle_loop(
                ctx,
                "oversized body",
                413,
                &ctx.tally.oversized_cycles,
                Duration::from_millis(250),
                || raw_request_cycle(addr, raw, false, raw_patience),
            );
        });
        let registry = &registry;
        let flap_path = &flap_path;
        let valid_bytes = &valid_bytes[..];
        scope.spawn(move || reload_flap_loop(ctx, registry, flap_path, valid_bytes));

        std::thread::sleep(config.duration);
        stop.store(true, Relaxed);
    });
    inject_panic_fill(None);

    // Deterministic overload probes: a maintenance-mode replica must shed
    // every request, a zero-grace replica must expire every request.
    degraded_replica_probe(
        ctx,
        &metrics,
        BatchConfig { max_queue: 0, ..config.batch },
        503,
        false,
        "maintenance-mode replica",
    );
    degraded_replica_probe(
        ctx,
        &metrics,
        BatchConfig {
            max_queue: 1 << 20,
            queue_deadline: Duration::from_nanos(1),
            max_linger: Duration::ZERO,
            ..config.batch
        },
        504,
        true,
        "zero-grace replica",
    );
    // A follower that can never catch up must stay live-but-not-ready
    // while serving reads and bouncing writes.
    syncing_replica_probe(ctx);

    // Process-level topology injectors: real children, real SIGKILLs.
    if let Some(exe) = &config.exe {
        crash_recovery_probe(ctx, exe, &scratch);
        failover_probe(ctx, exe, &scratch);
    }

    // One last injected panic, fired after the load phase went quiet: the
    // load phase's own panics may have been evicted from the bounded
    // trace ring by healthy traffic, so this guarantees the audit's
    // "every fault class is visible as a trace" scan has a fresh
    // `panic`-terminal entry to find.
    inject_panic_fill(Some(PANIC_MARKER));
    if let Ok(mut client) = Client::connect(addr) {
        let poisoned = vec![PANIC_MARKER; config.edge * config.edge];
        let body = Client::predict_body("default", &poisoned);
        match client.post("/v1/predict", &body) {
            Ok(response) => classify(ctx, &response, "late panic probe"),
            Err(e) => transport_failure(ctx, "late panic probe", &e),
        }
    } else {
        failures.push("late panic probe: cannot connect".to_owned());
    }
    inject_panic_fill(None);

    // Recovery: the model that survived the soak must still answer, and
    // one more training step must succeed (which also re-dirties it so
    // the drain below provably flushes).
    let mut recovered = false;
    let mut trained = false;
    if let Ok(mut client) = Client::connect(addr) {
        let edge = config.edge;
        let mut img = vec![0u8; edge * edge];
        for attempt in 0..20 {
            let label = bar_image(&mut img, edge, attempt);
            if !recovered {
                let body = Client::predict_body("default", &img);
                match client.post("/v1/predict", &body) {
                    Ok(r) => {
                        classify(ctx, &r, "recovery predict");
                        recovered = r.is_success();
                    }
                    Err(e) => transport_failure(ctx, "recovery predict", &e),
                }
            }
            if recovered && !trained {
                let body = Client::train_body("default", &img, label);
                match client.post("/v1/train", &body) {
                    Ok(r) => {
                        classify(ctx, &r, "recovery train");
                        trained = r.is_success();
                    }
                    Err(e) => transport_failure(ctx, "recovery train", &e),
                }
            }
            if recovered && trained {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    } else {
        failures.push("recovery: cannot connect to the surviving server".to_owned());
    }
    if !recovered {
        failures.push("the model stopped serving healthy predicts after the soak".to_owned());
    }
    if !trained {
        failures.push("the model stopped accepting training after the soak".to_owned());
    }
    let final_version = registry.get("default").map(|e| e.version()).unwrap_or(0);

    // Graceful drain: stop accepting, finish in-flight work, flush one
    // crash-safe snapshot per dirty model.
    let flushed = server.drain();
    if trained && flushed == 0 {
        failures.push("drain flushed no snapshot despite fresh training".to_owned());
    }

    audit(config, &tally, &failures, &metrics);
    let _ = std::fs::remove_dir_all(&scratch);

    SoakReport {
        ok: tally.ok.load(Relaxed),
        shed: tally.shed.load(Relaxed),
        expired: tally.expired.load(Relaxed),
        panicked: tally.panicked.load(Relaxed),
        unexpected: tally.unexpected.load(Relaxed),
        transport: tally.transport.load(Relaxed),
        loris_cycles: tally.loris_cycles.load(Relaxed),
        truncated_cycles: tally.truncated_cycles.load(Relaxed),
        oversized_cycles: tally.oversized_cycles.load(Relaxed),
        reload_rejects: tally.reload_rejects.load(Relaxed),
        reload_accepts: tally.reload_accepts.load(Relaxed),
        crash_cycles: tally.crash_cycles.load(Relaxed),
        promotions: tally.promotions.load(Relaxed),
        metric_shed: metrics.shed_total(),
        metric_expired: metrics.deadline_expired_total(),
        metric_panics: metrics.worker_panics_total(),
        metric_respawns: metrics.worker_respawns_total(),
        requests_total: metrics.requests_total(),
        p99_us: metrics.latency_quantile_us(0.99),
        p99_ceiling_us: config.p99_ceiling.as_micros().min(u128::from(u64::MAX)) as u64,
        rss_peak_kb: rss_peak_kb(),
        flushed,
        final_version,
        config: config.clone(),
        failures: failures.into_vec(),
    }
}

/// A per-process scratch directory for the reload flapper's model file.
fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("hdc-soak-{}", std::process::id()))
}

/// The end-of-run audit: exact error accounting against `/metrics`,
/// minimum activity per injector, and the p99 / RSS ceilings.
fn audit(config: &SoakConfig, tally: &Tally, failures: &Failures, metrics: &Metrics) {
    let pairs = [
        ("shed", tally.shed.load(Relaxed), metrics.shed_total()),
        ("deadline-expired", tally.expired.load(Relaxed), metrics.deadline_expired_total()),
        ("panic-quarantined", tally.panicked.load(Relaxed), metrics.worker_panics_total()),
    ];
    for (what, observed, counted) in pairs {
        if observed != counted {
            failures.push(format!(
                "unaccounted {what} errors: clients observed {observed}, /metrics counted \
                 {counted}"
            ));
        }
    }
    if metrics.worker_respawns_total() != 0 {
        failures.push(format!(
            "{} panics escaped the per-job quarantine into a worker respawn",
            metrics.worker_respawns_total()
        ));
    }
    let minimums = [
        ("healthy 2xx responses", tally.ok.load(Relaxed), 1),
        ("quarantined panics", tally.panicked.load(Relaxed), 1),
        ("slow-loris 408 cycles", tally.loris_cycles.load(Relaxed), 1),
        ("truncated-body 400 cycles", tally.truncated_cycles.load(Relaxed), 1),
        ("oversized-body 413 cycles", tally.oversized_cycles.load(Relaxed), 1),
        ("corrupt-reload rejects", tally.reload_rejects.load(Relaxed), 1),
        ("valid reload accepts", tally.reload_accepts.load(Relaxed), 1),
        ("shed responses", tally.shed.load(Relaxed), config.probes as u64),
        ("deadline expiries", tally.expired.load(Relaxed), config.probes as u64),
        // The topology injectors only run when the harness knows its own
        // binary; with `exe` unset their floors drop to zero.
        (
            "kill -9/restart recovery cycles",
            tally.crash_cycles.load(Relaxed),
            if config.exe.is_some() { 2 } else { 0 },
        ),
        ("follower promotions", tally.promotions.load(Relaxed), u64::from(config.exe.is_some())),
    ];
    for (what, count, minimum) in minimums {
        if count < minimum {
            failures.push(format!("too few {what}: {count} < {minimum}"));
        }
    }
    if metrics.queue_depth_hist().iter().sum::<u64>() == 0 {
        failures.push("queue-depth histogram recorded no enqueues".to_owned());
    }
    // The soak forces the predict pool on; concurrent closed-loop clients
    // must have produced at least one multi-job batch that actually
    // sharded — otherwise the whole run silently exercised the inline
    // path and proved nothing about the pool.
    if config.batch.predict_workers > 1 && metrics.pool_fanouts_total() == 0 {
        failures.push("predict pool was enabled but never fanned out a batch".to_owned());
    }
    // Every injected fault class must be visible as a completed trace
    // with the right terminal stage, not just as a counter increment —
    // that is the whole point of the ring.
    let traces = metrics.traces().snapshot();
    let fault_terminals = [
        ("shed", metrics.shed_total()),
        ("queue_deadline", metrics.deadline_expired_total()),
        ("panic", metrics.worker_panics_total()),
    ];
    for (terminal, counted) in fault_terminals {
        if counted > 0 && !traces.iter().any(|r| r.terminal == terminal) {
            failures.push(format!(
                "/metrics counted {counted} '{terminal}' faults but no trace with that \
                 terminal stage survives in the ring"
            ));
        }
    }
    let p99_us = metrics.latency_quantile_us(0.99);
    let ceiling_us = config.p99_ceiling.as_micros().min(u128::from(u64::MAX)) as u64;
    if p99_us > ceiling_us {
        failures.push(format!("p99 latency {p99_us}us breaches the {ceiling_us}us ceiling"));
    }
    if config.rss_ceiling_mb > 0 {
        if let Some(peak_kb) = rss_peak_kb() {
            if peak_kb > config.rss_ceiling_mb * 1024 {
                failures.push(format!(
                    "peak RSS {peak_kb} KiB breaches the {} MiB ceiling",
                    config.rss_ceiling_mb
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_survives_faults_and_accounts_every_error() {
        let report = run(&SoakConfig::quick());
        assert!(report.passed(), "soak gate violations: {:#?}", report.failures);
        assert!(report.ok > 0, "healthy traffic must flow");
        assert!(report.panicked >= 1, "panic injection must quarantine");
        assert!(report.shed >= SoakConfig::quick().probes as u64);
        assert!(report.expired >= SoakConfig::quick().probes as u64);
        assert!(report.final_version > 0, "training must have published");
        assert!(report.flushed >= 1, "drain must flush the trained model");
    }

    #[test]
    fn bench_row_merges_into_an_existing_report_and_stands_alone() {
        let report = SoakReport {
            ok: 10,
            shed: 2,
            expired: 1,
            panicked: 3,
            unexpected: 0,
            transport: 0,
            loris_cycles: 1,
            truncated_cycles: 1,
            oversized_cycles: 1,
            reload_rejects: 1,
            reload_accepts: 1,
            crash_cycles: 2,
            promotions: 1,
            metric_shed: 2,
            metric_expired: 1,
            metric_panics: 3,
            metric_respawns: 0,
            requests_total: 17,
            p99_us: 4_096,
            p99_ceiling_us: 500_000,
            rss_peak_kb: None,
            flushed: 1,
            final_version: 5,
            config: SoakConfig::quick(),
            failures: Vec::new(),
        };
        let dir = scratch_dir().join("bench-test");
        std::fs::create_dir_all(&dir).unwrap();

        // Standalone: no existing file -> a serve_soak-suite document.
        let standalone = dir.join("standalone.json");
        report.write_bench_json(&standalone, true).unwrap();
        let doc = json::parse(&std::fs::read(&standalone).unwrap()).unwrap();
        assert_eq!(doc.get("suite").and_then(Json::as_str), Some("serve_soak"));
        let row = doc.get("ops").and_then(|o| o.get("serve_soak")).expect("serve_soak row");
        let speedup = row.get("speedup").and_then(Json::as_f64).unwrap();
        assert!(speedup > 1.0, "ceiling headroom must gate above 1.0, got {speedup}");

        // Merge: an existing loadgen report keeps its suite and ops.
        let merged = dir.join("merged.json");
        std::fs::write(
            &merged,
            "{\"suite\": \"serve\", \"dim\": 2048, \"quick\": true, \"cores\": 4, \
             \"ops\": {\"serve_predict\": {\"scalar_ns\": 2.0, \"packed_ns\": 1.0, \
             \"speedup\": 2.0, \"note\": \"x\"}}}",
        )
        .unwrap();
        report.write_bench_json(&merged, true).unwrap();
        let doc = json::parse(&std::fs::read(&merged).unwrap()).unwrap();
        assert_eq!(doc.get("suite").and_then(Json::as_str), Some("serve"));
        assert!(doc.get("ops").and_then(|o| o.get("serve_predict")).is_some());
        assert!(doc.get("ops").and_then(|o| o.get("serve_soak")).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The serving traffic and its open-loop generator.
//!
//! Independent users send on a schedule whatever the server's state, so
//! the generator is an open loop: request `i` of a phase is due at
//! `start + i / rate`. Two keep-alive connections take the next due
//! request whenever they are free; a request is timed from when it was
//! due, so a stall also charges the requests queued behind it, and the
//! generator's own lateness (send time − due time) is reported.

use crate::report::{jnum, jobj, jstr, Percentile};
use hdc_data::Dataset;
use hdc_serve::Client;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Keep-alive connections of the generator.
pub const CONNECTIONS: usize = 2;
/// One request in this many is a `/v1/train`; the rest are predicts.
pub const TRAIN_EVERY: usize = 10;
/// A request the generator could not send this long after its phase
/// ended is given up as missed.
const GRACE: Duration = Duration::from_secs(1);
/// Predict p99 limit of a ladder rate, in microseconds.
pub const PREDICT_P99_LIMIT_US: f64 = 2_000.0;
/// Generator-lateness p99 limit of a ladder rate, in microseconds.
pub const LATE_P99_LIMIT_US: f64 = 1_000.0;
/// Share of scheduled requests that must succeed at a ladder rate.
pub const MIN_OK_SHARE: f64 = 0.99;

/// What a request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/predict` of one test digit.
    Predict,
    /// `POST /v1/train` of one labeled training digit.
    Train,
}

/// Pre-rendered request bodies, drawn from the digits by the seed.
pub struct Traffic {
    /// `(pixels, body)` of the predict requests.
    pub predicts: Vec<(Vec<u8>, String)>,
    /// `(pixels, label, body)` of the train requests.
    pub trains: Vec<(Vec<u8>, usize, String)>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Traffic {
    /// Draws `count` predict inputs from `test` and `count` train
    /// examples from `train`.
    pub fn new(test: &Dataset, train: &Dataset, seed: u64, count: usize) -> Traffic {
        let mut state = seed ^ 0x5e12_7e00;
        let mut pick = |n: usize| (splitmix(&mut state) % n as u64) as usize;
        let predicts = (0..count)
            .map(|_| {
                let pixels = test.image(pick(test.len())).as_slice().to_vec();
                let body = Client::predict_body("default", &pixels);
                (pixels, body)
            })
            .collect();
        let trains = (0..count)
            .map(|_| {
                let i = pick(train.len());
                let pixels = train.image(i).as_slice().to_vec();
                let body = Client::train_body("default", &pixels, train.label(i));
                (pixels, train.label(i), body)
            })
            .collect();
        Traffic { predicts, trains }
    }

    /// The kind of request `i` of a phase.
    pub fn kind(i: usize) -> Kind {
        if i % TRAIN_EVERY == TRAIN_EVERY - 1 {
            Kind::Train
        } else {
            Kind::Predict
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Answered and checked.
    Ok,
    /// 503: shed by the bounded queue.
    Shed,
    /// 504: expired in the queue.
    Expired,
    /// Any other failure, with its description.
    Failed(String),
}

/// Accounting of one phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Phase name (`low`, `high`, `ladder_1000`, …).
    pub name: String,
    /// Offered rate in requests per second.
    pub rate: f64,
    /// Scheduled length in seconds.
    pub seconds: f64,
    /// Requests due in the phase.
    pub scheduled: usize,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered and checked.
    pub succeeded: usize,
    /// Requests failed, shed and expired ones included.
    pub failed: usize,
    /// 503 answers.
    pub shed: usize,
    /// 504 answers.
    pub expired: usize,
    /// Requests the generator could not send in time.
    pub missed: usize,
    /// Due-to-answer times of succeeded predicts, in microseconds.
    pub predict_us: Vec<f64>,
    /// Due-to-answer times of succeeded (acked) trains, in microseconds.
    pub train_us: Vec<f64>,
    /// Send time minus due time of every sent request, in microseconds.
    pub late_us: Vec<f64>,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Phase {
    /// Whether the phase meets the ladder's limits: predict p99, share
    /// of scheduled requests that succeeded (a failed or unsent request
    /// misses), and generator lateness p99 (no growing backlog).
    pub fn meets_limits(&self) -> bool {
        Percentile::of(&self.predict_us, 0.99).value <= PREDICT_P99_LIMIT_US
            && self.succeeded as f64 >= MIN_OK_SHARE * self.scheduled as f64
            && Percentile::of(&self.late_us, 0.99).value <= LATE_P99_LIMIT_US
    }

    /// The phase's accounting line.
    pub fn line(&self) -> String {
        let pct = |values: &[f64]| {
            jobj(&[
                ("p50", jnum(Percentile::of(values, 0.5).value)),
                ("p99", Percentile::of(values, 0.99).render("us")),
            ])
        };
        jobj(&[
            ("phase", jstr(&self.name)),
            ("rate_rps", jnum(self.rate)),
            ("seconds", jnum(self.seconds)),
            ("scheduled", self.scheduled.to_string()),
            ("sent", self.sent.to_string()),
            ("succeeded", self.succeeded.to_string()),
            ("failed", self.failed.to_string()),
            ("shed_503", self.shed.to_string()),
            ("expired_504", self.expired.to_string()),
            ("missed", self.missed.to_string()),
            ("predict_us", pct(&self.predict_us)),
            ("train_us", pct(&self.train_us)),
            ("late_us", pct(&self.late_us)),
            ("meets_limits", self.meets_limits().to_string()),
        ])
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(100) {
            std::thread::sleep(left - Duration::from_micros(80));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one open-loop phase over `connections`, calling `issue(conn, i)`
/// to send request `i` and check its answer, and returns the accounting
/// together with the connections.
pub fn open_loop<C, F>(
    name: &str,
    connections: Vec<C>,
    rate: f64,
    seconds: f64,
    issue: F,
) -> (Phase, Vec<C>)
where
    C: Send,
    F: Fn(&mut C, usize) -> Status + Sync,
{
    let scheduled = (rate * seconds).round() as usize;
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let cutoff = start + Duration::from_secs_f64(seconds) + GRACE;
    let finished: Vec<(Phase, C)> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .map(|mut conn| {
                let (next, issue) = (&next, &issue);
                scope.spawn(move || {
                    let mut local = Phase::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= scheduled {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due);
                        let sent = Instant::now();
                        if sent > cutoff {
                            local.missed += 1;
                            continue;
                        }
                        local.sent += 1;
                        local.late_us.push((sent - due).as_secs_f64() * 1e6);
                        let status = issue(&mut conn, i);
                        let took = due.elapsed().as_secs_f64() * 1e6;
                        match &status {
                            Status::Ok => {
                                local.succeeded += 1;
                                match Traffic::kind(i) {
                                    Kind::Predict => local.predict_us.push(took),
                                    Kind::Train => local.train_us.push(took),
                                }
                            }
                            Status::Shed => local.shed += 1,
                            Status::Expired => local.expired += 1,
                            Status::Failed(why) => {
                                if local.failures.len() < 5 {
                                    local.failures.push(format!("request {i}: {why}"));
                                }
                            }
                        }
                        if status != Status::Ok {
                            local.failed += 1;
                        }
                    }
                    (local, conn)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let mut phase = Phase { name: name.to_owned(), rate, seconds, scheduled, ..Phase::default() };
    let mut connections = Vec::with_capacity(finished.len());
    for (mut local, conn) in finished {
        phase.sent += local.sent;
        phase.succeeded += local.succeeded;
        phase.failed += local.failed;
        phase.shed += local.shed;
        phase.expired += local.expired;
        phase.missed += local.missed;
        phase.predict_us.append(&mut local.predict_us);
        phase.train_us.append(&mut local.train_us);
        phase.late_us.append(&mut local.late_us);
        phase.failures.append(&mut local.failures);
        connections.push(conn);
    }
    (phase, connections)
}

/// Sends request `i` of `traffic` over `client` and checks the answer: a
/// predict must name a class, a train must report one example trained.
/// A broken connection is replaced.
pub fn issue_http(
    client: &mut Client,
    addr: std::net::SocketAddr,
    traffic: &Traffic,
    i: usize,
) -> Status {
    let (path, body) = match Traffic::kind(i) {
        Kind::Predict => ("/v1/predict", &traffic.predicts[i % traffic.predicts.len()].1),
        Kind::Train => ("/v1/train", &traffic.trains[i % traffic.trains.len()].2),
    };
    let response = match client.post(path, body) {
        Ok(response) => response,
        Err(e) => {
            if let Ok(fresh) = Client::connect(addr) {
                *client = fresh;
            }
            return Status::Failed(format!("transport: {e}"));
        }
    };
    match response.status {
        200 => {}
        503 => return Status::Shed,
        504 => return Status::Expired,
        other => return Status::Failed(format!("status {other}")),
    }
    let Ok(doc) = response.json() else {
        return Status::Failed("unparseable answer".into());
    };
    let ok = match Traffic::kind(i) {
        Kind::Predict => doc.get("class").and_then(|c| c.as_f64()).is_some_and(|c| c >= 0.0),
        Kind::Train => doc.get("trained").and_then(|c| c.as_f64()) == Some(1.0),
    };
    if ok {
        Status::Ok
    } else {
        Status::Failed(format!("unexpected answer {}", String::from_utf8_lossy(&response.body)))
    }
}

//! Write-ahead delta log: the durability layer under online learning.
//!
//! Every registry model with a disk home gets a sidecar `<model>.wal`.
//! The batcher worker — already the single writer for its model —
//! appends each coalesced train/feedback batch as **one fsynced,
//! checksummed, versioned record** *before* publishing the new `Arc`,
//! so a `200` on `/v1/train` or `/v1/feedback` means the update is on
//! stable storage. Startup recovery is then:
//!
//! 1. load the latest snapshot and its version trailer (`HDVS`),
//! 2. replay the WAL records **after** that version, in order,
//! 3. resume the version lineage at the last replayed record.
//!
//! Replay is bit-exact against a process that never crashed because a
//! record logs exactly what the worker applied, in the order it applied
//! it: all coalesced train examples first (bundling is additive, so one
//! `partial_fit_batch` reproduces any grouping), then each *applied*
//! feedback in queue order (feedback is mispredict-gated against the
//! current references, which by induction match the original timeline).
//! A snapshot of the model (`/v1/snapshot`, autosave) truncates the log
//! at the snapshotted version via [`Wal::compact`].
//!
//! The on-disk format is scan-recoverable: a 24-byte header (magic,
//! format, lineage base version, base-file trailer version) followed by
//! length-prefixed, CRC-32-guarded records. [`Wal::open`] tolerates a torn tail — a crash mid-append
//! leaves a short or corrupt final record, which is truncated away so
//! the log ends on the last *complete* record (pinned byte-by-byte in
//! the tests below). Record versions must be contiguous from the base;
//! any gap is treated as corruption at that point.
//!
//! The same records stream to follower replicas over `GET /v1/deltas`
//! (see [`crate::replica`]); [`DeltaRecord::to_json`] /
//! [`DeltaRecord::from_json`] are the wire form.

use crate::json::Json;
use hdc::model::Model;
use hdc::{AnyModel, HdcError};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Log-file magic (`HDWL` = hyperdimensional write-ahead log).
const WAL_MAGIC: [u8; 4] = *b"HDWL";
/// On-disk format version.
const WAL_FORMAT: u32 = 1;
/// Header: magic + format + base version + base-file snapshot version.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;
/// Per-record prefix: body length + CRC-32 of the body.
const RECORD_PREFIX: usize = 4 + 4;
/// A record body larger than this is treated as corruption, not an
/// allocation request (an HTTP body is capped at 32 MiB well upstream).
const MAX_RECORD_BODY: u32 = 1 << 30;
/// Ops per record cap (a drain is at most `max_batch` jobs).
const MAX_RECORD_OPS: u32 = 1 << 20;
/// Input bytes per op cap (mirrors the model-dimension plausibility cap).
const MAX_OP_INPUT: u32 = 1 << 26;

/// Magic of the optional version trailer a durable snapshot appends
/// after the model payload: `HDVS` + version `u64` + trained-examples
/// `u64`. Model loaders never read past their payload, so the trailer
/// is invisible to every pre-existing consumer.
pub const VERSION_TRAILER_MAGIC: [u8; 4] = *b"HDVS";

/// Set-bit counters are rescaled (sign-preserving halving, see
/// [`hdc::HdcClassifier::rescale_counters`]) once any class
/// bundle reaches this size, long before the persisted `u32` counts
/// could saturate at ~4×10⁹. The check runs deterministically at every
/// publish *and* on every replayed record, so recovery reproduces the
/// rescale bit-exactly.
pub const RESCALE_LIMIT: u64 = 1 << 31;

/// One logged model update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// A training example absorbed by `partial_fit_batch`.
    Train {
        /// Raw input bytes (one image).
        input: Vec<u8>,
        /// True class label.
        label: usize,
    },
    /// A feedback example that *applied* (the model mispredicted).
    Feedback {
        /// Raw input bytes (one image).
        input: Vec<u8>,
        /// True class label.
        label: usize,
    },
}

impl DeltaOp {
    fn tag(&self) -> u8 {
        match self {
            DeltaOp::Train { .. } => 0,
            DeltaOp::Feedback { .. } => 1,
        }
    }

    fn input_and_label(&self) -> (&[u8], usize) {
        match self {
            DeltaOp::Train { input, label } | DeltaOp::Feedback { input, label } => (input, *label),
        }
    }
}

/// One published batch: everything the worker applied between two
/// `Arc` publications, stamped with the version that publication got.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRecord {
    /// The model version this batch published as.
    pub version: u64,
    /// The applied updates: trains first, then applied feedbacks, in
    /// execution order.
    pub ops: Vec<DeltaOp>,
    /// The trace id of the first traced request that rode in this batch,
    /// if any — carried on the replication wire form so a write can be
    /// followed leader→follower in `/debug/traces` and the logs. Not
    /// part of the durable binary format (recovery replays by version,
    /// not by request), so records read back from disk carry `None`.
    pub trace: Option<String>,
}

impl DeltaRecord {
    /// Serializes the record body (everything the CRC covers).
    fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(
            8 + 4 + self.ops.iter().map(|op| 9 + op.input_and_label().0.len()).sum::<usize>(),
        );
        body.extend_from_slice(&self.version.to_le_bytes());
        body.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            let (input, label) = op.input_and_label();
            body.push(op.tag());
            body.extend_from_slice(&(label as u32).to_le_bytes());
            body.extend_from_slice(&(input.len() as u32).to_le_bytes());
            body.extend_from_slice(input);
        }
        body
    }

    /// Parses a record body; `None` means malformed (treated as a torn
    /// tail by the scanner).
    fn decode_body(body: &[u8]) -> Option<DeltaRecord> {
        let mut at = 0usize;
        let version = u64::from_le_bytes(body.get(at..at + 8)?.try_into().ok()?);
        at += 8;
        let count = u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?);
        at += 4;
        if count > MAX_RECORD_OPS {
            return None;
        }
        let mut ops = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let tag = *body.get(at)?;
            at += 1;
            let label = u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?) as usize;
            at += 4;
            let len = u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?);
            at += 4;
            if len > MAX_OP_INPUT {
                return None;
            }
            let input = body.get(at..at + len as usize)?.to_vec();
            at += len as usize;
            ops.push(match tag {
                0 => DeltaOp::Train { input, label },
                1 => DeltaOp::Feedback { input, label },
                _ => return None,
            });
        }
        if at != body.len() {
            return None;
        }
        Some(DeltaRecord { version, ops, trace: None })
    }

    /// The replication wire form of this record.
    pub fn to_json(&self) -> Json {
        let ops = self
            .ops
            .iter()
            .map(|op| {
                let (input, label) = op.input_and_label();
                Json::obj([
                    (
                        "op",
                        Json::from(if matches!(op, DeltaOp::Train { .. }) {
                            "train"
                        } else {
                            "feedback"
                        }),
                    ),
                    ("label", Json::from(label)),
                    (
                        "input",
                        Json::from(input.iter().map(|&b| Json::from(b as u64)).collect::<Vec<_>>()),
                    ),
                ])
            })
            .collect::<Vec<_>>();
        let mut fields = vec![("version", Json::from(self.version)), ("ops", Json::from(ops))];
        if let Some(trace) = &self.trace {
            fields.push(("trace", Json::from(trace.as_str())));
        }
        Json::obj(fields)
    }

    /// Parses the replication wire form; `None` means malformed.
    pub fn from_json(doc: &Json) -> Option<DeltaRecord> {
        let version = doc.get("version")?.as_f64()?;
        if version < 0.0 || version.fract() != 0.0 {
            return None;
        }
        let mut ops = Vec::new();
        for op in doc.get("ops")?.as_array()? {
            let label = op.get("label")?.as_f64()?;
            if label < 0.0 || label.fract() != 0.0 {
                return None;
            }
            let mut input = Vec::new();
            for px in op.get("input")?.as_array()? {
                let v = px.as_f64()?;
                if !(0.0..=255.0).contains(&v) || v.fract() != 0.0 {
                    return None;
                }
                input.push(v as u8);
            }
            let label = label as usize;
            ops.push(match op.get("op")?.as_str()? {
                "train" => DeltaOp::Train { input, label },
                "feedback" => DeltaOp::Feedback { input, label },
                _ => return None,
            });
        }
        let trace = doc.get("trace").and_then(Json::as_str).map(str::to_owned);
        Some(DeltaRecord { version: version as u64, ops, trace })
    }
}

/// Replays one record onto `model` exactly the way the worker applied
/// it: every train example in one `partial_fit_batch` (bundling is
/// additive, so coalescing is grouping-invariant), then each applied
/// feedback in order, then the deterministic counter-rescale check.
/// Returns the number of examples applied (trains + feedbacks), the
/// same quantity the original publication counted.
///
/// # Errors
///
/// Propagates model errors ([`HdcError`]) — on a healthy log replay
/// cannot fail, so an error here means the snapshot and the log
/// disagree (e.g. mismatched dimensions) and recovery must abort.
pub fn apply(record: &DeltaRecord, model: &mut AnyModel) -> Result<u64, HdcError> {
    let trains: Vec<(&[u8], usize)> = record
        .ops
        .iter()
        .filter(|op| matches!(op, DeltaOp::Train { .. }))
        .map(DeltaOp::input_and_label)
        .collect();
    let mut applied = 0u64;
    if !trains.is_empty() {
        applied += Model::partial_fit_batch(model, &trains)? as u64;
    }
    for op in &record.ops {
        if let DeltaOp::Feedback { input, label } = op {
            let outcome = model.feedback(input, *label)?;
            applied += u64::from(outcome.updated);
        }
    }
    maybe_rescale(model);
    Ok(applied)
}

/// The deterministic overflow guard, run after every applied batch —
/// live at the publish point and again on every replayed record, so
/// recovery and the uncrashed process make identical rescale decisions.
/// Returns whether a rescale fired.
pub fn maybe_rescale(model: &mut AnyModel) -> bool {
    model.rescale_counters(RESCALE_LIMIT)
}

/// Appends the version trailer a durable snapshot carries after its
/// model payload: magic + version + trained-examples. Model loaders
/// consume exactly the payload and never look past it, so the trailer
/// is invisible to every pre-existing consumer.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_version_trailer<W: Write>(
    writer: &mut W,
    version: u64,
    trained_examples: u64,
) -> io::Result<()> {
    writer.write_all(&VERSION_TRAILER_MAGIC)?;
    writer.write_all(&version.to_le_bytes())?;
    writer.write_all(&trained_examples.to_le_bytes())
}

/// Reads the version trailer from a reader positioned exactly past the
/// model payload (i.e. right after `load_any` returned). `None` means
/// no trailer — a snapshot from before this format, version 0.
pub fn read_version_trailer<R: Read>(reader: &mut R) -> Option<(u64, u64)> {
    let mut buf = [0u8; 20];
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    if buf[..4] != VERSION_TRAILER_MAGIC {
        return None;
    }
    let version = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let examples = u64::from_le_bytes(buf[12..20].try_into().unwrap());
    Some((version, examples))
}

/// The in-memory tail of recently published records, from which
/// `GET /v1/deltas` serves followers. Bounded: once full, the oldest
/// record is evicted and the **floor** rises — a follower that has
/// fallen behind the floor can no longer be served an unbroken record
/// sequence and is told to re-bootstrap from a full snapshot instead.
#[derive(Debug)]
pub struct DeltaRing {
    inner: std::sync::Mutex<RingInner>,
    arrived: std::sync::Condvar,
    cap: usize,
}

#[derive(Debug)]
struct RingInner {
    records: std::collections::VecDeque<Arc<DeltaRecord>>,
    /// The lowest `from` the ring can serve contiguously: the version
    /// just below the oldest retained record. Starts at the model's
    /// initial version and only rises (on eviction).
    floor: u64,
}

impl DeltaRing {
    /// Capacity of the ring: enough to absorb follower poll gaps at
    /// full publish rate without forcing re-bootstraps.
    const CAP: usize = 1024;

    /// An empty ring whose floor is the model's current version.
    pub fn new(initial_version: u64) -> Self {
        Self {
            inner: std::sync::Mutex::new(RingInner {
                records: std::collections::VecDeque::new(),
                floor: initial_version,
            }),
            arrived: std::sync::Condvar::new(),
            cap: Self::CAP,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Re-bases an empty ring (model recovered or reloaded at
    /// `version`); any retained records are discarded.
    pub fn rebase(&self, version: u64) {
        let mut inner = self.lock();
        inner.records.clear();
        inner.floor = version;
        drop(inner);
        self.arrived.notify_all();
    }

    /// Publishes one record to the ring (the single writer calls this
    /// right after publishing the matching model version) and wakes
    /// long-polling followers.
    pub fn push(&self, record: Arc<DeltaRecord>) {
        let mut inner = self.lock();
        debug_assert!(
            inner.records.back().map_or(inner.floor, |r| r.version) + 1 == record.version,
            "delta ring must stay contiguous"
        );
        if inner.records.len() >= self.cap {
            if let Some(evicted) = inner.records.pop_front() {
                inner.floor = evicted.version;
            }
        }
        inner.records.push_back(record);
        drop(inner);
        self.arrived.notify_all();
    }

    /// Collects every retained record with a version above `from`,
    /// long-polling up to `wait` when the follower is already caught
    /// up. Returns `None` when `from` has fallen below the floor — the
    /// unbroken sequence is gone and the follower must re-bootstrap.
    pub fn collect_after(
        &self,
        from: u64,
        wait: std::time::Duration,
    ) -> Option<Vec<Arc<DeltaRecord>>> {
        let deadline = std::time::Instant::now() + wait;
        let mut inner = self.lock();
        loop {
            if from < inner.floor {
                return None;
            }
            let newer: Vec<Arc<DeltaRecord>> =
                inner.records.iter().filter(|r| r.version > from).cloned().collect();
            if !newer.is_empty() {
                return Some(newer);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Some(Vec::new());
            }
            let (next, _timeout) = self
                .arrived
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = next;
        }
    }
}

/// The sidecar log path for a model file: `model.hdc` → `model.hdc.wal`.
pub fn wal_path(model_path: &Path) -> PathBuf {
    let mut os = model_path.as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

/// CRC-32 (IEEE, the zlib polynomial), table built at compile time —
/// std-only, no dependency.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                bit += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    !bytes.iter().fold(!0u32, |c, &b| TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8))
}

/// What a header+record scan of the log bytes found.
struct Scan {
    base_version: u64,
    /// The version trailer of the base model file at the log's last
    /// rebase (init / reset / compact) — ties the log to the file state
    /// its records apply on top of.
    snapshot_version: u64,
    records: Vec<DeltaRecord>,
    /// Byte offset just past the last complete, checksummed, contiguous
    /// record — everything after it is a torn tail.
    good_len: u64,
}

/// Scans `bytes` as a WAL. `Ok(None)` means the file is too short to
/// even hold a header (a crash during creation) and should be
/// reinitialized; `Err` means the header is present but alien or from
/// an unknown format — refuse to touch it.
fn scan(bytes: &[u8], path: &Path) -> io::Result<Option<Scan>> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= 4 && bytes[..4] != WAL_MAGIC {
            return Err(alien(path, "bad magic"));
        }
        return Ok(None);
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(alien(path, "bad magic"));
    }
    let format = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if format != WAL_FORMAT {
        return Err(alien(path, "unknown format version"));
    }
    let base_version = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let snapshot_version = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let mut records = Vec::new();
    let mut at = HEADER_LEN;
    let mut expected = base_version + 1;
    while let Some(prefix) = bytes.get(at..at + RECORD_PREFIX) {
        let len = u32::from_le_bytes(prefix[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
        if len == 0 || len > MAX_RECORD_BODY {
            break;
        }
        let Some(body) = bytes.get(at + RECORD_PREFIX..at + RECORD_PREFIX + len as usize) else {
            break;
        };
        if crc32(body) != crc {
            break;
        }
        let Some(record) = DeltaRecord::decode_body(body) else { break };
        if record.version != expected {
            break;
        }
        expected += 1;
        at += RECORD_PREFIX + len as usize;
        records.push(record);
    }
    Ok(Some(Scan { base_version, snapshot_version, records, good_len: at as u64 }))
}

fn alien(path: &Path, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{} is not a recognizable write-ahead log ({what})", path.display()),
    )
}

/// Renders a header + records into the full file image.
fn render(base_version: u64, snapshot_version: u64, records: &[DeltaRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&WAL_MAGIC);
    out.extend_from_slice(&WAL_FORMAT.to_le_bytes());
    out.extend_from_slice(&base_version.to_le_bytes());
    out.extend_from_slice(&snapshot_version.to_le_bytes());
    for record in records {
        let body = record.encode_body();
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
    }
    out
}

/// Fsyncs the directory containing `path`, so a fresh file or a rename
/// survives a crash of the directory itself. Best-effort off Unix.
fn sync_parent(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// Atomically replaces `path` with `bytes` (tmp + fsync + rename +
/// parent fsync) and reopens it positioned at the end for appending.
fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<File> {
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(format!(".tmp-{}", std::process::id()));
        PathBuf::from(os)
    };
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    sync_parent(path)?;
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    file.seek(SeekFrom::End(0))?;
    Ok(file)
}

/// An open, append-positioned write-ahead log. The batcher worker is
/// the only appender; snapshot-driven compaction serializes against it
/// through the registry's per-model `Mutex<Option<Wal>>`.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    base_version: u64,
    snapshot_version: u64,
    last_version: u64,
    len: u64,
    /// Set when a failed append could not be rolled back: the on-disk
    /// tail is unknown, so further appends must be refused (recovery at
    /// next open will land on the last complete record).
    broken: bool,
}

impl Wal {
    /// Opens (or creates) the log at `path` and returns it together with
    /// the records to replay on top of the base model file, whose
    /// version trailer reads `file_version`. A torn tail is truncated
    /// away. Which records replay follows from comparing `file_version`
    /// with the trailer the header recorded at the log's last rebase:
    ///
    /// * **equal** — the file is exactly the state the log is based on:
    ///   replay *every* record (a reload may legitimately rebase the log
    ///   at a lineage version unrelated to the file's trailer, so no
    ///   version filter applies here);
    /// * **file newer** — the model was re-snapshotted over its home
    ///   after the log's rebase (a crash landed between the snapshot
    ///   rename and the log compaction): records at or below the trailer
    ///   are already baked into the file, replay only those above it;
    /// * **file older** — the home file was replaced by an older
    ///   snapshot out-of-band: the records no longer connect to it, so
    ///   the log resets to the file (nothing replays).
    ///
    /// # Errors
    ///
    /// I/O failures, plus [`io::ErrorKind::InvalidData`] when `path`
    /// exists but is not a WAL of a known format.
    pub fn open(path: &Path, file_version: u64) -> io::Result<(Wal, Vec<DeltaRecord>)> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let fresh = |path: &Path| -> io::Result<(Wal, Vec<DeltaRecord>)> {
            let file = replace_file(path, &render(file_version, file_version, &[]))?;
            Ok((
                Wal {
                    file,
                    path: path.to_owned(),
                    base_version: file_version,
                    snapshot_version: file_version,
                    last_version: file_version,
                    len: HEADER_LEN as u64,
                    broken: false,
                },
                Vec::new(),
            ))
        };
        let scanned = scan(&bytes, path)?;
        let Some(scanned) = scanned else {
            // Absent or created-then-crashed: initialize fresh.
            return fresh(path);
        };
        if scanned.snapshot_version > file_version {
            return fresh(path);
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if scanned.good_len < bytes.len() as u64 {
            file.set_len(scanned.good_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scanned.good_len))?;
        let last_version = scanned.records.last().map_or(scanned.base_version, |r| r.version);
        let replay = if scanned.snapshot_version == file_version {
            scanned.records
        } else {
            scanned.records.into_iter().filter(|r| r.version > file_version).collect()
        };
        Ok((
            Wal {
                file,
                path: path.to_owned(),
                base_version: scanned.base_version,
                snapshot_version: scanned.snapshot_version,
                last_version,
                len: scanned.good_len,
                broken: false,
            },
            replay,
        ))
    }

    /// The lineage version the log's records continue from.
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// The base model file's trailer version at the log's last rebase.
    pub fn snapshot_version(&self) -> u64 {
        self.snapshot_version
    }

    /// The version of the last complete record (the base version when
    /// the log is empty).
    pub fn last_version(&self) -> u64 {
        self.last_version
    }

    /// The log's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs it — the durability point: only
    /// after this returns may the corresponding model version publish
    /// (and its requests be acknowledged). Record versions must be
    /// contiguous.
    ///
    /// # Errors
    ///
    /// I/O failures. A failed append is rolled back (the file truncated
    /// to its pre-append length); if even the rollback fails the log
    /// refuses further appends until reopened.
    pub fn append(&mut self, record: &DeltaRecord) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other("write-ahead log is in an unknown torn state"));
        }
        if record.version != self.last_version + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "non-contiguous WAL append: record {} after {}",
                    record.version, self.last_version
                ),
            ));
        }
        let body = record.encode_body();
        let mut framed = Vec::with_capacity(RECORD_PREFIX + body.len());
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(&body).to_le_bytes());
        framed.extend_from_slice(&body);
        let write = self.file.write_all(&framed).and_then(|()| self.file.sync_data());
        if let Err(e) = write {
            if self.file.set_len(self.len).and_then(|()| self.file.seek(SeekFrom::End(0))).is_err()
            {
                self.broken = true;
            }
            return Err(e);
        }
        self.len += framed.len() as u64;
        self.last_version = record.version;
        Ok(())
    }

    /// Truncates the log at `version`: records at or below it are
    /// dropped and the base becomes `version` — called after a snapshot
    /// of the model at `version` has durably landed, so the dropped
    /// records are redundant. Atomic (tmp + rename).
    ///
    /// # Errors
    ///
    /// I/O failures; the log stays usable on error (the old file is
    /// only ever replaced whole).
    pub fn compact(&mut self, version: u64) -> io::Result<()> {
        let base = version.max(self.base_version);
        let bytes = std::fs::read(&self.path)?;
        let records = match scan(&bytes, &self.path)? {
            Some(scanned) => scanned.records,
            None => Vec::new(),
        };
        let keep: Vec<DeltaRecord> = records.into_iter().filter(|r| r.version > base).collect();
        let image = render(base, base, &keep);
        self.file = replace_file(&self.path, &image)?;
        self.len = image.len() as u64;
        self.base_version = base;
        self.snapshot_version = base;
        self.last_version = keep.last().map_or(base.max(self.last_version), |r| r.version);
        self.broken = false;
        Ok(())
    }

    /// Resets the log to an empty one based at lineage `version` on a
    /// model file whose trailer reads `file_version`, discarding every
    /// record — the semantics of an operator-driven `/v1/reload`: the
    /// reloaded file is now authoritative, whatever the log said.
    ///
    /// # Errors
    ///
    /// I/O failures; the log stays usable on error.
    pub fn reset(&mut self, version: u64, file_version: u64) -> io::Result<()> {
        let image = render(version, file_version, &[]);
        self.file = replace_file(&self.path, &image)?;
        self.len = image.len() as u64;
        self.base_version = version;
        self.snapshot_version = file_version;
        self.last_version = version;
        self.broken = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdc-wal-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn record(version: u64, stride: usize) -> DeltaRecord {
        DeltaRecord {
            version,
            ops: vec![
                DeltaOp::Train {
                    input: (0..stride).map(|i| (i * 7 + version as usize) as u8).collect(),
                    label: version as usize % 3,
                },
                DeltaOp::Feedback {
                    input: (0..stride).map(|i| (i * 13 + version as usize) as u8).collect(),
                    label: (version as usize + 1) % 3,
                },
            ],
            trace: None,
        }
    }

    #[test]
    fn replay_rescales_a_converted_legacy_model_bit_identically() {
        // The legacy `HDC1` fixture with its stored counts raised to the
        // limit: conversion keeps them as the bundle sizes, so the rescale
        // check after one replayed record fires — for a model that was
        // written by the sum-based classifier — and predictions and
        // references match an unrescaled twin that took the same update.
        let mut bytes = include_bytes!("../../hdc/tests/fixtures/legacy_hdc1.bin").to_vec();
        let class_bytes = 8 + 64 * 4;
        for (class, count) in [RESCALE_LIMIT, RESCALE_LIMIT + 1].into_iter().enumerate() {
            let offset = 4 + 48 + 8 + class * class_bytes;
            bytes[offset..offset + 8].copy_from_slice(&count.to_le_bytes());
        }
        let mut model = hdc::io::load_any(&bytes[..]).unwrap();
        assert_eq!(model.counter(0).unwrap().count() as u64, RESCALE_LIMIT);
        let record = DeltaRecord {
            version: 1,
            ops: vec![DeltaOp::Train { input: vec![9u8; 16], label: 1 }],
            trace: None,
        };
        let mut twin = model.clone();
        Model::partial_fit_batch(&mut twin, &[(&[9u8; 16][..], 1)]).unwrap();

        assert_eq!(apply(&record, &mut model).unwrap(), 1);
        for class in 0..2 {
            assert!(
                (model.counter(class).unwrap().count() as u64) < RESCALE_LIMIT,
                "class {class}"
            );
            assert_eq!(
                model.associative_memory().reference(class).unwrap(),
                twin.associative_memory().reference(class).unwrap(),
                "class {class}: rescale changed the reference"
            );
        }
        for v in [0u8, 60, 120, 180, 240] {
            assert_eq!(model.predict(&[v; 16][..]).unwrap(), twin.predict(&[v; 16][..]).unwrap());
        }
        assert!(!maybe_rescale(&mut model), "rescaled counters are far below the limit");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value, plus an empty-input identity.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_reopen_round_trips_records() {
        let path = scratch("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, replay) = Wal::open(&path, 0).unwrap();
        assert!(replay.is_empty());
        for v in 1..=5 {
            wal.append(&record(v, 16)).unwrap();
        }
        assert_eq!(wal.last_version(), 5);
        drop(wal);

        let (wal, replay) = Wal::open(&path, 0).unwrap();
        assert_eq!(replay.len(), 5);
        for (i, r) in replay.iter().enumerate() {
            assert_eq!(*r, record(i as u64 + 1, 16));
        }
        assert_eq!(wal.base_version(), 0);
        assert_eq!(wal.last_version(), 5);

        // A snapshot-filtered open replays only the tail.
        let (_, replay) = Wal::open(&path, 3).unwrap();
        assert_eq!(replay.iter().map(|r| r.version).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn torn_tail_at_every_byte_boundary_recovers_the_last_complete_record() {
        // Satellite: truncate the log at EVERY byte boundary of its
        // final record; recovery must land exactly on the last complete
        // record, never on garbage and never losing a complete one.
        let path = scratch("torn.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 0).unwrap();
        wal.append(&record(1, 8)).unwrap();
        wal.append(&record(2, 8)).unwrap();
        let two_records = std::fs::read(&path).unwrap();
        wal.append(&record(3, 8)).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        assert!(full.len() > two_records.len());

        for cut in two_records.len()..full.len() {
            let torn_path = scratch("torn-cut.wal");
            std::fs::write(&torn_path, &full[..cut]).unwrap();
            let (wal, replay) = Wal::open(&torn_path, 0).unwrap();
            assert_eq!(replay.len(), 2, "cut at {cut} must keep exactly the 2 complete records");
            assert_eq!(wal.last_version(), 2, "cut at {cut}");
            // The torn bytes are gone from disk: the file ends on the
            // last complete record and appending resumes cleanly.
            assert_eq!(std::fs::read(&torn_path).unwrap(), two_records, "cut at {cut}");
            let mut wal = wal;
            wal.append(&record(3, 8)).unwrap();
            let (_, replay) = Wal::open(&torn_path, 0).unwrap();
            assert_eq!(replay.len(), 3, "re-append after truncation at {cut}");
        }
        // And the untruncated file keeps all three.
        let (_, replay) = Wal::open(&path, 0).unwrap();
        assert_eq!(replay.len(), 3);
    }

    #[test]
    fn corrupt_middle_record_drops_it_and_everything_after() {
        let path = scratch("corrupt.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 0).unwrap();
        wal.append(&record(1, 8)).unwrap();
        let one_record = std::fs::read(&path).unwrap().len();
        wal.append(&record(2, 8)).unwrap();
        wal.append(&record(3, 8)).unwrap();
        drop(wal);

        // Flip a byte inside record 2's body: the CRC must reject it,
        // and record 3 — though intact — is unreachable past the tear.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[one_record + RECORD_PREFIX + 9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (wal, replay) = Wal::open(&path, 0).unwrap();
        assert_eq!(replay.iter().map(|r| r.version).collect::<Vec<_>>(), vec![1]);
        assert_eq!(wal.last_version(), 1);
    }

    #[test]
    fn compact_drops_records_at_or_below_the_snapshot_version() {
        let path = scratch("compact.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 0).unwrap();
        for v in 1..=6 {
            wal.append(&record(v, 8)).unwrap();
        }
        wal.compact(4).unwrap();
        assert_eq!(wal.base_version(), 4);
        assert_eq!(wal.last_version(), 6);
        // Appending continues seamlessly after compaction.
        wal.append(&record(7, 8)).unwrap();
        drop(wal);
        let (wal, replay) = Wal::open(&path, 4).unwrap();
        assert_eq!(replay.iter().map(|r| r.version).collect::<Vec<_>>(), vec![5, 6, 7]);
        assert_eq!(wal.base_version(), 4);
    }

    #[test]
    fn reset_discards_everything_and_rebases() {
        let path = scratch("reset.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 0).unwrap();
        for v in 1..=3 {
            wal.append(&record(v, 8)).unwrap();
        }
        wal.reset(9, 0).unwrap();
        assert_eq!((wal.base_version(), wal.last_version()), (9, 9));
        wal.append(&record(10, 8)).unwrap();
        drop(wal);
        // The rebased log replays in full against the same (trailer-0)
        // file, even though its lineage base is far ahead of the trailer.
        let (_, replay) = Wal::open(&path, 0).unwrap();
        assert_eq!(replay.iter().map(|r| r.version).collect::<Vec<_>>(), vec![10]);
    }

    #[test]
    fn stale_log_ahead_of_the_snapshot_is_reset_not_replayed() {
        // If the snapshot file was replaced by an OLDER one out-of-band,
        // the log's records no longer connect to it: replaying them
        // would corrupt the model, so the log must reset instead.
        let path = scratch("stale.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 10).unwrap();
        wal.append(&record(11, 8)).unwrap();
        drop(wal);
        let (wal, replay) = Wal::open(&path, 7).unwrap();
        assert!(replay.is_empty());
        assert_eq!((wal.base_version(), wal.last_version()), (7, 7));
    }

    #[test]
    fn non_contiguous_appends_are_refused() {
        let path = scratch("gap.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, 0).unwrap();
        wal.append(&record(1, 8)).unwrap();
        let err = wal.append(&record(3, 8)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The refused append left no trace.
        drop(wal);
        let (_, replay) = Wal::open(&path, 0).unwrap();
        assert_eq!(replay.len(), 1);
    }

    #[test]
    fn alien_files_are_refused_not_clobbered() {
        let path = scratch("alien.wal");
        std::fs::write(&path, b"HDC1 this is a model, not a log, hands off").unwrap();
        let err = Wal::open(&path, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Untouched.
        assert!(std::fs::read(&path).unwrap().starts_with(b"HDC1"));
    }

    #[test]
    fn json_wire_form_round_trips() {
        let original = record(42, 16);
        let rendered = original.to_json().render();
        let parsed = crate::json::parse(rendered.as_bytes()).unwrap();
        let back = DeltaRecord::from_json(&parsed).unwrap();
        assert_eq!(back, original);
        // The trace id survives the wire (it is replication-only: the
        // binary disk form never carries it, as `record()` shows).
        let traced = DeltaRecord { trace: Some("a1b2c3".to_owned()), ..record(43, 8) };
        let rendered = traced.to_json().render();
        let back = DeltaRecord::from_json(&crate::json::parse(rendered.as_bytes()).unwrap());
        assert_eq!(back.unwrap(), traced);
        // Malformed wire forms are rejected, not misparsed.
        let bad = crate::json::parse(b"{\"version\": -1, \"ops\": []}").unwrap();
        assert!(DeltaRecord::from_json(&bad).is_none());
        let bad = crate::json::parse(
            b"{\"version\": 1, \"ops\": [{\"op\": \"mystery\", \"label\": 0, \"input\": []}]}",
        )
        .unwrap();
        assert!(DeltaRecord::from_json(&bad).is_none());
    }
}

//! The shipped server as a child process: `hdtest-cli serve` with every
//! default, started on a fresh copy of the model file.

use std::error::Error;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds the release `hdtest-cli` from the repository's own workspace
/// into this executable's target directory and returns its path. A
/// no-op when it is up to date.
///
/// # Errors
///
/// A failed build.
pub fn cli_binary() -> Result<PathBuf, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut dir = exe.parent().ok_or("executable has no directory")?;
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir = dir.parent().ok_or("deps directory has no parent")?;
    }
    let target = dir.parent().ok_or("profile directory has no parent")?;
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "hdtest-cli", "--manifest-path"])
        .arg(&workspace)
        .arg("--target-dir")
        .arg(target)
        .stdin(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("building hdtest-cli failed: {status}").into());
    }
    Ok(target.join("release").join(format!("hdtest-cli{}", std::env::consts::EXE_SUFFIX)))
}

/// The serving settings the binary reported at start-up.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// The start-up line's settings, verbatim.
    pub line: String,
    /// Connection threads of the accept pool.
    pub accept_pool: usize,
    /// Largest coalesced predict batch.
    pub max_batch: usize,
    /// Coalescing linger in microseconds.
    pub linger_us: u64,
    /// Job queue bound.
    pub max_queue: usize,
    /// Queue deadline in milliseconds.
    pub queue_deadline_ms: u64,
    /// Predict executor threads per model.
    pub predict_workers: usize,
}

impl ServeConfig {
    /// Parses `(8 workers, max batch 64, linger 200us, queue 1024 jobs /
    /// 5000ms deadline, 2 predict executor(s))` from the start-up line.
    fn parse(line: &str) -> Option<ServeConfig> {
        let settings = &line[line.find(" (")? + 2..line.rfind(')')?];
        let number = |prefix: &str, suffix: &str| -> Option<u64> {
            let part = settings.split(',').flat_map(|p| p.split('/')).find(|p| {
                let p = p.trim();
                p.starts_with(prefix) && p.ends_with(suffix)
            })?;
            let p = part.trim();
            p[prefix.len()..p.len() - suffix.len()].trim().parse().ok()
        };
        Some(ServeConfig {
            line: settings.to_owned(),
            accept_pool: number("", " workers")? as usize,
            max_batch: number("max batch", "")? as usize,
            linger_us: number("linger", "us")?,
            max_queue: number("queue", " jobs")? as usize,
            queue_deadline_ms: number("", "ms deadline")?,
            predict_workers: number("", " predict executor(s)")? as usize,
        })
    }
}

/// A running `hdtest-cli serve`; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// Its reported settings.
    pub config: ServeConfig,
    /// Process start until `/healthz` answered 200.
    pub setup: Duration,
}

impl ServerProcess {
    /// Starts the binary on `model` (which it opens, with its WAL
    /// sidecar, in place) on an ephemeral port and waits until
    /// `/healthz` is ready.
    ///
    /// # Errors
    ///
    /// Spawn failures, an unparseable start-up line, or no readiness
    /// within 60 s.
    pub fn start(binary: &Path, model: &Path) -> Result<ServerProcess, Box<dyn Error>> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0", "--model"])
            .arg(model)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("child stdout not piped")?);
        let mut process = ServerProcess {
            child,
            drain: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            config: ServeConfig::default(),
            setup: Duration::ZERO,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                return Err("hdtest-cli serve exited before it started serving".into());
            }
            if let Some(rest) = line.trim().strip_prefix("serving ") {
                let addr = rest.split("http://").nth(1).and_then(|s| s.split_whitespace().next());
                process.addr = addr.ok_or("no address in start-up line")?.parse()?;
                process.config = ServeConfig::parse(rest).ok_or("unparseable start-up line")?;
                break;
            }
        }
        // Keep draining stdout so the server never blocks on a full pipe.
        process.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        }));
        let deadline = started + Duration::from_secs(60);
        loop {
            let ready = hdc_serve::Client::connect(process.addr)
                .and_then(|mut c| c.get("/healthz"))
                .is_ok_and(|r| r.status == 200);
            if ready {
                process.setup = started.elapsed();
                return Ok(process);
            }
            if Instant::now() > deadline {
                return Err("hdtest-cli serve never became ready".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_start_up_line() {
        let line = "serving 1 model(s) on http://127.0.0.1:4000 (8 workers, max batch 64, \
                    linger 200us, queue 1024 jobs / 5000ms deadline, 2 predict executor(s))";
        let config = ServeConfig::parse(line).expect("parses");
        assert_eq!(config.accept_pool, 8);
        assert_eq!(config.max_batch, 64);
        assert_eq!(config.linger_us, 200);
        assert_eq!(config.max_queue, 1024);
        assert_eq!(config.queue_deadline_ms, 5000);
        assert_eq!(config.predict_workers, 2);
    }
}

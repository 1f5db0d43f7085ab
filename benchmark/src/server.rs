//! One lifetime of the real `lotusx-serve` binary as a child process:
//! spawn (timed until it prints `listening on`), `/stats` scrapes on a
//! control connection, `/proc` readings, and a graceful stop.

use crate::client::{render_request, Conn};
use crate::procfs::{self, CpuTicks};
use lotusx_obs::{parse_json, JsonValue};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to die after it acknowledged `/shutdown`.
const EXIT_GRACE: Duration = Duration::from_secs(10);

pub struct ServerProcess {
    child: Child,
    /// Held open so that the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn until the `listening on` line: the boot time a user waits.
    pub boot: Duration,
    control: Conn,
}

/// The counters of one `/stats` scrape that the benchmark gates on or
/// derives layer metrics from.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    pub server: Vec<(String, u64)>,
    pub counters: Vec<(String, u64)>,
    /// Per stage: `(count, sum_ns)`.
    pub stages: Vec<(String, u64, u64)>,
}

impl Scrape {
    pub fn server(&self, name: &str) -> u64 {
        lookup(&self.server, name)
    }

    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name)
    }

    pub fn stage(&self, name: &str) -> (u64, u64) {
        self.stages
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or((0, 0), |(_, count, sum)| (*count, *sum))
    }
}

fn lookup(pairs: &[(String, u64)], name: &str) -> u64 {
    pairs.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

fn numbers(obj: Option<&JsonValue>) -> Vec<(String, u64)> {
    obj.and_then(JsonValue::as_obj)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
                .collect()
        })
        .unwrap_or_default()
}

/// Extracts a [`Scrape`] from a `/stats` body.
pub fn parse_stats(body: &str) -> Result<Scrape, String> {
    let doc = parse_json(body).map_err(|e| format!("/stats is not JSON: {e}"))?;
    let server = numbers(doc.get("server"));
    if server.is_empty() {
        return Err("/stats has no server section".to_string());
    }
    let metrics = doc.get("metrics");
    let counters = numbers(metrics.and_then(|m| m.get("counters")));
    let stages = metrics
        .and_then(|m| m.get("stages"))
        .and_then(JsonValue::as_obj)
        .map(|stages| {
            stages
                .iter()
                .map(|(name, h)| {
                    let field = |k: &str| h.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
                    (name.clone(), field("count") as u64, field("sum_ns") as u64)
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(Scrape {
        server,
        counters,
        stages,
    })
}

impl ServerProcess {
    /// Spawns `bin` with `--threads 1` on an ephemeral loopback port and
    /// waits for it to listen. stderr goes to `log` (truncated).
    pub fn spawn(
        bin: &Path,
        corpus_args: &[String],
        extra: &[String],
        log: &Path,
    ) -> Result<Self, String> {
        let log_file =
            std::fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--threads", "1"])
            .args(corpus_args)
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "server exited before listening; see {}",
                        log.display()
                    ));
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        break addr.parse::<SocketAddr>().map_err(|e| {
                            let _ = child.kill();
                            let _ = child.wait();
                            format!("bad listen address {addr:?}: {e}")
                        })?;
                    }
                }
            }
        };
        let boot = started.elapsed();
        let control = Conn::connect(addr).map_err(|e| {
            let _ = child.kill();
            let _ = child.wait();
            format!("control connection: {e}")
        })?;
        Ok(ServerProcess {
            child,
            _stdout: stdout,
            addr,
            boot,
            control,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /stats` on the control connection (opened at spawn, so a
    /// scrape never shows up as an accepted connection of its own).
    pub fn scrape(&mut self) -> Result<Scrape, String> {
        let request = render_request("GET", "/stats", None, false, "");
        self.control
            .send(&request)
            .map_err(|e| format!("/stats: {e}"))?;
        let digest = self.control.recv().map_err(|e| format!("/stats: {e}"))?;
        if digest.status != 200 {
            return Err(format!("/stats answered {}", digest.status));
        }
        parse_stats(&String::from_utf8_lossy(self.control.body()))
    }

    pub fn cpu_ticks(&self) -> Result<CpuTicks, String> {
        procfs::cpu_ticks(Some(self.pid())).map_err(|e| format!("server cpu time: {e}"))
    }

    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        procfs::vm_hwm_kb(self.pid()).map_err(|e| format!("server peak rss: {e}"))
    }

    /// `POST /shutdown`, then waits for the process to end. Closing
    /// stdin lets the server's control thread return at once.
    pub fn shutdown(mut self) -> Result<(), String> {
        let request = render_request("POST", "/shutdown", None, true, "{}");
        let stopped = self
            .control
            .send(&request)
            .and_then(|_| self.control.recv())
            .map(|d| d.status == 200)
            .unwrap_or(false);
        drop(self.child.stdin.take());
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if stopped && status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server ended badly: {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) | Err(_) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not stop after /shutdown; killed".to_string());
                }
            }
        }
    }
}

impl Drop for ServerProcess {
    /// Error paths: never leave a server behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_body_parses_into_sections() {
        let body = r#"{
"server": {"requests":3,"rejected":0,"panics":0,"connections_accepted":2},
"tenants": {},
"metrics": {
  "stages": {"http_compute": {"count":2,"sum_ns":500,"mean_ns":250},
             "http_flush": {"count":0,"sum_ns":0}},
  "counters": {"cache_hit": 5, "cache_miss": 1, "algo_chosen_pathstack": 1}
}}"#;
        let s = parse_stats(body).unwrap();
        assert_eq!(s.server("requests"), 3);
        assert_eq!(s.server("absent"), 0);
        assert_eq!(s.counter("cache_hit"), 5);
        assert_eq!(s.stage("http_compute"), (2, 500));
        assert_eq!(s.stage("nope"), (0, 0));
        assert_eq!(s.counter("algo_chosen_pathstack"), 1);
        assert!(parse_stats("{}").is_err());
        assert!(parse_stats("not json").is_err());
    }
}

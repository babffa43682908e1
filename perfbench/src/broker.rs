//! The broker process: this binary re-executed with `--broker`.
//!
//! The child builds the cluster (durable under the data dir the parent
//! owns), creates the workload topic, prefills the backlog, serves it
//! behind a `WireServer`, and prints `addr <host:port>`. It runs until
//! its stdin closes, then prints `vmhwm_kb <n>` (its peak resident
//! set) and exits, so it never outlives the benchmark.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use octopus_broker::{Cluster, RecordBatch};
use octopus_types::obs::TraceContext;
use octopus_types::Event;
use octopus_wire::{Authenticator, WireServer, WireServerConfig};

use crate::workload::{partition_keys, Generator, Workload, BROKERS, TOPIC};

/// Events per partition in one prefill batch (the SDK's default
/// `batch_events`).
const PREFILL_BATCH: u64 = 500;

/// Child entry point.
pub fn serve(w: &Workload, seed: u64, data_dir: Option<&Path>) -> Result<(), String> {
    let mut builder = Cluster::builder(BROKERS);
    if let (Some(dir), Some(policy)) = (data_dir, w.flush) {
        builder = builder.data_dir(dir).flush_policy(policy);
    }
    let cluster = builder
        .try_build()
        .map_err(|e| format!("build cluster: {e}"))?;
    cluster
        .create_topic(TOPIC, w.topic_config())
        .map_err(|e| format!("create topic: {e}"))?;
    prefill(&cluster, w, seed)?;
    let mut server = WireServer::bind(
        cluster,
        Authenticator::open(),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "addr {}", server.local_addr())
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    // Block until the parent closes our stdin (exit, abort or kill).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    writeln!(out, "vmhwm_kb {}", peak_rss_kb())
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    server.shutdown();
    Ok(())
}

/// Write events `0..w.prefill` straight into the cluster, batched per
/// partition the way the SDK would batch them.
fn prefill(cluster: &Cluster, w: &Workload, seed: u64) -> Result<(), String> {
    let gen = Generator::new(w, seed);
    let keys = partition_keys(w.partitions);
    let parts = w.partitions as u64;
    let mut seq = 0;
    while seq < w.prefill {
        let chunk_end = (seq + PREFILL_BATCH * parts).min(w.prefill);
        for p in 0..parts {
            let events: Vec<Event> = (seq..chunk_end)
                .filter(|s| s % parts == p)
                .map(|s| {
                    Event::builder()
                        .key(keys[p as usize].clone())
                        .payload(gen.payload(s, 0))
                        .header(
                            octopus_types::obs::TRACE_HEADER,
                            TraceContext::fresh().encode(),
                        )
                        .build()
                })
                .collect();
            if events.is_empty() {
                continue;
            }
            cluster
                .produce_batch(TOPIC, p as u32, RecordBatch::new(events), w.acks())
                .map_err(|e| format!("prefill: {e}"))?;
        }
        seq = chunk_end;
    }
    Ok(())
}

/// `VmHWM` of this process in KiB (0 where /proc is unavailable).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Parent-side handle on the broker child.
pub struct BrokerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl BrokerProcess {
    /// Spawn the child and wait for its listen address.
    pub fn spawn(w: &Workload, seed: u64, data_dir: Option<&Path>) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.args([
            "--broker",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
        ]);
        if let Some(dir) = data_dir {
            cmd.arg("--data").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn broker: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut proc = BrokerProcess {
            child,
            stdin,
            stdout,
            addr: String::new(),
        };
        proc.addr = proc.read_tagged("addr")?;
        Ok(proc)
    }

    fn read_tagged(&mut self, tag: &str) -> Result<String, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err(format!("broker process exited before reporting {tag}"));
            }
            if let Some(v) = line
                .trim_end()
                .strip_prefix(tag)
                .and_then(|v| v.strip_prefix(' '))
            {
                return Ok(v.to_string());
            }
        }
    }

    /// Close the child's stdin, collect its peak RSS (KiB), and reap it.
    pub fn shutdown(mut self) -> Result<u64, String> {
        drop(self.stdin.take());
        let kb = self
            .read_tagged("vmhwm_kb")
            .and_then(|v| v.parse().map_err(|e| format!("{e}")));
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("broker process exited with {status}"));
        }
        kb
    }
}

impl Drop for BrokerProcess {
    fn drop(&mut self) {
        // Still running only when the run aborted before `shutdown`:
        // close stdin first so the child can exit on its own, then make
        // sure it is gone.
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

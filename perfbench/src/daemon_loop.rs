//! The daemon workload: an in-process `chronosd::Daemon` driven through
//! two `chronosd::Client` connections.
//!
//! The control connection (benchmark main thread) submits, checkpoints,
//! syncs, resumes, reports and forgets, and between those requests runs
//! a closed loop of `status` requests with a fixed think time. The watch
//! connection (one helper thread) follows each job's `watch` push stream
//! and timestamps the snapshot line that carries the awaited state, so
//! completion times are not rounded to a polling interval.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chronosd::{Client, Daemon, DaemonConfig, DaemonObs, Json};
use obs::{Level, Logger};

use crate::fleet_loop::EngineReading;
use crate::trace::Tracer;

/// Think time of the closed `status` loop on the control connection.
pub const STATUS_THINK: Duration = Duration::from_millis(10);

/// Longest wait for a job to reach an awaited state.
const WAIT_LIMIT: Duration = Duration::from_secs(150);

/// A job name and the wire state the watcher waits for.
struct WatchOrder {
    job: String,
    target: &'static str,
}

/// When the awaited state was read off the watch stream.
type WatchResult = Result<Instant, String>;

/// One daemon iteration's timings and result.
#[derive(Debug)]
pub struct DaemonSample {
    /// `submit` sent until the resumed job's report is in hand.
    pub report_s: f64,
    /// Job reached `paused` until the resumed job was accepted
    /// (`checkpoint`, `sync` and `resume` requests).
    pub resume_s: f64,
    /// `submit` round trip.
    pub submit_s: f64,
    /// `checkpoint` round trip.
    pub checkpoint_request_s: f64,
    /// `sync` round trip.
    pub sync_s: f64,
    /// `resume` round trip.
    pub resume_request_s: f64,
    /// `report` round trip.
    pub report_request_s: f64,
    /// `status` round trips of the closed loop.
    pub status_rtts: Vec<f64>,
    /// Largest state-dir manifest seen after a `sync` or `forget`.
    pub manifest_bytes: u64,
    /// Slices the worker pool stepped.
    pub slices: u64,
    /// Engine instruments recorded inside the daemon.
    pub engine: EngineReading,
    /// The resumed job's report as the daemon rendered it.
    pub report_bytes: String,
}

/// A running daemon plus the benchmark's two connections to it.
#[derive(Debug)]
pub struct DaemonHarness {
    dir: PathBuf,
    obs: Arc<DaemonObs>,
    server: Option<JoinHandle<std::io::Result<()>>>,
    ctl: Option<Client>,
    orders: Option<Sender<WatchOrder>>,
    events: Receiver<WatchResult>,
    watcher: Option<JoinHandle<()>>,
    iterations: u64,
}

fn fail(what: &str) -> impl Fn(chronosd::ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl DaemonHarness {
    /// Starts a daemon with one worker and a fresh state dir under `dir`
    /// (created empty), connects and handshakes both connections.
    pub fn start(dir: &Path, tracer: &mut Tracer) -> Result<DaemonHarness, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let t0 = Instant::now();
        let daemon = Daemon::bind_with_config(
            &socket,
            DaemonObs::new(Logger::stderr(Level::Error)),
            DaemonConfig {
                state_dir: Some(dir.join("state")),
                workers: Some(1),
                ..DaemonConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let obs = daemon.observability();
        let server = std::thread::spawn(move || daemon.serve());
        let t1 = Instant::now();
        let connect = || -> Result<Client, String> {
            let mut client = Client::connect(&socket).map_err(fail("connect"))?;
            client.handshake().map_err(fail("handshake"))?;
            Ok(client)
        };
        let connected = connect().and_then(|ctl| Ok((ctl, connect()?)));
        let t2 = Instant::now();
        tracer.record("chronosd.daemon.bind", None, t0, t1);
        tracer.record("chronosd.daemon.connect", None, t1, t2);
        let (orders, order_rx) = mpsc::channel::<WatchOrder>();
        let (event_tx, events) = mpsc::channel::<WatchResult>();
        let mut harness = DaemonHarness {
            dir: dir.to_path_buf(),
            obs,
            server: Some(server),
            ctl: None,
            orders: Some(orders),
            events,
            watcher: None,
            iterations: 0,
        };
        let (ctl, watch) = match connected {
            Ok(pair) => pair,
            Err(e) => {
                let _ = harness.shutdown();
                return Err(e);
            }
        };
        harness.ctl = Some(ctl);
        harness.watcher = Some(std::thread::spawn(move || {
            watcher(watch, order_rx, event_tx)
        }));
        Ok(harness)
    }

    fn ctl(&mut self) -> &mut Client {
        self.ctl
            .as_mut()
            .expect("control connection lives until shutdown")
    }

    /// One timed request on the control connection.
    fn call(
        &mut self,
        cmd: &'static str,
        fields: Vec<(&str, Json)>,
        tracer: &mut Tracer,
        parent: Option<u64>,
        span: &'static str,
    ) -> Result<(Json, f64), String> {
        let fields = fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let t0 = Instant::now();
        let response = self.ctl().request(cmd, fields).map_err(fail(cmd))?;
        let t1 = Instant::now();
        tracer.record(span, parent, t0, t1);
        Ok((response, t1.duration_since(t0).as_secs_f64()))
    }

    /// Hands `job` to the watcher, then runs the closed `status` loop
    /// until the watcher reports that `job` reached `target`.
    fn await_state(
        &mut self,
        job: &str,
        target: &'static str,
        rtts: &mut Vec<f64>,
        tracer: &mut Tracer,
        parent: Option<u64>,
    ) -> Result<Instant, String> {
        let order = WatchOrder {
            job: job.to_string(),
            target,
        };
        let orders = self.orders.as_ref().expect("watcher lives until shutdown");
        orders
            .send(order)
            .map_err(|_| "watcher thread ended".to_string())?;
        let deadline = Instant::now() + WAIT_LIMIT;
        loop {
            match self.events.recv_timeout(STATUS_THINK) {
                Ok(result) => return result,
                Err(RecvTimeoutError::Disconnected) => return Err("watcher thread ended".into()),
                Err(RecvTimeoutError::Timeout) if Instant::now() > deadline => {
                    return Err(format!("timed out waiting for {job:?} to reach {target:?}"))
                }
                Err(RecvTimeoutError::Timeout) => {
                    let (_, rtt) = self.call(
                        "status",
                        vec![("name", Json::str(job))],
                        tracer,
                        parent,
                        "chronosd.daemon.status",
                    )?;
                    rtts.push(rtt);
                }
            }
        }
    }

    fn manifest_bytes(&self) -> u64 {
        std::fs::metadata(self.dir.join("state").join("manifest.chrm")).map_or(0, |m| m.len())
    }

    /// submit → watch until paused → checkpoint → sync → resume as a new
    /// job → watch until done → report, then (untimed) stop and forget
    /// both jobs so the next iteration starts from an empty daemon.
    pub fn iteration(&mut self, spec: &Json, tracer: &mut Tracer) -> Result<DaemonSample, String> {
        self.iterations += 1;
        let first = format!("job{}", self.iterations);
        let resumed = format!("{first}-resumed");
        let ckpt = self.dir.join("job.chr1").display().to_string();
        let engine_before = EngineReading::of(&self.obs.fleet);
        let slices_before = self.obs.slices_scheduled.get();
        let mut rtts = Vec::new();
        let name = |n: &str| ("name", Json::str(n));

        let t0 = Instant::now();
        let root_id = tracer.begin("iteration", None, t0);
        let root = Some(root_id);
        let (_, submit_s) = self.call(
            "submit",
            vec![name(&first), ("spec", spec.clone())],
            tracer,
            root,
            "chronosd.jobs.submit",
        )?;
        let paused_at = self.await_state(&first, "paused", &mut rtts, tracer, root)?;
        let (_, checkpoint_request_s) = self.call(
            "checkpoint",
            vec![name(&first), ("path", Json::str(ckpt.clone()))],
            tracer,
            root,
            "chronosd.daemon.checkpoint",
        )?;
        let (_, sync_s) = self.call("sync", vec![], tracer, root, "chronosd.state.sync")?;
        let mut manifest_bytes = self.manifest_bytes();
        let (_, resume_request_s) = self.call(
            "resume",
            vec![
                name(&resumed),
                ("path", Json::str(ckpt.clone())),
                ("threads", Json::usize(1)),
                ("slice_s", Json::u64(crate::workload::SLICE_S)),
            ],
            tracer,
            root,
            "chronosd.daemon.resume",
        )?;
        let accepted_at = Instant::now();
        tracer.record("chronosd.resume", root, paused_at, accepted_at);
        self.await_state(&resumed, "done", &mut rtts, tracer, root)?;
        let (response, report_request_s) = self.call(
            "report",
            vec![name(&resumed)],
            tracer,
            root,
            "chronosd.daemon.report",
        )?;
        let t1 = Instant::now();
        tracer.end(root_id, t1);

        let report_bytes = response
            .get("report")
            .map(Json::render)
            .ok_or_else(|| "report response carries no report".to_string())?;
        self.call(
            "stop",
            vec![name(&first)],
            tracer,
            None,
            "chronosd.daemon.stop",
        )?;
        for job in [&first, &resumed] {
            self.call(
                "forget",
                vec![name(job)],
                tracer,
                None,
                "chronosd.daemon.forget",
            )?;
            manifest_bytes = manifest_bytes.max(self.manifest_bytes());
        }
        std::fs::remove_file(&ckpt).map_err(|e| format!("removing {ckpt}: {e}"))?;

        Ok(DaemonSample {
            report_s: t1.duration_since(t0).as_secs_f64(),
            resume_s: accepted_at.duration_since(paused_at).as_secs_f64(),
            submit_s,
            checkpoint_request_s,
            sync_s,
            resume_request_s,
            report_request_s,
            status_rtts: rtts,
            manifest_bytes,
            slices: self.obs.slices_scheduled.get() - slices_before,
            engine: EngineReading::of(&self.obs.fleet).since(&engine_before),
            report_bytes,
        })
    }

    /// Closes the watch connection, asks the daemon to shut down and
    /// joins every thread the harness started.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.close()
    }

    fn close(&mut self) -> Result<(), String> {
        let mut errors = Vec::new();
        self.orders = None; // ends the watcher's order loop
        if let Some(watcher) = self.watcher.take() {
            if watcher.join().is_err() {
                errors.push("watcher thread panicked".to_string());
            }
        }
        if let Some(server) = self.server.take() {
            // A harness whose connect failed shuts down over a fresh one.
            let ctl = match self.ctl.take() {
                Some(ctl) => Ok(ctl),
                None => Client::connect(self.dir.join("d.sock")),
            };
            match ctl.and_then(|mut c| c.request("shutdown", vec![])) {
                // The serve loop never saw the request, so joining it
                // would block; its thread ends with the process.
                Err(e) => errors.push(format!("shutdown: {e}")),
                Ok(_) => match server.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => errors.push(format!("serve: {e}")),
                    Err(_) => errors.push("daemon thread panicked".to_string()),
                },
            }
            let _ = std::fs::remove_dir_all(&self.dir);
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

impl Drop for DaemonHarness {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// The watch connection's thread: for each order, follows the job's
/// `watch` stream to its `end` line and reports when the awaited state
/// was first read.
fn watcher(mut client: Client, orders: Receiver<WatchOrder>, results: Sender<WatchResult>) {
    for order in orders {
        let request = Json::Obj(vec![
            ("cmd".into(), Json::str("watch")),
            ("name".into(), Json::str(order.job.clone())),
        ]);
        let mut reached = false;
        let mut line = client.request_raw(&request);
        let outcome = loop {
            let event = match &line {
                Ok(event) => event,
                Err(e) => break Err(format!("watch {}: {e}", order.job)),
            };
            let state = event
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            if !reached && state == order.target {
                reached = true;
                if results.send(Ok(Instant::now())).is_err() {
                    return;
                }
            }
            if event.get("event").and_then(Json::as_str) == Some("end") {
                break if reached {
                    Ok(())
                } else {
                    Err(format!(
                        "watch of {:?} ended in state {state:?}, not {:?}",
                        order.job, order.target
                    ))
                };
            }
            line = client.read_response();
        };
        if let Err(e) = outcome {
            if reached || results.send(Err(e)).is_err() {
                return;
            }
        }
    }
}

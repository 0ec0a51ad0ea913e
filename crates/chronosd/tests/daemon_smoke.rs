//! End-to-end smoke over a real Unix-domain socket, mirroring the CI
//! job: boot a daemon, submit a small E16 fleet, observe it live
//! mid-run, pause, checkpoint to a file, shut the daemon down, boot a
//! **fresh** daemon, resume from the file, and assert the final report
//! is byte-identical to the batch `run_e16` output for the same
//! parameters. The other cases pin the failure paths a client can reach:
//! protocol errors, checkpoint files that do not decode, forged sweep
//! cursors, and over-long request lines.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use chronos_pitfalls::experiments::e16_config;
use chronosd::daemon::MAX_REQUEST_BYTES;
use chronosd::json::Json;
use chronosd::render::report_json;
use chronosd::{Client, Daemon};
use fleet::checkpoint::SweepCursor;
use fleet::{Fleet, FleetConfig};
use netsim::time::SimTime;

const SEED: u64 = 7;
const CLIENTS: usize = 24;
const RESOLVERS: usize = 2;
const POISONED: usize = 1;

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("chronosd-smoke-{}-{name}", std::process::id()));
    path
}

/// Boot a daemon on `socket` on a background thread and wait for it to
/// accept connections.
fn boot(socket: &PathBuf) -> std::thread::JoinHandle<()> {
    let daemon = Daemon::bind(socket).expect("bind scratch socket");
    let handle = std::thread::spawn(move || daemon.serve().expect("serve"));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while Client::connect(socket).is_err() {
        assert!(std::time::Instant::now() < deadline, "daemon never came up");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle
}

#[test]
fn checkpoint_resume_across_daemon_processes_matches_batch() {
    let socket = scratch("ctl.sock");
    let ckpt = scratch("job.ckpt");

    // First daemon: submit, observe mid-run, pause, checkpoint, shut down.
    let first = boot(&socket);
    let mut client = Client::connect(&socket).expect("connect");
    let pong = client.request("ping", Vec::new()).expect("ping");
    assert_eq!(pong.get("service").and_then(Json::as_str), Some("chronosd"));

    let spec = Json::parse(&format!(
        r#"{{"kind":"e16-fleet","seed":{SEED},"clients":{CLIENTS},"resolvers":{RESOLVERS},"poisoned_resolvers":{POISONED},"slice_s":500,"pause_at_s":1500}}"#
    ))
    .expect("spec literal");
    client
        .request(
            "submit",
            vec![("name".into(), Json::str("smoke")), ("spec".into(), spec)],
        )
        .expect("submit");

    // Live observability: stream snapshots while it steps. The first
    // ones can all predate the first published slice (`queued`, then
    // `running` without progress), so subscribe again until a snapshot
    // carries progress or the job parks at its pause point.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut watcher = Client::connect(&socket).expect("watch connection");
    let mut saw_progress = false;
    let mut parked = false;
    while !saw_progress && !parked {
        assert!(
            Instant::now() < deadline,
            "no progress snapshot within 120 s"
        );
        let mut event = watcher
            .request(
                "watch",
                vec![
                    ("name".into(), Json::str("smoke")),
                    ("count".into(), Json::u64(2)),
                ],
            )
            .expect("watch");
        loop {
            if let Some(progress) = event.get("progress") {
                if let Some(now_s) = progress.get("now_s").and_then(Json::as_f64) {
                    assert!(now_s <= 1_500.0, "paused at 1500 s, watched {now_s}");
                    saw_progress = true;
                }
            }
            parked |= event.get("state").and_then(Json::as_str) == Some("paused");
            if event.get("event").and_then(Json::as_str) == Some("end") {
                break;
            }
            event = watcher.read_response().expect("watch stream");
        }
    }
    assert!(saw_progress, "watch never surfaced a progress snapshot");

    let paused = client
        .wait_for_state("smoke", "paused", Duration::from_secs(120))
        .expect("job pauses at 1500 s");
    let now_s = paused
        .get("progress")
        .and_then(|p| p.get("now_s"))
        .and_then(Json::as_f64)
        .expect("paused progress");
    assert_eq!(now_s, 1_500.0, "pause boundary");

    // Scrape the metric registry over the socket while the job is
    // parked: the exposition must satisfy our own parser and carry the
    // per-job gauges plus the daemon-wide counters.
    let scraped = client.request("metrics", Vec::new()).expect("metrics");
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics payload is a string");
    let samples = obs::expo::parse(text).expect("exposition parses");
    assert!(!samples.is_empty(), "exposition carries samples");
    for needle in [
        "chronosd_job_events_per_sec{job=\"smoke\"}",
        "chronosd_job_slice_wall_seconds{job=\"smoke\"}",
        "chronosd_job_sim_seconds_per_wall_second{job=\"smoke\"}",
        // The watch stream above ended, so the subscriber gauge is back
        // to zero but stays registered.
        "chronosd_job_watch_subscribers{job=\"smoke\"} 0",
        "chronosd_commands_total{cmd=\"submit\"} 1",
        "chronosd_connections_total",
        "# TYPE fleet_stage_seconds histogram",
    ] {
        assert!(text.contains(needle), "exposition misses {needle}:\n{text}");
    }
    // The engine side-channel observed real work by now.
    let events = samples
        .iter()
        .find(|s| s.name == "fleet_events_total")
        .expect("fleet_events_total sample");
    assert!(events.value > 0.0, "stepped slices counted no events");

    // A mid-run report is readable over the socket while the job is parked.
    let mid = client
        .request("report", vec![("name".into(), Json::str("smoke"))])
        .expect("mid-run report");
    let mid_end = mid
        .get("report")
        .and_then(|r| r.get("end_s"))
        .and_then(Json::as_f64)
        .expect("report end");
    assert_eq!(mid_end, 1_500.0, "mid-run aggregate at the pause point");

    client
        .request(
            "checkpoint",
            vec![
                ("name".into(), Json::str("smoke")),
                ("path".into(), Json::str(ckpt.display().to_string())),
            ],
        )
        .expect("checkpoint to file");
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    // Fresh daemon process (new Daemon, new JobTable): resume and finish.
    let second = boot(&socket);
    let mut client = Client::connect(&socket).expect("reconnect");
    let resumed = client
        .request(
            "resume",
            vec![
                ("name".into(), Json::str("smoke-resumed")),
                ("path".into(), Json::str(ckpt.display().to_string())),
                ("threads".into(), Json::u64(2)),
                ("slice_s".into(), Json::u64(500)),
            ],
        )
        .expect("resume from checkpoint file");
    // The checkpoint is adopted by the request itself: the job is
    // already in the run queue when the response arrives.
    assert_eq!(resumed.get("kind").and_then(Json::as_str), Some("resume"));
    let state = resumed.get("state").and_then(Json::as_str);
    assert!(
        matches!(state, Some("running" | "done")),
        "resume response state {state:?}"
    );
    client
        .wait_for_state("smoke-resumed", "done", Duration::from_secs(300))
        .expect("resumed job finishes");
    let done = client
        .request("report", vec![("name".into(), Json::str("smoke-resumed"))])
        .expect("final report");
    let daemon_line = done.get("report").expect("report payload").render();

    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");
    let _ = std::fs::remove_file(&ckpt);

    // Batch side: the same row out of the full E16 sweep, rendered
    // through the same canonical writer — byte-identical.
    let sweep = chronos_pitfalls::experiments::run_e16(SEED, CLIENTS, RESOLVERS, 2);
    let row = sweep
        .rows
        .iter()
        .find(|row| row.poisoned_resolvers == POISONED)
        .expect("sweep row for k");
    assert_eq!(daemon_line, report_json(&row.report).render());
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let socket = scratch("err.sock");
    let handle = boot(&socket);
    let mut client = Client::connect(&socket).expect("connect");

    // Unknown command, unknown job, malformed spec — each answers
    // ok:false and the connection stays usable.
    for bad in [
        r#"{"cmd":"frobnicate"}"#,
        r#"{"cmd":"status","name":"ghost"}"#,
        r#"{"cmd":"submit","name":"x","spec":{"kind":"nope"}}"#,
        r#"{"cmd":"resume","name":"x","path":"/nonexistent/ckpt"}"#,
    ] {
        let request = Json::parse(bad).expect("request literal");
        let response = client.request_raw(&request);
        assert!(response.is_err(), "{bad} should fail");
    }
    let pong = client.request("ping", Vec::new()).expect("still alive");
    assert_eq!(pong.get("protocol").and_then(Json::as_u64), Some(1));
    // The enriched ping: identity, uptime, and job counts by state.
    assert!(pong.get("version").and_then(Json::as_str).is_some());
    assert!(pong.get("uptime_s").and_then(Json::as_u64).is_some());
    let states = pong.get("job_states").expect("job_states object");
    assert_eq!(states.get("running").and_then(Json::as_u64), Some(0));
    assert_eq!(states.get("failed").and_then(Json::as_u64), Some(0));

    // The unknown command was counted as a protocol error.
    let scraped = client.request("metrics", Vec::new()).expect("metrics");
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics payload");
    let errors = obs::expo::parse(text)
        .expect("exposition parses")
        .into_iter()
        .find(|s| s.name == "chronosd_protocol_errors_total")
        .expect("protocol-error counter");
    assert!(errors.value >= 1.0, "unknown cmd not counted");

    client.request("shutdown", Vec::new()).expect("shutdown");
    handle.join().expect("daemon exits");
}

/// A `CHR1` checkpoint of a one-shard fleet whose due-list count is
/// forged to `0xFFFF_FFFF` and re-checksummed: intact up to the count,
/// which then claims ~16 GiB of entries.
fn forged_due_count_checkpoint() -> Vec<u8> {
    let mut fleet = Fleet::new(e16_config(SEED, CLIENTS, RESOLVERS, POISONED));
    fleet.run_until(SimTime::from_secs(1_500));
    let mut bytes = fleet.checkpoint();
    // After the config: now_ns u64 and the shard count u32; then the
    // shard: first_global u64, row count u32, one 154-byte row per
    // client, the trajectory list, and the due count.
    let mut header = fleet.now().as_nanos().to_le_bytes().to_vec();
    header.extend(1u32.to_le_bytes());
    header.extend(0u64.to_le_bytes());
    header.extend((CLIENTS as u32).to_le_bytes());
    let mut at = bytes
        .windows(header.len())
        .position(|w| w == header)
        .expect("shard header")
        + header.len()
        + CLIENTS * 154;
    let u32_at =
        |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let traces = u32_at(&bytes, at) as usize;
    at += 4;
    for client in 0..traces {
        at += 4 + 16 * fleet.trace(client).len();
    }
    assert!(u32_at(&bytes, at) as usize <= CLIENTS, "due count located");
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = fleet::checkpoint::checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn undecodable_checkpoints_are_rejected_synchronously() {
    let socket = scratch("bad-ckpt.sock");
    let junk = scratch("junk.ckpt");
    let forged = scratch("forged.ckpt");
    std::fs::write(&junk, b"junk").expect("write junk");
    let forged_bytes = forged_due_count_checkpoint();
    assert!(
        Fleet::restore(&forged_bytes).is_err(),
        "forged count restores"
    );
    std::fs::write(&forged, &forged_bytes).expect("write forged");
    // Sweep cursors whose row 0 checkpoint comes from another seed, or
    // whose later row fails `FleetConfig::validate`.
    let configs: Vec<FleetConfig> = (0..=RESOLVERS)
        .map(|k| e16_config(SEED, CLIENTS, RESOLVERS, k))
        .collect();
    let other_seed = SweepCursor {
        configs: configs.clone(),
        done: Vec::new(),
        current: Some(Fleet::new(e16_config(SEED + 1, CLIENTS, RESOLVERS, 0)).checkpoint()),
    };
    let mut invalid_row = SweepCursor {
        current: Some(Fleet::new(configs[0].clone()).checkpoint()),
        ..other_seed.clone()
    };
    invalid_row.configs[2].clients = 0;
    let other_seed_path = scratch("other-seed.swp");
    let invalid_row_path = scratch("invalid-row.swp");
    std::fs::write(&other_seed_path, other_seed.encode()).expect("write cursor");
    std::fs::write(&invalid_row_path, invalid_row.encode()).expect("write cursor");

    let handle = boot(&socket);
    let mut client = Client::connect(&socket).expect("connect");
    for (name, path, why) in [
        ("from-junk", &junk, "checkpoint rejected"),
        ("from-forged", &forged, "checkpoint rejected"),
        (
            "other-seed",
            &other_seed_path,
            "sweep cursor rejected: row 0 checkpoint belongs to a different configuration",
        ),
        (
            "invalid-row",
            &invalid_row_path,
            "sweep cursor rejected: corrupt checkpoint: configuration fails validation",
        ),
    ] {
        let request = Json::Obj(vec![
            ("cmd".into(), Json::str("resume")),
            ("name".into(), Json::str(name)),
            ("path".into(), Json::str(path.display().to_string())),
        ]);
        let error = client.request_raw(&request).expect_err("resume must fail");
        assert!(error.to_string().contains(why), "{name}: {error}");
        // No job was registered under the name.
        assert!(client
            .request("status", vec![("name".into(), Json::str(name))])
            .is_err());
    }
    let pong = client.request("ping", Vec::new()).expect("still alive");
    assert_eq!(pong.get("jobs").and_then(Json::as_u64), Some(0));

    client.request("shutdown", Vec::new()).expect("shutdown");
    handle.join().expect("daemon exits");
    for path in [junk, forged, other_seed_path, invalid_row_path] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn over_long_request_line_is_refused_and_closed() {
    let socket = scratch("long.sock");
    let handle = boot(&socket);

    // One byte past the limit, no newline in sight.
    let mut raw = UnixStream::connect(&socket).expect("raw connection");
    raw.write_all(&vec![b' '; MAX_REQUEST_BYTES + 1])
        .expect("daemon reads up to the limit");
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    let response = Json::parse(line.trim_end()).expect("response is JSON");
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    let error = response.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("exceeds"), "unexpected error: {error}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("connection closed");
    assert!(rest.is_empty(), "daemon kept talking after the refusal");

    // The daemon still serves, and counted the refusal.
    let mut client = Client::connect(&socket).expect("connect");
    client.request("ping", Vec::new()).expect("still alive");
    let scraped = client.request("metrics", Vec::new()).expect("metrics");
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics payload");
    let errors = obs::expo::parse(text)
        .expect("exposition parses")
        .into_iter()
        .find(|s| s.name == "chronosd_protocol_errors_total")
        .expect("protocol-error counter");
    assert_eq!(errors.value, 1.0);

    client.request("shutdown", Vec::new()).expect("shutdown");
    handle.join().expect("daemon exits");
}

//! The durability acceptance tests: a daemon that dies with no chance to
//! clean up — simulated by copying the state dir as of the last snapshot
//! and rebooting from the copy, exactly the bytes a `kill -9` would have
//! left — finishes its jobs **byte-identically** to the uninterrupted
//! batch run, for both fleet jobs (`CHR1` state) and sweep jobs (`SWP1`
//! cursors), across *different* thread counts on the two legs. A third
//! test covers the clean-shutdown path: jobs still running when the
//! daemon exits are recorded as running and auto-resume on the next
//! boot with no operator involvement. A fourth covers the manifest rows
//! that carry no simulation of their own: a still-queued job resubmits
//! from its normalized spec, and a resumed job reboots from its state
//! file alone. A fifth boots a state dir holding a version-2 sweep
//! cursor: the job comes back `failed` and quarantined, and the daemon
//! keeps serving.

use std::path::{Path, PathBuf};
use std::time::Duration;

use chronos_pitfalls::experiments::e16_config;
use chronosd::jobs::Params;
use chronosd::json::Json;
use chronosd::render::report_json;
use chronosd::state::ManifestEntry;
use chronosd::{Client, Daemon, DaemonConfig, DaemonObs, JobSpec, JobState, StateDir};
use fleet::checkpoint::checksum;
use fleet::Fleet;

const SEED: u64 = 7;
const CLIENTS: usize = 24;
const RESOLVERS: usize = 2;
const POISONED: usize = 1;

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("chronosd-crash-{}-{name}", std::process::id()));
    path
}

/// Boot a daemon over `state_dir` and hand back a handshaken client.
fn boot(
    socket: &PathBuf,
    state_dir: &Path,
    resume_threads: Option<usize>,
) -> (std::thread::JoinHandle<()>, Client) {
    let config = DaemonConfig {
        state_dir: Some(state_dir.to_path_buf()),
        workers: Some(2),
        resume_threads,
        ..DaemonConfig::default()
    };
    let daemon =
        Daemon::bind_with_config(socket, DaemonObs::from_env(), config).expect("bind state daemon");
    let handle = std::thread::spawn(move || daemon.serve().expect("serve"));
    let mut client = Client::connect_with_retry(socket, Duration::from_secs(10)).expect("connect");
    client.handshake().expect("handshake");
    (handle, client)
}

/// Copy a state dir recursively: the frozen image of what a `kill -9`
/// at this instant would leave on disk.
fn freeze(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create freeze root");
    for entry in std::fs::read_dir(src).expect("read state dir") {
        let entry = entry.expect("dir entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            freeze(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy state file");
        }
    }
}

fn submit(client: &mut Client, name: &str, spec: &str) {
    let spec = Json::parse(spec).expect("spec literal");
    client
        .request(
            "submit",
            vec![
                ("name".into(), Json::str(name)),
                ("spec".into(), spec.clone()),
            ],
        )
        .expect("submit");
}

fn job_panics_total(client: &mut Client) -> f64 {
    let scraped = client.request("metrics", Vec::new()).expect("metrics");
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics payload");
    obs::expo::parse(text)
        .expect("exposition parses")
        .into_iter()
        .find(|s| s.name == "chronosd_job_panics_total")
        .map(|s| s.value)
        .unwrap_or(0.0)
}

#[test]
fn fleet_job_survives_a_simulated_crash_byte_identically() {
    let socket_a = scratch("fleet-a.sock");
    let socket_b = scratch("fleet-b.sock");
    let dir = scratch("fleet-state");
    let frozen = scratch("fleet-frozen");
    let _ = std::fs::remove_dir_all(&dir);

    // Leg one: single-threaded, pause at a deterministic anchor, force a
    // snapshot, then freeze the directory — the crash image.
    let (first, mut client) = boot(&socket_a, &dir, None);
    submit(
        &mut client,
        "crashy",
        &format!(
            r#"{{"kind":"e16-fleet","seed":{SEED},"clients":{CLIENTS},"resolvers":{RESOLVERS},"poisoned_resolvers":{POISONED},"threads":1,"slice_s":500,"pause_at_s":1500}}"#
        ),
    );
    client
        .wait_for_state("crashy", "paused", Duration::from_secs(120))
        .expect("job pauses at its anchor");
    let synced = client.request("sync", Vec::new()).expect("sync");
    assert!(synced.get("jobs").and_then(Json::as_u64).unwrap_or(0) >= 1);
    freeze(&dir, &frozen);
    assert_eq!(job_panics_total(&mut client), 0.0, "happy path panicked");
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    // Leg two: reboot from the crash image with a *different* thread
    // count; the job comes back paused at the same anchor.
    let (second, mut client) = boot(&socket_b, &frozen, Some(2));
    let status = client
        .request("status", vec![("name".into(), Json::str("crashy"))])
        .expect("adopted job answers status");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("paused"),
        "rebooted job state: {}",
        status.render()
    );
    client
        .request("unpause", vec![("name".into(), Json::str("crashy"))])
        .expect("unpause");
    client
        .wait_for_state("crashy", "done", Duration::from_secs(300))
        .expect("rebooted job finishes");
    let done = client
        .request("report", vec![("name".into(), Json::str("crashy"))])
        .expect("final report");
    let daemon_line = done.get("report").expect("report payload").render();
    assert_eq!(job_panics_total(&mut client), 0.0, "recovery path panicked");
    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");

    // The batch truth, rendered through the same canonical writer.
    let sweep = chronos_pitfalls::experiments::run_e16(SEED, CLIENTS, RESOLVERS, 2);
    let row = sweep
        .rows
        .iter()
        .find(|row| row.poisoned_resolvers == POISONED)
        .expect("sweep row for k");
    assert_eq!(daemon_line, report_json(&row.report).render());

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&frozen);
}

#[test]
fn sweep_job_survives_a_simulated_crash_byte_identically() {
    let socket_a = scratch("sweep-a.sock");
    let socket_b = scratch("sweep-b.sock");
    let dir = scratch("sweep-state");
    let frozen = scratch("sweep-frozen");
    let _ = std::fs::remove_dir_all(&dir);

    // Pause mid-grid (after row 1 of 3), snapshot the SWP1 cursor,
    // freeze, crash.
    let (first, mut client) = boot(&socket_a, &dir, None);
    submit(
        &mut client,
        "grid",
        &format!(
            r#"{{"kind":"e16-sweep","seed":{SEED},"clients":16,"resolvers":{RESOLVERS},"threads":1,"slice_s":900,"pause_at_row":1}}"#
        ),
    );
    client
        .wait_for_state("grid", "paused", Duration::from_secs(120))
        .expect("sweep pauses at its row anchor");
    client.request("sync", Vec::new()).expect("sync");
    freeze(&dir, &frozen);
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    // Reboot from the frozen cursor on more threads; a completed row's
    // report is already servable before the grid finishes.
    let (second, mut client) = boot(&socket_b, &frozen, Some(2));
    let early = client
        .request(
            "report",
            vec![
                ("name".into(), Json::str("grid")),
                ("row".into(), Json::u64(0)),
            ],
        )
        .expect("completed row is servable after reboot");
    assert!(early.get("report").is_some(), "row report payload");
    client
        .request("unpause", vec![("name".into(), Json::str("grid"))])
        .expect("unpause");
    client
        .wait_for_state("grid", "done", Duration::from_secs(600))
        .expect("rebooted sweep finishes");
    let done = client
        .request("report", vec![("name".into(), Json::str("grid"))])
        .expect("final sweep report");
    let daemon_line = done.get("sweep").expect("sweep payload").render();
    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");

    // The payload is the rows' reports, each byte-identical to the
    // uninterrupted batch sweep's row.
    let batch = chronos_pitfalls::experiments::run_e16(SEED, 16, RESOLVERS, 1);
    let rows = batch
        .rows
        .iter()
        .map(|row| report_json(&row.report))
        .collect();
    assert_eq!(
        daemon_line,
        Json::Obj(vec![("rows".into(), Json::Arr(rows))]).render()
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&frozen);
}

#[test]
fn running_jobs_auto_resume_after_a_clean_shutdown() {
    let socket_a = scratch("auto-a.sock");
    let socket_b = scratch("auto-b.sock");
    let dir = scratch("auto-state");
    let _ = std::fs::remove_dir_all(&dir);

    // Shut the daemon down while the job is still mid-run: the final
    // snapshot records it as `running`, so the next boot picks it up
    // with no operator involvement. The fleet is sized so the run spans
    // many slices of real wall time; if it somehow finishes before the
    // shutdown lands, the test degrades to "done jobs survive reboots"
    // rather than failing spuriously.
    let clients = 400;
    let (first, mut client) = boot(&socket_a, &dir, None);
    submit(
        &mut client,
        "longhaul",
        &format!(
            r#"{{"kind":"e16-fleet","seed":{SEED},"clients":{clients},"resolvers":{RESOLVERS},"poisoned_resolvers":{POISONED},"threads":1,"slice_s":60}}"#
        ),
    );
    // Let it make some progress first (at least one slice).
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let status = client
            .request("status", vec![("name".into(), Json::str("longhaul"))])
            .expect("status");
        let slices = status.get("slices").and_then(Json::as_u64).unwrap_or(0);
        let state = status.get("state").and_then(Json::as_str).unwrap_or("");
        if slices >= 1 || state == "done" {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never progressed");
        std::thread::sleep(Duration::from_millis(10));
    }
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    let (second, mut client) = boot(&socket_b, &dir, Some(2));
    // No unpause, no resubmit: the job is already back in the pool.
    client
        .wait_for_state("longhaul", "done", Duration::from_secs(300))
        .expect("auto-resumed job finishes");
    let done = client
        .request("report", vec![("name".into(), Json::str("longhaul"))])
        .expect("final report");
    let daemon_line = done.get("report").expect("report payload").render();
    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");

    let sweep = chronos_pitfalls::experiments::run_e16(SEED, clients, RESOLVERS, 2);
    let row = sweep
        .rows
        .iter()
        .find(|row| row.poisoned_resolvers == POISONED)
        .expect("sweep row for k");
    assert_eq!(daemon_line, report_json(&row.report).render());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_and_resumed_entries_reboot_from_their_manifest_rows() {
    let socket_a = scratch("rows-a.sock");
    let socket_b = scratch("rows-b.sock");
    let dir = scratch("rows-state");
    let ckpt = scratch("rows.ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = format!(
        r#"{{"kind":"e16-fleet","seed":{SEED},"clients":{CLIENTS},"resolvers":{RESOLVERS},"poisoned_resolvers":{POISONED},"slice_s":500,"pause_at_s":1500}}"#
    );

    // Leg one: checkpoint a paused job to a file and resume it as a new
    // job that pauses again at 3000 s.
    let (first, mut client) = boot(&socket_a, &dir, None);
    submit(&mut client, "leg", &spec);
    client
        .wait_for_state("leg", "paused", Duration::from_secs(120))
        .expect("job pauses at its anchor");
    let name = |n: &str| ("name".to_string(), Json::str(n));
    client
        .request(
            "checkpoint",
            vec![
                name("leg"),
                ("path".into(), Json::str(ckpt.display().to_string())),
            ],
        )
        .expect("checkpoint to file");
    client
        .request(
            "resume",
            vec![
                name("resumed"),
                ("path".into(), Json::str(ckpt.display().to_string())),
                ("pause_at_s".into(), Json::u64(3_000)),
            ],
        )
        .expect("resume");
    client
        .wait_for_state("resumed", "paused", Duration::from_secs(120))
        .expect("resumed job pauses at its anchor");
    client.request("sync", Vec::new()).expect("sync");
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    // The resumed job's manifest row names its state file and carries no
    // checkpoint bytes.
    let state = StateDir::open(&dir).expect("state dir");
    let mut entries = state
        .read_manifest()
        .expect("manifest readable")
        .expect("manifest written")
        .expect("manifest decodes");
    let resumed = entries
        .iter_mut()
        .find(|e| e.name == "resumed")
        .expect("resumed entry");
    assert_eq!(resumed.spec.render(), r#"{"kind":"resume"}"#);
    assert!(resumed.file.is_some(), "resumed job has a state file");
    // Emulate a state dir written before resume adoption, whose resume
    // rows also held the checkpoint as hex, and add a job that was still
    // queued (no state file yet) when the snapshot was taken.
    resumed.spec = Json::parse(r#"{"kind":"resume","bytes_hex":"00ff","threads":1}"#).unwrap();
    let queued = ManifestEntry {
        name: "queued".to_string(),
        kind: "e16-fleet".to_string(),
        state: JobState::Queued,
        error: None,
        params: Params::default(),
        slices: 0,
        file: None,
        spec: JobSpec::from_json(&Json::parse(&spec).unwrap())
            .expect("spec parses")
            .normalized,
    };
    entries.push(queued);
    state.write_manifest(&entries).expect("rewrite manifest");

    // Leg two: the queued row is resubmitted from its normalized spec,
    // the resumed row is adopted from its state file; both finish with
    // the batch runner's report.
    let (second, mut client) = boot(&socket_b, &dir, Some(2));
    client
        .request("unpause", vec![name("resumed")])
        .expect("unpause");
    client
        .request("unpause", vec![name("queued")])
        .expect("unpause");
    let sweep = chronos_pitfalls::experiments::run_e16(SEED, CLIENTS, RESOLVERS, 2);
    let row = sweep
        .rows
        .iter()
        .find(|row| row.poisoned_resolvers == POISONED)
        .expect("sweep row for k");
    for job in ["queued", "resumed"] {
        client
            .wait_for_state(job, "done", Duration::from_secs(300))
            .expect("rebooted job finishes");
        let done = client.request("report", vec![name(job)]).expect("report");
        let daemon_line = done.get("report").expect("report payload").render();
        assert_eq!(daemon_line, report_json(&row.report).render(), "{job}");
    }
    client.request("sync", Vec::new()).expect("sync");
    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");
    let entries = state
        .read_manifest()
        .expect("manifest readable")
        .expect("manifest written")
        .expect("manifest decodes");
    let resumed = entries.iter().find(|e| e.name == "resumed").unwrap();
    assert_eq!(
        resumed.spec.render(),
        r#"{"kind":"resume"}"#,
        "hex copy dropped"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn version_2_sweep_cursor_boots_as_a_failed_quarantined_job() {
    let socket = scratch("v2.sock");
    let dir = scratch("v2-state");
    let _ = std::fs::remove_dir_all(&dir);
    let state = StateDir::open(&dir).expect("open state dir");

    // A paused e16-sweep whose cursor is in the version-2 layout: flavor
    // byte, seed, clients, resolvers, row and done count, then row 0's
    // live checkpoint.
    let mut bytes = b"SWP1".to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.push(0);
    for v in [SEED, 16, RESOLVERS as u64, 0, 0] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let current = Fleet::new(e16_config(SEED, 16, RESOLVERS, 0)).checkpoint();
    bytes.push(1);
    bytes.extend_from_slice(&(current.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&current);
    let sum = checksum(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    let file = StateDir::job_file_name("old-grid");
    state
        .write_job_file(&file, &bytes)
        .expect("plant v2 cursor");
    let spec = format!(
        r#"{{"kind":"e16-sweep","seed":{SEED},"clients":16,"resolvers":{RESOLVERS},"pause_at_row":0}}"#
    );
    let submission = JobSpec::from_json(&Json::parse(&spec).unwrap()).expect("spec parses");
    let entry = ManifestEntry {
        name: "old-grid".to_string(),
        kind: "e16-sweep".to_string(),
        state: JobState::Paused,
        error: None,
        params: submission.params,
        slices: 1,
        file: Some(file.clone()),
        spec: submission.normalized,
    };
    state.write_manifest(&[entry]).expect("write manifest");
    drop(state);

    let (handle, mut client) = boot(&socket, &dir, None);
    let status = client
        .request("status", vec![("name".into(), Json::str("old-grid"))])
        .expect("adopted job answers status");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("failed"),
        "v2 cursor must adopt as failed: {}",
        status.render()
    );
    let error = status
        .get("error")
        .and_then(Json::as_str)
        .expect("failed job records why");
    assert!(
        error.contains("quarantined")
            && error.contains("unsupported checkpoint version 2 (expected 3)"),
        "error does not name the quarantine and versions: {error}"
    );
    assert!(
        dir.join("quarantine").join(&file).exists(),
        "v2 cursor was not quarantined"
    );

    // The daemon keeps serving.
    let pong = client.request("ping", Vec::new()).expect("still alive");
    assert_eq!(pong.get("jobs").and_then(Json::as_u64), Some(1));
    client.request("shutdown", Vec::new()).expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

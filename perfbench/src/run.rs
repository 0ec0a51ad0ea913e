//! One benchmark run: set up several times, measure for the requested
//! wall time, check every output, and collect the metrics.
//!
//! With tracing off (`--trace 0`) every iteration is untraced and the
//! run yields the end-to-end metrics. With tracing on (`--trace 1`)
//! untraced and traced iterations alternate, so the traced run carries
//! its own untraced baseline for `trace.overhead_x`; the run yields the
//! per-layer metrics and writes the spans to a file.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use fleet::FleetReport;
use netsim::time::SimTime;

use crate::checks::{Check, Tally};
use crate::daemon_loop::{DaemonHarness, DaemonSample};
use crate::fleet_loop::{
    prepass_probe, render, restore_probe, run_fleet, EngineReading, FleetSample, RestoreProbe,
};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{Workload, PAUSE_AT_S};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Iterations measured even when `--seconds` runs out first.
pub const MIN_ITERATIONS: usize = 4;
/// Metered resets the pre-pass probe times.
pub const PREPASS_RUNS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed passed in as `FleetConfig::seed`.
    pub seed: u64,
    /// Wall seconds of measurement (set-up excluded).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Fleet size (the workload's own size unless overridden).
    pub clients: usize,
    /// Directory for the daemon's socket and state and the trace file.
    pub out: PathBuf,
    /// Self-test: corrupt the input of this check.
    pub corrupt: Option<Check>,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Operation accounting.
    pub tally: Tally,
    /// Metric values by catalogue name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// One measured iteration of either kind.
enum Sample {
    Fleet(Box<FleetSample>, f64),
    Daemon(DaemonSample),
}

impl Sample {
    fn report_s(&self) -> f64 {
        match self {
            Sample::Fleet(s, _) => s.report_s,
            Sample::Daemon(s) => s.report_s,
        }
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD` parameter of `mallopt`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc's mmap threshold at its initial 128 KiB. By default the
/// threshold rises to the size of each large block freed, so whether a
/// later multi-MB buffer is a fresh mapping (returned on free, grown in
/// place by `mremap`) or a heap chunk (kept resident, grown by copying)
/// depends on the order earlier iterations freed things in; the peak
/// resident set of the daemon workload then jumped between about 85, 98
/// and 106 MB from one iteration to the next. Pinned, the peak is what
/// the program holds live at once.
fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: mallopt takes no pointers and only sets an allocator knob.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Hands the allocator's free pages back to the kernel, so the resident
/// set is what is live rather than what earlier iterations left cached.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

/// Trims the heap and resets this process's peak resident set to its
/// current one, so the next `peak_rss_mb` reads the peak since now.
/// False where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `opts` to completion. Errors only when the run cannot start
/// (the daemon does not come up); failures after that are counted.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    pin_mmap_threshold();
    let w = opts.workload;
    let mut tracer = Tracer::new(opts.trace);
    let mut quiet = Tracer::new(false);
    let mut tally = Tally {
        corrupt: opts.corrupt,
        ..Tally::default()
    };
    let run_dir = opts
        .out
        .join(format!("run-{}-{}", w.name(), std::process::id()));

    // Set-up: input generation, daemon start, connect and handshake, and
    // one full-size warm-up iteration (in setup_s, not in report_s);
    // repeated SETUPS times, each daemon on a fresh socket and state dir.
    let mut setup_s = Vec::new();
    let mut harness: Option<DaemonHarness> = None;
    let mut inputs = None;
    for k in 0..SETUPS {
        if let Some(previous) = harness.take() {
            if let Err(e) = previous.shutdown() {
                tally.error("daemon shutdown", &e);
            }
        }
        let t0 = Instant::now();
        let config = w.config(opts.seed, opts.clients);
        let spec = Workload::daemon_spec(opts.seed, opts.clients);
        if w.uses_daemon() {
            let mut h = DaemonHarness::start(&run_dir.join(format!("setup{k}")), &mut tracer)?;
            let warmed = h.iteration(&spec, &mut quiet);
            harness = Some(h);
            if let Err(e) = warmed {
                tally.error("warm-up iteration", &e);
            }
        } else {
            run_fleet(&config, &mut quiet);
        }
        tracer.record("setup", None, t0, Instant::now());
        setup_s.push(secs_since(t0));
        inputs = Some((config, spec));
    }

    let (config, spec) = inputs.expect("at least one set-up");

    // Measurement.
    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut reference: Option<(String, Option<FleetReport>)> = None;
    let mut iteration_rss: Vec<f64> = Vec::new();
    let mut rss_resets = true;
    let measure_start = Instant::now();
    let mut i = 0;
    while i < MIN_ITERATIONS || secs_since(measure_start) < opts.seconds {
        let is_traced = opts.trace && i % 2 == 1;
        let t = if is_traced { &mut tracer } else { &mut quiet };
        i += 1;
        rss_resets &= reset_peak_rss();
        let (sample, bytes, report) = match &mut harness {
            None => {
                let s = run_fleet(&config, t);
                let (bytes, render_s) = render(&s.report, t);
                let report = s.report.clone();
                (Sample::Fleet(Box::new(s), render_s), bytes, Some(report))
            }
            Some(h) => match h.iteration(&spec, t) {
                Ok(s) => {
                    let bytes = s.report_bytes.clone();
                    (Sample::Daemon(s), bytes, None)
                }
                Err(e) => {
                    tally.error("daemon iteration", &e);
                    break;
                }
            },
        };
        tally.op("iteration", true);
        match &reference {
            None => reference = Some((bytes, report)),
            Some((first, _)) => {
                tally.same_bytes(Check::Repeat, first, &bytes);
            }
        }
        if is_traced {
            traced.push(sample);
        } else {
            iteration_rss.push(peak_rss_mb());
            untraced.push(sample);
        }
    }
    let measured_s = secs_since(measure_start);

    // Checks and probes after the timed loop.
    let mut bare: Option<FleetSample> = None;
    let mut bare_render_s = f64::NAN;
    let anchor_report = match (&reference, w.uses_daemon()) {
        (Some((_, Some(report))), false) => Some(report.clone()),
        (Some((daemon_bytes, None)), true) => {
            // The daemon's report must equal a bare run of the same
            // configuration, byte for byte; in the traced run the bare
            // run is traced too and is the `daemon.overhead_x` base.
            let t = if opts.trace { &mut tracer } else { &mut quiet };
            let s = run_fleet(&config, t);
            let (bytes, render_s) = render(&s.report, t);
            bare_render_s = render_s;
            tally.same_bytes(Check::DaemonVsBare, &bytes, daemon_bytes);
            let report = s.report.clone();
            bare = Some(s);
            Some(report)
        }
        _ => None,
    };
    if let Some(report) = &anchor_report {
        tally.anchors(w, report);
    }
    let mut probe = None;
    let mut prepass_s = f64::NAN;
    if let (true, Some((expected, _))) = (opts.trace, &reference) {
        prepass_s = prepass_probe(&config, PREPASS_RUNS, &mut tracer);
        let p = restore_probe(&config, SimTime::from_secs(PAUSE_AT_S), &mut tracer);
        let got = match &p.report {
            Ok(report) => render(report, &mut quiet).0,
            Err(e) => format!("restore failed: {e}"),
        };
        tally.same_bytes(Check::Restore, expected, &got);
        probe = Some(p);
        if w == Workload::Secure36k {
            let single = fleet::FleetConfig {
                threads: 1,
                ..config.clone()
            };
            let s = run_fleet(&single, &mut quiet);
            let got = render(&s.report, &mut quiet).0;
            tally.same_bytes(Check::Threads, expected, &got);
        }
    }
    if let Some(h) = harness.take() {
        if let Err(e) = h.shutdown() {
            tally.error("daemon shutdown", &e);
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    let mut values = BTreeMap::new();
    let mut lines = vec![format!(
        "workload {} seed {} clients {} trace {}: {} iterations ({} traced) in {:.2} s",
        w.name(),
        opts.seed,
        opts.clients,
        u8::from(opts.trace),
        untraced.len() + traced.len(),
        traced.len(),
        measured_s
    )];
    if opts.trace {
        let sample_report = anchor_report.as_ref();
        per_layer(
            &mut values,
            &Traced {
                traced: &traced,
                untraced: &untraced,
                bare: bare.as_ref(),
                bare_render_s,
                report: sample_report,
                restore: probe.as_ref(),
                prepass_s,
            },
        );
        let path = opts
            .out
            .join(format!("trace-{}-seed{}.json", w.name(), opts.seed));
        match write_trace(&path, opts, &values, &tracer) {
            Ok(()) => lines.push(format!(
                "trace: {} spans and {} per-layer metrics written to {}",
                tracer.spans().len(),
                values.len(),
                path.display()
            )),
            Err(e) => tally.error("writing the trace", &e),
        }
        for (name, unit) in crate::metrics::PER_LAYER {
            lines.push(format!("{name} = {} {unit}", fmt(values.get(name))));
        }
    } else {
        let report_s: Vec<f64> = untraced.iter().map(Sample::report_s).collect();
        values.insert("report_s", median(&report_s));
        values.insert("setup_s", median(&setup_s));
        values.insert("peak_rss_mb", median(&iteration_rss));
        lines.push(format!(
            "report_s = {} s (median of {} iterations: {})",
            fmt(values.get("report_s")),
            report_s.len(),
            report_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        lines.push(format!(
            "setup_s = {} s (median of {} set-ups, each with a full-size warm-up iteration: {})",
            fmt(values.get("setup_s")),
            setup_s.len(),
            setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        lines.push(format!(
            "peak_rss_mb = {} MB (median of {} iterations' {} peaks: {})",
            fmt(values.get("peak_rss_mb")),
            iteration_rss.len(),
            if rss_resets { "own" } else { "cumulative" },
            iteration_rss
                .iter()
                .map(|m| format!("{m:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        if w.uses_daemon() {
            daemon_lines(&mut lines, &untraced);
        }
    }
    lines.push(format!(
        "error_rate = {} ({} failed of {} attempted operations)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    ));
    for failure in &tally.failures {
        lines.push(format!("FAILED: {failure}"));
    }
    lines.push(format!(
        "correct = {}",
        if tally.correct() { "true" } else { "false" }
    ));
    Ok(Outcome {
        tally,
        values,
        lines,
    })
}

fn fmt(v: Option<&f64>) -> String {
    v.map_or("missing".to_string(), |v| format!("{v}"))
}

/// The daemon-only end-to-end figures: resume time and `status` round
/// trips, each a median over iterations.
fn daemon_lines(lines: &mut Vec<String>, samples: &[Sample]) {
    let daemon: Vec<&DaemonSample> = samples
        .iter()
        .filter_map(|s| match s {
            Sample::Daemon(d) => Some(d),
            Sample::Fleet(..) => None,
        })
        .collect();
    let resume: Vec<f64> = daemon.iter().map(|d| d.resume_s).collect();
    lines.push(format!(
        "resume_s = {} s (median of {} iterations)",
        median(&resume),
        resume.len()
    ));
    let requests: usize = daemon.iter().map(|d| d.status_rtts.len()).sum();
    let fewest = daemon
        .iter()
        .map(|d| d.status_rtts.len())
        .min()
        .unwrap_or(0);
    for (name, p) in [("status_p50_ms", 0.5), ("status_p90_ms", 0.9)] {
        let per_iteration: Vec<f64> = daemon
            .iter()
            .map(|d| percentile(&d.status_rtts, p) * 1e3)
            .collect();
        lines.push(format!(
            "{name} = {} ms (median over {} iterations of {requests} requests, at least {fewest} each)",
            median(&per_iteration),
            daemon.len(),
        ));
    }
}

/// What the traced run measured.
struct Traced<'a> {
    /// Traced iterations.
    traced: &'a [Sample],
    /// Untraced iterations of the same run.
    untraced: &'a [Sample],
    /// The daemon workload's bare-run twin.
    bare: Option<&'a FleetSample>,
    /// Render time of the bare run's report.
    bare_render_s: f64,
    /// The report the work counts come from.
    report: Option<&'a FleetReport>,
    /// The checkpoint/restore probe.
    restore: Option<&'a RestoreProbe>,
    /// The pre-pass probe.
    prepass_s: f64,
}

/// Fills the per-layer catalogue from the traced run.
fn per_layer(values: &mut BTreeMap<&'static str, f64>, run: &Traced) {
    let Traced {
        traced,
        untraced,
        bare,
        bare_render_s,
        report,
        restore: probe,
        prepass_s,
    } = *run;
    for (name, _) in crate::metrics::PER_LAYER {
        values.insert(name, 0.0);
    }
    let med = |f: &dyn Fn(&Sample) -> Option<f64>| {
        median(&traced.iter().filter_map(f).collect::<Vec<_>>())
    };
    let fleet = |f: fn(&FleetSample) -> f64| {
        move |s: &Sample| match s {
            Sample::Fleet(x, _) => Some(f(x)),
            Sample::Daemon(_) => None,
        }
    };
    let daemon = |f: fn(&DaemonSample) -> f64| {
        move |s: &Sample| match s {
            Sample::Daemon(x) => Some(f(x)),
            Sample::Fleet(..) => None,
        }
    };
    let engine_of = |s: &Sample| match s {
        Sample::Fleet(x, _) => x.engine,
        Sample::Daemon(x) => Some(x.engine),
    };
    let eng = |f: fn(&EngineReading) -> f64| move |s: &Sample| engine_of(s).as_ref().map(f);
    let events = report.map_or(0, |r| r.events) as f64;

    // Engine calls: spanned by the benchmark in fleet workloads, and on
    // the bare twin run in the daemon workload.
    let (new_s, slice_s, report_call_s) = match bare {
        Some(b) => (b.new_s, b.slice_s, b.report_call_s),
        None => (
            med(&fleet(|x| x.new_s)),
            med(&fleet(|x| x.slice_s)),
            med(&fleet(|x| x.report_call_s)),
        ),
    };
    values.insert("fleet.engine.new_s", new_s);
    values.insert("fleet.engine.slice_s", slice_s);
    values.insert("fleet.engine.report_call_s", report_call_s);
    values.insert("fleet.engine.events", events);
    values.insert("fleet.engine.ns_per_event", slice_s * 1e9 / events);
    values.insert("fleet.metrics.timeline_prepass_s", prepass_s);
    values.insert(
        "fleet.metrics.shard_slice_s",
        med(&eng(|e| e.shard_slice_s)),
    );
    values.insert(
        "fleet.metrics.report_merge_s",
        med(&eng(|e| e.report_merge_s)),
    );
    values.insert(
        "fleet.wheel.advances",
        med(&eng(|e| e.wheel_advances as f64)),
    );
    values.insert(
        "fleet.wheel.ticks_skipped",
        med(&eng(|e| e.wheel_ticks_skipped as f64)),
    );
    values.insert(
        "fleet.wheel.round_batches",
        med(&eng(|e| e.round_batches as f64)),
    );

    if let Some(r) = report {
        let t = &r.totals;
        values.insert("chronos.core.pool_queries", t.pool_queries as f64);
        values.insert("chronos.core.polls", t.polls as f64);
        values.insert("chronos.core.accepts", t.accepts as f64);
        values.insert("chronos.core.rejects", t.rejects as f64);
        values.insert("chronos.core.panics", t.panics as f64);
        values.insert(
            "chronos.core.accept_ratio",
            t.accepts as f64 / t.polls as f64,
        );
        values.insert("chronos.core.rekeys", r.secure.rekeys as f64);
        values.insert(
            "chronos.core.captured_associations",
            r.secure.captured_associations as f64,
        );
        values.insert(
            "chronos.core.detected_inconsistencies",
            r.secure.detected_inconsistencies as f64,
        );
        values.insert("chronos.core.ntp_losses", r.faults.ntp_losses as f64);
        values.insert("chronos.core.dns_servfails", r.faults.dns_servfails as f64);
        values.insert("chronos.core.stale_served", r.faults.stale_served as f64);
        values.insert("chronos.core.boot_retries", r.faults.boot_retries as f64);
    }
    if let Some(p) = probe {
        values.insert("fleet.checkpoint.encode_s", p.encode_s);
        values.insert("fleet.checkpoint.bytes", p.bytes as f64);
        values.insert("fleet.checkpoint.restore_s", p.restore_s);
    }

    let traced_report_s = med(&|s: &Sample| Some(s.report_s()));
    let untraced_report_s = median(&untraced.iter().map(Sample::report_s).collect::<Vec<_>>());
    values.insert("trace.overhead_x", traced_report_s / untraced_report_s);
    match bare {
        None => {
            values.insert(
                "chronosd.render.report_json_s",
                med(&|s: &Sample| match s {
                    Sample::Fleet(_, r) => Some(*r),
                    Sample::Daemon(_) => None,
                }),
            );
            // Blocking path: the pre-pass inside `new`, the `run_until`
            // call, and the merge inside `report`; what is left is the
            // rest of construction and of `report`.
            let merge = med(&eng(|e| e.report_merge_s));
            values.insert(
                "trace.unexplained_s",
                med(&fleet(|x| x.report_s - x.slice_s)) - prepass_s - merge,
            );
        }
        Some(b) => {
            values.insert("chronosd.render.report_json_s", bare_render_s);
            values.insert("chronosd.jobs.submit_s", med(&daemon(|d| d.submit_s)));
            values.insert("chronosd.jobs.slices", med(&daemon(|d| d.slices as f64)));
            values.insert(
                "chronosd.daemon.checkpoint_request_s",
                med(&daemon(|d| d.checkpoint_request_s)),
            );
            values.insert(
                "chronosd.daemon.resume_request_s",
                med(&daemon(|d| d.resume_request_s)),
            );
            values.insert(
                "chronosd.daemon.report_request_s",
                med(&daemon(|d| d.report_request_s)),
            );
            let rtts: Vec<f64> = traced
                .iter()
                .filter_map(|s| match s {
                    Sample::Daemon(d) => Some(d.status_rtts.iter().copied()),
                    Sample::Fleet(..) => None,
                })
                .flatten()
                .collect();
            values.insert("chronosd.daemon.status_s", median(&rtts));
            values.insert("chronosd.daemon.overhead_x", traced_report_s / b.report_s);
            values.insert("chronosd.state.sync_s", med(&daemon(|d| d.sync_s)));
            values.insert(
                "chronosd.state.manifest_bytes",
                med(&daemon(|d| d.manifest_bytes as f64)),
            );
            // Blocking path: the control requests plus the engine work
            // the daemon's worker does between them (the first job's
            // pre-pass, its slices and the resumed job's restore).
            // Checkpoint encode and report merge run inside the
            // checkpoint, sync and report requests.
            values.insert(
                "trace.unexplained_s",
                med(&daemon(|d| {
                    d.report_s
                        - d.submit_s
                        - d.checkpoint_request_s
                        - d.sync_s
                        - d.resume_request_s
                        - d.report_request_s
                        - d.engine.shard_slice_s
                        - d.engine.checkpoint_restore_s
                })) - prepass_s,
            );
        }
    }
}

fn write_trace(
    path: &std::path::Path,
    opts: &Options,
    values: &BTreeMap<&'static str, f64>,
    tracer: &Tracer,
) -> Result<(), String> {
    let metrics: Vec<String> = crate::metrics::PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                crate::metrics::json_number(v)
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"clients\": {},\n  \"per_layer\": {{\n    {}\n  }},\n  \"spans\": {}\n}}\n",
        opts.workload.name(),
        opts.seed,
        opts.clients,
        metrics.join(",\n    "),
        tracer.spans_json()
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))
}

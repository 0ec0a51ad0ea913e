//! In-process fleet iterations: `Fleet::new` → `run_until(horizon)` →
//! `report`, and the checkpoint/restore equality probe.

use std::sync::Arc;
use std::time::Instant;

use chronosd::render::report_json;
use fleet::{Fleet, FleetConfig, FleetMetrics, FleetReport};
use netsim::time::SimTime;

use crate::trace::Tracer;

/// Wall seconds of the stage histograms and the counters of one
/// `FleetMetrics` handle (or the difference of two readings).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineReading {
    /// `fleet_stage_seconds{stage="shard_slice"}` sum (summed over shards, so it can exceed
    /// wall time on the parallel path).
    pub shard_slice_s: f64,
    /// `stage="report_merge"` sum.
    pub report_merge_s: f64,
    /// `stage="checkpoint_restore"` sum.
    pub checkpoint_restore_s: f64,
    /// `fleet_wheel_advances_total`.
    pub wheel_advances: u64,
    /// `fleet_wheel_ticks_skipped_total`.
    pub wheel_ticks_skipped: u64,
    /// `fleet_round_batches_total`.
    pub round_batches: u64,
}

impl EngineReading {
    /// Reads every instrument of `m`.
    pub fn of(m: &FleetMetrics) -> EngineReading {
        EngineReading {
            shard_slice_s: m.shard_slice.sum_secs(),
            report_merge_s: m.report_merge.sum_secs(),
            checkpoint_restore_s: m.checkpoint_restore.sum_secs(),
            wheel_advances: m.wheel_advances.get(),
            wheel_ticks_skipped: m.wheel_ticks_skipped.get(),
            round_batches: m.round_batches.get(),
        }
    }

    /// What was recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &EngineReading) -> EngineReading {
        EngineReading {
            shard_slice_s: self.shard_slice_s - earlier.shard_slice_s,
            report_merge_s: self.report_merge_s - earlier.report_merge_s,
            checkpoint_restore_s: self.checkpoint_restore_s - earlier.checkpoint_restore_s,
            wheel_advances: self.wheel_advances - earlier.wheel_advances,
            wheel_ticks_skipped: self.wheel_ticks_skipped - earlier.wheel_ticks_skipped,
            round_batches: self.round_batches - earlier.round_batches,
        }
    }
}

/// One fleet iteration's timings and result.
#[derive(Debug)]
pub struct FleetSample {
    /// `Fleet::new` until the report is in hand.
    pub report_s: f64,
    /// `Fleet::new`.
    pub new_s: f64,
    /// The `run_until(horizon)` call.
    pub slice_s: f64,
    /// The `report` call.
    pub report_call_s: f64,
    /// Engine instruments, when the iteration was traced.
    pub engine: Option<EngineReading>,
    /// The report.
    pub report: FleetReport,
}

/// Steps `config` to its horizon and reports. When `tracer` is enabled
/// a fresh `FleetMetrics` side channel is attached and one span is
/// recorded per engine call, under an `iteration` root span.
pub fn run_fleet(config: &FleetConfig, tracer: &mut Tracer) -> FleetSample {
    let traced = tracer.enabled();
    let horizon = SimTime::ZERO + config.horizon;
    let metrics = traced.then(|| Arc::new(FleetMetrics::detached()));
    let config = config.clone();
    let t0 = Instant::now();
    let mut fleet = Fleet::new(config);
    fleet.set_metrics(metrics.clone());
    let t1 = Instant::now();
    fleet.run_until(horizon);
    let t2 = Instant::now();
    let report = fleet.report();
    let t3 = Instant::now();
    let root = tracer.record("iteration", None, t0, t3);
    tracer.record("fleet.engine.new", Some(root), t0, t1);
    tracer.record("fleet.engine.run_until", Some(root), t1, t2);
    tracer.record("fleet.engine.report", Some(root), t2, t3);
    drop(fleet);
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    FleetSample {
        report_s: secs(t0, t3),
        new_s: secs(t0, t1),
        slice_s: secs(t1, t2),
        report_call_s: secs(t2, t3),
        engine: metrics.as_deref().map(EngineReading::of),
        report,
    }
}

/// Renders `report` the way the daemon does, timing the render.
pub fn render(report: &FleetReport, tracer: &mut Tracer) -> (String, f64) {
    let t0 = Instant::now();
    let bytes = report_json(report).render();
    let t1 = Instant::now();
    tracer.record("chronosd.render.report_json", None, t0, t1);
    (bytes, t1.duration_since(t0).as_secs_f64())
}

/// Median wall seconds of the shared-cache resolver timeline pre-pass
/// for `config`, over `runs` metered `Fleet::reset`s. `Fleet::new` runs
/// the pre-pass before a side channel can be attached, so the traced
/// iterations cannot see it; a reset of the same configuration repeats
/// exactly that work with the side channel on.
pub fn prepass_probe(config: &FleetConfig, runs: usize, tracer: &mut Tracer) -> f64 {
    let metrics = Arc::new(FleetMetrics::detached());
    let mut fleet = Fleet::new(config.clone());
    fleet.set_metrics(Some(Arc::clone(&metrics)));
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let before = metrics.timeline_prepass.sum_secs();
        let t0 = Instant::now();
        fleet.reset(config.seed);
        tracer.record("fleet.engine.reset", None, t0, Instant::now());
        samples.push(metrics.timeline_prepass.sum_secs() - before);
    }
    crate::stats::median(&samples)
}

/// Outcome of the checkpoint/restore probe.
#[derive(Debug)]
pub struct RestoreProbe {
    /// `Fleet::checkpoint` wall seconds.
    pub encode_s: f64,
    /// Checkpoint size.
    pub bytes: usize,
    /// `Fleet::restore` wall seconds.
    pub restore_s: f64,
    /// Report of the restored fleet run on to the horizon.
    pub report: Result<FleetReport, String>,
}

/// Steps `config` to `pause_at`, checkpoints, restores into a fresh fleet
/// and runs that one on to the horizon.
pub fn restore_probe(config: &FleetConfig, pause_at: SimTime, tracer: &mut Tracer) -> RestoreProbe {
    let mut fleet = Fleet::new(config.clone());
    fleet.run_until(pause_at);
    let t0 = Instant::now();
    let blob = fleet.checkpoint();
    let t1 = Instant::now();
    drop(fleet);
    let t2 = Instant::now();
    let restored = Fleet::restore(&blob);
    let t3 = Instant::now();
    tracer.record("fleet.checkpoint.encode", None, t0, t1);
    tracer.record("fleet.checkpoint.restore", None, t2, t3);
    let report = restored
        .map(|mut f| {
            f.run_until(SimTime::ZERO + config.horizon);
            f.report()
        })
        .map_err(|e| e.to_string());
    RestoreProbe {
        encode_s: t1.duration_since(t0).as_secs_f64(),
        bytes: blob.len(),
        restore_s: t3.duration_since(t2).as_secs_f64(),
        report,
    }
}

//! The traced run's side: a [`Recorder`] that folds the stack's events
//! into per-layer counters, and the per-layer metric vocabulary.

use ra_obs::{Event, Recorder, SpanKind};

/// Every per-layer metric, with its unit. A traced run prints all of them
/// for every workload; a layer the workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("noc.busy_s", "s"),
    ("noc.share", "ratio"),
    ("noc.router_steps", "count"),
    ("noc.ns_per_router_step", "ns"),
    ("noc.fast_forward_ratio", "ratio"),
    ("gpu.barrier_wait_s", "s"),
    ("gpu.barrier_share", "ratio"),
    ("gpu.batches", "count"),
    ("gpu.range_skew", "ratio"),
    ("netmodel.calibrate_s", "s"),
    ("netmodel.calibrations", "count"),
    ("netmodel.resyncs", "count"),
    ("fullsys.busy_s", "s"),
    ("fullsys.share", "ratio"),
    ("coupler.spec_commit_ratio", "ratio"),
    ("coupler.spec_rollbacks", "count"),
    ("coupler.spec_wasted_cycles", "cycles"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("wire.submit_ms_p50", "ms"),
    ("wire.result_ms_p50", "ms"),
    ("wire.bytes_per_job", "bytes"),
    ("relay.hop_ms_p50", "ms"),
    ("relay.edge_hit_ratio", "ratio"),
    ("relay.forwards_per_job", "count"),
    ("relay.retries", "count"),
    ("scheduler.queue_ms_p50", "ms"),
    ("scheduler.queue_ms_p95", "ms"),
    ("scheduler.run_ms_p50", "ms"),
    ("scheduler.rejected", "count"),
    ("store.memo_ratio", "ratio"),
    ("store.hits", "count"),
];

/// Share of the traced end-to-end time the layer times may leave
/// unattributed (or over-attribute) before the traced run fails its
/// accounting check.
pub const SUM_TOLERANCE_PCT: f64 = 5.0;

/// Counters folded from one traced co-simulation or one traced service.
#[derive(Debug, Default, Clone)]
pub struct LayerRecorder {
    pub router_steps: u64,
    pub fast_forwarded: u64,
    pub window_cycles: u64,
    pub batches: u64,
    pub barrier_wait_ns: u64,
    /// Sum over batches of largest / smallest worker range.
    pub range_skew_sum: f64,
    pub detailed_ns: u64,
    pub calibrate_ns: u64,
    pub fullsys_ns: u64,
    pub watchdog_trips: u64,
    /// `(queue_ns, run_ns)` of every job that finished `completed`.
    pub jobs_ok: Vec<(u64, u64)>,
    pub jobs_not_ok: u64,
    pub rejected: u64,
}

impl LayerRecorder {
    /// Wall-clock the profiling spans account for, in seconds.
    pub fn span_s(&self) -> f64 {
        (self.detailed_ns + self.calibrate_ns + self.fullsys_ns) as f64 / 1e9
    }

    pub fn fast_forward_ratio(&self) -> f64 {
        ratio(self.fast_forwarded as f64, self.window_cycles as f64)
    }

    pub fn mean_range_skew(&self) -> f64 {
        ratio(self.range_skew_sum, self.batches as f64)
    }
}

impl Recorder for LayerRecorder {
    fn record(&mut self, event: &Event) {
        match event {
            Event::NocWindow {
                from_cycle,
                to_cycle,
                router_steps,
                fast_forwarded,
                ..
            } => {
                self.router_steps += router_steps;
                self.fast_forwarded += fast_forwarded;
                self.window_cycles += to_cycle.saturating_sub(*from_cycle);
            }
            Event::EngineBatch {
                barrier_wait_ns,
                min_range,
                max_range,
                ..
            } => {
                self.batches += 1;
                self.barrier_wait_ns += barrier_wait_ns;
                self.range_skew_sum += ratio(*max_range as f64, (*min_range).max(1) as f64);
            }
            Event::Span { kind, nanos } => match kind {
                SpanKind::DetailedStep => self.detailed_ns += nanos,
                SpanKind::Calibrate => self.calibrate_ns += nanos,
                SpanKind::FullsysStep => self.fullsys_ns += nanos,
            },
            Event::WatchdogTrip { .. } => self.watchdog_trips += 1,
            Event::JobDone {
                outcome,
                queue_ns,
                run_ns,
                ..
            } => {
                if outcome == "completed" || outcome == "cached" {
                    self.jobs_ok.push((*queue_ns, *run_ns));
                } else {
                    self.jobs_not_ok += 1;
                }
            }
            Event::JobRejected { .. } | Event::JobShed { .. } => self.rejected += 1,
            _ => {}
        }
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Renders the per-layer table: each layer's time and its share of the
/// traced end-to-end time, then the accounting residual.
pub fn layer_table(title: &str, total_s: f64, rows: &[(&str, f64)]) -> String {
    let mut out = format!("{title}\n{:<34} {:>12} {:>8}\n", "layer", "time_s", "share");
    let mut sum = 0.0;
    for (layer, secs) in rows {
        sum += secs;
        out.push_str(&format!(
            "{layer:<34} {secs:>12.6} {:>7.1}%\n",
            100.0 * ratio(*secs, total_s)
        ));
    }
    out.push_str(&format!(
        "{:<34} {sum:>12.6} {:>7.1}%  (traced end-to-end {total_s:.6} s, tolerance ±{SUM_TOLERANCE_PCT}%)\n",
        "sum of layers",
        100.0 * ratio(sum, total_s)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_folds_windows_batches_spans_and_jobs() {
        let mut rec = LayerRecorder::default();
        rec.record(&Event::NocWindow {
            island: 0,
            from_cycle: 0,
            to_cycle: 100,
            router_steps: 40,
            fast_forwarded: 25,
            flits_delivered: 0,
            occupancy: Default::default(),
            flits_dropped: 0,
            reroutes: 0,
            stall_cycles: 0,
        });
        rec.record(&Event::EngineBatch {
            t0: 0,
            cycles: 8,
            workers: 2,
            barrier_wait_ns: 500,
            releases: 0,
            min_range: 2,
            max_range: 6,
        });
        rec.record(&Event::Span {
            kind: SpanKind::Calibrate,
            nanos: 1_000_000_000,
        });
        rec.record(&Event::JobDone {
            job: 1,
            outcome: "failed".into(),
            queue_ns: 0,
            run_ns: 0,
            spec_commits: 0,
            spec_rollbacks: 0,
        });
        assert_eq!(rec.router_steps, 40);
        assert_eq!(rec.fast_forward_ratio(), 0.25);
        assert_eq!(rec.mean_range_skew(), 3.0);
        assert_eq!(rec.span_s(), 1.0);
        assert_eq!(rec.jobs_not_ok, 1);
        assert!(rec.jobs_ok.is_empty());
    }
}

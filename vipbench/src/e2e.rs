//! The untraced run: the end-to-end metrics a client of the server sees.

use crate::check::{verify, Outcome};
use crate::host::Host;
use crate::stats::{chunked_quantile, median, CHUNK};
use crate::wire::{self, Sample, WARMUP};
use crate::workload::World;
use crate::Report;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPS`, then more while the set-ups so far took under
/// `SETUP_BUDGET`, so a fast set-up is sampled as often as a slow one
/// costs, up to `SETUP_MAX_REPS`.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 64;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Operations fingerprinted to show the stream is a function of the seed.
pub const FINGERPRINT_OPS: usize = 4096;

/// Latencies of the answered queries (or acknowledged writes), in
/// arrival order.
fn latencies(samples: &[Sample], writes: bool) -> Vec<u64> {
    samples
        .iter()
        .filter(|s| s.is_write == writes && s.outcome != Outcome::Failed)
        .map(Sample::ns)
        .collect()
}

pub fn run(world: &World, seconds: u64, out: &Path, host: &Host) -> Report {
    let name = world.workload.name();
    let dir = out.join(format!("{name}.durable"));
    let durable = world.workload.durable().then_some(dir.as_path());
    if let Some(dir) = durable {
        world.write_durable(dir);
    }

    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUP_MAX_REPS);
    let mut up = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS
            && setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        // Release the previous server, service and directory lock first.
        drop(up.take());
        let t = Instant::now();
        let w = wire::setup(world, durable);
        setup_s.push(t.elapsed().as_secs_f64());
        up = Some(w);
    }
    let mut wire = up.expect("at least one set-up");

    let mut stream = world.stream();
    let run = wire::warm_and_run(&mut wire, world, &mut stream, seconds, Instant::now());
    drop(wire);
    if durable.is_some() {
        std::fs::remove_dir_all(&dir).expect("remove the durable directory");
    }
    let (warm, timed, window) = (&run.warm, &run.timed, run.window);

    let log: Vec<Outcome> = warm.iter().chain(timed).map(|s| s.outcome).collect();
    let check = verify(world, &log);
    let queries = latencies(timed, false);
    let writes = latencies(timed, true);
    let attempted = log.len() as u64;
    let failed = check.failed + check.wrong;

    let mut report = Report::new(check.wrong == 0, attempted, failed);
    report.metric("setup_s", median(&setup_s), "s");
    let us = |v: &[u64], q: f64| chunked_quantile(v, q) / 1e3;
    report.metric("query_p50_us", us(&queries, 0.50), "us");
    report.metric("query_p99_us", us(&queries, 0.99), "us");
    report.metric("throughput_ops", run.throughput(), "ops/s");
    report.metric("write_p50_us", us(&writes, 0.50), "us");
    report.metric("write_p99_us", us(&writes, 0.99), "us");
    report.metric("peak_rss_mib", run.peak_rss_mib, "MiB");
    // Printed and recorded, but not a gated metric: it is 0 on a correct
    // build, so it has no median to bound against; `failed` carries it.
    report.note("error_rate", failed as f64 / attempted as f64, "ratio");
    report.note("setup_reps", setup_s.len() as f64, "count");
    report.note("query_samples", queries.len() as f64, "count");
    report.note("write_samples", writes.len() as f64, "count");
    report.note("input.repeat_share", check.repeat_share, "ratio");
    report.note("window_s", window.as_secs_f64(), "s");
    report.note("host.steal_share", run.steal_share, "ratio");
    report.note(
        "mean_throughput_ops",
        timed.len() as f64 / window.as_secs_f64(),
        "ops/s",
    );
    report.extra("host", host.json());
    let venues: Vec<String> = world
        .venues
        .iter()
        .map(|v| format!("\"{}\"", v.name))
        .collect();
    report.extra("venues", format!("[{}]", venues.join(", ")));
    report.extra(
        "stream_fingerprint",
        format!("\"{:016x}\"", world.fingerprint(FINGERPRINT_OPS)),
    );
    report.extra("fingerprint_ops", FINGERPRINT_OPS.to_string());
    report.extra("warmup_s", WARMUP.as_secs().to_string());
    report.extra("warmup_ops", warm.len().to_string());
    report.extra("quantile_chunk", CHUNK.to_string());
    report.extra("depth", world.workload.depth().to_string());
    report.extra("client_threads", "1".into());
    report.extra("connections", "1".into());
    if durable.is_some() {
        report.extra("sync_policy", "\"Never\"".into());
    }
    if let Some(w) = check.first_wrong {
        report.extra("first_wrong", format!("{w:?}"));
    }
    report
}

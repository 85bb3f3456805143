//! The traced run: the same stream, first over the wire with a span per
//! operation, then replayed layer by layer through each layer's public
//! entry point, on fresh twins built from the same seed so every layer
//! sees the same requests, in the same order, from the same cache state.
//!
//! Spans are `(name, start, end, parent, request)`. The wire span of a
//! request is the root; the replayed layer spans are its logical
//! children (`service.batch` → `service.execute` → `exec.*`, plus
//! `frames.*` and `net.ping`), timed one after another rather than
//! nested in time, because no span is recorded inside the program.

use crate::check::{verify, Outcome};
use crate::host::Host;
use crate::stats::{mean_u64, median, median_u64};
use crate::wire::{self, Sample};
use crate::workload::{Op, RepeatShare, World};
use crate::Report;
use indoor_model::frames::{Frame, FrameDecoder};
use indoor_model::metrics::MetricValue;
use indoor_model::{QueryKind, Venue};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use vip_tree::IndoorService;

/// Timed operations (after warm-up) whose layers are replayed one by one.
const LAYER_OPS: usize = 10_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: usize,
}

struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Time `f` as a span and return (span index, duration, result).
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        f: impl FnOnce() -> T,
    ) -> (usize, u64, T) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(t0),
            end_ns: ns(t1),
            parent,
            req,
        });
        (self.spans.len() - 1, ns(t1) - ns(t0), out)
    }

    fn tsv(&self) -> String {
        let mut s = String::from("name\tstart_ns\tend_ns\tparent\treq\n");
        for sp in &self.spans {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                s,
                "{}\t{}\t{}\t{parent}\t{}",
                sp.name, sp.start_ns, sp.end_ns, sp.req
            );
        }
        s
    }
}

/// One replayed query: the wire span and each layer's span, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryRow {
    pub client: u64,
    pub ping: u64,
    pub frames: u64,
    pub batch: u64,
    pub execute: u64,
    /// `QueryEngine::execute`; a child of `execute` only on a cache miss.
    pub exec: u64,
    pub cache_hit: bool,
}

/// Self time of each layer of one request: its span less the spans of
/// its children, never below zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfTimes {
    pub net: u64,
    pub fanout: u64,
    pub service: u64,
    /// Children that outlasted their parent (separately timed spans can):
    /// each such self time is clamped to zero and counted here.
    pub clamped: u32,
    /// Client time not covered by the independently timed ping, frames
    /// and service batch spans.
    pub residual: i64,
}

impl QueryRow {
    pub fn self_times(&self) -> SelfTimes {
        let mut clamped = 0;
        let mut less = |a: u64, b: u64| {
            clamped += u32::from(b > a);
            a.saturating_sub(b)
        };
        let exec_child = if self.cache_hit { 0 } else { self.exec };
        SelfTimes {
            net: less(self.client, self.batch + self.frames),
            fanout: less(self.batch, self.execute),
            service: less(self.execute, exec_child),
            clamped,
            residual: self.client as i64 - (self.ping + self.frames + self.batch) as i64,
        }
    }
}

/// Sum of the named counter over every venue of `service`.
fn counter(service: &IndoorService, name: &str) -> u64 {
    service
        .metrics_snapshot()
        .series
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// `throughput_ops` of the last untraced run of this workload, if its
/// result file is there (for the tracing-overhead comparison).
fn untraced_throughput(out: &Path, workload: &str) -> Option<f64> {
    let text = std::fs::read_to_string(out.join(format!("{workload}.json"))).ok()?;
    let key = "\"throughput_ops\": {\"value\": ";
    let rest = &text[text.find(key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

pub fn run(world: &World, seconds: u64, out: &Path, host: &Host) -> Report {
    let name = world.workload.name();
    let epoch = Instant::now();
    let mut spans = Spans {
        epoch,
        spans: Vec::new(),
    };
    let wire_dir = out.join(format!("{name}.traced.durable"));
    let twin_dir = out.join(format!("{name}.twin.durable"));
    let durable = world.workload.durable().then_some(wire_dir.as_path());
    if let Some(dir) = durable {
        world.write_durable(dir);
    }
    world.write_durable(&twin_dir);

    // 1. Over the wire, exactly as the untraced run, one root span per op.
    let mut wire = wire::setup(world, durable);
    let mut stream = world.stream();
    let run = wire::warm_and_run(&mut wire, world, &mut stream, seconds, epoch);
    let (warm, timed) = (&run.warm, &run.timed);
    let traced_throughput = run.throughput();
    let samples: Vec<Sample> = warm.iter().chain(timed).copied().collect();
    // Root spans of the requests whose layers are replayed below.
    let layered = warm.len()..samples.len().min(warm.len() + LAYER_OPS);
    let mut root = vec![None; samples.len()];
    for i in layered.clone() {
        let s = &samples[i];
        root[i] = Some(spans.spans.len());
        spans.spans.push(Span {
            name: if s.is_write {
                "client.write"
            } else {
                "client.query"
            },
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            parent: None,
            req: i,
        });
    }
    let wire_stats = wire.service.stats();

    // 2. The bare round trip on the same connection: one ping per query.
    let mut ping = vec![0u64; samples.len()];
    for i in layered.clone() {
        if !samples[i].is_write {
            let (_, ns, r) = spans.time("net.ping", root[i], i, || wire.client.ping());
            r.expect("ping over loopback");
            ping[i] = ns;
        }
    }
    drop(wire);

    // 3. Layer replays on twins in the run's starting state.
    let batch_twin = world.volatile_service();
    let exec_twin = world.volatile_service();
    let (_, open_ns, durable_twin) = spans.time("persist.open", None, usize::MAX, || {
        IndoorService::open(&twin_dir)
    });
    let durable_twin = durable_twin.expect("recover the twin directory");
    let mut stream = world.stream();
    let mut repeats = RepeatShare::default();
    let mut rows: Vec<(QueryKind, QueryRow)> = Vec::new();
    let (mut encode, mut decode, mut reply_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut update, mut wal_self) = (Vec::new(), Vec::new());
    let mut dec = FrameDecoder::new();
    for i in 0..layered.end {
        let op = stream.next_op();
        repeats.observe(&op);
        let timed = layered.contains(&i);
        match op {
            Op::Query { venue, req } if timed => {
                let id = World::id(venue);
                let slots = vec![(id, req.clone())];
                let (b, batch, _) = spans.time("service.batch", root[i], i, || {
                    black_box(batch_twin.execute_batch(&slots))
                });
                let hits = exec_twin.stats().total_cache_hits();
                let (e, execute, resp) = spans.time("service.execute", Some(b), i, || {
                    exec_twin.execute(id, &req)
                });
                let resp = resp.expect("the twin answers every generated query");
                let cache_hit = exec_twin.stats().total_cache_hits() > hits;
                let engine = exec_twin.engine(id).expect("the twin serves the venue");
                let exec_name = match req.kind() {
                    QueryKind::Knn => "exec.knn",
                    QueryKind::Range => "exec.range",
                    QueryKind::KnnKeyword => "exec.keyword",
                    QueryKind::ShortestDistance => "exec.shortest_distance",
                    QueryKind::ShortestPath => "exec.shortest_path",
                };
                let parent = (!cache_hit).then_some(e);
                let (_, exec, _) =
                    spans.time(exec_name, parent, i, || black_box(engine.execute(&req)));

                let query = Frame::Query {
                    id: i as u64,
                    venue: id.0,
                    req: req.clone(),
                };
                let answer = Frame::Answer {
                    id: i as u64,
                    result: Ok(resp),
                };
                let (_, eq, qb) = spans.time("frames.encode", root[i], i, || query.encode());
                let (_, ea, ab) = spans.time("frames.encode", root[i], i, || answer.encode());
                let mut decoded = |bytes: &[u8]| {
                    spans.time("frames.decode", root[i], i, || {
                        dec.extend(bytes);
                        dec.next().expect("own frames decode").expect("whole frame")
                    })
                };
                let (_, dq, fq) = decoded(&qb);
                let (_, da, fa) = decoded(&ab);
                assert!(fq == query && fa == answer, "frames round-trip");
                encode.push(eq + ea);
                decode.push(dq + da);
                reply_bytes.push(ab.len() as u64);
                rows.push((
                    req.kind(),
                    QueryRow {
                        client: samples[i].ns(),
                        ping: ping[i],
                        frames: eq + ea + dq + da,
                        batch,
                        execute,
                        exec,
                        cache_hit,
                    },
                ));
            }
            Op::Query { venue, req } => {
                // Untimed rows only advance the twins' cache state, which
                // `execute` does as `execute_batch` would, without a spawn.
                let id = World::id(venue);
                let _ = batch_twin.execute(id, &req);
                let _ = exec_twin.execute(id, &req);
            }
            Op::Write { venue, deltas } => {
                let id = World::id(venue);
                let apply = |s: &IndoorService| {
                    s.update_objects(id, &deltas)
                        .expect("generated moves apply")
                };
                // The untimed twin goes first, so both timed applications
                // find the batch's points equally warm.
                apply(&exec_twin);
                let (_, volatile, _) =
                    spans.time("objects.update", root[i], i, || apply(&batch_twin));
                let (_, journalled, _) =
                    spans.time("persist.update", root[i], i, || apply(&durable_twin));
                if timed {
                    update.push(volatile);
                    wal_self.push(journalled as f64 - volatile as f64);
                }
            }
        }
    }
    let pushed = counter(&batch_twin, "indoor_nodes_pushed_total");
    let pruned = counter(&batch_twin, "indoor_nodes_pruned_total");
    let slab_rows = counter(&batch_twin, "indoor_slab_rows_total");
    let kbest = counter(&batch_twin, "indoor_kbest_updates_total");
    let traced_queries = counter(&batch_twin, "indoor_traced_queries_total");
    drop((batch_twin, exec_twin, durable_twin));
    for dir in [Some(twin_dir.as_path()), durable].into_iter().flatten() {
        std::fs::remove_dir_all(dir).expect("remove a durable directory");
    }

    // 4. Ingest and build, per venue of the workload.
    let mut json_ns = 0;
    for v in &world.venues {
        let mut doc = Vec::new();
        v.venue.save_json(&mut doc).expect("venue serialises");
        let (_, ns, parsed) =
            spans.time("json.load", None, usize::MAX, || Venue::load_json(&doc[..]));
        parsed.expect("own venue document parses");
        json_ns += ns;
    }
    let mut build_ns = Vec::new();
    let mut index_bytes = 0;
    for _ in 0..3 {
        let (_, ns, trees) = spans.time("build.vip", None, usize::MAX, || world.build_trees());
        build_ns.push(ns);
        index_bytes = trees.iter().map(|t| t.size_bytes()).sum::<usize>();
    }

    // 5. Every wire answer against the reference, as in the untraced run.
    let log: Vec<Outcome> = samples.iter().map(|s| s.outcome).collect();
    let check = verify(world, &log);

    let selfs: Vec<SelfTimes> = rows.iter().map(|(_, r)| r.self_times()).collect();
    let col = |f: &dyn Fn(&QueryRow) -> u64| rows.iter().map(|(_, r)| f(r)).collect::<Vec<_>>();
    let self_col = |f: &dyn Fn(&SelfTimes) -> u64| selfs.iter().map(f).collect::<Vec<_>>();
    let client = col(&|r| r.client);
    let exec_all = col(&|r| r.exec);
    let kind_exec = |k: QueryKind| {
        rows.iter()
            .filter(|(kind, _)| *kind == k)
            .map(|(_, r)| r.exec)
            .collect::<Vec<_>>()
    };
    let residuals: Vec<f64> = selfs.iter().map(|s| s.residual as f64).collect();

    let mut report = Report::new(
        check.wrong == 0,
        log.len() as u64,
        check.failed + check.wrong,
    );
    let layers: Vec<(&str, Vec<u64>)> = vec![
        ("client.query_ns", client.clone()),
        ("net.rtt_self_ns", self_col(&|s| s.net)),
        ("net.ping_ns", col(&|r| r.ping)),
        ("frames.encode_ns", encode),
        ("frames.decode_ns", decode),
        ("service.batch_ns", col(&|r| r.batch)),
        ("service.fanout_self_ns", self_col(&|s| s.fanout)),
        ("service.execute_ns", col(&|r| r.execute)),
        ("service.self_ns", self_col(&|s| s.service)),
        ("exec.execute_ns", exec_all),
        ("exec.knn_ns", kind_exec(QueryKind::Knn)),
        ("objects.update_ns", update),
    ];
    for (metric, v) in &layers {
        report.metric(metric, median_u64(v), "ns");
    }
    // A difference of two separately timed calls: its median may dip
    // below zero when the journal costs less than their noise.
    report.metric("persist.wal_self_ns", median(&wal_self), "ns");
    report.metric("frames.reply_bytes", median_u64(&reply_bytes), "bytes");
    report.metric("service.cache_hit_rate", wire_stats.hit_rate(), "ratio");
    report.metric(
        "service.cache_evictions",
        wire_stats.evictions as f64,
        "count",
    );
    report.metric("service.shed", wire_stats.shed as f64, "count");
    report.metric("input.repeat_share", repeats.share(), "ratio");
    report.metric(
        "exec.nodes_pushed_per_query",
        ratio(pushed, traced_queries),
        "count",
    );
    report.metric("exec.prune_rate", ratio(pruned, pushed + pruned), "ratio");
    report.metric(
        "exec.slab_rows_per_query",
        ratio(slab_rows, traced_queries),
        "count",
    );
    report.metric(
        "exec.kbest_updates_per_query",
        ratio(kbest, traced_queries),
        "count",
    );
    report.metric("persist.open_ns", open_ns as f64, "ns");
    report.metric("json.load_ns", json_ns as f64, "ns");
    report.metric("build.vip_build_ns", median_u64(&build_ns), "ns");
    report.metric(
        "build.index_mib",
        index_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    report.metric("ledger.residual_ns", median(&residuals), "ns");
    report.metric("trace.throughput_ops", traced_throughput, "ops/s");

    // The ledger file: every layer's median and mean, the reconciliation
    // of means against the client span, and the tracing overhead.
    let mut ledger = String::from("{\n");
    let _ = writeln!(
        ledger,
        "  \"workload\": \"{name}\",\n  \"seed\": {},",
        world.seed
    );
    let _ = writeln!(ledger, "  \"host\": {},", host.json());
    let _ = writeln!(ledger, "  \"layer_rows\": {},", rows.len());
    let clamped: u32 = selfs.iter().map(|s| s.clamped).sum();
    let _ = writeln!(ledger, "  \"clamped_self_times\": {clamped},");
    let _ = writeln!(ledger, "  \"layers\": {{");
    for (metric, v) in layers.iter().filter(|(m, _)| !m.starts_with("exec.knn")) {
        let _ = writeln!(
            ledger,
            "    \"{metric}\": {{\"median\": {}, \"mean\": {}, \"samples\": {}}},",
            median_u64(v),
            mean_u64(v),
            v.len()
        );
    }
    for k in QueryKind::ALL {
        let v = kind_exec(k);
        let _ = writeln!(
            ledger,
            "    \"exec.{}_ns\": {{\"median\": {}, \"mean\": {}, \"samples\": {}}},",
            k.label(),
            median_u64(&v),
            mean_u64(&v),
            v.len()
        );
    }
    let _ = writeln!(
        ledger,
        "    \"ledger.residual_ns\": {{\"median\": {}}}\n  }},",
        median(&residuals)
    );
    let explained =
        mean_u64(&col(&|r| r.ping)) + mean_u64(&col(&|r| r.frames)) + mean_u64(&col(&|r| r.batch));
    let client_mean = mean_u64(&client);
    let _ = writeln!(
        ledger,
        "  \"reconcile_means_ns\": {{\"client.query\": {client_mean}, \"net.ping + frames + service.batch\": {explained}, \"residual\": {}, \"residual_share\": {}}},",
        client_mean - explained,
        (client_mean - explained) / client_mean.max(1.0)
    );
    let untraced = untraced_throughput(out, name).map_or("null".into(), |t| t.to_string());
    let _ = writeln!(
        ledger,
        "  \"throughput_ops\": {{\"untraced\": {untraced}, \"traced\": {traced_throughput}}}\n}}"
    );
    std::fs::write(out.join(format!("{name}.ledger.json")), ledger).expect("write the ledger");
    std::fs::write(out.join(format!("{name}.spans.tsv")), spans.tsv()).expect("write the spans");

    report.note("ledger.clamped_self_times", clamped as f64, "count");
    report.extra("host", host.json());
    if let Some(w) = check.first_wrong {
        report.extra("first_wrong", format!("{w:?}"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_are_never_negative() {
        let row = QueryRow {
            client: 50_000,
            ping: 20_000,
            frames: 1_000,
            batch: 40_000,
            execute: 4_000,
            exec: 3_000,
            cache_hit: false,
        };
        let s = row.self_times();
        assert_eq!(
            (s.net, s.fanout, s.service, s.clamped),
            (9_000, 36_000, 1_000, 0)
        );
        assert_eq!(s.residual, 50_000 - 61_000);

        // Separately timed children can outlast their parent: clamp, count.
        let odd = QueryRow {
            client: 10,
            batch: 20,
            execute: 30,
            exec: 40,
            ..row
        };
        let s = odd.self_times();
        assert_eq!((s.net, s.fanout, s.service, s.clamped), (0, 0, 0, 3));
    }

    #[test]
    fn a_cache_hit_has_no_exec_child() {
        let row = QueryRow {
            client: 100,
            batch: 50,
            execute: 5,
            exec: 9,
            cache_hit: true,
            ..QueryRow::default()
        };
        let s = row.self_times();
        assert_eq!((s.service, s.clamped), (5, 0));
    }
}

//! End-to-end contract for the network front-end (`crates/net`) over a
//! loopback listener:
//!
//! - **Byte-identity**: every query kind answered over the wire equals
//!   the in-process [`IndoorService::execute`] answer exactly — framing
//!   round-trips are lossless, including through the pipelined batch
//!   path.
//! - **Typed overload**: flooding a shard past its admission capacity
//!   yields `Overloaded` *replies*, never dropped connections — every
//!   request resolves and the connection stays usable afterwards.
//! - **Replication**: a volatile follower subscribing to a durable
//!   leader's WAL stream is byte-identical on all five query kinds
//!   after catch-up, its reported lag reaches 0, live tailing tracks
//!   new writes, a mid-stream resume from an arbitrary LSN fetches
//!   exactly the missing suffix — and killing the leader leaves the
//!   replica serving its last-synced state.

use indoor_net::{follower, NetClient, NetError, NetServer};
use indoor_spatial::model::frames::{Frame, FrameDecoder, WireError, NET_MAGIC};
use indoor_spatial::prelude::*;
use indoor_spatial::synth::{random_venue, workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> DirGuard {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vip-net-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    DirGuard(dir)
}

struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Venue + labelled objects + a mixed request set covering all five
/// query kinds.
fn fixture(seed: u64) -> (Arc<Venue>, ShardConfig, Vec<QueryRequest>) {
    let venue = Arc::new(random_venue(seed));
    let objects = workload::place_objects(&venue, 24, seed);
    let keywords = workload::cycling_labels(&objects, "atm");
    let reqs = workload::mixed_requests(&venue, 6, 4, 60.0, "atm", seed);
    let config = ShardConfig {
        threads: 1,
        objects,
        keywords,
        ..ShardConfig::default()
    };
    (venue, config, reqs)
}

#[test]
fn wire_answers_are_byte_identical_to_direct_execution() {
    let (venue, config, reqs) = fixture(81);
    let service = Arc::new(IndoorService::new());
    let id = service.add_venue(venue, config).unwrap();
    let server = NetServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // Sequential path: one request per round trip.
    for req in &reqs {
        let direct = service.execute(id, req).unwrap();
        let wired = client.query(id.index() as u32, req).unwrap();
        assert_eq!(wired, direct, "sequential wire answer diverged: {req:?}");
    }

    // Batch path: the whole mixed set in one frame, answered by one
    // `execute_batch` server-side.
    let batch: Vec<(u32, QueryRequest)> = reqs
        .iter()
        .map(|r| (id.index() as u32, r.clone()))
        .collect();
    let answers = client.query_batch(&batch).unwrap();
    assert_eq!(answers.len(), reqs.len());
    for (req, ans) in reqs.iter().zip(answers) {
        let direct = service.execute(id, req).unwrap();
        assert_eq!(
            ans.unwrap(),
            direct,
            "batched wire answer diverged: {req:?}"
        );
    }

    // Pipelined path: fire everything, then drain; replies must match
    // by id, not arrival order assumptions.
    let mut expect = std::collections::HashMap::new();
    for req in &reqs {
        let rid = client.send_query(id.index() as u32, req.clone()).unwrap();
        expect.insert(rid, service.execute(id, req).unwrap());
    }
    for _ in 0..reqs.len() {
        let (rid, ans) = client.recv_answer().unwrap();
        let direct = expect.remove(&rid).expect("known request id");
        assert_eq!(ans.unwrap(), direct, "pipelined wire answer diverged");
    }
    assert!(expect.is_empty());
}

#[test]
fn unknown_venue_and_malformed_admin_come_back_typed() {
    let service = Arc::new(IndoorService::new());
    let server = NetServer::bind(service, "127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let venue = random_venue(83);
    let req = &workload::mixed_requests(&venue, 1, 2, 30.0, "atm", 83)[0];
    match client.query(999, req) {
        Err(NetError::Server(e)) => assert!(
            !e.is_retryable(),
            "unknown venue must not be retried: {e:?}"
        ),
        other => panic!("want typed UnknownVenue, got {other:?}"),
    }
    // The connection survives the error reply.
    client.ping().unwrap();
}

/// Send one frame on a raw handshaken connection and read the next reply.
fn raw_call(stream: &mut std::net::TcpStream, dec: &mut FrameDecoder, frame: Frame) -> Frame {
    use std::io::{Read, Write};
    stream.write_all(&frame.encode()).unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if let Some(reply) = dec.next().expect("well-formed reply") {
            return reply;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed the connection");
        dec.extend(&buf[..n]);
    }
}

/// A crafted `AddVenue` frame whose venue document nests a million
/// arrays deep gets a typed `Malformed` reply instead of overflowing the
/// connection thread's stack, and the same connection keeps serving.
#[test]
fn deeply_nested_add_venue_is_refused_and_the_connection_survives() {
    use std::io::{Read, Write};
    let (venue, config, reqs) = fixture(84);
    let service = Arc::new(IndoorService::new());
    let id = service.add_venue(venue, config.clone()).unwrap();
    let server = NetServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&NET_MAGIC).unwrap();
    let mut magic = [0u8; NET_MAGIC.len()];
    stream.read_exact(&mut magic).unwrap();
    assert_eq!(magic, NET_MAGIC);
    let mut dec = FrameDecoder::new();

    let crafted = Frame::AddVenue {
        id: 1,
        venue_json: vec![b'['; 1_000_000],
        config: config.encode_wire(),
    };
    match raw_call(&mut stream, &mut dec, crafted) {
        Frame::Error {
            id: 1,
            err: WireError::Malformed { detail },
        } => assert!(detail.contains("nesting"), "{detail}"),
        other => panic!("want a Malformed error reply, got {other:?}"),
    }
    assert_eq!(service.venue_count(), 1, "nothing was registered");

    assert!(matches!(
        raw_call(&mut stream, &mut dec, Frame::Ping { id: 2 }),
        Frame::Pong { id: 2 }
    ));
    let query = Frame::Query {
        id: 3,
        venue: id.index() as u32,
        req: reqs[0].clone(),
    };
    match raw_call(&mut stream, &mut dec, query) {
        Frame::Answer { id: 3, result } => {
            assert_eq!(result.unwrap(), service.execute(id, &reqs[0]).unwrap())
        }
        other => panic!("want an Answer, got {other:?}"),
    }
}

/// Flood a capacity-2 shard from four pipelined connections: the gate
/// must shed (typed `Overloaded` replies), every request must resolve,
/// and each connection must stay open through the storm. Whether the
/// gate actually trips is a thread-timing race, so the shed > 0 claim
/// gets several independently seeded rounds — the accounting invariants
/// must hold on all of them.
#[test]
fn flood_past_capacity_sheds_typed_errors_without_losing_connections() {
    let mut shed_seen = false;
    for seed in 84..89 {
        let (venue, mut config, reqs) = fixture(seed);
        config.admission = AdmissionConfig {
            max_in_flight: 1,
            policy: OverloadPolicy::Shed,
        };
        let service = Arc::new(IndoorService::new());
        let id = service.add_venue(venue, config).unwrap();
        let server = NetServer::bind(service.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // Heavy enough that a coalesced batch outlives a scheduler
        // quantum even on one release-mode core — otherwise handler
        // threads never overlap inside the admission window and the
        // gate has nothing to refuse.
        let per_conn = 400usize;
        let conns = 8u64;
        let (answered, shed) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|_| {
                    let reqs = &reqs;
                    scope.spawn(move || {
                        let mut client = NetClient::connect(addr).unwrap();
                        let (mut ok, mut bounced) = (0u64, 0u64);
                        for i in 0..per_conn {
                            client
                                .send_query(id.index() as u32, reqs[i % reqs.len()].clone())
                                .unwrap();
                        }
                        for _ in 0..per_conn {
                            match client.recv_answer().unwrap().1 {
                                Ok(_) => ok += 1,
                                Err(e) => {
                                    assert!(e.is_retryable(), "only admission errors: {e:?}");
                                    bounced += 1;
                                }
                            }
                        }
                        // The connection survived the flood.
                        client.ping().unwrap();
                        (ok, bounced)
                    })
                })
                .collect();
            handles.into_iter().fold((0, 0), |acc, h| {
                let (ok, bounced) = h.join().unwrap();
                (acc.0 + ok, acc.1 + bounced)
            })
        });

        assert_eq!(
            answered + shed,
            conns * per_conn as u64,
            "every flooded request must resolve (answer or typed shed)"
        );
        // The gate counts one *event* per rejected batch share; the
        // client sees one typed reply per slot in that share.
        let gate_events = service.stats().shed;
        assert!(
            gate_events <= shed,
            "gate events ({gate_events}) cannot exceed bounced requests ({shed})"
        );
        assert_eq!(
            gate_events > 0,
            shed > 0,
            "server and client must agree on whether pushback happened"
        );
        if shed > 0 {
            shed_seen = true;
            break;
        }
    }
    assert!(
        shed_seen,
        "gate never pushed back across five seeded flood rounds"
    );
}

/// Mutate the leader through the wire while a follower tails: kNN /
/// range / keyword / distance / path answers must match on both sides
/// once lag hits 0, and continue matching after the leader dies.
#[test]
fn follower_catches_up_tails_live_and_survives_leader_death() {
    let guard = scratch_dir("repl");
    let leader = Arc::new(IndoorService::open(&guard.0).unwrap());
    let (venue, config, reqs) = fixture(91);
    let id = leader.add_venue(venue.clone(), config).unwrap();
    let objects = workload::place_objects(&venue, 24, 91);

    // Advance the WAL before any follower exists: attach + label churn.
    leader
        .update_keyword_objects(
            id,
            &[ObjectUpdate {
                delta: ObjectDelta::Insert {
                    id: ObjectId(100),
                    at: objects[0],
                },
                labels: vec!["cafe".into()],
            }],
        )
        .unwrap();
    let mut server = NetServer::bind(leader.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Bootstrap from LSN 0: Create record first, then the churn suffix.
    let replica = IndoorService::new();
    let mut stream = follower::subscribe(addr, id, 0).unwrap();
    let report = stream.catch_up(&replica).unwrap();
    assert_eq!(report.version, leader.version(id).unwrap());
    assert!(report.applied >= 2, "Create + at least one churn record");
    assert_eq!(
        replica.venue_stats(id).unwrap().replication_lag,
        0,
        "lag must reach 0 after catch-up"
    );
    for req in &reqs {
        assert_eq!(
            replica.execute(id, req).unwrap(),
            leader.execute(id, req).unwrap(),
            "post-catch-up divergence: {req:?}"
        );
    }

    // Tail live while the leader absorbs more churn through the wire.
    let stop = Arc::new(AtomicBool::new(false));
    let tail = {
        let replica = &replica;
        let stop = stop.clone();
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || stream.tail(replica, &stop));

            let mut client = NetClient::connect(addr).unwrap();
            let wire_id = id.index() as u32;
            for (i, obj) in objects.iter().take(6).enumerate() {
                client
                    .update_keywords(
                        wire_id,
                        &[ObjectUpdate {
                            delta: ObjectDelta::Insert {
                                id: ObjectId(101 + i as u32),
                                at: *obj,
                            },
                            labels: vec!["exit".into()],
                        }],
                    )
                    .unwrap();
            }
            let target = leader.version(id).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while replica.version(id).unwrap() < target {
                assert!(Instant::now() < deadline, "tail never caught up");
                std::thread::sleep(Duration::from_millis(5));
            }

            // Kill the leader: the tail must come back cleanly, not hang
            // or report a transport panic.
            server.stop();
            handle.join().unwrap().unwrap()
        })
    };
    assert_eq!(tail.version, leader.version(id).unwrap());
    assert_eq!(replica.venue_stats(id).unwrap().replication_lag, 0);

    // The same facts through the telemetry surface: the durable leader
    // recorded its WAL append latency, and the caught-up replica (whose
    // shard was created by WAL replay, so wired by the replication
    // path, not `add_venue`) exports a zero replication-lag gauge.
    let leader_snap = leader.metrics_snapshot();
    let wal = leader_snap
        .series
        .iter()
        .find(|s| s.name == "indoor_wal_append_us")
        .expect("durable leader exports WAL append histogram");
    let indoor_model::metrics::MetricValue::Histogram { count, max, .. } = wal.value else {
        panic!("indoor_wal_append_us must be a histogram");
    };
    assert!(
        count >= 7,
        "Create + 1 pre-follower + 6 tailed appends, got {count}"
    );
    assert!(max < 10_000_000, "append latency in µs, not ns: {max}");
    let replica_snap = replica.metrics_snapshot();
    let lag = replica_snap
        .series
        .iter()
        .find(|s| s.name == "indoor_replication_lag")
        .expect("replayed shard exports the lag gauge");
    assert_eq!(
        lag.value,
        indoor_model::metrics::MetricValue::Gauge(0.0),
        "caught-up replica must export zero lag"
    );

    // The orphaned replica still serves, byte-identical to the leader's
    // final state, on every query kind.
    for req in &reqs {
        assert_eq!(
            replica.execute(id, req).unwrap(),
            leader.execute(id, req).unwrap(),
            "post-mortem divergence: {req:?}"
        );
    }
    drop(stop);
}

/// A replica that already holds a prefix resumes from `version + 1` and
/// receives exactly the missing suffix — catch-up from an arbitrary
/// LSN, not a full re-bootstrap.
#[test]
fn follower_resumes_from_arbitrary_lsn_with_suffix_only() {
    let guard = scratch_dir("resume");
    let leader = Arc::new(IndoorService::open(&guard.0).unwrap());
    let (venue, config, reqs) = fixture(92);
    let id = leader.add_venue(venue.clone(), config).unwrap();
    let objects = workload::place_objects(&venue, 24, 92);

    let server = NetServer::bind(leader.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // First session: bootstrap, then disconnect.
    let replica = IndoorService::new();
    follower::subscribe(addr, id, 0)
        .unwrap()
        .catch_up(&replica)
        .unwrap();
    let parted_at = replica.version(id).unwrap();

    // Leader moves on while the follower is away.
    for (i, obj) in objects.iter().take(5).enumerate() {
        leader
            .update_objects(
                id,
                &[ObjectDelta::Insert {
                    id: ObjectId(200 + i as u32),
                    at: *obj,
                }],
            )
            .unwrap();
    }

    // Second session: resume from the next LSN the replica needs.
    let mut stream = follower::subscribe(addr, id, parted_at + 1).unwrap();
    let report = stream.catch_up(&replica).unwrap();
    assert_eq!(
        report.applied, 5,
        "resume must ship exactly the missed suffix"
    );
    assert_eq!(report.version, leader.version(id).unwrap());
    assert_eq!(replica.venue_stats(id).unwrap().replication_lag, 0);
    for req in &reqs {
        assert_eq!(
            replica.execute(id, req).unwrap(),
            leader.execute(id, req).unwrap(),
            "post-resume divergence: {req:?}"
        );
    }
}

/// Replication refusals are typed: an unknown venue and a volatile
/// (WAL-less) leader both answer with `ReplEnd` carrying the reason,
/// not a dropped connection.
#[test]
fn replication_refusals_are_typed() {
    let volatile = Arc::new(IndoorService::new());
    let (venue, config, _) = fixture(93);
    let id = volatile.add_venue(venue, config).unwrap();
    let server = NetServer::bind(volatile, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    match follower::subscribe(addr, VenueId::from(999u32), 0) {
        Err(NetError::Server(_)) => {}
        other => panic!("unknown venue must refuse typed, got {other:?}"),
    }
    match follower::subscribe(addr, id, 0) {
        Err(NetError::Server(e)) => {
            assert!(
                format!("{e:?}").contains("NotDurable"),
                "volatile leader must refuse as NotDurable, got {e:?}"
            );
        }
        other => panic!("volatile leader must refuse typed, got {other:?}"),
    }
}

/// Metrics smoke (the CI gate): the exposition page fetched over a live
/// server round-trips through the encoder lint clean, and carries both
/// the registry's venue-labelled histograms and the direct-append
/// service gauges — after real queries have flowed, so the latency
/// histograms are non-empty.
#[test]
fn metrics_page_fetches_over_the_wire_and_lints_clean() {
    indoor_spatial::vip::telemetry::set_sampling(true);
    let (venue, config, reqs) = fixture(97);
    let service = Arc::new(IndoorService::new());
    let id = service.add_venue(venue, config).unwrap();
    let server = NetServer::bind(service, "127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for req in &reqs {
        client.query(id.index() as u32, req).unwrap();
    }
    let page = client.metrics().unwrap();
    let errors = indoor_spatial::model::metrics::lint_text(&page);
    assert!(errors.is_empty(), "{errors:?}\n{page}");
    for needle in [
        "# TYPE indoor_query_latency_us histogram",
        "indoor_query_latency_us_count{kind=\"knn\",venue=\"0\"}",
        "indoor_traced_queries_total{venue=\"0\"}",
        "indoor_venues 1",
        "indoor_leaf_grid_builds_total{venue=\"0\"}",
    ] {
        assert!(page.contains(needle), "missing {needle} in page:\n{page}");
    }
    // The latency histograms really recorded: total count over kinds > 0.
    let counted: u64 = page
        .lines()
        .filter(|l| l.starts_with("indoor_query_latency_us_count"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert!(counted > 0, "no query latencies recorded:\n{page}");
    // Wire-level shard stats carry the folded object-index anatomy.
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards.len(), 1);
    assert!(stats.shards[0].live_objects > 0, "{:?}", stats.shards[0]);
    assert!(
        stats.shards[0].leaf_grid_builds > 0,
        "{:?}",
        stats.shards[0]
    );
}

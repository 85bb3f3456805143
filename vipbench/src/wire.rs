//! The system under test as a client sees it: an in-process `NetServer`
//! over loopback, one `NetClient` connection, one client thread.

use crate::check::{hash_answer, Outcome};
use crate::workload::{Op, OpStream, World};
use indoor_net::{NetClient, NetError, NetServer};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vip_tree::{IndoorService, RetryPolicy};

pub struct Wire {
    pub service: Arc<IndoorService>,
    // Field order is drop order: the client hangs up before the server
    // joins its connection threads.
    pub client: NetClient,
    _server: NetServer,
}

/// Bring the service up and connect: volatile registration of every
/// venue, or recovery from `durable`. This is exactly what `setup_s`
/// times.
pub fn setup(world: &World, durable: Option<&Path>) -> Wire {
    let service = match durable {
        Some(dir) => IndoorService::open(dir).expect("recover the durable directory"),
        None => {
            let service = IndoorService::new();
            world.add_venues(&service);
            service
        }
    };
    let service = Arc::new(service);
    let server = NetServer::bind(service.clone(), "127.0.0.1:0").expect("bind loopback");
    let client = NetClient::connect(server.local_addr())
        .expect("connect over loopback")
        // Every rejection is counted, never retried away.
        .with_retry(RetryPolicy::fail_fast());
    Wire {
        service,
        client,
        _server: server,
    }
}

/// One operation as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub outcome: Outcome,
    pub is_write: bool,
    /// Send and reply instants, in ns since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Sample {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// When the client stops issuing operations.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Ops(usize),
    Deadline(Instant),
}

impl Until {
    fn more(&self, issued: usize) -> bool {
        match *self {
            Until::Ops(n) => issued < n,
            Until::Deadline(t) => Instant::now() < t,
        }
    }
}

/// A typed server rejection is a counted failure; a broken connection
/// ends the run.
fn served<T>(r: Result<T, NetError>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(NetError::Server(_)) => None,
        Err(e) => panic!("connection failed: {e}"),
    }
}

fn answer(r: Option<indoor_model::QueryResponse>) -> Outcome {
    r.map_or(Outcome::Failed, |resp| Outcome::Answer(hash_answer(&resp)))
}

impl Wire {
    fn write(&mut self, venue: usize, deltas: &[indoor_model::ObjectDelta]) -> Outcome {
        served(self.client.update_objects(World::id(venue).0, deltas))
            .map_or(Outcome::Failed, Outcome::Version)
    }

    /// Run the closed loop: `depth` queries in flight on the one
    /// connection, each write sent alone once earlier replies are in (the
    /// client reads its own writes). Returns one sample per operation, in
    /// stream order.
    pub fn drive(
        &mut self,
        stream: &mut OpStream,
        depth: usize,
        until: Until,
        epoch: Instant,
    ) -> Vec<Sample> {
        let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        let mut samples: Vec<Sample> = Vec::new();
        if depth <= 1 {
            while until.more(samples.len()) {
                let op = stream.next_op();
                let t0 = Instant::now();
                let (outcome, t1, is_write) = match &op {
                    Op::Query { venue, req } => {
                        let reply = served(self.client.query(World::id(*venue).0, req));
                        let t1 = Instant::now();
                        // Hashed after the clock stops.
                        (answer(reply), t1, false)
                    }
                    Op::Write { venue, deltas } => {
                        let outcome = self.write(*venue, deltas);
                        (outcome, Instant::now(), true)
                    }
                };
                samples.push(Sample {
                    outcome,
                    is_write,
                    start_ns: ns(t0),
                    end_ns: ns(t1),
                });
            }
            return samples;
        }
        // (request id, sample slot) of every query in flight, oldest first.
        let mut in_flight: VecDeque<(u64, usize)> = VecDeque::new();
        let mut issuing = true;
        loop {
            while issuing && in_flight.len() < depth {
                if !until.more(samples.len()) {
                    issuing = false;
                    break;
                }
                match stream.next_op() {
                    Op::Query { venue, req } => {
                        let t0 = Instant::now();
                        let id = self
                            .client
                            .send_query(World::id(venue).0, req)
                            .expect("send over loopback");
                        in_flight.push_back((id, samples.len()));
                        samples.push(Sample {
                            outcome: Outcome::Failed,
                            is_write: false,
                            start_ns: ns(t0),
                            end_ns: 0,
                        });
                    }
                    Op::Write { venue, deltas } => {
                        while !in_flight.is_empty() {
                            self.receive(&mut in_flight, &mut samples, &ns);
                        }
                        let t0 = Instant::now();
                        let outcome = self.write(venue, &deltas);
                        let t1 = Instant::now();
                        samples.push(Sample {
                            outcome,
                            is_write: true,
                            start_ns: ns(t0),
                            end_ns: ns(t1),
                        });
                    }
                }
            }
            if in_flight.is_empty() {
                return samples;
            }
            self.receive(&mut in_flight, &mut samples, &ns);
        }
    }

    fn receive(
        &mut self,
        in_flight: &mut VecDeque<(u64, usize)>,
        samples: &mut [Sample],
        ns: &impl Fn(Instant) -> u64,
    ) {
        let (id, result) = self.client.recv_answer().expect("receive over loopback");
        let t1 = Instant::now();
        let pos = in_flight
            .iter()
            .position(|&(want, _)| want == id)
            .expect("every reply answers a request in flight");
        let (_, slot) = in_flight.remove(pos).expect("position just found");
        samples[slot].outcome = answer(result.ok());
        samples[slot].end_ns = ns(t1);
    }
}

/// Operations that prime the result cache and the lazily built leaf
/// grids, as a long-running server has them, before memory is measured.
pub const PRIME_OPS: usize = 2000;

/// Further traffic before the timed window, to bring the shared host out
/// of its idle state: on a small virtual machine the first seconds of
/// load after a pause run faster than sustained load, which would flatter
/// whichever run comes first.
pub const WARMUP: Duration = Duration::from_secs(5);

/// One warmed-up, timed run over the wire.
pub struct Run {
    pub warm: Vec<Sample>,
    pub timed: Vec<Sample>,
    pub window: Duration,
    /// Peak resident set (MiB) once set-up and priming are done, before
    /// the client's per-operation log grows with the traffic.
    pub peak_rss_mib: f64,
    /// Hypervisor steal share of CPU time during the timed window.
    pub steal_share: f64,
}

/// Warm up, then run for `seconds`.
pub fn warm_and_run(
    wire: &mut Wire,
    world: &World,
    stream: &mut OpStream,
    seconds: u64,
    epoch: Instant,
) -> Run {
    let depth = world.workload.depth();
    let mut warm = wire.drive(stream, depth, Until::Ops(PRIME_OPS), epoch);
    let peak_rss_mib = crate::stats::peak_rss_mib();
    warm.extend(wire.drive(
        stream,
        depth,
        Until::Deadline(Instant::now() + WARMUP),
        epoch,
    ));
    let ticks = crate::host::cpu_ticks();
    let t0 = Instant::now();
    let timed = wire.drive(
        stream,
        depth,
        Until::Deadline(t0 + Duration::from_secs(seconds)),
        epoch,
    );
    Run {
        warm,
        timed,
        window: t0.elapsed(),
        peak_rss_mib,
        steal_share: crate::host::steal_share(ticks, crate::host::cpu_ticks()),
    }
}

impl Run {
    /// Operations completed per second: the median over the window's
    /// whole seconds, by the reasoning of
    /// [`crate::stats::chunked_quantile`].
    pub fn throughput(&self) -> f64 {
        let Some(first) = self.timed.first() else {
            return 0.0;
        };
        let mut done = vec![0u64; self.window.as_secs().max(1) as usize];
        for s in &self.timed {
            let second = (s.end_ns.saturating_sub(first.start_ns) / 1_000_000_000) as usize;
            if let Some(d) = done.get_mut(second) {
                *d += 1;
            }
        }
        crate::stats::median_u64(&done)
    }
}

//! The three workloads: which venues they serve, which objects those
//! venues hold, and the seeded operation stream a client sends.
//!
//! The dataset is a function of the workload, the operation stream of
//! `(workload, seed)`. The server only ever sees the generated requests;
//! the seed never reaches it.

use crate::check::Fnv;
use indoor_model::{IndoorPoint, ObjectDelta, ObjectId, QueryRequest, Venue, VenueId};
use indoor_synth::{presets, workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use vip_tree::{IndoorService, ShardConfig, VipTree};

/// The keyword every labelled kiosk object may carry.
const KEYWORD: &str = "cafe";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Information kiosks in a mall and a campus building: few distinct
    /// questions, asked over and over. The round trip is mostly wire,
    /// frames and the service fan-out; the result cache answers most
    /// requests, so a kernel gain should not show here. Its writes move
    /// assets in a third venue the kiosks are not asked about.
    KioskRepeat,
    /// A campus-wide sweep over the largest venue: every request is new,
    /// pipelined at a fixed depth. The kernel is most of the work and the
    /// cache only inserts, so kernel and cache-insert costs show here.
    CampusSweep,
    /// Tracked assets on a durable service that restarts from a snapshot
    /// plus a WAL tail, then absorbs Move batches between reads. The only
    /// workload whose set-up is recovery and whose writes are journalled.
    LiveRestart,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::KioskRepeat,
        Workload::CampusSweep,
        Workload::LiveRestart,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::KioskRepeat => "kiosk_repeat",
            Workload::CampusSweep => "campus_sweep",
            Workload::LiveRestart => "live_restart",
        }
    }

    /// Queries the single client keeps in flight.
    pub fn depth(self) -> usize {
        match self {
            Workload::CampusSweep => 8,
            Workload::KioskRepeat | Workload::LiveRestart => 1,
        }
    }

    /// Whether the serving service is durable (set-up = recovery).
    pub fn durable(self) -> bool {
        self == Workload::LiveRestart
    }

    /// Salt mixed into the seed so the workloads never share a stream.
    fn salt(self) -> u64 {
        match self {
            Workload::KioskRepeat => 0x6b10_5c00,
            Workload::CampusSweep => 0xca3b_5e00,
            Workload::LiveRestart => 0x11fe_4e00,
        }
    }
}

/// One client operation. `venue` indexes [`World::venues`].
#[derive(Debug, Clone)]
pub enum Op {
    Query {
        venue: usize,
        req: QueryRequest,
    },
    Write {
        venue: usize,
        deltas: Vec<ObjectDelta>,
    },
}

/// One venue shard as the workload registers it.
#[derive(Debug, Clone)]
pub struct VenueSetup {
    pub name: &'static str,
    pub venue: Arc<Venue>,
    pub objects: Vec<IndoorPoint>,
    pub keywords: Vec<(IndoorPoint, Vec<String>)>,
}

impl VenueSetup {
    fn new(name: &'static str, venue: Venue, n_objects: usize, seed: u64, labels: bool) -> Self {
        let venue = Arc::new(venue);
        let objects = workload::place_objects(&venue, n_objects, seed);
        let keywords = if labels {
            workload::cycling_labels(&objects, KEYWORD)
        } else {
            Vec::new()
        };
        VenueSetup {
            name,
            venue,
            objects,
            keywords,
        }
    }

    pub fn config(&self) -> ShardConfig {
        ShardConfig {
            objects: self.objects.clone(),
            keywords: self.keywords.clone(),
            ..ShardConfig::default()
        }
    }
}

/// A workload's venues, objects and pre-run history, and the seed of its
/// operation stream.
#[derive(Debug)]
pub struct World {
    pub workload: Workload,
    pub seed: u64,
    pub venues: Vec<VenueSetup>,
    /// Write batches applied before the run (live_restart only): the
    /// first half lands before the snapshot, the rest in the WAL tail.
    pub history: Vec<(usize, Vec<ObjectDelta>)>,
}

impl World {
    pub fn new(workload: Workload, seed: u64) -> World {
        // The dataset (venues, objects, history) is fixed per workload, so
        // runs with different seeds serve the same data; the seed draws
        // the operation stream.
        let s = workload.salt();
        let venues = match workload {
            Workload::KioskRepeat => vec![
                VenueSetup::new("MC", presets::melbourne_central().build(), 200, s ^ 1, true),
                VenueSetup::new("Men", presets::menzies().build(), 400, s ^ 2, true),
                VenueSetup::new(
                    "MC-assets",
                    presets::melbourne_central().build(),
                    200,
                    s ^ 3,
                    false,
                ),
            ],
            Workload::CampusSweep => vec![VenueSetup::new(
                "Men-2",
                presets::menzies_2().build(),
                5000,
                s ^ 1,
                false,
            )],
            Workload::LiveRestart => vec![
                VenueSetup::new("Men", presets::menzies().build(), 1000, s ^ 1, false),
                VenueSetup::new(
                    "MC",
                    presets::melbourne_central().build(),
                    300,
                    s ^ 2,
                    false,
                ),
            ],
        };
        let mut world = World {
            workload,
            seed,
            venues,
            history: Vec::new(),
        };
        if workload == Workload::LiveRestart {
            let mut rng = StdRng::seed_from_u64(s ^ 0x4157);
            world.history = (0..400)
                .map(|_| {
                    let v = rng.gen_range(0..world.venues.len());
                    (v, moves(&world.venues[v], 8, &mut rng))
                })
                .collect();
        }
        world
    }

    /// The id venue `i` routes by: shards are registered in order on a
    /// fresh service, and recovery keeps their slots.
    pub fn id(i: usize) -> VenueId {
        VenueId::from(i)
    }

    /// Register every venue on `service` (the timed part of set-up).
    pub fn add_venues(&self, service: &IndoorService) {
        for (i, v) in self.venues.iter().enumerate() {
            let id = service
                .add_venue(v.venue.clone(), v.config())
                .expect("workload venues build");
            assert_eq!(id, World::id(i), "venues register in order");
        }
    }

    fn apply_history(&self, service: &IndoorService, batches: &[(usize, Vec<ObjectDelta>)]) {
        for (v, deltas) in batches {
            service
                .update_objects(World::id(*v), deltas)
                .expect("history moves live objects");
        }
    }

    /// A volatile service in the state the run starts from: the
    /// reference and the traced twins.
    pub fn volatile_service(&self) -> IndoorService {
        let service = IndoorService::new();
        self.add_venues(&service);
        self.apply_history(&service, &self.history);
        service
    }

    /// Write the durable directory the run restarts from: every venue,
    /// the first half of the history, a snapshot, then the second half as
    /// the WAL tail (journalled under the default `SyncPolicy::Never`).
    pub fn write_durable(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        let service = IndoorService::open(dir).expect("open a fresh durable directory");
        self.add_venues(&service);
        let (before, after) = self.history.split_at(self.history.len() / 2);
        self.apply_history(&service, before);
        service
            .save_snapshot(dir)
            .expect("snapshot the durable directory");
        self.apply_history(&service, after);
    }

    /// Build every venue's VIP-tree afresh (the `build` layer).
    pub fn build_trees(&self) -> Vec<VipTree> {
        self.venues
            .iter()
            .map(|v| VipTree::build(v.venue.clone(), &Default::default()).expect("venues build"))
            .collect()
    }

    pub fn stream(&self) -> OpStream {
        OpStream::new(self)
    }

    /// Hash of the first `n` operations: equal seeds give equal values.
    pub fn fingerprint(&self, n: usize) -> u64 {
        let mut h = Fnv::new();
        let mut stream = self.stream();
        for _ in 0..n {
            crate::check::hash_op(&mut h, &stream.next_op());
        }
        h.finish()
    }
}

/// `n` Move deltas of random live objects to random points.
fn moves(v: &VenueSetup, n: usize, rng: &mut StdRng) -> Vec<ObjectDelta> {
    (0..n)
        .map(|_| ObjectDelta::Move {
            id: ObjectId(rng.gen_range(0..v.objects.len()) as u32),
            to: workload::random_point(&v.venue, rng),
        })
        .collect()
}

/// Zipf(`s`) over ranks `0..n`, drawn by inverting the cumulative weights.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Points and pairs the kiosks are asked about.
struct Pool {
    points: Vec<IndoorPoint>,
    pairs: Vec<(IndoorPoint, IndoorPoint)>,
}

const KIOSK_POOL: usize = 48;
/// The kiosks are asked about the first `KIOSK_ASKED` venues; writes go
/// to the next one.
const KIOSK_ASKED: usize = 2;
/// One write batch per this many kiosk operations: frequent enough for a
/// run to hold a few dozen chunks of acknowledgements (see
/// `stats::CHUNK`). At one in 32 a run held about ten, and its write p99,
/// the median of ten chunk p99s, moved by a third between runs of the
/// same code. Writing to the venues the kiosks ask about at this rate
/// would expire most cached kNN answers and put query_p99 in the tail of
/// the misses, so the writes go to a venue of their own.
const KIOSK_WRITE_EVERY: u32 = 8;
/// One write batch per this many campus operations: each write drains
/// the pipeline, so writes stay rare next to the reads the sweep is about.
const CAMPUS_WRITE_EVERY: u32 = 32;
/// One write batch per this many live_restart operations.
const LIVE_WRITE_EVERY: u32 = 4;
/// Range radius of the campus sweep: wide, so replies carry many objects.
const CAMPUS_RADIUS: f64 = 60.0;

/// The seeded, endless operation stream of one workload.
pub struct OpStream {
    workload: Workload,
    rng: StdRng,
    venues: Vec<VenueSetup>,
    pools: Vec<Pool>,
    zipf: Zipf,
    keyword: Arc<str>,
}

impl OpStream {
    fn new(world: &World) -> OpStream {
        let salt = world.workload.salt();
        // The kiosks' questions are part of the dataset, fixed per
        // workload like the venues: with 48 points, a pool drawn per seed
        // moved the kNN tail, and so query_p99, from seed to seed. The
        // seed draws which question is asked when.
        let pools = match world.workload {
            Workload::KioskRepeat => world
                .venues
                .iter()
                .take(KIOSK_ASKED)
                .enumerate()
                .map(|(i, v)| Pool {
                    points: workload::query_points(&v.venue, KIOSK_POOL, salt ^ (0x10 + i as u64)),
                    pairs: workload::query_pairs(&v.venue, KIOSK_POOL, salt ^ (0x20 + i as u64)),
                })
                .collect(),
            _ => Vec::new(),
        };
        OpStream {
            workload: world.workload,
            rng: StdRng::seed_from_u64(world.seed ^ salt ^ 0x57_4ea3),
            venues: world.venues.clone(),
            pools,
            zipf: Zipf::new(KIOSK_POOL, 1.1),
            keyword: KEYWORD.into(),
        }
    }

    /// A batch of `n` Move deltas to a venue drawn from `venues`.
    fn write(&mut self, venues: std::ops::Range<usize>, n: usize) -> Op {
        let venue = self.rng.gen_range(venues);
        let deltas = moves(&self.venues[venue], n, &mut self.rng);
        Op::Write { venue, deltas }
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::KioskRepeat => {
                if self.rng.gen_range(0..KIOSK_WRITE_EVERY) == 0 {
                    return self.write(KIOSK_ASKED..KIOSK_ASKED + 1, 2);
                }
                let venue = self.rng.gen_range(0..KIOSK_ASKED);
                let rank = self.zipf.sample(&mut self.rng);
                let pool = &self.pools[venue];
                let q = pool.points[rank];
                let req = match self.rng.gen_range(0..10) {
                    0..=3 => QueryRequest::Knn { q, k: 5 },
                    4..=6 => QueryRequest::KnnKeyword {
                        q,
                        k: 5,
                        keyword: self.keyword.clone(),
                    },
                    _ => {
                        let (s, t) = pool.pairs[rank];
                        QueryRequest::ShortestDistance { s, t }
                    }
                };
                Op::Query { venue, req }
            }
            Workload::CampusSweep => {
                if self.rng.gen_range(0..CAMPUS_WRITE_EVERY) == 0 {
                    return self.write(0..self.venues.len(), 8);
                }
                let v = &self.venues[0].venue;
                let q = workload::random_point(v, &mut self.rng);
                let req = match self.rng.gen_range(0..3) {
                    0 => QueryRequest::Knn { q, k: 20 },
                    1 => QueryRequest::Range {
                        q,
                        radius: CAMPUS_RADIUS,
                    },
                    _ => QueryRequest::ShortestPath {
                        s: q,
                        t: workload::random_point(v, &mut self.rng),
                    },
                };
                Op::Query { venue: 0, req }
            }
            Workload::LiveRestart => {
                if self.rng.gen_range(0..LIVE_WRITE_EVERY) == 0 {
                    return self.write(0..self.venues.len(), 8);
                }
                let venue = self.rng.gen_range(0..self.venues.len());
                let q = workload::random_point(&self.venues[venue].venue, &mut self.rng);
                // Three kNN reads to one range read: the median latency
                // falls inside the kNN mode instead of on the edge between
                // two modes, where a percent of mix noise would move it.
                let req = if self.rng.gen_range(0..4) < 3 {
                    QueryRequest::Knn { q, k: 10 }
                } else {
                    QueryRequest::Range { q, radius: 40.0 }
                };
                Op::Query { venue, req }
            }
        }
    }
}

/// Share of the queries seen so far whose (venue, request) appeared
/// earlier in the same stream: the reuse a result cache can exploit.
#[derive(Default)]
pub struct RepeatShare {
    seen: std::collections::HashSet<(usize, QueryRequest)>,
    queries: u64,
    repeats: u64,
}

impl RepeatShare {
    pub fn observe(&mut self, op: &Op) {
        if let Op::Query { venue, req } = op {
            self.queries += 1;
            if !self.seen.insert((*venue, req.clone())) {
                self.repeats += 1;
            }
        }
    }

    pub fn share(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.repeats as f64 / self.queries as f64
        }
    }
}

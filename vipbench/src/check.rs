//! Answer checking: every wire answer is hashed as it arrives and
//! compared, after the timed window, with an untimed in-process reference
//! service fed the same operation stream in the same order.

use crate::workload::{Op, RepeatShare, World};
use indoor_model::{IndoorPoint, QueryRequest, QueryResponse};

/// FNV-1a over 64-bit words: cheap enough to run on every reply inside
/// the client loop, and stable across runs and builds.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn hash_point(h: &mut Fnv, p: &IndoorPoint) {
    let (part, x, y, level) = p.key_bits();
    h.word(part as u64);
    h.word(x);
    h.word(y);
    h.word(level as u64);
}

fn hash_request(h: &mut Fnv, req: &QueryRequest) {
    h.word(req.kind().index() as u64);
    match req {
        QueryRequest::Knn { q, k } => {
            hash_point(h, q);
            h.word(*k as u64);
        }
        QueryRequest::Range { q, radius } => {
            hash_point(h, q);
            h.word(radius.to_bits());
        }
        QueryRequest::KnnKeyword { q, k, keyword } => {
            hash_point(h, q);
            h.word(*k as u64);
            for b in keyword.bytes() {
                h.word(b as u64);
            }
        }
        QueryRequest::ShortestDistance { s, t } | QueryRequest::ShortestPath { s, t } => {
            hash_point(h, s);
            hash_point(h, t);
        }
    }
}

pub fn hash_op(h: &mut Fnv, op: &Op) {
    match op {
        Op::Query { venue, req } => {
            h.word(0);
            h.word(*venue as u64);
            hash_request(h, req);
        }
        Op::Write { venue, deltas } => {
            h.word(1);
            h.word(*venue as u64);
            for d in deltas {
                h.word(d.id().0 as u64);
                if let indoor_model::ObjectDelta::Move { to, .. } = d {
                    hash_point(h, to);
                }
            }
        }
    }
}

/// Bit-exact digest of an answer.
pub fn hash_answer(r: &QueryResponse) -> u64 {
    let mut h = Fnv::new();
    h.word(r.kind().index() as u64);
    match r {
        QueryResponse::Knn(v) | QueryResponse::Range(v) | QueryResponse::KnnKeyword(v) => {
            h.word(v.len() as u64);
            for (id, d) in v {
                h.word(id.0 as u64);
                h.word(d.to_bits());
            }
        }
        QueryResponse::ShortestDistance(d) => h.word(d.map_or(u64::MAX, f64::to_bits)),
        QueryResponse::ShortestPath(p) => match p {
            None => h.word(u64::MAX),
            Some(p) => {
                hash_point(&mut h, &p.source);
                hash_point(&mut h, &p.target);
                h.word(p.length.to_bits());
                for d in &p.doors {
                    h.word(d.0 as u64);
                }
            }
        },
    }
    h.finish()
}

/// What the server acknowledged for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A query answer, by [`hash_answer`].
    Answer(u64),
    /// A write acknowledgement: the venue's post-apply version.
    Version(u64),
    /// A typed error (including an admission shed).
    Failed,
}

#[derive(Debug, Default)]
pub struct CheckReport {
    /// Operations the server acknowledged with a typed error.
    pub failed: u64,
    /// Acknowledged operations whose result differs from the reference.
    pub wrong: u64,
    pub first_wrong: Option<String>,
    pub repeat_share: f64,
}

/// Replay the first `log.len()` operations of `world`'s stream through a
/// fresh volatile reference service and compare every outcome.
pub fn verify(world: &World, log: &[Outcome]) -> CheckReport {
    let reference = world.volatile_service();
    let mut stream = world.stream();
    let mut report = CheckReport::default();
    let mut repeats = RepeatShare::default();
    for (i, got) in log.iter().enumerate() {
        let op = stream.next_op();
        repeats.observe(&op);
        let want = match &op {
            Op::Query { venue, req } => reference
                .execute(World::id(*venue), req)
                .map(|r| Outcome::Answer(hash_answer(&r))),
            Op::Write { venue, deltas } if *got != Outcome::Failed => reference
                .update_objects(World::id(*venue), deltas)
                .and_then(|_| reference.version(World::id(*venue)))
                .map(Outcome::Version),
            // A write the server refused was not applied; neither is it
            // applied to the reference.
            Op::Write { .. } => Ok(Outcome::Failed),
        }
        .expect("the reference answers every generated operation");
        if *got == Outcome::Failed {
            report.failed += 1;
        } else if *got != want {
            report.wrong += 1;
            report
                .first_wrong
                .get_or_insert_with(|| format!("op {i}: wire {got:?}, reference {want:?}"));
        }
    }
    report.repeat_share = repeats.share();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// The outcomes a correct server produces: the reference's own.
    fn honest_log(world: &World, n: usize) -> Vec<Outcome> {
        let svc = world.volatile_service();
        let mut stream = world.stream();
        (0..n)
            .map(|_| match stream.next_op() {
                Op::Query { venue, req } => {
                    Outcome::Answer(hash_answer(&svc.execute(World::id(venue), &req).unwrap()))
                }
                Op::Write { venue, deltas } => {
                    svc.update_objects(World::id(venue), &deltas).unwrap();
                    Outcome::Version(svc.version(World::id(venue)).unwrap())
                }
            })
            .collect()
    }

    #[test]
    fn fingerprint_is_stable_per_seed_and_differs_across_seeds() {
        for w in Workload::ALL {
            let a = World::new(w, 7).fingerprint(512);
            assert_eq!(a, World::new(w, 7).fingerprint(512), "{}", w.name());
            assert_ne!(a, World::new(w, 8).fingerprint(512), "{}", w.name());
        }
    }

    #[test]
    fn a_corrupted_answer_is_caught() {
        let world = World::new(Workload::KioskRepeat, 3);
        let mut log = honest_log(&world, 600);
        let clean = verify(&world, &log);
        assert_eq!((clean.wrong, clean.failed), (0, 0));
        let i = log
            .iter()
            .position(|o| matches!(o, Outcome::Answer(_)))
            .unwrap();
        if let Outcome::Answer(h) = &mut log[i] {
            *h ^= 1;
        }
        let caught = verify(&world, &log);
        assert_eq!(caught.wrong, 1);
        assert!(caught.first_wrong.unwrap().starts_with(&format!("op {i}:")));
    }

    #[test]
    fn a_wrong_write_version_is_caught() {
        let world = World::new(Workload::LiveRestart, 3);
        let mut log = honest_log(&world, 64);
        let i = log
            .iter()
            .position(|o| matches!(o, Outcome::Version(_)))
            .unwrap();
        if let Outcome::Version(v) = &mut log[i] {
            *v += 1;
        }
        assert_eq!(verify(&world, &log).wrong, 1);
    }

    #[test]
    fn answer_hash_sees_every_bit_of_a_distance() {
        let a = QueryResponse::ShortestDistance(Some(1.0));
        let b = QueryResponse::ShortestDistance(Some(f64::from_bits(1.0f64.to_bits() + 1)));
        assert_ne!(hash_answer(&a), hash_answer(&b));
        assert_ne!(
            hash_answer(&a),
            hash_answer(&QueryResponse::ShortestDistance(None))
        );
    }
}

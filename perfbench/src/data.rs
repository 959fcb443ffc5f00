//! Seeded inputs: the social graph, the fixed query texts, and every
//! client's request stream.  The same seed gives the same graph and the
//! same request sequences; the program only ever sees the generated
//! inputs.

use crate::rng::Rng;
use graphiti_common::Value;
use graphiti_engine::BatchQuery;
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_store::{Delta, EdgeKey, NodeKey, NodeRef};
use std::collections::{HashMap, VecDeque};

/// Outgoing `FOLLOWS` and `POSTED` edges per seed user.
pub const EDGES_PER_USER: usize = 3;

/// Client connections per workload (the host has two cores).
pub const CLIENTS: usize = 2;

/// Stream tags: each use of the seed draws from its own stream.
const TAG_ANCHOR: u64 = 1;
const TAG_READER: u64 = 0x100;
const TAG_WRITER: u64 = 0x200;
const TAG_SAMPLE: u64 = 0x300;

/// The corpus `social` domain: USR, PIC, POSTED, FOLLOWS.
pub fn schema() -> GraphSchema {
    graphiti_benchmarks::schemas::social().graph_schema
}

/// The seed graph: `users` USR and `users` PIC nodes, three POSTED and
/// three FOLLOWS edges per user.
pub fn seed_graph(users: usize, seed: u64) -> GraphInstance {
    graphiti_benchmarks::generate_graph(&schema(), users, EDGES_PER_USER, seed)
}

/// Request types, in the order metrics and weights list them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Cypher,
    Sql,
    Lookup,
    Batch,
    Commit,
}

impl Op {
    pub const ALL: [Op; 5] = [Op::Cypher, Op::Sql, Op::Lookup, Op::Batch, Op::Commit];
    pub const READS: [Op; 4] = [Op::Cypher, Op::Sql, Op::Lookup, Op::Batch];

    pub fn name(self) -> &'static str {
        match self {
            Op::Cypher => "cypher",
            Op::Sql => "sql",
            Op::Lookup => "lookup",
            Op::Batch => "batch",
            Op::Commit => "commit",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Read-mix weights over [`Op::READS`].  A batch runs its queries on every
/// core, so it slows whatever the other client runs meanwhile; at 10% each
/// read type still collects its samples within a window.
pub const READ_WEIGHTS: [u32; 4] = [35, 35, 20, 10];

/// Write-mix weights: insert a user with two follows, rename a user,
/// delete a seed follow.
pub const WRITE_WEIGHTS: [u32; 3] = [60, 25, 15];

/// Where a fixed text came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    Cypher,
    Transpiled,
    Handwritten,
}

/// One fixed query text of the read mix.
#[derive(Debug, Clone)]
pub struct Fixed {
    pub family: &'static str,
    pub origin: Origin,
    pub query: BatchQuery,
}

/// The four Cypher families and their hand-written SQL, anchored at user
/// `k0`.  The fixed texts are the Cypher texts, their translations and
/// the hand-written SQL.
pub fn families(k0: i64) -> Vec<(&'static str, String, String)> {
    vec![
        (
            "one_hop_aggregate",
            "MATCH (a:USR)-[f:FOLLOWS]->(b:USR) RETURN b.UsrId AS uid, Count(a) AS followers".into(),
            "SELECT f.TGT AS uid, Count(*) AS followers FROM FOLLOWS AS f GROUP BY f.TGT".into(),
        ),
        (
            "two_hop",
            format!(
                "MATCH (a:USR {{UsrId: {k0}}})-[f:FOLLOWS]->(b:USR)-[g:FOLLOWS]->(c:USR) \
                 RETURN c.UsrId AS uid, c.UsrName AS name"
            ),
            format!(
                "SELECT c.UsrId AS uid, c.UsrName AS name FROM FOLLOWS AS f \
                 JOIN FOLLOWS AS g ON f.TGT = g.SRC JOIN USR AS c ON g.TGT = c.UsrId \
                 WHERE f.SRC = {k0}"
            ),
        ),
        (
            "exists",
            format!(
                "MATCH (a:USR {{UsrId: {k0}}})-[f:FOLLOWS]->(u:USR) \
                 WHERE EXISTS ((u:USR)-[p:POSTED]->(x:PIC)) RETURN u.UsrId AS uid"
            ),
            format!(
                "SELECT u.UsrId AS uid FROM FOLLOWS AS f JOIN USR AS u ON f.TGT = u.UsrId \
                 WHERE f.SRC = {k0} AND EXISTS (SELECT p.PostId FROM POSTED AS p WHERE p.SRC = u.UsrId)"
            ),
        ),
        (
            "optional",
            format!(
                "MATCH (a:USR {{UsrId: {k0}}})-[f:FOLLOWS]->(u:USR) \
                 OPTIONAL MATCH (u:USR)-[p:POSTED]->(x:PIC) RETURN u.UsrId AS uid, x.PicSize AS size"
            ),
            format!(
                "SELECT u.UsrId AS uid, x.PicSize AS size FROM FOLLOWS AS f \
                 JOIN USR AS u ON f.TGT = u.UsrId LEFT JOIN POSTED AS p ON p.SRC = u.UsrId \
                 LEFT JOIN PIC AS x ON p.TGT = x.PicId WHERE f.SRC = {k0}"
            ),
        ),
    ]
}

/// The anchor user of the fixed texts.
pub fn anchor(seed: u64, users: usize) -> i64 {
    Rng::new(seed, TAG_ANCHOR).below(users as u64) as i64
}

/// A lookup: the one-hop follows of user `key` with ids at or above
/// `floor`.  Both literals vary, so distinct texts far outnumber the plan
/// cache while each result stays small.
pub fn lookup(cypher: bool, key: i64, floor: i64) -> BatchQuery {
    if cypher {
        BatchQuery::cypher(format!(
            "MATCH (a:USR {{UsrId: {key}}})-[f:FOLLOWS]->(b:USR) WHERE b.UsrId >= {floor} \
             RETURN b.UsrId AS uid"
        ))
    } else {
        BatchQuery::sql(format!(
            "SELECT f.TGT AS uid FROM FOLLOWS AS f WHERE f.SRC = {key} AND f.TGT >= {floor}"
        ))
    }
}

/// One read-mix request.
#[derive(Debug, Clone)]
pub enum ReadReq {
    /// Index into the fixed texts.
    Fixed(Op, usize),
    Lookup {
        cypher: bool,
        key: i64,
        floor: i64,
    },
    Batch,
}

impl ReadReq {
    pub fn op(&self) -> Op {
        match self {
            ReadReq::Fixed(op, _) => *op,
            ReadReq::Lookup { .. } => Op::Lookup,
            ReadReq::Batch => Op::Batch,
        }
    }
}

/// Draw weight of a fixed text.  A mix's p50 is steady only when it falls
/// well inside one text's latencies, not on the edge between two.  Among
/// the Cypher texts (two-hop < `EXISTS` ≈ `OPTIONAL` < aggregate) the
/// `EXISTS` text counts twice, so the middle two texts span 20–80% of the
/// draws.  Among the SQL texts, the aggregate's translation sits mid-set by
/// latency with four texts below and, once the `EXISTS` translation counts
/// twice, weight four above; at weight three it spans 36–64% of the draws.
/// Lookups split 60/40 between the languages for the same reason.
fn weight(f: &Fixed) -> u32 {
    match (f.family, f.origin) {
        ("one_hop_aggregate", Origin::Transpiled) => 3,
        ("exists", Origin::Cypher) | ("exists", Origin::Transpiled) => 2,
        _ => 1,
    }
}

/// A client's read-mix request stream.
#[derive(Debug, Clone)]
pub struct Reader {
    rng: Rng,
    users: u64,
    /// Fixed-text indexes and their draw weights, per language.
    cypher_texts: (Vec<usize>, Vec<u32>),
    sql_texts: (Vec<usize>, Vec<u32>),
}

impl Reader {
    pub fn new(seed: u64, slot: usize, users: usize, fixed: &[Fixed]) -> Reader {
        let pick = |f: &dyn Fn(&Fixed) -> bool| -> (Vec<usize>, Vec<u32>) {
            fixed.iter().enumerate().filter(|(_, x)| f(x)).map(|(i, x)| (i, weight(x))).unzip()
        };
        Reader {
            rng: Rng::new(seed, TAG_READER + slot as u64),
            users: users as u64,
            cypher_texts: pick(&|x| x.origin == Origin::Cypher),
            sql_texts: pick(&|x| x.origin != Origin::Cypher),
        }
    }

    pub fn next_req(&mut self) -> ReadReq {
        match Op::READS[self.rng.weighted(&READ_WEIGHTS)] {
            Op::Cypher => {
                let i = self.rng.weighted(&self.cypher_texts.1);
                ReadReq::Fixed(Op::Cypher, self.cypher_texts.0[i])
            }
            Op::Sql => {
                let i = self.rng.weighted(&self.sql_texts.1);
                ReadReq::Fixed(Op::Sql, self.sql_texts.0[i])
            }
            Op::Lookup => ReadReq::Lookup {
                cypher: self.rng.below(5) < 3,
                key: self.rng.below(self.users) as i64,
                floor: self.rng.below(self.users) as i64,
            },
            _ => ReadReq::Batch,
        }
    }
}

/// The batch request: every fixed Cypher text and its transpilation.
pub fn batch_texts(fixed: &[Fixed]) -> Vec<BatchQuery> {
    fixed.iter().filter(|f| f.origin != Origin::Handwritten).map(|f| f.query.clone()).collect()
}

/// One commit of the write mix: what it changes, with everything needed
/// to rebuild its delta against any store over the seed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// A new user following two seed users (by index); `retired` is the
    /// writer's oldest inserted user, removed with its follows in the same
    /// commit.
    Insert {
        uid: i64,
        name: i64,
        fids: [i64; 2],
        targets: [usize; 2],
        retired: Option<(i64, [i64; 2])>,
    },
    /// A new name for seed user `uid`.
    Rename { uid: i64, name: i64 },
    /// Removal of follow `fid` between seed users `src` and `tgt` (a seed
    /// follow or an earlier re-link); the same two users are re-linked by a
    /// new follow `new_fid`, so the follow count stays put.
    Delete { fid: i64, src: usize, tgt: usize, new_fid: i64 },
}

impl Change {
    /// The delta against `store`, which resolves inserted users and
    /// follows to their keys.  A retirement or removal `store` cannot place
    /// is left out.
    pub fn delta(&self, keys: &Keys, store: &dyn Resolve) -> Delta {
        let mut delta = Delta::new();
        match *self {
            Change::Insert { uid, name, fids, targets, retired } => {
                let node = delta
                    .add_node("USR", [("UsrId", Value::Int(uid)), ("UsrName", Value::Int(name))]);
                for (fid, t) in fids.into_iter().zip(targets) {
                    delta.add_edge(
                        "FOLLOWS",
                        node,
                        NodeRef::Key(keys.users[t]),
                        [("FId", Value::Int(fid))],
                    );
                }
                if let Some((node, edges)) = retired.and_then(|(u, f)| inserted(store, u, f)) {
                    for e in edges {
                        delta.remove_edge(e);
                    }
                    delta.remove_node(node);
                }
            }
            Change::Rename { uid, name } => {
                delta.set_node_prop(keys.users[uid as usize], "UsrName", Value::Int(name));
            }
            Change::Delete { fid, src, tgt, new_fid } => {
                if let Some(edge) = store.follow(fid) {
                    delta.remove_edge(edge);
                }
                delta.add_edge(
                    "FOLLOWS",
                    keys.users[src],
                    keys.users[tgt],
                    [("FId", Value::Int(new_fid))],
                );
            }
        }
        delta
    }
}

/// Inserted users a writer keeps live before each insert also retires
/// its oldest one.  Without the cap a closed-loop writer grows the 1k-user
/// graph several-fold within one run, and every whole-table read slows
/// with it.
pub const LIVE_INSERTS: usize = 32;

/// Finds stable keys by id in one store: the served store, or the traced
/// run's in-memory copy of it.
pub trait Resolve {
    fn user(&self, uid: i64) -> Option<NodeKey>;
    fn follow(&self, fid: i64) -> Option<EdgeKey>;
}

/// The keys of an inserted user and its two follows, when all resolve.
fn inserted(store: &dyn Resolve, uid: i64, fids: [i64; 2]) -> Option<(NodeKey, [EdgeKey; 2])> {
    Some((store.user(uid)?, [store.follow(fids[0])?, store.follow(fids[1])?]))
}

/// Stable keys of the seed graph, resolved once at set-up.
#[derive(Debug, Clone, Default)]
pub struct Keys {
    /// Seed users by id (ids are `0..users`).
    pub users: Vec<NodeKey>,
    /// Seed FOLLOWS edges: FId and the indexes of both users, in FId order.
    pub follows: Vec<(i64, usize, usize)>,
}

/// A writer's commit stream.  Writer slots own disjoint ranges of new ids,
/// renamed users and deleted follows, so no commit is ever rejected and
/// no edge is deleted twice.
#[derive(Debug, Clone)]
pub struct Writer {
    rng: Rng,
    slot: i64,
    keys: Keys,
    renamable: Vec<i64>,
    /// Follows this writer may delete: its share of the seed follows, then
    /// the follows its acknowledged deletes re-linked, so deletes keep
    /// their share of the mix however long the run.
    deletable: VecDeque<(i64, usize, usize)>,
    inserted: i64,
    relinked: i64,
    live: VecDeque<(i64, [i64; 2])>,
    /// Commits sent, by kind: inserts, renames, deletes.
    pub sent: [u64; 3],
}

impl Writer {
    pub fn new(seed: u64, slot: usize, keys: &Keys) -> Writer {
        let mut rng = Rng::new(seed, TAG_WRITER + slot as u64);
        let own = |i: usize| i % CLIENTS == slot;
        let renamable = (0..keys.users.len()).filter(|&i| own(i)).map(|i| i as i64).collect();
        let mut deletable: Vec<(i64, usize, usize)> =
            keys.follows.iter().enumerate().filter(|(i, _)| own(*i)).map(|(_, e)| *e).collect();
        rng.shuffle(&mut deletable);
        Writer {
            rng,
            slot: slot as i64,
            keys: keys.clone(),
            renamable,
            deletable: deletable.into(),
            inserted: 0,
            relinked: 0,
            live: Default::default(),
            sent: [0; 3],
        }
    }

    /// Records that the commit carrying `change` was acknowledged.
    pub fn acked(&mut self, change: Change) {
        match change {
            Change::Insert { uid, fids, retired, .. } => {
                self.live.push_back((uid, fids));
                if let Some(r) = retired {
                    self.live.retain(|l| *l != r);
                }
            }
            Change::Delete { src, tgt, new_fid, .. } => {
                self.deletable.push_front((new_fid, src, tgt))
            }
            Change::Rename { .. } => {}
        }
    }

    /// The next commit: its delta against `store`, and what it changes.
    pub fn next_commit(&mut self, store: &dyn Resolve) -> (Delta, Change) {
        let users = self.keys.users.len() as u64;
        let mut kind = self.rng.weighted(&WRITE_WEIGHTS);
        let victim = if kind == 2 {
            self.deletable.pop_back().filter(|&(fid, ..)| store.follow(fid).is_some())
        } else {
            None
        };
        if kind == 2 && victim.is_none() {
            kind = 1;
        }
        self.sent[kind] += 1;
        let change = match (kind, victim) {
            (2, Some((fid, src, tgt))) => {
                self.relinked += 1;
                let new_fid = 10_000_000_000 * (self.slot + 1) + self.relinked;
                Change::Delete { fid, src, tgt, new_fid }
            }
            (1, _) => {
                let uid = self.renamable[self.rng.below(self.renamable.len() as u64) as usize];
                Change::Rename { uid, name: self.rng.below(1 << 40) as i64 }
            }
            _ => {
                let i = self.inserted;
                self.inserted += 1;
                let uid = 1_000_000_000 * (self.slot + 1) + i;
                let name = self.rng.below(1 << 40) as i64;
                let targets = [self.rng.below(users) as usize, self.rng.below(users) as usize];
                // Retire the oldest insert only when its keys resolve, so
                // the change and the delta always agree.
                let retired = (self.live.len() >= LIVE_INSERTS)
                    .then(|| self.live[0])
                    .filter(|&(u, f)| inserted(store, u, f).is_some());
                Change::Insert { uid, name, fids: [uid * 2, uid * 2 + 1], targets, retired }
            }
        };
        (change.delta(&self.keys, store), change)
    }
}

/// Per-client draw of which requests the traced run replays.
pub fn sampler(seed: u64, slot: usize) -> Rng {
    Rng::new(seed, TAG_SAMPLE + slot as u64)
}

/// Out-neighbours of every user, from `(src, tgt)` FOLLOWS pairs.
pub fn adjacency(pairs: impl IntoIterator<Item = (i64, i64)>) -> HashMap<i64, Vec<i64>> {
    let mut adj: HashMap<i64, Vec<i64>> = HashMap::new();
    for (s, t) in pairs {
        adj.entry(s).or_default().push(t);
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed() -> Vec<Fixed> {
        let mut out = Vec::new();
        for (family, cypher, hand) in families(3) {
            out.push(Fixed { family, origin: Origin::Cypher, query: BatchQuery::cypher(cypher) });
            out.push(Fixed { family, origin: Origin::Handwritten, query: BatchQuery::sql(hand) });
        }
        out
    }

    fn reads(seed: u64) -> Vec<String> {
        let mut r = Reader::new(seed, 0, 100, &fixed());
        (0..200).map(|_| format!("{:?}", r.next_req())).collect()
    }

    fn keys() -> Keys {
        Keys {
            users: (0..50).map(NodeKey).collect(),
            follows: (0..150).map(|i| (i as i64, i as usize % 50, (i as usize + 7) % 50)).collect(),
        }
    }

    /// A store in which every id resolves.
    struct Everything;

    impl Resolve for Everything {
        fn user(&self, uid: i64) -> Option<NodeKey> {
            Some(NodeKey(uid as u64))
        }
        fn follow(&self, fid: i64) -> Option<EdgeKey> {
            Some(EdgeKey(fid as u64))
        }
    }

    fn commits_n(seed: u64, slot: usize, n: usize) -> Vec<Change> {
        let mut w = Writer::new(seed, slot, &keys());
        (0..n)
            .map(|_| {
                let change = w.next_commit(&Everything).1;
                w.acked(change);
                change
            })
            .collect()
    }

    fn commits(seed: u64, slot: usize) -> Vec<Change> {
        commits_n(seed, slot, 300)
    }

    fn deleted(cs: &[Change]) -> Vec<i64> {
        cs.iter()
            .filter_map(|c| if let Change::Delete { fid, .. } = c { Some(*fid) } else { None })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(seed_graph(50, 7), seed_graph(50, 7));
        assert_eq!(anchor(7, 1000), anchor(7, 1000));
        assert_eq!(reads(7), reads(7));
        assert_eq!(commits(7, 0), commits(7, 0));
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(seed_graph(50, 7), seed_graph(50, 8));
        assert_ne!(reads(7), reads(8));
        assert_ne!(commits(7, 0), commits(8, 0));
    }

    #[test]
    fn writer_slots_never_collide() {
        let (a, b) = (commits(7, 0), commits(7, 1));
        let (da, db) = (deleted(&a), deleted(&b));
        assert!(da.iter().all(|f| !db.contains(f)), "slots delete disjoint edges");
        let mut all = da.clone();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), da.len(), "no edge is deleted twice");
        let uids = |cs: &[Change]| -> Vec<i64> {
            cs.iter()
                .filter_map(|c| if let Change::Insert { uid, .. } = c { Some(*uid) } else { None })
                .collect()
        };
        assert!(uids(&a).iter().all(|u| !uids(&b).contains(u)));
        let retired =
            a.iter().filter(|c| matches!(c, Change::Insert { retired: Some(_), .. })).count();
        assert_eq!(
            retired,
            uids(&a).len() - LIVE_INSERTS,
            "inserts beyond the cap retire one each"
        );
    }

    #[test]
    fn deletes_keep_their_share_once_seed_follows_run_out() {
        // 75 seed follows per slot; 15% of 2000 commits is about 300 deletes.
        let cs = commits_n(9, 0, 2000);
        let d = deleted(&cs);
        assert!((240..=360).contains(&d.len()), "{} deletes in 2000 commits", d.len());
        let mut distinct = d.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), d.len(), "no follow is deleted twice");
        let late = deleted(&cs[1000..]).len();
        assert!((120..=180).contains(&late), "{late} deletes in the second 1000 commits");
    }
}

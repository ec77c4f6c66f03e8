//! Workloads, request classes, the client-side model of every instance,
//! and the engine oracle the answers are checked against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirup_core::program::{pi_q, sigma_q, DSirup};
use sirup_core::{FactOp, Node, OneCq, Pred, Structure};
use sirup_engine::{certain_answer_dsirup, evaluate};
use sirup_server::{Answer, Query};
use sirup_workloads::paper;
use sirup_workloads::random::{random_ditree_cq, random_instance, DitreeCqParams};
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};

/// One request class. Each latency metric covers exactly one class, and
/// each class is one (program, kind) pair, so its median sits in one mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `q5` as π: answered from the UCQ rewriting.
    Bounded,
    /// `q4` as σ: answered from the maintained fixpoint.
    Unbounded,
    /// `q2` as δ: DPLL over the core.
    Disjunctive,
    /// A mutation of 1–3 fact ops.
    Mutate,
    /// A program the server has never planned, against `d1`.
    Cold,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Bounded,
        Class::Unbounded,
        Class::Disjunctive,
        Class::Mutate,
        Class::Cold,
    ];
    pub const READS: [Class; 3] = [Class::Bounded, Class::Unbounded, Class::Disjunctive];

    pub fn name(self) -> &'static str {
        match self {
            Class::Bounded => "bounded",
            Class::Unbounded => "unbounded",
            Class::Disjunctive => "disjunctive",
            Class::Mutate => "mutate",
            Class::Cold => "cold",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// The fixed query of a warm read class.
    pub fn query(self) -> Query {
        match self {
            Class::Bounded => Query::PiGoal(paper::q5()),
            Class::Unbounded => Query::SigmaAnswers(paper::q4_cq()),
            Class::Disjunctive => Query::Delta {
                cq: paper::q2(),
                disjoint: false,
            },
            Class::Mutate | Class::Cold => unreachable!("{} has no fixed query", self.name()),
        }
    }
}

/// How a phase picks its next request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Uniform over the three read classes.
    Reads,
    /// One mutation before every read; reads uniform over the read classes.
    WriteRead,
    /// Cold plans only.
    Cold,
    /// Uniform over mutations and cold plans.
    MutateCold,
}

impl Mix {
    pub fn classes(self) -> &'static [Class] {
        match self {
            Mix::Reads => &Class::READS,
            Mix::WriteRead => &[
                Class::Bounded,
                Class::Unbounded,
                Class::Disjunctive,
                Class::Mutate,
            ],
            Mix::Cold => &[Class::Cold],
            Mix::MutateCold => &[Class::Mutate, Class::Cold],
        }
    }
}

/// A benchmark workload: what its main phase runs, and which phase covers
/// the classes the main stream does not carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadOnly,
    WriteRead,
    ColdPlans,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "read_only" => Workload::ReadOnly,
            "write_read" => Workload::WriteRead,
            "cold_plans" => Workload::ColdPlans,
            _ => return None,
        })
    }

    pub fn main_mix(self) -> Mix {
        match self {
            Workload::ReadOnly => Mix::Reads,
            Workload::WriteRead => Mix::WriteRead,
            Workload::ColdPlans => Mix::Cold,
        }
    }

    /// The complement phase's mix: every class the main stream lacks, run
    /// on a reference server after the main phase.
    pub fn complement_mix(self) -> Mix {
        match self {
            Workload::ReadOnly => Mix::MutateCold,
            Workload::WriteRead => Mix::Cold,
            Workload::ColdPlans => Mix::WriteRead,
        }
    }

    /// Does the traced complement phase go through a durable daemon over
    /// the wire? Only `cold_plans`' does: it is where the wire, frame and
    /// WAL layers are measured. Untraced, every phase runs in process.
    pub fn complement_over_wire(self) -> bool {
        self == Workload::ColdPlans
    }
}

/// Derive an independent stream seed from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The data instance is the same in every run: `--seed` varies the
/// requests (order, mutation batches, cold programs), not the data they
/// query, so runs of one workload differ in their draws and not in their
/// costs.
const INSTANCE_SEED: u64 = 2021;

/// The large instance: about 5k nodes, 10k edges, 30% F/T labels and 5%
/// A-nodes for the DPLL to case-split on.
pub fn large_instance() -> Structure {
    random_instance(5_000, 10_000, 0.3, 0.05, INSTANCE_SEED)
}

/// The client's model of one catalog instance. Mutations alternate: an
/// insert batch of facts absent from the loaded data, then its retraction,
/// so the instance is back at its loaded size after every second write.
pub struct Model {
    pub name: String,
    pub base: Structure,
    /// The inserted batch not yet retracted, if any.
    pending: Option<Vec<FactOp>>,
    /// 0 when the data equals `base`, else the id of the pending batch.
    pub state: u64,
    next_state: u64,
    /// Mutations applied so far: the `seq` the next reply must carry is
    /// one more.
    pub seq: u64,
    /// Every op sent, in order: folded over `base` at the end.
    pub log: Vec<FactOp>,
    /// Expected answers on `base`, by read class.
    pub base_answers: Vec<Option<Answer>>,
}

impl Model {
    pub fn new(name: impl Into<String>, base: Structure) -> Model {
        Model {
            name: name.into(),
            base,
            pending: None,
            state: 0,
            next_state: 1,
            seq: 0,
            log: Vec::new(),
            base_answers: vec![None; Class::ALL.len()],
        }
    }

    /// Compute the expected base answers of the read classes.
    pub fn solve_base(&mut self) {
        for c in Class::READS {
            self.base_answers[c.index()] = Some(oracle(c, &self.base));
        }
    }

    /// The next mutation: retract the pending batch, or insert a new one of
    /// 1–3 facts absent from `base`.
    pub fn next_mutation(&mut self, rng: &mut StdRng) -> Vec<FactOp> {
        if let Some(batch) = &self.pending {
            return batch.iter().map(|&op| retraction(op)).collect();
        }
        let n = self.base.node_count();
        let want = rng.gen_range(1..=3usize);
        let mut batch: Vec<FactOp> = Vec::with_capacity(want);
        while batch.len() < want {
            let u = Node(rng.gen_range(0..n) as u32);
            let op = match rng.gen_range(0..4u32) {
                0 => FactOp::AddLabel(Pred::F, u),
                1 => FactOp::AddLabel(Pred::T, u),
                k => {
                    let v = Node(rng.gen_range(0..n) as u32);
                    FactOp::AddEdge(if k == 2 { Pred::R } else { Pred::S }, u, v)
                }
            };
            let present = match op {
                FactOp::AddLabel(p, v) => self.base.has_label(v, p),
                FactOp::AddEdge(p, u, v) => self.base.has_edge(p, u, v),
                _ => unreachable!("only inserts are generated"),
            };
            if !present && !batch.contains(&op) {
                batch.push(op);
            }
        }
        batch
    }

    /// Record that `ops` (from [`Model::next_mutation`]) were sent; returns
    /// the reply the server owes.
    pub fn apply(&mut self, ops: &[FactOp]) -> Answer {
        self.log.extend_from_slice(ops);
        self.seq += 1;
        if self.pending.take().is_none() {
            self.pending = Some(ops.to_vec());
            self.state = self.next_state;
            self.next_state += 1;
        } else {
            self.state = 0;
        }
        Answer::Applied {
            applied: ops.len(),
            seq: self.seq,
        }
    }

    /// The pending insert batch (the data is `base` plus these facts).
    pub fn pending(&self) -> &[FactOp] {
        self.pending.as_deref().unwrap_or(&[])
    }
}

/// The op that undoes an insert.
fn retraction(op: FactOp) -> FactOp {
    match op {
        FactOp::AddLabel(p, v) => FactOp::RemoveLabel(p, v),
        FactOp::AddEdge(p, u, v) => FactOp::RemoveEdge(p, u, v),
        _ => unreachable!("only inserts are pending"),
    }
}

/// Seeded stream of distinct cold programs: 7-node random ditree 1-CQs,
/// each asked once as π or σ.
pub struct ColdGen {
    rng: StdRng,
    next_seed: u64,
    /// Hashes of the cache keys handed out (a key per program would make
    /// the client's memory grow with the request count).
    seen: HashSet<u64>,
}

impl ColdGen {
    pub fn new(seed: u64) -> ColdGen {
        ColdGen {
            rng: StdRng::seed_from_u64(seed),
            next_seed: seed,
            seen: HashSet::new(),
        }
    }

    pub fn next_query(&mut self) -> Query {
        let params = DitreeCqParams {
            nodes: 7,
            ..DitreeCqParams::default()
        };
        loop {
            self.next_seed = self.next_seed.wrapping_add(1);
            let Some(q) = random_ditree_cq(params, self.next_seed) else {
                continue;
            };
            let query = if self.rng.gen_bool(0.5) {
                Query::PiGoal(q)
            } else {
                Query::SigmaAnswers(q)
            };
            let mut h = DefaultHasher::new();
            query.cache_key().hash(&mut h);
            if self.seen.insert(h.finish()) {
                return query;
            }
        }
    }
}

/// Direct engine evaluation of a warm read class on `data`.
pub fn oracle(class: Class, data: &Structure) -> Answer {
    match class {
        Class::Bounded => goal(&paper::q5(), data),
        Class::Unbounded => answers(&paper::q4_cq(), data),
        Class::Disjunctive => Answer::Bool(certain_answer_dsirup(
            &DSirup {
                cq: paper::q2(),
                disjoint: false,
            },
            data,
        )),
        Class::Mutate | Class::Cold => unreachable!("{} is not a warm read", class.name()),
    }
}

/// Direct engine evaluation of a cold program.
pub fn oracle_cold(query: &Query, data: &Structure) -> Answer {
    match query {
        Query::PiGoal(q) => goal(q, data),
        Query::SigmaAnswers(q) => answers(q, data),
        Query::Delta { .. } => unreachable!("cold programs are π or σ"),
    }
}

fn goal(q: &OneCq, data: &Structure) -> Answer {
    Answer::Bool(evaluate(&pi_q(q), data).holds(Pred::GOAL))
}

fn answers(q: &OneCq, data: &Structure) -> Answer {
    let mut nodes = evaluate(&sigma_q(q), data).answers(Pred::P).to_vec();
    nodes.sort();
    Answer::Nodes(nodes)
}

/// Node count, edges and labels in a canonical order.
pub type Facts = (usize, Vec<(Pred, Node, Node)>, Vec<(Pred, Node)>);

/// A structure's facts in a canonical order, for the final fold check.
pub fn canonical(s: &Structure) -> Facts {
    let mut edges: Vec<_> = s.edges().collect();
    edges.sort();
    let mut labels: Vec<_> = s.unary_atoms().collect();
    labels.sort();
    (s.node_count(), edges, labels)
}

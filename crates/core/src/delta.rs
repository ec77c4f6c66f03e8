//! Fact-level deltas over a [`Structure`].
//!
//! A [`FactOp`] names one atom-level change to a data instance: add or
//! remove a unary atom `p(v)` or a binary atom `p(u, v)`. Mutation traffic
//! in the service layer, the incremental fixpoint maintenance in
//! `sirup-engine`, and the `.sirupload` workload format all speak this
//! vocabulary, so it lives here at the bottom of the workspace.
//!
//! Semantics of [`Structure::apply`]:
//!
//! * structures are **sets** of atoms, so adding a present atom and removing
//!   an absent one are no-ops (`apply` returns `false`);
//! * `Add*` ops **grow** the node range on demand — inserting `T(n9)` into a
//!   5-node instance creates nodes `n5..=n9` (unlabeled, disconnected), the
//!   natural reading of "a new constant arrived in the data";
//! * `Remove*` ops never grow: an out-of-range node means the atom is
//!   absent, a no-op.

use crate::structure::{Node, Structure};
use crate::symbols::Pred;
use std::fmt;

/// One atom-level change to a data instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactOp {
    /// Insert the unary atom `p(v)`.
    AddLabel(Pred, Node),
    /// Retract the unary atom `p(v)`.
    RemoveLabel(Pred, Node),
    /// Insert the binary atom `p(u, v)`.
    AddEdge(Pred, Node, Node),
    /// Retract the binary atom `p(u, v)`.
    RemoveEdge(Pred, Node, Node),
}

impl FactOp {
    /// Is this an insertion (`Add*`)?
    pub fn is_insert(self) -> bool {
        matches!(self, FactOp::AddLabel(..) | FactOp::AddEdge(..))
    }

    /// The largest node index the op mentions.
    pub fn max_node(self) -> Node {
        match self {
            FactOp::AddLabel(_, v) | FactOp::RemoveLabel(_, v) => v,
            FactOp::AddEdge(_, u, v) | FactOp::RemoveEdge(_, u, v) => u.max(v),
        }
    }
}

/// Binary encoding of [`FactOp`] sequences, shared by the write-ahead log
/// and (inside text frames rendered through `Display`) the wire protocol's
/// tail stream. Layout of one op: a `u8` kind tag (0 `AddLabel`, 1
/// `RemoveLabel`, 2 `AddEdge`, 3 `RemoveEdge`), the predicate name as
/// `u16 LE` length + UTF-8 bytes, then one or two `u32 LE` node indexes.
impl FactOp {
    /// Append the binary form of this op to `out`.
    pub fn encode(self, out: &mut Vec<u8>) {
        let (tag, p, nodes) = match self {
            FactOp::AddLabel(p, v) => (0u8, p, [Some(v), None]),
            FactOp::RemoveLabel(p, v) => (1, p, [Some(v), None]),
            FactOp::AddEdge(p, u, v) => (2, p, [Some(u), Some(v)]),
            FactOp::RemoveEdge(p, u, v) => (3, p, [Some(u), Some(v)]),
        };
        out.push(tag);
        let name = p.as_str().as_bytes();
        debug_assert!(name.len() <= u16::MAX as usize, "predicate name too long");
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        for v in nodes.into_iter().flatten() {
            out.extend_from_slice(&v.0.to_le_bytes());
        }
    }

    /// Decode one op from the front of `buf`; returns the op and how many
    /// bytes it consumed. Fails (with a message naming the defect) on a
    /// truncated buffer, an unknown tag, or a non-UTF-8 predicate name.
    pub fn decode(buf: &[u8]) -> Result<(FactOp, usize), String> {
        let take = |at: usize, n: usize| -> Result<&[u8], String> {
            buf.get(at..at + n)
                .ok_or_else(|| format!("op record truncated at byte {at}"))
        };
        let tag = take(0, 1)?[0];
        let name_len = u16::from_le_bytes(take(1, 2)?.try_into().unwrap()) as usize;
        let name = std::str::from_utf8(take(3, name_len)?)
            .map_err(|_| "op predicate name is not UTF-8".to_owned())?;
        let p = Pred::new(name);
        let mut at = 3 + name_len;
        let node = |at: &mut usize| -> Result<Node, String> {
            let v = u32::from_le_bytes(take(*at, 4)?.try_into().unwrap());
            *at += 4;
            Ok(Node(v))
        };
        let op = match tag {
            0 => FactOp::AddLabel(p, node(&mut at)?),
            1 => FactOp::RemoveLabel(p, node(&mut at)?),
            2 => FactOp::AddEdge(p, node(&mut at)?, node(&mut at)?),
            3 => FactOp::RemoveEdge(p, node(&mut at)?, node(&mut at)?),
            t => return Err(format!("unknown op tag {t}")),
        };
        Ok((op, at))
    }
}

/// Encode a sequence of ops: `u32 LE` count, then each op's binary form.
pub fn encode_ops(ops: &[FactOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + ops.len() * 12);
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        op.encode(&mut out);
    }
    out
}

/// Decode a sequence encoded by [`encode_ops`] from the front of `buf`;
/// returns the ops and the bytes consumed.
pub fn decode_ops(buf: &[u8]) -> Result<(Vec<FactOp>, usize), String> {
    let count = u32::from_le_bytes(
        buf.get(0..4)
            .ok_or("op sequence missing its count prefix")?
            .try_into()
            .unwrap(),
    ) as usize;
    let mut ops = Vec::with_capacity(count.min(1 << 16));
    let mut at = 4;
    for _ in 0..count {
        let (op, used) = FactOp::decode(&buf[at..])?;
        ops.push(op);
        at += used;
    }
    Ok((ops, at))
}

impl fmt::Debug for FactOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for FactOp {
    /// Render in the workload-format op syntax: `+T(n4)`, `-R(n0,n1)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FactOp::AddLabel(p, v) => write!(f, "+{p}(n{})", v.0),
            FactOp::RemoveLabel(p, v) => write!(f, "-{p}(n{})", v.0),
            FactOp::AddEdge(p, u, v) => write!(f, "+{p}(n{},n{})", u.0, v.0),
            FactOp::RemoveEdge(p, u, v) => write!(f, "-{p}(n{},n{})", u.0, v.0),
        }
    }
}

/// Parse one op in the workload syntax (`+T(n4)`, `-R(n0,n1)`), resolving
/// node names through `resolve` — the caller owns the name↔node mapping of
/// the target instance (fresh names on inserts may allocate new nodes
/// there). Returns an error message on malformed text.
pub fn parse_op(text: &str, mut resolve: impl FnMut(&str) -> Node) -> Result<FactOp, String> {
    let text = text.trim();
    let (sign, rest) = match text.split_at_checked(1) {
        Some(("+", rest)) => (true, rest),
        Some(("-", rest)) => (false, rest),
        _ => return Err(format!("op {text:?} must start with '+' or '-'")),
    };
    let inner = rest
        .strip_suffix(')')
        .ok_or_else(|| format!("op {text:?} is missing ')'"))?;
    let (pred, args) = inner
        .split_once('(')
        .ok_or_else(|| format!("op {text:?} is missing '('"))?;
    let pred = pred.trim();
    if pred.is_empty() {
        return Err(format!("op {text:?} has an empty predicate name"));
    }
    let p = Pred::new(pred);
    let names: Vec<&str> = args.split(',').map(str::trim).collect();
    match names.as_slice() {
        [a] if !a.is_empty() => {
            let v = resolve(a);
            Ok(if sign {
                FactOp::AddLabel(p, v)
            } else {
                FactOp::RemoveLabel(p, v)
            })
        }
        [a, b] if !a.is_empty() && !b.is_empty() => {
            let u = resolve(a);
            let v = resolve(b);
            Ok(if sign {
                FactOp::AddEdge(p, u, v)
            } else {
                FactOp::RemoveEdge(p, u, v)
            })
        }
        _ => Err(format!("op {text:?} needs 1 or 2 node arguments")),
    }
}

impl Structure {
    /// Grow the node range so that `v` exists (no-op if it already does).
    fn ensure_node(&mut self, v: Node) {
        while self.node_count() <= v.index() {
            self.add_node();
        }
    }

    /// Apply one [`FactOp`]. Returns `true` iff the structure changed (see
    /// the module docs for the set/no-op and node-growth semantics).
    pub fn apply(&mut self, op: FactOp) -> bool {
        match op {
            FactOp::AddLabel(p, v) => {
                self.ensure_node(v);
                self.add_label(v, p)
            }
            FactOp::RemoveLabel(p, v) => v.index() < self.node_count() && self.remove_label(v, p),
            FactOp::AddEdge(p, u, v) => {
                self.ensure_node(u.max(v));
                self.add_edge(p, u, v)
            }
            FactOp::RemoveEdge(p, u, v) => {
                u.index() < self.node_count()
                    && v.index() < self.node_count()
                    && self.remove_edge(p, u, v)
            }
        }
    }

    /// Apply a sequence of ops in order; returns how many changed the
    /// structure.
    pub fn apply_all(&mut self, ops: &[FactOp]) -> usize {
        ops.iter().filter(|&&op| self.apply(op)).count()
    }

    /// Every atom of the structure as an `Add*` op sequence. Replaying the
    /// result with [`Structure::apply_all`] onto an empty structure of the
    /// same node count reproduces this structure exactly — the WAL snapshot
    /// and the wire `load` verb both serialise instances this way.
    pub fn to_ops(&self) -> Vec<FactOp> {
        let mut ops: Vec<FactOp> = self
            .unary_atoms()
            .map(|(p, v)| FactOp::AddLabel(p, v))
            .collect();
        ops.extend(self.edges().map(|(p, u, v)| FactOp::AddEdge(p, u, v)));
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::st;

    #[test]
    fn apply_set_semantics() {
        let mut s = st("F(a), R(a,b)");
        assert!(!s.apply(FactOp::AddLabel(Pred::F, Node(0))));
        assert!(s.apply(FactOp::AddLabel(Pred::T, Node(1))));
        assert!(s.apply(FactOp::RemoveLabel(Pred::T, Node(1))));
        assert!(!s.apply(FactOp::RemoveLabel(Pred::T, Node(1))));
        assert!(s.apply(FactOp::RemoveEdge(Pred::R, Node(0), Node(1))));
        assert!(!s.apply(FactOp::RemoveEdge(Pred::R, Node(0), Node(1))));
        assert_eq!(s.edge_count(), 0);
    }

    #[test]
    fn adds_grow_removes_do_not() {
        let mut s = st("F(a)");
        assert_eq!(s.node_count(), 1);
        // Removing at an out-of-range node is an in-place no-op.
        assert!(!s.apply(FactOp::RemoveLabel(Pred::T, Node(9))));
        assert_eq!(s.node_count(), 1);
        assert!(s.apply(FactOp::AddEdge(Pred::R, Node(0), Node(3))));
        assert_eq!(s.node_count(), 4);
        assert!(s.has_edge(Pred::R, Node(0), Node(3)));
        assert!(s.apply(FactOp::AddLabel(Pred::T, Node(5))));
        assert_eq!(s.node_count(), 6);
    }

    #[test]
    fn apply_all_counts_effective_ops() {
        let mut s = st("F(a), R(a,b)");
        let n = s.apply_all(&[
            FactOp::AddLabel(Pred::T, Node(1)),            // changes
            FactOp::AddLabel(Pred::T, Node(1)),            // duplicate: no-op
            FactOp::RemoveEdge(Pred::R, Node(0), Node(1)), // changes
            FactOp::RemoveLabel(Pred::A, Node(0)),         // absent: no-op
        ]);
        assert_eq!(n, 2);
    }

    #[test]
    fn op_text_round_trips() {
        let mut next = 0u32;
        let mut names: std::collections::HashMap<String, Node> = Default::default();
        let mut resolve = |name: &str| {
            *names.entry(name.to_owned()).or_insert_with(|| {
                let v = Node(next);
                next += 1;
                v
            })
        };
        let add = parse_op("+T(n4)", &mut resolve).unwrap();
        assert_eq!(add, FactOp::AddLabel(Pred::T, Node(0)));
        let rm = parse_op("-R(n4, x)", &mut resolve).unwrap();
        assert_eq!(rm, FactOp::RemoveEdge(Pred::R, Node(0), Node(1)));
        // Display renders the canonical n<i> syntax, which parses back.
        let op = FactOp::AddEdge(Pred::S, Node(2), Node(0));
        let text = op.to_string();
        assert_eq!(text, "+S(n2,n0)");
        let back = parse_op(&text, |n| Node(n[1..].parse().unwrap())).unwrap();
        assert_eq!(back, op);
    }

    #[test]
    fn binary_encoding_round_trips() {
        let ops = vec![
            FactOp::AddLabel(Pred::T, Node(4)),
            FactOp::RemoveLabel(Pred::F, Node(0)),
            FactOp::AddEdge(Pred::R, Node(0), Node(7)),
            FactOp::RemoveEdge(Pred::new("edge_with_long_name"), Node(3), Node(3)),
        ];
        let buf = encode_ops(&ops);
        let (back, used) = decode_ops(&buf).unwrap();
        assert_eq!(back, ops);
        assert_eq!(used, buf.len());
        // Truncation at any interior byte is a decode error, never a panic
        // or a silent partial result.
        for cut in 0..buf.len() {
            assert!(decode_ops(&buf[..cut]).is_err(), "cut at {cut}");
        }
        // An unknown tag is rejected.
        let mut bad = Vec::new();
        FactOp::AddLabel(Pred::T, Node(1)).encode(&mut bad);
        bad[0] = 9;
        assert!(FactOp::decode(&bad).is_err());
    }

    #[test]
    fn to_ops_reproduces_the_structure() {
        let s = st("F(a), T(b), R(a,b), S(b,c), A(c)");
        let mut rebuilt = Structure::with_nodes(s.node_count());
        rebuilt.apply_all(&s.to_ops());
        assert_eq!(rebuilt.to_string(), s.to_string());
    }

    #[test]
    fn parse_op_rejects_malformed() {
        let resolve = |_: &str| Node(0);
        for bad in ["T(n0)", "+T n0", "+Tn0)", "+(n0)", "+T()", "+T(a,b,c)", "+"] {
            assert!(parse_op(bad, resolve).is_err(), "accepted {bad:?}");
        }
    }
}

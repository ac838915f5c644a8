//! The connector intermediate representation.
//!
//! This IR mirrors the paper's textual syntax (Sect. IV-B, Figs. 8/9): a
//! program is a set of connector definitions, each with a `(tails; heads)`
//! signature and a body composing constituents with `mult`, iteration
//! (`prod`) and conditionals (`if`). Arrays of ports, `#array` lengths, and
//! index arithmetic make definitions parametric in the number of tasks.
//!
//! The IR is produced either by the `reo-dsl` parser or programmatically by
//! builder code (e.g. the `reo-connectors` families).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use reo_automata::{Automaton, MemId, Name, PortId};

/// An integer index expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IExpr {
    Const(i64),
    /// An iteration variable or a `main` parameter (e.g. `N`).
    Var(Name),
    /// `#arr`: the length of an array parameter.
    Len(Name),
    Add(Box<IExpr>, Box<IExpr>),
    Sub(Box<IExpr>, Box<IExpr>),
    Mul(Box<IExpr>, Box<IExpr>),
}

impl IExpr {
    pub fn var(name: &str) -> Self {
        IExpr::Var(name.into())
    }

    pub fn len(name: &str) -> Self {
        IExpr::Len(name.into())
    }
}

impl std::ops::Add for IExpr {
    type Output = IExpr;
    fn add(self, other: IExpr) -> IExpr {
        IExpr::Add(Box::new(self), Box::new(other))
    }
}

impl std::ops::Sub for IExpr {
    type Output = IExpr;
    fn sub(self, other: IExpr) -> IExpr {
        IExpr::Sub(Box::new(self), Box::new(other))
    }
}

impl fmt::Display for IExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IExpr::Const(c) => write!(f, "{c}"),
            IExpr::Var(v) => write!(f, "{v}"),
            IExpr::Len(a) => write!(f, "#{a}"),
            IExpr::Add(a, b) => write!(f, "({a} + {b})"),
            IExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            IExpr::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

/// Comparison operators of conditional expressions.
pub use reo_automata::Cmp;

/// A boolean condition over index expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BExpr {
    Cmp(Cmp, IExpr, IExpr),
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Not(Box<BExpr>),
}

impl fmt::Display for BExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BExpr::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            BExpr::And(a, b) => write!(f, "({a} && {b})"),
            BExpr::Or(a, b) => write!(f, "({a} || {b})"),
            BExpr::Not(a) => write!(f, "!({a})"),
        }
    }
}

/// A reference to one port, an array element, or a slice of an array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortRef {
    /// A scalar port variable, or a whole array used in argument position
    /// (shorthand for `name[1..#name]`); disambiguated by the declared kind.
    Name(Name),
    /// `name[e1][e2]…`: one element of a (possibly multi-dimensional
    /// after flattening) array. Source syntax only ever writes one index;
    /// inlining under iterations appends further indices.
    Indexed(Name, Vec<IExpr>),
    /// `name[a..b]` (inclusive on both ends, 1-based, as in `out[1..N]`).
    Slice(Name, IExpr, IExpr),
}

impl PortRef {
    pub fn name(n: &str) -> Self {
        PortRef::Name(n.into())
    }

    pub fn indexed(n: &str, idx: IExpr) -> Self {
        PortRef::Indexed(n.into(), vec![idx])
    }

    pub fn slice(n: &str, lo: IExpr, hi: IExpr) -> Self {
        PortRef::Slice(n.into(), lo, hi)
    }

    /// The referenced base name.
    pub fn base(&self) -> &str {
        match self {
            PortRef::Name(n) | PortRef::Indexed(n, _) | PortRef::Slice(n, ..) => n,
        }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortRef::Name(n) => write!(f, "{n}"),
            PortRef::Indexed(n, idx) => {
                write!(f, "{n}")?;
                for e in idx {
                    write!(f, "[{e}]")?;
                }
                Ok(())
            }
            PortRef::Slice(n, a, b) => write!(f, "{n}[{a}..{b}]"),
        }
    }
}

/// An instantiated signature: a primitive or a reference to another
/// connector definition, with tail and head operand lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inst {
    pub name: Name,
    /// Integer arguments for parametrized builtins (e.g. `FifoN<3>`).
    pub iargs: Vec<IExpr>,
    pub tails: Vec<PortRef>,
    pub heads: Vec<PortRef>,
}

impl Inst {
    pub fn new(name: &str, tails: Vec<PortRef>, heads: Vec<PortRef>) -> Self {
        Self {
            name: name.into(),
            iargs: Vec::new(),
            tails,
            heads,
        }
    }

    pub fn with_iarg(mut self, e: IExpr) -> Self {
        self.iargs.push(e);
        self
    }

    pub fn operands(&self) -> impl Iterator<Item = &PortRef> {
        self.tails.iter().chain(self.heads.iter())
    }
}

/// A connector body expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CExpr {
    Inst(Inst),
    /// Composition with `mult` (the × of Eq. 1).
    Mult(Vec<CExpr>),
    /// `prod (var: lo..hi) body` — bodies are in-lined for every value of
    /// the (inclusive) range; an empty range contributes nothing.
    Prod {
        var: Name,
        lo: IExpr,
        hi: IExpr,
        body: Box<CExpr>,
    },
    /// `if (cond) { then } else { else }`; the else branch may be absent.
    If {
        cond: BExpr,
        then_branch: Box<CExpr>,
        else_branch: Option<Box<CExpr>>,
    },
}

impl CExpr {
    pub fn mult(parts: Vec<CExpr>) -> CExpr {
        CExpr::Mult(parts)
    }

    pub fn prod(var: &str, lo: IExpr, hi: IExpr, body: CExpr) -> CExpr {
        CExpr::Prod {
            var: var.into(),
            lo,
            hi,
            body: Box::new(body),
        }
    }
}

/// A formal parameter of a connector definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    pub name: String,
    pub is_array: bool,
}

impl Param {
    pub fn scalar(name: &str) -> Self {
        Self {
            name: name.to_string(),
            is_array: false,
        }
    }

    pub fn array(name: &str) -> Self {
        Self {
            name: name.to_string(),
            is_array: true,
        }
    }
}

/// A connector definition: `Name(tails; heads) = body`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectorDef {
    pub name: String,
    pub tails: Vec<Param>,
    pub heads: Vec<Param>,
    pub body: CExpr,
}

impl ConnectorDef {
    pub fn params(&self) -> impl Iterator<Item = &Param> {
        self.tails.iter().chain(self.heads.iter())
    }

    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params().find(|p| p.name == name)
    }
}

/// A task instantiation in a `main` definition, optionally replicated with
/// `forall (i: lo..hi)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskInst {
    pub name: String,
    pub args: Vec<PortRef>,
    pub forall: Option<(String, IExpr, IExpr)>,
}

/// `main(params) = Connector(args) among tasks`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MainDef {
    pub params: Vec<String>,
    pub connector: Inst,
    pub tasks: Vec<TaskInst>,
}

/// Builder signature of a custom (host-language) primitive: given concrete
/// tail/head ports and a memory-cell allocator, produce the small automaton.
pub type CustomBuild =
    Arc<dyn Fn(&[PortId], &[PortId], &mut dyn FnMut() -> MemId) -> Automaton + Send + Sync>;

/// Arity specification of a primitive operand list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arity {
    Exact(usize),
    AtLeast(usize),
}

impl Arity {
    pub fn admits(self, n: usize) -> bool {
        match self {
            Arity::Exact(k) => n == k,
            Arity::AtLeast(k) => n >= k,
        }
    }
}

/// A host-language primitive (e.g. a filter with a Rust predicate) that the
/// IR can reference by name alongside the builtins.
#[derive(Clone)]
pub struct CustomPrim {
    pub tails: Arity,
    pub heads: Arity,
    pub build: CustomBuild,
}

impl fmt::Debug for CustomPrim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CustomPrim({:?};{:?})", self.tails, self.heads)
    }
}

/// Registry of custom primitives, shared by a [`Program`].
#[derive(Clone, Debug, Default)]
pub struct PrimRegistry {
    map: HashMap<String, CustomPrim>,
}

impl PrimRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register(&mut self, name: &str, prim: CustomPrim) {
        self.map.insert(name.to_string(), prim);
    }

    pub fn get(&self, name: &str) -> Option<&CustomPrim> {
        self.map.get(name)
    }
}

/// A connector program: definitions, optional `main`, custom primitives.
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub defs: Vec<ConnectorDef>,
    pub main: Option<MainDef>,
    pub registry: PrimRegistry,
}

impl Program {
    pub fn new(defs: Vec<ConnectorDef>) -> Self {
        Self {
            defs,
            main: None,
            registry: PrimRegistry::new(),
        }
    }

    pub fn def(&self, name: &str) -> Option<&ConnectorDef> {
        self.defs.iter().find(|d| d.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip_shapes() {
        let e = IExpr::len("tl") - IExpr::Const(1);
        assert_eq!(e.to_string(), "(#tl - 1)");
        let r = PortRef::indexed("prev", IExpr::var("i") + IExpr::Const(1));
        assert_eq!(r.to_string(), "prev[(i + 1)]");
        let s = PortRef::slice("out", IExpr::Const(1), IExpr::var("N"));
        assert_eq!(s.to_string(), "out[1..N]");
    }

    #[test]
    fn arity_admission() {
        assert!(Arity::Exact(2).admits(2));
        assert!(!Arity::Exact(2).admits(3));
        assert!(Arity::AtLeast(1).admits(5));
        assert!(!Arity::AtLeast(2).admits(1));
    }

    #[test]
    fn program_lookup_by_name() {
        let def = ConnectorDef {
            name: "X".into(),
            tails: vec![Param::scalar("a")],
            heads: vec![Param::scalar("b")],
            body: CExpr::Inst(Inst::new(
                "Sync",
                vec![PortRef::name("a")],
                vec![PortRef::name("b")],
            )),
        };
        let prog = Program::new(vec![def]);
        assert!(prog.def("X").is_some());
        assert!(prog.def("Y").is_none());
        assert!(prog.def("X").unwrap().param("a").is_some());
    }
}

//! Parametrized compilation: step 3 of Sect. IV-C, and the paper's central
//! technical contribution.
//!
//! What can be composed at compile time, is: every constituents section of
//! the normal form becomes one **medium automaton** (the `Automaton1..4`
//! classes of Fig. 10), composed with × over *symbolic* ports and already
//! label-simplified over ports provably private to the section; a lone
//! primitive that both would return unchanged is its own template (most
//! templates are one primitive, built once, not copied). What depends
//! on the number of connectees — iteration bounds, conditional branches,
//! the identity of the concrete vertices — is retained as a residual tree
//! ([`CompiledNode`]) that [`crate::instantiate()`] walks at run time.
//!
//! The existing approach composes nothing before N is known
//! (Sect. III-B): [`compile_primitives`] keeps the flat definition's tree
//! with every primitive deferred, and the same walk instantiates it.

use reo_automata::simplify::{is_simplified, simplify};
use reo_automata::{product_all, Automaton, IdMap, MemId, Name, PortId, PortSet, ProductOptions};

use crate::affine::{Affine, Sym};
use crate::builtins;
use crate::error::CoreError;
use crate::flat::{flatten, FlatBool, FlatDef, FlatExpr, FlatInst, FlatOperand, FlatRef};
use crate::ir::{Param, PrimRegistry, Program};
use crate::normalize::{normalize, IfNF, NormalForm, ProdNF};

/// A compile-time-composed section: an automaton over symbolic ports.
///
/// Symbolic port `PortId(k)` stands for `sym_ports[k]`; symbolic memory cell
/// `MemId(j)` (for `j < mem_count`) is freshly allocated per instance.
#[derive(Clone, Debug)]
pub struct MediumTemplate {
    pub automaton: Automaton,
    pub sym_ports: Vec<FlatRef>,
    pub mem_count: usize,
}

/// The residual run-time structure (Fig. 10's `connect` method).
#[derive(Clone, Debug)]
pub enum CompiledNode {
    /// Instantiate one medium automaton.
    Medium(MediumTemplate),
    /// A constituent whose shape depends on run-time values (slice operands
    /// or non-constant integer arguments), or any primitive of the existing
    /// approach's template: built directly at instantiation.
    Deferred(FlatInst),
    /// Sequence of parts (the sections of one normal form).
    Seq(Vec<CompiledNode>),
    /// `for var in lo..=hi { body }`.
    For {
        var: Name,
        lo: Affine,
        hi: Affine,
        body: Box<CompiledNode>,
    },
    /// `if cond { then } else { else }`.
    If {
        cond: FlatBool,
        then_branch: Box<CompiledNode>,
        else_branch: Option<Box<CompiledNode>>,
    },
}

impl CompiledNode {
    /// Number of medium templates in the tree (a compile-work metric).
    pub fn template_count(&self) -> usize {
        match self {
            CompiledNode::Medium(_) => 1,
            CompiledNode::Deferred(_) => 0,
            CompiledNode::Seq(parts) => parts.iter().map(Self::template_count).sum(),
            CompiledNode::For { body, .. } => body.template_count(),
            CompiledNode::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.template_count()
                    + else_branch.as_ref().map_or(0, |e| e.template_count())
            }
        }
    }
}

/// The output of parametrized compilation: everything that does not depend
/// on the number of connectees has been done; `instantiate` finishes the job
/// once array lengths are known.
#[derive(Clone, Debug)]
pub struct CompiledConnector {
    pub name: String,
    pub tails: Vec<Param>,
    pub heads: Vec<Param>,
    pub root: CompiledNode,
    pub registry: PrimRegistry,
}

impl CompiledConnector {
    pub fn params(&self) -> impl Iterator<Item = &Param> {
        self.tails.iter().chain(self.heads.iter())
    }

    fn new(flat: FlatDef, root: CompiledNode, program: &Program) -> Self {
        CompiledConnector {
            name: flat.name,
            tails: flat.tails,
            heads: flat.heads,
            root,
            registry: program.registry.clone(),
        }
    }
}

/// Compile `name` with the parametrized (new) approach.
pub fn compile(program: &Program, name: &str) -> Result<CompiledConnector, CoreError> {
    let mut flat = flatten(program, name)?;
    let nf = normalize(flat.take_body());

    // Pre-pass: which local bases are private to exactly one section and
    // indexed injectively by that section's enclosing iteration variables?
    let usage = BaseUsage::analyze(&nf, &flat);

    let mut compiler = Compiler {
        registry: &program.registry,
        usage: &usage,
        next_section: 0,
    };
    let root = compiler.build(nf, &[])?;
    Ok(CompiledConnector::new(flat, root, program))
}

/// Compile `name` with the existing approach: a primitive-level template,
/// the flat definition's tree with every primitive a
/// [`CompiledNode::Deferred`] node, so that nothing is composed before the
/// number of connectees is known.
pub fn compile_primitives(program: &Program, name: &str) -> Result<CompiledConnector, CoreError> {
    fn defer(expr: FlatExpr) -> CompiledNode {
        let boxed = |e: Box<FlatExpr>| Box::new(defer(*e));
        match expr {
            FlatExpr::Inst(inst) => CompiledNode::Deferred(inst),
            FlatExpr::Mult(parts) => CompiledNode::Seq(parts.into_iter().map(defer).collect()),
            FlatExpr::Prod { var, lo, hi, body } => CompiledNode::For {
                var,
                lo,
                hi,
                body: boxed(body),
            },
            FlatExpr::If {
                cond,
                then_branch,
                else_branch,
            } => CompiledNode::If {
                cond,
                then_branch: boxed(then_branch),
                else_branch: else_branch.map(boxed),
            },
        }
    }
    let mut flat = flatten(program, name)?;
    let root = defer(flat.take_body());
    Ok(CompiledConnector::new(flat, root, program))
}

/// Where each vertex base name is used, for hidability analysis.
struct BaseUsage {
    /// base -> (section ids, all index vectors identical?, the one index
    /// vector if identical)
    map: IdMap<Name, UsageEntry>,
    formals: Vec<Name>,
    /// Counter for deferred-constituent pseudo-sections.
    pseudo: usize,
}

struct UsageEntry {
    sections: Vec<usize>,
    uniform_indices: Option<Vec<Affine>>,
    seen_many: bool,
}

impl BaseUsage {
    fn analyze(nf: &NormalForm, flat: &FlatDef) -> Self {
        let mut usage = BaseUsage {
            map: IdMap::default(),
            formals: flat.params().map(|p| Name::new(&p.name)).collect(),
            pseudo: 0,
        };
        let mut next = 0usize;
        usage.visit(nf, &mut next);
        usage
    }

    fn visit(&mut self, nf: &NormalForm, next: &mut usize) {
        let section = *next;
        *next += 1;
        for inst in &nf.insts {
            // Deferred (variable-shape) constituents are built as separate
            // automata at run time, so for hidability they count as a
            // *different* user even though they share the section: give
            // each a fresh pseudo-section id (counted down from the top so
            // real section numbering stays aligned with `Compiler::build`).
            let effective_section = if inst.is_fixed_shape() {
                section
            } else {
                self.pseudo += 1;
                usize::MAX - self.pseudo
            };
            for op in inst.operands() {
                match op {
                    FlatOperand::One(fr) => {
                        self.record(&fr.base, effective_section, Some(&fr.indices))
                    }
                    FlatOperand::Many(sl) => self.record(&sl.base, effective_section, None),
                }
            }
        }
        for p in &nf.prods {
            self.visit(&p.body, next);
        }
        for c in &nf.conds {
            self.visit(&c.then_branch, next);
            if let Some(e) = &c.else_branch {
                self.visit(e, next);
            }
        }
    }

    fn record(&mut self, base: &Name, section: usize, indices: Option<&Vec<Affine>>) {
        let entry = self.map.entry(base.clone()).or_insert_with(|| UsageEntry {
            sections: Vec::new(),
            uniform_indices: indices.cloned(),
            seen_many: false,
        });
        if !entry.sections.contains(&section) {
            entry.sections.push(section);
        }
        match indices {
            None => entry.seen_many = true,
            Some(idx) => {
                if entry.uniform_indices.as_ref() != Some(idx) {
                    entry.uniform_indices = None;
                }
            }
        }
    }

    /// Can `fr`, used in `section` under iteration variables
    /// `enclosing_vars`, be hidden inside that section's medium automaton?
    fn hidable(&self, fr: &FlatRef, section: usize, enclosing_vars: &[Name]) -> bool {
        if self.formals.iter().any(|f| f == &fr.base) {
            return false;
        }
        let Some(entry) = self.map.get(&fr.base) else {
            return false;
        };
        if entry.seen_many || entry.sections.as_slice() != [section] {
            return false;
        }
        let Some(uniform) = &entry.uniform_indices else {
            return false;
        };
        // Distinct iterations must touch distinct vertices: every enclosing
        // variable must appear with coefficient ±1 in some index that
        // mentions no other variable.
        enclosing_vars.iter().all(|v| {
            uniform.iter().any(|idx| {
                idx.terms.len() == 1
                    && matches!(&idx.terms[0], (Sym::Var(w), c) if w == v && c.abs() == 1)
            })
        })
    }
}

struct Compiler<'p> {
    registry: &'p PrimRegistry,
    usage: &'p BaseUsage,
    next_section: usize,
}

impl<'p> Compiler<'p> {
    /// The tree of `nf`, which it consumes: constituents move into
    /// deferred nodes and templates, bounds and conditions into their
    /// nodes.
    fn build(&mut self, nf: NormalForm, enclosing: &[Name]) -> Result<CompiledNode, CoreError> {
        let section = self.next_section;
        self.next_section += 1;

        let mut parts: Vec<CompiledNode> = Vec::new();
        if !nf.insts.is_empty() {
            parts.extend(self.compile_section(nf.insts, section, enclosing)?);
        }
        for ProdNF { var, lo, hi, body } in nf.prods {
            let mut inner = enclosing.to_vec();
            inner.push(var.clone());
            let body = Box::new(self.build(body, &inner)?);
            parts.push(CompiledNode::For { var, lo, hi, body });
        }
        for IfNF {
            cond,
            then_branch,
            else_branch,
        } in nf.conds
        {
            let then_branch = Box::new(self.build(then_branch, enclosing)?);
            let else_branch = match else_branch {
                Some(e) => Some(Box::new(self.build(e, enclosing)?)),
                None => None,
            };
            parts.push(CompiledNode::If {
                cond,
                then_branch,
                else_branch,
            });
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            CompiledNode::Seq(parts)
        })
    }

    /// Compose the fixed-shape constituents of one section into medium
    /// automata; keep variable-shape constituents as deferred nodes.
    ///
    /// Constituents whose symbolic ports *may alias* for some connectee
    /// count (e.g. `m[2]` and `m[#tl]`, equal exactly when `#tl = 2`) must
    /// not be composed at compile time — the composition would silently
    /// miss their synchronization at that count. Such constituents go into
    /// separate templates and are composed at run time like any other
    /// medium automata.
    fn compile_section(
        &mut self,
        insts: Vec<FlatInst>,
        section: usize,
        enclosing: &[Name],
    ) -> Result<Vec<CompiledNode>, CoreError> {
        let mut nodes = Vec::new();
        let mut fixed = Vec::with_capacity(insts.len());
        for inst in insts {
            match inst.is_fixed_shape() {
                true => fixed.push(inst),
                false => nodes.push(CompiledNode::Deferred(inst)),
            }
        }
        let mut groups: Vec<(Vec<&FlatInst>, Vec<&FlatRef>)> = Vec::new();
        for inst in &fixed {
            let refs = || {
                inst.operands().map(|op| match op {
                    FlatOperand::One(fr) => fr,
                    FlatOperand::Many(_) => unreachable!("fixed shape checked"),
                })
            };
            let slot = groups
                .iter()
                .position(|(_, seen)| !refs().any(|r| seen.iter().any(|g| may_alias(r, g))));
            match slot {
                Some(k) => {
                    groups[k].0.push(inst);
                    groups[k].1.extend(refs());
                }
                None => groups.push((vec![inst], refs().collect())),
            }
        }

        for (group, _) in groups {
            nodes.insert(0, self.compile_group(&group, section, enclosing)?);
        }
        Ok(nodes)
    }

    /// Compose one alias-free group into a medium-automaton template.
    fn compile_group(
        &mut self,
        group: &[&FlatInst],
        section: usize,
        enclosing: &[Name],
    ) -> Result<CompiledNode, CoreError> {
        let mut sym_ports: Vec<FlatRef> = Vec::new();
        let mut interner: IdMap<&FlatRef, PortId> = IdMap::default();
        let mut mem_count = 0usize;
        let mut smalls: Vec<Automaton> = Vec::new();

        for &inst in group {
            let mut ports = |ops| sym_ports_of(ops, &mut interner, &mut sym_ports);
            let (tails, heads) = (ports(&inst.tails), ports(&inst.heads));
            let iargs: Vec<i64> = inst
                .iargs
                .iter()
                .map(|a| a.is_constant().expect("fixed shape checked"))
                .collect();
            let mut fresh_mem = || {
                mem_count += 1;
                MemId((mem_count - 1) as u32)
            };
            let automaton = build_prim(
                self.registry,
                &inst.prim,
                &iargs,
                &tails,
                &heads,
                &mut fresh_mem,
            )?;
            smalls.push(automaton);
        }

        // A lone primitive that composition, hiding and compaction would
        // hand back as it is, is its own template.
        if let [only] = smalls.as_slice() {
            if only.ports().len() == sym_ports.len() && is_simplified(only) {
                return Ok(CompiledNode::Medium(MediumTemplate {
                    automaton: smalls.pop().expect("one primitive"),
                    sym_ports,
                    mem_count,
                }));
            }
        }
        let medium = product_all(&smalls, &ProductOptions::default())?;
        // Hide only vertices that are (a) internal to this template (both
        // their writer and reader composed in) and (b) provably unused by
        // any other section, deferred constituent, or task.
        let internals = medium.internals().clone();
        let keep: PortSet = (0..sym_ports.len() as u32)
            .map(PortId)
            .filter(|p| {
                !internals.contains(*p)
                    || !self
                        .usage
                        .hidable(&sym_ports[p.index()], section, enclosing)
            })
            .collect();
        let medium = simplify(&medium, &keep);
        // Compact the symbolic id space to the surviving ports, so that
        // instantiation never materializes a hidden vertex.
        let surviving = medium.ports();
        let mut compact_map = vec![PortId(u32::MAX); sym_ports.len()];
        for (k, p) in surviving.iter().enumerate() {
            compact_map[p.index()] = PortId(k as u32);
        }
        let compact_syms = (sym_ports.into_iter().enumerate())
            .filter(|&(k, _)| compact_map[k] != PortId(u32::MAX))
            .map(|(_, fr)| fr)
            .collect();
        let medium = reo_automata::remap::remap(&medium, &|p| compact_map[p.index()], &|m| m);
        Ok(CompiledNode::Medium(MediumTemplate {
            automaton: medium,
            sym_ports: compact_syms,
            mem_count,
        }))
    }
}

/// The symbolic ports of fixed-shape operands, each new vertex numbered in
/// order of first use.
fn sym_ports_of<'g>(
    ops: &'g [FlatOperand],
    interner: &mut IdMap<&'g FlatRef, PortId>,
    sym_ports: &mut Vec<FlatRef>,
) -> Vec<PortId> {
    let mut port = |op: &'g FlatOperand| {
        let FlatOperand::One(fr) = op else {
            unreachable!("fixed shape checked")
        };
        *interner.entry(fr).or_insert_with(|| {
            sym_ports.push(fr.clone());
            PortId((sym_ports.len() - 1) as u32)
        })
    };
    ops.iter().map(&mut port).collect()
}

/// Could `a` and `b` denote the same vertex for *some* assignment of
/// lengths and iteration variables? (Distinct references within one
/// compile-time composition group would then be unsound.)
fn may_alias(a: &FlatRef, b: &FlatRef) -> bool {
    if a.base != b.base || a.indices == b.indices {
        return false; // different vertex families, or literally the same port
    }
    if a.indices.len() != b.indices.len() {
        return true; // malformed mixing; be conservative
    }
    // They cannot alias iff some dimension differs by a provably nonzero
    // constant.
    !a.indices
        .iter()
        .zip(&b.indices)
        .any(|(x, y)| matches!(x.sub(y).is_constant(), Some(c) if c != 0))
}

/// Build a primitive — builtin or custom — for the given ports.
pub(crate) fn build_prim(
    registry: &PrimRegistry,
    name: &str,
    iargs: &[i64],
    tails: &[PortId],
    heads: &[PortId],
    fresh_mem: &mut dyn FnMut() -> MemId,
) -> Result<Automaton, CoreError> {
    // Two operands resolving to one concrete port (`Fifo(m;m)`) would make
    // the primitive unsound — its input and output sets must be disjoint —
    // so refuse exactly as `stamp` does for compile-time-composed sections.
    let mut seen = std::collections::HashSet::new();
    for p in tails.iter().chain(heads) {
        if !seen.insert(*p) {
            return Err(CoreError::AliasedPorts {
                section: name.to_string(),
                port: p.to_string(),
            });
        }
    }
    if let Some(kind) = builtins::lookup(name) {
        return builtins::build(name, kind, iargs, tails, heads, fresh_mem);
    }
    if let Some(custom) = registry.get(name) {
        if !custom.tails.admits(tails.len()) || !custom.heads.admits(heads.len()) {
            return Err(CoreError::ArityMismatch {
                name: name.to_string(),
                expected: format!("({:?};{:?})", custom.tails, custom.heads),
                got: format!("({};{})", tails.len(), heads.len()),
            });
        }
        return Ok((custom.build)(tails, heads, fresh_mem));
    }
    Err(CoreError::UnknownPrimitive(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    #[test]
    fn ex11a_compiles_to_one_medium() {
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11a").unwrap();
        assert_eq!(cc.root.template_count(), 1);
        match &cc.root {
            CompiledNode::Medium(m) => {
                // All 8 constituents composed; v/w vertices hidden, so the
                // symbolic interface keeps tl1,tl2,hd1,hd2,prev*,next* = 8,
                // of which prev/next remain internal-but-kept?  No — prev/
                // next are used only in this section too, so only the four
                // formals remain on transitions.
                assert!(m.sym_ports.len() >= 4);
                assert_eq!(m.mem_count, 2);
            }
            other => panic!("expected medium, got {other:?}"),
        }
    }

    #[test]
    fn ex11n_mirrors_fig10_structure() {
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11N").unwrap();
        // Fig. 10: if (N == 1) { Automaton1 } else { Automaton2 + for
        // Automaton3 + for Automaton4 }.
        match &cc.root {
            CompiledNode::If {
                then_branch,
                else_branch,
                ..
            } => {
                match then_branch.as_ref() {
                    CompiledNode::Medium(m) => assert_eq!(m.mem_count, 1),
                    other => panic!("then: expected medium, got {other:?}"),
                }
                match else_branch.as_deref().unwrap() {
                    CompiledNode::Seq(parts) => {
                        assert_eq!(parts.len(), 3);
                        assert!(matches!(parts[0], CompiledNode::Medium(_)));
                        assert!(matches!(parts[1], CompiledNode::For { .. }));
                        assert!(matches!(parts[2], CompiledNode::For { .. }));
                    }
                    other => panic!("else: expected seq, got {other:?}"),
                }
            }
            other => panic!("expected if, got {other:?}"),
        }
        assert_eq!(cc.root.template_count(), 4);
    }

    #[test]
    fn x_section_hides_its_private_vertices() {
        // Inside ConnectorEx11N's X-iteration, v and w are private to the
        // section; the medium automaton's transitions must not mention them.
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11N").unwrap();
        let CompiledNode::If { else_branch, .. } = &cc.root else {
            panic!("expected if");
        };
        let CompiledNode::Seq(parts) = else_branch.as_deref().unwrap() else {
            panic!("expected seq");
        };
        let CompiledNode::For { body, .. } = &parts[1] else {
            panic!("expected for");
        };
        let CompiledNode::Medium(m) = body.as_ref() else {
            panic!("expected medium");
        };
        // X = Repl2 x Fifo1 x Repl2 composed: 2 states.
        assert_eq!(m.automaton.state_count(), 2);
        // Kept ports: tl[i], prev[i], next[i], hd[i] — v,w hidden.
        let mentioned: std::collections::HashSet<_> = m
            .automaton
            .all_states()
            .flat_map(|s| m.automaton.transitions_from(s))
            .flat_map(|t| t.sync.iter())
            .collect();
        for p in &mentioned {
            let base = &m.sym_ports[p.index()].base;
            assert!(
                !base.starts_with("v~") && !base.starts_with("w~"),
                "private vertex {base} still on a label"
            );
        }
    }

    #[test]
    fn no_parameters_means_single_template_per_section() {
        // A degenerate program: one sync. One medium, no residual control.
        use crate::ir::*;
        let def = ConnectorDef {
            name: "Just".into(),
            tails: vec![Param::scalar("a")],
            heads: vec![Param::scalar("b")],
            body: CExpr::Inst(Inst::new(
                "Sync",
                vec![PortRef::name("a")],
                vec![PortRef::name("b")],
            )),
        };
        let cc = compile(&Program::new(vec![def]), "Just").unwrap();
        assert!(matches!(cc.root, CompiledNode::Medium(_)));
    }
}

//! Resolution of flat port references to concrete ports at run time.
//!
//! Formal parameters resolve into the port arrays supplied by `connect`;
//! local vertex names resolve into fresh ports, allocated once per distinct
//! concrete index vector (this is what makes `prod`-replicated constituents
//! share exactly the vertices their index expressions say they share).
//!
//! Nothing is allocated per lookup. A resolver is built once per
//! instantiation, with a table of the formals by name; a reference's
//! indices are evaluated into one scratch vector, and a new local copies
//! them to the end of one arena: a local is its name, its run of that
//! arena and its port, found through [`Buckets`].

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::ops::Range;

use reo_automata::{Buckets, IdHasher, IdMap, Name, PortAllocator, PortId};

use crate::affine::{Affine, Env};
use crate::error::CoreError;
use crate::flat::{FlatOperand, FlatRef, FlatSlice};

/// Maps formal parameter names to the caller-supplied concrete ports.
/// Scalar parameters are singleton arrays.
pub type Binding = HashMap<String, Vec<PortId>>;

/// Build the evaluation environment induced by a binding: `#array` is the
/// supplied array's length.
pub fn env_from_binding(binding: &Binding) -> Env {
    let mut env = Env::new();
    for (name, ports) in binding {
        env.set_len(name, ports.len() as i64);
    }
    env
}

/// Run-time resolver: formals via the binding, locals via a memo table.
pub struct Resolver<'a> {
    formals: IdMap<Name, &'a [PortId]>,
    alloc: &'a mut PortAllocator,
    /// One entry per local vertex: its name, its run of `indices` and its
    /// port, found through `index` by a hash of name and indices.
    locals: Vec<(Name, Range<usize>, PortId)>,
    indices: Vec<i64>,
    index: Buckets,
    /// The indices of the reference being resolved.
    at: Vec<i64>,
}

impl<'a> Resolver<'a> {
    pub fn new(binding: &'a Binding, alloc: &'a mut PortAllocator) -> Self {
        let formals = binding
            .iter()
            .map(|(name, ports)| (Name::new(name), &ports[..]));
        Self {
            formals: formals.collect(),
            alloc,
            locals: Vec::new(),
            indices: Vec::new(),
            index: Buckets::default(),
            at: Vec::new(),
        }
    }

    pub fn alloc(&mut self) -> &mut PortAllocator {
        self.alloc
    }

    /// Resolve a single-vertex reference.
    pub fn resolve_one(&mut self, fr: &FlatRef, env: &Env) -> Result<PortId, CoreError> {
        self.resolve(&fr.base, None, &fr.indices, env)
    }

    /// The port of `base[first, rest…]` (`first` left out when `None`).
    fn resolve(
        &mut self,
        base: &Name,
        first: Option<i64>,
        rest: &[Affine],
        env: &Env,
    ) -> Result<PortId, CoreError> {
        self.at.clear();
        self.at.extend(first);
        for a in rest {
            self.at.push(a.eval(env)?);
        }
        if let Some(ports) = self.formals.get(base) {
            return formal(base, ports, &self.at);
        }
        let hash = BuildHasherDefault::<IdHasher>::default().hash_one((base, &self.at));
        let same = |&k: &usize| {
            let (name, run, _) = &self.locals[k];
            name == base && self.indices[run.clone()] == self.at
        };
        if let Some(k) = self.index.under(hash).find(same) {
            return Ok(self.locals[k].2);
        }
        let port = self.alloc.fresh_port();
        let run = self.indices.len()..self.indices.len() + self.at.len();
        self.indices.extend_from_slice(&self.at);
        self.locals.push((base.clone(), run, port));
        self.index.push(hash);
        Ok(port)
    }

    /// Resolve a slice to its element ports, in order.
    pub fn resolve_slice(&mut self, sl: &FlatSlice, env: &Env) -> Result<Vec<PortId>, CoreError> {
        let lo = sl.lo.eval(env)?;
        let hi = sl.hi.eval(env)?;
        if hi < lo {
            return Err(CoreError::EmptyArray(sl.base.to_string()));
        }
        // Bound the length *before* allocating: an adversarial constant
        // range (`a[1..4e14]`) must become a typed error, not an
        // allocation-failure abort no `catch_unwind` can stop. Bound
        // bases are checked against the binding; unbound (local-vertex)
        // slices fall back to the instantiation work budget.
        let len = hi
            .checked_sub(lo)
            .and_then(|d| d.checked_add(1))
            .ok_or_else(|| CoreError::IndexOverflow(format!("{}[{lo}..{hi}]", sl.base)))?;
        if let Some(ports) = self.formals.get(&sl.base) {
            if lo < 1 || hi > ports.len() as i64 {
                return Err(CoreError::IndexOutOfBounds {
                    name: sl.base.to_string(),
                    index: if lo < 1 { lo } else { hi },
                    len: ports.len() as i64,
                });
            }
        } else if len as u128 > crate::instantiate::INSTANTIATION_BUDGET as u128 {
            return Err(CoreError::InstantiationBudget {
                budget: crate::instantiate::INSTANTIATION_BUDGET,
            });
        }
        let mut out = Vec::with_capacity(len as usize);
        for k in lo..=hi {
            out.push(self.resolve(&sl.base, Some(k), &sl.suffix, env)?);
        }
        Ok(out)
    }

    /// Resolve an operand to its (one or more) ports.
    pub fn resolve_operand(
        &mut self,
        op: &FlatOperand,
        env: &Env,
    ) -> Result<Vec<PortId>, CoreError> {
        match op {
            FlatOperand::One(fr) => Ok(vec![self.resolve_one(fr, env)?]),
            FlatOperand::Many(sl) => self.resolve_slice(sl, env),
        }
    }
}

/// The port of formal `name[at]` among `ports` (1-based; a scalar formal
/// is one port, indexed by nothing).
fn formal(name: &Name, ports: &[PortId], at: &[i64]) -> Result<PortId, CoreError> {
    match *at {
        [] if ports.len() == 1 => Ok(ports[0]),
        [k] if k < 1 || k > ports.len() as i64 => Err(CoreError::IndexOutOfBounds {
            name: name.to_string(),
            index: k,
            len: ports.len() as i64,
        }),
        [k] => Ok(ports[(k - 1) as usize]),
        _ => Err(CoreError::KindMismatch {
            name: name.to_string(),
            expected_array: false,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Sym;

    fn fr(base: &str, idx: &[i64]) -> FlatRef {
        FlatRef {
            base: base.into(),
            indices: idx.iter().map(|&k| Affine::constant(k)).collect(),
        }
    }

    #[test]
    fn formals_resolve_into_binding_one_based() {
        let mut alloc = PortAllocator::new();
        let ports = alloc.fresh_ports(3);
        let binding: Binding = [("tl".to_string(), ports.clone())].into();
        let env = env_from_binding(&binding);
        let mut r = Resolver::new(&binding, &mut alloc);
        assert_eq!(r.resolve_one(&fr("tl", &[1]), &env).unwrap(), ports[0]);
        assert_eq!(r.resolve_one(&fr("tl", &[3]), &env).unwrap(), ports[2]);
        assert!(matches!(
            r.resolve_one(&fr("tl", &[0]), &env),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            r.resolve_one(&fr("tl", &[4]), &env),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn locals_memoized_per_index_vector() {
        let mut alloc = PortAllocator::new();
        let binding: Binding = Binding::new();
        let env = Env::new();
        let mut r = Resolver::new(&binding, &mut alloc);
        let a = r.resolve_one(&fr("v~1", &[1]), &env).unwrap();
        let b = r.resolve_one(&fr("v~1", &[2]), &env).unwrap();
        let a2 = r.resolve_one(&fr("v~1", &[1]), &env).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, a2);
        assert_eq!(alloc.port_count(), 2);
    }

    #[test]
    fn env_exposes_lengths() {
        let mut alloc = PortAllocator::new();
        let binding: Binding = [("tl".to_string(), alloc.fresh_ports(5))].into();
        let env = env_from_binding(&binding);
        let len = Affine {
            constant: 0,
            terms: vec![(Sym::Len("tl".into()), 1)],
        };
        assert_eq!(len.eval(&env).unwrap(), 5);
    }

    #[test]
    fn adversarial_slice_lengths_refuse_before_allocating() {
        let mut alloc = PortAllocator::new();
        let binding: Binding = [("out".to_string(), alloc.fresh_ports(4))].into();
        let env = env_from_binding(&binding);
        let mut r = Resolver::new(&binding, &mut alloc);
        let slice = |base: &str, lo: i64, hi: i64| FlatSlice {
            base: base.into(),
            lo: Affine::constant(lo),
            hi: Affine::constant(hi),
            suffix: vec![],
        };
        // Bound base: checked against the binding, eagerly.
        assert!(matches!(
            r.resolve_slice(&slice("out", 1, 400_000_000_000_000), &env),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
        // Unbound (local-vertex) base: capped by the work budget — the
        // fuzzer aborted the whole process on a ~4e14-element
        // `with_capacity` here before this check existed.
        assert!(matches!(
            r.resolve_slice(&slice("m", 1, 400_000_000_000_000), &env),
            Err(CoreError::InstantiationBudget { .. })
        ));
        // hi - lo + 1 itself can overflow i64.
        assert!(matches!(
            r.resolve_slice(&slice("m", i64::MIN + 1, i64::MAX), &env),
            Err(CoreError::IndexOverflow(_))
        ));
    }

    #[test]
    fn slices_expand_in_order() {
        let mut alloc = PortAllocator::new();
        let ports = alloc.fresh_ports(4);
        let binding: Binding = [("out".to_string(), ports.clone())].into();
        let env = env_from_binding(&binding);
        let mut r = Resolver::new(&binding, &mut alloc);
        let sl = FlatSlice {
            base: "out".into(),
            lo: Affine::constant(2),
            hi: Affine::constant(4),
            suffix: vec![],
        };
        let got = r.resolve_slice(&sl, &env).unwrap();
        assert_eq!(got, vec![ports[1], ports[2], ports[3]]);
    }
}

//! Affine canonicalization of index expressions.
//!
//! Parametrized compilation must decide, *symbolically*, when two port
//! references denote the same vertex — e.g. `prev[i]` in one constituent and
//! `prev[i]` in another must be composed through the same symbolic port,
//! while `prev[i+1]` must not. Index expressions are canonicalized to the
//! affine form `c₀ + Σ cₖ·symₖ` (symbols are iteration variables and array
//! lengths); syntactic equality on canonical forms then decides unification.
//!
//! Non-affine indices (products of two symbols) are rejected at compile
//! time — the paper's syntax never produces them. Forms add and subtract
//! by one merge of their sorted term lists.

use std::fmt;

use reo_automata::{IdMap, Name};

use crate::error::CoreError;
use crate::ir::{BExpr, IExpr};

/// A symbol occurring in an affine form.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sym {
    /// Iteration variable or `main` parameter.
    Var(Name),
    /// `#array` length.
    Len(Name),
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::Var(v) => write!(f, "{v}"),
            Sym::Len(a) => write!(f, "#{a}"),
        }
    }
}

/// Canonical affine form: constant + Σ coeff·sym (zero coeffs dropped,
/// symbols sorted). Two index expressions denote the same value for every
/// environment iff their affine forms are equal.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Affine {
    pub constant: i64,
    /// Sorted by symbol; never contains zero coefficients.
    pub terms: Vec<(Sym, i64)>,
}

impl Affine {
    pub fn constant(c: i64) -> Self {
        Self {
            constant: c,
            terms: Vec::new(),
        }
    }

    pub fn var(name: &str) -> Self {
        Self {
            constant: 0,
            terms: vec![(Sym::Var(name.into()), 1)],
        }
    }

    pub fn is_constant(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.constant)
    }

    // Canonicalization arithmetic wraps on overflow: coefficients are
    // compile-time symbols, so wrapping keeps canonical forms total and
    // deterministic (identical in debug and release) on adversarial
    // constants; any *concrete* number that reaches a range or index goes
    // through the checked [`Affine::eval`]/[`Env::eval`] instead.
    //
    // `self + sign·other` is one merge of the two sorted term lists.
    fn combine(&self, other: &Affine, sign: i64) -> Affine {
        let (a, b) = (&self.terms, &other.terms);
        let (mut i, mut j) = (0, 0);
        let mut terms = Vec::with_capacity(a.len() + b.len());
        while i < a.len() || j < b.len() {
            let ((sym, c), (di, dj)) = match (a.get(i), b.get(j)) {
                (Some((x, c)), Some((y, d))) if x == y => {
                    ((x, c.wrapping_add(sign.wrapping_mul(*d))), (1, 1))
                }
                (Some((x, c)), Some((y, _))) if x < y => ((x, *c), (1, 0)),
                (Some((x, c)), None) => ((x, *c), (1, 0)),
                (_, Some((y, d))) => ((y, sign.wrapping_mul(*d)), (0, 1)),
                (None, None) => unreachable!("one list has a term left"),
            };
            (i, j) = (i + di, j + dj);
            if c != 0 {
                terms.push((sym.clone(), c));
            }
        }
        Affine {
            constant: self
                .constant
                .wrapping_add(sign.wrapping_mul(other.constant)),
            terms,
        }
    }

    pub fn add(&self, other: &Affine) -> Affine {
        self.combine(other, 1)
    }

    pub fn sub(&self, other: &Affine) -> Affine {
        self.combine(other, -1)
    }

    pub fn scale(&self, k: i64) -> Affine {
        Affine {
            constant: self.constant.wrapping_mul(k),
            terms: self
                .terms
                .iter()
                .map(|(s, c)| (s.clone(), c.wrapping_mul(k)))
                .filter(|(_, c)| *c != 0)
                .collect(),
        }
    }

    /// Evaluate under an environment binding every symbol. Overflow is a
    /// typed error, not a panic: concrete results feed `prod` ranges and
    /// array indices.
    pub fn eval(&self, env: &Env) -> Result<i64, CoreError> {
        let mut acc = self.constant;
        for (sym, coeff) in &self.terms {
            let v = env.lookup(sym)?;
            acc = coeff
                .checked_mul(v)
                .and_then(|t| acc.checked_add(t))
                .ok_or_else(|| CoreError::IndexOverflow(self.to_string()))?;
        }
        Ok(acc)
    }

    /// Substitute a symbol by another affine form (used when binding formal
    /// array lengths to actual slice widths during flattening).
    pub fn substitute(&self, sym: &Sym, replacement: &Affine) -> Affine {
        let mut out = Affine::constant(self.constant);
        for (s, c) in &self.terms {
            if s == sym {
                out = out.add(&replacement.scale(*c));
            } else {
                out = out.add(&Affine {
                    constant: 0,
                    terms: vec![(s.clone(), *c)],
                });
            }
        }
        out
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "{}", self.constant);
        }
        let mut first = true;
        if self.constant != 0 {
            write!(f, "{}", self.constant)?;
            first = false;
        }
        for (sym, c) in &self.terms {
            if first {
                if *c == 1 {
                    write!(f, "{sym}")?;
                } else if *c == -1 {
                    write!(f, "-{sym}")?;
                } else {
                    write!(f, "{c}{sym}")?;
                }
                first = false;
            } else if *c == 1 {
                write!(f, "+{sym}")?;
            } else if *c == -1 {
                write!(f, "-{sym}")?;
            } else if *c > 0 {
                write!(f, "+{c}{sym}")?;
            } else {
                write!(f, "{c}{sym}")?;
            }
        }
        Ok(())
    }
}

/// Canonicalize an index expression to affine form.
pub fn canon(e: &IExpr) -> Result<Affine, CoreError> {
    match e {
        IExpr::Const(c) => Ok(Affine::constant(*c)),
        IExpr::Var(v) => Ok(Affine {
            constant: 0,
            terms: vec![(Sym::Var(v.clone()), 1)],
        }),
        IExpr::Len(a) => Ok(Affine {
            constant: 0,
            terms: vec![(Sym::Len(a.clone()), 1)],
        }),
        IExpr::Add(a, b) => Ok(canon(a)?.add(&canon(b)?)),
        IExpr::Sub(a, b) => Ok(canon(a)?.sub(&canon(b)?)),
        IExpr::Mul(a, b) => {
            let fa = canon(a)?;
            let fb = canon(b)?;
            if let Some(c) = fa.is_constant() {
                Ok(fb.scale(c))
            } else if let Some(c) = fb.is_constant() {
                Ok(fa.scale(c))
            } else {
                Err(CoreError::NonAffineIndex(e.to_string()))
            }
        }
    }
}

/// An evaluation environment: values for iteration variables / parameters
/// and lengths for array parameters.
#[derive(Clone, Debug, Default)]
pub struct Env {
    vars: IdMap<Name, i64>,
    lens: IdMap<Name, i64>,
}

impl Env {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_var(mut self, name: &str, v: i64) -> Self {
        self.set_var(name, v);
        self
    }

    pub fn with_len(mut self, name: &str, v: i64) -> Self {
        self.set_len(name, v);
        self
    }

    pub fn set_var(&mut self, name: &str, v: i64) {
        self.vars.insert(name.into(), v);
    }

    pub fn remove_var(&mut self, name: &str) {
        self.vars.remove(name);
    }

    pub fn set_len(&mut self, name: &str, v: i64) {
        self.lens.insert(name.into(), v);
    }

    pub fn lookup(&self, sym: &Sym) -> Result<i64, CoreError> {
        match sym {
            Sym::Var(v) => self
                .vars
                .get(v)
                .copied()
                .ok_or_else(|| CoreError::UnboundVar(v.to_string())),
            Sym::Len(a) => self
                .lens
                .get(a)
                .copied()
                .ok_or_else(|| CoreError::UnboundLen(a.to_string())),
        }
    }

    /// Evaluate an index expression directly. Overflow is a typed error,
    /// not a panic (adversarial sources multiply near-`i64::MAX` literals).
    pub fn eval(&self, e: &IExpr) -> Result<i64, CoreError> {
        let overflow = || CoreError::IndexOverflow(e.to_string());
        match e {
            IExpr::Const(c) => Ok(*c),
            IExpr::Var(v) => self.lookup(&Sym::Var(v.clone())),
            IExpr::Len(a) => self.lookup(&Sym::Len(a.clone())),
            IExpr::Add(a, b) => self
                .eval(a)?
                .checked_add(self.eval(b)?)
                .ok_or_else(overflow),
            IExpr::Sub(a, b) => self
                .eval(a)?
                .checked_sub(self.eval(b)?)
                .ok_or_else(overflow),
            IExpr::Mul(a, b) => self
                .eval(a)?
                .checked_mul(self.eval(b)?)
                .ok_or_else(overflow),
        }
    }

    /// Evaluate a boolean condition.
    pub fn eval_bool(&self, e: &BExpr) -> Result<bool, CoreError> {
        match e {
            BExpr::Cmp(op, a, b) => Ok(op.holds(self.eval(a)?, self.eval(b)?)),
            BExpr::And(a, b) => Ok(self.eval_bool(a)? && self.eval_bool(b)?),
            BExpr::Or(a, b) => Ok(self.eval_bool(a)? || self.eval_bool(b)?),
            BExpr::Not(a) => Ok(!self.eval_bool(a)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_forms_identify_equal_indices() {
        // i + 1 == 1 + i
        let a = canon(&(IExpr::var("i") + IExpr::Const(1))).unwrap();
        let b = canon(&(IExpr::Const(1) + IExpr::var("i"))).unwrap();
        assert_eq!(a, b);
        // i + 1 != i
        let c = canon(&IExpr::var("i")).unwrap();
        assert_ne!(a, c);
        // (#tl - 1) + 1 == #tl
        let d = canon(&(IExpr::len("tl") - IExpr::Const(1) + IExpr::Const(1))).unwrap();
        assert_eq!(d, canon(&IExpr::len("tl")).unwrap());
    }

    #[test]
    fn cancellation_drops_zero_coefficients() {
        // i - i == 0
        let z = canon(&(IExpr::var("i") - IExpr::var("i"))).unwrap();
        assert_eq!(z.is_constant(), Some(0));
    }

    #[test]
    fn multiplication_by_constant_is_affine() {
        let e = IExpr::Mul(Box::new(IExpr::Const(2)), Box::new(IExpr::var("i")));
        let a = canon(&e).unwrap();
        assert_eq!(a.terms, vec![(Sym::Var("i".into()), 2)]);
    }

    #[test]
    fn non_affine_rejected() {
        let e = IExpr::Mul(Box::new(IExpr::var("i")), Box::new(IExpr::var("j")));
        assert!(matches!(canon(&e), Err(CoreError::NonAffineIndex(_))));
    }

    #[test]
    fn eval_under_env() {
        let env = Env::new().with_var("i", 3).with_len("tl", 8);
        let a = canon(&(IExpr::len("tl") - IExpr::var("i"))).unwrap();
        assert_eq!(a.eval(&env).unwrap(), 5);
        let missing = canon(&IExpr::var("zzz")).unwrap();
        assert!(missing.eval(&env).is_err());
    }

    #[test]
    fn substitution_rebinds_lengths() {
        // #tl with tl bound to a slice of width (b - a + 1).
        let f = canon(&IExpr::len("tl")).unwrap();
        let width = canon(&(IExpr::var("b") - IExpr::var("a") + IExpr::Const(1))).unwrap();
        let g = f.substitute(&Sym::Len("tl".into()), &width);
        let env = Env::new().with_var("a", 2).with_var("b", 5);
        assert_eq!(g.eval(&env).unwrap(), 4);
    }

    #[test]
    fn overflow_is_a_typed_error_not_a_panic() {
        // Concrete evaluation: checked arithmetic surfaces IndexOverflow.
        let env = Env::new().with_var("i", 2);
        let e = IExpr::Mul(Box::new(IExpr::Const(i64::MAX)), Box::new(IExpr::var("i")));
        assert!(matches!(env.eval(&e), Err(CoreError::IndexOverflow(_))));
        let a = canon(&e).unwrap();
        assert!(matches!(a.eval(&env), Err(CoreError::IndexOverflow(_))));
        // Canonicalization itself stays total on adversarial constants
        // (wrapping, identical in debug and release).
        let wrap = canon(&(IExpr::Const(i64::MAX) + IExpr::Const(1))).unwrap();
        assert_eq!(wrap.is_constant(), Some(i64::MIN));
    }

    #[test]
    fn bool_eval() {
        let env = Env::new().with_len("tl", 1);
        let cond = BExpr::Cmp(Cmp::Eq, IExpr::len("tl"), IExpr::Const(1));
        assert!(env.eval_bool(&cond).unwrap());
        let not = BExpr::Not(Box::new(cond));
        assert!(!env.eval_bool(&not).unwrap());
    }

    /// `Affine::combine` against the sorted-map sum it replaced, on
    /// random sorted term lists over few symbols, so that terms collide and
    /// cancel.
    #[test]
    fn merging_term_lists_is_the_sorted_map_sum() {
        use std::collections::BTreeMap;
        let reference = |a: &Affine, b: &Affine, sign: i64| {
            let mut map: BTreeMap<Sym, i64> = a.terms.iter().cloned().collect();
            for (sym, c) in &b.terms {
                let e = map.entry(sym.clone()).or_insert(0);
                *e = e.wrapping_add(sign.wrapping_mul(*c));
            }
            let terms = map.into_iter().filter(|(_, c)| *c != 0).collect();
            let constant = a.constant.wrapping_add(sign.wrapping_mul(b.constant));
            Affine { constant, terms }
        };
        fn next(seed: &mut u64, n: u64) -> u64 {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed % n
        }
        let syms = [
            Sym::Var("i".into()),
            Sym::Var("j".into()),
            Sym::Len("tl".into()),
        ];
        let random = |seed: &mut u64| {
            let mut terms = Vec::new();
            for sym in &syms {
                let c = next(seed, 5) as i64 - 2;
                if next(seed, 2) == 0 && c != 0 {
                    terms.push((sym.clone(), c));
                }
            }
            if next(seed, 8) == 0 {
                terms = vec![(syms[0].clone(), i64::MAX)]; // wraps
            }
            Affine {
                constant: next(seed, 7) as i64 - 3,
                terms,
            }
        };
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let (mut cancelled, mut cases) = (0, 0);
        while cases < 2000 {
            let (a, b) = (random(&mut seed), random(&mut seed));
            for (sign, got) in [(1, a.add(&b)), (-1, a.sub(&b))] {
                assert_eq!(got, reference(&a, &b, sign), "{a} {sign:+} ({b})");
                cancelled += usize::from(got.terms.len() < a.terms.len().max(b.terms.len()));
            }
            cases += 1;
        }
        assert!(cancelled > 100, "only {cancelled} cases cancelled a term");
    }

    use crate::ir::Cmp;
}

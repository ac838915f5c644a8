//! NPB workload classes.
//!
//! CG classes S/W/A/B/C use the official NPB parameters and verification
//! values. The container this reproduction runs on cannot finish reference
//! class C in reasonable time, so the Fig. 13 "size C" column is regenerated
//! with `CgClass::c_scaled()` — class-A problem size with class-C-style
//! iteration weight. The LU substitute (SSOR wavefront on a 2-D Poisson
//! system) defines its own grid classes.

/// One CG workload class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CgClass {
    pub name: &'static str,
    /// Matrix dimension.
    pub na: usize,
    /// Nonzeros per generated sparse vector.
    pub nonzer: usize,
    /// Outer (power-method) iterations.
    pub niter: usize,
    /// Eigenvalue shift.
    pub shift: f64,
    /// Official zeta to verify against (absent for scaled classes).
    pub zeta_verify: Option<f64>,
}

impl CgClass {
    pub const S: CgClass = CgClass {
        name: "S",
        na: 1400,
        nonzer: 7,
        niter: 15,
        shift: 10.0,
        zeta_verify: Some(8.5971775078648),
    };

    pub const W: CgClass = CgClass {
        name: "W",
        na: 7000,
        nonzer: 8,
        niter: 15,
        shift: 12.0,
        zeta_verify: Some(10.362595087124),
    };

    pub const A: CgClass = CgClass {
        name: "A",
        na: 14000,
        nonzer: 11,
        niter: 15,
        shift: 20.0,
        zeta_verify: Some(17.130235054029),
    };

    pub const B: CgClass = CgClass {
        name: "B",
        na: 75000,
        nonzer: 13,
        niter: 75,
        shift: 60.0,
        zeta_verify: Some(22.712745482631),
    };

    pub const C: CgClass = CgClass {
        name: "C",
        na: 150000,
        nonzer: 15,
        niter: 75,
        shift: 110.0,
        zeta_verify: Some(28.973605592845),
    };

    /// The Fig. 13 "size C" substitute: large enough that task compute
    /// dominates connector overhead.
    pub fn c_scaled() -> CgClass {
        CgClass {
            name: "C-scaled",
            na: 14000,
            nonzer: 11,
            niter: 25,
            shift: 20.0,
            zeta_verify: None,
        }
    }

    pub fn by_name(name: &str) -> Option<CgClass> {
        match name {
            "S" => Some(Self::S),
            "W" => Some(Self::W),
            "A" => Some(Self::A),
            "B" => Some(Self::B),
            "C" => Some(Self::C),
            "C-scaled" | "c" | "c_scaled" => Some(Self::c_scaled()),
            _ => None,
        }
    }

    /// NPB verification tolerance.
    pub const EPSILON: f64 = 1.0e-10;
}

/// One LU (SSOR-wavefront substitute) workload class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LuClass {
    pub name: &'static str,
    /// Grid is `nx` × `ny`.
    pub nx: usize,
    pub ny: usize,
    /// SSOR iterations.
    pub itmax: usize,
    /// Relaxation factor.
    pub omega: f64,
    /// Pipeline block width (columns exchanged per wavefront message).
    pub jblock: usize,
}

impl LuClass {
    pub const S: LuClass = LuClass {
        name: "S",
        nx: 33,
        ny: 33,
        itmax: 50,
        omega: 1.2,
        jblock: 8,
    };

    pub const W: LuClass = LuClass {
        name: "W",
        nx: 64,
        ny: 64,
        itmax: 100,
        omega: 1.2,
        jblock: 16,
    };

    pub const A: LuClass = LuClass {
        name: "A",
        nx: 128,
        ny: 128,
        itmax: 150,
        omega: 1.2,
        jblock: 16,
    };

    /// The Fig. 13 "size C" substitute.
    pub fn c_scaled() -> LuClass {
        LuClass {
            name: "C-scaled",
            nx: 384,
            ny: 384,
            itmax: 150,
            omega: 1.2,
            jblock: 32,
        }
    }

    pub fn by_name(name: &str) -> Option<LuClass> {
        match name {
            "S" => Some(Self::S),
            "W" => Some(Self::W),
            "A" => Some(Self::A),
            "C-scaled" | "c" | "c_scaled" => Some(Self::c_scaled()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn official_classes_carry_verification_values() {
        for class in [CgClass::S, CgClass::W, CgClass::A, CgClass::B, CgClass::C] {
            assert!(class.zeta_verify.is_some(), "{}", class.name);
        }
        assert!(CgClass::c_scaled().zeta_verify.is_none());
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(CgClass::by_name("S"), Some(CgClass::S));
        assert_eq!(CgClass::by_name("C-scaled"), Some(CgClass::c_scaled()));
        assert_eq!(CgClass::by_name("Z"), None);
        assert_eq!(LuClass::by_name("A"), Some(LuClass::A));
    }

    #[test]
    fn lu_blocks_divide_reasonably() {
        for class in [LuClass::S, LuClass::W, LuClass::A, LuClass::c_scaled()] {
            assert!(class.jblock >= 1 && class.jblock < class.ny);
        }
    }
}

//! The one table of fixed op counts. Every measured phase is a fixed
//! number of ops, so counters repeat exactly from run to run; the counts
//! are chosen so that a run at `--seconds 15` measures for about 15 s in
//! total, 3 s per epoch, spread over the workload's cells, and ends within
//! 20 s with its five set-ups.
//!
//! `measured` is per epoch at `--seconds 15` and scales with `--seconds`;
//! `warmup` is set-up work and does not. `--quick` divides both by 100.
//! Beside each entry: what the cell's set-up and the measured phase of
//! one epoch took on the 2-core reference host, as run (interference
//! included, mean of five epochs).

pub struct Size {
    pub workload: &'static str,
    pub cell: &'static str,
    pub warmup: u64,
    pub measured: u64,
}

const fn size(workload: &'static str, cell: &'static str, warmup: u64, measured: u64) -> Size {
    Size {
        workload,
        cell,
        warmup,
        measured,
    }
}

#[rustfmt::skip]
pub const TABLE: &[Size] = &[
    //                                warm-up   measured     set-up  measured phase
    size("handoff", "merger8",          40_000,   225_000), // 0.36 s   1.98 s
    size("handoff", "sequencer4",       40_000,   300_000), // 0.13 s   1.06 s
    // The same connector driven by one thread with polls; the difference
    // to `merger8` is `runtime.engine.wake_ns` (traced run only).
    size("handoff", "merger8.poll",     20_000,   200_000), // 0.03 s   0.25 s
    size("links", "relay8",             30_000,   300_000), // 0.09 s   0.80 s
    size("links", "burst8",             30_000,   270_000), // 0.09 s   0.88 s
    size("links", "chain4",             30_000,   120_000), // 0.25 s   1.02 s
    // `burst` with its deep fifo as engine state instead of a link; the
    // difference to `burst8` is `runtime.partition.link_ns` (traced run only).
    size("links", "burst8.jit",         20_000,   150_000), // 0.07 s   0.45 s
    // The two cores get equal time, not equal ops: the compiled core is
    // five times faster, and with equal ops the median op would sit on the
    // cliff between the two populations and jump from run to run.
    size("stepping", "merger16.jit",        80_000,   240_000), // 0.21 s   0.60 s
    size("stepping", "merger16.compiled",  200_000, 1_200_000), // 0.09 s   0.64 s
    size("stepping", "router16.jit",        80_000,   240_000), // 0.19 s   0.59 s
    size("stepping", "router16.compiled",  200_000, 1_200_000), // 0.09 s   0.55 s
    size("stepping", "sequencer8.jit",      80_000,   480_000), // 0.06 s   0.42 s
    size("stepping", "sequencer8.compiled", 200_000, 1_440_000), // 0.04 s   0.30 s
    // Ops are opens; both counts are passes over the checked-in cell list
    // (188 cells). More passes would measure longer, but every open
    // currently leaves 90 KB behind (see README), and 14 k opens per run
    // already peak above 1.2 GiB.
    size("cold_open", "pass",                5,        10), // 0.41 s   0.93 s
    // Ops are verified CG class-S runs; warm-up is two unmeasured runs
    // after building the class matrix.
    size("npb", "cg-S-4",                    2,         6), // 0.82 s   2.48 s
];

pub fn lookup(workload: &str, cell: &str) -> &'static Size {
    TABLE
        .iter()
        .find(|s| s.workload == workload && s.cell == cell)
        .unwrap_or_else(|| panic!("no size for {workload}/{cell} in sizing.rs"))
}

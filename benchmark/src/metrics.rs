//! Every metric the benchmark reports, with unit, direction and — for the
//! end-to-end ones — the regression bound. `BENCHMARK.json` is printed
//! from these tables (`schema` subcommand) and checked against them by
//! the `--quick` smoke run.

use crate::workloads::Workload;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse:
    /// the larger of a floor (5 % for rates and times per op, 10 % for
    /// set-up and memory) and three times the interquartile range over ten
    /// runs of the parent commit on the workload where it is widest,
    /// rounded up to a twentieth and capped at the 25 % the contract
    /// allows. The spreads behind each number are in NOISE.md.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// `(name, unit, better)` of the per-layer metrics with fixed names; the
/// per-cell rates are appended by [`per_layer`].
const LAYER_TABLE: &[(&str, &str, &str)] = &[
    // One open, stage by stage (cold_open).
    ("dsl.parse_us", "us", "lower"),
    ("core.compile_us", "us", "lower"),
    ("core.instantiate_us", "us", "lower"),
    ("automata.product_us", "us", "lower"),
    ("automata.lower_us", "us", "lower"),
    ("runtime.compiled.tables_us", "us", "lower"),
    ("runtime.partition.build_us", "us", "lower"),
    ("runtime.build_us", "us", "lower"),
    ("runtime.connect_us", "us", "lower"),
    ("runtime.first_value_us", "us", "lower"),
    ("runtime.open_unaccounted_share", "share", "lower"),
    ("core.templates", "count", "lower"),
    ("core.constituents", "count", "lower"),
    ("automata.product_states", "count", "lower"),
    ("automata.product_transitions", "count", "lower"),
    // The stepping cores and the state cache (stepping).
    ("runtime.stepping.jit_ns_per_op", "ns", "lower"),
    ("runtime.stepping.compiled_ns_per_op", "ns", "lower"),
    ("runtime.cache.resident_states", "count", "lower"),
    ("runtime.cache.miss_share", "share", "lower"),
    // Port calls, the engine lock and wakeups (handoff, stepping).
    ("runtime.port.poll_ns_per_op", "ns", "lower"),
    ("runtime.port.send_us_p50", "us", "lower"),
    ("runtime.port.recv_us_p50", "us", "lower"),
    ("runtime.engine.lock_port_ns", "ns", "lower"),
    ("runtime.engine.wake_ns", "ns", "lower"),
    ("runtime.engine.steps_per_op", "count", "lower"),
    ("runtime.engine.locks_per_op", "count", "lower"),
    ("runtime.engine.wakeups_per_op", "count", "lower"),
    ("runtime.engine.waker_wakes_per_op", "count", "lower"),
    ("runtime.engine.spurious_share", "share", "lower"),
    // Cross-region links (links).
    ("runtime.partition.regions", "count", "lower"),
    ("runtime.partition.links", "count", "lower"),
    ("runtime.partition.values_per_batch", "count", "higher"),
    ("runtime.partition.kicks_per_op", "count", "lower"),
    ("runtime.partition.locks_per_op", "count", "lower"),
    ("runtime.partition.link_ns", "ns", "lower"),
    // The master-slaves protocol (npb).
    ("npb.comm.bcast_us", "us", "lower"),
    ("npb.comm.gather_us", "us", "lower"),
    ("npb.comm.recv_bcast_us", "us", "lower"),
    ("npb.comm.send_master_us", "us", "lower"),
    ("npb.comm_share", "share", "lower"),
    ("npb.connect_us", "us", "lower"),
    ("npb.steps_per_run", "count", "lower"),
    ("npb.handwritten_op_us", "us", "lower"),
    ("npb.sequential_op_us", "us", "lower"),
    ("npb.overhead_ratio", "ratio", "lower"),
    // The driver itself (every workload).
    ("driver.op_p99_us", "us", "lower"),
    ("driver.epoch_spread", "share", "lower"),
    ("driver.trace_overhead_share", "share", "lower"),
];

/// Every per-layer metric. A traced run of any workload prints all of
/// them; a metric the workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<PerLayer> {
    let mut all: Vec<PerLayer> = LAYER_TABLE
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    for w in Workload::ALL {
        for cell in w.cell_names() {
            all.push(PerLayer {
                name: format!("cell.{}.{cell}.ops_per_s", w.name()),
                unit: "1/s",
                better: "higher",
            });
        }
    }
    all
}

/// Seconds one run measures for; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`.
pub fn schema() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    s.push_str(&workloads.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s.push_str(&e2e.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s.push_str(&layers.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

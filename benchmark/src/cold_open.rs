//! `cold_open`: the runtime used the other way round — all set-up, almost
//! no steady state. An op is one open: source text → `parse_program` →
//! `Connector::builder(..).mode(..).build()` → `session().replicate_all(..)
//! .connect()` → ports taken → one value through → drop. This is the
//! paper's actual contribution (connect-time instantiation of medium
//! automata), so work moved from stepping into `connect` shows here.

use std::collections::{BTreeMap, HashMap};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use reo::automata::{product_all, simplify, MemLayout, PortAllocator, PortSet};
use reo::core::Binding;
use reo::runtime::partition::partition;
use reo::runtime::{CachePolicy, CompiledCore, Limits};
use reo::{Inport, IntoValue, Outport, Session, Value};

use crate::rng::SplitMix64;
use crate::run::{CellRun, Config, Inject, MedianOp, Piece, Stopwatch, SALT_BITS, SALT_MASK};
use crate::session::{all_families, open, ModeName, Spec};
use crate::sizing::Size;
use crate::trace::Trace;

/// Task counts of the Fig. 12 grid that the benchmark opens.
pub const NS: [usize; 4] = [2, 4, 8, 16];

/// The cells that open at the parent commit, one `family n mode` per line
/// (written by the `gen-cells` subcommand). A listed cell that is refused
/// later is a failed op.
const LISTED: &str = include_str!("../cells/cold_open.txt");

#[derive(Clone, Debug)]
pub struct OpenCell {
    pub spec: Spec,
    pub n: usize,
    pub mode: ModeName,
}

impl OpenCell {
    pub fn label(&self) -> String {
        format!("{} {} {}", self.spec.family, self.n, self.mode.label())
    }
}

/// Every family × n × mode, in a fixed order.
pub fn candidate_cells() -> Vec<OpenCell> {
    let mut cells = Vec::new();
    for f in all_families() {
        for n in NS {
            for mode in ModeName::ALL {
                cells.push(OpenCell {
                    spec: Spec::of_family(&f, n),
                    n,
                    mode,
                });
            }
        }
    }
    cells
}

pub fn listed_cells() -> Vec<OpenCell> {
    LISTED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut words = line.split_whitespace();
            let parsed = (|| {
                let family = words.next()?;
                let n: usize = words.next()?.parse().ok()?;
                let mode = ModeName::parse(words.next()?)?;
                Some(OpenCell {
                    spec: Spec::named(family, n)?,
                    n,
                    mode,
                })
            })();
            parsed.unwrap_or_else(|| panic!("bad line in cells/cold_open.txt: `{line}`"))
        })
        .collect()
}

/// Get one value through a freshly connected session from a single
/// thread: arm every receiving port, offer a distinct value on every
/// sending port, and look for one of those values at a receiving port.
/// A family without receiving ports (sequencer, lock) is through when one
/// of its sends completes. Values a connector holds initially (a token
/// ring's token) are received and passed over.
fn first_value(
    session: &mut Session,
    spec: &Spec,
    salt: i64,
    sabotage: Option<Inject>,
) -> Result<(), String> {
    let mut txs: Vec<Outport<i64>> = Vec::new();
    for param in &spec.sends {
        txs.extend(
            session
                .typed_outports::<i64>(param)
                .map_err(|e| e.to_string())?,
        );
    }
    let mut rxs: Vec<Inport<Value>> = Vec::new();
    for param in &spec.recvs {
        rxs.extend(session.inports(param).map_err(|e| e.to_string())?);
    }
    if sabotage == Some(Inject::DropPort) {
        // The side a value would come out of (or, without one, go in).
        if rxs.is_empty() {
            txs.clear();
        } else {
            rxs.clear();
        }
    }
    let wrong = sabotage == Some(Inject::WrongValue);
    let mut cx = Context::from_waker(Waker::noop());
    let payload = |i: usize| (i as i64 + 1) << SALT_BITS | salt;
    let was_sent = |v: &Value| {
        v.as_int().is_some_and(|v| {
            v & SALT_MASK == salt && (1..=txs.len() as i64).contains(&(v >> SALT_BITS))
        })
    };

    let mut registered = vec![false; rxs.len()];
    let mut offers: Vec<Option<Value>> = (0..txs.len())
        .map(|i| Some((payload(i) ^ i64::from(wrong)).into_value()))
        .collect();
    let mut send_done = vec![false; txs.len()];
    // Two rounds: the first arms everything, the second collects what the
    // last offers of the first enabled.
    for _round in 0..2 {
        for step in 0..=txs.len() {
            // Offer the next value (none on the last step), then look at
            // every receiving port.
            if let Some(tx) = txs.get(step) {
                if !send_done[step] {
                    match tx.poll_send(&mut cx, &mut offers[step]) {
                        Poll::Ready(Ok(())) => {
                            send_done[step] = true;
                            if spec.recvs.is_empty() {
                                return Ok(());
                            }
                        }
                        Poll::Ready(Err(e)) => return Err(format!("send: {e}")),
                        Poll::Pending => {}
                    }
                }
            }
            for (rx, reg) in rxs.iter().zip(registered.iter_mut()) {
                match rx.poll_recv(&mut cx, reg) {
                    Poll::Ready(Ok(v)) if was_sent(&v) => return Ok(()),
                    Poll::Ready(Ok(v)) if v.as_int().is_some() => {
                        return Err(format!("first value {v:?} is not one that was sent"))
                    }
                    // Initial content: receive again.
                    Poll::Ready(Ok(_)) => *reg = false,
                    Poll::Ready(Err(e)) => return Err(format!("recv: {e}")),
                    Poll::Pending => {}
                }
            }
        }
    }
    Err("no value came through".into())
}

/// One op. Spans: `driver.op` over the whole open, the layer calls of
/// [`open`] and `runtime.first_value`, `runtime.drop` under it.
pub fn open_once(
    cell: &OpenCell,
    salt: i64,
    sabotage: Option<Inject>,
    tr: &mut Trace,
    op: u64,
) -> Result<(), String> {
    let root = tr.begin("driver.op", 0, op);
    let result = open(&cell.spec, cell.mode, tr, root.id, op).and_then(|mut session| {
        let r = tr.span("runtime.first_value", root.id, op, || {
            first_value(&mut session, &cell.spec, salt, sabotage)
        });
        tr.span("runtime.drop", root.id, op, || drop(session));
        r
    });
    tr.end(root);
    result
}

/// One epoch: `warmup` passes over the seeded shuffle of the listed
/// cells, then `measured` passes. Every cell is opened equally often, so
/// the work of a run does not depend on the seed; only the order does.
/// The result has one [`CellRun`] per mode.
pub fn epoch(cells: &[OpenCell], size: &Size, cfg: &Config, tr: &mut Trace) -> Vec<CellRun> {
    let start = Instant::now();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    SplitMix64::new(cfg.seed).shuffle(&mut order);
    let salt = cfg.salt();
    let warm_ops = cfg.warmup(size.warmup * cells.len() as u64);
    let measured_ops = cfg.measured(size.measured * cells.len() as u64);

    // One cell run per mode; within it one piece per listed cell of that
    // mode, with one sample per open of the cell.
    let mut runs: BTreeMap<ModeName, CellRun> = ModeName::ALL
        .into_iter()
        .map(|m| {
            let of_mode = cells.iter().filter(|c| c.mode == m).count();
            let run = CellRun {
                name: m.label().to_string(),
                pieces: vec![Piece::new(1.0 / of_mode.max(1) as f64); of_mode],
                median_op: MedianOp::OverPieces,
                ..CellRun::default()
            };
            (m, run)
        })
        .collect();
    // Where each listed cell's samples go: its index among its mode's pieces.
    let mut seen: BTreeMap<ModeName, usize> = BTreeMap::new();
    let piece_of: Vec<usize> = cells
        .iter()
        .map(|c| {
            let next = seen.entry(c.mode).or_default();
            *next += 1;
            *next - 1
        })
        .collect();

    let setup = tr.begin("driver.setup", 0, 0);
    let was_on = tr.on();
    // Warm-up opens are not traced: their spans would be told apart from
    // the measured ones only by time.
    tr.set_on(false);
    for k in 0..warm_ops {
        let cell = &cells[order[k as usize % order.len()]];
        // A refusal here shows again in the measured phase.
        let _ = open_once(cell, salt, None, tr, k);
    }
    tr.set_on(was_on);
    tr.end(setup);
    let setup_s = start.elapsed().as_secs_f64();

    let mut watch = Stopwatch::start();
    for k in 0..measured_ops {
        let index = order[k as usize % order.len()];
        let cell = &cells[index];
        let sabotage = cfg.inject.filter(|_| k == measured_ops / 2);
        let result = open_once(cell, salt, sabotage, tr, k);
        let (wall, cpu) = watch.lap();
        let run = runs.get_mut(&cell.mode).expect("every mode has a run");
        run.ops += 1;
        run.measured_s += wall;
        run.cpu_s += cpu;
        match result {
            Ok(()) => {
                run.pieces[piece_of[index]].push(wall, cpu);
                run.latency.record((wall * 1e9) as u64);
            }
            Err(e) => {
                run.failed += 1;
                run.error
                    .get_or_insert_with(|| format!("{}: {e}", cell.label()));
            }
        }
    }
    let mut runs: Vec<CellRun> = runs.into_values().filter(|r| r.ops > 0).collect();
    if let Some(first) = runs.first_mut() {
        first.setup_s = setup_s;
    }
    runs
}

/// Sizes of the intermediate representation after each stage of one open.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSizes {
    pub templates: u64,
    pub constituents: u64,
    pub product_states: u64,
    pub product_transitions: u64,
}

impl StageSizes {
    pub fn add(&mut self, s: StageSizes) {
        self.templates += s.templates;
        self.constituents += s.constituents;
        self.product_states += s.product_states;
        self.product_transitions += s.product_transitions;
    }
}

/// Replay the stages of one open through each crate's public function,
/// the way `reo::runtime::stepping_run` already calls them, each under
/// its own span: `dsl.parse`, `core.compile`, `core.instantiate`, and then
/// what the mode does with the instance at `connect` time. The compiled
/// mode composes eagerly: `automata.product` (product and label
/// simplification) and `automata.lower`, and once more as the runtime does
/// it, `runtime.compiled_core` (the same two plus the runtime's dispatch
/// tables, which the difference isolates). The partitioned mode cuts the
/// instance into regions: `runtime.partition`. The jit mode composes
/// lazily while stepping, so its opens have no further stage.
pub fn replay_stages(cell: &OpenCell, tr: &mut Trace, op: u64) -> Result<StageSizes, String> {
    let root = tr.begin("driver.replay", 0, op);
    let result = (|| {
        let program = tr
            .span("dsl.parse", root.id, op, || {
                reo::dsl::parse_program(&cell.spec.source)
            })
            .map_err(|e| e.to_string())?;
        let compiled = tr
            .span("core.compile", root.id, op, || {
                reo::core::compile(&program, &cell.spec.def)
            })
            .map_err(|e| e.to_string())?;
        let sizes: HashMap<&str, usize> = cell
            .spec
            .sizes
            .iter()
            .map(|(p, n)| (p.as_str(), *n))
            .collect();
        let mut alloc = PortAllocator::new();
        let instance = tr
            .span("core.instantiate", root.id, op, || {
                let mut binding: Binding = HashMap::new();
                for p in compiled.params() {
                    let n = if p.is_array {
                        sizes.get(p.name.as_str()).copied().unwrap_or(1)
                    } else {
                        1
                    };
                    binding.insert(p.name.clone(), alloc.fresh_ports(n));
                }
                reo::core::instantiate(&compiled, &binding, &mut alloc)
            })
            .map_err(|e| e.to_string())?;
        let mut sizes = StageSizes {
            templates: compiled.root.template_count() as u64,
            constituents: instance.automata.len() as u64,
            ..StageSizes::default()
        };
        let limits = Limits::default();
        match cell.mode {
            ModeName::Jit => {}
            ModeName::Compiled => {
                let product = tr
                    .span("automata.product", root.id, op, || {
                        product_all(&instance.automata, &limits.product).map(|large| {
                            let boundary: PortSet =
                                instance.boundary.values().flatten().copied().collect();
                            simplify(&large, &boundary)
                        })
                    })
                    .map_err(|e| e.to_string())?;
                sizes.product_states = product.state_count() as u64;
                sizes.product_transitions = product.transition_count() as u64;
                tr.span("automata.lower", root.id, op, || {
                    reo::automata::lower::lower(&product).map(drop)
                })
                .map_err(|e| e.to_string())?;
                tr.span("runtime.compiled_core", root.id, op, || {
                    CompiledCore::compose(&instance, &limits.product, true).map(drop)
                })
                .map_err(|e| e.to_string())?;
            }
            ModeName::Partitioned => {
                let mut layout = MemLayout::cells(alloc.mem_count());
                layout.merge(&instance.mem_layout);
                tr.span("runtime.partition", root.id, op, || {
                    partition(
                        instance.automata,
                        alloc.port_count(),
                        &layout,
                        CachePolicy::default(),
                        limits.expansion_budget,
                    )
                    .map(|parts| parts.pump())
                })
                .map_err(|e| e.to_string())?;
            }
        }
        Ok(sizes)
    })();
    tr.end(root);
    result
}

/// An open slower than this is left off the list: the workload is about
/// the many cheap opens a program makes, and one explosive cell (compiled
/// `ordered` n=8 composes for ten seconds) would own the whole measured
/// phase.
const LISTING_CEILING: Duration = Duration::from_millis(25);

/// A probe still running after this long is killed (jit `alternator` n=16
/// expands past 2 GiB without finishing).
const PROBE_DEADLINE: Duration = Duration::from_secs(2);

/// `probe-cell <family> <n> <mode>`: open the cell three times; exit 0
/// only if every open passed its first value under the ceiling.
pub fn probe_cell(words: &[String]) -> Result<(), String> {
    let [family, n, mode] = words else {
        return Err("probe-cell takes <family> <n> <mode>".into());
    };
    let n: usize = n.parse().map_err(|_| "n is a whole number")?;
    let cell = OpenCell {
        spec: Spec::named(family, n).ok_or("no such family")?,
        n,
        mode: ModeName::parse(mode).ok_or("no such mode")?,
    };
    let mut tr = Trace::new(false);
    for _ in 0..3 {
        let t = Instant::now();
        open_once(&cell, 7, None, &mut tr, 0)?;
        let took = t.elapsed();
        if took > LISTING_CEILING {
            return Err(format!("open took {took:?}"));
        }
    }
    Ok(())
}

/// Print the text of `cells/cold_open.txt`: every candidate cell whose
/// probe passes. Each probe is a process of its own, so that one that
/// explodes can be killed. Refused cells go to stderr with the reason.
pub fn generate_cells() {
    println!("# Cells of the `cold_open` workload: `family n mode`, one per line.");
    println!("# Written by `reo-benchmark gen-cells` at the commit that added the benchmark:");
    println!("# every family x n x mode that opens and passes its first value, three times");
    println!(
        "# out of three, in under {LISTING_CEILING:?} per open. A listed cell that is refused"
    );
    println!("# later is a failed op; do not regenerate this file to hide one.");
    let exe = std::env::current_exe().expect("path of this program");
    for cell in candidate_cells() {
        let mut child = std::process::Command::new(&exe)
            .args([
                "probe-cell",
                &cell.spec.family,
                &cell.n.to_string(),
                cell.mode.label(),
            ])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("start a probe");
        let started = Instant::now();
        let status = loop {
            match child.try_wait().expect("wait for a probe") {
                Some(status) => break Some(status),
                None if started.elapsed() > PROBE_DEADLINE => {
                    child.kill().expect("kill a probe");
                    child.wait().expect("reap a probe");
                    break None;
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        match status {
            Some(s) if s.success() => println!("{}", cell.label()),
            Some(_) => {
                let mut why = String::new();
                if let Some(mut e) = child.stderr.take() {
                    let _ = std::io::Read::read_to_string(&mut e, &mut why);
                }
                eprintln!("left out: {}: {}", cell.label(), why.trim());
            }
            None => eprintln!(
                "left out: {}: killed after {PROBE_DEADLINE:?}",
                cell.label()
            ),
        }
    }
}

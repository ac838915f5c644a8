//! Lowered connected steps against the interpreter.
//!
//! The just-in-time core interprets nothing: a connected step is composed
//! and lowered once (`JitCore::compose_step`, `Pools::lower`) and every row that
//! contains it runs that program. Here each connected step at each
//! reachable state tuple is fired twice from the same store, every
//! boundary input saturated with a send — once by `fire::try_fire` over
//! the composed transition, once by `Pools::try_fire` over its program —
//! and both must give
//!
//! * the same guard verdict (or the same unresolved-port error),
//! * the same boundary deliveries, values included,
//! * the same completed-port order (sends in label order, then deliveries
//!   in assignment order — what the engine wakes by), and
//! * the same store.
//!
//! Tuples are enumerated by firing: a tuple is explored from the first
//! store it is reached with, so the store always matches the control
//! states (a full `Fifo1` has its value). The eager product's trace says
//! what is reachable at all, and every tuple it lists must have been
//! explored.
//!
//! Connectors: the eighteen Fig. 12 families at n ∈ {2,3,4}, the Fig. 13
//! protocol at four slaves, the differential fuzzer's generated connectors
//! (fixed seeds, every shape) and those of the replay corpus. CHANGES.md
//! records the mutations this fails under ("ONE STEPPING CORE").

use std::collections::{HashSet, VecDeque};

use reo::automata::lower::{ExecScratch, LowerOptions, Pools};
use reo::automata::{
    fire, product_all_traced, MemLayout, PortAllocator, PortId, ProductOptions, StateId, Store,
    Value,
};
use reo::core::{compile, instantiate, Binding};
use reo::runtime::jit::JitCore;
use reo_fuzz::{CorpusCase, Scenario};

/// What one firing did, rendered for comparison (`Value: !PartialEq`).
#[derive(Debug, PartialEq)]
enum Outcome {
    Unresolved(PortId),
    GuardFalse,
    Fired {
        completed: Vec<PortId>,
        deliveries: Vec<(PortId, String)>,
        store: String,
    },
}

/// Explore `def` at the given array sizes; returns (tuples explored,
/// steps compared, steps that fired).
fn check_connector(
    label: &str,
    source: &str,
    def: &str,
    sizes: &[(&str, usize)],
) -> (usize, usize, usize) {
    let program = reo::dsl::parse_program(source).unwrap();
    let cc = compile(&program, def).unwrap();
    let mut alloc = PortAllocator::new();
    let binding: Binding = cc
        .params()
        .map(|p| {
            let n = sizes.iter().find(|(name, _)| *name == p.name);
            let n = if p.is_array { n.map_or(1, |s| s.1) } else { 1 };
            (p.name.clone(), alloc.fresh_ports(n))
        })
        .collect();
    let instance = instantiate(&cc, &binding, &mut alloc).unwrap();
    let autos = instance.automata;
    let mut layout = MemLayout::cells(alloc.mem_count());
    layout.merge(&instance.mem_layout);

    let initial: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
    let core_at = |tuple: &[StateId]| JitCore::with_states(autos.clone(), tuple, 1 << 16);
    let boundary = core_at(&initial);
    let (inputs, outputs) = (boundary.boundary_inputs(), boundary.boundary_outputs());
    let saturated = |p: PortId| inputs.contains(p).then_some(Value::Int(1000 + p.0 as i64));
    let rendered = |store: &Store| format!("{store:?}");

    // One pool set for the whole connector, as in the core.
    let mut pools = Pools::default();
    let mut scratch = ExecScratch::default();
    let mut lowered_deliveries = Vec::new();

    let mut explored: HashSet<Vec<StateId>> = HashSet::from([initial.clone()]);
    let mut queue = VecDeque::from([(initial.clone(), Store::new(&layout))]);
    let (mut compared, mut fired) = (0, 0);
    while let Some((tuple, store)) = queue.pop_front() {
        let core = core_at(&tuple);
        for choice in core.expand().unwrap() {
            let (composed, moves) = core.compose_step(&choice);
            let at = || format!("{label} at {tuple:?}, step {choice:?}");

            let mut interpreted_store = store.clone();
            let interpreted = match fire::try_fire(&composed, &saturated, &mut interpreted_store) {
                Err(e) => Outcome::Unresolved(e.0),
                Ok(None) => Outcome::GuardFalse,
                Ok(Some(firing)) => {
                    let sends = composed.sync.iter().filter(|p| inputs.contains(*p));
                    let delivered = || firing.deliveries.iter().filter(|d| outputs.contains(d.0));
                    Outcome::Fired {
                        completed: sends.chain(delivered().map(|d| d.0)).collect(),
                        deliveries: delivered().map(|(p, v)| (*p, format!("{v:?}"))).collect(),
                        store: rendered(&interpreted_store),
                    }
                }
            };

            let options = LowerOptions {
                seeds: inputs,
                deliver: Some(outputs),
            };
            let program = pools.lower(label, &composed, &options).unwrap();
            pools.fit(&mut scratch);
            let mut lowered_store = store.clone();
            let lowered = match pools.try_fire(
                &program,
                &saturated,
                &mut lowered_store,
                &mut scratch,
                &mut lowered_deliveries,
            ) {
                Err(e) => Outcome::Unresolved(e.0),
                Ok(false) => Outcome::GuardFalse,
                Ok(true) => {
                    let sends = program.send_ports.iter().copied();
                    Outcome::Fired {
                        completed: sends
                            .chain(lowered_deliveries.iter().map(|d| d.0))
                            .collect(),
                        deliveries: (lowered_deliveries.iter())
                            .map(|(p, v)| (*p, format!("{v:?}")))
                            .collect(),
                        store: rendered(&lowered_store),
                    }
                }
            };
            if matches!(lowered, Outcome::GuardFalse) {
                assert_eq!(
                    rendered(&lowered_store),
                    rendered(&store),
                    "{}: a false guard touched the store",
                    at()
                );
            }
            assert_eq!(lowered, interpreted, "{}: lowered != interpreted", at());

            compared += 1;
            if matches!(interpreted, Outcome::Fired { .. }) {
                fired += 1;
                let mut next = tuple.clone();
                for &(i, target) in moves.iter() {
                    next[i as usize] = target;
                }
                if explored.insert(next.clone()) {
                    queue.push_back((next, interpreted_store));
                }
            }
        }
    }

    // Nothing × can reach was left unexplored (when × fits its budget).
    let budget = ProductOptions {
        max_states: 1 << 12,
        max_transitions: 1 << 16,
    };
    if let Ok((_, trace)) = product_all_traced(&autos, &initial, &budget) {
        for tuple in &trace {
            assert!(
                explored.contains(&tuple[..]),
                "{label}: × reaches {tuple:?}, which no firing sequence explored"
            );
        }
        assert_eq!(explored.len(), trace.len(), "{label}: tuples explored vs ×");
    }
    (explored.len(), compared, fired)
}

#[test]
fn fig12_families_lower_to_what_the_interpreter_does() {
    let (mut tuples, mut compared, mut fired) = (0, 0, 0);
    for family in reo::connectors::families() {
        for n in [2, 3, 4] {
            let label = format!("{}-n{n}", family.name);
            let (t, c, f) = check_connector(&label, family.source, family.def, &(family.sizes)(n));
            assert!(f > 0, "{label}: nothing fired under saturation");
            tuples += t;
            compared += c;
            fired += f;
        }
    }
    // A run that silently compared nothing would prove nothing.
    assert!(
        tuples > 54 && compared > tuples && fired > tuples / 2,
        "{tuples} tuples, {compared} steps compared, {fired} fired"
    );
}

/// Two unbounded buffers drained together: the joint take conjoins two
/// length guards, of which the store satisfies one combination in four —
/// a lowering that drops or repeats a conjunct fires a step it must not.
#[test]
fn conjoined_guards_keep_every_conjunct() {
    let source = "Joint(a,b;) = Fifo(a;x) mult Fifo(b;y) mult SyncDrain(x,y;)";
    let (tuples, compared, fired) = check_connector("joint-drain", source, "Joint", &[]);
    assert!(
        tuples >= 4 && fired < compared,
        "{tuples} tuples, {fired} of {compared}"
    );
}

#[test]
fn npbcomm_at_four_slaves_lowers_to_what_the_interpreter_does() {
    let sizes: Vec<(&str, usize)> = ["v", "w", "fwd", "bwd", "fin", "bin"]
        .into_iter()
        .map(|name| (name, 4))
        .collect();
    let (tuples, compared, fired) = check_connector(
        "npbcomm-4",
        reo::npb::comm::NPB_COMM_SOURCE,
        "NpbComm",
        &sizes,
    );
    // 8 Fifo1s and 6 Fifos, each empty or not, in every combination.
    assert_eq!(tuples, 1 << 14);
    // A non-empty `Fifo` has two takes, told apart by a length guard: both
    // verdicts are exercised.
    assert!(
        fired > tuples * 8 && fired < compared,
        "{fired} of {compared}"
    );
}

/// The connector of a fuzz scenario, at its replication sizes.
fn check_scenario(label: &str, scenario: &Scenario) -> (usize, usize, usize) {
    let sizes: Vec<(&str, usize)> = (scenario.replicate.iter())
        .map(|(name, n)| (name.as_str(), *n))
        .collect();
    check_connector(label, &scenario.source, &scenario.entry, &sizes)
}

/// The generator's connectors: 120 distinct ones from fixed seeds, every
/// shape among them.
#[test]
fn generated_connectors_lower_to_what_the_interpreter_does() {
    let mut seen = HashSet::new();
    let mut shapes = HashSet::new();
    let cases = (0..).map(|i| reo_fuzz::generate(7 + i % 3, i / 3));
    for case in cases.take(2_000) {
        let s = &case.scenario;
        if !seen.insert((s.source.clone(), s.entry.clone(), s.replicate.clone())) {
            continue;
        }
        let label = format!("{}#{}", case.shape, seen.len());
        let (_, _, fired) = check_scenario(&label, s);
        assert!(fired > 0, "{label}: nothing fired under saturation");
        shapes.insert(case.shape);
        if seen.len() == 120 {
            break;
        }
    }
    assert_eq!(seen.len(), 120, "distinct generated connectors");
    assert_eq!(shapes.len(), 7, "shapes covered: {shapes:?}");
}

/// The replay corpus's connectors (the pipeline cases are sources that
/// must not compile, so they have none).
#[test]
fn corpus_connectors_lower_to_what_the_interpreter_does() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut checked = 0;
    for (path, case) in reo_fuzz::load_dir(&dir).unwrap() {
        let (CorpusCase::Diff(case) | CorpusCase::Fault(case)) = case else {
            continue;
        };
        let label = path.file_stem().unwrap().to_string_lossy();
        check_scenario(&label, &case.scenario);
        checked += 1;
    }
    assert!(checked >= 15, "only {checked} corpus connectors");
}

//! Differential test: every paper primitive must fire under the lowering
//! [`JitCore`] exactly as under an interpreter of its automaton
//! ([`Interpreter`], over `fire::try_fire`) — over one automaton, over a
//! product, and over a region's constituents with every row filled eagerly
//! (what `Mode::compiled_partitioned` hands it).
//!
//! Both get the identical deterministic saturation protocol (arm all
//! boundary inputs with sequential ints and all boundary outputs with
//! receives, step to quiescence, repeat) and must produce the identical
//! event trace — same ports completed in the same order with the same
//! values — and the identical final store.

use reo_automata::fire::try_fire;
use reo_automata::{
    primitives, Automaton, MemId, MemLayout, PortId, PortSet, Pred, StateId, Store, Value,
};
use reo_runtime::engine::{Pending, PendingTable, PortMap};
use reo_runtime::jit::JitCore;

/// The reference: one automaton, its transitions tried in the lowered
/// core's `(k + rotation) % n` order, each interpreted by `try_fire`.
struct Interpreter {
    automaton: Automaton,
    state: StateId,
    rotation: usize,
}

impl Interpreter {
    fn new(automaton: Automaton) -> Self {
        let state = automaton.initial();
        Interpreter {
            automaton,
            state,
            rotation: 0,
        }
    }

    fn try_step(
        &mut self,
        pending: &mut PendingTable,
        store: &mut Store,
        done: &mut Vec<PortId>,
    ) -> bool {
        let (ins, outs) = (self.automaton.inputs(), self.automaton.outputs());
        let from = self.automaton.transitions_from(self.state);
        for k in 0..from.len() {
            let t = &from[(k + self.rotation) % from.len()];
            let armed = t
                .sync
                .iter()
                .all(|p| match (ins.contains(p), outs.contains(p)) {
                    (true, _) => matches!(pending.get(p), Pending::Send(_)),
                    (_, true) => matches!(pending.get(p), Pending::Recv),
                    _ => true, // internal: nobody's operation
                });
            let input = |p: PortId| match pending.get(p) {
                Pending::Send(v) => Some(v.clone()),
                _ => None,
            };
            let fired = armed.then(|| try_fire(t, &input, store).expect("resolved"));
            let Some(Some(firing)) = fired else { continue };
            for p in t.sync.iter().filter(|p| ins.contains(*p)) {
                pending.set(p, Pending::DoneSend);
                done.push(p);
            }
            for (p, v) in firing
                .deliveries
                .into_iter()
                .filter(|(p, _)| outs.contains(*p))
            {
                pending.set(p, Pending::DoneRecv(v));
                done.push(p);
            }
            (self.state, self.rotation) = (t.target, self.rotation + 1);
            return true;
        }
        false
    }
}

const ROUNDS: usize = 60;

#[derive(Debug, PartialEq)]
enum Event {
    /// A send on this port was taken, carrying the value we armed.
    Send(u32, i64),
    /// A value was delivered to this port (rendered, `Value: !PartialEq`).
    Recv(u32, String),
}

/// Drive one side with the saturation protocol; return the event trace.
fn drive(
    (inputs, outputs): (&PortSet, &PortSet),
    mut step: impl FnMut(&mut PendingTable, &mut Store, &mut Vec<PortId>) -> bool,
    port_count: usize,
    layout: &MemLayout,
) -> (Vec<Event>, Store) {
    let mut pending = PendingTable::new(PortMap::dense(port_count));
    let mut store = Store::new(layout);
    let mut completed: Vec<PortId> = Vec::new();
    let mut trace = Vec::new();
    let mut armed: Vec<i64> = vec![0; port_count];
    let mut next = 0i64;
    for _ in 0..ROUNDS {
        for p in inputs.iter() {
            if matches!(pending.get(p), Pending::None | Pending::DoneSend) {
                pending.set(p, Pending::Send(Value::Int(next)));
                armed[p.index()] = next;
                next += 1;
            }
        }
        for p in outputs.iter() {
            if matches!(pending.get(p), Pending::None | Pending::DoneRecv(_)) {
                pending.set(p, Pending::Recv);
            }
        }
        while step(&mut pending, &mut store, &mut completed) {
            for &p in completed.iter() {
                match pending.get(p) {
                    Pending::DoneSend => trace.push(Event::Send(p.0, armed[p.index()])),
                    Pending::DoneRecv(v) => trace.push(Event::Recv(p.0, format!("{v:?}"))),
                    other => panic!("completed port {p:?} in state {other:?}"),
                }
            }
            completed.clear();
        }
    }
    (trace, store)
}

/// Drive both sides and compare everything: event trace and final store.
fn agree(
    name: &str,
    interpreting: &mut Interpreter,
    lowered: &mut JitCore,
    port_count: usize,
    layout: &MemLayout,
    mem_ids: &[MemId],
) {
    let automaton = &interpreting.automaton;
    let classes = (&automaton.inputs().clone(), &automaton.outputs().clone());
    let interpret =
        |pending: &mut _, store: &mut _, done: &mut _| interpreting.try_step(pending, store, done);
    let (trace_i, store_i) = drive(classes, interpret, port_count, layout);
    assert!(
        !trace_i.is_empty(),
        "{name}: the saturation protocol must fire something"
    );
    let classes = (
        &lowered.boundary_inputs().clone(),
        &lowered.boundary_outputs().clone(),
    );
    let step = |pending: &mut _, store: &mut _, done: &mut _| {
        (lowered.try_step(pending, store, done)).expect("no unresolved ports in the primitive set")
    };
    let (trace_l, store_l) = drive(classes, step, port_count, layout);
    assert_eq!(trace_l, trace_i, "{name}: event trace diverged");
    for &m in mem_ids {
        assert_eq!(
            store_l.len(m),
            store_i.len(m),
            "{name}: cell {m:?} lengths diverged"
        );
        match (store_l.peek(m), store_i.peek(m)) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert!(x.structurally_eq(y), "{name}: cell {m:?} fronts diverged")
            }
            (x, y) => panic!("{name}: cell {m:?} diverged: {x:?} vs {y:?}"),
        }
    }
}

/// Round-trip one automaton through both sides.
fn roundtrip(a: Automaton, port_count: usize) {
    let mut layout = MemLayout::cells(0);
    layout.merge(a.mem_layout());
    let mem_ids: Vec<MemId> = a.mem_ids().to_vec();
    let name = a.name().to_string();
    let mut jit = JitCore::new(vec![a.clone()], 1 << 20);
    let mut interpreting = Interpreter::new(a);
    agree(
        &name,
        &mut interpreting,
        &mut jit,
        port_count,
        &layout,
        &mem_ids,
    );
}

fn p(i: u32) -> PortId {
    PortId(i)
}

/// The 18 paper primitives (the 16 builders, with the parametrized ones at
/// two arities) — every one must step identically under both sides.
#[test]
fn all_paper_primitives_roundtrip_through_lowering() {
    let even = || Pred::new("even", |v| v.as_int().is_some_and(|i| i % 2 == 0));
    let inc =
        || reo_automata::Func::new("inc", |args| Value::Int(args[0].as_int().unwrap_or(0) + 1));
    let cases: Vec<(Automaton, usize)> = vec![
        (primitives::sync(p(0), p(1)), 2),
        (primitives::lossy(p(0), p(1)), 2),
        (primitives::sync_drain(p(0), p(1)), 2),
        (primitives::async_drain(p(0), p(1)), 2),
        (primitives::sync_spout(p(0), p(1)), 2),
        (primitives::fifo1(p(0), p(1), MemId(0)), 2),
        (
            primitives::fifo1_full(p(0), p(1), MemId(0), Value::Int(9)),
            2,
        ),
        (primitives::fifo_n(p(0), p(1), MemId(0), 3), 2),
        (primitives::fifo_unbounded(p(0), p(1), MemId(0)), 2),
        (primitives::seq_k(&[p(0), p(1)]), 2),
        (primitives::seq_k(&[p(0), p(1), p(2)]), 3),
        (primitives::merger(&[p(0), p(1)], p(2)), 3),
        (primitives::merger(&[p(0), p(1), p(2)], p(3)), 4),
        (primitives::replicator(p(0), &[p(1), p(2)]), 3),
        (primitives::router(p(0), &[p(1), p(2)]), 3),
        (primitives::filter(p(0), p(1), even()), 2),
        (primitives::transform(p(0), p(1), inc()), 2),
        (primitives::variable(p(0), p(1), MemId(0)), 2),
    ];
    assert_eq!(cases.len(), 18);
    for (a, ports) in cases {
        roundtrip(a, ports);
    }
}

/// Both sides must also agree on *composed* automata, not just on
/// primitives.
#[test]
fn composed_products_roundtrip_through_lowering() {
    use reo_automata::{product_all, ProductOptions};
    // merger(0,1;2) × replicator(2;3,4): a three-port synchronous region.
    let autos = vec![
        primitives::merger(&[p(0), p(1)], p(2)),
        primitives::replicator(p(2), &[p(3), p(4)]),
    ];
    let product = product_all(&autos, &ProductOptions::default()).unwrap();
    roundtrip(product, 5);
}

/// A partition *region* under `Mode::compiled_partitioned`: the cut fifos
/// are gone, so the ports that faced them — 0 and 1 as link heads, 3 and 6
/// as link tails — are boundary ports no task holds, and a buffer that
/// stays inside the region starts full. `JitCore` fills the region's rows
/// eagerly with the boundary classes of the *constituents*; it must agree
/// with the interpreter over the traced product on classes, events, store
/// and the tuple read back.
#[test]
fn a_composed_region_keeps_its_link_facing_ports_and_its_tuple() {
    use reo_automata::{product_all_traced, ProductOptions};
    use reo_runtime::jit::boundary_classes;
    let autos = vec![
        primitives::merger(&[p(0), p(1)], p(2)),
        primitives::replicator(p(2), &[p(3), p(4)]),
        primitives::fifo1_full(p(4), p(5), MemId(0), Value::Int(9)),
        primitives::sync(p(5), p(6)),
    ];
    let starts: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
    let opts = ProductOptions::default();
    let ports = PortMap::dense(7);
    let mut jit = JitCore::eager(autos.clone(), &starts, &ports, &opts).unwrap();
    let (product, trace) = product_all_traced(&autos, &starts, &opts).unwrap();
    let mut interpreting = Interpreter::new(product);

    let (inputs, outputs) = boundary_classes(&autos);
    assert_eq!(inputs.iter().collect::<Vec<_>>(), [p(0), p(1)]);
    assert_eq!(outputs.iter().collect::<Vec<_>>(), [p(3), p(6)]);
    let product = &interpreting.automaton;
    let classes = [
        (jit.boundary_inputs(), jit.boundary_outputs()),
        (product.inputs(), product.outputs()),
    ];
    for classes in classes {
        assert_eq!(classes, (&inputs, &outputs));
    }
    assert_eq!(jit.constituent_states(), starts);

    let mut layout = MemLayout::cells(0);
    for a in &autos {
        layout.merge(a.mem_layout());
    }
    agree(
        "region",
        &mut interpreting,
        &mut jit,
        7,
        &layout,
        &[MemId(0)],
    );
    // Saturation leaves the buffer empty or full; either way both sides
    // stand in the same four local states.
    assert_eq!(
        jit.constituent_states(),
        &*trace[interpreting.state.index()]
    );
}

/// An automaton whose stepping program cannot be encoded (one transition
/// needing > u16::MAX registers) must surface as a typed `RuntimeError`,
/// never a silently-wrapped register file — the first time the step is
/// tried, which is when it is lowered (there is no interpreting fallback);
/// the engine above poisons itself with the error's "cannot lower" text.
/// `Mode::compiled` sessions report it there too, not at
/// `connect`: their rows are filled up front, their steps lowered lazily.
#[test]
fn unencodable_automaton_is_a_typed_error() {
    use reo_automata::assign::Assign;
    use reo_automata::term::{Func, Term};
    use reo_automata::{AutomatonBuilder, Transition};
    use reo_runtime::RuntimeError;

    let f = Func::new("sink", |_| Value::Unit);
    let args: Vec<Term> = (0..70_000).map(|_| Term::Const(Value::Int(1))).collect();
    let t = Transition::new(PortSet::singleton(p(0)), StateId(0))
        .with_assign(Assign::set_mem(MemId(0), Term::Apply(f, args)));
    let mut b = AutomatonBuilder::new("wide");
    let s = b.state();
    b.input(p(0));
    b.mem(MemId(0), vec![]);
    b.transition(s, t);
    let aut = b.build();

    let mut jit = JitCore::new(vec![aut], 1 << 20);
    let mut pending = PendingTable::new(PortMap::dense(1));
    let mut store = Store::new(&MemLayout::cells(1));
    // A step is lowered when first tried: arm its send.
    pending.set(p(0), Pending::Send(Value::Int(1)));
    let err = jit
        .try_step(&mut pending, &mut store, &mut Vec::new())
        .expect_err("must refuse");
    assert!(matches!(err, RuntimeError::Lower(_)), "got: {err}");
}

//! Running whole programs: `main(N) = Connector(…) among tasks` (Fig. 9
//! lines 10–11).
//!
//! Tasks are Rust closures registered by name; `run_main` evaluates the
//! `main` definition for a given `N`, connects the top-level connector,
//! spawns one thread per task instantiation (unrolling `forall`), hands
//! each task its outports/inports, and joins.

use std::collections::HashMap;
use std::sync::Arc;

use reo_automata::Value;
use reo_core::ir::{PortRef, Program};
use reo_core::CoreError;

use crate::connector::{Connector, ConnectorHandle, Mode, Session};
use crate::error::RuntimeError;
use crate::port::{Inport, Outport};

/// What a task sees: its ports and (for `forall` replicas) its index.
pub struct TaskCtx {
    pub outports: Vec<Outport>,
    pub inports: Vec<Inport>,
    /// The `forall` iteration value, if this task is replicated.
    pub index: Option<i64>,
    /// Connector control handle (step counts, shutdown).
    pub handle: ConnectorHandle,
}

/// A task body.
pub type TaskFn = Arc<dyn Fn(TaskCtx) + Send + Sync>;

/// Maps task names (`Tasks.pro`) to Rust closures.
#[derive(Clone, Default)]
pub struct TaskRegistry {
    map: HashMap<String, TaskFn>,
}

impl TaskRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register(&mut self, name: &str, f: impl Fn(TaskCtx) + Send + Sync + 'static) {
        self.map.insert(name.to_string(), Arc::new(f));
    }

    fn get(&self, name: &str) -> Option<&TaskFn> {
        self.map.get(name)
    }
}

/// Outcome of a program run.
pub struct RunReport {
    /// Global execution steps of the connector.
    pub steps: u64,
    /// Number of task threads spawned.
    pub tasks: usize,
}

/// Execute the program's `main` for parameter values `params` (e.g.
/// `[("N", 8)]`), with tasks drawn from `registry`.
pub fn run_main(
    program: &Program,
    params: &[(&str, i64)],
    registry: &TaskRegistry,
    mode: Mode,
) -> Result<RunReport, RuntimeError> {
    let main = program
        .main
        .as_ref()
        .ok_or_else(|| CoreError::UnknownConnector("main".into()))?;
    let mut env = reo_core::affine::Env::new();
    for (name, v) in params {
        env.set_var(name, *v);
    }

    // Main-level arrays: the union of slices passed to the connector.
    // `Conn(out[1..N]; in[1..N])` introduces arrays `out`, `in` of length N.
    let connector_def = program
        .def(&main.connector.name)
        .ok_or_else(|| CoreError::UnknownConnector(main.connector.name.to_string()))?;

    let mut array_lens: HashMap<String, i64> = HashMap::new();
    let mut spans: Vec<(String, String, i64, i64, bool)> = Vec::new(); // (param, array, lo, hi, is_tail)
    let all_params = connector_def
        .tails
        .iter()
        .map(|p| (p, true))
        .chain(connector_def.heads.iter().map(|p| (p, false)));
    let all_args = main
        .connector
        .tails
        .iter()
        .chain(main.connector.heads.iter());
    for ((param, is_tail), arg) in all_params.zip(all_args) {
        let (array, lo, hi) = match arg {
            PortRef::Slice(a, lo, hi) => (a.to_string(), env.eval(lo)?, env.eval(hi)?),
            PortRef::Name(a) => (a.to_string(), 1, 1),
            PortRef::Indexed(a, idx) if idx.len() == 1 => {
                let k = env.eval(&idx[0])?;
                (a.to_string(), k, k)
            }
            _ => return Err(CoreError::SliceAsScalar(param.name.clone()).into()),
        };
        let len = array_lens.entry(array.clone()).or_insert(0);
        *len = (*len).max(hi);
        spans.push((param.name.clone(), array, lo, hi, is_tail));
    }

    // Connect with the widths the spans dictate.
    let connector = Connector::builder(program, &main.connector.name)
        .mode(mode)
        .build()?;
    let mut spec = connector.session();
    for (param, _, lo, hi, _) in &spans {
        spec = spec.replicate(param, (hi - lo + 1).max(0) as usize);
    }
    let mut session: Session = spec.connect()?;
    let handle = session.handle();

    // Build the main-level arrays as optional endpoints to move out.
    enum Slot {
        Out(Outport),
        In(Inport),
    }
    let mut arrays: HashMap<String, Vec<Option<Slot>>> = array_lens
        .iter()
        .map(|(a, len)| (a.clone(), (0..*len).map(|_| None).collect()))
        .collect();
    for (param, array, lo, _hi, is_tail) in &spans {
        if *is_tail {
            for (k, port) in session.outports(param)?.into_iter().enumerate() {
                arrays.get_mut(array).expect("array exists")[(lo - 1) as usize + k] =
                    Some(Slot::Out(port));
            }
        } else {
            for (k, port) in session.inports(param)?.into_iter().enumerate() {
                arrays.get_mut(array).expect("array exists")[(lo - 1) as usize + k] =
                    Some(Slot::In(port));
            }
        }
    }

    // Spawn tasks.
    let mut handles = Vec::new();
    let mut spawned = 0usize;
    for task in &main.tasks {
        let f = registry
            .get(&task.name)
            .ok_or_else(|| CoreError::UnknownPrimitive(task.name.clone()))?
            .clone();
        let instances: Vec<Option<i64>> = match &task.forall {
            Some((var, lo, hi)) => {
                let lo = env.eval(lo)?;
                let hi = env.eval(hi)?;
                let _ = var;
                (lo..=hi).map(Some).collect()
            }
            None => vec![None],
        };
        for idx in instances {
            let mut local_env = env.clone();
            if let (Some(i), Some((var, _, _))) = (idx, &task.forall) {
                local_env.set_var(var, i);
            }
            let mut outs = Vec::new();
            let mut ins = Vec::new();
            for arg in &task.args {
                let take = |arrays: &mut HashMap<String, Vec<Option<Slot>>>,
                            a: &str,
                            k: i64|
                 -> Result<Slot, RuntimeError> {
                    let arr = arrays
                        .get_mut(a)
                        .ok_or_else(|| CoreError::UnboundLen(a.to_string()))?;
                    if k < 1 || k as usize > arr.len() {
                        return Err(CoreError::IndexOutOfBounds {
                            name: a.to_string(),
                            index: k,
                            len: arr.len() as i64,
                        }
                        .into());
                    }
                    arr[(k - 1) as usize].take().ok_or_else(|| {
                        CoreError::AliasedPorts {
                            section: "main".into(),
                            port: format!("{a}[{k}]"),
                        }
                        .into()
                    })
                };
                match arg {
                    PortRef::Indexed(a, idx) if idx.len() == 1 => {
                        let k = local_env.eval(&idx[0])?;
                        match take(&mut arrays, a, k)? {
                            Slot::Out(o) => outs.push(o),
                            Slot::In(i) => ins.push(i),
                        }
                    }
                    PortRef::Slice(a, lo, hi) => {
                        let lo = local_env.eval(lo)?;
                        let hi = local_env.eval(hi)?;
                        for k in lo..=hi {
                            match take(&mut arrays, a, k)? {
                                Slot::Out(o) => outs.push(o),
                                Slot::In(i) => ins.push(i),
                            }
                        }
                    }
                    PortRef::Name(a) => match take(&mut arrays, a, 1)? {
                        Slot::Out(o) => outs.push(o),
                        Slot::In(i) => ins.push(i),
                    },
                    PortRef::Indexed(a, _) => {
                        return Err(CoreError::KindMismatch {
                            name: a.to_string(),
                            expected_array: false,
                        }
                        .into())
                    }
                }
            }
            let ctx = TaskCtx {
                outports: outs,
                inports: ins,
                index: idx,
                handle: handle.clone(),
            };
            let f = f.clone();
            handles.push(std::thread::spawn(move || f(ctx)));
            spawned += 1;
        }
    }
    for h in handles {
        h.join().expect("task panicked");
    }
    Ok(RunReport {
        steps: handle.steps(),
        tasks: spawned,
    })
}

/// Convenience: the identity value most demo tasks circulate.
pub fn unit() -> Value {
    Value::Unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use reo_dsl::parse_program;

    #[test]
    fn fig9_main_runs_end_to_end() {
        let program = parse_program(reo_dsl::stdlib::FIG9_SOURCE).unwrap();
        let received: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        let mut registry = TaskRegistry::new();
        registry.register("Tasks.pro", |ctx: TaskCtx| {
            let i = ctx.index.expect("replicated");
            ctx.outports[0].send(Value::Int(100 + i)).unwrap();
        });
        let sink = Arc::clone(&received);
        registry.register("Tasks.con", move |ctx: TaskCtx| {
            for port in &ctx.inports {
                sink.lock().push(port.recv().unwrap().as_int().unwrap());
            }
        });
        let report = run_main(&program, &[("N", 4)], &registry, Mode::jit()).unwrap();
        assert_eq!(report.tasks, 5); // 4 producers + 1 consumer
                                     // Ex. 8's protocol: consumer receives in producer order.
        assert_eq!(&*received.lock(), &[101, 102, 103, 104]);
        assert!(report.steps > 0);
    }

    #[test]
    fn n_equals_one_takes_the_then_branch() {
        let program = parse_program(reo_dsl::stdlib::FIG9_SOURCE).unwrap();
        let mut registry = TaskRegistry::new();
        registry.register("Tasks.pro", |ctx: TaskCtx| {
            ctx.outports[0].send(Value::Int(5)).unwrap();
        });
        registry.register("Tasks.con", |ctx: TaskCtx| {
            assert_eq!(ctx.inports[0].recv().unwrap().as_int(), Some(5));
        });
        let report = run_main(&program, &[("N", 1)], &registry, Mode::jit()).unwrap();
        assert_eq!(report.tasks, 2);
    }

    /// `out[1..N]` with N ≤ 0 is an empty array: the typed error, in every
    /// mode, not an index out of bounds.
    #[test]
    fn an_empty_main_array_is_a_typed_error() {
        let program = parse_program(reo_dsl::stdlib::FIG9_SOURCE).unwrap();
        for &(name, mode) in Mode::grid() {
            for n in [0, -3] {
                let err = run_main(&program, &[("N", n)], &TaskRegistry::new(), mode).err();
                assert!(
                    matches!(&err, Some(RuntimeError::Core(CoreError::EmptyArray(a))) if a == "tl"),
                    "{name}, N = {n}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn unknown_task_is_reported() {
        let program = parse_program(reo_dsl::stdlib::FIG9_SOURCE).unwrap();
        let registry = TaskRegistry::new();
        assert!(run_main(&program, &[("N", 2)], &registry, Mode::jit()).is_err());
    }
}

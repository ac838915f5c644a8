//! Dynamic reconfiguration: producers join and leave a live merger.
//!
//! The connector is a replicated merge tree — one `Fifo1` per producer
//! feeding a variadic `Merger` — connected with `.reconfigurable()`.
//! While the consumer drains, the main thread attaches new branches
//! (`handle.attach("src")`) and detaches retiring ones
//! (`branch.detach()`); each splice quiesces only the affected region,
//! joins the new constituents to the live ones on their instantiation
//! addresses, carries buffered `Fifo1` state across, and bumps the epoch
//! counter.
//!
//! Every producer tags its values with its own id, so the consumer can
//! prove exactly-once delivery across all splices: no value a producer
//! reported as accepted is lost, none arrives twice.
//!
//! Run: `cargo run --release --example churn [-- --initial N --joins J --values K]`

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use reo::runtime::{Connector, Mode, Outport};
use reo::Value;

/// The reconfigurable-merger idiom: a buffered lane per branch, merged
/// by the variadic stateless `Merger`. The `Fifo1`s are matched across
/// splices (their buffered values survive); the `Merger` is reshaped.
const SRC: &str = "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) \
                   mult Merger(m[1..#src];c)";

/// One producer thread pushing `values` tagged ints through `tx`, then
/// dropping the port. `try_send` returning `Ok(false)` means the engine
/// has not accepted the offer yet — spin; `Err` means the branch went
/// away under us, which this demo never does to a live producer.
struct Producer {
    id: i64,
    thread: JoinHandle<()>,
}

fn spawn_producer(id: i64, tx: Outport, values: usize, sent: Arc<AtomicU64>) -> Producer {
    let thread = std::thread::spawn(move || {
        for k in 0..values as i64 {
            loop {
                match tx.try_send(Value::Int(id * 1_000_000 + k)) {
                    Ok(true) => {
                        sent.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Ok(false) => std::thread::yield_now(),
                    Err(e) => panic!("producer {id} lost its port: {e}"),
                }
            }
        }
    });
    Producer { id, thread }
}

fn arg(name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    default
}

fn main() {
    let initial = arg("--initial", 2).max(1);
    let joins = arg("--joins", 4);
    let values = arg("--values", 200);

    let program = reo::dsl::parse_program(SRC).unwrap();
    let connector = Connector::builder(&program, "M")
        .mode(Mode::partitioned())
        .build()
        .unwrap();

    // `.reconfigurable()` is what licenses `attach` later: it keeps the
    // constituent list and splice machinery alive past connect time.
    let mut session = connector
        .session()
        .replicate("src", initial)
        .reconfigurable()
        .connect()
        .unwrap();
    let handle = session.handle();
    let rx = session.typed_inport::<i64>("c").unwrap();

    // Consumer: drain until told to stop AND everything sent has landed.
    let sent = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let consumer = {
        let sent = Arc::clone(&sent);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen = HashSet::new();
            let mut received = 0u64;
            loop {
                match rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(v) => {
                        assert!(seen.insert(v), "duplicate delivery: {v}");
                        received += 1;
                    }
                    Err(_) => {
                        if stop.load(Ordering::SeqCst) && received == sent.load(Ordering::SeqCst) {
                            return (received, seen);
                        }
                    }
                }
            }
        })
    };

    // The initial branches run for the whole demo.
    let mut producers = Vec::new();
    for (i, tx) in session.outports("src").unwrap().into_iter().enumerate() {
        producers.push(spawn_producer(i as i64 + 1, tx, values, Arc::clone(&sent)));
    }

    // Churn: each round a producer joins on a freshly spliced-in branch,
    // runs to completion, and leaves again. Attach and detach each bump
    // the epoch exactly once.
    println!(
        "merger live with {initial} producers (epoch {}, {} regions, {} links)",
        handle.epoch(),
        handle.region_count(),
        handle.link_count()
    );
    for j in 0..joins {
        let mut branch = handle.attach("src").unwrap();
        let id = 100 + j as i64;
        println!(
            "  join:  producer {id} attached on port {:?} (epoch {})",
            branch.port(),
            handle.epoch()
        );
        let p = spawn_producer(id, branch.outport().unwrap(), values, Arc::clone(&sent));
        p.thread.join().unwrap();
        // Detach refuses while the branch still buffers a value; the
        // consumer is draining concurrently, so this settles quickly.
        branch.detach().unwrap();
        println!("  leave: producer {id} detached (epoch {})", handle.epoch());
    }

    for p in producers {
        let id = p.id;
        p.thread.join().unwrap();
        println!("  done:  initial producer {id} finished");
    }

    stop.store(true, Ordering::SeqCst);
    let (received, seen) = consumer.join().unwrap();
    let total = sent.load(Ordering::SeqCst);
    assert_eq!(received, total, "values lost in flight");
    assert_eq!(seen.len() as u64, total);
    handle.close();

    println!(
        "ok: {received} values from {} producers across {} splices, \
         exactly once (final epoch {})",
        initial + joins,
        handle.epoch(),
        handle.epoch()
    );
}

//! The replicas the traced pass times must be the program's own runs:
//! for every algorithm on every workload, both the untraced and the
//! traced replica reproduce `run_once` exactly.

use std::cell::RefCell;
use std::rc::Rc;

use neko::Dur;
use perfbench::replica::{with_stack, Pool, Steady, SteadyReplay};
use perfbench::trace::{HandlerLedger, Layer};
use perfbench::workload::{Workload, WORKLOADS};
use study::{run_once, Algorithm};

const SEED: u64 = 5;

/// A workload's shape with a window no longer than a second:
/// group size, topology, rate, batching and fault script are what
/// the replica has to match.
fn short(w: Workload) -> Steady {
    let s = w.shape();
    Steady {
        warmup: Dur::from_millis(500),
        measure: s.measure.min(Dur::from_secs(1)),
        ..s
    }
}

#[test]
fn replicas_reproduce_run_once() {
    let mut pool = Pool::default();
    for w in WORKLOADS {
        let shape = short(w);
        let script = w.script();
        for alg in Algorithm::STUDY {
            let run = run_once(alg, &script, &shape.params(), SEED);
            assert!(run.measured > 0 && run.undelivered == 0);
            for traced in [false, true] {
                let ledger = Rc::new(RefCell::new(HandlerLedger::default()));
                let job = SteadyReplay {
                    shape: &shape,
                    script: &script,
                    seed: SEED,
                    pool: &mut pool,
                };
                let rep = with_stack(alg, shape.batching, traced.then_some(&ledger), job);
                let what = format!("{} {alg:?} traced={traced}", w.name());
                assert_eq!(rep.diff(&run), None, "{what}");
                assert_eq!(rep.verdict, Ok(()), "{what}");
                let l = ledger.borrow();
                if traced {
                    assert_eq!(l.sent(), run.net.send_calls, "{what}: sends by layer");
                    assert!(l.layer(Layer::Rbcast).calls > 0, "{what}");
                    assert_eq!(l.shell.calls > 0, shape.batching.is_some(), "{what}");
                    // Arrivals at a crashed process never reach a handler.
                    if script.events().is_empty() {
                        assert_eq!(l.payloads, rep.sim.abcasts, "{what}: every arrival counted");
                    } else {
                        assert!(l.payloads < rep.sim.abcasts, "{what}: arrivals while down");
                    }
                } else {
                    assert_eq!(
                        *l,
                        HandlerLedger::default(),
                        "{what}: untraced records nothing"
                    );
                }
            }
        }
    }
}

/// crash-recover-n5 exists for the fault paths the steady workloads
/// leave idle: every algorithm fails over and catches the recovered
/// process up, and no measured broadcast is lost.
#[test]
fn crash_recover_exercises_the_fault_paths() {
    let w = Workload::CrashRecoverN5;
    let shape = w.shape();
    let script = w.script();
    let mut pool = Pool::default();
    for alg in Algorithm::STUDY {
        let run = run_once(alg, &script, &shape.params(), SEED);
        assert!(run.measured > 100, "{alg:?}");
        assert_eq!(run.undelivered, 0, "{alg:?}");
        let ledger = Rc::new(RefCell::new(HandlerLedger::default()));
        let job = SteadyReplay {
            shape: &shape,
            script: &script,
            seed: SEED,
            pool: &mut pool,
        };
        let rep = with_stack(alg, None, Some(&ledger), job);
        assert_eq!(rep.diff(&run), None, "{alg:?}");
        let l = ledger.borrow();
        assert!(
            l.layer(Layer::Fd).calls > 0,
            "{alg:?}: failure detector events"
        );
        let fault_layer = match alg {
            Algorithm::Gm => Layer::Membership,
            _ => Layer::Repair,
        };
        assert!(
            l.layer(fault_layer).calls > 0,
            "{alg:?}: {fault_layer:?} handlers"
        );
    }
}

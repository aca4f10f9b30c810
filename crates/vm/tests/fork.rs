//! `Vm::fork` copies everything that determines the rest of a run: a
//! fork taken between any two scheduling rounds of a corpus program (or
//! of one more that draws random numbers),
//! driven by the same policy as the original, finishes in exactly the
//! original's final state — fingerprint, output, heap, report and trace.

use revmon_core::{InversionPolicy, Priority};
use revmon_vm::{assemble, RoundOutcome, RunReport, Vm, VmConfig};

const PROGRAMS: &[&str] = &[
    "counter",
    "deadlock",
    "dice",
    "delegation_storm",
    "nested_wait_revoke",
    "priority_inversion",
    "producer_consumer",
    "repeat_revocation",
    "volatile_revoke",
];

/// Not in the corpus: random draws interleaved with revocable sections,
/// so a fork must carry the RNG's position too.
const DICE: &str = "
.statics 1
.method worker params=1 locals=2
    const 0
    store l1
loop:
    load l1
    const 40
    if_ge done
    sync l0 {
        getstatic s0
        const 1000
        randint
        add
        putstatic s0
        const 3000
        work
    }
    const 6
    randint
    native emit
    load l1
    const 1
    add
    store l1
    goto loop
done:
    retvoid
.end
.method main params=0 locals=1
    new class=0 fields=0
    store l0
    load l0
    const 2
    spawn worker
    load l0
    const 8
    spawn worker
    join
    join
    getstatic s0
    native emit
    retvoid
.end
";

fn machine(name: &str, cores: usize) -> Vm {
    let src = if name == "dice" {
        DICE.to_string()
    } else {
        let path = format!("{}/../../programs/{name}.rvm", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
    };
    let program = assemble(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let entry = program.method_by_name("main").expect("corpus entry is main");
    let mut cfg = VmConfig::modified().with_cores(cores).with_trace();
    if name.starts_with("delegation") {
        cfg.policy = InversionPolicy::Delegation;
        cfg.barriers = false;
    }
    let mut vm = Vm::new(program, cfg);
    vm.spawn("main", entry, vec![], Priority::NORM);
    vm
}

/// Everything observable at the end of a run.
#[derive(Debug, PartialEq)]
struct Final {
    fingerprint: u64,
    output: Vec<String>,
    heap: u64,
    report: RunReport,
    trace: Vec<String>,
}

fn finish(mut vm: Vm) -> Final {
    let report = vm.run().expect("corpus program completes");
    Final {
        fingerprint: vm.state_fingerprint(),
        output: vm.output().iter().map(|v| v.to_string()).collect(),
        heap: vm.heap_fingerprint(),
        report,
        trace: vm.take_trace().iter().map(|r| format!("{r:?}")).collect(),
    }
}

fn fork(vm: &Vm) -> Vm {
    vm.fork(vm.config().scheduler.policy(), None)
}

#[test]
fn a_fork_at_every_round_finishes_like_the_original() {
    for name in PROGRAMS {
        for cores in [1, 2] {
            let want = finish(machine(name, cores));
            let mut vm = machine(name, cores);
            let mut round = 0;
            loop {
                let copy = fork(&vm);
                assert_eq!(
                    copy.state_fingerprint(),
                    vm.state_fingerprint(),
                    "{name}: round {round}"
                );
                let got = finish(copy);
                assert_eq!(got, want, "{name} on {cores} cores: fork before round {round}");
                if vm.run_round().expect("corpus program runs") == RoundOutcome::Done {
                    break;
                }
                round += 1;
            }
            assert!(round > 1, "{name}: the default schedule must take several rounds");
            if *name == "dice" {
                assert!(vm.rng_draws() > 40 && vm.report().global.rollbacks > 0, "{name}");
            }
        }
    }
}

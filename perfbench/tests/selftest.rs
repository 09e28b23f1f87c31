//! Tiny-size runs of every workload: each must pass its output checks,
//! report exactly its metric set, and produce the same outputs digest with
//! tracing off and on.

use perfbench::{run, Args, Size, END_TO_END, PER_LAYER};

fn check(workload: &str) {
    let mut digests = Vec::new();
    for trace in [false, true] {
        let args = Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.2,
            trace,
        };
        let outcome = run(&args, &Size::tiny());
        assert!(
            outcome.problems.is_empty(),
            "{workload} (trace {trace}): {:?}",
            outcome.problems
        );
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0);
        let mut names: Vec<&str> = outcome
            .metrics
            .0
            .iter()
            .map(|(n, _, _)| n.as_str())
            .collect();
        names.sort_unstable();
        let mut expected: Vec<&str> = if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        };
        expected.sort_unstable();
        assert_eq!(names, expected, "{workload} (trace {trace})");
        assert!(outcome.metrics.0.iter().all(|(_, v, _)| v.is_finite()));
        assert_eq!(outcome.recorder.is_some(), trace);
        digests.push(outcome.digest);
    }
    assert_eq!(
        digests[0], digests[1],
        "{workload}: tracing changed the outputs"
    );
}

#[test]
fn graph_beam_passes_its_checks() {
    check("graph_beam");
}

#[test]
fn op_serve_open_passes_its_checks() {
    check("op_serve_open");
}

#[test]
fn ppo_train_passes_its_checks() {
    check("ppo_train");
}

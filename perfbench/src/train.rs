//! PPO training from outside the trainer: the set-up training of the
//! serving workloads and the `ppo_train` workload itself.

use std::time::{Duration, Instant};

use mlir_rl_core::agent::{
    PolicyHyperparams, PolicyNetwork, PpoConfig, PpoTrainer, ValueNetwork, WeightSnapshot,
};
use mlir_rl_core::costmodel::{CostModel, MachineModel};
use mlir_rl_core::env::{EnvConfig, OptimizationEnv};
use mlir_rl_core::ir::Module;
use mlir_rl_core::search::SearchSpec;
use mlir_rl_core::{OptimizationRequest, OptimizationService, ServiceConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::serve::{self, Served};
use crate::stats::{self, Fnv};
use crate::trace::{Recorder, Traced, POLICY_BACKWARD, POLICY_FORWARD, POLICY_INFER};
use crate::{Args, Metrics, Outcome, Size};

/// What a trainer is built from.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub env: EnvConfig,
    pub hyper: PolicyHyperparams,
    pub ppo: PpoConfig,
    /// Seeds the network weights.
    pub init_seed: u64,
    /// Seeds the trainer's rollout sampling and minibatch order.
    pub run_seed: u64,
}

impl TrainSpec {
    /// A trainer around a policy wrapper that counts (and optionally
    /// records) policy calls.
    pub fn trainer(&self, recorder: Option<&Recorder>) -> PpoTrainer<Traced> {
        let mut init = ChaCha8Rng::seed_from_u64(self.init_seed);
        let policy = PolicyNetwork::new(self.env.clone(), self.hyper, &mut init);
        let value = ValueNetwork::new(&self.env, self.hyper, &mut init);
        let policy = match recorder {
            Some(recorder) => Traced::recording(policy, recorder.clone()),
            None => Traced::counting(policy),
        };
        let rng = ChaCha8Rng::seed_from_u64(self.run_seed);
        PpoTrainer::with_policy(policy, value, self.ppo, rng)
    }

    pub fn env(&self) -> OptimizationEnv {
        OptimizationEnv::new(self.env.clone(), CostModel::new(machine()))
    }
}

pub fn machine() -> MachineModel {
    MachineModel::xeon_e5_2680_v4()
}

/// One timed training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Iteration {
    pub secs: f64,
    pub steps: u64,
}

/// Runs one `train_iteration`, timing it and counting its environment
/// steps; with a recorder, the iteration becomes a `ppo.iteration` span that
/// parents the policy calls made inside it.
pub fn iterate(
    trainer: &mut PpoTrainer<Traced>,
    env: &mut OptimizationEnv,
    dataset: &[Module],
    recorder: Option<&Recorder>,
) -> Iteration {
    let index = trainer.history().len() as u64;
    let id = recorder.map(|r| {
        let id = r.reserve();
        r.set_context(id, index);
        id
    });
    let calls = trainer.policy.infer_calls();
    let start = Instant::now();
    trainer.train_iteration(env, dataset);
    let end = Instant::now();
    if let (Some(r), Some(id)) = (recorder, id) {
        r.record_as(id, "ppo.iteration", start, end, 0, index);
        r.set_context(0, 0);
    }
    Iteration {
        secs: end.duration_since(start).as_secs_f64(),
        steps: trainer.policy.infer_calls() - calls,
    }
}

/// Trains a policy for `iterations` iterations and returns it.
pub fn train_policy(
    spec: &TrainSpec,
    dataset: &[Module],
    iterations: usize,
    recorder: Option<&Recorder>,
) -> PolicyNetwork {
    let mut trainer = spec.trainer(recorder);
    let mut env = spec.env();
    for _ in 0..iterations {
        iterate(&mut trainer, &mut env, dataset, recorder);
    }
    trainer.policy.inner
}

/// Splits the recorded `ppo.iteration` spans into rollout collection (up
/// to the first batched forward pass), policy forward and backward passes,
/// and the rest (value network, Adam, GAE). Returns the seconds and count of
/// the policy inference calls made inside the iterations.
pub fn ppo_layers(metrics: &mut Metrics, recorder: &Recorder) -> (f64, usize) {
    let spans = recorder.spans();
    let (mut collect, mut forward, mut backward, mut total) = (0.0, 0.0, 0.0, 0.0);
    let (mut infer, mut infer_calls) = (0.0, 0);
    for it in spans.iter().filter(|s| s.name == "ppo.iteration") {
        let children: Vec<_> = spans.iter().filter(|s| s.parent == it.id).collect();
        let first_forward = children
            .iter()
            .filter(|s| s.name == POLICY_FORWARD)
            .map(|s| s.start_ns)
            .min()
            .unwrap_or(it.end_ns);
        collect += (first_forward - it.start_ns) as f64 * 1e-9;
        let sum = |name: &str| -> f64 {
            children
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.secs())
                .sum()
        };
        forward += sum(POLICY_FORWARD);
        infer += sum(POLICY_INFER);
        infer_calls += children.iter().filter(|s| s.name == POLICY_INFER).count();
        backward += sum(POLICY_BACKWARD);
        total += it.secs();
    }
    metrics.push("ppo.collect_s", collect, "s");
    metrics.push("ppo.forward_s", forward, "s");
    metrics.push("ppo.backward_s", backward, "s");
    metrics.push(
        "ppo.rest_s",
        (total - collect - forward - backward).max(0.0),
        "s",
    );
    (infer, infer_calls)
}

// ---------------------------------------------------------------------------
// ppo_train
// ---------------------------------------------------------------------------

/// Iterations after which the policy is fingerprinted and evaluated, so the
/// digest and the speedups do not depend on how many iterations fit in the
/// run.
const EVAL_AT: usize = 2;

/// Iteration time within which an iteration counts toward `slo_met_share`.
const ITERATION_LIMIT: Duration = Duration::from_secs(10);

fn ppo_spec(size: &Size) -> TrainSpec {
    TrainSpec {
        env: EnvConfig::small(),
        hyper: size.ppo_hyper,
        ppo: PpoConfig {
            trajectories_per_iteration: size.ppo_trajectories,
            minibatch_size: 32,
            update_epochs: 2,
            ..PpoConfig::paper()
        }
        .with_rollout_workers(mlir_rl_core::agent::default_rollout_workers()),
        init_seed: 0x7070,
        run_seed: 0x7071,
    }
}

/// The paper's training loop at paper width on a small mixed dataset: PPO
/// iterations for the run's length, a greedy `evaluate` pass on the
/// evaluation operators after [`EVAL_AT`] iterations, and a deployment
/// check that a 2-worker service answers greedy requests with exactly the
/// speedups `evaluate` reported.
pub fn ppo_train(args: &Args, size: &Size) -> Outcome {
    let recorder = args.trace.then(Recorder::new);
    // A fixed job: dataset, initial weights and rollout seed do not depend
    // on the run's seed. Seeded rollouts would change the episodes sampled,
    // hence the steps per iteration and, after two updates, the greedy
    // policy itself, by more than any bound this benchmark could hold; the
    // serving workloads draw their inputs from the seed instead. Every
    // iteration collects one episode of each dataset module, so iterations
    // are comparable within and across runs.
    let spec = ppo_spec(size);
    let eval: Vec<Module> = mlir_rl_core::workloads::evaluation_benchmark()
        .into_iter()
        .map(|(_, m)| m)
        .take(size.ppo_eval_modules)
        .collect();

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..size.setup_repeats {
        let start = Instant::now();
        let corpus = mlir_rl_core::workloads::full_training_dataset(size.ppo_dataset_scale, 0x7070);
        let dataset: Vec<Module> = (0..size.ppo_trajectories)
            .map(|i| corpus[i * corpus.len() / size.ppo_trajectories].clone())
            .collect();
        let trainer = spec.trainer(recorder.as_ref());
        let env = spec.env();
        setups.push(stats::secs(start));
        built = Some((dataset, trainer, env));
    }
    let (dataset, mut trainer, mut env) = built.expect("at least one set-up");

    let mut iterations = Vec::new();
    let mut snapshot = None;
    let start = Instant::now();
    while iterations.len() < EVAL_AT || stats::secs(start) < args.seconds {
        iterations.push(iterate(&mut trainer, &mut env, &dataset, recorder.as_ref()));
        if iterations.len() == EVAL_AT {
            let mut eval_env = spec.env();
            let episodes = trainer.evaluate(&mut eval_env, &eval);
            snapshot = Some((trainer.policy.inner.clone(), episodes));
        }
    }
    let (mut policy, episodes) = snapshot.expect("evaluated");

    // Deploy the evaluated policy and check the service agrees with
    // `evaluate` bit for bit.
    let service = OptimizationService::new(
        ServiceConfig {
            env: spec.env.clone(),
            ..ServiceConfig::quick()
        }
        .with_workers(2),
        policy.clone(),
    );
    let served = serve::closed_loop(
        &service,
        |i| OptimizationRequest::new(eval[i].clone(), SearchSpec::Greedy),
        2,
        0.0,
        eval.len(),
    );
    let mut problems = Vec::new();
    if let Err(e) = serve::check_responses(&served, &spec.env, &machine())
        .and_then(|()| serve::check_quiescence(&service, &served))
    {
        problems.push(e);
    }
    for (s, episode) in served.iter().zip(&episodes) {
        let agrees = s.response.outcome.as_ref().is_some_and(|o| {
            o.speedup.to_bits() == episode.speedup.to_bits()
                && o.best_s.to_bits() == episode.final_s.to_bits()
        });
        if !agrees {
            problems.push(format!(
                "{}: served greedy speedup {} but evaluate gave {}",
                s.request.module.name(),
                s.response.speedup(),
                episode.speedup
            ));
        }
    }

    let mut digest = Fnv::new();
    digest.write_u64(policy.weights_fingerprint());
    for episode in &episodes {
        digest.write_u64(episode.speedup.to_bits());
    }

    let mut metrics = Metrics::default();
    let mut tail_label = String::new();
    if let Some(recorder) = &recorder {
        let (infer_s, infer_calls) = ppo_layers(&mut metrics, recorder);
        metrics.push("policy.calls", infer_calls as f64, "count");
        metrics.push("policy.s", infer_s, "s");
        metrics.push(
            "policy.us_per_call",
            infer_s * 1e6 / infer_calls.max(1) as f64,
            "us",
        );
        train_cache_layers(&mut metrics, &env);
        let policy_spans = recorder.span_count();
        let train_s: f64 = iterations.iter().map(|i| i.secs).sum();
        let overhead = policy_spans as f64 * Recorder::cost_per_span() / train_s;
        deployment_layers(&mut metrics, &service, &served, &policy, &spec, recorder)
            .unwrap_or_else(|e| problems.push(e));
        metrics.push("trace.overhead_share", overhead, "share");
        let (collect, forward, backward, rest) = (
            metrics.get("ppo.collect_s"),
            metrics.get("ppo.forward_s"),
            metrics.get("ppo.backward_s"),
            metrics.get("ppo.rest_s"),
        );
        // The share of iteration time no policy span covers: the value
        // network, Adam and GAE, attributed by elimination.
        metrics.push(
            "trace.unattributed_share",
            rest / (collect + forward + backward + rest),
            "share",
        );
    } else {
        let secs: Vec<f64> = iterations.iter().map(|i| i.secs).collect();
        let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
        let steps: u64 = iterations.iter().map(|i| i.steps).sum();
        let (label, tail) = stats::tail(&ms);
        tail_label = label;
        let met = secs
            .iter()
            .filter(|s| **s <= ITERATION_LIMIT.as_secs_f64())
            .count();
        metrics.push(
            "throughput_per_s",
            steps as f64 / secs.iter().sum::<f64>(),
            "1/s",
        );
        metrics.push("latency_p50_ms", stats::median(&ms), "ms");
        metrics.push("latency_tail_ms", tail, "ms");
        metrics.push("slo_met_share", met as f64 / secs.len() as f64, "share");
        metrics.push(
            "geomean_speedup",
            stats::geomean(episodes.iter().map(|e| e.speedup)),
            "x",
        );
        metrics.push("setup_s", stats::median(&setups), "s");
        metrics.push("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    let failed = served.iter().filter(|s| !s.completed()).count();
    Outcome {
        problems,
        attempted: (iterations.len() + served.len()) as u64,
        failed: failed as u64,
        metrics,
        digest: digest.finish(),
        tail_label,
        notes: vec![
            ("iterations".into(), iterations.len().to_string()),
            (
                "steps".into(),
                iterations.iter().map(|i| i.steps).sum::<u64>().to_string(),
            ),
            ("dataset_modules".into(), dataset.len().to_string()),
            (
                "iteration_ms_steps".into(),
                iterations
                    .iter()
                    .map(|i| format!("{:.0}/{}", i.secs * 1e3, i.steps))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
            ("latency_unit".into(), "one PPO iteration".into()),
            (
                "slo_limit_ms".into(),
                ITERATION_LIMIT.as_millis().to_string(),
            ),
        ],
        recorder,
    }
}

/// Cache and estimator numbers of the training environment. Parallel
/// rollouts share one table, whose counters cover every worker.
fn train_cache_layers(metrics: &mut Metrics, env: &OptimizationEnv) {
    let cache = env.cache();
    let (hits, misses, insertions, evictions) = match cache.shared_backend() {
        Some(b) => (b.hits(), b.misses(), b.insertions(), b.evictions()),
        None => (cache.hits(), cache.misses(), cache.misses(), 0),
    };
    metrics.push("cache.lookups", (hits + misses) as f64, "count");
    metrics.push(
        "cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "share",
    );
    metrics.push("cache.insertions", insertions as f64, "count");
    metrics.push("cache.evictions", evictions as f64, "count");
    metrics.push("cache.len", cache.len() as f64, "count");
    metrics.push("estimator.calls", misses as f64, "count");
}

/// Service, search, transforms, env and estimator numbers of the
/// deployment check, measured like the serving workloads measure them.
fn deployment_layers(
    metrics: &mut Metrics,
    service: &OptimizationService,
    served: &[Served],
    policy: &PolicyNetwork,
    spec: &TrainSpec,
    recorder: &Recorder,
) -> Result<(), String> {
    let mut deployment = Metrics::default();
    serve::traced_layers(
        &mut deployment,
        service,
        served,
        served.len(),
        policy,
        &spec.env,
        &machine(),
        recorder,
    )?;
    for (name, value, unit) in deployment.0 {
        // Training measures these on the training environment instead.
        let from_training = name.starts_with("cache.")
            || name.starts_with("policy.")
            || name.starts_with("trace.")
            || name == "estimator.calls"
            || name == "estimator.s";
        if !from_training {
            metrics.push(&name, value, unit);
        }
    }
    // Estimator time of training: per-call cost times training's misses.
    let misses = metrics.get("estimator.calls");
    let per_call = metrics.get("estimator.us_per_call");
    metrics.push("estimator.s", per_call * 1e-6 * misses, "s");
    Ok(())
}

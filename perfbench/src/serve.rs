//! Load generators in front of an [`OptimizationService`], the output
//! checks every served response must pass, and the single-thread replay
//! that splits served search time into layers for the traced run.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mlir_rl_core::agent::PolicyNetwork;
use mlir_rl_core::costmodel::{CostModel, MachineModel};
use mlir_rl_core::env::{extract_features, ActionHistory, EnvConfig, OptimizationEnv};
use mlir_rl_core::search::StopToken;
use mlir_rl_core::transforms::Schedule;
use mlir_rl_core::{
    OptimizationRequest, OptimizationResponse, OptimizationService, PendingResponse, ResponseStatus,
};

use crate::stats::{self, Fnv};
use crate::trace::{Recorder, Traced, POLICY_INFER};
use crate::Metrics;

/// Longest the generator waits on its oldest outstanding request before it
/// polls the others. The wait ends early when the oldest answers, so only
/// the others are timed up to this late. Every wake-up can preempt a
/// service worker on a 2-core machine: polling every 250 us, the generator
/// woke 3000 times a second and preempted each worker 1500 times a second.
const POLL: Duration = Duration::from_millis(1);

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    pub request: OptimizationRequest,
    pub response: OptimizationResponse,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    pub sent: Instant,
    /// Time spent inside `submit`.
    pub submit_s: f64,
    /// When the generator saw the response.
    pub done: Instant,
}

impl Served {
    /// Latency from due time to response, seconds.
    pub fn latency_s(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64()
    }

    pub fn completed(&self) -> bool {
        self.response.status == ResponseStatus::Completed
    }
}

struct Outstanding {
    index: usize,
    request: OptimizationRequest,
    due: Instant,
    sent: Instant,
    submit_s: f64,
    pending: PendingResponse,
}

fn send(
    service: &OptimizationService,
    index: usize,
    request: OptimizationRequest,
    due: Instant,
) -> Outstanding {
    let sent = Instant::now();
    let pending = service.submit(request.clone());
    let submit_s = stats::secs(sent);
    Outstanding {
        index,
        request,
        due,
        sent,
        submit_s,
        pending,
    }
}

/// Moves every finished request from `outstanding` into `finished`;
/// returns whether any finished.
fn harvest(outstanding: &mut Vec<Outstanding>, finished: &mut Vec<(usize, Served)>) -> bool {
    let before = outstanding.len();
    let mut i = 0;
    while i < outstanding.len() {
        if let Some(response) = outstanding[i].pending.try_response() {
            let done = Instant::now();
            let o = outstanding.swap_remove(i);
            finished.push((
                o.index,
                Served {
                    request: o.request,
                    response,
                    due: o.due,
                    sent: o.sent,
                    submit_s: o.submit_s,
                    done,
                },
            ));
        } else {
            i += 1;
        }
    }
    outstanding.len() != before
}

fn in_order(mut finished: Vec<(usize, Served)>) -> Vec<Served> {
    finished.sort_by_key(|(index, _)| *index);
    finished.into_iter().map(|(_, s)| s).collect()
}

/// Closed loop: keeps `clients` requests outstanding and sends the next one
/// as soon as *any* outstanding request completes. Sends until `seconds`
/// have passed and at least `min_requests` were sent, then drains.
pub fn closed_loop(
    service: &OptimizationService,
    mut next: impl FnMut(usize) -> OptimizationRequest,
    clients: usize,
    seconds: f64,
    min_requests: usize,
) -> Vec<Served> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut outstanding: Vec<Outstanding> = Vec::with_capacity(clients);
    let mut finished = Vec::new();
    let mut sent = 0;
    loop {
        while outstanding.len() < clients && (Instant::now() < deadline || sent < min_requests) {
            let now = Instant::now();
            outstanding.push(send(service, sent, next(sent), now));
            sent += 1;
        }
        if outstanding.is_empty() {
            break;
        }
        if !harvest(&mut outstanding, &mut finished) {
            // Sleep until the oldest request answers or the poll interval
            // passes, whichever is first; the rest are polled after.
            outstanding[0].pending.wait_timeout(POLL);
        }
    }
    in_order(finished)
}

/// What the open-loop generator saw of its own timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    pub p99_ms: f64,
    pub max_ms: f64,
}

/// Open loop: sends each request at its due offset from the start,
/// whatever is outstanding, polling for completions in between.
pub fn open_loop(
    service: &OptimizationService,
    arrivals: Vec<(Duration, OptimizationRequest)>,
) -> (Vec<Served>, Lateness) {
    let start = Instant::now();
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let mut finished = Vec::with_capacity(arrivals.len());
    let mut late_ms = Vec::with_capacity(arrivals.len());
    let mut arrivals = arrivals.into_iter().enumerate().peekable();
    loop {
        let now = Instant::now();
        if let Some((_, (offset, _))) = arrivals.peek() {
            let due = start + *offset;
            if now >= due {
                let (index, (_, request)) = arrivals.next().expect("peeked");
                late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                outstanding.push(send(service, index, request, due));
                continue;
            }
        }
        harvest(&mut outstanding, &mut finished);
        let next_due = arrivals.peek().map(|(_, (offset, _))| start + *offset);
        match next_due {
            None if outstanding.is_empty() => break,
            None => {
                outstanding[0].pending.wait_timeout(POLL);
            }
            Some(due) => {
                let now = Instant::now();
                if due > now {
                    match outstanding.first() {
                        Some(oldest) => {
                            oldest.pending.wait_timeout((due - now).min(POLL));
                        }
                        None => std::thread::sleep(due - now),
                    }
                }
            }
        }
    }
    let lateness = Lateness {
        p99_ms: stats::tail_at(&late_ms, 99.0),
        max_ms: late_ms.iter().copied().fold(0.0, f64::max),
    };
    (in_order(finished), lateness)
}

/// Replays `actions` on a fresh, cache-less episode of `module`.
fn replay_actions(
    config: &EnvConfig,
    machine: &MachineModel,
    module: &mlir_rl_core::ir::Module,
    actions: &[mlir_rl_core::env::Action],
) -> OptimizationEnv {
    let mut env = OptimizationEnv::new(config.clone(), CostModel::new(machine.clone()));
    env.reset(module.clone());
    for action in actions {
        env.step(action);
    }
    env
}

fn schedules(env: &OptimizationEnv) -> Vec<Schedule> {
    env.scheduled()
        .map(|s| s.states().iter().map(|st| st.schedule.clone()).collect())
        .unwrap_or_default()
}

/// Checks every completed response against an independent recomputation:
/// its actions are replayed on a fresh environment and the baseline and
/// best times are re-estimated without any cache, bit for bit. Requests
/// that appear more than once must get identical fingerprints.
pub fn check_responses(
    served: &[Served],
    config: &EnvConfig,
    machine: &MachineModel,
) -> Result<(), String> {
    let model = CostModel::new(machine.clone());
    let mut seen: HashMap<String, u64> = HashMap::new();
    for (index, s) in served.iter().enumerate() {
        if !s.completed() {
            continue;
        }
        let outcome = s
            .response
            .outcome
            .as_ref()
            .ok_or_else(|| format!("request {index}: completed without an outcome"))?;
        let module = &s.request.module;
        let env = replay_actions(config, machine, module, &outcome.best_actions);
        let scheduled = env
            .scheduled()
            .ok_or_else(|| format!("request {index}: replay left no episode"))?;
        let best_s = model.estimate_scheduled(scheduled).total_s;
        let baseline_s = model.estimate_baseline(module).total_s;
        if best_s.to_bits() != outcome.best_s.to_bits() {
            return Err(format!(
                "request {index} ({}): best_s {} but replay gives {best_s}",
                module.name(),
                outcome.best_s
            ));
        }
        if baseline_s.to_bits() != outcome.baseline_s.to_bits() {
            return Err(format!(
                "request {index} ({}): baseline_s {} but re-estimate gives {baseline_s}",
                module.name(),
                outcome.baseline_s
            ));
        }
        if (baseline_s / best_s).to_bits() != outcome.speedup.to_bits() {
            return Err(format!("request {index}: speedup is not baseline/best"));
        }
        if schedules(&env) != outcome.best_schedule {
            return Err(format!(
                "request {index}: best_schedule differs from replay"
            ));
        }
        let key = format!("{}|{:?}|{}", module.name(), s.request.spec, s.request.seed);
        let fp = s.response.fingerprint();
        if *seen.entry(key).or_insert(fp) != fp {
            return Err(format!(
                "request {index}: a repeated request answered differently"
            ));
        }
    }
    Ok(())
}

/// Checks the service's accounting at quiescence: every submit resolved
/// exactly once, nothing left queued, and the cache's hit and miss
/// counters equal to the lookups the responses report.
pub fn check_quiescence(service: &OptimizationService, served: &[Served]) -> Result<(), String> {
    let st = service.stats();
    let resolved = st.completed + st.stopped + st.skipped + st.rejected;
    if st.submitted != resolved || st.submitted != served.len() as u64 || st.pending != 0 {
        return Err(format!(
            "accounting: submitted {} resolved {resolved} sent {} pending {}",
            st.submitted,
            served.len(),
            st.pending
        ));
    }
    let lookups: u64 = served
        .iter()
        .map(|s| s.response.total_lookups() as u64)
        .sum();
    let misses: u64 = served.iter().map(|s| s.response.evaluations as u64).sum();
    if st.cache_hits + st.cache_misses != lookups || st.cache_misses != misses {
        return Err(format!(
            "cache accounting: hits {} + misses {} vs lookups {lookups} (misses {misses})",
            st.cache_hits, st.cache_misses
        ));
    }
    Ok(())
}

/// Hash of the response fingerprints of the first `prefix` requests, in
/// request order.
pub fn digest(served: &[Served], prefix: usize) -> u64 {
    let mut h = Fnv::new();
    for s in served.iter().take(prefix) {
        h.write_u64(s.response.fingerprint());
    }
    h.finish()
}

/// Geometric mean speedup of the first `prefix` requests.
pub fn geomean(served: &[Served], prefix: usize) -> f64 {
    stats::geomean(served.iter().take(prefix).map(|s| s.response.speedup()))
}

/// Percentile the serving workloads' latency tail is taken at in each
/// window. It is fixed rather than the highest with ten samples beyond it,
/// so that a faster service, which fits more requests into a closed loop's
/// run, is not measured at a higher percentile. The windows hold 130-160
/// (`op_serve_open`) or about 400 (`graph_beam`) requests, which leaves at
/// least ten beyond it.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// End-to-end metrics every serving workload reports. Throughput counts the
/// requests completed within `window` of the first due time; latencies
/// cover every request, and the tail is the median over `tail_windows`
/// windows of due time of each window's [`TAIL_PERCENTILE`].
pub fn end_to_end(
    metrics: &mut Metrics,
    served: &[Served],
    slo: Duration,
    window: Duration,
    tail_windows: usize,
) -> String {
    let first = served.iter().map(|s| s.due).min().expect("served requests");
    let in_window = served
        .iter()
        .filter(|s| s.completed() && s.done <= first + window)
        .count();
    let latencies: Vec<f64> = served.iter().map(|s| s.latency_s() * 1e3).collect();
    let timed: Vec<(f64, f64)> = served
        .iter()
        .zip(&latencies)
        .map(|(s, ms)| (s.due.duration_since(first).as_secs_f64(), *ms))
        .collect();
    let (tail_label, tail) =
        stats::windowed_percentile(&timed, window.as_secs_f64(), tail_windows, TAIL_PERCENTILE);
    let met = served
        .iter()
        .filter(|s| s.completed() && s.latency_s() <= slo.as_secs_f64())
        .count();
    metrics.push(
        "throughput_per_s",
        in_window as f64 / window.as_secs_f64(),
        "1/s",
    );
    metrics.push("latency_p50_ms", stats::median(&latencies), "ms");
    metrics.push("latency_tail_ms", tail, "ms");
    metrics.push("slo_met_share", met as f64 / served.len() as f64, "share");
    tail_label
}

/// Per-layer numbers of the service itself, from the client's clocks and
/// the durations each response reports.
pub fn service_layers(metrics: &mut Metrics, service: &OptimizationService, served: &[Served]) {
    let ms = |f: fn(&Served) -> f64| -> Vec<f64> { served.iter().map(f).collect() };
    let submit_us = ms(|s| s.submit_s * 1e6);
    let queue_ms = ms(|s| s.response.queue_s * 1e3);
    let run_ms = ms(|s| s.response.service_s * 1e3);
    let m = service.metrics();
    metrics.push("service.submit_us_p50", stats::median(&submit_us), "us");
    metrics.push("service.queue_ms_p50", stats::median(&queue_ms), "ms");
    metrics.push("service.queue_ms_tail", stats::tail(&queue_ms).1, "ms");
    metrics.push("service.run_ms_p50", stats::median(&run_ms), "ms");
    metrics.push("service.run_ms_tail", stats::tail(&run_ms).1, "ms");
    metrics.push("service.rejected", m.rejected as f64, "count");
    metrics.push(
        "service.queue_high_water",
        m.queue_high_water as f64,
        "count",
    );
    metrics.push(
        "search.nodes_expanded",
        served
            .iter()
            .filter_map(|s| s.response.outcome.as_ref())
            .map(|o| o.nodes_expanded as f64)
            .sum(),
        "count",
    );
    let cache = service.cache();
    let lookups = cache.hits() + cache.misses();
    metrics.push("cache.lookups", lookups as f64, "count");
    metrics.push(
        "cache.hit_rate",
        cache.hits() as f64 / lookups.max(1) as f64,
        "share",
    );
    metrics.push("cache.insertions", cache.insertions() as f64, "count");
    metrics.push("cache.evictions", cache.evictions() as f64, "count");
    metrics.push("cache.len", cache.len() as f64, "count");
    metrics.push("estimator.calls", cache.misses() as f64, "count");
}

/// Records each served request as a `request` span with its `submit`,
/// `queue` and `run` children. Queue and run take their durations from the
/// response and are laid end to end after the submit; the rest of the
/// request span is what no layer accounts for.
pub fn record_request_spans(recorder: &Recorder, served: &[Served]) -> f64 {
    let mut total = 0.0;
    let mut covered = 0.0;
    for (index, s) in served.iter().enumerate() {
        let request = index as u64;
        let id = recorder.reserve();
        recorder.record_as(id, "request", s.due, s.done, 0, request);
        let submitted = s.sent + Duration::from_secs_f64(s.submit_s);
        let queued = submitted + Duration::from_secs_f64(s.response.queue_s);
        let ran = queued + Duration::from_secs_f64(s.response.service_s);
        recorder.record("service.submit", s.sent, submitted, id, request);
        recorder.record("service.queue", submitted, queued, id, request);
        recorder.record("service.run", queued, ran, id, request);
        total += s.latency_s();
        covered += s.submit_s + s.response.queue_s + s.response.service_s;
    }
    ((total - covered) / total.max(f64::MIN_POSITIVE)).max(0.0)
}

/// Per-call costs of the layers below search, measured on the schedules the
/// workload returned.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCosts {
    pub lower_us: f64,
    pub step_us: f64,
    pub features_us: f64,
    pub estimate_us: f64,
}

/// Times `ScheduledModule::lower`, `OptimizationEnv::step` (on a warm
/// cache, so the estimator is excluded), `extract_features` and an uncached
/// `CostModel::estimate_scheduled` on the returned schedules.
pub fn layer_costs(served: &[Served], config: &EnvConfig, machine: &MachineModel) -> LayerCosts {
    let model = CostModel::new(machine.clone());
    let (mut lower, mut lowers) = (0.0, 0usize);
    let (mut step, mut steps) = (0.0, 0usize);
    let (mut features, mut feature_calls) = (0.0, 0usize);
    let (mut estimate, mut estimates) = (0.0, 0usize);
    for s in served.iter().filter(|s| s.completed()) {
        let outcome = s.response.outcome.as_ref().expect("completed");
        let module = &s.request.module;
        let mut env = replay_actions(config, machine, module, &outcome.best_actions);
        env.reset(module.clone());
        for action in &outcome.best_actions {
            let t = Instant::now();
            std::hint::black_box(env.step(std::hint::black_box(action)));
            step += stats::secs(t);
            steps += 1;
        }
        let scheduled = env.scheduled().expect("replayed episode");
        let history = ActionHistory::new();
        for op in scheduled.live_ops() {
            let t = Instant::now();
            std::hint::black_box(scheduled.lower(op));
            lower += stats::secs(t);
            lowers += 1;
            let t = Instant::now();
            std::hint::black_box(extract_features(scheduled, op, &history, config));
            features += stats::secs(t);
            feature_calls += 1;
        }
        let t = Instant::now();
        std::hint::black_box(model.estimate_scheduled(scheduled));
        estimate += stats::secs(t);
        estimates += 1;
    }
    let per = |t: f64, n: usize| t * 1e6 / n.max(1) as f64;
    LayerCosts {
        lower_us: per(lower, lowers),
        step_us: per(step, steps),
        features_us: per(features, feature_calls),
        estimate_us: per(estimate, estimates),
    }
}

/// What the single-thread replay of served requests measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    pub cold_s: f64,
    pub warm_s: f64,
    pub cold_misses: u64,
    /// Misses of the warm pass; 0 unless the replay cache evicted.
    pub warm_misses: u64,
    pub policy_calls: usize,
    pub policy_s: f64,
}

/// Replays `served` twice on one thread through `SearchSpec::build` and
/// `search_with_stop`, with a policy that records a span per call: first on
/// a cold cache, then again on the same, now warm, cache. Every replayed
/// outcome must equal the served one.
pub fn replay(
    served: &[Served],
    policy: &PolicyNetwork,
    config: &EnvConfig,
    machine: &MachineModel,
    recorder: &Recorder,
) -> Result<Replay, String> {
    let mut env = OptimizationEnv::new(config.clone(), CostModel::new(machine.clone()));
    env.enable_shared_cache();
    let mut traced = Traced::recording(policy.clone(), recorder.clone());
    let mut pass = |name: &'static str, env: &mut OptimizationEnv| -> Result<f64, String> {
        let mut total = 0.0;
        for (index, s) in served.iter().enumerate().filter(|(_, s)| s.completed()) {
            let served_outcome = s.response.outcome.as_ref().expect("completed");
            let searcher = s.request.spec.build::<Traced>();
            let id = recorder.reserve();
            recorder.set_context(id, index as u64);
            let start = Instant::now();
            let outcome = searcher.search_with_stop(
                env,
                &mut traced,
                &s.request.module,
                s.request.seed,
                1,
                &StopToken::new(),
            );
            let end = Instant::now();
            recorder.record_as(id, name, start, end, 0, index as u64);
            total += end.duration_since(start).as_secs_f64();
            if outcome.best_s.to_bits() != served_outcome.best_s.to_bits()
                || outcome.best_actions != served_outcome.best_actions
            {
                return Err(format!(
                    "request {index} ({}): replay differs from the served outcome",
                    s.request.module.name()
                ));
            }
        }
        Ok(total)
    };
    let misses_before = env.cache().misses();
    let (policy_before, calls_before) = recorder.total(POLICY_INFER);
    let cold_s = pass("replay.cold", &mut env)?;
    let (policy_after, calls_after) = recorder.total(POLICY_INFER);
    let cold_misses = env.cache().misses() - misses_before;
    let warm_s = pass("replay.warm", &mut env)?;
    Ok(Replay {
        cold_s,
        warm_s,
        cold_misses,
        warm_misses: env.cache().misses() - misses_before - cold_misses,
        policy_calls: calls_after - calls_before,
        policy_s: policy_after - policy_before,
    })
}

/// Per-layer metrics of the traced serving run: service, search, policy,
/// cache, estimator, transforms, env and the trace's own cost.
#[allow(clippy::too_many_arguments)]
pub fn traced_layers(
    metrics: &mut Metrics,
    service: &OptimizationService,
    served: &[Served],
    replay_prefix: usize,
    policy: &PolicyNetwork,
    config: &EnvConfig,
    machine: &MachineModel,
    recorder: &Recorder,
) -> Result<(), String> {
    service_layers(metrics, service, served);
    let unattributed = record_request_spans(recorder, served);
    let sample = &served[..replay_prefix.min(served.len())];
    let spans_before = recorder.span_count();
    let replayed = replay(sample, policy, config, machine, recorder)?;
    let wrapper_spans = recorder.span_count() - spans_before;
    let costs = layer_costs(sample, config, machine);
    let estimator_cold_s = costs.estimate_us * 1e-6 * replayed.cold_misses as f64;
    let misses = service.cache().misses() as f64;
    metrics.push(
        "search.self_s",
        (replayed.cold_s - replayed.policy_s - estimator_cold_s).max(0.0),
        "s",
    );
    metrics.push("policy.calls", replayed.policy_calls as f64, "count");
    metrics.push("policy.s", replayed.policy_s, "s");
    metrics.push(
        "policy.us_per_call",
        replayed.policy_s * 1e6 / replayed.policy_calls.max(1) as f64,
        "us",
    );
    metrics.push("estimator.us_per_call", costs.estimate_us, "us");
    metrics.push("estimator.s", costs.estimate_us * 1e-6 * misses, "s");
    metrics.push(
        "estimator.cold_minus_warm_s",
        replayed.cold_s - replayed.warm_s,
        "s",
    );
    metrics.push("transforms.lower_us", costs.lower_us, "us");
    metrics.push("env.step_us", costs.step_us, "us");
    metrics.push("env.features_us", costs.features_us, "us");
    let overhead = wrapper_spans as f64 * Recorder::cost_per_span()
        / (replayed.cold_s + replayed.warm_s).max(f64::MIN_POSITIVE);
    metrics.push("trace.overhead_share", overhead, "share");
    metrics.push("trace.unattributed_share", unattributed, "share");
    eprintln!(
        "replay of {} requests: cold {:.3}s ({} misses, policy {:.3}s, estimator {:.3}s), \
         warm {:.3}s ({} misses)",
        sample.len(),
        replayed.cold_s,
        replayed.cold_misses,
        replayed.policy_s,
        estimator_cold_s,
        replayed.warm_s,
        replayed.warm_misses
    );
    Ok(())
}

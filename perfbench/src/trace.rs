//! In-memory span recording from the benchmark's side of each layer
//! boundary, and a [`PolicyModel`] wrapper that records one span per policy
//! call. Nothing here reaches into library code: spans are taken around
//! public calls only, and the wrapper forwards every call unchanged, so a
//! traced run computes bit-identical results.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mlir_rl_core::agent::{ActionRecord, GroupResult, InferenceGroup, PolicyModel, PolicyNetwork};
use mlir_rl_core::env::{Observation, ObservationBatch};
use mlir_rl_core::nn::Param;
use rand_chacha::ChaCha8Rng;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span, 0 at top level.
    pub parent: u64,
    /// The request (or training iteration) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// Parent and request id stamped on spans the policy wrapper records.
    context: Mutex<(u64, u64)>,
}

/// Shared span store; clones record into the same store.
#[derive(Debug, Clone)]
pub struct Recorder(Arc<Inner>);

impl Recorder {
    pub fn new() -> Self {
        Self(Arc::new(Inner {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            context: Mutex::new((0, 0)),
        }))
    }

    /// Nanoseconds of `at` since the epoch (0 for instants before it).
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.0.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        let id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            request,
        };
        self.0.spans.lock().expect("span store poisoned").push(span);
        id
    }

    /// Reserves an id for a span whose interval is recorded later with
    /// [`Recorder::record_as`], so children can name it as their parent.
    pub fn reserve(&self) -> u64 {
        self.0.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished interval under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) {
        let span = Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            request,
        };
        self.0.spans.lock().expect("span store poisoned").push(span);
    }

    /// Sets the parent span and request id for policy-call spans.
    pub fn set_context(&self, parent: u64, request: u64) {
        *self.0.context.lock().expect("span context poisoned") = (parent, request);
    }

    fn context(&self) -> (u64, u64) {
        *self.0.context.lock().expect("span context poisoned")
    }

    pub fn spans(&self) -> Vec<Span> {
        self.0.spans.lock().expect("span store poisoned").clone()
    }

    /// Total seconds of the spans named `name`, and their count.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let spans = self.0.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
    }

    pub fn span_count(&self) -> usize {
        self.0.spans.lock().expect("span store poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request
            )?;
        }
        out.flush()
    }

    /// Measured cost of recording one span, in seconds.
    pub fn cost_per_span() -> f64 {
        const N: u32 = 20_000;
        let scratch = Recorder::new();
        let start = Instant::now();
        for i in 0..N {
            let now = Instant::now();
            scratch.record("calibrate", now, Instant::now(), 0, u64::from(i));
        }
        start.elapsed().as_secs_f64() / f64::from(N)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Span names of policy calls, grouped by what the trainer or searcher
/// asked the network for.
pub const POLICY_INFER: &str = "policy.infer";
pub const POLICY_FORWARD: &str = "policy.forward";
pub const POLICY_BACKWARD: &str = "policy.backward";

/// A policy that forwards every call to the wrapped network, counts its
/// inference calls (one per environment step during rollout collection) and,
/// when given a recorder, records a span around every call.
#[derive(Debug, Clone)]
pub struct Traced {
    pub inner: PolicyNetwork,
    recorder: Option<Recorder>,
    infer_calls: Arc<AtomicU64>,
}

impl Traced {
    /// Counts inference calls and records nothing.
    pub fn counting(inner: PolicyNetwork) -> Self {
        Self {
            inner,
            recorder: None,
            infer_calls: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Counts inference calls and records a span for every call.
    pub fn recording(inner: PolicyNetwork, recorder: Recorder) -> Self {
        Self {
            recorder: Some(recorder),
            ..Self::counting(inner)
        }
    }

    /// Inference calls so far, across every clone of this wrapper.
    pub fn infer_calls(&self) -> u64 {
        self.infer_calls.load(Ordering::Relaxed)
    }

    fn timed<T>(&mut self, name: &'static str, call: impl FnOnce(&mut PolicyNetwork) -> T) -> T {
        if name == POLICY_INFER {
            self.infer_calls.fetch_add(1, Ordering::Relaxed);
        }
        let Some(recorder) = &self.recorder else {
            return call(&mut self.inner);
        };
        let start = Instant::now();
        let out = call(&mut self.inner);
        let end = Instant::now();
        let (parent, request) = recorder.context();
        recorder.record(name, start, end, parent, request);
        out
    }
}

impl PolicyModel for Traced {
    fn select_action(
        &mut self,
        obs: &Observation,
        greedy: bool,
        rng: &mut ChaCha8Rng,
    ) -> ActionRecord {
        self.timed(POLICY_INFER, |p| p.select_action(obs, greedy, rng))
    }

    fn evaluate(&mut self, obs: &Observation, record: &ActionRecord) -> (f64, f64) {
        self.timed(POLICY_FORWARD, |p| p.evaluate(obs, record))
    }

    fn backward(
        &mut self,
        obs: &Observation,
        record: &ActionRecord,
        coeff_logprob: f64,
        coeff_entropy: f64,
    ) {
        self.timed(POLICY_BACKWARD, |p| {
            p.backward(obs, record, coeff_logprob, coeff_entropy)
        });
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.inner.parameters_mut()
    }

    fn evaluate_batch(
        &mut self,
        batch: &ObservationBatch,
        items: &[(&Observation, &ActionRecord)],
    ) -> Vec<(f64, f64)> {
        self.timed(POLICY_FORWARD, |p| {
            PolicyModel::evaluate_batch(p, batch, items)
        })
    }

    fn backward_batch(&mut self, items: &[(&Observation, &ActionRecord)], coeffs: &[(f64, f64)]) {
        self.timed(POLICY_BACKWARD, |p| {
            PolicyModel::backward_batch(p, items, coeffs)
        });
    }

    fn rank_actions(
        &mut self,
        obs: &Observation,
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<ActionRecord> {
        self.timed(POLICY_INFER, |p| PolicyModel::rank_actions(p, obs, k, rng))
    }

    fn rank_actions_batch(
        &mut self,
        observations: &[&Observation],
        k: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<ActionRecord>> {
        self.timed(POLICY_INFER, |p| {
            PolicyModel::rank_actions_batch(p, observations, k, rng)
        })
    }

    fn infer_groups(&mut self, groups: &mut [InferenceGroup]) -> Vec<GroupResult> {
        self.timed(POLICY_INFER, |p| PolicyModel::infer_groups(p, groups))
    }
}

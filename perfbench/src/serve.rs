//! Load generation against a running [`ServeTier`]: the bit-equality check,
//! two open-loop phases with seeded Poisson arrivals, and a closed loop.
//!
//! The load comes from at most two threads: the calling thread sends, and in
//! the open loop one waiter thread collects responses in submission order
//! (the tier answers in FIFO order, so waiting in order adds no lag).

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::Duration;

use came_kg::{PendingTopK, RequestTrace, ServeError, TierHandle, TopKRequest, TopKResponse};
use perfbench::spans::{Recorder, SpanId};
use perfbench::stats::poisson_schedule;

/// Outcome of one load phase.
#[derive(Default)]
pub struct PhaseResult {
    /// Phase name (`low`, `high`, `closed`).
    pub name: &'static str,
    /// Requests the generator tried to send.
    pub attempted: u64,
    /// Requests answered.
    pub succeeded: u64,
    /// Requests refused at admission (`Overloaded`).
    pub rejected: u64,
    /// Requests shed in the queue (`DeadlineExceeded`).
    pub deadline_shed: u64,
    /// Requests that failed with any other serve error.
    pub other_failed: u64,
    /// Latency from the scheduled send to the response, ms, warm-up request
    /// excluded (open loop only).
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request, ms (open loop only).
    pub late_ms: Vec<f64>,
    /// Completed requests per second in each unit after the first (closed
    /// loop only).
    pub unit_qps: Vec<f64>,
    /// Stage timelines carried by the responses (traced runs only).
    pub traces: Vec<RequestTrace>,
}

impl PhaseResult {
    fn new(name: &'static str) -> Self {
        PhaseResult {
            name,
            ..PhaseResult::default()
        }
    }

    /// Requests that did not get an answer.
    pub fn failed(&self) -> u64 {
        self.rejected + self.deadline_shed + self.other_failed
    }

    fn count_error(&mut self, e: ServeError) {
        match e {
            ServeError::Overloaded { .. } => self.rejected += 1,
            ServeError::DeadlineExceeded { .. } => self.deadline_shed += 1,
            _ => self.other_failed += 1,
        }
    }

    fn record_response(
        &mut self,
        resp: TopKResponse,
        start_ns: u64,
        end_ns: u64,
        rec: &Recorder,
        parent: SpanId,
    ) {
        self.succeeded += 1;
        let Some(t) = resp.trace else { return };
        if rec.enabled() {
            let req = Some(t.trace_id);
            let id = rec.record("kg.serve.request", start_ns, end_ns, Some(parent), req);
            let stages = [
                ("kg.router.queue", t.admitted_ns, t.dequeued_ns),
                ("kg.router.coalesce", t.dequeued_ns, t.dispatched_ns),
                ("kg.router.score", t.dispatched_ns, t.scored_ns),
                ("kg.router.merge", t.scored_ns, t.merged_ns),
                ("kg.router.reply", t.merged_ns, t.completed_ns),
            ];
            for (name, a, b) in stages {
                rec.record(name, a, b, Some(id), req);
            }
        }
        self.traces.push(t);
    }
}

fn sleep_until(clock: &Recorder, due_ns: u64) {
    let now = clock.now();
    if due_ns > now {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// Submit `sample` to the tier all at once and return the responses, in
/// order; `Err` carries the first serve error.
pub fn answer_all(
    handle: &TierHandle,
    sample: &[TopKRequest],
) -> Result<Vec<TopKResponse>, ServeError> {
    let pending: Vec<PendingTopK> = sample
        .iter()
        .map(|&r| handle.submit(r))
        .collect::<Result<_, _>>()?;
    pending.into_iter().map(PendingTopK::wait).collect()
}

/// Open loop: `count` requests at Poisson arrival times of `rate` per second,
/// each timed from its scheduled send to its response. The first request is
/// a warm-up and is left out of the latencies.
pub fn open_loop(
    handle: &TierHandle,
    reqs: &[TopKRequest],
    name: &'static str,
    rate: f64,
    count: usize,
    seed: u64,
    rec: &Recorder,
) -> PhaseResult {
    let schedule = poisson_schedule(seed, rate, count);
    let mut out = PhaseResult::new(name);
    let phase_start = rec.now();
    let phase_id = rec.next_id();
    let (tx, rx) = mpsc::channel::<(usize, u64, PendingTopK)>();
    let answered = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            rx.into_iter()
                .map(|(i, due, p)| {
                    let res = p.wait();
                    (i, due, rec.now(), res)
                })
                .collect::<Vec<_>>()
        });
        // Start one millisecond out so the first send is not late by the
        // time it took to spawn the waiter.
        let t0 = rec.now() + 1_000_000;
        for (i, off) in schedule.iter().enumerate() {
            let due = t0 + (off * 1e9) as u64;
            sleep_until(rec, due);
            out.late_ms.push(rec.now().saturating_sub(due) as f64 / 1e6);
            out.attempted += 1;
            match handle.submit(reqs[i % reqs.len()]) {
                Ok(p) => tx.send((i, due, p)).expect("waiter thread alive"),
                Err(e) => out.count_error(e),
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread panicked")
    });
    for (i, due, done, res) in answered {
        match res {
            Ok(resp) => {
                if i > 0 {
                    out.latency_ms.push(done.saturating_sub(due) as f64 / 1e6);
                }
                out.record_response(resp, due, done, rec, phase_id);
            }
            Err(e) => out.count_error(e),
        }
    }
    rec.record_as(
        phase_id,
        &format!("kg.serve.{name}"),
        phase_start,
        rec.now(),
        None,
        None,
    );
    out
}

/// Closed loop: one thread keeps `inflight` requests outstanding for
/// `seconds`, replacing each as it completes. Throughput is timed over units
/// of `unit` consecutive completions, so batches completing together do not
/// make a unit's count lumpy; the first unit is a warm-up and is dropped.
pub fn closed_loop(
    handle: &TierHandle,
    reqs: &[TopKRequest],
    inflight: usize,
    seconds: f64,
    unit: usize,
    rec: &Recorder,
) -> PhaseResult {
    let mut out = PhaseResult::new("closed");
    let start = rec.now();
    let phase_id = rec.next_id();
    let end = start + (seconds * 1e9) as u64;
    let mut queue: VecDeque<(u64, PendingTopK)> = VecDeque::with_capacity(inflight);
    let mut next = 0usize;
    let mut submit = |queue: &mut VecDeque<(u64, PendingTopK)>, out: &mut PhaseResult| {
        out.attempted += 1;
        let sent = rec.now();
        match handle.submit(reqs[next % reqs.len()]) {
            Ok(p) => queue.push_back((sent, p)),
            Err(e) => out.count_error(e),
        }
        next += 1;
    };
    for _ in 0..inflight {
        submit(&mut queue, &mut out);
    }
    let mut completions = vec![start];
    while let Some((sent, p)) = queue.pop_front() {
        let res = p.wait();
        let done = rec.now();
        match res {
            Ok(resp) => {
                completions.push(done);
                out.record_response(resp, sent, done, rec, phase_id);
            }
            Err(e) => out.count_error(e),
        }
        if done < end {
            submit(&mut queue, &mut out);
        }
    }
    out.unit_qps = completions
        .iter()
        .step_by(unit)
        .collect::<Vec<_>>()
        .windows(2)
        .skip(1)
        .map(|w| unit as f64 / ((w[1] - w[0]) as f64 / 1e9))
        .collect();
    rec.record_as(phase_id, "kg.serve.closed", start, rec.now(), None, None);
    out
}

//! # perfbench — the repository benchmark
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <like_train|full_serve_f32|full_serve_q8> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload end to end through the program's public
//! API: generate the graph, build frozen features and CamE, train with 1-N
//! scoring, evaluate filtered ranking, then serve top-k queries through a
//! two-shard `ServeTier` in two open-loop phases (seeded Poisson arrivals at
//! 25 and 250 req/s) and one closed loop (8 requests in flight). `--seconds`
//! sizes the serving phases; training and evaluation are a fixed amount of
//! work so `valid_mrr` is a pure function of the seed.
//!
//! With `--trace 0` came-obs stays off and the last stdout line reports the
//! end-to-end metrics. With `--trace 1` came-obs is on, the benchmark keeps a
//! span around every call it makes into a layer (written to
//! `.bench_out/trace-<workload>-seed<seed>.jsonl` at exit), and the last line
//! reports the per-layer metrics instead. The line before it is the run
//! record: provenance, backend, threads, host steal share, generator
//! lateness, per-phase operation counts, tail latencies and output checks.
//! A failed check prints `"correct": false` and exits with status 1.

mod serve;

use std::hint::black_box;
use std::time::Instant;

use came::CamE;
use came_bench::{came_config_drkg, came_train_config, provenance_json};
use came_biodata::{presets, MultimodalBkg};
use came_encoders::{
    pretrain_structural, FeatureConfig, ModalFeatures, MoleculeEncoder, TextEncoder,
};
use came_kg::{
    mean_spearman_topk, train_one_to_n, EntityId, FilterIndex, KgDataset, OneToNKge, OneToNModel,
    RankMetrics, RelationId, RequestTrace, ScoringEngine, ServeConfig, ServeTier, ShardedEngine,
    Split, TierConfig, TopKRequest, TopKResponse,
};
use came_tensor::{
    build_store, EmbeddingStore, Graph, ParamStore, Prng, QuantizedStore, StoreKind,
};
use perfbench::spans::{to_jsonl, Recorder};
use perfbench::stats::{
    median, parse_cpu_times, percentile, quartiles, samples_for_percentile, steal_pct,
    tail_percentile, valid_metric_name, CpuTimes,
};
use serve::PhaseResult;

const USAGE: &str = "usage: perfbench --workload <like_train|full_serve_f32|full_serve_q8> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Every workload runs on one fixed graph, generated from this seed, and
/// trains and evaluates the same way on every run: at the fixed training
/// budget `valid_mrr` moves with any change of training order or graph
/// (at paper scale the model is barely past chance, so a handful of lucky
/// hits decide it), which would swamp what the metric is there to catch.
/// The run's `--seed` drives the serving traffic: the request sample and
/// the arrival times.
const DATA_SEED: u64 = 7;
/// Set-ups per run; `setup_s` is their median. The paper-scale set-up takes
/// ~20 s, so it runs once.
const SETUP_REPS_LIKE: usize = 2;
const SETUP_REPS_FULL: usize = 1;
/// CamE epochs on the like-scale graph (the first is the warm-up unit).
const LIKE_EPOCHS: usize = 3;
/// Paper-scale training: one pass over this fraction of the train split,
/// cut into slices that are each one `train_one_to_n` epoch. A full epoch
/// would need ~271 GB of `[B, N]` targets.
const FULL_TRAIN_FRAC: f64 = 0.0002;
const FULL_TRAIN_SLICES: usize = 4;
/// Valid queries ranked (fixed shuffle, then capped): all of them on the
/// like-scale graph, eight batches on the paper-scale one.
const EVAL_CAP_LIKE: usize = 4096;
const EVAL_CAP_FULL: usize = 1024;
const EVAL_BATCH: usize = 128;
/// Timed passes over the valid sample: a longer window evens out the host's
/// swings of a few seconds. `valid_mrr` comes from the first pass.
const EVAL_PASSES: usize = 3;
/// Serving: two entity shards, top-10, known tails filtered.
const SHARDS: usize = 2;
const TOP_K: usize = 10;
const RATE_LOW: f64 = 25.0;
const RATE_HIGH: f64 = 250.0;
const CLOSED_INFLIGHT: usize = 8;
/// Closed-loop throughput is timed over units of this many completions.
const CLOSED_UNIT: usize = 32;
/// Shares of `--seconds` given to the low, high and closed phases.
const SHARE_LOW: f64 = 0.5;
const SHARE_HIGH: f64 = 0.4;
const SHARE_CLOSED: f64 = 0.2;
/// Requests in the tier-vs-engine and q8-vs-f32 checks.
const CHECK_SAMPLE: usize = 64;
/// The q8 entity head must keep top-10 rankings (mean Spearman).
const MIN_Q8_SPEARMAN: f64 = 0.99;
/// Distinct serving requests drawn from the test split.
const REQUEST_POOL: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    LikeTrain,
    FullServeF32,
    FullServeQ8,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "like_train" => Some(Workload::LikeTrain),
            "full_serve_f32" => Some(Workload::FullServeF32),
            "full_serve_q8" => Some(Workload::FullServeQ8),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LikeTrain => "like_train",
            Workload::FullServeF32 => "full_serve_f32",
            Workload::FullServeQ8 => "full_serve_q8",
        }
    }

    fn full(self) -> bool {
        self != Workload::LikeTrain
    }

    fn store_kind(self) -> StoreKind {
        match self {
            Workload::FullServeQ8 => StoreKind::Q8,
            _ => StoreKind::F32,
        }
    }

    fn feature_config(self) -> FeatureConfig {
        let base = came_bench::feature_config();
        FeatureConfig {
            // 20 CompGCN epochs over 97k entities run out of memory on a 15 GB machine
            compgcn_epochs: if self.full() { 0 } else { base.compgcn_epochs },
            ..base
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| bad())?)
                    .filter(|s| s.is_finite() && *s > 0.0)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required and must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything the run reports.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// `(phase, attempted, succeeded, failed)`.
    phases: Vec<(String, u64, u64, u64)>,
    /// `(check, passed, detail)`.
    checks: Vec<(&'static str, bool, String)>,
    /// Extra run-record fields as `(key, JSON value)`.
    record: Vec<(&'static str, String)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "illegal metric name {name:?}");
        self.metrics.push((name, value, unit));
    }

    fn phase(&mut self, name: impl Into<String>, attempted: u64, failed: u64) {
        self.phases
            .push((name.into(), attempted, attempted - failed, failed));
    }

    fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        if !passed {
            eprintln!("[perfbench] CHECK FAILED: {name}: {detail}");
        }
        self.checks.push((name, passed, detail));
    }
}

/// The set-up state every later phase runs on.
struct Built {
    bkg: MultimodalBkg,
    model: CamE,
    store: ParamStore,
    filter: FilterIndex,
}

fn setup(w: Workload, rec: &Recorder) -> Built {
    rec.span("setup", None, |sid| {
        let bkg = rec.span("biodata.generate", Some(sid), |_| {
            if w.full() {
                presets::drkg_mm_full(DATA_SEED)
            } else {
                presets::drkg_mm_like(DATA_SEED)
            }
        });
        let features = rec.span("encoders.features", Some(sid), |_| {
            ModalFeatures::build(&bkg, &w.feature_config())
        });
        let mut store = ParamStore::new();
        let model = rec.span("core.new", Some(sid), |_| {
            CamE::new(&mut store, &bkg.dataset, &features, came_config_drkg())
        });
        let filter = rec.span("kg.filter_index", Some(sid), |_| bkg.dataset.filter_index());
        Built {
            bkg,
            model,
            store,
            filter,
        }
    })
}

/// Training units (like: epochs; full: slices) with their query counts and
/// wall times.
struct TrainOut {
    unit_queries: Vec<usize>,
    unit_s: Vec<f64>,
}

fn secs(a_ns: u64, b_ns: u64) -> f64 {
    b_ns.saturating_sub(a_ns) as f64 / 1e9
}

fn train(w: Workload, b: &mut Built, rec: &Recorder) -> TrainOut {
    let dataset = &b.bkg.dataset;
    let (model, store) = (&b.model, &mut b.store);
    let mut out = TrainOut {
        unit_queries: vec![],
        unit_s: vec![],
    };
    rec.span("kg.train", None, |sid| {
        if !w.full() {
            let queries = dataset.train_label_index().len();
            let start = rec.now();
            let mut ends = vec![];
            train_one_to_n(
                model,
                store,
                dataset,
                &came_train_config(LIKE_EPOCHS),
                |_, _, _| ends.push(rec.now()),
            );
            let mut prev = start;
            for end in ends {
                rec.record("kg.train.epoch", prev, end, Some(sid), None);
                out.unit_queries.push(queries);
                out.unit_s.push(secs(prev, end));
                prev = end;
            }
            return;
        }
        let sub = dataset.subsample(FULL_TRAIN_FRAC);
        let per = sub.train.len().div_ceil(FULL_TRAIN_SLICES).max(1);
        for chunk in sub.train.chunks(per) {
            let slice = KgDataset {
                vocab: sub.vocab.clone(),
                train: chunk.to_vec(),
                valid: vec![],
                test: vec![],
            };
            let queries = slice.train_label_index().len();
            let a = rec.now();
            train_one_to_n(model, store, &slice, &came_train_config(1), |_, _, _| {});
            let z = rec.now();
            rec.record("kg.train.slice", a, z, Some(sid), None);
            out.unit_queries.push(queries);
            out.unit_s.push(secs(a, z));
        }
    });
    out
}

/// Throughput of every unit but the first (warm-up).
fn steady_rates(counts: &[usize], seconds: &[f64]) -> Vec<f64> {
    counts
        .iter()
        .zip(seconds)
        .skip(1)
        .map(|(&c, &s)| c as f64 / s)
        .collect()
}

/// `{"n", "q1", "median", "q3"}` of one metric's units within the run.
fn units_json(xs: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(xs).unwrap_or((f64::NAN, median(xs), f64::NAN));
    let num = |v: f64| {
        if v.is_finite() {
            v.to_string()
        } else {
            "null".into()
        }
    };
    format!(
        "{{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
        xs.len(),
        num(q1),
        num(q2),
        num(q3)
    )
}

/// The fixed valid sample: a shuffle seeded with the data seed, capped.
fn eval_triples(dataset: &KgDataset, cap: usize) -> Vec<came_kg::Triple> {
    let mut triples = dataset.augmented(Split::Valid);
    Prng::new(DATA_SEED ^ 0xE7A1_5EED).shuffle(&mut triples);
    triples.truncate(cap);
    triples
}

/// Serving requests: a seeded sample of the inverse-augmented test split.
fn request_pool(dataset: &KgDataset, seed: u64) -> Vec<TopKRequest> {
    let test = dataset.augmented(Split::Test);
    Prng::new(seed ^ 0x5E7E_0001)
        .sample_indices(test.len(), REQUEST_POOL)
        .into_iter()
        .map(|i| TopKRequest::with_k(test[i].h, test[i].r, TOP_K))
        .collect()
}

fn score_block(
    kge: &OneToNKge<&CamE>,
    store: &ParamStore,
    queries: &[(EntityId, RelationId)],
) -> Vec<f32> {
    let engine = ScoringEngine::with_config(kge, store, ServeConfig::default())
        .expect("default serve config is valid");
    let mut out = vec![0.0f32; queries.len() * engine.num_entities()];
    engine.score_into(queries, &mut out);
    out
}

fn same_hits(a: &[TopKResponse], b: &[TopKResponse]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.hits.len() == y.hits.len()
                && x.hits
                    .iter()
                    .zip(&y.hits)
                    .all(|(p, q)| p.entity == q.entity && p.score.to_bits() == q.score.to_bits())
        })
}

/// `reps` timings of `f` in ms, after one discarded warm-up call.
fn time_ms(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Repetitions that fit in roughly `budget_ms` given one call's cost.
fn reps_for(budget_ms: f64, one_ms: f64, min: usize, max: usize) -> usize {
    ((budget_ms / one_ms.max(1e-3)) as usize).clamp(min, max)
}

fn read_cpu() -> Option<CpuTimes> {
    parse_cpu_times(&std::fs::read_to_string("/proc/stat").ok()?)
}

const MIB: f64 = (1 << 20) as f64;

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Phase spans the program itself opens during a training step.
const CORE_PHASES: [(&str, &str); 5] = [
    ("phase.frozen_gather", "core.phase.frozen_gather_ms"),
    ("phase.tca", "core.phase.tca_ms"),
    ("phase.mmf", "core.phase.mmf_ms"),
    ("phase.ric", "core.phase.ric_ms"),
    ("phase.scorer", "core.phase.scorer_ms"),
];
const TRAIN_PHASES: [(&str, &str); 2] = [
    ("phase.backward", "kg.train.phase.backward_ms"),
    ("phase.optimizer", "kg.train.phase.optimizer_ms"),
];

fn tail_json(p: &PhaseResult) -> String {
    let n = p.latency_ms.len();
    match tail_percentile(n) {
        Some(pct) => format!(
            "{{\"pct\": {pct}, \"ms\": {}, \"samples\": {n}}}",
            percentile(&p.latency_ms, pct)
        ),
        None => format!("{{\"pct\": null, \"ms\": null, \"samples\": {n}}}"),
    }
}

/// Stage durations (ms) of one phase's traces, keyed by stage name.
fn stage_ms(traces: &[RequestTrace]) -> [(&'static str, Vec<f64>); 5] {
    let col = |f: fn(&RequestTrace) -> u64| -> Vec<f64> {
        traces.iter().map(|t| f(t) as f64 / 1e6).collect()
    };
    [
        ("queue", col(RequestTrace::queue_ns)),
        ("coalesce", col(RequestTrace::coalesce_ns)),
        ("score", col(RequestTrace::score_ns)),
        ("merge", col(RequestTrace::merge_ns)),
        ("reply", col(RequestTrace::reply_ns)),
    ]
}

fn run(args: &Args, rec: &Recorder) -> Report {
    let w = args.workload;
    let mut r = Report::default();
    came_obs::set_enabled(args.trace);

    // ---- set-up ---------------------------------------------------------
    let reps = if w.full() {
        SETUP_REPS_FULL
    } else {
        SETUP_REPS_LIKE
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut built: Option<Built> = None;
    for _ in 0..reps {
        drop(built.take()); // free the previous copy before building the next
        let t = Instant::now();
        built = Some(setup(w, rec));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut b = built.expect("at least one set-up");
    r.phase("setup", reps as u64, 0);
    let n = b.bkg.dataset.num_entities();
    eprintln!(
        "[perfbench] {} seed={} entities={n} setup {:.2}s (median of {reps})",
        w.name(),
        args.seed,
        median(&setup_s)
    );

    if args.trace {
        // Each encoder on its own, outside the feature build, for its layer time.
        let fc = w.feature_config();
        rec.span("encoders.text", None, |_| {
            black_box(TextEncoder::new(fc.d_text, fc.seed).encode_all(&b.bkg.texts))
        });
        rec.span("encoders.molecule", None, |_| {
            black_box(
                MoleculeEncoder::new(fc.d_molecule, fc.gin_layers, fc.seed)
                    .encode_all(&b.bkg.molecules),
            )
        });
        rec.span("encoders.compgcn", None, |_| {
            black_box(pretrain_structural(
                &b.bkg.dataset,
                fc.d_struct,
                fc.compgcn_epochs,
                fc.seed,
            ))
        });
    }

    // ---- training -------------------------------------------------------
    let phase_sum = || -> Vec<u64> {
        CORE_PHASES
            .iter()
            .chain(&TRAIN_PHASES)
            .map(|(h, _)| came_obs::registry().histogram(h).sum())
            .collect()
    };
    let phase_before = phase_sum();
    came_tensor::pool::reset_stats();
    let tr = train(w, &mut b, rec);
    let pool = came_tensor::pool::stats();
    let phase_ns: Vec<u64> = phase_sum()
        .iter()
        .zip(&phase_before)
        .map(|(after, before)| after - before)
        .collect();
    let steps: usize = tr
        .unit_queries
        .iter()
        .map(|q| q.div_ceil(came_train_config(1).batch_size))
        .sum();
    let train_rates = steady_rates(&tr.unit_queries, &tr.unit_s);
    let train_qps = median(&train_rates);
    r.phase("train", tr.unit_queries.iter().sum::<usize>() as u64, 0);
    eprintln!(
        "[perfbench] train: {} units, {:.0} queries/s (units {:?} s)",
        tr.unit_s.len(),
        train_qps,
        tr.unit_s
    );

    // ---- entity head for eval and serving -------------------------------
    let dataset = &b.bkg.dataset;
    let (model, store, filter) = (&b.model, &b.store, &b.filter);
    let kge = OneToNKge::new("CamE", model, n);
    model
        .freeze_entity_store(store, StoreKind::F32)
        .expect("the dense head always freezes");
    let reqs = request_pool(dataset, args.seed);
    let sample: Vec<(EntityId, RelationId)> = reqs[..CHECK_SAMPLE.min(reqs.len())]
        .iter()
        .map(|q| (q.head, q.relation))
        .collect();
    let f32_scores = score_block(&kge, store, &sample);
    let spearman_of = |f32_scores: &[f32]| {
        let q8 = score_block(&kge, store, &sample);
        mean_spearman_topk(f32_scores, &q8, n, TOP_K)
    };
    let mut freeze_s = 0.0;
    let mut spearman = None;
    if w.store_kind() == StoreKind::Q8 {
        let t = Instant::now();
        rec.span("tensor.store.freeze", None, |_| {
            model.freeze_entity_store(store, StoreKind::Q8)
        })
        .expect("trained entity rows quantize");
        freeze_s = t.elapsed().as_secs_f64();
        let rho = spearman_of(&f32_scores);
        r.check(
            "q8_top10_spearman",
            rho >= MIN_Q8_SPEARMAN,
            format!("mean top-{TOP_K} Spearman {rho:.5} (need >= {MIN_Q8_SPEARMAN})"),
        );
        spearman = Some(rho);
    }
    let setup_total = median(&setup_s) + freeze_s;

    // ---- filtered evaluation ---------------------------------------------
    let cap = if w.full() {
        EVAL_CAP_FULL
    } else {
        EVAL_CAP_LIKE
    };
    let triples = eval_triples(dataset, cap);
    let engine = ScoringEngine::with_config(&kge, store, ServeConfig::default())
        .expect("default serve config is valid");
    let mut ranks = RankMetrics::new();
    let mut batch_ms = vec![];
    let mut batch_sizes = vec![];
    rec.span("kg.eval", None, |sid| {
        for pass in 0..EVAL_PASSES {
            for chunk in triples.chunks(EVAL_BATCH) {
                let a = rec.now();
                let m = engine.rank_triples(chunk, filter, EVAL_BATCH);
                let z = rec.now();
                rec.record("kg.eval.batch", a, z, Some(sid), None);
                batch_ms.push(secs(a, z) * 1e3);
                batch_sizes.push(chunk.len());
                if pass == 0 {
                    ranks.merge(&m);
                }
            }
        }
    });
    let eval_rates = steady_rates(
        &batch_sizes,
        &batch_ms.iter().map(|ms| ms / 1e3).collect::<Vec<_>>(),
    );
    let eval_qps = median(&eval_rates);
    let mrr = ranks.mrr();
    r.phase("eval", batch_sizes.iter().sum::<usize>() as u64, 0);
    let chance = 1.0 / n as f64;
    r.check(
        "valid_mrr",
        mrr.is_finite() && mrr >= 10.0 * chance,
        format!(
            "MRR {mrr:.6} over {} queries (need finite and >= 10x chance = {:.6})",
            ranks.count(),
            10.0 * chance
        ),
    );
    eprintln!("[perfbench] eval: MRR {mrr:.5}, {eval_qps:.0} queries/s");

    // ---- serving ---------------------------------------------------------
    let tier_cfg = TierConfig {
        shards: SHARDS,
        queue: 1024,
        flush_us: 200,
        deadline_us: None,
        panic_at_batch: None,
        serve: ServeConfig::default(),
    };
    let check_reqs = &reqs[..sample.len()];
    let want = engine
        .top_k_batch(check_reqs, Some(filter))
        .expect("sample requests are valid");
    let load = &reqs[sample.len()..];
    // measured requests per open-loop phase; the warm-up request comes on top
    let mut n_low = (RATE_LOW * SHARE_LOW * args.seconds).round().max(1.0) as usize;
    let mut n_high = (RATE_HIGH * SHARE_HIGH * args.seconds).round().max(1.0) as usize;
    if args.trace {
        // the traced tails (p95 low, p99 high) need ten samples beyond them
        n_low = n_low.max(samples_for_percentile(95.0));
        n_high = n_high.max(samples_for_percentile(99.0));
    }
    let (tier_ok, phases) = ServeTier::run(&kge, store, Some(filter), tier_cfg, |h| {
        let got = serve::answer_all(h, check_reqs);
        let ok = got.as_ref().is_ok_and(|g| same_hits(&want, g));
        let low = serve::open_loop(h, load, "low", RATE_LOW, n_low + 1, args.seed ^ 0x10, rec);
        let high = serve::open_loop(
            h,
            load,
            "high",
            RATE_HIGH,
            n_high + 1,
            args.seed ^ 0x20,
            rec,
        );
        let closed = serve::closed_loop(
            h,
            load,
            CLOSED_INFLIGHT,
            SHARE_CLOSED * args.seconds,
            CLOSED_UNIT,
            rec,
        );
        (ok, [low, high, closed])
    })
    .expect("tier config is valid");
    r.check(
        "tier_topk_bit_equal",
        tier_ok,
        format!(
            "{} tier responses vs ScoringEngine::top_k_batch (ids and score bits, ties included)",
            sample.len()
        ),
    );
    for p in &phases {
        r.phase(format!("serve.{}", p.name), p.attempted, p.failed());
    }
    let [low, high, closed] = &phases;
    let serve_max_qps = median(&closed.unit_qps);
    eprintln!(
        "[perfbench] serve: p50 {:.3} ms @{RATE_LOW}/s, {:.3} ms @{RATE_HIGH}/s, closed {:.0} req/s",
        median(&low.latency_ms),
        median(&high.latency_ms),
        serve_max_qps
    );

    // ---- run record ------------------------------------------------------
    let late: Vec<f64> = low.late_ms.iter().chain(&high.late_ms).copied().collect();
    let late_max = late.iter().copied().fold(0.0, f64::max);
    r.record.push((
        "loadgen_late_ms",
        format!(
            "{{\"p99\": {}, \"max\": {late_max}}}",
            percentile(&late, 99.0)
        ),
    ));
    r.record.push((
        "tails",
        format!(
            "{{\"low\": {}, \"high\": {}}}",
            tail_json(low),
            tail_json(high)
        ),
    ));
    if let Some(rho) = spearman {
        r.record.push(("q8_top10_spearman", format!("{rho}")));
    }
    // the units each timed end-to-end metric is the median of
    r.record.push((
        "units",
        format!(
            "{{\"train_qps\": {}, \"eval_qps\": {}, \"serve_ms.low\": {}, \"serve_ms.high\": {}, \"serve_max_qps\": {}}}",
            units_json(&train_rates),
            units_json(&eval_rates),
            units_json(&low.latency_ms),
            units_json(&high.latency_ms),
            units_json(&closed.unit_qps)
        ),
    ));

    if !args.trace {
        r.metric("setup_s", setup_total, "s");
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
        r.metric("train_qps", train_qps, "1/s");
        r.metric("valid_mrr", mrr, "mrr");
        r.metric("eval_qps", eval_qps, "1/s");
        r.metric("serve_p50_ms.low", median(&low.latency_ms), "ms");
        r.metric("serve_p50_ms.high", median(&high.latency_ms), "ms");
        r.metric("serve_max_qps", serve_max_qps, "1/s");
        return r;
    }

    // ---- traced run: per-layer metrics -----------------------------------
    let spans = rec.snapshot();
    let span_s = |name: &str| {
        median(
            &spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e9)
                .collect::<Vec<_>>(),
        )
    };
    r.metric("biodata.generate_s", span_s("biodata.generate"), "s");
    r.metric("encoders.text_s", span_s("encoders.text"), "s");
    r.metric("encoders.molecule_s", span_s("encoders.molecule"), "s");
    r.metric("encoders.compgcn_s", span_s("encoders.compgcn"), "s");

    // core: a batch-128 inference forward, then the program's own phase
    // spans during training as self time per training step
    let heads: Vec<u32> = triples.iter().take(EVAL_BATCH).map(|t| t.h.0).collect();
    let rels: Vec<u32> = triples.iter().take(EVAL_BATCH).map(|t| t.r.0).collect();
    let fwd = time_ms(5, || {
        let g = Graph::inference();
        let v = model.forward(&g, store, &heads, &rels);
        black_box(g.with_value(v, |t| t.data()[0]));
    });
    r.metric("core.forward_ms.b128", median(&fwd), "ms");
    let per_step = |ns: u64| ns as f64 / 1e6 / steps.max(1) as f64;
    for ((_, metric), ns) in CORE_PHASES.iter().zip(&phase_ns) {
        r.metric(*metric, per_step(*ns), "ms");
    }
    r.metric("kg.train.epoch_s", median(&tr.unit_s[1..]), "s");
    r.metric("kg.train.steps", steps as f64, "count");
    for ((_, metric), ns) in TRAIN_PHASES.iter().zip(&phase_ns[CORE_PHASES.len()..]) {
        r.metric(*metric, per_step(*ns), "ms");
    }
    let max_unit_queries = tr.unit_queries.iter().copied().max().unwrap_or(0);
    r.metric(
        "kg.train.targets_mb",
        (max_unit_queries * n * 4) as f64 / MIB,
        "MB",
    );
    r.metric("tensor.pool.hit_rate", pool.hit_rate(), "ratio");

    kernel_metrics(&mut r, model, store, n);
    let rho = match spearman {
        Some(rho) => rho,
        None => {
            // the f32 workload serves densely; measure what a q8 head would keep
            model
                .freeze_entity_store(store, StoreKind::Q8)
                .expect("trained entity rows quantize");
            let rho = spearman_of(&f32_scores);
            model
                .freeze_entity_store(store, StoreKind::F32)
                .expect("the dense head always freezes");
            rho
        }
    };
    r.metric("tensor.store.top10_spearman", rho, "rho");
    r.metric("kg.eval.batch_ms", median(&batch_ms[1..]), "ms");

    // serving shards outside the tier
    let sharded = ShardedEngine::with_config(&kge, store, SHARDS, ServeConfig::default())
        .expect("default serve config is valid");
    for (bsz, name) in [(1usize, "kg.shard.topk_ms.b1"), (8, "kg.shard.topk_ms.b8")] {
        let batch = &load[..bsz];
        let one = || {
            rec.span(name, None, |_| {
                black_box(
                    sharded
                        .top_k_batch(batch, Some(filter))
                        .expect("valid batch"),
                )
            });
        };
        let t = Instant::now();
        one();
        let reps = reps_for(600.0, t.elapsed().as_secs_f64() * 1e3, 8, 200);
        r.metric(name, median(&time_ms(reps, one)), "ms");
    }

    router_metrics(&mut r, &phases);
    r.metric("loadgen.late_ms.p99", percentile(&late, 99.0), "ms");
    r.metric("loadgen.late_ms.max", late_max, "ms");
    for (p, pct, name) in [
        (low, 95.0, "serve_p95_ms.low"),
        (high, 99.0, "serve_p99_ms.high"),
    ] {
        r.metric(name, percentile(&p.latency_ms, pct), "ms");
        r.metric(
            format!("{name}.samples"),
            p.latency_ms.len() as f64,
            "count",
        );
    }

    let chunk = &triples[..EVAL_BATCH.min(triples.len())];
    let pairs = reps_for(3000.0, median(&batch_ms) * 2.0, 4, 12);
    r.metric(
        "obs.overhead_pct",
        obs_overhead_pct(pairs, || {
            black_box(engine.rank_triples(chunk, filter, EVAL_BATCH));
        }),
        "%",
    );
    r
}

/// Scorer-shaped kernels, `[128 x d] . [d x N]`, outside the model: the
/// backend's f32 matmul and the q8 store's fused dequant-scoring GEMM, plus
/// the entity store's resident size.
fn kernel_metrics(r: &mut Report, model: &CamE, store: &ParamStore, n: usize) {
    let (m, k) = (EVAL_BATCH, model.cfg.d_embed);
    let flops = 2.0 * (m * k * n) as f64;
    let mut rng = Prng::new(0x5C0E);
    let a: Vec<f32> = (0..m * k).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
    let mut out = vec![0.0f32; m * n];
    let raw = came_tensor::backend::of(came_tensor::backend::kind());
    let mm = time_ms(7, || raw.matmul(&a, &b, &mut out, m, k, n));
    r.metric(
        "tensor.threads",
        came_tensor::backend::num_threads() as f64,
        "count",
    );
    r.metric(
        "tensor.matmul_gflops.scorer",
        flops / median(&mm) / 1e6,
        "GFLOP/s",
    );
    let ent_id = store
        .ids()
        .find(|&id| store.name(id) == "came.ent")
        .expect("CamE registers its entity table as came.ent");
    let rows = store.value(ent_id).data();
    let q8 = QuantizedStore::from_rows(rows, n, k).expect("entity rows quantize");
    let q8_ms = time_ms(7, || q8.score_range_into(&a, m, 0, n, &mut out));
    r.metric(
        "tensor.q8_gemm_gflops.scorer",
        flops / median(&q8_ms) / 1e6,
        "GFLOP/s",
    );
    let entity_bytes = match model.entity_head() {
        Some(head) => head.store().resident_bytes(),
        None => build_store(StoreKind::F32, rows, n, k, 0)
            .expect("dense store of the entity rows")
            .resident_bytes(),
    };
    r.metric("tensor.store.entity_mb", entity_bytes as f64 / MIB, "MB");
    // operation counts and bytes each kernel must move at least once
    let f32_bytes = 4 * (m * k + k * n + m * n);
    let q8_bytes = 4 * (m * k + m * n) + k * n + 8 * n;
    r.record.push((
        "scorer_kernel",
        format!(
            "{{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"flops\": {flops}, \"f32_bytes\": {f32_bytes}, \"q8_bytes\": {q8_bytes}}}"
        ),
    ));
}

/// Router stages of the open-loop phases (p50 and the tail the traced
/// phase length supports: p95 at the low rate, p99 at the high one), the
/// coalesced batch size of every phase, the slowest shard, and the failure
/// counters, all from the request timelines the tier attaches to its
/// responses.
fn router_metrics(r: &mut Report, phases: &[PhaseResult; 3]) {
    for (p, tail) in phases[..2].iter().zip([95.0, 99.0]) {
        for (stage, ms) in stage_ms(&p.traces) {
            for pct in [50.0, tail] {
                r.metric(
                    format!("kg.router.{stage}_p{pct}_ms.{}", p.name),
                    percentile(&ms, pct),
                    "ms",
                );
            }
        }
    }
    for p in phases {
        let sizes: Vec<f64> = p.traces.iter().map(|t| t.batch_size as f64).collect();
        r.metric(
            format!("kg.router.batch_size.{}", p.name),
            sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
            "count",
        );
    }
    let slowest: Vec<f64> = phases
        .iter()
        .flat_map(|p| &p.traces)
        .map(|t| t.slowest_shard_ns() as f64 / 1e6)
        .collect();
    r.metric("kg.router.slowest_shard_ms", median(&slowest), "ms");
    let total = |f: fn(&PhaseResult) -> u64| phases.iter().map(f).sum::<u64>() as f64;
    r.metric("kg.router.rejected", total(|p| p.rejected), "count");
    r.metric(
        "kg.router.deadline_shed",
        total(|p| p.deadline_shed),
        "count",
    );
    r.metric("kg.router.failed", total(|p| p.other_failed), "count");
}

/// Tracing overhead in percent: `pairs` alternating untraced/traced runs of
/// the same work (order flipped each pair, first pair discarded), as the
/// ratio of the medians.
fn obs_overhead_pct(pairs: usize, mut work: impl FnMut()) -> f64 {
    let (mut off, mut on) = (vec![], vec![]);
    for i in 0..=pairs {
        for traced in [i % 2 == 0, i % 2 == 1] {
            came_obs::set_enabled(traced);
            let t = Instant::now();
            work();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if i > 0 {
                if traced { &mut on } else { &mut off }.push(ms);
            }
        }
    }
    came_obs::set_enabled(true);
    100.0 * (median(&on) / median(&off) - 1.0)
}

fn json_str(s: &str) -> String {
    came_obs::sink::json_string(s)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let backend = came_bench::init_backend();
    let cpu_before = read_cpu();
    let threads = came_tensor::backend::num_threads();
    let rec = Recorder::new(args.trace, came_obs::now_ns);
    let mut r = run(&args, &rec);
    let steal = match (cpu_before, read_cpu()) {
        (Some(a), Some(b)) => steal_pct(a, b),
        _ => f64::NAN,
    };
    if args.trace {
        r.metric("host.steal_pct", steal, "%");
    }

    let checks_ok = r.checks.iter().all(|c| c.1);
    let finite = r.metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        for (name, v, _) in r.metrics.iter().filter(|m| !m.1.is_finite()) {
            eprintln!("[perfbench] metric {name} is not finite ({v})");
        }
    }
    let correct = checks_ok && finite;
    let attempted: u64 = r.phases.iter().map(|p| p.1).sum::<u64>() + r.checks.len() as u64;
    let failed: u64 =
        r.phases.iter().map(|p| p.3).sum::<u64>() + r.checks.iter().filter(|c| !c.1).count() as u64;

    let phases = r
        .phases
        .iter()
        .map(|(name, a, s, f)| {
            format!(
                "{{\"phase\": {}, \"attempted\": {a}, \"succeeded\": {s}, \"failed\": {f}}}",
                json_str(name)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let checks = r
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "{{\"check\": {}, \"passed\": {ok}, \"detail\": {}}}",
                json_str(name),
                json_str(detail)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = format!(
        "{{\"run_record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"backend\": {}, \"threads\": {threads}, \"nproc\": {nproc}, \"steal_pct\": {}, \
         \"provenance\": {}, \"phases\": [{phases}], \"checks\": [{checks}]",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_str(backend.name()),
        if steal.is_finite() {
            steal.to_string()
        } else {
            "null".into()
        },
        provenance_json(backend, false)
    );
    for (k, v) in &r.record {
        record.push_str(&format!(", {}: {v}", json_str(k)));
    }
    record.push_str("}}");
    println!("{record}");

    if args.trace {
        let path = format!(
            ".bench_out/trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, to_jsonl(&rec.snapshot())));
        match written {
            Ok(()) => eprintln!("[perfbench] spans written to {path}"),
            Err(e) => eprintln!("[perfbench] could not write {path}: {e}"),
        }
    }

    let metrics = r
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    if !correct {
        std::process::exit(1);
    }
}

//! Tests for the statistics every benchmark number goes through.

use perfbench::spans::{self_times, to_jsonl, Recorder, SpanRec};
use perfbench::stats::{
    median, parse_cpu_times, percentile, poisson_schedule, quartiles, samples_for_percentile,
    steal_pct, tail_percentile, valid_metric_name, CpuTimes,
};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), 50.0);
    assert_eq!(percentile(&xs, 99.0), 99.0);
    assert_eq!(percentile(&xs, 100.0), 100.0);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    assert!(percentile(&[], 50.0).is_nan());
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    for p in [50.0, 90.0, 95.0, 99.0, 99.9] {
        let n = samples_for_percentile(p);
        assert_eq!(
            tail_percentile(n).map(|q| q >= p),
            Some(true),
            "p{p} at n={n}"
        );
        assert!(
            tail_percentile(n - 1).is_none_or(|q| q < p),
            "p{p} at n={}",
            n - 1
        );
    }
}

#[test]
fn metric_name_grammar() {
    for ok in [
        "setup_s",
        "serve_p50_ms.low",
        "kg.router.queue_p99_ms.high",
        "9lives",
        "a-b",
    ] {
        assert!(valid_metric_name(ok), "{ok}");
    }
    let long = "x".repeat(65);
    for bad in [
        "",
        ".hidden",
        "_x",
        "-x",
        "a b",
        "p50/ms",
        "naïve",
        long.as_str(),
    ] {
        assert!(!valid_metric_name(bad), "{bad:?}");
    }
    assert!(valid_metric_name(&"x".repeat(64)));
}

#[test]
fn steal_is_parsed_from_the_aggregate_cpu_line() {
    let before = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\nintr 1\n";
    let after = "cpu  200 0 100 1600 20 0 10 70 0 0\ncpu0 1 1 1 1 1 1 1 1 1 1\n";
    let a = parse_cpu_times(before).unwrap();
    assert_eq!(
        a,
        CpuTimes {
            steal: 35,
            total: 1000
        }
    );
    let b = parse_cpu_times(after).unwrap();
    assert!((steal_pct(a, b) - 3.5).abs() < 1e-12);
    assert_eq!(steal_pct(a, a), 0.0);
    assert_eq!(parse_cpu_times("cpu  1 2 3 4 5 6 7\n"), None);
    assert_eq!(parse_cpu_times("intr 1\n"), None);
    assert_eq!(parse_cpu_times("cpu  1 2 x 4 5 6 7 8\n"), None);
}

#[test]
fn poisson_schedule_is_reproducible_from_the_seed() {
    let a = poisson_schedule(7, 250.0, 2000);
    assert_eq!(a, poisson_schedule(7, 250.0, 2000));
    assert_ne!(a, poisson_schedule(8, 250.0, 2000));
    assert_eq!(a.len(), 2000);
    assert!(a.windows(2).all(|w| w[1] > w[0]), "arrival times increase");
    // 2000 exponential gaps of mean 4 ms: the total is within a few percent
    // of 8 s, and the gaps have the exponential's coefficient of variation 1
    let gaps: Vec<f64> = std::iter::once(a[0])
        .chain(a.windows(2).map(|w| w[1] - w[0]))
        .collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    assert!((mean - 0.004).abs() < 0.0004, "mean gap {mean}");
    assert!(
        (var.sqrt() / mean - 1.0).abs() < 0.1,
        "cv {}",
        var.sqrt() / mean
    );
}

fn span(id: u64, start: u64, end: u64, parent: Option<u64>) -> SpanRec {
    SpanRec {
        id,
        name: format!("s{id}"),
        start_ns: start,
        end_ns: end,
        parent,
        request: None,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(1, 0, 100, None),
        span(2, 10, 40, Some(1)),
        span(3, 30, 50, Some(1)),  // overlaps span 2: covered once
        span(4, 90, 120, Some(1)), // runs past the parent: clipped
        span(5, 12, 20, Some(2)),  // grandchild: only span 2 loses it
    ];
    assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 8, 20, 30, 8]);
}

#[test]
fn recorder_keeps_spans_only_when_enabled() {
    fn clock() -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static T: AtomicU64 = AtomicU64::new(0);
        T.fetch_add(10, Ordering::Relaxed)
    }
    let off = Recorder::new(false, clock);
    assert_eq!(off.span("x", None, |id| id), 0);
    assert!(off.snapshot().is_empty());

    let on = Recorder::new(true, clock);
    let outer = on.span("outer", None, |id| {
        on.record("child", 1, 2, Some(id), Some(42));
        id
    });
    let spans = on.snapshot();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].id, outer);
    assert_eq!(spans[0].name, "outer");
    assert!(spans[0].end_ns > spans[0].start_ns);
    assert_eq!((spans[1].parent, spans[1].request), (Some(outer), Some(42)));
    let jsonl = to_jsonl(&spans);
    assert_eq!(jsonl.lines().count(), 2);
    assert!(jsonl.contains("\"request\": 42"));
}

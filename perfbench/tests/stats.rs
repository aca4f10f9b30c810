//! Tests for the statistics the benchmark's reports rest on.

use revmon_perfbench::stats::{
    calm, highest_resolvable_percentile, median, percentile, poisson_schedule, quartiles,
    rel_spread, Request, Reservoir, SplitMix64,
};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn highest_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(highest_resolvable_percentile(100_000, 10), Some(99.99));
    assert_eq!(highest_resolvable_percentile(99_999, 10), Some(99.9));
    assert_eq!(highest_resolvable_percentile(10_000, 10), Some(99.9));
    assert_eq!(highest_resolvable_percentile(1_000, 10), Some(99.0));
    assert_eq!(highest_resolvable_percentile(999, 10), Some(90.0));
    assert_eq!(highest_resolvable_percentile(100, 10), Some(90.0));
    assert_eq!(highest_resolvable_percentile(20, 10), Some(50.0));
    assert_eq!(highest_resolvable_percentile(19, 10), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(xs, n=4)`.
    type Case<'a> = (&'a [f64], (f64, f64, f64));
    let cases: [Case; 4] = [
        (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], (2.75, 5.5, 8.25)),
        (&[1.0, 2.0], (0.75, 1.5, 2.25)),
        (&[1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0], (3.0, 7.0, 11.0)),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], (1.5, 3.0, 4.5)),
    ];
    for (xs, (q1, q2, q3)) in cases {
        let got = quartiles(xs);
        assert!(close(got.0, q1) && close(got.1, q2) && close(got.2, q3), "{xs:?}: {got:?}");
    }
    assert!(close(rel_spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]), 5.5 / 5.5));
}

#[test]
fn calm_reads_the_faster_quartile() {
    let windows = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 10.0];
    // Times: the first quartile; rates: the third.
    assert!(close(calm(&windows, true), 2.75));
    assert!(close(calm(&windows, false), 8.25));
    assert!(close(calm(&[4.0], true), 4.0));
}

#[test]
fn median_and_nearest_rank_percentile() {
    assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
    assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert!(close(percentile(&xs, 50.0), 500.0));
    assert!(close(percentile(&xs, 99.0), 990.0));
    assert!(close(percentile(&xs, 100.0), 1000.0));
    assert!(close(percentile(&[7.0], 99.0), 7.0));
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    // Three requests due 1 ms apart; the generator stalled until 5 ms
    // and then sent them back to back, each taking 10 us.
    let due = [0u64, 1_000_000, 2_000_000];
    let mut now = 5_000_000;
    let reqs: Vec<Request> = due
        .iter()
        .map(|&d| {
            let r = Request { due_ns: d, sent_ns: now, done_ns: now + 10_000 };
            now += 10_000;
            r
        })
        .collect();
    let latency: Vec<u64> = reqs.iter().map(Request::latency_ns).collect();
    let lag: Vec<u64> = reqs.iter().map(Request::lag_ns).collect();
    // From the send, every request would read 10 us; the stall is
    // charged to each request it held back.
    assert_eq!(latency, [5_010_000, 4_020_000, 3_030_000]);
    assert_eq!(lag, [5_000_000, 4_010_000, 3_020_000]);
    assert!(reqs.iter().all(|r| r.done_ns - r.sent_ns == 10_000));
}

#[test]
fn poisson_schedule_is_seeded_and_keeps_its_rate() {
    let span = 20_000_000_000; // 20 s at 500/s: about 10 000 arrivals
    let a = poisson_schedule(&mut SplitMix64::new(7, 2), 500.0, span);
    let b = poisson_schedule(&mut SplitMix64::new(7, 2), 500.0, span);
    let c = poisson_schedule(&mut SplitMix64::new(8, 2), 500.0, span);
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert!(a.windows(2).all(|w| w[0] <= w[1]) && *a.last().unwrap() < span);
    let rate = a.len() as f64 / 20.0;
    assert!((rate - 500.0).abs() < 25.0, "rate {rate}");
}

#[test]
fn reservoir_keeps_exact_totals_and_a_uniform_sample() {
    let mut r = Reservoir::new(1000);
    for v in 1..=100_000u64 {
        r.add(v);
    }
    assert_eq!(r.count, 100_000);
    assert_eq!(r.sum, 100_000 * 100_001 / 2);
    let p50 = r.percentile(50.0);
    assert!((40_000.0..60_000.0).contains(&p50), "p50 {p50}");
    let mut small = Reservoir::new(1000);
    small.add(5);
    r.merge(&small);
    assert_eq!(r.count, 100_001);
    assert_eq!(r.sum, 100_000 * 100_001 / 2 + 5);
}

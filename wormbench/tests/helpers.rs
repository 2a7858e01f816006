//! Tests of the benchmark's own helpers: the tail-percentile rule, the
//! digest, and self time from nested spans.

use wormbench::digest::{combine, Fnv64};
use wormbench::stats::{median, samples_beyond, tail};
use wormbench::trace::{per_root, self_times_ns, to_chrome_json, Span, Tracer};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let values = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    // Fewer than 20 samples: not even the median has ten beyond it.
    assert_eq!(tail(&values(19)), None);
    assert_eq!(tail(&values(20)), Some((50.0, 10.0)));
    // 40 samples: p75 (rank 30) leaves exactly ten; p90 only four.
    assert_eq!(tail(&values(40)), Some((75.0, 30.0)));
    assert_eq!(tail(&values(100)), Some((90.0, 90.0)));
    assert_eq!(tail(&values(1000)), Some((99.0, 990.0)));
    assert_eq!(tail(&values(10_000)), Some((99.9, 9990.0)));
    assert_eq!(samples_beyond(75.0, 40), 10);
    assert_eq!(samples_beyond(90.0, 40), 4);
    assert_eq!(samples_beyond(50.0, 0), 0);
    // Order of the input does not matter.
    let mut shuffled = values(40);
    shuffled.reverse();
    assert_eq!(tail(&shuffled), Some((75.0, 30.0)));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn digest_matches_fnv1a_and_sees_every_bit() {
    // Published FNV-1a 64 test vectors.
    let mut h = Fnv64::new();
    assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
    h.bytes(b"a");
    assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    let mut h = Fnv64::new();
    h.bytes(b"foobar");
    assert_eq!(h.finish(), 0x8594_4171_f739_67e8);

    let of = |f: &dyn Fn(&mut Fnv64)| {
        let mut h = Fnv64::new();
        f(&mut h);
        h.finish()
    };
    assert_ne!(of(&|h| h.f64(0.0)), of(&|h| h.f64(-0.0)));
    assert_ne!(of(&|h| h.f64(1.0)), of(&|h| h.f64(1.0 + f64::EPSILON)));
    assert_ne!(
        of(&|h| {
            h.str("ab");
            h.str("c")
        }),
        of(&|h| {
            h.str("a");
            h.str("bc")
        })
    );
    assert_eq!(of(&|h| h.u64(7)), of(&|h| h.u64(7)));
    assert_ne!(combine([1, 2]), combine([2, 1]));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        run: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = [
        span("bench.pass", 0, 100, None),
        span("core.query", 10, 30, Some(0)),
        span("core.query", 20, 50, Some(0)), // overlaps its sibling
        span("workload.flow_build", 60, 70, Some(0)),
        span("sim.run", 62, 66, Some(3)), // grandchild: only its parent loses it
        span("guard.knee", 90, 120, Some(0)), // runs past its parent's end
        span("bench.setup", 200, 210, None),
    ];
    // bench.pass: 100 − [10,50) − [60,70) − [90,100) = 40.
    assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 6, 4, 30, 10]);

    let roots = per_root(&spans);
    assert_eq!(roots.len(), 2);
    let (name, pass) = &roots[0];
    assert_eq!(*name, "bench.pass");
    let close = |k: &str, v: f64| (pass[k] - v).abs() < 1e-15;
    assert!(close("bench.self_s", 40e-9));
    assert!(close("core.self_s", 50e-9));
    assert!(close("core.query_s", 50e-9));
    assert!(close("workload.self_s", 6e-9));
    assert!(close("trace.spans", 6.0));
    assert_eq!(roots[1].0, "bench.setup");
    assert_eq!(roots[1].1["trace.spans"], 1.0);
}

#[test]
fn tracer_nests_spans_and_writes_well_formed_json() {
    let mut t = Tracer::new(true);
    let outer = t.open("bench.pass", 1);
    let inner = t.open("core.query", 2);
    t.close(inner);
    let now = std::time::Instant::now();
    t.record("sim.run", 3, now, now);
    t.close(outer);
    let s = t.spans();
    assert_eq!(s.len(), 3);
    assert_eq!(
        (s[0].parent, s[1].parent, s[2].parent),
        (None, Some(0), Some(0))
    );
    assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    assert!(wormbench::adapter::json_is_well_formed(&to_chrome_json(s)));

    let mut off = Tracer::new(false);
    let o = off.open("bench.pass", 1);
    off.close(o);
    off.record("sim.run", 1, now, now);
    assert!(off.spans().is_empty());
}

#[test]
fn calibration_loop_does_the_same_work_every_time() {
    let (t1, c1) = wormbench::calibrate::run();
    let (t2, c2) = wormbench::calibrate::run();
    assert_eq!(c1, c2);
    assert!(t1 > 0.0 && t2 > 0.0);
}

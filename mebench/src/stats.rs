//! Order statistics, the goodput ladder rule, the check tally and the
//! result line. Everything the benchmark reports goes through here, so the
//! self-tests at the bottom pin the numbers its readers compare.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so a
/// spread the benchmark prints matches the one its consumer computes.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let (n, m) = (4usize, ld + 1);
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// The highest percentile, at most `target`, that leaves at least ten
/// samples above it, with its value (nearest-rank). Returns
/// `(percentile in [0, 1], value)`, or `None` below eleven samples.
pub fn top_percentile(xs: &[f64], target: f64) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let s = sorted(xs);
    let n = s.len();
    if n <= BEYOND {
        return None;
    }
    let q = target.min(1.0 - BEYOND as f64 / n as f64);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n - BEYOND);
    Some((q, s[rank - 1]))
}

/// Samples per window of [`windowed_tail`]: enough that p99 leaves twenty
/// samples beyond it.
pub const TAIL_WINDOW: usize = 2000;

/// The median over consecutive windows of [`TAIL_WINDOW`] samples of each
/// window's [`top_percentile`], with the percentile used and the window
/// count. A stall that lands in one window moves this by one rank instead
/// of owning the whole tail. Fewer samples than two windows: one window.
pub fn windowed_tail(xs: &[f64], target: f64) -> Option<(f64, f64, usize)> {
    let windows = (xs.len() / TAIL_WINDOW).max(1);
    let per = xs.len() / windows;
    let tails: Vec<(f64, f64)> = (0..windows)
        .filter_map(|w| top_percentile(&xs[w * per..(w + 1) * per], target))
        .collect();
    let q = tails.first()?.0;
    let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    Some((q, median(&values), windows))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The ladder rule for one rate step: every request resolved `Ok` and was
/// admitted, the tail latency met the limit, and the step completed at
/// least `BACKLOG_FLOOR` of its offered rate (a backlog that keeps growing
/// stretches the completion span past the arrival span).
pub fn step_passes(
    tail_ms: f64,
    limit_ms: f64,
    failed: u64,
    achieved_rps: f64,
    offered_rps: f64,
) -> bool {
    const BACKLOG_FLOOR: f64 = 0.95;
    failed == 0 && tail_ms <= limit_ms && achieved_rps >= BACKLOG_FLOOR * offered_rps
}

/// The goodput search over a fixed ladder of `len` ascending rates, one
/// probe at a time: an adaptive staircase. It starts mid-ladder with a
/// quarter-ladder stride, moves up after a pass and down after a failure,
/// halves the stride at every reversal and doubles it after three moves the
/// same way, so it homes in on the threshold and follows it if the host's
/// capacity drifts during the run.
///
/// Once the stride is one step, each probe contributes one sample: its
/// own measured value if it passed, else the latest value measured at the
/// highest passing step below it. The result is the median sample, so a
/// probe spoiled by a stall moves one sample, not the metric.
#[derive(Debug, Clone)]
pub struct Ladder {
    len: usize,
    step: usize,
    stride: usize,
    /// Direction of the last move (+1 up, -1 down, 0 none yet) and how
    /// many moves in a row went that way.
    dir: i32,
    run: u32,
    /// Latest value measured at each passing index.
    passed: std::collections::BTreeMap<usize, f64>,
    samples: Vec<f64>,
}

impl Ladder {
    pub fn new(len: usize) -> Ladder {
        assert!(len > 0, "an empty ladder");
        Ladder {
            len,
            step: len / 2,
            stride: (len / 4).max(1),
            dir: 0,
            run: 0,
            passed: Default::default(),
            samples: Vec::new(),
        }
    }

    /// The ladder index to probe next.
    pub fn next(&self) -> usize {
        self.step
    }

    /// Record the probe of step `i`: whether it passed, and its measured
    /// value (the achieved rate).
    pub fn record(&mut self, i: usize, pass: bool, value: f64) {
        if pass {
            self.passed.insert(i, value);
        }
        if self.stride == 1 {
            let below = if pass {
                Some(value)
            } else {
                self.passed.range(..i).next_back().map(|(_, &v)| v)
            };
            self.samples.extend(below);
        }
        let dir = if pass { 1 } else { -1 };
        if dir == self.dir {
            self.run += 1;
            if self.run >= 3 {
                self.stride = (self.stride * 2).min((self.len / 4).max(1));
                self.run = 0;
            }
        } else {
            if self.dir != 0 {
                self.stride = (self.stride / 2).max(1);
            }
            self.dir = dir;
            self.run = 1;
        }
        self.step = if pass {
            (i + self.stride).min(self.len - 1)
        } else {
            i.saturating_sub(self.stride)
        };
    }

    /// Median sample; before the stride reaches one step, the highest
    /// passing value seen (0 if nothing passed).
    pub fn result(&self) -> f64 {
        if self.samples.is_empty() {
            return self.passed.values().next_back().copied().unwrap_or(0.0);
        }
        median(&self.samples)
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// Running tally of output checks: every timed output that is checked
/// counts as attempted; a wrong output, a refused request or a non-`Ok`
/// outcome counts as failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Record one check; the first few failures are reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 8 {
                eprintln!("check failed: {what}");
            }
        }
    }

    /// Record `n` operations that all failed (refused or lost requests).
    pub fn fail_many(&mut self, n: u64, what: &str) {
        if n > 0 {
            self.attempted += n;
            self.failed += n;
            eprintln!("check failed: {n} x {what}");
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// True when two f64 buffers hold identical bits.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One named metric as the result line carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`. Values print with Rust's shortest round-trip
/// formatting, so every digit measured survives.
pub fn render_result(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        // Plenty of samples: the target percentile itself.
        assert_eq!(top_percentile(&xs, 0.99), Some((0.99, 9900.0)));
        // 200 samples: p99 would leave 2 beyond, so fall back to p95.
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        let (q, v) = top_percentile(&small, 0.99).expect("enough samples");
        assert!((q - 0.95).abs() < 1e-12);
        assert_eq!(v, 190.0);
        assert_eq!(small.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(top_percentile(&small[..10], 0.99), None);
    }

    #[test]
    fn windowed_tail_shrugs_off_one_bad_window() {
        let mut xs: Vec<f64> = (0..5 * TAIL_WINDOW).map(|i| (i % 100) as f64).collect();
        let (q, calm, windows) = windowed_tail(&xs, 0.99).expect("enough samples");
        assert_eq!((q, calm, windows), (0.99, 98.0, 5));
        // A stall that spoils the second window entirely.
        for x in &mut xs[TAIL_WINDOW..2 * TAIL_WINDOW] {
            *x += 1000.0;
        }
        assert_eq!(windowed_tail(&xs, 0.99), Some((0.99, 98.0, 5)));
        assert!(
            top_percentile(&xs, 0.99).expect("enough samples").1 > 1000.0,
            "the plain tail sees the stall"
        );
        // A short sample is one window.
        assert_eq!(windowed_tail(&xs[..50], 0.99).map(|t| t.2), Some(1));
    }

    /// Run `probes` probes against `passes(probe, index)`; a step reports
    /// 100 × its index + 1.
    fn walk(len: usize, probes: usize, passes: impl Fn(usize, usize) -> bool) -> Ladder {
        let mut l = Ladder::new(len);
        for p in 0..probes {
            let i = l.next();
            l.record(i, passes(p, i), 100.0 * i as f64 + 1.0);
        }
        l
    }

    #[test]
    fn staircase_homes_in_on_any_threshold() {
        for len in [1, 2, 7, 66] {
            for threshold in 1..=len {
                // Steps below `threshold` pass.
                let l = walk(len, 40, |_, i| i < threshold);
                let want = 100.0 * (threshold - 1) as f64 + 1.0;
                assert_eq!(l.result(), want, "len {len} threshold {threshold}");
            }
        }
        assert_eq!(walk(66, 40, |_, _| false).result(), 0.0, "nothing passes");
    }

    #[test]
    fn staircase_follows_drift_and_ignores_one_stall() {
        // Capacity drifts up by two steps mid-run; one probe stalls.
        let l = walk(66, 60, |p, i| i < if p < 30 { 40 } else { 42 } && p != 45);
        let r = l.result();
        assert!((3901.0..=4101.0).contains(&r), "{r}");
        assert!(l.samples() > 40, "{}", l.samples());
    }

    #[test]
    fn step_rule_needs_limit_backlog_and_no_failures() {
        assert!(step_passes(4.0, 5.0, 0, 9_900.0, 10_000.0));
        assert!(
            !step_passes(6.0, 5.0, 0, 9_900.0, 10_000.0),
            "tail over the limit"
        );
        assert!(
            !step_passes(4.0, 5.0, 1, 9_900.0, 10_000.0),
            "a failed request"
        );
        assert!(
            !step_passes(4.0, 5.0, 0, 9_400.0, 10_000.0),
            "growing backlog"
        );
    }

    #[test]
    fn corrupted_output_raises_failed_frac() {
        let good = vec![1.0f64, 2.0, 3.0];
        let mut bad = good.clone();
        bad[1] = f64::from_bits(bad[1].to_bits() ^ 1);
        let mut checks = Checks::default();
        checks.check(bitwise_eq(&good, &good), "identical");
        assert_eq!(checks.failed_frac(), 0.0);
        checks.check(bitwise_eq(&good, &bad), "one flipped bit");
        assert_eq!(checks.failed_frac(), 0.5);
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            Metric {
                name: "gemm_gflops".into(),
                value: 17.123456789012345,
                unit: "GFLOP/s",
            },
            Metric {
                name: "ozaki_rel_err".into(),
                value: 3.4e-17,
                unit: "1",
            },
            Metric {
                name: "setup_s".into(),
                value: 0.8127,
                unit: "s",
            },
        ];
        let checks = Checks {
            attempted: 12,
            failed: 1,
        };
        let line = render_result(false, &checks, &metrics);
        let v = json::parse(&line).expect("valid JSON");
        let top = v.object().expect("object");
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(v.get("attempted"), Some(&json::Value::Num(12.0)));
        assert_eq!(v.get("failed"), Some(&json::Value::Num(1.0)));
        let parsed = v
            .get("metrics")
            .and_then(json::Value::object)
            .expect("metrics");
        assert_eq!(parsed.len(), metrics.len());
        for (m, (name, body)) in metrics.iter().zip(parsed) {
            assert_eq!(name, &m.name);
            assert_eq!(
                body.get("value"),
                Some(&json::Value::Num(m.value)),
                "{name}"
            );
            assert_eq!(
                body.get("unit"),
                Some(&json::Value::Str(m.unit.to_string()))
            );
        }
    }

    /// Just enough JSON to read the result line back.
    mod json {
        #[derive(Debug, PartialEq)]
        pub enum Value {
            Bool(bool),
            Num(f64),
            Str(String),
            Obj(Vec<(String, Value)>),
        }

        impl Value {
            pub fn object(&self) -> Option<&Vec<(String, Value)>> {
                match self {
                    Value::Obj(o) => Some(o),
                    _ => None,
                }
            }

            pub fn get(&self, key: &str) -> Option<&Value> {
                self.object()?
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
            }
        }

        pub fn parse(s: &str) -> Option<Value> {
            let mut p = s.trim().as_bytes();
            let v = value(&mut p)?;
            p.is_empty().then_some(v)
        }

        fn skip_ws(p: &mut &[u8]) {
            while let Some((b' ', rest)) = p.split_first() {
                *p = rest;
            }
        }

        fn eat(p: &mut &[u8], c: u8) -> Option<()> {
            skip_ws(p);
            let (&first, rest) = p.split_first()?;
            (first == c).then(|| *p = rest)
        }

        fn string(p: &mut &[u8]) -> Option<String> {
            eat(p, b'"')?;
            let end = p.iter().position(|&b| b == b'"')?;
            let s = std::str::from_utf8(&p[..end]).ok()?.to_string();
            *p = &p[end + 1..];
            Some(s)
        }

        fn value(p: &mut &[u8]) -> Option<Value> {
            skip_ws(p);
            match p.first()? {
                b'{' => {
                    eat(p, b'{')?;
                    let mut fields = Vec::new();
                    if eat(p, b'}').is_some() {
                        return Some(Value::Obj(fields));
                    }
                    loop {
                        let k = string(p)?;
                        eat(p, b':')?;
                        fields.push((k, value(p)?));
                        if eat(p, b'}').is_some() {
                            return Some(Value::Obj(fields));
                        }
                        eat(p, b',')?;
                    }
                }
                b'"' => string(p).map(Value::Str),
                b't' | b'f' => {
                    let word = if p.starts_with(b"true") {
                        "true"
                    } else {
                        "false"
                    };
                    p.starts_with(word.as_bytes())
                        .then(|| *p = &p[word.len()..])?;
                    Some(Value::Bool(word == "true"))
                }
                _ => {
                    let end = p
                        .iter()
                        .position(|b| !(b.is_ascii_digit() || b"+-.eE".contains(b)))
                        .unwrap_or(p.len());
                    let n = std::str::from_utf8(&p[..end]).ok()?.parse().ok()?;
                    *p = &p[end..];
                    Some(Value::Num(n))
                }
            }
        }
    }
}

//! Percentiles, span tallies, open-loop due times and the JSON result line.

use std::collections::BTreeMap;
use std::time::Duration;

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64) * pct / 100.0).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median of unordered values (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Calls and summed time by span name.
#[derive(Clone, Debug, Default)]
pub struct Tally(BTreeMap<&'static str, (u64, Duration)>);

impl Tally {
    /// Adds `calls` calls that took `time` in all.
    pub fn add(&mut self, name: &'static str, calls: u64, time: Duration) {
        let entry = self.0.entry(name).or_default();
        entry.0 += calls;
        entry.1 += time;
    }

    pub fn merge(&mut self, other: &Tally) {
        for (name, &(calls, time)) in &other.0 {
            self.add(name, calls, time);
        }
    }

    /// `(calls, time)` of `name`; zero when it never ran.
    pub fn get(&self, name: &str) -> (u64, Duration) {
        self.0.get(name).copied().unwrap_or_default()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64, Duration)> + '_ {
        self.0
            .iter()
            .map(|(name, &(calls, time))| (*name, calls, time))
    }
}

/// The open-loop arrival schedule: tick `n` is due `n / rate` seconds
/// after the phase starts, and belongs to connection `n % conns`, so each
/// connection's share of the ticks is fixed before the run starts.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Ticks per second, across all connections.
    pub rate: f64,
    /// Connections the ticks are dealt to.
    pub conns: usize,
    /// Ticks in the phase.
    pub ticks: usize,
}

impl Schedule {
    /// A phase of `rate` ticks per second lasting `seconds`.
    pub fn new(rate: f64, seconds: f64, conns: usize) -> Schedule {
        Schedule {
            rate,
            conns: conns.max(1),
            ticks: (rate * seconds).round() as usize,
        }
    }

    /// When tick `n` is due, measured from the phase start.
    pub fn due(&self, n: usize) -> Duration {
        Duration::from_secs_f64(n as f64 / self.rate)
    }

    /// The ticks connection `conn` sends, in order.
    pub fn ticks_of(&self, conn: usize) -> impl Iterator<Item = usize> {
        (conn..self.ticks).step_by(self.conns)
    }
}

/// How late the *load generator* was in sending a tick: the time between the
/// moment it could have sent (the later of the due time and the previous
/// reply on the same connection) and the moment it did. A busy server
/// delays the previous reply, never this figure.
pub fn sender_lag(due: Duration, prev_reply: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due.max(prev_reply))
}

/// One metric in the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line the benchmark contract asks for: `correct`,
/// `attempted`, `failed` and `metrics`, with every value at full precision.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric that could not be computed is
/// reported as 0 (and the run is marked incorrect by its caller).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile(&sorted, 99.0), Some(99.0));
        assert_eq!(percentile(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 1000 samples: p99 is the 990th, leaving ten beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
    }

    #[test]
    fn tally_adds_and_merges_by_name() {
        let ms = Duration::from_millis;
        let mut a = Tally::default();
        a.add("accept", 1, ms(2));
        a.add("accept", 1, ms(3));
        let mut b = Tally::default();
        b.add("accept", 2, ms(5));
        b.add("demonstrate", 1, ms(7));
        a.merge(&b);
        assert_eq!(a.get("accept"), (4, ms(10)));
        assert_eq!(a.get("demonstrate"), (1, ms(7)));
        assert_eq!(a.get("finish"), (0, Duration::ZERO));
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn schedule_deals_ticks_round_robin_at_fixed_due_times() {
        let s = Schedule::new(100.0, 2.0, 2);
        assert_eq!(s.ticks, 200);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(150), Duration::from_millis(1500));
        let c0: Vec<usize> = s.ticks_of(0).take(3).collect();
        let c1: Vec<usize> = s.ticks_of(1).take(3).collect();
        assert_eq!(c0, vec![0, 2, 4]);
        assert_eq!(c1, vec![1, 3, 5]);
        assert_eq!(s.ticks_of(0).count() + s.ticks_of(1).count(), 200);
    }

    #[test]
    fn latency_counts_from_due_time_and_lag_blames_only_the_load_generator() {
        let ms = Duration::from_millis;
        // The previous reply came back 30 ms after this tick was due: the
        // wait is the server's, so the load generator was not late...
        assert_eq!(sender_lag(ms(100), ms(130), ms(130)), Duration::ZERO);
        // ...but the tick's latency still counts from its due time.
        let done = ms(140);
        assert_eq!(done - ms(100), ms(40));
        // A connection that was free and still sent 5 ms late is the
        // load generator's own lag.
        assert_eq!(sender_lag(ms(100), ms(90), ms(105)), ms(5));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "latency_p50_ms".into(),
                value: 1.25,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
    }
}

//! Result accounting, percentiles, a seeded generator and a digest.

use crate::prep::Verdict;

/// What one run reports: operation counts and named metrics.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, or server starts).
    pub attempted: u64,
    /// Operations that failed for any reason: a non-200, a wrong answer,
    /// a connection error or a start that never became ready.
    pub failed: u64,
    /// The subset of `failed` whose answer was wrong; any makes the run
    /// incorrect.
    pub wrong: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Count one operation with its verdict.
    pub fn record(&mut self, verdict: Verdict) {
        self.attempted += 1;
        if verdict != Verdict::Ok {
            self.failed += 1;
        }
        if verdict == Verdict::Wrong {
            self.wrong += 1;
        }
    }

    /// Record a metric; names must be unique within a run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.metrics.iter().all(|(n, _, _)| n != name));
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// Correct means no wrong answer; refused or lost requests count as
    /// failed but not as wrong.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 1e9 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Steal time of all CPUs so far, from `/proc/stat` (0 where absent):
/// CPU time the hypervisor gave other tenants while this host wanted it.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        // USER_HZ is 100 on Linux.
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed` so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ba5e_0fc0_ffee)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rows in a SPARQL JSON results body: the objects directly inside the
/// `bindings` array, found with a scanner that skips string contents.
pub fn json_rows(body: &[u8]) -> Option<usize> {
    const KEY: &[u8] = b"\"bindings\":[";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let (mut depth, mut rows, mut in_string, mut escaped) = (0usize, 0usize, false, false);
    for &b in &body[start..] {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    rows += 1;
                }
                depth += 1;
            }
            b'}' => depth = depth.checked_sub(1)?,
            b']' if depth == 0 => return Some(rows),
            _ => {}
        }
    }
    None
}

/// Rows in a tab-separated results body: lines after the header.
pub fn tsv_rows(body: &[u8]) -> Option<usize> {
    let lines = body.iter().filter(|&&b| b == b'\n').count();
    lines.checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_rows_skip_braces_inside_strings() {
        let body = br#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"a}{\"b"}},{"x":{"type":"uri","value":"http://e/"}}]}}"#;
        assert_eq!(json_rows(body), Some(2));
        assert_eq!(json_rows(br#"{"results":{"bindings":[]}}"#), Some(0));
        assert_eq!(tsv_rows(b"x\ty\n1\t2\n3\t4\n"), Some(2));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
    }
}

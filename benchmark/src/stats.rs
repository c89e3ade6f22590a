//! Order statistics over timing samples, and the process's resident memory.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty sample: every metric is taken over at least one.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of the percentiles 50, 75, 90, 95, 99 and 99.9 that has at
/// least ten samples beyond it, as `(percentile, value)` by nearest rank.
/// `None` when there are fewer than 20 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|q| {
            let rank = ((q / 100.0) * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= 10).then(|| (q, v[rank - 1]))
        })
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MiB.
fn proc_status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    kib / 1024.0
}

/// Current resident set size, MiB.
pub fn rss_mib() -> f64 {
    proc_status_mib("VmRSS")
}

/// Resident high-water mark of the process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_mib("VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        assert_eq!(tail(&xs[..19]), None);
        assert_eq!(tail(&xs[..20]), Some((50.0, 10.0)));
    }
}

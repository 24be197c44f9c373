//! Aggregation of repeated timings, and the `/proc` readers.

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest value.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Mean of the middle half of the values (the interquartile mean): like
/// the median it ignores the slowest quarter, where bursts of the box land,
/// but it averages over more seeds, whose work differs.
pub fn midmean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quarter = v.len() / 4;
    mean(&v[quarter..v.len() - quarter])
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// One-minute load average, for reading a noisy run.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn midmean_drops_the_outer_quarters() {
        // Eight values: the two fastest and the two slowest (one of them a
        // 9 s burst) are dropped, the middle four are averaged.
        let v = [1.0, 9.0, 1.2, 2.0, 2.2, 2.1, 1.1, 3.0];
        assert!((midmean(&v) - (1.2 + 2.0 + 2.1 + 2.2) / 4.0).abs() < 1e-12);
        // Fewer than four values: nothing to drop.
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn median_of_an_even_count_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn parses_vm_hwm_from_a_canned_status() {
        let status =
            "Name:\tperf_profile\nVmPeak:\t  200000 kB\nVmHWM:\t  153600 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(150.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }
}

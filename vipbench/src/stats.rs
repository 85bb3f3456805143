//! Exact order statistics and process measurements.

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. Exact, never interpolated
/// and never bucketed. 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples per chunk of [`chunked_quantile`]: the p99 of a chunk has ten
/// samples beyond it.
pub const CHUNK: usize = 1000;

/// The median, over consecutive chunks of [`CHUNK`] samples in arrival
/// order, of each chunk's exact `q` quantile. Another guest taking the
/// shared core (steal time) spoils the chunks it lands in with
/// millisecond stalls; the median chunk still shows the server's own
/// latency, and a change that slows every request moves it as much as
/// any chunk. With fewer than one full chunk, the quantile of all
/// samples.
pub fn chunked_quantile(samples: &[u64], q: f64) -> f64 {
    let per_chunk: Vec<f64> = samples
        .chunks_exact(CHUNK)
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            quantile(&c, q) as f64
        })
        .collect();
    if per_chunk.is_empty() {
        let mut all = samples.to_vec();
        all.sort_unstable();
        return quantile(&all, q) as f64;
    }
    median(&per_chunk)
}

/// Median of float samples (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of integer samples, as a float.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

pub fn mean_u64(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_order_statistics() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_u64(&[5, 1, 9]), 5.0);
    }

    #[test]
    fn stalled_chunks_do_not_move_the_chunked_quantile_but_slowdowns_do() {
        let mut v: Vec<u64> = (0..8 * CHUNK as u64).map(|i| 100 + i % 10).collect();
        let clean = chunked_quantile(&v, 0.99);
        assert_eq!(clean, 109.0);
        for x in &mut v[..3 * CHUNK] {
            *x *= 50;
        }
        assert_eq!(chunked_quantile(&v, 0.99), clean);
        for x in &mut v {
            *x *= 2;
        }
        assert!(chunked_quantile(&v, 0.99) >= 2.0 * clean);
        assert_eq!(chunked_quantile(&[3, 1, 2], 0.5), 2.0);
    }
}

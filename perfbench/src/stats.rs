//! Order statistics. Timings are reported as a median and a tail
//! percentile: the highest percentile (capped at p99) that still has at
//! least ten samples beyond it, so a tail is never read off a handful of
//! points.

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of unsorted samples; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest percentile, at most 99, with at least [`TAIL_SAMPLES`]
/// samples beyond its nearest rank; the median when there are too few.
pub fn tail_level(count: usize) -> f64 {
    if count <= 2 * TAIL_SAMPLES {
        return 50.0;
    }
    // Round down to a tenth of a percent so the rank stays far enough in.
    let permille = (count - TAIL_SAMPLES) * 1000 / count;
    (permille as f64 / 10.0).min(99.0)
}

/// `(level, value)` of the reportable tail.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let level = tail_level(samples.len());
    percentile(samples, level).map(|v| (level, v))
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(samples: &[f64], value: f64) -> usize {
        samples.iter().filter(|&&x| x > value).count()
    }

    #[test]
    fn tail_is_p99_once_a_thousand_samples_exist() {
        assert_eq!(tail_level(1000), 99.0);
        assert_eq!(tail_level(250_000), 99.0);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((99.0, 990.0)));
        assert_eq!(beyond(&samples, 990.0), 10);
    }

    #[test]
    fn smaller_runs_report_the_highest_percentile_with_ten_beyond() {
        for count in [21usize, 40, 99, 100, 333, 400, 999] {
            let samples: Vec<f64> = (1..=count).map(|i| i as f64).collect();
            let (level, value) = tail(&samples).unwrap();
            assert!(level < 99.0, "{count}: {level}");
            assert!(beyond(&samples, value) >= TAIL_SAMPLES, "{count}: {level}");
            // A tenth of a percent higher would leave fewer than ten beyond.
            let higher = percentile(&samples, level + 0.1).unwrap();
            assert!(
                beyond(&samples, higher) < TAIL_SAMPLES || level + 0.1 > 99.0,
                "{count}"
            );
        }
        assert_eq!(tail_level(100), 90.0);
        assert_eq!(tail_level(400), 97.5);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        assert_eq!(tail_level(20), 50.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), Some((50.0, 2.0)));
        assert_eq!(tail(&[]), None);
    }
}

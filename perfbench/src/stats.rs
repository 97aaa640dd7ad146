//! Exact order statistics over the benchmark's own per-call timers.

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of `xs`: the smallest sample
/// with at least a `p` share of the samples at or below it. Exact, so a
/// change smaller than any bucket width still shows. 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The time of a typical pass, in the unit of the samples, from passes
/// made of different operations spread over `draws` input draws:
/// `per_op[op]` holds every latency measured for one operation of one
/// draw. Each operation's median stands for it, so a burst of
/// interference in one pass does not move the figure, and the sum over
/// all operations is averaged over the draws.
pub fn typical_pass(per_op: &[Vec<f64>], draws: usize) -> f64 {
    per_op.iter().map(|xs| median(xs)).sum::<f64>() / draws as f64
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_are_exact() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.99), 5.0);
        assert_eq!(percentile(&xs, 0.2), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(mean(&[]), 0.0);
        let per_op = [vec![1.0, 9.0, 2.0], vec![10.0], vec![4.0, 4.0]];
        assert_eq!(typical_pass(&per_op, 2), (2.0 + 10.0 + 4.0) / 2.0);
    }
}

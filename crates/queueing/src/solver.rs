//! Numerical solvers shared by the analytical models.
//!
//! [`bisect_increasing`] — bracketing bisection on a monotone function,
//! used for the throughput computation of paper §2.3/§3.5: find the
//! arrival rate where the source service time crosses `1/λ₀`.

use crate::{QueueingError, Result};

/// Configuration for [`bisect_increasing`].
#[derive(Debug, Clone, Copy)]
pub struct BisectionConfig {
    /// Absolute tolerance on the argument.
    pub x_tolerance: f64,
    /// Maximum number of halvings.
    pub max_iterations: usize,
}

impl Default for BisectionConfig {
    fn default() -> Self {
        Self {
            x_tolerance: 1e-12,
            max_iterations: 200,
        }
    }
}

/// Finds the zero crossing of a monotonically increasing function `g` on
/// `[lo, hi]`, i.e. the point where `g` changes sign from negative to
/// non-negative.
///
/// Used for saturation scans where `g(λ) = x̄₀,₁(λ) − 1/λ` (paper Eq. 26):
/// `g` is negative below saturation and positive above it. `g` may return
/// an error above saturation (the model's queues blow up); such errors are
/// treated as "`g` is positive there", which makes the solver robust to the
/// model refusing to evaluate past the knee.
///
/// # Errors
///
/// * [`QueueingError::BracketError`] when `g(lo)` is already non-negative
///   (no crossing in the interval) — except that an error at `lo` itself is
///   propagated, since it means the caller bracketed blindly.
pub fn bisect_increasing<G>(lo: f64, hi: f64, config: BisectionConfig, mut g: G) -> Result<f64>
where
    G: FnMut(f64) -> Result<f64>,
{
    if lo >= hi || !lo.is_finite() || !hi.is_finite() {
        return Err(QueueingError::BracketError { lo, hi });
    }
    let g_lo = g(lo)?;
    if g_lo >= 0.0 {
        return Err(QueueingError::BracketError { lo, hi });
    }
    // Above saturation the model may fail to evaluate; treat failure as
    // "crossed" (positive).
    let sign = |v: Result<f64>| -> f64 {
        match v {
            Ok(y) => y,
            Err(_) => f64::INFINITY,
        }
    };
    let mut a = lo;
    let mut b = hi;
    if sign(g(hi)) < 0.0 {
        // No crossing within [lo, hi]: the function never reaches zero.
        return Err(QueueingError::BracketError { lo, hi });
    }
    for _ in 0..config.max_iterations {
        let mid = 0.5 * (a + b);
        if b - a < config.x_tolerance {
            return Ok(mid);
        }
        if sign(g(mid)) < 0.0 {
            a = mid;
        } else {
            b = mid;
        }
    }
    Ok(0.5 * (a + b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_simple_root() {
        // g(x) = x² − 2 on [0, 2] → √2.
        let root =
            bisect_increasing(0.0, 2.0, BisectionConfig::default(), |x| Ok(x * x - 2.0)).unwrap();
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_handles_error_as_positive_region() {
        // g errors above 1.0 (like a saturated model); root of x−0.5 is 0.5.
        let root = bisect_increasing(0.0, 2.0, BisectionConfig::default(), |x| {
            if x > 1.0 {
                Err(QueueingError::Saturated { utilization: x })
            } else {
                Ok(x - 0.5)
            }
        })
        .unwrap();
        assert!((root - 0.5).abs() < 1e-10);
    }

    #[test]
    fn bisect_rejects_bad_brackets() {
        // g(lo) already positive.
        assert!(matches!(
            bisect_increasing(1.0, 2.0, BisectionConfig::default(), Ok),
            Err(QueueingError::BracketError { .. })
        ));
        // Never crosses.
        assert!(matches!(
            bisect_increasing(0.0, 1.0, BisectionConfig::default(), |_| Ok(-1.0)),
            Err(QueueingError::BracketError { .. })
        ));
        // Degenerate interval.
        assert!(bisect_increasing(1.0, 1.0, BisectionConfig::default(), Ok).is_err());
        // Error at lo propagates.
        assert!(
            bisect_increasing(0.0, 1.0, BisectionConfig::default(), |_| Err::<f64, _>(
                QueueingError::InvalidServerCount
            ))
            .is_err()
        );
    }

    #[test]
    fn bisect_respects_tolerance() {
        let cfg = BisectionConfig {
            x_tolerance: 1e-3,
            max_iterations: 1000,
        };
        let root = bisect_increasing(0.0, 10.0, cfg, |x| Ok(x - 3.3)).unwrap();
        assert!((root - 3.3).abs() < 1e-3);
    }
}

//! Boltzmann (softmax) exploration with annealed temperature.

use rand::Rng;

/// A temperature schedule for annealed exploration: high temperature early
/// (near-uniform exploration), low temperature late (near-greedy search) —
/// the paper's simulated-annealing-style two-phase learning course (§3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemperatureSchedule {
    /// `T(k) = t0 * decay^k`, clamped below at `floor`.
    Geometric {
        /// Initial temperature.
        t0: f64,
        /// Multiplicative decay per step, in `(0, 1)`.
        decay: f64,
        /// Minimum temperature.
        floor: f64,
    },
    /// `T(k) = t0 / (1 + k)`, clamped below at `floor`.
    Harmonic {
        /// Initial temperature.
        t0: f64,
        /// Minimum temperature.
        floor: f64,
    },
    /// A fixed temperature.
    Constant(f64),
}

impl TemperatureSchedule {
    /// The temperature at step `k` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if the schedule parameters are invalid (non-positive
    /// temperatures, geometric decay outside `(0, 1)`).
    pub fn temperature(&self, k: u64) -> f64 {
        match *self {
            TemperatureSchedule::Geometric { t0, decay, floor } => {
                assert!(t0 > 0.0 && floor > 0.0, "temperatures must be positive");
                assert!(
                    (0.0..1.0).contains(&decay) && decay > 0.0,
                    "decay must be in (0, 1)"
                );
                (t0 * decay.powi(k.min(i32::MAX as u64) as i32)).max(floor)
            }
            TemperatureSchedule::Harmonic { t0, floor } => {
                assert!(t0 > 0.0 && floor > 0.0, "temperatures must be positive");
                (t0 / (1.0 + k as f64)).max(floor)
            }
            TemperatureSchedule::Constant(t) => {
                assert!(t > 0.0, "temperature must be positive");
                t
            }
        }
    }
}

/// A precomputed evaluator of a [`TemperatureSchedule`], bit-identical
/// to calling [`TemperatureSchedule::temperature`] at every step but
/// built for the per-sweep hot path (`powi` alone costs ~50ns per sweep
/// — a measurable slice of a training sweep):
///
/// * Geometric schedules replay `powi`'s exponentiation-by-squaring
///   from a table of the running squares `decay^(2^j)` precomputed at
///   construction — the identical multiplications in the identical
///   order, so the identical rounding.
/// * Annealing schedules never rise once they reach their `floor`
///   (each step shrinks the raw value by a relative factor that dwarfs
///   the few-ulp rounding of re-evaluation), so the first floored step
///   index is found once up front and every later step returns the
///   floor with no arithmetic at all.
///
/// Bit-equality with direct evaluation is locked by an exhaustive test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureCourse {
    schedule: TemperatureSchedule,
    /// `decay^(2^j)` — the running squares of the `powi` loop. Unused
    /// (all ones) for non-geometric schedules.
    squares: [f64; 31],
    /// `(k0, floor)`: from step `k0` on, the schedule returns `floor`.
    floor_from: Option<(u64, f64)>,
}

impl TemperatureCourse {
    /// Precomputes the evaluator.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`TemperatureSchedule::temperature`] (invalid parameters), with
    /// the same messages.
    pub fn new(schedule: TemperatureSchedule) -> Self {
        let mut squares = [1.0f64; 31];
        let floor = match schedule {
            TemperatureSchedule::Geometric { t0, decay, floor } => {
                assert!(t0 > 0.0 && floor > 0.0, "temperatures must be positive");
                assert!(
                    (0.0..1.0).contains(&decay) && decay > 0.0,
                    "decay must be in (0, 1)"
                );
                let mut square = decay;
                for slot in squares.iter_mut() {
                    *slot = square;
                    square *= square;
                }
                Some(floor)
            }
            TemperatureSchedule::Harmonic { t0, floor } => {
                assert!(t0 > 0.0 && floor > 0.0, "temperatures must be positive");
                Some(floor)
            }
            TemperatureSchedule::Constant(t) => {
                assert!(t > 0.0, "temperature must be positive");
                None
            }
        };
        let mut course = TemperatureCourse {
            schedule,
            squares,
            floor_from: None,
        };
        course.floor_from = match schedule {
            // A constant schedule is its own floor from step zero.
            TemperatureSchedule::Constant(t) => Some((0, t)),
            _ => floor.and_then(|floor| course.find_floor_crossing(floor)),
        };
        course
    }

    /// The first step index at which evaluation returns exactly `floor`
    /// (every later step only anneals further down). Starts from the
    /// analytic crossing estimate and settles the boundary by direct
    /// evaluation, so the answer is exact in the evaluated bits.
    fn find_floor_crossing(&self, floor: f64) -> Option<(u64, f64)> {
        let estimate = match self.schedule {
            TemperatureSchedule::Geometric { t0, decay, floor } => {
                if t0 <= floor {
                    0.0
                } else {
                    (floor / t0).ln() / decay.ln()
                }
            }
            TemperatureSchedule::Harmonic { t0, floor } => (t0 / floor - 1.0).max(0.0),
            TemperatureSchedule::Constant(_) => return None,
        };
        if !estimate.is_finite() || estimate >= i32::MAX as f64 {
            return None;
        }
        let mut k = estimate as u64;
        while k > 0 && self.evaluate(k - 1) <= floor {
            k -= 1;
        }
        // The analytic estimate is within a step or two; a short bounded
        // scan absorbs any rounding either way.
        for _ in 0..64 {
            if self.evaluate(k) <= floor {
                return Some((k, floor));
            }
            k += 1;
        }
        None
    }

    /// `decay^(min(k, i32::MAX))` replayed from the precomputed squares:
    /// the multiplications `f64::powi` performs, in its LSB-first order.
    #[inline]
    fn pow_decay(&self, k: u64) -> f64 {
        let mut bits = k.min(i32::MAX as u64) as u32;
        let mut result = 1.0f64;
        let mut j = 0usize;
        loop {
            if bits & 1 == 1 {
                result *= self.squares[j];
            }
            bits /= 2;
            if bits == 0 {
                break;
            }
            j += 1;
        }
        result
    }

    /// Direct (non-shortcut) evaluation through the squares table.
    #[inline]
    fn evaluate(&self, k: u64) -> f64 {
        match self.schedule {
            TemperatureSchedule::Geometric { t0, floor, .. } => (t0 * self.pow_decay(k)).max(floor),
            _ => self.schedule.temperature(k),
        }
    }

    /// The temperature at step `k` — bit-identical to
    /// `schedule.temperature(k)`.
    #[inline]
    pub fn at(&self, k: u64) -> f64 {
        if let Some((k0, floor)) = self.floor_from {
            if k >= k0 {
                return floor;
            }
        }
        self.evaluate(k)
    }
}

impl Default for TemperatureSchedule {
    /// A geometric anneal suited to repair-time costs measured in seconds:
    /// starts hot enough that hour-scale cost differences barely bias
    /// selection, cools to near-greedy within a few thousand steps.
    fn default() -> Self {
        TemperatureSchedule::Geometric {
            t0: 20_000.0,
            decay: 0.999,
            floor: 1.0,
        }
    }
}

/// One unnormalized Boltzmann weight, `exp(-(c - min) / t)`.
///
/// Minimum-cost actions shortcut the `exp` call: `c == min` makes the
/// argument `-0.0` and IEEE 754 requires `exp(±0.0) == 1.0` *exactly*,
/// so returning the constant is bit-identical and skips ~20ns of libm
/// per step on the always-present minimum element (and on every tied
/// cost — early training, where all actions still share `default_q`,
/// pays no `exp` at all).
#[inline]
fn boltzmann_weight(c: f64, min: f64, t: f64) -> f64 {
    if c == min {
        1.0
    } else {
        (-(c - min) / t).exp()
    }
}

/// Boltzmann action selection over *costs* (the paper's Eq. 5):
///
/// ```text
/// P(a | s) = exp(-Q(s, a) / T) / Σ_a' exp(-Q(s, a') / T)
/// ```
///
/// Low-cost actions are exponentially favoured as `T` drops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoltzmannSelector;

impl BoltzmannSelector {
    /// Creates a selector.
    pub fn new() -> Self {
        BoltzmannSelector
    }

    /// The selection probabilities for the given costs at temperature `t`.
    /// Numerically stable (shifts by the minimum cost before
    /// exponentiating).
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty, `t` is not strictly positive, or any
    /// cost is not finite.
    pub fn probabilities(&self, costs: &[f64], t: f64) -> Vec<f64> {
        assert!(!costs.is_empty(), "need at least one action");
        assert!(t > 0.0, "temperature must be positive, got {t}");
        assert!(
            costs.iter().all(|c| c.is_finite()),
            "costs must be finite: {costs:?}"
        );
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let weights: Vec<f64> = costs.iter().map(|&c| boltzmann_weight(c, min, t)).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// Samples an action index proportional to `exp(-cost / t)`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`BoltzmannSelector::probabilities`].
    pub fn select<R: Rng + ?Sized>(&self, costs: &[f64], t: f64, rng: &mut R) -> usize {
        let probs = self.probabilities(costs, t);
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        probs.len() - 1 // floating-point slack
    }

    /// Allocation-free [`BoltzmannSelector::select`]: `weights` is caller
    /// scratch, cleared and reused across calls.
    ///
    /// Performs the *same floating-point operations in the same order* as
    /// `select` — shift by the minimum, exponentiate, sum, then
    /// accumulate each `weight / total` against one uniform draw — and
    /// consumes exactly one RNG value, so for equal inputs and RNG state
    /// it returns the same index bit-for-bit. This is the hot-path
    /// variant the training loops use.
    ///
    /// # Panics
    ///
    /// Same conditions as [`BoltzmannSelector::probabilities`].
    pub fn select_with<R: Rng + ?Sized>(
        &self,
        costs: &[f64],
        t: f64,
        rng: &mut R,
        weights: &mut Vec<f64>,
    ) -> usize {
        assert!(!costs.is_empty(), "need at least one action");
        assert!(t > 0.0, "temperature must be positive, got {t}");
        assert!(
            costs.iter().all(|c| c.is_finite()),
            "costs must be finite: {costs:?}"
        );
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        weights.clear();
        weights.extend(costs.iter().map(|&c| boltzmann_weight(c, min, t)));
        let total: f64 = weights.iter().sum();
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, w) in weights.iter().enumerate() {
            acc += w / total;
            if u < acc {
                return i;
            }
        }
        costs.len() - 1 // floating-point slack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn course_is_bit_identical_to_direct_evaluation() {
        let schedules = [
            TemperatureSchedule::default(),
            // The trainer's fast and paper-scale anneals.
            TemperatureSchedule::Geometric {
                t0: 150_000.0,
                decay: 0.9988,
                floor: 5.0,
            },
            TemperatureSchedule::Geometric {
                t0: 300_000.0,
                decay: 0.99988,
                floor: 5.0,
            },
            // Floor above t0: floored from step zero.
            TemperatureSchedule::Geometric {
                t0: 2.0,
                decay: 0.5,
                floor: 10.0,
            },
            TemperatureSchedule::Harmonic {
                t0: 100.0,
                floor: 2.0,
            },
            TemperatureSchedule::Constant(4.2),
        ];
        for sched in schedules {
            let course = TemperatureCourse::new(sched);
            for k in 0..40_000u64 {
                assert_eq!(
                    course.at(k).to_bits(),
                    sched.temperature(k).to_bits(),
                    "{sched:?} diverges at k = {k}"
                );
            }
            // Spot-check far past any crossing, including the i32 clamp.
            for k in [100_000, 5_000_000, i32::MAX as u64, u64::MAX] {
                assert_eq!(course.at(k).to_bits(), sched.temperature(k).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1)")]
    fn course_rejects_bad_decay() {
        let _ = TemperatureCourse::new(TemperatureSchedule::Geometric {
            t0: 10.0,
            decay: 1.5,
            floor: 1.0,
        });
    }

    #[test]
    fn probabilities_sum_to_one() {
        let s = BoltzmannSelector::new();
        for t in [0.1, 1.0, 100.0, 1e6] {
            let p = s.probabilities(&[3.0, 1.0, 10.0, 5.5], t);
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "T = {t}: total {total}");
            assert!(p.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn cheaper_actions_are_more_likely() {
        let s = BoltzmannSelector::new();
        let p = s.probabilities(&[1.0, 2.0, 3.0], 1.0);
        assert!(p[0] > p[1] && p[1] > p[2], "{p:?}");
    }

    #[test]
    fn high_temperature_approaches_uniform() {
        let s = BoltzmannSelector::new();
        let p = s.probabilities(&[0.0, 1000.0], 1e9);
        assert!((p[0] - 0.5).abs() < 1e-3, "{p:?}");
    }

    #[test]
    fn low_temperature_approaches_greedy() {
        let s = BoltzmannSelector::new();
        let p = s.probabilities(&[0.0, 1.0], 1e-3);
        assert!(p[0] > 0.999, "{p:?}");
    }

    #[test]
    fn select_matches_probabilities_empirically() {
        let s = BoltzmannSelector::new();
        let mut rng = StdRng::seed_from_u64(3);
        let costs = [0.0, 1.0];
        let t = 1.0;
        let expect = s.probabilities(&costs, t);
        let n = 50_000;
        let hits = (0..n)
            .filter(|_| s.select(&costs, t, &mut rng) == 0)
            .count();
        let freq = hits as f64 / n as f64;
        assert!((freq - expect[0]).abs() < 0.01, "freq {freq} vs {expect:?}");
    }

    #[test]
    fn select_with_matches_select_bit_for_bit() {
        // The allocation-free variant must consume the same RNG stream
        // and pick the same indexes as the allocating reference.
        let s = BoltzmannSelector::new();
        let costs = [3.0, 1.0, 10.0, 5.5];
        let mut scratch = Vec::new();
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for k in 0..2_000u64 {
            let t = TemperatureSchedule::default().temperature(k);
            assert_eq!(
                s.select(&costs, t, &mut a),
                s.select_with(&costs, t, &mut b, &mut scratch),
                "diverged at step {k}"
            );
        }
    }

    #[test]
    fn huge_cost_gaps_are_numerically_stable() {
        let s = BoltzmannSelector::new();
        let p = s.probabilities(&[1e7, 1e12, 3e6], 10.0);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[2] > 0.999);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn rejects_zero_temperature() {
        let _ = BoltzmannSelector::new().probabilities(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one action")]
    fn rejects_empty_costs() {
        let _ = BoltzmannSelector::new().probabilities(&[], 1.0);
    }

    #[test]
    fn geometric_schedule_decays_to_floor() {
        let sched = TemperatureSchedule::Geometric {
            t0: 100.0,
            decay: 0.5,
            floor: 2.0,
        };
        assert_eq!(sched.temperature(0), 100.0);
        assert_eq!(sched.temperature(1), 50.0);
        assert_eq!(sched.temperature(60), 2.0, "clamped at the floor");
    }

    #[test]
    fn harmonic_schedule_decays_to_floor() {
        let sched = TemperatureSchedule::Harmonic {
            t0: 10.0,
            floor: 0.5,
        };
        assert_eq!(sched.temperature(0), 10.0);
        assert_eq!(sched.temperature(9), 1.0);
        assert_eq!(sched.temperature(1000), 0.5);
    }

    #[test]
    fn constant_schedule_is_constant() {
        let sched = TemperatureSchedule::Constant(4.2);
        assert_eq!(sched.temperature(0), 4.2);
        assert_eq!(sched.temperature(1_000_000), 4.2);
    }

    #[test]
    #[should_panic(expected = "decay")]
    fn rejects_bad_decay() {
        let sched = TemperatureSchedule::Geometric {
            t0: 1.0,
            decay: 1.5,
            floor: 0.1,
        };
        let _ = sched.temperature(0);
    }
}

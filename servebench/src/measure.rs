//! Operation accounting and summary statistics.

use std::time::Duration;

/// Problems kept verbatim per run; the rest are only counted.
const KEPT_PROBLEMS: usize = 8;

/// Operations attempted and failed, by failure kind.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with a `B` (busy) frame.
    pub refused: u64,
    /// Requests answered with an `E` frame, or lost with their connection.
    pub errored: u64,
    /// Answers that failed a reference check.
    pub wrong: u64,
    /// The first few error and mismatch descriptions.
    pub problems: Vec<String>,
}

impl Tally {
    /// Failed operations of every kind.
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.wrong
    }

    /// Counts an errored request.
    pub fn error(&mut self, what: String) {
        self.errored += 1;
        self.keep(what);
    }

    /// Counts a wrong answer.
    pub fn mismatch(&mut self, what: String) {
        self.wrong += 1;
        self.keep(what);
    }

    fn keep(&mut self, what: String) {
        if self.problems.len() < KEPT_PROBLEMS {
            self.problems.push(what);
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.errored += other.errored;
        self.wrong += other.wrong;
        for what in other.problems {
            self.keep(what);
        }
    }
}

/// The median of `values`, 0 for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// A duration in nanoseconds.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The `q`-quantile (nearest rank) of `values`, sorting them in place;
/// 0 for an empty sample.
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((values.len() as f64) * q).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1] as f64
}

/// `quantile` of nanosecond samples, in microseconds.
pub fn quantile_us(values: &mut [u64], q: f64) -> f64 {
    quantile(values, q) / 1e3
}

/// The mean of `values`, 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

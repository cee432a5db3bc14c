//! Virtual-clock time axis.
//!
//! Simulated time is kept as `f64` seconds wrapped in newtypes that
//! guarantee the values are never NaN (±∞ is allowed), which makes them
//! totally ordered and safe to sort and compare.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in seconds since simulation start.
///
/// Construction rejects NaN (panics), so `SimTime` is totally ordered and
/// implements `Ord`/`Eq` soundly.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. May be negative (e.g. the signed
/// lateness of a job against its deadline).
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a `SimTime` from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// Seconds since the simulation epoch.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Signed span from `earlier` to `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimDuration cannot be NaN");
        SimDuration(secs)
    }

    /// The span in seconds (signed).
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// `true` when the span is strictly positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0.0
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

macro_rules! impl_ord_via_f64 {
    ($t:ty) => {
        impl Eq for $t {}
        // Values are guaranteed non-NaN at construction, so partial_cmp
        // always succeeds.
        impl PartialOrd for $t {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for $t {
            #[inline]
            fn cmp(&self, other: &Self) -> Ordering {
                self.0
                    .partial_cmp(&other.0)
                    .expect("non-NaN by construction")
            }
        }
    };
}

impl_ord_via_f64!(SimTime);
impl_ord_via_f64!(SimDuration);

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(10.0);
        let d = SimDuration::from_secs(2.5);
        assert_eq!((t + d).as_secs(), 12.5);
        assert_eq!((t - d).as_secs(), 7.5);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn since_is_signed() {
        let a = SimTime::from_secs(5.0);
        let b = SimTime::from_secs(8.0);
        assert_eq!(b.since(a).as_secs(), 3.0);
        assert_eq!(a.since(b).as_secs(), -3.0);
        assert!(!a.since(b).is_positive());
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        v.sort();
        assert_eq!(
            v.iter().map(|t| t.as_secs()).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_duration_rejected() {
        let _ = SimDuration::from_secs(f64::NAN);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10.0);
        assert_eq!((d * 0.5).as_secs(), 5.0);
        assert_eq!((d / 4.0).as_secs(), 2.5);
        assert_eq!(d / SimDuration::from_secs(2.0), 5.0);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1.0);
        let y = SimDuration::from_secs(2.0);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }
}

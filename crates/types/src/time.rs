//! Simulated time.
//!
//! The simulator uses an integer clock counted in whole seconds since the
//! start of the experiment, which is defined to be **Monday 00:00**. An
//! integer clock keeps the discrete-event simulation deterministic and
//! totally ordered; sub-second precision is never needed because the paper's
//! smallest interval is the 30-second preemption grace period.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// One minute in seconds.
pub const MINUTE: u64 = 60;
/// One hour in seconds.
pub const HOUR: u64 = 3_600;
/// Seconds per day.
pub const SECONDS_PER_DAY: u64 = 24 * HOUR;
/// Seconds per week.
pub const SECONDS_PER_WEEK: u64 = 7 * SECONDS_PER_DAY;

/// A span of simulated time, in seconds.
pub type SimDuration = u64;

/// Day of week of a [`SimTime`]; the simulation epoch is a Monday.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Weekday {
    /// Monday (day 0 of the simulated week).
    Monday,
    /// Tuesday.
    Tuesday,
    /// Wednesday.
    Wednesday,
    /// Thursday.
    Thursday,
    /// Friday.
    Friday,
    /// Saturday.
    Saturday,
    /// Sunday.
    Sunday,
}

impl Weekday {
    /// All weekdays in order starting from Monday.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Index of the weekday, Monday = 0 .. Sunday = 6.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Weekday::Monday => 0,
            Weekday::Tuesday => 1,
            Weekday::Wednesday => 2,
            Weekday::Thursday => 3,
            Weekday::Friday => 4,
            Weekday::Saturday => 5,
            Weekday::Sunday => 6,
        }
    }
}

/// An instant of simulated time, in whole seconds since the epoch
/// (Monday 00:00 of week 0).
///
/// # Examples
///
/// ```
/// use gfs_types::{SimTime, Weekday};
///
/// let t = SimTime::from_hours(26); // Tuesday 02:00
/// assert_eq!(t.hour_of_day(), 2);
/// assert_eq!(t.weekday(), Weekday::Tuesday);
/// assert_eq!(t + 3_600, SimTime::from_hours(27));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch: Monday 00:00 of week 0.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from whole seconds since the epoch.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates a time from whole minutes since the epoch.
    #[must_use]
    pub const fn from_minutes(minutes: u64) -> Self {
        SimTime(minutes * MINUTE)
    }

    /// Creates a time from whole hours since the epoch.
    #[must_use]
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * HOUR)
    }

    /// Creates a time from whole days since the epoch.
    #[must_use]
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * SECONDS_PER_DAY)
    }

    /// Seconds since the epoch.
    #[must_use]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Whole hours since the epoch (floor).
    #[must_use]
    pub const fn as_hours(self) -> u64 {
        self.0 / HOUR
    }

    /// Hour of day in `0..24`.
    #[must_use]
    pub const fn hour_of_day(self) -> u64 {
        (self.0 % SECONDS_PER_DAY) / HOUR
    }

    /// Hour of week in `0..168`.
    #[must_use]
    pub const fn hour_of_week(self) -> u64 {
        (self.0 % SECONDS_PER_WEEK) / HOUR
    }

    /// Day index since the epoch.
    #[must_use]
    pub const fn day(self) -> u64 {
        self.0 / SECONDS_PER_DAY
    }

    /// Week index since the epoch.
    #[must_use]
    pub const fn week(self) -> u64 {
        self.0 / SECONDS_PER_WEEK
    }

    /// Day of week; the epoch is a Monday.
    #[must_use]
    pub fn weekday(self) -> Weekday {
        Weekday::ALL[((self.0 / SECONDS_PER_DAY) % 7) as usize]
    }

    /// Saturating difference `self - earlier` in seconds.
    #[must_use]
    pub const fn since(self, earlier: SimTime) -> SimDuration {
        self.0.saturating_sub(earlier.0)
    }

    /// Adds a duration, saturating at the numeric limit.
    #[must_use]
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// Difference in seconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::since`] for a saturating difference.
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.0 - rhs.0
    }
}

impl From<u64> for SimTime {
    fn from(secs: u64) -> Self {
        SimTime(secs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.day();
        let h = self.hour_of_day();
        let m = (self.0 % HOUR) / MINUTE;
        let s = self.0 % MINUTE;
        write!(f, "d{d} {h:02}:{m:02}:{s:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_hours(2).as_secs(), 7_200);
        assert_eq!(SimTime::from_days(1).as_hours(), 24);
        assert_eq!(SimTime::from_minutes(90).as_secs(), 5_400);
    }

    #[test]
    fn hour_of_day_wraps() {
        assert_eq!(SimTime::from_hours(25).hour_of_day(), 1);
        assert_eq!(SimTime::from_hours(48).hour_of_day(), 0);
    }

    #[test]
    fn hour_of_week_wraps() {
        assert_eq!(SimTime::from_hours(167).hour_of_week(), 167);
        assert_eq!(SimTime::from_hours(168).hour_of_week(), 0);
    }

    #[test]
    fn weekday_starts_monday() {
        assert_eq!(SimTime::ZERO.weekday(), Weekday::Monday);
        assert_eq!(SimTime::from_days(5).weekday(), Weekday::Saturday);
        assert_eq!(SimTime::from_days(6).weekday(), Weekday::Sunday);
        assert_eq!(SimTime::from_days(7).weekday(), Weekday::Monday);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(100);
        assert_eq!(t + 20, SimTime::from_secs(120));
        assert_eq!(SimTime::from_secs(120) - t, 20);
        assert_eq!(t.since(SimTime::from_secs(150)), 0, "since saturates");
        let mut u = t;
        u += 50;
        assert_eq!(u.as_secs(), 150);
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_secs(SECONDS_PER_DAY + 2 * HOUR + 3 * MINUTE + 4);
        assert_eq!(t.to_string(), "d1 02:03:04");
    }

    #[test]
    fn week_index() {
        assert_eq!(SimTime::from_days(13).week(), 1);
        assert_eq!(SimTime::from_days(14).week(), 2);
    }

    #[test]
    fn weekday_index_order() {
        for (i, w) in Weekday::ALL.iter().enumerate() {
            assert_eq!(w.index(), i);
        }
    }
}

//! Diurnal activity profiles evaluated in local solar time.
//!
//! Demand is not flat over a day: streaming peaks in the evening,
//! business traffic tracks working hours, voice follows waking hours
//! and IoT telemetry is near-constant. A [`DiurnalProfile`] is a
//! 24-entry piecewise-linear activity curve (fraction of subscribed
//! users active, in `[0, 1]`) evaluated at a cell's *local solar* hour,
//! so as simulation time advances the activity peak sweeps westward
//! around the globe — the effect the paper's shared-infrastructure
//! argument leans on (a constellation sized for one longitude's peak
//! is idle capacity everywhere else).

use openspace_sim::config::ConfigError;

/// Convert absolute simulation time and a longitude into local solar
/// hours in `[0, 24)`. `t_s = 0` is midnight UTC; each 15° of east
/// longitude advances local time by one hour.
pub fn local_solar_hour(t_s: f64, lon_deg: f64) -> f64 {
    (t_s / 3600.0 + lon_deg / 15.0).rem_euclid(24.0)
}

/// A 24-hour activity curve, linearly interpolated and periodic.
///
/// Entry `h` is the activity at local hour `h` (fraction of subscribed
/// users active); between integer hours the curve interpolates
/// linearly, and hour 23 wraps to hour 0.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    hourly: [f64; 24],
}

impl DiurnalProfile {
    /// Build a profile from 24 hourly activity fractions.
    ///
    /// Each entry must be finite and in `[0, 1]`, and at least one
    /// entry must be positive (an all-zero profile would silently
    /// erase a traffic class).
    pub fn new(hourly: [f64; 24]) -> Result<Self, ConfigError> {
        for &v in &hourly {
            if !v.is_finite() {
                return Err(ConfigError::NotFinite { field: "hourly" });
            }
            if !(0.0..=1.0).contains(&v) {
                return Err(ConfigError::OutOfRange {
                    field: "hourly",
                    value: v,
                    min: 0.0,
                    max: 1.0,
                });
            }
        }
        if hourly.iter().all(|&v| v == 0.0) {
            return Err(ConfigError::Empty { field: "hourly" });
        }
        Ok(Self { hourly })
    }

    /// Constant activity at `level` for every hour.
    pub fn flat(level: f64) -> Result<Self, ConfigError> {
        Self::new([level; 24])
    }

    /// Evening-peaked curve for video streaming: low overnight, a
    /// shoulder through the afternoon, peak 20:00–22:00 local.
    pub fn streaming_evening() -> Self {
        Self::new([
            0.08, 0.05, 0.03, 0.02, 0.02, 0.03, 0.06, 0.10, 0.14, 0.16, 0.18, 0.20, //
            0.22, 0.22, 0.24, 0.26, 0.30, 0.38, 0.48, 0.58, 0.66, 0.68, 0.50, 0.22,
        ])
        .expect("preset profile is valid")
    }

    /// Working-hours curve for interactive web/enterprise traffic.
    pub fn business_hours() -> Self {
        Self::new([
            0.04, 0.03, 0.02, 0.02, 0.02, 0.04, 0.10, 0.22, 0.40, 0.52, 0.56, 0.55, //
            0.50, 0.54, 0.56, 0.54, 0.48, 0.38, 0.28, 0.22, 0.18, 0.14, 0.10, 0.06,
        ])
        .expect("preset profile is valid")
    }

    /// Waking-hours curve for voice calls, mild midday peak.
    pub fn voice_daytime() -> Self {
        Self::new([
            0.02, 0.01, 0.01, 0.01, 0.01, 0.02, 0.05, 0.10, 0.16, 0.20, 0.22, 0.24, //
            0.24, 0.22, 0.22, 0.22, 0.22, 0.24, 0.24, 0.20, 0.16, 0.12, 0.08, 0.04,
        ])
        .expect("preset profile is valid")
    }

    /// Near-flat telemetry curve for IoT devices (reporting never
    /// sleeps, with a faint daytime bump from actuation traffic).
    pub fn iot_flat() -> Self {
        Self::new([
            0.30, 0.30, 0.30, 0.30, 0.30, 0.30, 0.32, 0.34, 0.36, 0.36, 0.36, 0.36, //
            0.36, 0.36, 0.36, 0.36, 0.36, 0.36, 0.34, 0.32, 0.30, 0.30, 0.30, 0.30,
        ])
        .expect("preset profile is valid")
    }

    /// Activity at `local_hour` (any finite value; wrapped into
    /// `[0, 24)` and linearly interpolated).
    pub fn activity(&self, local_hour: f64) -> f64 {
        let h = local_hour.rem_euclid(24.0);
        let lo = h.floor() as usize % 24;
        let hi = (lo + 1) % 24;
        let t = h - h.floor();
        self.hourly[lo] * (1.0 - t) + self.hourly[hi] * t
    }

    /// Ratio of the largest to the smallest hourly activity (the
    /// profile's diurnal swing). Infinite if any hour is zero.
    pub fn peak_to_trough(&self) -> f64 {
        let max = self.hourly.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.hourly.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_solar_hour_offsets_by_longitude() {
        assert!((local_solar_hour(0.0, 0.0) - 0.0).abs() < 1e-12);
        assert!((local_solar_hour(0.0, 90.0) - 6.0).abs() < 1e-12);
        assert!((local_solar_hour(0.0, -90.0) - 18.0).abs() < 1e-12);
        assert!((local_solar_hour(3600.0 * 25.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn activity_interpolates_and_wraps() {
        let p = DiurnalProfile::streaming_evening();
        let a20 = p.activity(20.0);
        let a21 = p.activity(21.0);
        let mid = p.activity(20.5);
        assert!((mid - 0.5 * (a20 + a21)).abs() < 1e-12);
        // wrap: hour 23.5 interpolates toward hour 0
        let w = p.activity(23.5);
        assert!((w - 0.5 * (p.activity(23.0) + p.activity(0.0))).abs() < 1e-12);
        // periodicity
        assert_eq!(p.activity(44.0).to_bits(), p.activity(20.0).to_bits());
    }

    #[test]
    fn presets_have_expected_shapes() {
        let s = DiurnalProfile::streaming_evening();
        assert!(s.activity(21.0) > 5.0 * s.activity(3.0));
        let b = DiurnalProfile::business_hours();
        assert!(b.activity(10.0) > b.activity(22.0));
        let i = DiurnalProfile::iot_flat();
        assert!(i.peak_to_trough() < 1.5);
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        assert!(DiurnalProfile::new([1.5; 24]).is_err());
        assert!(DiurnalProfile::new([f64::NAN; 24]).is_err());
        assert!(DiurnalProfile::new([0.0; 24]).is_err());
        assert!(DiurnalProfile::flat(0.5).is_ok());
    }
}

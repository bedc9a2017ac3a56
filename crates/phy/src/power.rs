//! Satellite power subsystem.
//!
//! §2.2: "given the power cost of executing rotations for ISLs and
//! establishing those links, satellites may have power consumption
//! constraints that limit the number of ISLs they can establish and the
//! size of data transfers they can facilitate" (citing Gao et al. 2023).
//!
//! The model: a solar array charges a battery when sunlit; transceivers,
//! ISL slews, and the bus draw from it. The scheduler in `openspace-net`
//! consults [`PowerBudget::can_afford`] before committing to an ISL.

/// Static parameters of a satellite's electrical power system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSystem {
    /// Solar array output when fully sunlit (W).
    pub solar_power_w: f64,
    /// Battery capacity (J).
    pub battery_capacity_j: f64,
    /// Constant bus load — avionics, thermal, ADCS (W).
    pub bus_load_w: f64,
    /// Battery charge/discharge efficiency (0,1].
    pub battery_efficiency: f64,
}

impl PowerSystem {
    /// A 6U-cubesat class system: ~20 W array, 80 Wh battery.
    pub fn cubesat_6u() -> Self {
        Self {
            solar_power_w: 20.0,
            battery_capacity_j: 80.0 * 3600.0,
            bus_load_w: 6.0,
            battery_efficiency: 0.9,
        }
    }

    /// A smallsat (ESPA-class) system: 300 W array, 1 kWh battery.
    pub fn smallsat() -> Self {
        Self {
            solar_power_w: 300.0,
            battery_capacity_j: 1_000.0 * 3600.0,
            bus_load_w: 80.0,
            battery_efficiency: 0.92,
        }
    }
}

/// Error when a power draw cannot be sustained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsufficientPower {
    /// Energy requested (J).
    pub requested_j: f64,
    /// Energy actually available above the reserve floor (J).
    pub available_j: f64,
}

impl std::fmt::Display for InsufficientPower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requested {} J but only {} J available above reserve",
            self.requested_j, self.available_j
        )
    }
}

impl std::error::Error for InsufficientPower {}

/// A running energy budget for one satellite.
///
/// The budget never lets state-of-charge fall below `reserve_fraction` of
/// capacity — the paper's power-constrained satellites decline ISLs rather
/// than brown out.
#[derive(Debug, Clone, Copy)]
pub struct PowerBudget {
    system: PowerSystem,
    /// Current stored energy (J).
    state_of_charge_j: f64,
    /// Fraction of capacity kept as an untouchable reserve.
    reserve_fraction: f64,
}

impl PowerBudget {
    /// Start with a full battery and the given reserve fraction.
    ///
    /// # Panics
    /// Panics if `reserve_fraction` is outside `[0, 1)`.
    pub fn new(system: PowerSystem, reserve_fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&reserve_fraction),
            "reserve fraction must be in [0,1), got {reserve_fraction}"
        );
        Self {
            system,
            state_of_charge_j: system.battery_capacity_j,
            reserve_fraction,
        }
    }

    /// Stored energy (J).
    pub fn state_of_charge_j(&self) -> f64 {
        self.state_of_charge_j
    }

    /// State of charge as a fraction of capacity.
    pub fn state_of_charge_fraction(&self) -> f64 {
        self.state_of_charge_j / self.system.battery_capacity_j
    }

    /// Energy available above the reserve floor (J).
    pub fn available_j(&self) -> f64 {
        (self.state_of_charge_j - self.reserve_fraction * self.system.battery_capacity_j).max(0.0)
    }

    /// Whether an extra draw of `energy_j` fits above the reserve.
    pub fn can_afford(&self, energy_j: f64) -> bool {
        energy_j <= self.available_j()
    }

    /// Spend `energy_j` on a discrete action (an ISL slew, an acquisition
    /// scan, a bulk transfer). Fails without side effects if it would dip
    /// into the reserve.
    pub fn draw(&mut self, energy_j: f64) -> Result<(), InsufficientPower> {
        assert!(energy_j >= 0.0, "cannot draw negative energy");
        if !self.can_afford(energy_j) {
            return Err(InsufficientPower {
                requested_j: energy_j,
                available_j: self.available_j(),
            });
        }
        self.state_of_charge_j -= energy_j;
        Ok(())
    }

    /// Advance wall-clock by `dt_s` with the given continuous payload load
    /// (W) on top of the bus load, under sunlight or eclipse.
    ///
    /// Charging applies battery efficiency; the battery clamps at capacity
    /// and at zero (a brown-out clamps rather than going negative — the
    /// caller can detect it via [`Self::state_of_charge_j`] == 0).
    pub fn advance(&mut self, dt_s: f64, payload_load_w: f64, sunlit: bool) {
        assert!(dt_s >= 0.0 && payload_load_w >= 0.0);
        let generation = if sunlit {
            self.system.solar_power_w
        } else {
            0.0
        };
        let net_w = generation - self.system.bus_load_w - payload_load_w;
        let delta_j = if net_w >= 0.0 {
            net_w * dt_s * self.system.battery_efficiency
        } else {
            net_w * dt_s / self.system.battery_efficiency
        };
        self.state_of_charge_j =
            (self.state_of_charge_j + delta_j).clamp(0.0, self.system.battery_capacity_j);
    }
}

/// Energy cost (J) of slewing the spacecraft to orient an ISL terminal:
/// reaction-wheel power times slew duration. §2.1's "spin to maintain a
/// reliable link".
pub fn slew_energy_j(slew_angle_rad: f64, slew_rate_rad_per_s: f64, wheel_power_w: f64) -> f64 {
    assert!(slew_rate_rad_per_s > 0.0, "slew rate must be positive");
    assert!(slew_angle_rad >= 0.0 && wheel_power_w >= 0.0);
    wheel_power_w * slew_angle_rad / slew_rate_rad_per_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full() {
        let b = PowerBudget::new(PowerSystem::cubesat_6u(), 0.2);
        assert_eq!(b.state_of_charge_fraction(), 1.0);
    }

    #[test]
    fn draw_respects_reserve() {
        let sys = PowerSystem::cubesat_6u();
        let mut b = PowerBudget::new(sys, 0.5);
        let half = sys.battery_capacity_j / 2.0;
        assert!(b.can_afford(half));
        assert!(!b.can_afford(half + 1.0));
        b.draw(half).unwrap();
        let err = b.draw(1.0).unwrap_err();
        assert_eq!(err.available_j, 0.0);
    }

    #[test]
    fn failed_draw_leaves_state_unchanged() {
        let mut b = PowerBudget::new(PowerSystem::cubesat_6u(), 0.2);
        let before = b.state_of_charge_j();
        let _ = b.draw(f64::MAX / 2.0);
        assert_eq!(b.state_of_charge_j(), before);
    }

    #[test]
    fn sunlit_idle_stays_full() {
        let mut b = PowerBudget::new(PowerSystem::smallsat(), 0.2);
        b.advance(3600.0, 0.0, true);
        assert_eq!(b.state_of_charge_fraction(), 1.0);
    }

    #[test]
    fn eclipse_drains_battery() {
        let mut b = PowerBudget::new(PowerSystem::cubesat_6u(), 0.0);
        let before = b.state_of_charge_j();
        b.advance(1800.0, 4.0, false); // 35-min eclipse, 4 W payload
        let expected_drain = (6.0 + 4.0) * 1800.0 / 0.9;
        assert!((before - b.state_of_charge_j() - expected_drain).abs() < 1.0);
    }

    #[test]
    fn battery_clamps_at_zero() {
        let mut b = PowerBudget::new(PowerSystem::cubesat_6u(), 0.0);
        b.advance(1e7, 100.0, false);
        assert_eq!(b.state_of_charge_j(), 0.0);
    }

    #[test]
    fn orbit_cycle_recovers_charge() {
        // One eclipse + sunlit cycle of an Iridium-ish orbit should leave a
        // smallsat near full: generation margin dominates.
        let mut b = PowerBudget::new(PowerSystem::smallsat(), 0.2);
        b.advance(2100.0, 50.0, false); // 35 min eclipse
        let after_eclipse = b.state_of_charge_fraction();
        assert!(after_eclipse < 1.0);
        b.advance(3900.0, 50.0, true); // 65 min sun
        assert!(b.state_of_charge_fraction() > after_eclipse);
        assert_eq!(b.state_of_charge_fraction(), 1.0);
    }

    #[test]
    fn slew_energy_scales_with_angle() {
        let e90 = slew_energy_j(std::f64::consts::FRAC_PI_2, 0.01, 10.0);
        let e180 = slew_energy_j(std::f64::consts::PI, 0.01, 10.0);
        assert!((e180 / e90 - 2.0).abs() < 1e-12);
        // 90 deg at 0.01 rad/s with a 10 W wheel set: ~1571 J.
        assert!((e90 - 1570.8).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "reserve fraction")]
    fn bad_reserve_panics() {
        PowerBudget::new(PowerSystem::cubesat_6u(), 1.0);
    }
}

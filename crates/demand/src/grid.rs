//! Seeded synthesis of a global user-population grid.
//!
//! The grid divides the Earth into `lat_cells x lon_cells` equal-angle
//! cells and apportions a configured number of users across them. The
//! synthesis is entirely deterministic in the seed and uses no external
//! data: a coherent value-noise field thresholded against a latitude
//! bias yields a pseudo-land mask, a latitude density profile (peaked
//! in the northern mid-latitudes, echoing where people actually live)
//! weights the rural background, and a Zipf-sized set of seeded city
//! hotspots concentrates the configured urban fraction. Users are
//! apportioned by largest remainder so per-cell counts always sum to
//! exactly `total_users`.

use openspace_sim::config::ConfigError;
use openspace_sim::rng::SimRng;

/// Resolution of the coarse noise lattice used for the land mask, in
/// grid cells per lattice node (both axes).
const NOISE_SCALE: usize = 6;

/// Configuration for [`PopulationGrid::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Number of latitude bands (rows). 36 gives 5° cells.
    pub lat_cells: usize,
    /// Number of longitude columns. 72 gives 5° cells.
    pub lon_cells: usize,
    /// Total synthetic users apportioned across the grid.
    pub total_users: u64,
    /// Number of Zipf-sized city hotspots drawn over land cells.
    pub cities: usize,
    /// Fraction of users concentrated in city hotspots (rest follow
    /// the rural background density). Must be in `[0, 1]`.
    pub urban_fraction: f64,
    /// Master seed for the land mask, noise field and city draws.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            lat_cells: 36,
            lon_cells: 72,
            total_users: 1_000_000,
            cities: 160,
            urban_fraction: 0.65,
            seed: 1,
        }
    }
}

impl PopulationConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.lat_cells == 0 {
            return Err(ConfigError::NonPositive {
                field: "lat_cells",
                value: 0.0,
            });
        }
        if self.lon_cells == 0 {
            return Err(ConfigError::NonPositive {
                field: "lon_cells",
                value: 0.0,
            });
        }
        if self.total_users == 0 {
            return Err(ConfigError::NonPositive {
                field: "total_users",
                value: 0.0,
            });
        }
        if !self.urban_fraction.is_finite()
            || self.urban_fraction < 0.0
            || self.urban_fraction > 1.0
        {
            return Err(ConfigError::OutOfRange {
                field: "urban_fraction",
                value: self.urban_fraction,
                min: 0.0,
                max: 1.0,
            });
        }
        Ok(())
    }
}

/// A lat/lon grid of cells with deterministic synthetic user counts.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationGrid {
    lat_cells: usize,
    lon_cells: usize,
    users: Vec<u64>,
    total_users: u64,
    seed: u64,
}

/// Relative population density as a function of latitude (degrees).
///
/// Two Gaussian lobes: a dominant northern mid-latitude band (peak
/// ~30°N) and a weaker southern band (~15°S). Purely statistical — the
/// goal is a realistic latitude histogram, not geographic fidelity.
fn latitude_density(lat_deg: f64) -> f64 {
    let north = (-((lat_deg - 30.0) / 25.0).powi(2)).exp();
    let south = 0.35 * (-((lat_deg + 15.0) / 20.0).powi(2)).exp();
    north + south
}

/// Hash a coarse lattice node to a uniform value in `[0, 1)`.
fn lattice_value(seed: u64, row: u64, col: u64) -> f64 {
    let stream = row.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ col;
    SimRng::substream(seed, stream).uniform()
}

impl PopulationGrid {
    /// Synthesize a grid from `cfg`. Deterministic in `cfg` alone.
    pub fn build(cfg: &PopulationConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n = cfg.lat_cells * cfg.lon_cells;
        let noise_rows = cfg.lat_cells.div_ceil(NOISE_SCALE).max(1);
        let noise_cols = cfg.lon_cells.div_ceil(NOISE_SCALE).max(1);

        // Coherent value-noise field: bilinear interpolation of hashed
        // lattice nodes, periodic in longitude so the mask wraps.
        let mut field = vec![0.0f64; n];
        let mut land = vec![false; n];
        for i in 0..cfg.lat_cells {
            let lat = -90.0 + (i as f64 + 0.5) * 180.0 / cfg.lat_cells as f64;
            let fy = i as f64 / NOISE_SCALE as f64;
            let y0 = (fy.floor() as usize).min(noise_rows - 1);
            let ty = fy - y0 as f64;
            for j in 0..cfg.lon_cells {
                let fx = j as f64 / NOISE_SCALE as f64;
                let x0 = (fx.floor() as usize) % noise_cols;
                let tx = fx - fx.floor();
                let x1 = (x0 + 1) % noise_cols;
                let y1 = (y0 + 1).min(noise_rows);
                let v00 = lattice_value(cfg.seed, y0 as u64, x0 as u64);
                let v01 = lattice_value(cfg.seed, y0 as u64, x1 as u64);
                let v10 = lattice_value(cfg.seed, y1 as u64, x0 as u64);
                let v11 = lattice_value(cfg.seed, y1 as u64, x1 as u64);
                let v = v00 * (1.0 - tx) * (1.0 - ty)
                    + v01 * tx * (1.0 - ty)
                    + v10 * (1.0 - tx) * ty
                    + v11 * tx * ty;
                let idx = i * cfg.lon_cells + j;
                field[idx] = v;
                // More land mid-northern-latitudes, less near the poles
                // and the southern ocean belt: bias the threshold.
                let bias = 0.12 * (lat.to_radians().sin() + 0.3) - 0.04 * (lat.abs() / 90.0);
                land[idx] = v + bias > 0.55;
            }
        }

        // Rural background weight: land cells, latitude density, true
        // cell area (∝ cos lat) and the noise field for texture.
        let mut rural = vec![0.0f64; n];
        let mut rural_sum = 0.0;
        for i in 0..cfg.lat_cells {
            let lat = -90.0 + (i as f64 + 0.5) * 180.0 / cfg.lat_cells as f64;
            let area = lat.to_radians().cos().max(0.0);
            for j in 0..cfg.lon_cells {
                let idx = i * cfg.lon_cells + j;
                if land[idx] {
                    let w = latitude_density(lat) * area * (0.5 + field[idx]);
                    rural[idx] = w;
                    rural_sum += w;
                }
            }
        }
        if rural_sum <= 0.0 {
            // Degenerate mask (tiny grids): fall back to area weighting
            // so the grid is still usable.
            rural_sum = 0.0;
            for i in 0..cfg.lat_cells {
                let lat = -90.0 + (i as f64 + 0.5) * 180.0 / cfg.lat_cells as f64;
                let area = lat.to_radians().cos().max(1e-6);
                for j in 0..cfg.lon_cells {
                    let idx = i * cfg.lon_cells + j;
                    rural[idx] = area;
                    land[idx] = true;
                    rural_sum += area;
                }
            }
        }

        // City hotspots: weighted draws over the rural distribution,
        // sized by a Zipf law (city k carries weight 1/(k+1)).
        let mut urban = vec![0.0f64; n];
        let mut urban_sum = 0.0;
        let mut city_rng = SimRng::substream(cfg.seed, 0xC17B_17E5);
        let cumulative: Vec<f64> = rural
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        for k in 0..cfg.cities {
            let r = city_rng.uniform() * rural_sum;
            let idx = cumulative.partition_point(|&c| c < r).min(n - 1);
            let w = 1.0 / (k as f64 + 1.0);
            urban[idx] += w;
            urban_sum += w;
        }
        if urban_sum <= 0.0 {
            urban_sum = 1.0; // no cities requested: urban share is zero anyway
        }

        // Blend and apportion by largest remainder so counts sum to
        // exactly total_users.
        let uf = if cfg.cities == 0 {
            0.0
        } else {
            cfg.urban_fraction
        };
        let mut quota: Vec<f64> = (0..n)
            .map(|idx| {
                let w = (1.0 - uf) * rural[idx] / rural_sum + uf * urban[idx] / urban_sum;
                w * cfg.total_users as f64
            })
            .collect();
        let mut users = vec![0u64; n];
        let mut assigned = 0u64;
        for idx in 0..n {
            let floor = quota[idx].floor();
            users[idx] = floor as u64;
            assigned += users[idx];
            quota[idx] -= floor;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| quota[b].total_cmp(&quota[a]).then(a.cmp(&b)));
        let mut remaining = cfg.total_users - assigned;
        for &idx in &order {
            if remaining == 0 {
                break;
            }
            users[idx] += 1;
            remaining -= 1;
        }

        Ok(Self {
            lat_cells: cfg.lat_cells,
            lon_cells: cfg.lon_cells,
            users,
            total_users: cfg.total_users,
            seed: cfg.seed,
        })
    }

    /// Number of latitude rows.
    pub fn lat_cells(&self) -> usize {
        self.lat_cells
    }

    /// Number of longitude columns.
    pub fn lon_cells(&self) -> usize {
        self.lon_cells
    }

    /// Total number of cells (`lat_cells * lon_cells`).
    pub fn cell_count(&self) -> usize {
        self.users.len()
    }

    /// Master seed the grid was synthesized from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Users in cell `idx` (row-major: `lat_row * lon_cells + lon_col`).
    pub fn users(&self, idx: usize) -> u64 {
        self.users[idx]
    }

    /// Sum of all cell user counts (exactly the configured total).
    pub fn total_users(&self) -> u64 {
        self.total_users
    }

    /// Number of cells with at least one user.
    pub fn populated_cell_count(&self) -> usize {
        self.users.iter().filter(|&&u| u > 0).count()
    }

    /// Geodetic center of cell `idx` as `(lat_deg, lon_deg)`.
    pub fn cell_center_deg(&self, idx: usize) -> (f64, f64) {
        let i = idx / self.lon_cells;
        let j = idx % self.lon_cells;
        let lat = -90.0 + (i as f64 + 0.5) * 180.0 / self.lat_cells as f64;
        let lon = -180.0 + (j as f64 + 0.5) * 360.0 / self.lon_cells as f64;
        (lat, lon)
    }

    /// Iterate populated cells as `(cell_index, users)` in ascending
    /// cell order.
    pub fn populated_cells(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.users
            .iter()
            .enumerate()
            .filter(|(_, &u)| u > 0)
            .map(|(idx, &u)| (idx, u))
    }

    /// The `n` most-populated cells as `(cell_index, users)`, largest
    /// first (ties broken by cell index, so the order is total).
    pub fn top_cells(&self, n: usize) -> Vec<(usize, u64)> {
        let mut cells: Vec<(usize, u64)> = self.populated_cells().collect();
        cells.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        cells.truncate(n);
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn users_sum_exactly_to_total() {
        let cfg = PopulationConfig {
            total_users: 1_234_567,
            ..Default::default()
        };
        let grid = PopulationGrid::build(&cfg).unwrap();
        let sum: u64 = (0..grid.cell_count()).map(|i| grid.users(i)).sum();
        assert_eq!(sum, 1_234_567);
        assert_eq!(grid.total_users(), 1_234_567);
    }

    #[test]
    fn same_seed_is_bitwise_stable() {
        let cfg = PopulationConfig::default();
        let a = PopulationGrid::build(&cfg).unwrap();
        let b = PopulationGrid::build(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_changes_the_map() {
        let a = PopulationGrid::build(&PopulationConfig::default()).unwrap();
        let b = PopulationGrid::build(&PopulationConfig {
            seed: 99,
            ..Default::default()
        })
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn northern_hemisphere_dominates() {
        let grid = PopulationGrid::build(&PopulationConfig::default()).unwrap();
        let mid = grid.lat_cells() / 2;
        let mut south = 0u64;
        let mut north = 0u64;
        for i in 0..grid.lat_cells() {
            for j in 0..grid.lon_cells() {
                let u = grid.users(i * grid.lon_cells() + j);
                if i < mid {
                    south += u;
                } else {
                    north += u;
                }
            }
        }
        assert!(
            north > south,
            "expected northern dominance, got N={north} S={south}"
        );
    }

    #[test]
    fn cities_concentrate_users() {
        let no_cities = PopulationGrid::build(&PopulationConfig {
            cities: 0,
            ..Default::default()
        })
        .unwrap();
        let with_cities = PopulationGrid::build(&PopulationConfig::default()).unwrap();
        let top_share = |g: &PopulationGrid| {
            let top: u64 = g.top_cells(10).iter().map(|&(_, u)| u).sum();
            top as f64 / g.total_users() as f64
        };
        assert!(top_share(&with_cities) > top_share(&no_cities));
    }

    #[test]
    fn cell_center_round_trips() {
        let grid = PopulationGrid::build(&PopulationConfig::default()).unwrap();
        let (lat, lon) = grid.cell_center_deg(0);
        assert!((-90.0..=90.0).contains(&lat));
        assert!((-180.0..=180.0).contains(&lon));
        let last = grid.cell_count() - 1;
        let (lat, lon) = grid.cell_center_deg(last);
        assert!((-90.0..=90.0).contains(&lat));
        assert!((-180.0..=180.0).contains(&lon));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(PopulationGrid::build(&PopulationConfig {
            lat_cells: 0,
            ..Default::default()
        })
        .is_err());
        assert!(PopulationGrid::build(&PopulationConfig {
            total_users: 0,
            ..Default::default()
        })
        .is_err());
        assert!(PopulationGrid::build(&PopulationConfig {
            urban_fraction: 1.5,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn top_cells_ordering_is_total() {
        let grid = PopulationGrid::build(&PopulationConfig::default()).unwrap();
        let top = grid.top_cells(20);
        for w in top.windows(2) {
            assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        }
    }
}

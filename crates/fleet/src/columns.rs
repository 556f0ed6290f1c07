//! Struct-of-arrays storage for per-device fleet results.
//!
//! A million-device fleet cannot keep a million `RunReport`s — each one
//! owns strings, per-app vectors and health-event vectors, ~hundreds of
//! bytes plus several heap blocks. [`FleetColumns`] keeps only the six
//! per-device quantities fleet analysis actually consumes, one dense
//! `Vec` per column: ~37 bytes/device, zero per-device heap blocks, and
//! percentile selection can run directly over a column without gathering.
//!
//! Rows are always in **device order**. Shard workers fill one
//! `FleetColumns` each; the coordinator concatenates them in shard index
//! order, which (because shards partition the device range contiguously)
//! restores global device order — the canonical order every aggregate
//! fold runs in.
//!
//! Aggregates are [`FleetTally`] folds over those rows, never sums of
//! per-shard partials: floating-point addition is association-sensitive,
//! so merging shard sums would tie the result to the shard partition.
//! Folding the reassembled columns in row order gives the same bits for
//! 1 and N workers by construction.

use etrain_sim::RunReport;
use etrain_trace::user::Activeness;

/// Aggregate of one set of devices (a behavior class or the whole
/// fleet): sums, counts and extrema, folded in device order by
/// [`FleetColumns::tally`] and [`FleetColumns::class_tally`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTally {
    /// Devices folded into this tally.
    pub devices: u64,
    /// Cargo packets completed across those devices.
    pub packets_completed: u64,
    /// Cargo packets unfinished at each device's horizon.
    pub packets_unfinished: u64,
    /// Heartbeats transmitted across those devices.
    pub heartbeats_sent: u64,
    /// Sum of per-device radio energy above idle (transmission + tail), J.
    pub extra_energy_j: f64,
    /// Sum of per-device total energy (extra + idle baseline), J.
    pub total_energy_j: f64,
    /// Sum of per-device normalized delays, in seconds (divide by
    /// `devices` for the population mean of the per-device means).
    pub delay_sum_s: f64,
    /// Smallest per-device extra energy seen, J (`+∞` when empty).
    pub min_extra_j: f64,
    /// Largest per-device extra energy seen, J (`-∞` when empty).
    pub max_extra_j: f64,
}

impl FleetTally {
    /// The empty tally.
    pub fn empty() -> FleetTally {
        FleetTally {
            devices: 0,
            packets_completed: 0,
            packets_unfinished: 0,
            heartbeats_sent: 0,
            extra_energy_j: 0.0,
            total_energy_j: 0.0,
            delay_sum_s: 0.0,
            min_extra_j: f64::INFINITY,
            max_extra_j: f64::NEG_INFINITY,
        }
    }

    /// Folds one device's results into the tally.
    #[allow(clippy::too_many_arguments)]
    pub fn absorb_device(
        &mut self,
        extra_energy_j: f64,
        total_energy_j: f64,
        normalized_delay_s: f64,
        packets_completed: u64,
        packets_unfinished: u64,
        heartbeats_sent: u64,
    ) {
        self.devices += 1;
        self.packets_completed += packets_completed;
        self.packets_unfinished += packets_unfinished;
        self.heartbeats_sent += heartbeats_sent;
        self.extra_energy_j += extra_energy_j;
        self.total_energy_j += total_energy_j;
        self.delay_sum_s += normalized_delay_s;
        self.min_extra_j = self.min_extra_j.min(extra_energy_j);
        self.max_extra_j = self.max_extra_j.max(extra_energy_j);
    }

    /// Population mean of per-device extra energy, J (0 when empty).
    pub fn mean_extra_j(&self) -> f64 {
        if self.devices > 0 {
            self.extra_energy_j / self.devices as f64
        } else {
            0.0
        }
    }

    /// Population mean of per-device normalized delay, s (0 when empty).
    pub fn mean_delay_s(&self) -> f64 {
        if self.devices > 0 {
            self.delay_sum_s / self.devices as f64
        } else {
            0.0
        }
    }
}

impl Default for FleetTally {
    fn default() -> Self {
        FleetTally::empty()
    }
}

/// Per-device results of a fleet run, stored column-wise in device order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetColumns {
    /// Each device's behavior class.
    pub class: Vec<Activeness>,
    /// Each device's radio energy above idle (transmission + tail), J.
    pub extra_energy_j: Vec<f64>,
    /// Each device's total energy (extra + idle baseline), J.
    pub total_energy_j: Vec<f64>,
    /// Each device's normalized delay, s.
    pub normalized_delay_s: Vec<f64>,
    /// Each device's completed cargo packets.
    pub packets_completed: Vec<u32>,
    /// Each device's unfinished cargo packets at the horizon.
    pub packets_unfinished: Vec<u32>,
    /// Each device's transmitted heartbeats.
    pub heartbeats_sent: Vec<u32>,
}

impl FleetColumns {
    /// An empty column store with room for `devices` rows per column.
    pub fn with_capacity(devices: usize) -> FleetColumns {
        FleetColumns {
            class: Vec::with_capacity(devices),
            extra_energy_j: Vec::with_capacity(devices),
            total_energy_j: Vec::with_capacity(devices),
            normalized_delay_s: Vec::with_capacity(devices),
            packets_completed: Vec::with_capacity(devices),
            packets_unfinished: Vec::with_capacity(devices),
            heartbeats_sent: Vec::with_capacity(devices),
        }
    }

    /// Number of device rows.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// True when no device has been pushed.
    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// Appends one device's row from its [`RunReport`].
    pub fn push_report(&mut self, class: Activeness, report: &RunReport) {
        self.class.push(class);
        self.extra_energy_j.push(report.extra_energy_j);
        self.total_energy_j.push(report.total_energy_j);
        self.normalized_delay_s.push(report.normalized_delay_s);
        self.packets_completed
            .push(u32::try_from(report.packets_completed).unwrap_or(u32::MAX));
        self.packets_unfinished
            .push(u32::try_from(report.packets_unfinished).unwrap_or(u32::MAX));
        self.heartbeats_sent
            .push(u32::try_from(report.heartbeats_sent).unwrap_or(u32::MAX));
    }

    /// Moves every row of `other` onto the end of `self`, preserving row
    /// order — the shard-reassembly primitive. `other` is left empty.
    pub fn append(&mut self, other: &mut FleetColumns) {
        self.class.append(&mut other.class);
        self.extra_energy_j.append(&mut other.extra_energy_j);
        self.total_energy_j.append(&mut other.total_energy_j);
        self.normalized_delay_s
            .append(&mut other.normalized_delay_s);
        self.packets_completed.append(&mut other.packets_completed);
        self.packets_unfinished
            .append(&mut other.packets_unfinished);
        self.heartbeats_sent.append(&mut other.heartbeats_sent);
    }

    /// Folds every row into one [`FleetTally`], in device order. This is
    /// the canonical fleet aggregate: run over the reassembled columns it
    /// is bit-identical for any worker count, because the fold order is
    /// the row order and the row order is device order.
    pub fn tally(&self) -> FleetTally {
        self.tally_where(|_| true)
    }

    /// Device-order fold over the rows of one behavior class.
    pub fn class_tally(&self, class: Activeness) -> FleetTally {
        self.tally_where(|c| c == class)
    }

    fn tally_where(&self, keep: impl Fn(Activeness) -> bool) -> FleetTally {
        let mut tally = FleetTally::empty();
        for i in 0..self.len() {
            if keep(self.class[i]) {
                tally.absorb_device(
                    self.extra_energy_j[i],
                    self.total_energy_j[i],
                    self.normalized_delay_s[i],
                    u64::from(self.packets_completed[i]),
                    u64::from(self.packets_unfinished[i]),
                    u64::from(self.heartbeats_sent[i]),
                );
            }
        }
        tally
    }

    /// The extra-energy samples of one class, gathered in device order —
    /// the input to percentile selection.
    pub fn class_extra_energies(&self, class: Activeness) -> Vec<f64> {
        (0..self.len())
            .filter(|&i| self.class[i] == class)
            .map(|i| self.extra_energy_j[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(extra: f64) -> RunReport {
        // A real (tiny, empty-workload) run as the template; the fields
        // under test are then pinned to known values.
        let mut report = etrain_sim::Scenario::paper_default()
            .duration_secs(60)
            .packets(Vec::new())
            .scheduler(etrain_sim::SchedulerKind::Baseline)
            .seed(1)
            .run();
        report.extra_energy_j = extra;
        report.total_energy_j = extra + 10.0;
        report.normalized_delay_s = extra / 100.0;
        report.packets_completed = 5;
        report.packets_unfinished = 1;
        report.heartbeats_sent = 9;
        report
    }

    #[test]
    fn append_preserves_row_order() {
        let mut a = FleetColumns::with_capacity(2);
        a.push_report(Activeness::Active, &row(1.0));
        a.push_report(Activeness::Moderate, &row(2.0));
        let mut b = FleetColumns::with_capacity(1);
        b.push_report(Activeness::Inactive, &row(3.0));
        a.append(&mut b);
        assert_eq!(a.len(), 3);
        assert!(b.is_empty());
        assert_eq!(a.extra_energy_j, vec![1.0, 2.0, 3.0]);
        assert_eq!(
            a.class,
            vec![
                Activeness::Active,
                Activeness::Moderate,
                Activeness::Inactive
            ]
        );
    }

    #[test]
    fn class_tallies_partition_the_fleet_tally() {
        let mut c = FleetColumns::with_capacity(4);
        c.push_report(Activeness::Active, &row(1.0));
        c.push_report(Activeness::Inactive, &row(2.0));
        c.push_report(Activeness::Active, &row(4.0));
        c.push_report(Activeness::Moderate, &row(8.0));
        let fleet = c.tally();
        assert_eq!(fleet.devices, 4);
        let by_class: u64 = Activeness::all()
            .iter()
            .map(|&cl| c.class_tally(cl).devices)
            .sum();
        assert_eq!(by_class, fleet.devices);
        assert_eq!(c.class_tally(Activeness::Active).extra_energy_j, 5.0);
        assert_eq!(c.class_extra_energies(Activeness::Active), vec![1.0, 4.0]);
    }

    #[test]
    fn tally_folds_counts_extrema_and_sums() {
        let mut tally = FleetTally::empty();
        tally.absorb_device(3.0, 13.0, 0.5, 4, 1, 10);
        tally.absorb_device(1.0, 11.0, 1.5, 6, 0, 20);
        tally.absorb_device(5.0, 15.0, 1.0, 2, 2, 30);
        assert_eq!(tally.devices, 3);
        assert_eq!(tally.packets_completed, 12);
        assert_eq!(tally.packets_unfinished, 3);
        assert_eq!(tally.heartbeats_sent, 60);
        assert_eq!(tally.extra_energy_j, 9.0);
        assert_eq!(tally.total_energy_j, 39.0);
        assert_eq!((tally.min_extra_j, tally.max_extra_j), (1.0, 5.0));
        assert_eq!(tally.mean_extra_j(), 3.0);
        assert_eq!(tally.mean_delay_s(), 1.0);
    }

    #[test]
    fn empty_tally_has_safe_means() {
        let empty = FleetTally::empty();
        assert_eq!(empty, FleetTally::default());
        assert_eq!(empty.mean_extra_j(), 0.0);
        assert_eq!(empty.mean_delay_s(), 0.0);
        assert_eq!(FleetColumns::default().tally(), empty);
    }

    #[test]
    fn oversized_counts_saturate_instead_of_wrapping() {
        let mut columns = FleetColumns::with_capacity(1);
        assert!(columns.is_empty());
        let mut report = row(1.0);
        report.packets_completed = usize::MAX;
        columns.push_report(Activeness::Active, &report);
        assert_eq!(columns.len(), 1);
        assert_eq!(columns.packets_completed, [u32::MAX]);
    }
}

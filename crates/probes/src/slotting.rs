//! Time slots and the evaluation's three granularities.

/// The time granularities used throughout the paper's evaluation
/// (Table 1, Figs. 11–14, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// 15-minute slots.
    Min15,
    /// 30-minute slots.
    Min30,
    /// 60-minute slots.
    Min60,
}

impl Granularity {
    /// Slot length in seconds.
    pub fn seconds(self) -> u64 {
        match self {
            Granularity::Min15 => 15 * 60,
            Granularity::Min30 => 30 * 60,
            Granularity::Min60 => 60 * 60,
        }
    }

    /// All three granularities, in the order the paper tabulates them.
    pub fn all() -> [Granularity; 3] {
        [Granularity::Min15, Granularity::Min30, Granularity::Min60]
    }

    /// Number of slots covering `duration_s` seconds (rounded up).
    pub fn slots_for(self, duration_s: u64) -> usize {
        duration_s.div_ceil(self.seconds()) as usize
    }
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Granularity::Min15 => write!(f, "15 min"),
            Granularity::Min30 => write!(f, "30 min"),
            Granularity::Min60 => write!(f, "60 min"),
        }
    }
}

/// A uniform grid of time slots starting at `start_s` (seconds).
///
/// Slot `i` covers `[start_s + i·len, start_s + (i+1)·len)`.
///
/// # Example
///
/// ```
/// use probes::{Granularity, SlotGrid};
///
/// let grid = SlotGrid::new(0, Granularity::Min15.seconds(), 96); // one day
/// assert_eq!(grid.slot_of(0), Some(0));
/// assert_eq!(grid.slot_of(899), Some(0));
/// assert_eq!(grid.slot_of(900), Some(1));
/// assert_eq!(grid.slot_of(86_400), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotGrid {
    start_s: u64,
    slot_len_s: u64,
    num_slots: usize,
}

impl SlotGrid {
    /// Creates a grid of `num_slots` slots of `slot_len_s` seconds each.
    ///
    /// # Panics
    ///
    /// Panics when `slot_len_s == 0` or `num_slots == 0`.
    pub fn new(start_s: u64, slot_len_s: u64, num_slots: usize) -> Self {
        assert!(slot_len_s > 0, "slot length must be positive");
        assert!(num_slots > 0, "need at least one slot");
        Self { start_s, slot_len_s, num_slots }
    }

    /// Grid covering `[start_s, start_s + duration_s)` at `granularity`.
    pub fn covering(start_s: u64, duration_s: u64, granularity: Granularity) -> Self {
        Self::new(start_s, granularity.seconds(), granularity.slots_for(duration_s))
    }

    /// Start of the window (seconds).
    pub fn start_s(&self) -> u64 {
        self.start_s
    }

    /// Slot length (seconds).
    pub fn slot_len_s(&self) -> u64 {
        self.slot_len_s
    }

    /// Number of slots — the row count `m` of TCMs built on this grid.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// End of the window (exclusive, seconds).
    pub fn end_s(&self) -> u64 {
        self.start_s + self.slot_len_s * self.num_slots as u64
    }

    /// The slot containing `timestamp_s`, or `None` outside the window.
    pub fn slot_of(&self, timestamp_s: u64) -> Option<usize> {
        if timestamp_s < self.start_s {
            return None;
        }
        let idx = ((timestamp_s - self.start_s) / self.slot_len_s) as usize;
        (idx < self.num_slots).then_some(idx)
    }

    /// Start timestamp of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= num_slots`.
    pub fn slot_start(&self, i: usize) -> u64 {
        assert!(i < self.num_slots, "slot {i} out of range");
        self.start_s + self.slot_len_s * i as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_seconds() {
        assert_eq!(Granularity::Min15.seconds(), 900);
        assert_eq!(Granularity::Min30.seconds(), 1800);
        assert_eq!(Granularity::Min60.seconds(), 3600);
    }

    #[test]
    fn slots_for_a_day_and_week() {
        assert_eq!(Granularity::Min15.slots_for(86_400), 96);
        assert_eq!(Granularity::Min30.slots_for(86_400), 48);
        assert_eq!(Granularity::Min60.slots_for(86_400), 24);
        // One week at 15 min: 672 rows — the TCM height of Figs. 11–14.
        assert_eq!(Granularity::Min15.slots_for(7 * 86_400), 672);
    }

    #[test]
    fn slots_for_rounds_up() {
        assert_eq!(Granularity::Min60.slots_for(3601), 2);
        assert_eq!(Granularity::Min60.slots_for(3600), 1);
    }

    #[test]
    fn display_strings() {
        assert_eq!(Granularity::Min15.to_string(), "15 min");
        assert_eq!(Granularity::all().len(), 3);
    }

    #[test]
    fn slot_lookup_boundaries() {
        let g = SlotGrid::new(100, 60, 10);
        assert_eq!(g.slot_of(99), None);
        assert_eq!(g.slot_of(100), Some(0));
        assert_eq!(g.slot_of(159), Some(0));
        assert_eq!(g.slot_of(160), Some(1));
        assert_eq!(g.slot_of(699), Some(9));
        assert_eq!(g.slot_of(700), None);
        assert_eq!(g.end_s(), 700);
    }

    #[test]
    fn slot_start_inverse_of_slot_of() {
        let g = SlotGrid::covering(0, 86_400, Granularity::Min30);
        for i in 0..g.num_slots() {
            assert_eq!(g.slot_of(g.slot_start(i)), Some(i));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_slot_len_panics() {
        SlotGrid::new(0, 0, 5);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_slots_panics() {
        SlotGrid::new(0, 60, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_start_out_of_range() {
        SlotGrid::new(0, 60, 2).slot_start(2);
    }
}

//! Quiet-machine filtering.
//!
//! The benchmark shares its host with other tenants.  Their load slows
//! cache-heavy code on this machine by up to ~1.7x in bursts that switch
//! on and off within a fraction of a second, while a register-only loop
//! keeps its speed; the program under test is not the cause.  Every
//! workload therefore splits its timed work into short windows (ten warm
//! requests, one cold request, 2000 executor instants, one falsifier
//! search) and times a fixed cache-heavy probe — string formatting,
//! sorting and map building in benchmark code only — between windows.  A
//! window counts as *quiet* when the probes on both sides of it ran within
//! [`QUIET_SLACK`] of the run's fast probes, and end-to-end timings are
//! computed over quiet windows.  A change to the program cannot move the
//! probe, so the filter never hides a regression; it only drops the
//! windows a noisy neighbour slowed.

use crate::stats::percentile_sorted;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// A probe within this factor of the run's fast probes (their 10th
/// percentile, which a single lucky probe cannot set) is quiet.
pub const QUIET_SLACK: f64 = 1.3;

/// Wall time (ms) of the fixed machine-speed probe (about half a
/// millisecond on a quiet machine).
pub fn probe_ms() -> f64 {
    let started = Instant::now();
    for round in 0..10u64 {
        let mut words: Vec<String> = (0..300u64)
            .map(|i| format!("scenario-{i}-{round}-{}", i * 7))
            .collect();
        words.sort();
        let index: BTreeMap<String, Vec<u64>> = words
            .into_iter()
            .map(|w| {
                let len = w.len() as u64;
                (w, vec![len; 20])
            })
            .collect();
        black_box(index);
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// The probes of a run.
#[derive(Debug, Default)]
pub struct QuietLog {
    probes: Vec<f64>,
}

impl QuietLog {
    /// Times one probe and returns its index.
    pub fn probe(&mut self) -> usize {
        self.probes.push(probe_ms());
        self.probes.len() - 1
    }

    /// The probes' 10th percentile (ms), the quiet reference.
    pub fn fast(&self) -> f64 {
        let mut sorted = self.probes.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            f64::NAN
        } else {
            percentile_sorted(&sorted, 10.0)
        }
    }

    /// Whether each probe ran quiet.
    pub fn quiet_flags(&self) -> Vec<bool> {
        let limit = self.fast() * QUIET_SLACK;
        self.probes.iter().map(|&p| p <= limit).collect()
    }
}

/// A window of timed work between two probes.
pub trait Window {
    /// The indices of the probes before and after the window.
    fn probes(&self) -> (usize, usize);
    /// Timing samples the window holds.
    fn samples(&self) -> usize;
}

/// A window holding plain timing samples.
#[derive(Debug)]
pub struct Timed<T> {
    /// The probes before and after the window.
    pub probes: (usize, usize),
    /// The samples timed inside it.
    pub samples: Vec<T>,
}

impl<T> Window for Timed<T> {
    fn probes(&self) -> (usize, usize) {
        self.probes
    }
    fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// The quiet windows, when they hold at least `min_samples` samples;
/// otherwise every window (a run too noisy to filter is reported whole
/// rather than on too few samples).  Returns the windows and whether the
/// filter applied.
pub fn select<'a, W: Window>(
    windows: &'a [W],
    log: &QuietLog,
    min_samples: usize,
) -> (Vec<&'a W>, bool) {
    let flags = log.quiet_flags();
    let quiet: Vec<&W> = windows
        .iter()
        .filter(|w| {
            let (before, after) = w.probes();
            flags[before] && flags[after]
        })
        .collect();
    if quiet.iter().map(|w| w.samples()).sum::<usize>() >= min_samples {
        (quiet, true)
    } else {
        (windows.iter().collect(), false)
    }
}

/// A human-readable line on what [`select`] kept.
pub fn describe(kept: usize, total: usize, filtered: bool, log: &QuietLog) -> String {
    if filtered {
        format!(
            "quiet windows: {kept} of {total} (probes within {QUIET_SLACK}x of the fast probes, {:.3} ms)",
            log.fast()
        )
    } else {
        format!("too few quiet windows: all {total} windows reported")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct W(usize, usize, usize);

    impl Window for W {
        fn probes(&self) -> (usize, usize) {
            (self.0, self.1)
        }
        fn samples(&self) -> usize {
            self.2
        }
    }

    fn log(probes: &[f64]) -> QuietLog {
        QuietLog {
            probes: probes.to_vec(),
        }
    }

    #[test]
    fn windows_are_quiet_only_between_two_quiet_probes() {
        let log = log(&[1.0, 1.1, 1.9, 1.25, 1.0]);
        assert_eq!(log.quiet_flags(), vec![true, true, false, true, true]);
        let windows = [W(0, 1, 5), W(1, 2, 5), W(2, 3, 5), W(3, 4, 5)];
        let (kept, filtered) = select(&windows, &log, 10);
        assert!(filtered);
        let kept: Vec<(usize, usize)> = kept.iter().map(|w| w.probes()).collect();
        assert_eq!(kept, vec![(0, 1), (3, 4)]);
    }

    #[test]
    fn the_fast_probes_set_the_threshold() {
        // 1.3x of 1.0 is the boundary: inside is quiet, beyond is not.
        assert_eq!(
            log(&[1.0, 1.3, 1.31]).quiet_flags(),
            vec![true, true, false]
        );
        assert_eq!(log(&[3.0, 2.0, 2.2]).fast(), 2.0);
        // One lucky probe among twenty cannot drag the threshold down.
        let mut probes = vec![2.0; 20];
        probes[7] = 1.0;
        assert!(log(&probes).quiet_flags().iter().all(|&q| q));
    }

    #[test]
    fn too_few_quiet_samples_reports_every_window() {
        let log = log(&[1.0, 3.0, 1.0, 1.0]);
        let windows = [W(0, 1, 5), W(1, 2, 5), W(2, 3, 5)];
        let (kept, filtered) = select(&windows, &log, 6);
        assert!(!filtered);
        assert_eq!(kept.len(), 3);
        let (kept, filtered) = select(&windows, &log, 5);
        assert!(filtered);
        assert_eq!(kept.len(), 1);
    }
}

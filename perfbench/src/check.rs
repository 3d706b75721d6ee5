//! Output checks. Every timed operation is attempted once and either
//! passes every check or is counted as failed — never dropped.

use ra_cosim::RunResult;

use crate::pins::PINS;

/// Attempted and failed operations, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation; `problems` lists every check it broke.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures
                    .push(format!("{what}: {}", problems.join("; ")));
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(16);
    }
}

/// The simulated identity of a co-simulation run: target cycles, network
/// messages and the exact bits of the mean message latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub cycles: u64,
    pub messages: u64,
    pub latency_bits: u64,
}

impl Fingerprint {
    pub fn of(run: &RunResult) -> Fingerprint {
        Fingerprint {
            cycles: run.cycles,
            messages: run.messages,
            latency_bits: run.avg_latency().to_bits(),
        }
    }
}

/// A fingerprint recorded for one workload and seed.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    pub workload: &'static str,
    pub seed: u64,
    pub fingerprint: Fingerprint,
}

/// The pinned fingerprint of `workload` at `seed`, if one is recorded.
pub fn pinned(workload: &str, seed: u64) -> Option<Fingerprint> {
    PINS.iter()
        .find(|p| p.workload == workload && p.seed == seed)
        .map(|p| p.fingerprint)
}

/// Every check a timed co-simulation repetition must pass: the same
/// simulated result as the run's first repetition and as the pin (when
/// one is recorded), and a clean coupler — no watchdog trip and no
/// degraded quantum.
pub fn cosim_problems(
    run: &RunResult,
    first: Option<Fingerprint>,
    pin: Option<Fingerprint>,
) -> Vec<String> {
    let got = Fingerprint::of(run);
    let mut problems = Vec::new();
    if let Some(first) = first.filter(|f| *f != got) {
        problems.push(format!(
            "fingerprint {got:?} differs from first repetition {first:?}"
        ));
    }
    if let Some(pin) = pin.filter(|p| *p != got) {
        problems.push(format!("fingerprint {got:?} differs from pinned {pin:?}"));
    }
    match &run.coupler {
        Some(c) => {
            if c.watchdog_trips != 0 {
                problems.push(format!("{} watchdog trips", c.watchdog_trips));
            }
            if c.quanta_degraded != 0 {
                problems.push(format!("{} degraded quanta", c.quanta_degraded));
            }
        }
        None => problems.push("reciprocal run returned no coupler statistics".into()),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_cosim::{ModeSpec, RunSpec, Target};
    use ra_workloads::AppProfile;

    fn small_run() -> RunResult {
        let target = Target::cmp(2, 2);
        RunSpec::new(&target, &AppProfile::water())
            .mode("reciprocal:quantum=500".parse::<ModeSpec>().unwrap())
            .instructions(50)
            .seed(3)
            .run()
            .unwrap()
    }

    #[test]
    fn a_clean_repeat_passes() {
        let run = small_run();
        let fp = Fingerprint::of(&run);
        assert!(cosim_problems(&run, Some(fp), Some(fp)).is_empty());
    }

    #[test]
    fn a_perturbed_fingerprint_is_a_failed_operation() {
        let run = small_run();
        let fp = Fingerprint::of(&run);
        let mut pin = fp;
        pin.latency_bits ^= 1;
        let mut tally = Tally::default();
        tally.record("rep", cosim_problems(&run, Some(fp), Some(pin)));
        let mut other = fp;
        other.cycles += 1;
        tally.record("rep", cosim_problems(&run, Some(other), None));
        tally.record("rep", cosim_problems(&run, Some(fp), None));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }

    #[test]
    fn a_degraded_run_is_a_failed_operation() {
        let mut run = small_run();
        run.coupler.as_mut().unwrap().quanta_degraded = 1;
        let mut tally = Tally::default();
        tally.record("rep", cosim_problems(&run, None, None));
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(tally.failures[0].contains("degraded"));
    }
}

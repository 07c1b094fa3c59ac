//! Student profiles: skill and warm-up.
//!
//! The warm-up curve is the paper's "system warmup" lesson in miniature:
//! the first run of scenario 1 "is likely slowed down by the students
//! being unfamiliar with the task", and a repeat is "significantly better
//! … attributable mainly to their getting used to the task and tools". We
//! model the per-cell slowdown as `1 + w·exp(−k/τ)` where `k` counts the
//! cells this student has colored so far (across scenarios — experience
//! persists within a class session, like a warm cache persists across
//! runs).

/// One student's characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct StudentProfile {
    /// Display name ("P1" … in the scenario figures).
    pub name: String,
    /// Baseline speed multiplier: 1.0 is average, lower is faster
    /// (0.85 = 15% faster than average). Kept in a sane band by
    /// [`StudentProfile::new`].
    pub skill: f64,
    /// Initial warm-up slowdown `w`: the very first cell takes
    /// `(1 + w)×` the steady-state time. Defaults to 0.8.
    pub warmup_amplitude: f64,
    /// Warm-up decay constant `τ` in cells. Defaults to 40.0 — a student
    /// is still warming up through most of their first Mauritius grid
    /// (96 cells), which is why the paper's repeat of scenario 1 lands
    /// "significantly better".
    pub warmup_tau: f64,
    /// Cells colored so far in this session (drives warm-up decay).
    pub cells_colored: u64,
    /// Fatigue growth per cell beyond [`StudentProfile::fatigue_onset`]:
    /// each extra cell adds this much slowdown, capped at +50%. Default 0
    /// (off) — coloring one classroom flag doesn't tire anyone, but long
    /// multi-flag sessions can.
    pub fatigue_rate: f64,
    /// Cells before fatigue starts accruing.
    pub fatigue_onset: u64,
}

impl StudentProfile {
    /// An average student.
    pub fn new(name: impl Into<String>) -> Self {
        StudentProfile {
            name: name.into(),
            skill: 1.0,
            warmup_amplitude: 0.8,
            warmup_tau: 40.0,
            cells_colored: 0,
            fatigue_rate: 0.0,
            fatigue_onset: 200,
        }
    }

    /// Set skill, clamped to a plausible classroom band `[0.6, 1.8]`.
    pub fn with_skill(mut self, skill: f64) -> Self {
        self.skill = skill.clamp(0.6, 1.8);
        self
    }

    /// A student with no warm-up effect (for ablations).
    pub fn without_warmup(mut self) -> Self {
        self.warmup_amplitude = 0.0;
        self
    }

    /// Enable fatigue: `rate` slowdown per cell beyond `onset` cells.
    pub fn with_fatigue(mut self, rate: f64, onset: u64) -> Self {
        self.fatigue_rate = rate.clamp(0.0, 0.1);
        self.fatigue_onset = onset;
        self
    }

    /// Current warm-up multiplier, `≥ 1`, decaying toward 1 as the student
    /// colors more cells. Exactly `1.0` without warm-up — the value the
    /// formula gives, since `1 + 0 × finite` is `1` — without paying for
    /// the `exp`.
    pub fn warmup_multiplier(&self) -> f64 {
        if self.warmup_amplitude == 0.0 {
            return 1.0;
        }
        1.0 + self.warmup_amplitude * (-(self.cells_colored as f64) / self.warmup_tau).exp()
    }

    /// Current fatigue multiplier, `≥ 1`, growing past the onset and
    /// capped at 1.5.
    pub fn fatigue_multiplier(&self) -> f64 {
        let over = self.cells_colored.saturating_sub(self.fatigue_onset) as f64;
        (1.0 + self.fatigue_rate * over).min(1.5)
    }

    /// Whether [`StudentProfile::warmup_multiplier`] and
    /// [`StudentProfile::fatigue_multiplier`] are exactly 1 at every cell:
    /// no warm-up amplitude and no fatigue rate, as a fresh sweep team
    /// without warm-up has. A cost chain may then skip both factors, since
    /// multiplying by 1 is exact.
    pub fn pace_is_flat(&self) -> bool {
        self.warmup_amplitude == 0.0 && self.fatigue_rate == 0.0
    }

    /// Record that a cell was colored (advances the warm-up curve).
    pub fn record_cell(&mut self) {
        self.cells_colored += 1;
    }

    /// Reset session experience (a fresh class, not a repeat run).
    pub fn reset_experience(&mut self) {
        self.cells_colored = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_decays_toward_one() {
        let mut s = StudentProfile::new("P1");
        let first = s.warmup_multiplier();
        assert!((first - 1.8).abs() < 1e-12);
        for _ in 0..24 {
            s.record_cell();
        }
        let later = s.warmup_multiplier();
        assert!(later < first);
        assert!(later > 1.0);
        for _ in 0..1000 {
            s.record_cell();
        }
        assert!((s.warmup_multiplier() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn without_warmup_is_flat() {
        let s = StudentProfile::new("P1").without_warmup();
        assert_eq!(s.warmup_multiplier(), 1.0);
    }

    #[test]
    fn a_flat_pace_keeps_both_multipliers_at_one() {
        let mut flat = StudentProfile::new("P1").without_warmup();
        assert!(flat.pace_is_flat());
        for _ in 0..1_000 {
            assert_eq!(flat.warmup_multiplier().to_bits(), 1f64.to_bits());
            assert_eq!(flat.fatigue_multiplier().to_bits(), 1f64.to_bits());
            flat.record_cell();
        }
        assert!(!StudentProfile::new("P2").pace_is_flat());
        let tired = StudentProfile::new("P3")
            .without_warmup()
            .with_fatigue(0.002, 100);
        assert!(!tired.pace_is_flat());
    }

    #[test]
    fn skill_clamped() {
        assert_eq!(StudentProfile::new("x").with_skill(0.1).skill, 0.6);
        assert_eq!(StudentProfile::new("x").with_skill(9.0).skill, 1.8);
        assert_eq!(StudentProfile::new("x").with_skill(1.1).skill, 1.1);
    }

    #[test]
    fn fatigue_off_by_default_and_capped() {
        let mut s = StudentProfile::new("P1");
        for _ in 0..10_000 {
            s.record_cell();
        }
        assert_eq!(s.fatigue_multiplier(), 1.0, "default is no fatigue");

        let mut tired = StudentProfile::new("P2").with_fatigue(0.002, 100);
        assert_eq!(tired.fatigue_multiplier(), 1.0);
        for _ in 0..150 {
            tired.record_cell();
        }
        let mid = tired.fatigue_multiplier();
        assert!(mid > 1.0 && mid < 1.5, "{mid}");
        for _ in 0..10_000 {
            tired.record_cell();
        }
        assert_eq!(tired.fatigue_multiplier(), 1.5, "capped");
    }

    #[test]
    fn reset_restores_cold_start() {
        let mut s = StudentProfile::new("P1");
        for _ in 0..50 {
            s.record_cell();
        }
        let warm = s.warmup_multiplier();
        s.reset_experience();
        assert!(s.warmup_multiplier() > warm);
        assert_eq!(s.cells_colored, 0);
    }
}

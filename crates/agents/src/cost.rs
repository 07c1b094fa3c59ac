//! The stochastic per-cell cost model.
//!
//! Seconds to color one cell =
//! `implement_base × condition × skill × warmup × fill_style × cell_kind ×
//! lognormal_noise`. Every factor is an observable from the paper:
//! implements differ (§IV), students warm up (§III-C), fill styles differ
//! (§IV), and intricate boundary cells — the Canadian maple leaf — "slowed
//! progress" (§III-D). Noise is lognormal so times stay positive and
//! multiplicative, sampled for reproducibility from a seeded
//! `ChaCha8Rng`: the vendored stand-in of that name, whose generator is
//! xoshiro256++.
//!
//! The `sample_*` methods are the reference: scalar libm arithmetic, one
//! cell at a time. The simulator's hot loop draws the same stream through
//! [`CostModel::draw_uniforms`] and [`CostModel::sample_breakage`] in the
//! same order, then computes each chunk of cells' noise with the
//! vectorised [`noise`](crate::noise) kernel. That kernel is not
//! bit-identical to libm, but only whole milliseconds leave the
//! simulator, and it uses a kernel value only when that settles the
//! millisecond: `x = secs × 1000` must sit more than `1e-9·x` from every
//! rounding boundary `k + ½`, a band over 1000× wider than
//! [`noise::REL_ERROR_BOUND`](crate::noise::REL_ERROR_BOUND). Any other
//! cell (inside the band, out of the kernel's domain, or not finite) is
//! recomputed from its stored uniforms with
//! [`CostModel::lognormal_from_uniforms`], the expression these methods
//! use. Every sampled duration therefore equals the reference's.

use crate::implement::Implement;
use crate::student::StudentProfile;
use flagsim_grid::FillStyle;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Whether a cell is interior to its color region or on a boundary with
/// another color. Boundary cells need precision ("the intricate maple leaf
/// … slowed progress") and cost more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellKind {
    /// Surrounded by same-color cells; color freely.
    #[default]
    Interior,
    /// Adjacent to a different color; careful edging required.
    Boundary,
}

impl CellKind {
    /// Time multiplier.
    pub fn multiplier(self) -> f64 {
        match self {
            CellKind::Interior => 1.0,
            CellKind::Boundary => 1.6,
        }
    }
}

/// Tunable model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Lognormal sigma for per-cell noise.
    pub noise_sigma: f64,
    /// Extra sigma added for [`FillStyle::Minimal`] (erratic dabs — the
    /// paper's scribble advice exists to get "uniformity of time per
    /// cell").
    pub minimal_extra_sigma: f64,
    /// Lognormal sigma for hand-off delays.
    pub handoff_sigma: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            noise_sigma: 0.12,
            minimal_extra_sigma: 0.25,
            handoff_sigma: 0.20,
        }
    }
}

/// A seeded sampler of cell-coloring times and hand-off delays.
#[derive(Debug, Clone)]
pub struct CostModel {
    rng: ChaCha8Rng,
    params: CostParams,
}

impl CostModel {
    /// Build with default parameters from a seed. Equal seeds ⇒ equal
    /// sample streams.
    pub fn new(seed: u64) -> Self {
        CostModel::with_params(seed, CostParams::default())
    }

    /// Build with explicit parameters.
    pub fn with_params(seed: u64, params: CostParams) -> Self {
        CostModel {
            rng: ChaCha8Rng::seed_from_u64(seed),
            params,
        }
    }

    /// The uniform pair the next normal draw consumes: pairs are drawn
    /// until `u1 > ε`, so `u1 ∈ (2⁻⁵², 1)` and `ln u1` is finite. Feed it
    /// to [`CostModel::lognormal_from_uniforms`] for the multiplier.
    pub fn draw_uniforms(&mut self) -> (f64, f64) {
        loop {
            let u1: f64 = self.rng.gen::<f64>();
            let u2: f64 = self.rng.gen::<f64>();
            if u1 > f64::EPSILON {
                return (u1, u2);
            }
        }
    }

    /// The lognormal multiplier with median 1 that the uniform pair
    /// `(u1, u2)` gives at `sigma`: a Box–Muller standard normal (which
    /// keeps us off external distribution crates) scaled by `sigma`,
    /// exponentiated. Every sampler here computes its noise this way.
    pub fn lognormal_from_uniforms(u1: f64, u2: f64, sigma: f64) -> f64 {
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos() * sigma).exp()
    }

    /// A lognormal multiplier with median 1.
    fn lognormal(&mut self, sigma: f64) -> f64 {
        let (u1, u2) = self.draw_uniforms();
        CostModel::lognormal_from_uniforms(u1, u2, sigma)
    }

    /// The per-cell lognormal sigma implied by a fill style. RNG-free,
    /// so callers sampling many cells can hoist it out of the loop.
    pub fn cell_sigma(&self, fill: FillStyle) -> f64 {
        if fill.uniform_timing() {
            self.params.noise_sigma
        } else {
            self.params.noise_sigma + self.params.minimal_extra_sigma
        }
    }

    /// The lognormal sigma of hand-off delays. RNG-free, like
    /// [`CostModel::cell_sigma`].
    pub fn handoff_sigma(&self) -> f64 {
        self.params.handoff_sigma
    }

    /// Seconds for `student` to color one cell with `implement`, advancing
    /// the student's warm-up curve. Panics if the implement is dead —
    /// detecting dead markers is the caller's failure-injection hook, not
    /// a time sample.
    pub fn sample_cell_secs(
        &mut self,
        student: &mut StudentProfile,
        implement: Implement,
        fill: FillStyle,
        kind: CellKind,
    ) -> f64 {
        assert!(
            implement.is_usable(),
            "cannot sample time for a dead implement"
        );
        let sigma = self.cell_sigma(fill);
        self.sample_cell_secs_resolved(
            student,
            implement.effective_base_secs() * student.skill,
            fill.work_factor(),
            sigma,
            kind,
        )
    }

    /// Pre-resolved fast path for [`CostModel::sample_cell_secs`]: callers
    /// hoist `implement.effective_base_secs() * student.skill` (constant
    /// per student/implement pair) and the fill-style factors (constant
    /// per run) out of their per-cell loop. Bit-for-bit identical to
    /// `sample_cell_secs` because `f64` multiplication chains evaluate
    /// left to right — `base_skill` is exactly the chain's first two
    /// factors — and the RNG draw order is unchanged.
    pub fn sample_cell_secs_resolved(
        &mut self,
        student: &mut StudentProfile,
        base_skill: f64,
        fill_factor: f64,
        sigma: f64,
        kind: CellKind,
    ) -> f64 {
        let secs = base_skill
            * student.warmup_multiplier()
            * student.fatigue_multiplier()
            * fill_factor
            * kind.multiplier()
            * self.lognormal(sigma);
        student.record_cell();
        secs
    }

    /// Seconds to hand `implement` from one student to another.
    pub fn sample_handoff_secs(&mut self, implement: Implement) -> f64 {
        implement.kind.handoff_secs() * self.lognormal(self.handoff_sigma())
    }

    /// Whether the implement breaks on this use (crayons only, see
    /// [`ImplementKind::breakage_prob`](crate::ImplementKind::breakage_prob)).
    pub fn sample_breakage(&mut self, implement: Implement) -> bool {
        let p = implement.kind.breakage_prob();
        p > 0.0 && self.rng.gen::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implement::{Condition, ImplementKind};

    fn avg_cell_secs(kind: ImplementKind, n: usize, seed: u64) -> f64 {
        let mut model = CostModel::new(seed);
        let mut student = StudentProfile::new("avg").without_warmup();
        let implement = Implement::good(kind);
        (0..n)
            .map(|_| {
                model.sample_cell_secs(
                    &mut student,
                    implement,
                    FillStyle::Scribble,
                    CellKind::Interior,
                )
            })
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn implement_ordering_survives_noise() {
        let d = avg_cell_secs(ImplementKind::BingoDauber, 400, 1);
        let tk = avg_cell_secs(ImplementKind::ThickMarker, 400, 2);
        let tn = avg_cell_secs(ImplementKind::ThinMarker, 400, 3);
        let c = avg_cell_secs(ImplementKind::Crayon, 400, 4);
        assert!(d < tk && tk < tn && tn < c, "{d} {tk} {tn} {c}");
    }

    #[test]
    fn mean_close_to_base() {
        let avg = avg_cell_secs(ImplementKind::ThickMarker, 2000, 7);
        // Lognormal with sigma .12 has mean ≈ base × exp(σ²/2) ≈ 1.007×.
        assert!((avg - 2.0).abs() < 0.1, "avg {avg}");
    }

    #[test]
    fn deterministic_given_seed() {
        let sample = |seed| {
            let mut m = CostModel::new(seed);
            let mut s = StudentProfile::new("s");
            (0..10)
                .map(|_| {
                    m.sample_cell_secs(
                        &mut s,
                        Implement::good(ImplementKind::ThickMarker),
                        FillStyle::Scribble,
                        CellKind::Interior,
                    )
                })
                .collect::<Vec<f64>>()
        };
        assert_eq!(sample(42), sample(42));
        assert_ne!(sample(42), sample(43));
    }

    #[test]
    fn warmup_makes_early_cells_slower() {
        let mut m = CostModel::with_params(
            5,
            CostParams {
                noise_sigma: 0.0,
                minimal_extra_sigma: 0.0,
                handoff_sigma: 0.0,
            },
        );
        let mut s = StudentProfile::new("s");
        let imp = Implement::good(ImplementKind::ThickMarker);
        let first = m.sample_cell_secs(&mut s, imp, FillStyle::Scribble, CellKind::Interior);
        for _ in 0..300 {
            let _ = m.sample_cell_secs(&mut s, imp, FillStyle::Scribble, CellKind::Interior);
        }
        let late = m.sample_cell_secs(&mut s, imp, FillStyle::Scribble, CellKind::Interior);
        assert!(first > late * 1.5, "first {first}, late {late}");
        assert!((late - 2.0).abs() < 0.05);
    }

    #[test]
    fn boundary_cells_cost_more() {
        let mut m = CostModel::with_params(
            5,
            CostParams {
                noise_sigma: 0.0,
                minimal_extra_sigma: 0.0,
                handoff_sigma: 0.0,
            },
        );
        let mut s = StudentProfile::new("s").without_warmup();
        let imp = Implement::good(ImplementKind::ThickMarker);
        let interior = m.sample_cell_secs(&mut s, imp, FillStyle::Scribble, CellKind::Interior);
        let boundary = m.sample_cell_secs(&mut s, imp, FillStyle::Scribble, CellKind::Boundary);
        assert!((boundary / interior - 1.6).abs() < 1e-9);
    }

    #[test]
    fn fill_style_scales_work() {
        let mut m = CostModel::with_params(
            5,
            CostParams {
                noise_sigma: 0.0,
                minimal_extra_sigma: 0.0,
                handoff_sigma: 0.0,
            },
        );
        let mut s = StudentProfile::new("s").without_warmup();
        let imp = Implement::good(ImplementKind::ThickMarker);
        let full = m.sample_cell_secs(&mut s, imp, FillStyle::Full, CellKind::Interior);
        let min = m.sample_cell_secs(&mut s, imp, FillStyle::Minimal, CellKind::Interior);
        assert!((full - 4.0).abs() < 1e-9);
        assert!((min - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dead implement")]
    fn dead_implement_panics() {
        let mut m = CostModel::new(1);
        let mut s = StudentProfile::new("s");
        let dead = Implement {
            kind: ImplementKind::ThickMarker,
            condition: Condition::Dead,
        };
        let _ = m.sample_cell_secs(&mut s, dead, FillStyle::Scribble, CellKind::Interior);
    }

    #[test]
    fn only_crayons_ever_break() {
        let mut m = CostModel::new(99);
        let mut crayon_breaks = 0;
        for _ in 0..5000 {
            if m.sample_breakage(Implement::good(ImplementKind::Crayon)) {
                crayon_breaks += 1;
            }
            assert!(!m.sample_breakage(Implement::good(ImplementKind::ThickMarker)));
        }
        assert!(crayon_breaks > 0, "crayons should break occasionally");
        assert!(crayon_breaks < 200, "but not constantly");
    }

    #[test]
    fn resolved_path_matches_classic_sampling_bitwise() {
        // The hot-path variant with hoisted factors must reproduce the
        // classic per-cell sampler exactly — same RNG stream, same f64
        // bit patterns — or trace determinism across the rewrite breaks.
        let imp = Implement::good(ImplementKind::Crayon);
        let fill = FillStyle::Minimal;
        let kinds = |i: usize| {
            if i.is_multiple_of(3) {
                CellKind::Boundary
            } else {
                CellKind::Interior
            }
        };
        let mut classic = CostModel::new(42);
        let mut s1 = StudentProfile::new("s");
        let a: Vec<u64> = (0..64)
            .map(|i| classic.sample_cell_secs(&mut s1, imp, fill, kinds(i)).to_bits())
            .collect();
        let mut fast = CostModel::new(42);
        let mut s2 = StudentProfile::new("s");
        let sigma = fast.cell_sigma(fill);
        let fill_factor = fill.work_factor();
        let base_skill = imp.effective_base_secs() * s2.skill;
        let b: Vec<u64> = (0..64)
            .map(|i| {
                fast.sample_cell_secs_resolved(&mut s2, base_skill, fill_factor, sigma, kinds(i))
                    .to_bits()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn warmup_free_cells_match_the_full_formula_bitwise() {
        // Without warm-up the multiplier skips its `exp`; every sampled
        // cell must still equal the full `1 + w·exp(−k/τ)` chain bit for
        // bit, with fatigue off and on (past its onset, so it bites).
        let formula = |s: &StudentProfile| {
            1.0 + s.warmup_amplitude * (-(s.cells_colored as f64) / s.warmup_tau).exp()
        };
        let imp = Implement::good(ImplementKind::ThickMarker);
        let fill = FillStyle::Minimal;
        let kinds = |i: usize| {
            if i.is_multiple_of(5) {
                CellKind::Boundary
            } else {
                CellKind::Interior
            }
        };
        for student in [
            StudentProfile::new("plain").without_warmup(),
            StudentProfile::new("tired")
                .without_warmup()
                .with_fatigue(0.004, 40),
        ] {
            let mut fast = CostModel::new(17);
            let mut old = CostModel::new(17);
            let mut s1 = student.clone();
            let mut s2 = student;
            let sigma = fast.cell_sigma(fill);
            let base_skill = imp.effective_base_secs() * s1.skill;
            let fill_factor = fill.work_factor();
            for i in 0..320 {
                let got = fast.sample_cell_secs_resolved(
                    &mut s1,
                    base_skill,
                    fill_factor,
                    sigma,
                    kinds(i),
                );
                let want = base_skill
                    * formula(&s2)
                    * s2.fatigue_multiplier()
                    * fill_factor
                    * kinds(i).multiplier()
                    * old.lognormal(sigma);
                s2.record_cell();
                assert_eq!(got.to_bits(), want.to_bits(), "{} cell {i}", s2.name);
            }
            assert_eq!(s1.fatigue_multiplier() > 1.0, s1.fatigue_rate > 0.0);
        }
    }

    #[test]
    fn handoff_positive_and_near_base() {
        let mut m = CostModel::new(11);
        let imp = Implement::good(ImplementKind::ThickMarker);
        let avg: f64 =
            (0..500).map(|_| m.sample_handoff_secs(imp)).sum::<f64>() / 500.0;
        assert!(avg > 0.9 && avg < 1.6, "avg {avg}");
    }
}

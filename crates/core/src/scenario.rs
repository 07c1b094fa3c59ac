//! The activity's scenarios (Fig. 1 and the variations).

use crate::config::{ActivityConfig, TeamKit};
use crate::faults::FaultPlan;
use crate::partition::{verify_assignments, CellOrder, PartitionStrategy};
use crate::report::RunReport;
use crate::run::{ActivityOutcome, Run, RunPrep, ScheduledRuns};
use crate::work::PreparedFlag;
use flagsim_agents::StudentProfile;
use flagsim_desim::SchedulePolicy;

/// A named task decomposition: what the instructor projects on the slide.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Slide title ("scenario 3: one stripe each").
    pub name: String,
    /// How the flag is divided.
    pub strategy: PartitionStrategy,
    /// Cell order within each part.
    pub order: CellOrder,
}

impl Scenario {
    /// A custom scenario.
    pub fn new(name: impl Into<String>, strategy: PartitionStrategy, order: CellOrder) -> Self {
        Scenario {
            name: name.into(),
            strategy,
            order,
        }
    }

    /// The four core scenarios of Fig. 1 (`n` in `1..=4`):
    ///
    /// 1. one student colors the entire flag;
    /// 2. two students, one coloring the red and blue stripes, the other
    ///    the yellow and green;
    /// 3. four students, one stripe each;
    /// 4. four students, one *vertical slice* each — every slice includes
    ///    part of each stripe, so the single marker of each color must be
    ///    handed around.
    pub fn fig1(n: u8) -> Scenario {
        match n {
            1 => Scenario::new(
                "scenario 1: one student",
                PartitionStrategy::Solo,
                CellOrder::RowMajor,
            ),
            2 => Scenario::new(
                "scenario 2: stripe pairs",
                PartitionStrategy::HorizontalBands(2),
                CellOrder::RowMajor,
            ),
            3 => Scenario::new(
                "scenario 3: one stripe each",
                PartitionStrategy::HorizontalBands(4),
                CellOrder::RowMajor,
            ),
            4 => Scenario::new(
                "scenario 4: vertical slices",
                PartitionStrategy::VerticalSlices(4),
                CellOrder::RowMajor,
            ),
            other => panic!("Fig. 1 has scenarios 1..=4, not {other}"), // lint-gate: allow (documented contract)
        }
    }

    /// All four core scenarios in activity order.
    pub fn core_activity() -> Vec<Scenario> {
        (1..=4).map(Scenario::fig1).collect()
    }

    /// The Webster variation: color `flag` with one student or with `n`
    /// students in vertical slices (how a team naturally splits a tricolor
    /// or the Canadian flag).
    pub fn webster(n: u32) -> Scenario {
        if n <= 1 {
            Scenario::new("webster: one student", PartitionStrategy::Solo, CellOrder::RowMajor)
        } else {
            Scenario::new(
                format!("webster: {n} students"),
                PartitionStrategy::VerticalSlices(n),
                CellOrder::RowMajor,
            )
        }
    }

    /// Scenario 4 with fine-grained alternation: same slices, but each
    /// student marches down their columns, crossing every stripe. Shorter
    /// marker holds, many more hand-offs.
    pub fn alternating_slices() -> Scenario {
        Scenario::new(
            "scenario 4 (column-major): vertical slices, fine-grained",
            PartitionStrategy::VerticalSlices(4),
            CellOrder::ColumnMajor,
        )
    }

    /// Scenario 4 with the pipelined rotation of §III-C: student `i`
    /// starts on stripe `i` and rotates, so the markers circulate and
    /// nobody convoys on red at the start.
    pub fn pipelined_slices(flag: &PreparedFlag, slices: u32, bands: u32) -> Scenario {
        let regions = crate::partition::pipelined_slices(flag, slices, bands);
        Scenario::new(
            "scenario 4 (pipelined): rotated stripe starts",
            PartitionStrategy::Custom(regions),
            CellOrder::RowMajor,
        )
    }

    /// How many coloring students this scenario needs (the paper's teams
    /// of five include a timer we don't simulate).
    pub fn team_size(&self, flag: &PreparedFlag, config: &ActivityConfig) -> usize {
        match &self.strategy {
            PartitionStrategy::ByColor => flag.colors_needed(&config.skip_colors).len(),
            s => s.parts(),
        }
    }

    /// Run this scenario with the given team (the first
    /// [`Scenario::team_size`] students color; extras sit out, like the
    /// timer). Assignments are verified before the run.
    pub fn run(
        &self,
        flag: &PreparedFlag,
        team: &mut [StudentProfile],
        kit: &TeamKit,
        config: &ActivityConfig,
    ) -> Result<RunReport, String> {
        self.run_with_faults(flag, team, kit, config, &FaultPlan::none())
    }

    /// [`Scenario::run`] under an injected [`FaultPlan`] — the fault drill
    /// version of the activity. The returned report carries a
    /// [`crate::faults::ResilienceReport`] when the plan is non-empty.
    pub fn run_with_faults(
        &self,
        flag: &PreparedFlag,
        team: &mut [StudentProfile],
        kit: &TeamKit,
        config: &ActivityConfig,
        plan: &FaultPlan,
    ) -> Result<RunReport, String> {
        self.compile(flag, config)?.run_with_faults(team, kit, config, plan)
    }

    /// Partition the flag and verify the assignments once, for reuse
    /// across many repetitions. The result depends only on the flag, the
    /// strategy, the cell order, and `skip_colors` — never on the seed —
    /// so a sweep compiles once and runs [`CompiledScenario`] per rep
    /// instead of re-partitioning and re-verifying every time.
    pub fn compile(
        &self,
        flag: &PreparedFlag,
        config: &ActivityConfig,
    ) -> Result<CompiledScenario, String> {
        let assignments = self
            .strategy
            .assignments(flag, self.order, &config.skip_colors);
        verify_assignments(flag, &assignments, &config.skip_colors)?;
        Ok(CompiledScenario {
            name: self.name.clone(),
            flag: flag.clone(),
            assignments,
        })
    }
}

/// A [`Scenario`] bound to one flag with its partition computed and
/// verified — the reusable per-rep unit of a sweep.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    name: String,
    flag: PreparedFlag,
    assignments: Vec<Vec<crate::work::WorkItem>>,
}

impl CompiledScenario {
    /// The scenario's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many coloring students the compiled partition needs.
    pub fn parts(&self) -> usize {
        self.assignments.len()
    }

    /// The flag this scenario was compiled against.
    pub fn flag(&self) -> &PreparedFlag {
        &self.flag
    }

    /// Run the compiled partition with a team. Same contract as
    /// [`Scenario::run_with_faults`], minus the per-call partition and
    /// verification work.
    pub fn run_with_faults(
        &self,
        team: &mut [StudentProfile],
        kit: &TeamKit,
        config: &ActivityConfig,
        plan: &FaultPlan,
    ) -> Result<RunReport, String> {
        let prep = self.prepare(team.len(), kit, plan)?;
        self.run(&prep, config, plan)
            .report(&mut team[..self.assignments.len()])
    }

    /// Everything about a run that the seed cannot change, checked in the
    /// order a run checks it: the team is big enough, then the plan and
    /// the kit fit the partition.
    pub(crate) fn prepare(
        &self,
        team_size: usize,
        kit: &TeamKit,
        plan: &FaultPlan,
    ) -> Result<RunPrep, String> {
        let needed = self.assignments.len();
        if team_size < needed {
            return Err(format!(
                "{} needs {needed} coloring students, team has {team_size}",
                self.name
            ));
        }
        RunPrep::new(&self.assignments, kit, plan)
    }

    /// One run of the compiled partition; `prep` must come from
    /// [`prepare`](Self::prepare) with the same kit and plan.
    pub(crate) fn run<'a>(
        &'a self,
        prep: &'a RunPrep,
        config: &'a ActivityConfig,
        plan: &'a FaultPlan,
    ) -> Run<'a> {
        Run {
            label: &self.name,
            flag: &self.flag,
            assignments: &self.assignments,
            prep,
            config,
            plan,
        }
    }

    /// Run the compiled partition under a forced (or otherwise custom)
    /// [`SchedulePolicy`], surfacing a stall as a structured
    /// [`ActivityOutcome`] — a stall under some resolution of the ties is
    /// a *result* (a reachable deadlock), not a failure. With `policy:
    /// None` the run is exactly [`run_with_faults`](Self::run_with_faults)'s;
    /// with one it is the one run of a
    /// [`scheduled_runs`](Self::scheduled_runs). Either way the coloring
    /// students' warm-up advances as one run advances it.
    pub fn run_scheduled(
        &self,
        team: &mut [StudentProfile],
        kit: &TeamKit,
        config: &ActivityConfig,
        plan: &FaultPlan,
        policy: Option<Box<dyn SchedulePolicy>>,
    ) -> Result<ActivityOutcome, String> {
        let Some(policy) = policy else {
            let prep = self.prepare(team.len(), kit, plan)?;
            return self
                .run(&prep, config, plan)
                .scheduled(&mut team[..self.assignments.len()]);
        };
        let mut runs = self.scheduled_runs(team.to_vec(), kit, config, plan, policy)?;
        team[..self.assignments.len()].clone_from_slice(runs.team());
        runs.run()
    }

    /// The compiled partition prepared and sampled once with `team`, to
    /// be run under `policy` as many times as the caller likes — the
    /// per-verdict unit of `flagsim verify`'s exploration. Every
    /// [`ScheduledRuns::run`] gives what [`run_scheduled`](Self::run_scheduled)
    /// gives for a fresh copy of `team` under the policy as it stands.
    pub fn scheduled_runs<'a, Pol: SchedulePolicy>(
        &'a self,
        mut team: Vec<StudentProfile>,
        kit: &TeamKit,
        config: &'a ActivityConfig,
        plan: &'a FaultPlan,
        policy: Pol,
    ) -> Result<ScheduledRuns<'a, Pol>, String> {
        let prep = self.prepare(team.len(), kit, plan)?;
        team.truncate(self.assignments.len());
        Ok(ScheduledRuns::new(self, prep, team, config, plan, policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_agents::ImplementKind;
    use flagsim_flags::library;
    use flagsim_grid::Color;

    fn setup() -> (PreparedFlag, Vec<StudentProfile>, TeamKit, ActivityConfig) {
        let pf = PreparedFlag::new(&library::mauritius());
        let team: Vec<StudentProfile> = (1..=4)
            .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
            .collect();
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS);
        (pf, team, kit, ActivityConfig::default())
    }

    #[test]
    fn fig1_scenarios_have_expected_sizes() {
        let (pf, _, _, cfg) = setup();
        assert_eq!(Scenario::fig1(1).team_size(&pf, &cfg), 1);
        assert_eq!(Scenario::fig1(2).team_size(&pf, &cfg), 2);
        assert_eq!(Scenario::fig1(3).team_size(&pf, &cfg), 4);
        assert_eq!(Scenario::fig1(4).team_size(&pf, &cfg), 4);
        assert_eq!(Scenario::core_activity().len(), 4);
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn fig1_out_of_range_panics() {
        let _ = Scenario::fig1(5);
    }

    #[test]
    fn all_core_scenarios_run_correctly() {
        let (pf, mut team, kit, cfg) = setup();
        for sc in Scenario::core_activity() {
            let r = sc.run(&pf, &mut team, &kit, &cfg).unwrap();
            assert!(r.correct, "{} produced a wrong flag", sc.name);
        }
    }

    #[test]
    fn extra_students_sit_out() {
        let (pf, _, kit, cfg) = setup();
        let mut big_team: Vec<StudentProfile> = (1..=6)
            .map(|i| StudentProfile::new(format!("P{i}")))
            .collect();
        let r = Scenario::fig1(2).run(&pf, &mut big_team, &kit, &cfg).unwrap();
        assert_eq!(r.students.len(), 2);
    }

    /// A policed `run_scheduled` advances the caller's coloring students
    /// exactly as the unpoliced run does, leaves extras alone, and reports
    /// what a fresh `scheduled_runs` under the same policy reports.
    #[test]
    fn run_scheduled_under_a_policy_advances_the_callers_team() {
        let (pf, _, kit, cfg) = setup();
        let plan = FaultPlan::none();
        let compiled = Scenario::fig1(4).compile(&pf, &cfg).unwrap();
        let fresh = || -> Vec<StudentProfile> {
            (1..=6)
                .map(|i| StudentProfile::new(format!("P{i}")))
                .collect()
        };
        let (mut unpoliced, mut policed) = (fresh(), fresh());
        compiled
            .run_scheduled(&mut unpoliced, &kit, &cfg, &plan, None)
            .unwrap();
        let policy = Box::new(flagsim_desim::NoPolicy);
        let outcome = compiled
            .run_scheduled(&mut policed, &kit, &cfg, &plan, Some(policy))
            .unwrap();
        assert_eq!(policed, unpoliced);
        assert_ne!(policed[..4], fresh()[..4], "coloring students warm up");
        assert_eq!(policed[4..], fresh()[4..], "extras sit out");

        let policy: Box<dyn SchedulePolicy> = Box::new(flagsim_desim::NoPolicy);
        let mut runs = compiled
            .scheduled_runs(fresh(), &kit, &cfg, &plan, policy)
            .unwrap();
        match (outcome, runs.run().unwrap()) {
            (ActivityOutcome::Completed(a), ActivityOutcome::Completed(b)) => assert_eq!(a, b),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn too_small_team_errors() {
        let (pf, _, kit, cfg) = setup();
        let mut duo: Vec<StudentProfile> =
            (1..=2).map(|i| StudentProfile::new(format!("P{i}"))).collect();
        assert!(Scenario::fig1(4).run(&pf, &mut duo, &kit, &cfg).is_err());
    }

    #[test]
    fn pipelined_slices_beat_scenario_4() {
        let (pf, _, kit, cfg) = setup();
        let fresh_team = || -> Vec<StudentProfile> {
            (1..=4)
                .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
                .collect()
        };
        let mut t1 = fresh_team();
        let mut t2 = fresh_team();
        let convoy = Scenario::fig1(4).run(&pf, &mut t1, &kit, &cfg).unwrap();
        let pipelined = Scenario::pipelined_slices(&pf, 4, 4)
            .run(&pf, &mut t2, &kit, &cfg)
            .unwrap();
        assert!(pipelined.correct);
        // The rotation eliminates the startup convoy on red: faster and
        // far less waiting.
        assert!(
            pipelined.completion < convoy.completion,
            "pipelined {} should beat convoy {}",
            pipelined.completion,
            convoy.completion
        );
        assert!(pipelined.total_wait_secs() < convoy.total_wait_secs() / 2.0);
    }

    #[test]
    fn alternating_slices_trade_holds_for_handoffs() {
        let (pf, _, kit, cfg) = setup();
        let fresh_team = || -> Vec<StudentProfile> {
            (1..=4)
                .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
                .collect()
        };
        let mut t1 = fresh_team();
        let mut t2 = fresh_team();
        let block = Scenario::fig1(4).run(&pf, &mut t1, &kit, &cfg).unwrap();
        let alt = Scenario::alternating_slices()
            .run(&pf, &mut t2, &kit, &cfg)
            .unwrap();
        let handoffs = |r: &crate::report::RunReport| -> u64 {
            r.contention.iter().map(|c| c.stats.handoffs).sum()
        };
        assert!(
            handoffs(&alt) > handoffs(&block),
            "column-major should hand markers around more: {} vs {}",
            handoffs(&alt),
            handoffs(&block)
        );
    }

    #[test]
    fn webster_scenarios() {
        let pf = PreparedFlag::new(&library::france());
        let kit = TeamKit::uniform(
            ImplementKind::ThickMarker,
            &[Color::Blue, Color::White, Color::Red],
        );
        let cfg = ActivityConfig::default();
        let mut solo = vec![StudentProfile::new("P1").without_warmup()];
        let mut trio: Vec<StudentProfile> = (1..=3)
            .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
            .collect();
        let s1 = Scenario::webster(1).run(&pf, &mut solo, &kit, &cfg).unwrap();
        let s3 = Scenario::webster(3).run(&pf, &mut trio, &kit, &cfg).unwrap();
        assert!(s3.completion < s1.completion);
        let speedup = s3.speedup_vs(&s1);
        assert!(speedup > 2.0, "France 3-way speedup {speedup}");
    }
}

//! Wiring the activity into the DES engine.
//!
//! Each student becomes a [`Process`] walking their assigned cell list;
//! each color's single implement becomes an exclusive resource. Per-cell
//! durations are pre-sampled (they depend only on the student's own
//! history, not on interleaving), so the DES run itself is exact.
//!
//! Fault injection ([`run_activity_with_faults`]) threads a shared
//! [`crate::faults::FaultPlan`] through the same state machine: students consult
//! the live fault state at every poll, so dropouts leave at their next
//! natural pause, broken implements are discovered by the next student to
//! use them, and orphaned cells sit in a shared pool that survivors adopt
//! after finishing their own work. Orphaned cells keep their pre-sampled
//! durations — the adopting survivor colors at the dropout's pace — a
//! deliberate simplification that keeps the DES exact.
//!
//! Every run goes through one loop, `Run::drive`: sample every duration
//! into a `World` (or reload one), load it into a reset
//! `Engine<StudentProc, _>`, run, count, and hand the stopped engine to a
//! finish. The report finish assembles a [`RunReport`] (grid, per-student
//! and per-color breakdowns, resilience log); the stats finish reads a
//! [`RepSample`] straight off the engine's slots, and the fingerprint
//! finish the report's outcome fingerprint. Only a report names students
//! and markers. The live fault state and its started-cell logs exist only
//! when a fault or, for a report, a deadline can cut the run short.
//!
//! World and engine keep their buffers: the report and stats finishes
//! share one pair per thread, and [`ScheduledRuns`] keeps its own for
//! every schedule run under a policy — each schedule `flagsim verify`
//! explores, its witness replays, and a one-off policed run. A
//! steady-state stats rep allocates nothing.

use crate::config::{ActivityConfig, ReleasePolicy, TeamKit};
use crate::faults::{FaultEvent, FaultPlan, Incident, RecoveryAction, ResilienceReport};
use crate::report::{outcome_fingerprint, ColorContention, RepSample, RunReport, StudentFigures};
use crate::scenario::CompiledScenario;
use crate::work::{PreparedFlag, WorkItem};
use flagsim_agents::{noise, CostModel, Implement, StudentProfile};
use flagsim_desim::{
    Action, Engine, Process, ResourceId, SchedulePolicy, SimDuration, SimError, SimTime,
    WaitForGraph,
};
use flagsim_grid::{CellId, Color, Grid};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Seconds to fetch a replacement when an implement breaks mid-cell.
const REPLACEMENT_DELAY_SECS: f64 = 12.0;

/// One pre-timed unit of work for the state machine.
#[derive(Debug, Clone, Copy)]
struct TimedItem {
    resource: ResourceId,
    dur: SimDuration,
    work: WorkItem,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    NeedItem,
    DidWork,
}

/// What using an implement costs once the live fault state has its say.
enum UseOutcome {
    /// Usable; the swap delay (zero when nothing was broken).
    Ok(SimDuration),
    /// The policy aborted the run; the caller should wind down.
    Abort,
}

/// Mutable state shared by every student process during a faulted run:
/// pending dropouts, broken implements, the orphaned-work pool, and the
/// incident/action log that becomes the [`ResilienceReport`].
#[derive(Default)]
struct LiveFaultState {
    abort_on_fault: bool,
    spare_delay_secs: Option<f64>,
    dropout_at: Vec<Option<SimTime>>,
    /// resource index -> (break time, color, verb for the incident log).
    broken: BTreeMap<usize, (SimTime, Color, &'static str)>,
    orphans: VecDeque<TimedItem>,
    aborted: Option<SimTime>,
    incidents: Vec<Incident>,
    actions: Vec<RecoveryAction>,
    time_lost_secs: f64,
    adopted: Vec<usize>,
    /// Per student, every cell whose work actually started, in order —
    /// under rebalancing this is the ground truth for painting the grid.
    started: Vec<Vec<WorkItem>>,
}

/// The live fault state as the student processes share it.
type SharedFaults = Rc<RefCell<LiveFaultState>>;

impl LiveFaultState {
    /// The state at the start of a run, primed from `plan`. Resource `i`
    /// of the run is the implement of `needed[i]`.
    fn shared(team_size: usize, plan: &FaultPlan, needed: &[Color]) -> SharedFaults {
        let mut st = LiveFaultState {
            abort_on_fault: plan.policy.aborts(),
            spare_delay_secs: plan.policy.spare_delay_secs(),
            dropout_at: vec![None; team_size],
            adopted: vec![0; team_size],
            started: vec![Vec::new(); team_size],
            ..LiveFaultState::default()
        };
        for e in &plan.events {
            match e {
                FaultEvent::ImplementBreaks { color, at_secs }
                | FaultEvent::ImplementDriesOut { color, at_secs } => {
                    if let Ok(i) = needed.binary_search(color) {
                        let verb = if matches!(e, FaultEvent::ImplementBreaks { .. }) {
                            "broke"
                        } else {
                            "dried out"
                        };
                        st.broken.insert(
                            i,
                            (
                                SimTime::ZERO + SimDuration::from_secs_f64(*at_secs),
                                *color,
                                verb,
                            ),
                        );
                    }
                }
                FaultEvent::Dropout { student, at_secs } => {
                    st.dropout_at[*student] =
                        Some(SimTime::ZERO + SimDuration::from_secs_f64(*at_secs));
                }
                FaultEvent::LateArrival { student, at_secs } => {
                    if *at_secs > 0.0 {
                        st.incidents.push(Incident {
                            at_secs: *at_secs,
                            what: format!("P{} arrived {at_secs:.1}s late", student + 1),
                        });
                    }
                }
                FaultEvent::HandoffFumble { .. } | FaultEvent::DeadlineBell { .. } => {}
            }
        }
        Rc::new(RefCell::new(st))
    }

    /// Student `idx` is about to color `item` at `now`: discover any
    /// break of its implement scheduled before `now` and either pay the
    /// spare swap or abort the run, per policy; unless aborting, log the
    /// cell as started. Out of line, like [`StudentProc::notice_faults`].
    #[inline(never)]
    fn use_implement(&mut self, idx: usize, item: &TimedItem, now: SimTime) -> UseOutcome {
        let r = item.resource;
        let mut swap_delay = SimDuration::ZERO;
        if let Some(&(broke_at, color, verb)) = self.broken.get(&r.index()).filter(|b| b.0 <= now) {
            self.broken.remove(&r.index());
            self.incidents.push(Incident {
                at_secs: broke_at.as_secs_f64(),
                what: format!("the {color} implement {verb}"),
            });
            let Some(delay) = self.spare_delay_secs else {
                self.aborted = Some(now);
                self.actions.push(RecoveryAction::Aborted {
                    at_secs: now.as_secs_f64(),
                });
                return UseOutcome::Abort;
            };
            self.actions.push(RecoveryAction::SpareSwapped {
                color,
                at_secs: now.as_secs_f64(),
                delay_secs: delay,
            });
            self.time_lost_secs += delay;
            swap_delay = SimDuration::from_secs_f64(delay);
        }
        self.started[idx].push(item.work);
        UseOutcome::Ok(swap_delay)
    }
}

/// A student as a DES process.
pub(crate) struct StudentProc {
    idx: usize,
    name: String,
    items: Vec<TimedItem>,
    policy: ReleasePolicy,
    pos: usize,
    step: Step,
    held: Option<ResourceId>,
    pending: Option<ResourceId>,
    dropped: bool,
    /// `None` only for a stats-only run without faults: nothing can
    /// bite, and nobody reads the started-cell log.
    live: Option<SharedFaults>,
}

impl StudentProc {
    /// Faults first: a global abort, or this student's dropout falling
    /// due. Both are noticed at the student's next natural pause, exactly
    /// when a real student would look up; either sets `dropped`. Out of
    /// line, so the fault-free poll stays small enough to inline into the
    /// engine's event loop.
    #[inline(never)]
    fn notice_faults(&mut self, now: SimTime) {
        let Some(live) = &self.live else {
            return;
        };
        let mut live = live.borrow_mut();
        let dropout_due = live.dropout_at[self.idx].is_some_and(|t| t <= now);
        if dropout_due {
            live.dropout_at[self.idx] = None;
            live.incidents.push(Incident {
                at_secs: now.as_secs_f64(),
                what: format!("{} dropped out", self.name),
            });
            // Cells not yet started (the one under the hand, when
            // `DidWork`, is finished) go back on the table.
            let cut = match self.step {
                Step::DidWork => self.pos + 1,
                Step::NeedItem => self.pos,
            };
            let leftover = self.items.split_off(cut.min(self.items.len()));
            if live.abort_on_fault {
                live.aborted = Some(now);
                live.actions.push(RecoveryAction::Aborted {
                    at_secs: now.as_secs_f64(),
                });
            } else if !leftover.is_empty() {
                live.actions.push(RecoveryAction::WorkRebalanced {
                    student: self.idx,
                    cells: leftover.len(),
                    at_secs: now.as_secs_f64(),
                });
                live.orphans.extend(leftover);
            }
            self.dropped = true;
        } else if live.aborted.is_some() {
            self.dropped = true;
        }
    }
}

impl Process for StudentProc {
    #[inline(always)]
    fn next(&mut self, now: SimTime) -> Action {
        loop {
            if !self.dropped && self.live.is_some() {
                self.notice_faults(now);
            }
            if self.dropped {
                // Wind down: hand back whatever we hold (including a
                // grant that landed while we were deciding to leave).
                if let Some(r) = self.pending.take() {
                    self.held = Some(r);
                }
                if let Some(r) = self.held.take() {
                    return Action::Release(r);
                }
                return Action::Done;
            }
            match self.step {
                Step::DidWork => {
                    self.pos += 1;
                    self.step = Step::NeedItem;
                    if self.policy == ReleasePolicy::ReleaseEachCell {
                        if let Some(r) = self.held.take() {
                            return Action::Release(r);
                        }
                    }
                }
                Step::NeedItem => {
                    // Resolve a pending acquire: being polled means granted.
                    if let Some(r) = self.pending.take() {
                        self.held = Some(r);
                    }
                    let item = match self.items.get(self.pos).copied() {
                        Some(item) => item,
                        None => {
                            // Own list done: adopt orphaned work, if any.
                            let adopted = self.live.as_ref().and_then(|live| {
                                let mut live = live.borrow_mut();
                                let item = live.orphans.pop_front()?;
                                live.adopted[self.idx] += 1;
                                Some(item)
                            });
                            match adopted {
                                Some(it) => {
                                    self.items.push(it);
                                    continue;
                                }
                                None => {
                                    if let Some(r) = self.held.take() {
                                        return Action::Release(r);
                                    }
                                    return Action::Done;
                                }
                            }
                        }
                    };
                    match self.held {
                        Some(h) if h == item.resource => {
                            // About to color: does the implement still work?
                            let mut swap_delay = SimDuration::ZERO;
                            if let Some(live) = &self.live {
                                match live.borrow_mut().use_implement(self.idx, &item, now) {
                                    UseOutcome::Abort => continue,
                                    UseOutcome::Ok(delay) => swap_delay = delay,
                                }
                            }
                            self.step = Step::DidWork;
                            return Action::Work(item.dur + swap_delay);
                        }
                        Some(h) => {
                            self.held = None;
                            return Action::Release(h);
                        }
                        None => {
                            self.pending = Some(item.resource);
                            return Action::Acquire(item.resource);
                        }
                    }
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Run the activity: `assignments[i]` is the cell list for `team[i]`.
///
/// The `team` profiles are mutated — their warm-up experience advances, so
/// running scenario 1 twice with the same team reproduces the paper's
/// "second run is significantly better" observation.
///
/// Errors if the kit is missing or has dead implements for a needed color
/// (the §IV dry-run would have caught it), or if assignments don't match
/// the team.
pub fn run_activity(
    label: impl Into<String>,
    flag: &PreparedFlag,
    assignments: &[Vec<WorkItem>],
    team: &mut [StudentProfile],
    kit: &TeamKit,
    config: &ActivityConfig,
) -> Result<RunReport, String> {
    run_activity_with_faults(label, flag, assignments, team, kit, config, &FaultPlan::none())
}

/// [`run_activity`] with a [`FaultPlan`] injected. The run survives every
/// planned mishap (or aborts cleanly, per the plan's policy) and attaches
/// a [`ResilienceReport`] to the returned report whenever the plan is
/// non-empty. Engine-level failures (a stall, a tripped live-lock guard)
/// come back as `Err` strings instead of panicking, so batch drivers can
/// record them and keep going.
pub fn run_activity_with_faults(
    label: impl Into<String>,
    flag: &PreparedFlag,
    assignments: &[Vec<WorkItem>],
    team: &mut [StudentProfile],
    kit: &TeamKit,
    config: &ActivityConfig,
    plan: &FaultPlan,
) -> Result<RunReport, String> {
    if assignments.len() != team.len() {
        return Err(format!(
            "{} assignments for {} students",
            assignments.len(),
            team.len()
        ));
    }
    let prep = RunPrep::new(assignments, kit, plan)?;
    let label = label.into();
    Run {
        label: &label,
        flag,
        assignments,
        prep: &prep,
        config,
        plan,
    }
    .report(team)
}

/// How a scheduled run ended: normally, with the full report, or stalled
/// with every remaining process blocked — the structured form of the
/// deadlock [`run_activity_with_faults`] flattens into an error string.
/// `flagsim verify` needs the wait-for graph itself, not its rendering.
#[derive(Debug)]
pub enum ActivityOutcome {
    /// The run drained (or the bell cut it off) and produced a report.
    Completed(Box<RunReport>),
    /// The run stalled: the event queue emptied with processes still
    /// blocked on resources. Carries the wait-for graph at the stall.
    Stalled(WaitForGraph),
}

/// The seed-independent half of preparing a run: the plan and kit
/// checked against the partition, and the per-color tables the per-cell
/// loop indexes into. It depends only on the assignments, the kit and
/// the plan, so a sweep builds it once and reuses it for every rep.
#[derive(Debug, Clone)]
pub(crate) struct RunPrep {
    /// Colors the assignments use, sorted; resource `i` of every run is
    /// the implement of `needed[i]`.
    needed: Vec<Color>,
    /// The kit's implement for each needed color.
    implements: Vec<Implement>,
    /// How many of each needed color's implement the kit holds.
    counts: Vec<usize>,
    /// Per student, per assigned item: the item's index into `needed`.
    color_index: Vec<Vec<usize>>,
}

impl RunPrep {
    /// Check `plan` against a team of one student per assignment list,
    /// then `kit` against the colors the assignments use — in that order,
    /// with the errors a run reports.
    pub(crate) fn new(
        assignments: &[Vec<WorkItem>],
        kit: &TeamKit,
        plan: &FaultPlan,
    ) -> Result<RunPrep, String> {
        plan.validate(assignments.len())?;
        let mut needed: Vec<Color> = Vec::new();
        for part in assignments {
            for item in part {
                if !needed.contains(&item.color) {
                    needed.push(item.color);
                }
            }
        }
        needed.sort_unstable();
        kit.check(&needed)?;
        let implements = needed
            .iter()
            .map(|&c| kit.implement(c).expect("checked above"))
            .collect();
        let counts = needed.iter().map(|&c| kit.count(c)).collect();
        let color_index = assignments
            .iter()
            .map(|part| {
                part.iter()
                    .map(|item| needed.binary_search(&item.color).expect("collected above"))
                    .collect()
            })
            .collect();
        Ok(RunPrep {
            needed,
            implements,
            counts,
            color_index,
        })
    }

    /// Name the waiting students and their markers in `graph`, a stall of
    /// a run loaded without names (`report == false`), as the report
    /// finish's engine names them.
    fn name_waiters(&self, graph: &mut WaitForGraph, team: &[StudentProfile]) {
        for e in &mut graph.edges {
            e.proc_name.clone_from(&team[e.proc.index()].name);
            let r = e.resource.index();
            e.resource_label = resource_label(self.needed[r], self.implements[r]);
        }
    }
}

/// One run's validated inputs. `team` arguments below hold one student
/// per assignment list.
pub(crate) struct Run<'a> {
    pub(crate) label: &'a str,
    pub(crate) flag: &'a PreparedFlag,
    pub(crate) assignments: &'a [Vec<WorkItem>],
    pub(crate) prep: &'a RunPrep,
    pub(crate) config: &'a ActivityConfig,
    pub(crate) plan: &'a FaultPlan,
}

/// Every duration one run draws from the cost model, and the deadline it
/// runs to: the sampled half of arming a run. It is kept apart from the
/// engine so that an engine reloads it without drawing again, and every
/// buffer in it survives to the next [`World::sample`].
#[derive(Default)]
pub(crate) struct World {
    /// The earlier of the configured deadline and any bell.
    deadline: Option<SimTime>,
    /// Each needed color's hand-off latency, in `RunPrep::needed` order.
    handoffs: Vec<SimDuration>,
    /// Per student, the pre-timed cell list. [`World::load`] moves each
    /// list into its process; [`World::run`] takes the buffer back.
    items: Vec<Vec<TimedItem>>,
    /// Scratch: per needed color, one student's `base × skill` cost
    /// prefix and the implement (whose breakage is drawn per cell).
    per_color: Vec<(f64, Implement)>,
    /// Times every hand-off and cell of a sample, and counts the last
    /// sample's breakages and exact fallbacks. It lives here so that a
    /// rep does not build and zero its chunk buffers.
    sampler: CellSampler,
}

/// Slots per chunk of [`CellSampler`].
const CHUNK: usize = 64;

/// How far, relative to `x = secs × 1000`, `x` must sit from every
/// rounding boundary `k + ½` for the noise kernel's value to settle the
/// millisecond: 5e-7, 10× the kernel's error bound. The roundings of the
/// chain after the noise (a product, a sum, the `× 1000`) move `x` by
/// under 4e-16 of itself on both paths, far inside the rest.
const SETTLE_MARGIN: f64 = 10.0 * noise::REL_ERROR_BOUND;

/// `1.5·2⁵²`: adding it to `x ∈ [0, 2⁵¹)` rounds `x` to the nearest
/// integer, which then sits in the sum's low 51 mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// 2⁵¹: the settle pass takes only `x` below it, where [`ROUND`] works.
const TWO_POW_51: f64 = 2_251_799_813_685_248.0;

/// A slot's millisecond when the kernel could not settle it.
const UNSETTLED: u64 = u64::MAX;

/// Times hand-offs and cells a chunk at a time with the vectorised noise
/// kernel, giving every one the millisecond duration the scalar reference
/// gives from the same RNG draws in the same order: for a cell
/// `sample_cell_secs_resolved`, then `sample_breakage`, then
/// `SimDuration::from_secs_f64`; for a hand-off `sample_handoff_secs`
/// plus its fumbles.
struct CellSampler {
    fill_factor: f64,
    sigma: f64,
    /// Implements that broke mid-cell.
    breakages: u64,
    /// Slots the kernel could not settle, recomputed with libm.
    fallbacks: u64,
    /// Per slot of the chunk: the cost prefix (for a cell `base × skill ×
    /// warm-up × fatigue × fill × kind`, for a hand-off its base
    /// latency), the Box–Muller uniforms, the seconds added after the
    /// noisy term (a broken crayon's replacement delay, a color's fumbles,
    /// else 0), the kernel's noise, and the settled millisecond or
    /// [`UNSETTLED`].
    prefix: [f64; CHUNK],
    u1: [f64; CHUNK],
    u2: [f64; CHUNK],
    addend: [f64; CHUNK],
    noise: [f64; CHUNK],
    ms: [u64; CHUNK],
}

impl Default for CellSampler {
    fn default() -> Self {
        CellSampler::new(1.0, 0.0)
    }
}

impl CellSampler {
    fn new(fill_factor: f64, sigma: f64) -> CellSampler {
        CellSampler {
            fill_factor,
            sigma,
            breakages: 0,
            fallbacks: 0,
            prefix: [0.0; CHUNK],
            u1: [0.0; CHUNK],
            u2: [0.0; CHUNK],
            addend: [0.0; CHUNK],
            noise: [0.0; CHUNK],
            ms: [0; CHUNK],
        }
    }

    /// Start a sample: cells at `fill_factor` and `sigma`, both counts
    /// at zero. The chunk buffers keep whatever the last sample left.
    fn restart(&mut self, fill_factor: f64, sigma: f64) {
        self.fill_factor = fill_factor;
        self.sigma = sigma;
        self.breakages = 0;
        self.fallbacks = 0;
    }

    /// Push each needed color's hand-off latency onto `out`: the
    /// implement's base latency times its noise, plus `extra(color)`.
    fn handoffs(
        &mut self,
        cost: &mut CostModel,
        needed: &[Color],
        implements: &[Implement],
        extra: impl Fn(Color) -> f64,
        out: &mut Vec<SimDuration>,
    ) {
        let sigma = cost.handoff_sigma();
        for (needed, implements) in needed.chunks(CHUNK).zip(implements.chunks(CHUNK)) {
            for (i, (&c, implement)) in needed.iter().zip(implements).enumerate() {
                self.prefix[i] = implement.kind.handoff_secs();
                (self.u1[i], self.u2[i]) = cost.draw_uniforms();
                self.addend[i] = extra(c);
            }
            self.settle(needed.len(), sigma);
            out.extend((0..needed.len()).map(|i| self.duration(i, sigma)));
        }
    }

    /// Time `student`'s `items` into `timed`, advancing their warm-up;
    /// `colors[i]` indexes `per_color` for `items[i]`. Crayons
    /// occasionally break mid-cell (§V: "to avoid breakage"); a break
    /// costs the student a fetch-a-replacement delay on that cell.
    fn time(
        &mut self,
        cost: &mut CostModel,
        student: &mut StudentProfile,
        per_color: &[(f64, Implement)],
        items: &[WorkItem],
        colors: &[usize],
        timed: &mut Vec<TimedItem>,
    ) {
        // On a flat pace both multipliers are exactly 1, and multiplying
        // by 1 is exact: skipping them keeps the reference's bits.
        let flat = student.pace_is_flat();
        for (items, colors) in items.chunks(CHUNK).zip(colors.chunks(CHUNK)) {
            // Draw: the reference's draws, in its order.
            for (i, (item, &ci)) in items.iter().zip(colors).enumerate() {
                let (base_skill, implement) = per_color[ci];
                let paced = if flat {
                    base_skill
                } else {
                    base_skill * student.warmup_multiplier() * student.fatigue_multiplier()
                };
                self.prefix[i] = paced * self.fill_factor * item.kind.multiplier();
                student.record_cell();
                (self.u1[i], self.u2[i]) = cost.draw_uniforms();
                let broke = cost.sample_breakage(implement);
                self.breakages += u64::from(broke);
                self.addend[i] = if broke { REPLACEMENT_DELAY_SECS } else { 0.0 };
            }
            self.settle(items.len(), self.sigma);
            let slots = items.iter().zip(colors).enumerate();
            timed.extend(slots.map(|(i, (item, &ci))| TimedItem {
                resource: ResourceId::from_index(ci),
                dur: self.duration(i, self.sigma),
                work: *item,
            }));
        }
    }

    /// Compute the noise of slots `..n` at `sigma` with the kernel, then
    /// settle each slot's millisecond in one branch-free pass. A slot keeps
    /// the kernel's millisecond when its noisy term and addend are both
    /// `≥ 0` (so their sum carries the kernel's relative error unchanged),
    /// `x = secs × 1000` is below 2⁵¹, and `x` is more than
    /// `SETTLE_MARGIN·x` from every `k + ½`: the libm chain's `x`, within
    /// the kernel's error bound of this one, then rounds to the same
    /// integer. Every other slot, including a NaN from outside the
    /// kernel's domain, is marked [`UNSETTLED`] and counted as a fallback.
    fn settle(&mut self, n: usize, sigma: f64) {
        noise::lognormal_batch(sigma, &self.u1[..n], &self.u2[..n], &mut self.noise[..n]);
        let mut unsettled = 0;
        for (((ms, &prefix), &noise), &addend) in self.ms[..n]
            .iter_mut()
            .zip(&self.prefix)
            .zip(&self.noise)
            .zip(&self.addend)
        {
            let noisy = prefix * noise;
            let x = (noisy + addend) * 1000.0;
            let rounded = x + ROUND;
            let from_half = 0.5 - (x - (rounded - ROUND)).abs();
            let settled = (noisy >= 0.0)
                & (addend >= 0.0)
                & (x < TWO_POW_51)
                & (from_half > SETTLE_MARGIN * x);
            // All ones when unsettled; else the integer's low bits.
            let low = rounded.to_bits() & ((1 << 51) - 1);
            *ms = low | u64::from(!settled).wrapping_neg();
            unsettled += u64::from(!settled);
        }
        self.fallbacks += unsettled;
    }

    /// Slot `i`'s duration: its settled millisecond, or the reference's
    /// arithmetic and rounding from its stored uniforms. Adding a zero
    /// addend is exact, so a cell that did not break gets the reference's
    /// bits.
    fn duration(&self, i: usize, sigma: f64) -> SimDuration {
        if self.ms[i] != UNSETTLED {
            return SimDuration::from_millis(self.ms[i]);
        }
        let noise = CostModel::lognormal_from_uniforms(self.u1[i], self.u2[i], sigma);
        SimDuration::from_secs_f64(self.prefix[i] * noise + self.addend[i])
    }
}

impl World {
    /// Draw every duration of `run`; the team's warm-up advances.
    fn sample(&mut self, run: &Run<'_>, team: &mut [StudentProfile]) {
        let Run {
            prep, config, plan, ..
        } = *run;
        // Ambient faults that shape the run before it starts: the earliest
        // bell wins over any configured deadline, and fumbles pad the
        // hand-off latency of their color. Faults naming colors this run
        // never uses are planned-but-cannot-bite and stay out of the
        // incident log.
        let mut deadline_secs = config.deadline_secs;
        let mut fumble_extra: BTreeMap<Color, f64> = BTreeMap::new();
        for e in &plan.events {
            match e {
                FaultEvent::DeadlineBell { at_secs } => {
                    deadline_secs = Some(deadline_secs.map_or(*at_secs, |d| d.min(*at_secs)));
                }
                FaultEvent::HandoffFumble { color, extra_secs } => {
                    *fumble_extra.entry(*color).or_insert(0.0) += extra_secs;
                }
                _ => {}
            }
        }
        self.deadline = deadline_secs.map(|secs| SimTime::ZERO + SimDuration::from_secs_f64(secs));

        let mut cost = CostModel::with_params(config.seed, config.cost_params.clone());
        let sampler = &mut self.sampler;
        sampler.restart(config.fill.work_factor(), cost.cell_sigma(config.fill));
        // Hand-off latency sampled per marker, before any cell.
        self.handoffs.clear();
        sampler.handoffs(
            &mut cost,
            &prep.needed,
            &prep.implements,
            |c| fumble_extra.get(&c).copied().unwrap_or(0.0),
            &mut self.handoffs,
        );

        // Pre-sample durations student-major (deterministic,
        // interleaving-free). The fill-style factors are constant for the
        // run and the `base × skill` cost prefix is constant per
        // (student, color), so both are resolved outside the per-cell
        // loop; the RNG draw order, and therefore every sampled duration,
        // is unchanged.
        self.items.resize_with(team.len(), Vec::new);
        for ((student, items), (colors, timed)) in team
            .iter_mut()
            .zip(run.assignments)
            .zip(prep.color_index.iter().zip(&mut self.items))
        {
            self.per_color.clear();
            self.per_color.extend(
                prep.implements
                    .iter()
                    .map(|&imp| (imp.effective_base_secs() * student.skill, imp)),
            );
            timed.clear();
            // One allocation at the final size for a fresh world, not a
            // doubling series whose freed steps fragment the heap.
            timed.reserve_exact(items.len());
            sampler.time(&mut cost, student, &self.per_color, items, colors, timed);
        }
    }

    /// Reset `engine` and load this world into it: one resource per
    /// needed color (resource `i` is `prep.needed[i]`'s implement) and one
    /// [`StudentProc`] per student, woken at their arrival. Any load but a
    /// report's (`report == false`) leaves resource labels and process
    /// names blank — they appear only in reports and engine errors — and
    /// never records trace events.
    fn load<Pol: SchedulePolicy>(
        &mut self,
        engine: &mut Engine<StudentProc, Pol>,
        run: &Run<'_>,
        team: &[StudentProfile],
        live: Option<&SharedFaults>,
        report: bool,
    ) {
        let Run {
            prep, config, plan, ..
        } = *run;
        engine.reset();
        engine.set_trace_events(report && config.trace_events);
        for ((&c, &implement), (&count, &handoff)) in prep
            .needed
            .iter()
            .zip(&prep.implements)
            .zip(prep.counts.iter().zip(&self.handoffs))
        {
            let label = if report {
                resource_label(c, implement)
            } else {
                String::new()
            };
            engine.add_resource_pool(label, count, handoff);
        }
        for (idx, (student, items)) in team.iter().zip(&mut self.items).enumerate() {
            let proc = StudentProc {
                idx,
                name: if report {
                    student.name.clone()
                } else {
                    String::new()
                },
                items: std::mem::take(items),
                policy: config.policy,
                pos: 0,
                step: Step::NeedItem,
                held: None,
                pending: None,
                dropped: false,
                live: live.cloned(),
            };
            engine.add_process_at(proc, arrival(plan, idx));
        }
    }

    /// Run the loaded `engine` to the end or the deadline, then take
    /// each process's item buffer back for the next sample.
    fn run<Pol: SchedulePolicy>(
        &mut self,
        engine: &mut Engine<StudentProc, Pol>,
    ) -> Result<SimTime, SimError> {
        let end = engine.run_in_place(self.deadline.unwrap_or(SimTime(u64::MAX)));
        for (items, p) in self.items.iter_mut().zip(engine.processes_mut()) {
            std::mem::swap(items, &mut p.items);
        }
        end
    }
}

/// The label of the resource behind color `c`'s implement, as reports
/// and engine errors name it.
fn resource_label(c: Color, implement: Implement) -> String {
    format!("{c} {}", implement.kind)
}

/// Whether a cell colored `got` is right where the flag wants `want`:
/// a color the config skips may also stay blank.
fn cell_correct(config: &ActivityConfig, want: Color, got: Color) -> bool {
    got == want || (got == Color::Blank && config.skip_colors.contains(&want))
}

/// When student `idx` starts: the latest of their late arrivals, or zero.
fn arrival(plan: &FaultPlan, idx: usize) -> SimTime {
    plan.events.iter().fold(SimTime::ZERO, |start, e| match e {
        FaultEvent::LateArrival { student, at_secs } if *student == idx => {
            start.max(SimTime::ZERO + SimDuration::from_secs_f64(*at_secs))
        }
        _ => start,
    })
}

thread_local! {
    /// This thread's world and engine, reused by every report and stats
    /// finish the thread runs.
    static RIG: RefCell<(World, Engine<StudentProc>)> = RefCell::default();
}

/// `f` on this thread's world and engine.
fn on_rig<T>(f: impl FnOnce(&mut World, &mut Engine<StudentProc>) -> T) -> T {
    RIG.with(|rig| {
        let (world, engine) = &mut *rig.borrow_mut();
        f(world, engine)
    })
}

/// A stopped engine run, as a finish reads it.
struct Ran<'r, Pol> {
    team: &'r [StudentProfile],
    world: &'r World,
    engine: &'r mut Engine<StudentProc, Pol>,
    /// The live fault state, when the run kept one.
    live: Option<SharedFaults>,
    end: SimTime,
}

impl<Pol: SchedulePolicy> Ran<'_, Pol> {
    /// Hand `paint` each cell every student completed, student by
    /// student: the first `completed_work` cells they started (with a
    /// deadline, the cell in flight at the bell is lost) — from the live
    /// started-cell log, or without one from their own cell list, which
    /// they worked through in order.
    fn completed_cells(&self, mut paint: impl FnMut(WorkItem)) {
        let done = self.engine.accounts().map(|a| a.completed_work as usize);
        match &self.live {
            None => {
                for (items, done) in self.world.items.iter().zip(done) {
                    items.iter().take(done).for_each(|item| paint(item.work));
                }
            }
            Some(live) => {
                for (started, done) in live.borrow().started.iter().zip(done) {
                    started.iter().take(done).copied().for_each(&mut paint);
                }
            }
        }
    }
}

impl Run<'_> {
    /// The one loop every finish runs: draw the world — or, given the
    /// cell lists of one drawn before, reload them — arm the live fault
    /// state when something can cut the run short, load, run, count, then
    /// hand the stopped engine to `finish`. A report load names students
    /// and markers, records trace events when the config asks, and needs
    /// the live state's started-cell log under a deadline too.
    fn drive<Pol: SchedulePolicy, T>(
        &self,
        team: &mut [StudentProfile],
        world: &mut World,
        engine: &mut Engine<StudentProc, Pol>,
        replay: Option<&[Vec<TimedItem>]>,
        report: bool,
        finish: impl FnOnce(Ran<'_, Pol>) -> T,
    ) -> Result<T, SimError> {
        let _activity_span = flagsim_telemetry::span("sim", "run.activity")
            .arg("label", self.label)
            .arg("students", team.len());
        match replay {
            None => world.sample(self, team),
            Some(items) => {
                for (to, from) in world.items.iter_mut().zip(items) {
                    to.clone_from(from);
                }
            }
        }
        // Without faults or a deadline every started cell completes, so
        // the world's cell lists are the started-cell log; a finish that
        // reads only completed cells needs no log under a deadline either.
        let live = (!self.plan.is_empty() || (report && world.deadline.is_some()))
            .then(|| LiveFaultState::shared(team.len(), self.plan, &self.prep.needed));
        world.load(engine, self, team, live.as_ref(), report);
        let end = world.run(engine)?;
        flagsim_telemetry::count("run.breakages", world.sampler.breakages);
        flagsim_telemetry::count("run.noise_exact_fallbacks", world.sampler.fallbacks);
        Ok(finish(Ran {
            team,
            world,
            engine,
            live,
            end,
        }))
    }

    /// The report finish: draw the world, run it on `engine`, and
    /// assemble the full [`RunReport`].
    fn report_on<Pol: SchedulePolicy>(
        &self,
        team: &mut [StudentProfile],
        world: &mut World,
        engine: &mut Engine<StudentProc, Pol>,
    ) -> Result<RunReport, SimError> {
        self.drive(team, world, engine, None, true, |ran| assemble(self, ran))
    }

    /// The report finish on this thread's world and engine, with an
    /// engine failure flattened into an error string.
    pub(crate) fn report(&self, team: &mut [StudentProfile]) -> Result<RunReport, String> {
        on_rig(|world, engine| self.report_on(team, world, engine)).map_err(failed)
    }

    /// The report finish on this thread's world and engine, with a stall
    /// kept as a structured outcome.
    pub(crate) fn scheduled(&self, team: &mut [StudentProfile]) -> Result<ActivityOutcome, String> {
        outcome(on_rig(|world, engine| self.report_on(team, world, engine)))
    }

    /// The stats finish on this thread's world and engine: the same run
    /// as the report finish, then only the [`RepSample`], read straight
    /// from the engine's slots. An engine failure comes back as the raw
    /// [`SimError`]; its rendering names students and markers, which this
    /// finish leaves blank, so a caller wanting the report path's error
    /// text replays the run there.
    pub(crate) fn stats(&self, team: &mut [StudentProfile]) -> Result<RepSample, SimError> {
        on_rig(|world, engine| {
            self.drive(team, world, engine, None, false, |ran| RepSample {
                completion_secs: (ran.end - SimTime::ZERO).as_secs_f64(),
                wait_secs: ran.engine.accounts().map(|a| a.waiting.as_secs_f64()).sum(),
            })
        })
    }
}

/// An engine failure as the report finish words it.
fn failed(e: SimError) -> String {
    format!("simulation failed: {e}")
}

/// A report finish's result with a stall kept as a structured outcome.
fn outcome(report: Result<RunReport, SimError>) -> Result<ActivityOutcome, String> {
    match report {
        Ok(report) => Ok(ActivityOutcome::Completed(Box::new(report))),
        Err(SimError::Stalled { waiters }) => Ok(ActivityOutcome::Stalled(waiters)),
        Err(e) => Err(failed(e)),
    }
}

/// One sampled run replayed under many schedules — `flagsim verify`'s
/// per-verdict unit. Building it validates the inputs and draws every
/// duration once (advancing the team's warm-up once). Each run reloads
/// that same world into one reused engine, so a schedule costs the event
/// loop and a finish, not the setup: [`ScheduledRuns::run`] finishes with
/// the full report, [`ScheduledRuns::fingerprint`] with only the outcome
/// fingerprint exploration compares.
/// Built by
/// [`CompiledScenario::scheduled_runs`](crate::scenario::CompiledScenario::scheduled_runs).
pub struct ScheduledRuns<'a, Pol> {
    scenario: &'a CompiledScenario,
    config: &'a ActivityConfig,
    plan: &'a FaultPlan,
    prep: RunPrep,
    team: Vec<StudentProfile>,
    world: World,
    /// The sampled cell lists, which every run copies into `world`.
    items: Vec<Vec<TimedItem>>,
    engine: Engine<StudentProc, Pol>,
    /// Scratch for the fingerprint finish: the grid as colored, by cell.
    cells: Vec<Color>,
}

/// How one schedule of [`ScheduledRuns::fingerprint`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeFingerprint {
    /// The run finished: [`RunReport::fingerprint`] of the report
    /// [`ScheduledRuns::run`] would have given, and its completion time.
    Completed {
        /// The outcome fingerprint.
        fingerprint: u64,
        /// The completion time.
        completion: SimDuration,
    },
    /// The run stalled, with the wait-for graph the report finish gives.
    Stalled(WaitForGraph),
    /// The policy ended the run early ([`SchedulePolicy::ends_run`]): it
    /// reached a state whose outcome the policy's caller already holds.
    Known,
}

impl<'a, Pol: SchedulePolicy> ScheduledRuns<'a, Pol> {
    /// Sample the world of `scenario` on `prep` with `team`, one student
    /// per part.
    pub(crate) fn new(
        scenario: &'a CompiledScenario,
        prep: RunPrep,
        mut team: Vec<StudentProfile>,
        config: &'a ActivityConfig,
        plan: &'a FaultPlan,
        policy: Pol,
    ) -> Self {
        let mut world = World::default();
        world.sample(&scenario.run(&prep, config, plan), &mut team);
        let engine = Engine::with_policy(policy, team.len(), prep.needed.len(), 0);
        ScheduledRuns {
            scenario,
            config,
            plan,
            prep,
            team,
            items: world.items.clone(),
            world,
            engine,
            cells: Vec::new(),
        }
    }

    /// The policy, e.g. to restart a scripted one before the next run.
    pub fn policy_mut(&mut self) -> &mut Pol {
        self.engine.policy_mut()
    }

    /// The team, its warm-up advanced by the one sampling.
    pub(crate) fn team(&self) -> &[StudentProfile] {
        &self.team
    }

    /// Run the sampled world once more under the policy as it stands —
    /// the outcome a fresh run of the same inputs and policy gives. A
    /// policy that ends the run early ([`SchedulePolicy::ends_run`])
    /// leaves the report of the run so far.
    pub fn run(&mut self) -> Result<ActivityOutcome, String> {
        let run = self.scenario.run(&self.prep, self.config, self.plan);
        outcome(run.drive(
            &mut self.team,
            &mut self.world,
            &mut self.engine,
            Some(&self.items),
            true,
            |ran| assemble(&run, ran),
        ))
    }

    /// [`ScheduledRuns::run`] reduced to what exploration compares, with
    /// no report built: the same engine run under the same policy calls,
    /// then [`RunReport::fingerprint`] of the report `run` would give,
    /// folded from the engine's slots, the cell lists and a reused grid
    /// buffer. A steady-state run without faults allocates nothing.
    ///
    /// A run the policy ends early ([`SchedulePolicy::ends_run`]) comes
    /// back as [`OutcomeFingerprint::Known`], with nothing folded.
    ///
    /// A stall comes back as the wait-for graph `run` gives, its process
    /// names and resource labels filled in on that cold path. No activity
    /// reaches it, though: a student holds at most one implement and hands
    /// it back before asking for another, so nobody holds one while
    /// waiting. Any other engine failure comes back as its rendering,
    /// which leaves students and markers unnamed.
    pub fn fingerprint(&mut self) -> Result<OutcomeFingerprint, String> {
        let ScheduledRuns {
            scenario,
            config,
            plan,
            ref prep,
            ref mut team,
            ref mut world,
            ref items,
            ref mut engine,
            ref mut cells,
        } = *self;
        let run = scenario.run(prep, config, plan);
        let flag = run.flag;
        let fingerprinted = run.drive(team, world, engine, Some(items), false, |ran| {
            if ran.engine.policy_mut().ends_run() {
                return OutcomeFingerprint::Known;
            }
            // Paint as the report finish does.
            cells.clear();
            cells.resize(flag.reference.len(), Color::Blank);
            ran.completed_cells(|item| cells[item.cell.index()] = item.color);
            let correct = cells.iter().enumerate().all(|(i, &got)| {
                cell_correct(run.config, flag.reference.get(CellId(i as u32)), got)
            });
            let completion = ran.end - SimTime::ZERO;
            let fingerprint = outcome_fingerprint(
                completion,
                correct,
                ran.world.sampler.breakages,
                cells.iter().copied(),
                ran.team
                    .iter()
                    .zip(ran.engine.accounts())
                    .map(|(s, account)| StudentFigures::new(&s.name, account, ran.end)),
                prep.needed.iter().copied().zip(ran.engine.resource_stats()),
            );
            OutcomeFingerprint::Completed {
                fingerprint,
                completion,
            }
        });
        match fingerprinted {
            Ok(fingerprint) => Ok(fingerprint),
            Err(SimError::Stalled { mut waiters }) => {
                prep.name_waiters(&mut waiters, team);
                Ok(OutcomeFingerprint::Stalled(waiters))
            }
            Err(e) => Err(failed(e)),
        }
    }
}

/// The report finish's sink: paint and verify the grid and assemble the
/// full [`RunReport`]. Everything the report keeps is allocated at its
/// final size.
fn assemble<Pol: SchedulePolicy>(run: &Run<'_>, ran: Ran<'_, Pol>) -> RunReport {
    let Run {
        label,
        flag,
        assignments,
        prep,
        config,
        plan,
    } = *run;

    // Reconstruct the colored grid from the cells each student completed
    // (which, unlike the static assignments, account for adopted orphan
    // work) and verify it.
    let mut grid = Grid::new(flag.width, flag.height);
    ran.completed_cells(|item| {
        grid.paint(item.cell, item.color);
    });
    let correct = grid
        .iter()
        .all(|(id, got)| cell_correct(config, flag.reference.get(id), got));

    let trace = ran.engine.take_trace();
    let mut state = ran.live.map(|live| live.take());
    let cell_log = match &mut state {
        Some(state) => state
            .started
            .drain(..)
            .map(|log| log.into_boxed_slice().into_vec())
            .collect(),
        None => ran
            .world
            .items
            .iter()
            .map(|items| items.iter().map(|item| item.work).collect())
            .collect(),
    };

    let students = trace
        .procs
        .iter()
        .zip(assignments)
        .map(|(p, items)| {
            StudentFigures::new(&p.name, p.account(), trace.end_time).stats(items.len())
        })
        .collect();

    let contention: Vec<ColorContention> = prep
        .needed
        .iter()
        .zip(&trace.resources)
        .map(|(&c, r)| ColorContention {
            color: c,
            stats: r.stats.clone(),
        })
        .collect();

    // Post-run fault accounting: fumbles bite once per observed hand-off,
    // the bell bites only if it actually cut the run short, and adopted
    // orphans become recovery actions. A faulted run always keeps the
    // live state.
    let resilience = match state {
        Some(mut state) if !plan.is_empty() => {
            for e in &plan.events {
                if let FaultEvent::HandoffFumble { color, extra_secs } = e {
                    let handoffs = contention
                        .iter()
                        .find(|c| c.color == *color)
                        .map_or(0, |c| c.stats.handoffs);
                    if handoffs > 0 {
                        state.incidents.push(Incident {
                            at_secs: 0.0,
                            what: format!(
                                "every {color} hand-off fumbled (+{extra_secs:.1}s x {handoffs})"
                            ),
                        });
                        state.time_lost_secs += extra_secs * handoffs as f64;
                    }
                }
            }
            // The bell bit if it set the deadline the engine ran to and the
            // run ended there. Compared as `SimTime`s: the engine runs to
            // whole milliseconds, so a bell at 60.0004 s stops it at 60.000 s.
            let bell = plan.events.iter().any(|e| {
                matches!(e, FaultEvent::DeadlineBell { at_secs }
                if ran.world.deadline.is_some_and(|d| {
                    d == SimTime::ZERO + SimDuration::from_secs_f64(*at_secs)
                        && d == trace.end_time
                }))
            });
            if bell {
                state.incidents.push(Incident {
                    at_secs: trace.end_time.as_secs_f64(),
                    what: "the bell rang with work unfinished".to_owned(),
                });
            }
            for (i, &n) in state.adopted.iter().enumerate() {
                if n > 0 {
                    state.actions.push(RecoveryAction::CellsAdopted {
                        student: i,
                        cells: n,
                    });
                }
            }
            state
                .incidents
                .sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));
            if flagsim_telemetry::enabled() {
                flagsim_telemetry::count("faults.incidents", state.incidents.len() as u64);
                flagsim_telemetry::count("faults.recovery_actions", state.actions.len() as u64);
                flagsim_telemetry::observe("faults.time_lost_secs", state.time_lost_secs);
                if state.aborted.is_some() {
                    flagsim_telemetry::count("faults.aborted_runs", 1);
                }
            }
            Some(ResilienceReport {
                plan_label: plan.label.clone(),
                policy: plan.policy,
                faults_planned: plan.events.len(),
                incidents: state.incidents,
                actions: state.actions,
                time_lost_secs: state.time_lost_secs,
                aborted: state.aborted.is_some(),
            })
        }
        _ => None,
    };

    RunReport {
        label: label.to_owned(),
        flag_name: flag.name.clone(),
        completion: trace.makespan(),
        students,
        contention,
        grid,
        correct,
        breakages: ran.world.sampler.breakages,
        resilience,
        trace,
        cell_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::RecoveryPolicy;
    use crate::partition::{CellOrder, PartitionStrategy};
    use flagsim_agents::{CellKind, Condition, CostParams, Implement, ImplementKind};
    use flagsim_flags::library;
    use flagsim_grid::FillStyle;

    fn team(n: usize) -> Vec<StudentProfile> {
        (1..=n)
            .map(|i| StudentProfile::new(format!("P{i}")).without_warmup())
            .collect()
    }

    fn kit() -> TeamKit {
        TeamKit::uniform(ImplementKind::ThickMarker, &Color::MAURITIUS)
    }

    /// Mauritius, partitioned row-major by `strategy`.
    fn mauritius(strategy: PartitionStrategy) -> (PreparedFlag, Vec<Vec<WorkItem>>) {
        let pf = PreparedFlag::new(&library::mauritius());
        let assignments = strategy.assignments(&pf, CellOrder::RowMajor, &[]);
        (pf, assignments)
    }

    /// `assignments` run by a fresh team of one student per list.
    fn run_with(
        pf: &PreparedFlag,
        assignments: &[Vec<WorkItem>],
        kit: &TeamKit,
        config: &ActivityConfig,
        plan: &FaultPlan,
    ) -> Result<RunReport, String> {
        let mut t = team(assignments.len());
        run_activity_with_faults("test", pf, assignments, &mut t, kit, config, plan)
    }

    /// No activity stalls, so the fingerprint finish's stall naming is
    /// checked on an engine-level deadlock over a real run's markers: a
    /// graph whose names were left blank, named from the team and the
    /// prep, equals the graph the engine gives with every name loaded (and
    /// so has the same graph fingerprint).
    #[test]
    fn stall_naming_matches_the_named_engine() {
        use flagsim_desim::FnProcess;
        let (_, assignments) = mauritius(PartitionStrategy::VerticalSlices(4));
        let prep = RunPrep::new(&assignments, &kit(), &FaultPlan::none()).unwrap();
        let team = team(2);
        let stall = |named: bool| {
            let mut engine: Engine = Engine::new();
            for (&c, &implement) in prep.needed.iter().zip(&prep.implements) {
                let label = if named {
                    resource_label(c, implement)
                } else {
                    String::new()
                };
                engine.add_resource(label, SimDuration::ZERO);
            }
            let second = SimDuration::from_millis(1_000);
            for (student, first, then) in [(0, 0, 1), (1, 1, 0)] {
                let (first, then) = (ResourceId::from_index(first), ResourceId::from_index(then));
                let mut script = VecDeque::from([
                    Action::Acquire(first),
                    Action::Work(second),
                    Action::Acquire(then),
                ]);
                let name = if named {
                    team[student].name.clone()
                } else {
                    String::new()
                };
                engine.add_process(Box::new(FnProcess::new(name, move |_| {
                    script.pop_front().unwrap_or(Action::Done)
                })));
            }
            match engine.try_run() {
                Err(SimError::Stalled { waiters }) => waiters,
                other => panic!("expected a stall, got {other:?}"),
            }
        };
        let named = stall(true);
        assert_eq!(named.len(), 2);
        assert!(named.edges.iter().all(|e| e.resource_label.contains("marker")));
        let mut blank = stall(false);
        assert_ne!(blank, named);
        prep.name_waiters(&mut blank, &team);
        assert_eq!(blank, named);
    }

    fn run_scenario(strategy: PartitionStrategy, n: usize, seed: u64) -> RunReport {
        run_faulted(strategy, n, seed, &FaultPlan::none())
    }

    fn run_faulted(
        strategy: PartitionStrategy,
        n: usize,
        seed: u64,
        plan: &FaultPlan,
    ) -> RunReport {
        let (pf, assignments) = mauritius(strategy);
        assert_eq!(assignments.len(), n);
        let config = ActivityConfig::default().with_seed(seed);
        run_with(&pf, &assignments, &kit(), &config, plan).unwrap()
    }

    #[test]
    fn solo_run_completes_correctly() {
        let r = run_scenario(PartitionStrategy::Solo, 1, 1);
        assert!(r.correct);
        assert!(r.completion.as_secs_f64() > 0.0);
        assert_eq!(r.students.len(), 1);
        assert_eq!(r.students[0].cells, 96);
        // Solo: no contention at all.
        assert_eq!(r.total_wait_secs(), 0.0);
        // No plan, no resilience report.
        assert!(r.resilience.is_none());
    }

    #[test]
    fn more_students_are_faster_without_contention() {
        let s1 = run_scenario(PartitionStrategy::Solo, 1, 1);
        let s2 = run_scenario(PartitionStrategy::HorizontalBands(2), 2, 1);
        let s3 = run_scenario(PartitionStrategy::HorizontalBands(4), 4, 1);
        assert!(s2.completion < s1.completion);
        assert!(s3.completion < s2.completion);
        // Stripe partitions never share a marker.
        assert_eq!(s2.total_wait_secs(), 0.0);
        assert_eq!(s3.total_wait_secs(), 0.0);
    }

    #[test]
    fn vertical_slices_contend() {
        let s3 = run_scenario(PartitionStrategy::HorizontalBands(4), 4, 1);
        let s4 = run_scenario(PartitionStrategy::VerticalSlices(4), 4, 1);
        // Scenario 4 is slower than scenario 3 and shows real waiting.
        assert!(s4.completion > s3.completion);
        assert!(s4.total_wait_secs() > 0.0);
        let red = s4
            .contention
            .iter()
            .find(|c| c.color == Color::Red)
            .unwrap();
        // All four students queue on red at the start: 3 contended grants.
        assert_eq!(red.stats.acquisitions, 4);
        assert_eq!(red.stats.contended_acquisitions, 3);
        assert_eq!(red.stats.max_queue_len, 3);
    }

    #[test]
    fn deterministic_runs() {
        let a = run_scenario(PartitionStrategy::VerticalSlices(4), 4, 42);
        let b = run_scenario(PartitionStrategy::VerticalSlices(4), 4, 42);
        assert_eq!(a.completion, b.completion);
        let c = run_scenario(PartitionStrategy::VerticalSlices(4), 4, 43);
        assert_ne!(a.completion, c.completion);
    }

    #[test]
    fn dead_marker_fails_the_dry_run_check() {
        let (pf, assignments) = mauritius(PartitionStrategy::Solo);
        let bad_kit = kit().with_implement(
            Color::Yellow,
            Implement {
                kind: ImplementKind::ThickMarker,
                condition: Condition::Dead,
            },
        );
        let cfg = ActivityConfig::default();
        let err = run_with(&pf, &assignments, &bad_kit, &cfg, &FaultPlan::none()).unwrap_err();
        assert!(err.contains("dead"));
    }

    #[test]
    fn mismatched_team_size_rejected() {
        let (pf, assignments) = mauritius(PartitionStrategy::HorizontalBands(4));
        let mut t = team(2);
        let cfg = ActivityConfig::default();
        assert!(run_activity("test", &pf, &assignments, &mut t, &kit(), &cfg).is_err());
    }

    #[test]
    fn warmup_advances_across_runs() {
        let (pf, assignments) = mauritius(PartitionStrategy::Solo);
        let mut t = vec![StudentProfile::new("P1")]; // with warm-up
        let cfg = ActivityConfig::default();
        let first = run_activity("run 1", &pf, &assignments, &mut t, &kit(), &cfg).unwrap();
        let second = run_activity("run 2", &pf, &assignments, &mut t, &kit(), &cfg).unwrap();
        assert!(
            second.completion.as_secs_f64() < first.completion.as_secs_f64() * 0.95,
            "second run {} should beat first {}",
            second.completion,
            first.completion
        );
    }

    #[test]
    fn release_each_cell_is_no_faster() {
        let (pf, assignments) = mauritius(PartitionStrategy::VerticalSlices(4));
        let run = |policy| {
            let cfg = ActivityConfig::default().with_policy(policy);
            run_with(&pf, &assignments, &kit(), &cfg, &FaultPlan::none()).unwrap()
        };
        let keep = run(ReleasePolicy::KeepUntilColorChange);
        let each = run(ReleasePolicy::ReleaseEachCell);
        assert!(each.completion >= keep.completion);
    }

    #[test]
    fn extra_markers_dissolve_scenario_4_contention() {
        let (pf, assignments) = mauritius(PartitionStrategy::VerticalSlices(4));
        let cfg = ActivityConfig::default();
        let run = |kit: TeamKit| run_with(&pf, &assignments, &kit, &cfg, &FaultPlan::none()).unwrap();
        let one = run(kit());
        let four = run(kit().with_count_all(4));
        // With a marker of each color per student, nobody ever waits.
        assert_eq!(four.total_wait_secs(), 0.0);
        assert!(one.total_wait_secs() > 0.0);
        assert!(four.completion < one.completion);
        // Intermediate stocking helps monotonically.
        let two = run(kit().with_count_all(2));
        assert!(two.total_wait_secs() < one.total_wait_secs());
        assert!(two.completion <= one.completion);
    }

    #[test]
    fn class_bell_cuts_the_run_short() {
        let (pf, assignments) = mauritius(PartitionStrategy::Solo);
        let run = |deadline_secs| {
            let cfg = ActivityConfig::default().with_deadline_secs(deadline_secs);
            run_with(&pf, &assignments, &kit(), &cfg, &FaultPlan::none()).unwrap()
        };
        // A full solo run takes ~190s without warm-up; ring the bell at 60.
        let cut = run(60.0);
        assert!(!cut.correct, "incomplete flag cannot be correct");
        assert!(cut.grid.blank_cells() > 0);
        let done = cut.students[0].completed;
        assert!(done > 0 && done < 96, "completed {done}");
        assert!((cut.completion_secs() - 60.0).abs() < 1e-9);
        // Painted prefix matches the reference cell-for-cell.
        for item in &assignments[0][..done] {
            assert_eq!(cut.grid.get(item.cell), pf.reference.get(item.cell));
        }
        // A generous deadline changes nothing.
        let full = run(100_000.0);
        assert!(full.correct);
        assert_eq!(full.students[0].completed, 96);
    }

    #[test]
    fn crayons_break_markers_do_not() {
        let pf = PreparedFlag::at_size(&library::mauritius(), 48, 32); // 1536 cells
        let assignments = PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &[]);
        let cfg = ActivityConfig::default().with_seed(5);
        let run = |kind: ImplementKind| {
            let kit = TeamKit::uniform(kind, &Color::MAURITIUS);
            run_with(&pf, &assignments, &kit, &cfg, &FaultPlan::none()).unwrap()
        };
        let crayon = run(ImplementKind::Crayon);
        let marker = run(ImplementKind::ThickMarker);
        assert!(crayon.breakages > 0, "1536 crayon cells should break a few");
        assert_eq!(marker.breakages, 0);
        assert!(crayon.correct && marker.correct);
    }

    #[test]
    fn dropout_rebalanced_run_still_completes() {
        use crate::partition::rebalance_dropout;
        let (pf, a) = mauritius(PartitionStrategy::HorizontalBands(4));
        let rebalanced = rebalance_dropout(&a, 1, 6);
        let cfg = ActivityConfig::default();
        let r = run_with(&pf, &rebalanced, &kit(), &cfg, &FaultPlan::none()).unwrap();
        assert!(r.correct);
        assert_eq!(r.students[1].cells, 6);
    }

    #[test]
    fn skip_colors_verifies_blank_cells() {
        let pf = PreparedFlag::new(&library::jordan());
        let skip = [Color::White];
        let assignments = PartitionStrategy::Solo.assignments(&pf, CellOrder::RowMajor, &skip);
        let jk = TeamKit::uniform(ImplementKind::ThickMarker, &[Color::Black, Color::Green, Color::Red]);
        let cfg = ActivityConfig::default().skipping(&skip);
        let r = run_with(&pf, &assignments, &jk, &cfg, &FaultPlan::none()).unwrap();
        assert!(r.correct);
        assert!(r.grid.blank_cells() > 0);
    }

    // ---- fault injection ----

    #[test]
    fn broken_implement_spare_swap_recovers() {
        let base = run_scenario(PartitionStrategy::Solo, 1, 3);
        let plan = FaultPlan::new("snap").break_implement(Color::Blue, 20.0);
        let r = run_faulted(PartitionStrategy::Solo, 1, 3, &plan);
        assert!(r.correct, "a spare swap should still finish the flag");
        let res = r.resilience.as_ref().unwrap();
        assert_eq!(res.faults_planned, 1);
        assert_eq!(res.incidents.len(), 1, "{res:?}");
        assert!(res.incidents[0].what.contains("blue implement broke"));
        assert!(res
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::SpareSwapped { color: Color::Blue, .. })));
        assert!(res.time_lost_secs > 0.0);
        assert!(!res.aborted);
        assert!(
            r.completion > base.completion,
            "the swap delay must show up in the completion time"
        );
    }

    #[test]
    fn dropout_mid_run_rebalances_to_survivors() {
        let base = run_scenario(PartitionStrategy::HorizontalBands(4), 4, 3);
        let plan = FaultPlan::new("office call").dropout(1, 10.0);
        let r = run_faulted(PartitionStrategy::HorizontalBands(4), 4, 3, &plan);
        assert!(r.correct, "survivors should finish the dropout's stripe");
        let res = r.resilience.as_ref().unwrap();
        assert!(res.incidents.iter().any(|i| i.what.contains("dropped out")));
        assert!(res
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::WorkRebalanced { student: 1, .. })));
        assert!(res
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::CellsAdopted { .. })));
        assert!(r.students[1].completed < r.students[1].cells);
        // Three students doing four students' work is slower.
        assert!(r.completion > base.completion);
    }

    #[test]
    fn abort_policy_stops_the_run_cleanly() {
        let base = run_scenario(PartitionStrategy::Solo, 1, 3);
        let plan = FaultPlan::new("give up")
            .break_implement(Color::Red, 5.0)
            .with_policy(RecoveryPolicy::AbortAndReport);
        let r = run_faulted(PartitionStrategy::Solo, 1, 3, &plan);
        let res = r.resilience.as_ref().unwrap();
        assert!(res.aborted);
        assert!(res
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::Aborted { .. })));
        assert!(!r.correct, "an aborted run leaves the flag unfinished");
        assert!(r.completion < base.completion);
    }

    #[test]
    fn late_arrival_delays_their_part() {
        let base = run_scenario(PartitionStrategy::HorizontalBands(2), 2, 3);
        let plan = FaultPlan::new("overslept").late_arrival(1, 40.0);
        let r = run_faulted(PartitionStrategy::HorizontalBands(2), 2, 3, &plan);
        assert!(r.correct);
        assert!(r.completion > base.completion);
        assert!(r.students[1].finished_at.as_secs_f64() > 40.0);
        let res = r.resilience.as_ref().unwrap();
        assert!(res.incidents.iter().any(|i| i.what.contains("late")));
    }

    #[test]
    fn bell_fault_matches_configured_deadline() {
        let (pf, assignments) = mauritius(PartitionStrategy::Solo);
        let bell = ActivityConfig::default().with_deadline_secs(60.0);
        let via_config = run_with(&pf, &assignments, &kit(), &bell, &FaultPlan::none()).unwrap();
        let plan = FaultPlan::new("bell").bell(60.0);
        let via_fault = run_with(&pf, &assignments, &kit(), &ActivityConfig::default(), &plan).unwrap();
        assert_eq!(via_config.completion, via_fault.completion);
        assert_eq!(via_config.students[0].completed, via_fault.students[0].completed);
        let res = via_fault.resilience.as_ref().unwrap();
        assert!(res.incidents.iter().any(|i| i.what.contains("bell")));
    }

    #[test]
    fn bell_between_milliseconds_still_logs_its_incident() {
        // Regression: the engine runs to whole milliseconds, so a bell at
        // 60.0004 s stops the run at 60.000 s. Comparing that end time
        // with the raw bell time lost the incident.
        for at in [60.0, 60.0004, 59.9996] {
            let r = run_faulted(
                PartitionStrategy::Solo,
                1,
                3,
                &FaultPlan::new("bell").bell(at),
            );
            assert_eq!(r.completion, SimDuration::from_millis(60_000), "bell@{at}");
            let res = r.resilience.as_ref().unwrap();
            assert!(
                res.incidents
                    .iter()
                    .any(|i| i.what == "the bell rang with work unfinished" && i.at_secs == 60.0),
                "bell@{at}: {:?}",
                res.incidents
            );
        }
        // A bell after the flag is done never rings.
        let late = run_faulted(
            PartitionStrategy::Solo,
            1,
            3,
            &FaultPlan::new("bell").bell(1e5),
        );
        assert!(late.resilience.as_ref().unwrap().incidents.is_empty());
    }

    #[test]
    fn fumbles_charge_every_handoff() {
        let base = run_scenario(PartitionStrategy::VerticalSlices(4), 4, 3);
        let plan = FaultPlan::new("butterfingers").fumble(Color::Red, 3.0);
        let r = run_faulted(PartitionStrategy::VerticalSlices(4), 4, 3, &plan);
        assert!(r.correct);
        // Slower hand-offs reshuffle downstream queue arrivals, so the
        // makespan may move either way (a Graham-style anomaly) — but it
        // must move, and the bill must match the observed hand-offs.
        assert_ne!(r.completion, base.completion);
        let res = r.resilience.as_ref().unwrap();
        assert!(res.incidents.iter().any(|i| i.what.contains("fumbled")));
        let red_handoffs = r
            .contention
            .iter()
            .find(|c| c.color == Color::Red)
            .unwrap()
            .stats
            .handoffs;
        assert!(red_handoffs > 0);
        assert!((res.time_lost_secs - 3.0 * red_handoffs as f64).abs() < 1e-9);
        // Every red wait got 3s longer than the fault-free run's.
        let base_red_wait = base
            .contention
            .iter()
            .find(|c| c.color == Color::Red)
            .unwrap()
            .stats
            .total_wait;
        let red_wait = r
            .contention
            .iter()
            .find(|c| c.color == Color::Red)
            .unwrap()
            .stats
            .total_wait;
        assert!(red_wait > base_red_wait);
    }

    #[test]
    fn fault_that_cannot_bite_leaves_an_empty_incident_log() {
        // Breaking a color long after the run ends: planned, never bites.
        let plan = FaultPlan::new("too late").break_implement(Color::Red, 1e6);
        let r = run_faulted(PartitionStrategy::Solo, 1, 3, &plan);
        assert!(r.correct);
        let res = r.resilience.as_ref().unwrap();
        assert_eq!(res.faults_planned, 1);
        assert!(res.incidents.is_empty());
        assert_eq!(res.time_lost_secs, 0.0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let plan = FaultPlan::new("drill")
            .break_implement(Color::Yellow, 15.0)
            .dropout(2, 25.0)
            .fumble(Color::Red, 2.0);
        let a = run_faulted(PartitionStrategy::VerticalSlices(4), 4, 9, &plan);
        let b = run_faulted(PartitionStrategy::VerticalSlices(4), 4, 9, &plan);
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.grid, b.grid);
    }

    #[test]
    fn plan_validation_is_enforced() {
        let (pf, assignments) = mauritius(PartitionStrategy::Solo);
        let plan = FaultPlan::new("bad").dropout(3, 10.0);
        let err = run_with(&pf, &assignments, &kit(), &ActivityConfig::default(), &plan).unwrap_err();
        assert!(err.contains("student #4"), "{err}");
    }

    /// One implement of every kind, indexed by color: crayons interleave
    /// breakage draws with the noise draws, markers never break.
    fn every_kind(skill: f64) -> Vec<(f64, Implement)> {
        [
            ImplementKind::BingoDauber,
            ImplementKind::ThickMarker,
            ImplementKind::ThinMarker,
            ImplementKind::Crayon,
        ]
        .into_iter()
        .map(|kind| {
            let imp = Implement::good(kind);
            (imp.effective_base_secs() * skill, imp)
        })
        .collect()
    }

    /// `n` cells cycling through the colors `per_color` indexes, boundary
    /// where `boundary(i)`.
    fn cells(
        n: usize,
        colors: usize,
        boundary: impl Fn(usize) -> bool,
    ) -> (Vec<WorkItem>, Vec<usize>) {
        let items = (0..n)
            .map(|i| WorkItem {
                cell: flagsim_grid::CellId(i as u32),
                color: Color::Red,
                kind: if boundary(i) {
                    CellKind::Boundary
                } else {
                    CellKind::Interior
                },
            })
            .collect();
        (items, (0..n).map(|i| (i * 7 + i / 3) % colors).collect())
    }

    /// Time `items` with [`CellSampler`] and with the scalar reference
    /// loop it replaced, from clones of `cost` and `student`, and check
    /// that every duration, the student's warm-up and the next RNG draw
    /// agree. Returns the sampler's (breakages, fallbacks).
    fn batched_matches_reference(
        cost: &CostModel,
        student: &StudentProfile,
        fill: FillStyle,
        per_color: &[(f64, Implement)],
        items: &[WorkItem],
        colors: &[usize],
    ) -> (u64, u64) {
        let sigma = cost.cell_sigma(fill);
        let (mut cost_ref, mut student_ref) = (cost.clone(), student.clone());
        let (mut reference, mut noisy) = (Vec::new(), Vec::new());
        let mut breakages = 0;
        for (item, &ci) in items.iter().zip(colors) {
            let (base_skill, implement) = per_color[ci];
            let mut secs = cost_ref.sample_cell_secs_resolved(
                &mut student_ref,
                base_skill,
                fill.work_factor(),
                sigma,
                item.kind,
            );
            noisy.push(secs);
            if cost_ref.sample_breakage(implement) {
                breakages += 1;
                secs += REPLACEMENT_DELAY_SECS;
            }
            reference.push(SimDuration::from_secs_f64(secs));
        }
        let (mut cost_new, mut student_new) = (cost.clone(), student.clone());
        let mut sampler = CellSampler::new(fill.work_factor(), sigma);
        let mut timed = Vec::new();
        sampler.time(
            &mut cost_new,
            &mut student_new,
            per_color,
            items,
            colors,
            &mut timed,
        );
        for (i, (t, want)) in timed.iter().zip(&reference).enumerate() {
            assert_eq!(t.dur, *want, "cell {i}");
            assert_eq!(t.resource, ResourceId::from_index(colors[i]), "cell {i}");
            assert_eq!(t.work, items[i], "cell {i}");
        }
        assert_eq!(timed.len(), reference.len());
        // At σ = 0 the reference's noise is exactly 1, so its seconds are
        // its cost prefix: the last chunk's prefixes must match bitwise.
        if sigma == 0.0 {
            let last = (items.len() - 1) / CHUNK * CHUNK;
            for (i, want) in noisy[last..].iter().enumerate() {
                assert_eq!(
                    sampler.prefix[i].to_bits(),
                    want.to_bits(),
                    "cell {}",
                    last + i
                );
            }
        }
        assert_eq!(student_new.cells_colored, student_ref.cells_colored);
        assert_eq!(sampler.breakages, breakages);
        assert_eq!(
            cost_new.draw_uniforms(),
            cost_ref.draw_uniforms(),
            "next draw"
        );
        (sampler.breakages, sampler.fallbacks)
    }

    /// A one-color setup whose cost prefix is `base_skill` itself: no
    /// warm-up or fatigue, the scribble's unit fill factor, interior cells.
    fn bare(base_skill: f64) -> (StudentProfile, [(f64, Implement); 1]) {
        (
            StudentProfile::new("s").without_warmup(),
            [(base_skill, Implement::good(ImplementKind::Crayon))],
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Random seeds over every implement kind, both fill sigmas (or
        /// none, which exposes the cost prefixes), warm-up on and off,
        /// fatigue past its onset, boundary and interior cells, and cell
        /// counts across chunk boundaries.
        #[test]
        fn batched_cells_match_the_scalar_reference(
            seed in proptest::prelude::any::<u64>(),
            flat in proptest::prelude::any::<bool>(),
            minimal in proptest::prelude::any::<bool>(),
            warmup in proptest::prelude::any::<bool>(),
            fatigue in proptest::prelude::any::<bool>(),
            skill in 0.5f64..2.0,
            n in 1usize..300,
            boundary_every in 1usize..6,
        ) {
            let fill = if minimal { FillStyle::Minimal } else { FillStyle::Scribble };
            let mut student = StudentProfile::new("s");
            student.skill = skill;
            if !warmup {
                student = student.without_warmup();
            }
            if fatigue {
                student = student.with_fatigue(0.004, 40);
            }
            let (items, colors) = cells(n, 4, |i| i % boundary_every == 0);
            let per_color = every_kind(skill);
            let cost = if flat {
                CostModel::with_params(seed, CostParams {
                    noise_sigma: 0.0,
                    minimal_extra_sigma: 0.0,
                    ..CostParams::default()
                })
            } else {
                CostModel::new(seed)
            };
            batched_matches_reference(&cost, &student, fill, &per_color, &items, &colors);
        }
    }

    #[test]
    fn batched_cells_cover_breakage_and_fatigue() {
        // A long crayon-heavy run: breakages happen, fatigue bites.
        let (items, colors) = cells(2000, 4, |i| i % 3 == 0);
        let student = StudentProfile::new("s").with_fatigue(0.004, 40);
        let (breakages, _) = batched_matches_reference(
            &CostModel::new(7),
            &student,
            FillStyle::Minimal,
            &every_kind(1.0),
            &items,
            &colors,
        );
        assert!(breakages > 0);
    }

    #[test]
    fn batched_cells_near_a_half_millisecond_fall_back() {
        // Each cell's prefix puts its exact `x` within rounding of
        // 2.5 ms, inside the margin: only the exact chain can round it.
        let mut cost = CostModel::new(3);
        let fill = FillStyle::Scribble;
        let (items, colors) = cells(1, 1, |_| false);
        let mut fallbacks = 0;
        for _ in 0..50 {
            let (u1, u2) = cost.clone().draw_uniforms();
            let noise = CostModel::lognormal_from_uniforms(u1, u2, cost.cell_sigma(fill));
            let (student, per_color) = bare(0.0025 / noise);
            fallbacks +=
                batched_matches_reference(&cost, &student, fill, &per_color, &items, &colors).1;
            cost.draw_uniforms();
            cost.sample_breakage(per_color[0].1);
        }
        assert_eq!(fallbacks, 50);
    }

    #[test]
    fn batched_cells_at_zero_sigma_fall_back_only_on_ties() {
        // σ = 0: the noise is exactly 1 on both paths. A 2.5 ms cell is
        // an exact tie; a 2 s cell settles.
        let zero = CostParams {
            noise_sigma: 0.0,
            minimal_extra_sigma: 0.0,
            handoff_sigma: 0.0,
        };
        let cost = CostModel::with_params(11, zero);
        for (base, want) in [(0.0025, 1), (2.0, 0)] {
            let (student, per_color) = bare(base);
            let (items, colors) = cells(100, 1, |_| false);
            let (_, fallbacks) = batched_matches_reference(
                &cost,
                &student,
                FillStyle::Scribble,
                &per_color,
                &items,
                &colors,
            );
            assert_eq!(fallbacks, want * 100, "base {base}");
        }
    }

    #[test]
    fn batched_cells_outside_the_kernel_domain_fall_back() {
        // At σ = 100 every cell with √(−2 ln u1) > 0.64 leaves the
        // kernel's domain. Prefixes chosen from the exact noise keep each
        // cell near 2 s, so only the domain can send it to the exact
        // chain.
        let sigma = 100.0;
        let params = CostParams {
            noise_sigma: sigma,
            minimal_extra_sigma: 0.0,
            handoff_sigma: 0.0,
        };
        let mut cost = CostModel::with_params(5, params);
        let (items, colors) = cells(1, 1, |_| false);
        let (mut outside, mut fallbacks) = (0, 0);
        for _ in 0..200 {
            let (u1, u2) = cost.clone().draw_uniforms();
            let noise = CostModel::lognormal_from_uniforms(u1, u2, sigma);
            outside += u64::from(sigma * (-2.0 * u1.ln()).sqrt() > noise::DOMAIN);
            let (student, per_color) = bare(2.0 / noise);
            fallbacks += batched_matches_reference(
                &cost,
                &student,
                FillStyle::Scribble,
                &per_color,
                &items,
                &colors,
            )
            .1;
            cost.draw_uniforms();
            cost.sample_breakage(per_color[0].1);
        }
        assert!(outside > 100, "{outside} of 200 outside the domain");
        assert_eq!(fallbacks, outside);
    }

    /// Time one hand-off per implement with [`CellSampler::handoffs`] and
    /// with the scalar reference (`sample_handoff_secs`, plus the color's
    /// fumbles), from clones of `cost`, and check that every latency and
    /// the next RNG draw agree. Slot `i` is color `Rgb(i, 0, 0)` with
    /// fumbles `extras[i]`. Returns the sampler's fallbacks.
    fn handoffs_match_reference(cost: &CostModel, implements: &[Implement], extras: &[f64]) -> u64 {
        let needed: Vec<Color> = (0..implements.len())
            .map(|i| Color::Rgb(i as u8, 0, 0))
            .collect();
        let extra = |c: Color| match c {
            Color::Rgb(i, _, _) => extras[usize::from(i)],
            _ => unreachable!(),
        };
        let mut cost_ref = cost.clone();
        let reference: Vec<SimDuration> = implements
            .iter()
            .zip(extras)
            .map(|(&implement, &x)| {
                let mut secs = cost_ref.sample_handoff_secs(implement);
                secs += x;
                SimDuration::from_secs_f64(secs)
            })
            .collect();
        let mut cost_new = cost.clone();
        let mut sampler = CellSampler::default();
        let mut got = Vec::new();
        sampler.handoffs(&mut cost_new, &needed, implements, extra, &mut got);
        assert_eq!(got, reference);
        assert_eq!(
            cost_new.draw_uniforms(),
            cost_ref.draw_uniforms(),
            "next draw"
        );
        sampler.fallbacks
    }

    #[test]
    fn batched_handoffs_match_the_scalar_reference_with_fumbles() {
        let kinds = [
            ImplementKind::BingoDauber,
            ImplementKind::ThickMarker,
            ImplementKind::ThinMarker,
            ImplementKind::Crayon,
        ];
        // Random seeds; colors without fumbles, with fumbles, and one
        // more than a chunk of them.
        for seed in 0..200 {
            let n = [1, 4, 7, CHUNK + 3][seed as usize % 4];
            let implements: Vec<Implement> = (0..n)
                .map(|i| Implement::good(kinds[(i + seed as usize) % 4]))
                .collect();
            let extras: Vec<f64> = (0..n)
                .map(|i| [0.0, 2.0, 0.35, 0.0][(i * 3 + seed as usize) % 4])
                .collect();
            handoffs_match_reference(&CostModel::new(seed), &implements, &extras);
        }
        // Fumbles chosen from the exact latency that put each sum within
        // rounding of `k + ½` ms, and a negative fumble: only the exact
        // chain may time them.
        let implements = [Implement::good(ImplementKind::ThickMarker); 3];
        let mut cost = CostModel::new(9);
        for _ in 0..50 {
            let mut probe = cost.clone();
            let exact = probe.sample_handoff_secs(implements[0]);
            let near_half = ((exact * 1000.0).round() + 20.5) / 1000.0 - exact;
            let extras = [near_half, -0.1, 1.5];
            let fallbacks = handoffs_match_reference(&cost, &implements, &extras);
            assert!(fallbacks >= 2, "{fallbacks} fallbacks");
            cost = probe;
            cost.draw_uniforms();
            cost.draw_uniforms();
        }
    }
}

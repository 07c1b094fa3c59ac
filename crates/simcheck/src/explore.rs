//! Bounded schedule-space exploration — `flagsim verify`'s model checker.
//!
//! A single simulation run shows one resolution of every scheduler tie;
//! [`crate::hb`] flags those ties (SC302) but cannot say whether they
//! *matter*. This module answers that question by enumeration: run the
//! scenario under a [`ForcedSchedule`], read back the decision vector the
//! run actually hit, and branch on every unexplored alternative until the
//! bounded schedule space is covered. The result is either a proof of
//! **outcome invariance** (every tie resolution converges to the same
//! makespan, grid, and per-process accounting — SC412) or a **minimal
//! divergent witness pair**: two schedules differing in exactly one
//! decision with different outcomes (SC410), or a concrete schedule that
//! reaches a deadlock (SC411, cross-checked against the static SC204
//! lock-order cycle).
//!
//! Two prunings keep enumeration tractable without losing outcomes:
//!
//! * **State-hash cutting.** Every choice point past a run's forced
//!   prefix carries the engine's canonical state hash; once one run has
//!   branched from a state, later runs reaching the same hash skip
//!   alternative generation — the subtree is already covered. In
//!   [`explore_activity`] such a run also stops there (a *known-state
//!   cut*): it ends when that simulated instant closes and takes the
//!   state's outcome class and its count of state-hash-pruned ties after
//!   it from the visited map ([`KnownStates`]), so the [`Exploration`] is
//!   the one full runs give. [`explore`] runs every schedule in full.
//! * **Sleep-set (commutativity) pruning.** For a wake-up tie, running
//!   candidate `c` *later* instead of first is observationally identical
//!   when `c`'s poll cascade touches no resource that any earlier
//!   same-instant cascade touches and spawns no same-instant event — the
//!   cascades commute, so the alternative is skipped. This is the
//!   partial-order reduction that collapses `N!` orderings of independent
//!   students to one schedule.
//!
//! Naive mode ([`ExploreConfig::naive`]) disables both prunings; the
//! property tests pin that naive and pruned exploration discover the same
//! outcome set, which is the soundness check for the reduction.

use crate::diag::{Diag, Severity};
use crate::hb::AcquireTie;
use flagsim_agents::StudentProfile;
use flagsim_core::scenario::CompiledScenario;
use flagsim_core::{
    ActivityConfig, ActivityOutcome, FaultPlan, OutcomeFingerprint, RunReport, TeamKit,
};
use flagsim_desim::schedule::{fnv_mix, fnv_mix_str, FNV_OFFSET};
use flagsim_desim::{
    Action, ChoiceKind, Decision, Engine, FnProcess, ForcedSchedule, KnownState, KnownStates,
    ScheduleLog, SimDuration, SimError, Trace, WaitForGraph,
};
use std::collections::btree_map::Entry;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Bounds and switches for one exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Hard cap on schedules run; hitting it sets
    /// [`Exploration::truncated`] (surfaced as SC413).
    pub max_schedules: usize,
    /// `true` disables both prunings — full enumeration, for
    /// cross-validating the reduction.
    pub naive: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 4096,
            naive: false,
        }
    }
}

/// What one schedule produced, reduced to a comparable fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The run finished; equal fingerprints mean identical makespan,
    /// grid, and per-process/per-resource accounting.
    Completed {
        /// Canonical FNV-1a hash of everything the run produced.
        fingerprint: u64,
        /// The completion time in milliseconds (for human output).
        makespan_ms: u64,
    },
    /// The run stalled — a deadlock or starvation this schedule reaches.
    Stalled {
        /// Canonical hash of the wait-for graph.
        fingerprint: u64,
        /// The full wait-for graph at the stall.
        graph: WaitForGraph,
    },
}

impl Outcome {
    /// Equality key: two outcomes with the same key are the same class.
    pub fn key(&self) -> (u8, u64) {
        match self {
            Outcome::Completed { fingerprint, .. } => (0, *fingerprint),
            Outcome::Stalled { fingerprint, .. } => (1, *fingerprint),
        }
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        match self {
            Outcome::Completed {
                fingerprint,
                makespan_ms,
            } => format!("completes at {makespan_ms}ms (outcome {fingerprint:016x})"),
            Outcome::Stalled { graph, .. } => format!(
                "stalls at t={}ms with {} blocked process(es)",
                graph.at.millis(),
                graph.len()
            ),
        }
    }
}

/// One distinct outcome, with the first schedule that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeClass {
    /// The outcome.
    pub outcome: Outcome,
    /// The decision script of the first schedule that reached it.
    pub schedule: Vec<usize>,
    /// How many explored schedules landed in this class.
    pub runs: usize,
}

/// Two schedules differing in exactly one decision, with different
/// outcomes — the minimal certificate that a tie resolution matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessPair {
    /// The converging side: the divergent script minus its last decision
    /// (everything past the script's end takes the canonical default).
    pub baseline: Vec<usize>,
    /// The diverging script.
    pub divergent: Vec<usize>,
    /// What the baseline schedule produced.
    pub baseline_outcome: Outcome,
    /// What the divergent schedule produced.
    pub divergent_outcome: Outcome,
}

/// Everything a bounded exploration learned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exploration {
    /// Schedules actually simulated.
    pub schedules_run: usize,
    /// Distinct outcome classes, in discovery order.
    pub outcomes: Vec<OutcomeClass>,
    /// `true` when [`ExploreConfig::max_schedules`] cut exploration short.
    pub truncated: bool,
    /// Alternatives skipped by the sleep-set (commutativity) pruning.
    pub pruned_sleep: usize,
    /// Alternatives skipped because their choice-point state was visited.
    pub pruned_visited: usize,
    /// Distinct choice-point state hashes seen.
    pub visited_states: usize,
    /// The first minimal divergent pair found, if outcomes ever split.
    pub witness: Option<WitnessPair>,
}

impl Exploration {
    /// `true` when the whole bounded space was covered and every schedule
    /// converged to one completed outcome.
    pub fn invariant(&self) -> bool {
        !self.truncated
            && self.outcomes.len() == 1
            && matches!(self.outcomes[0].outcome, Outcome::Completed { .. })
    }

    /// The first outcome class that stalls, if any schedule deadlocks.
    pub fn deadlock(&self) -> Option<&OutcomeClass> {
        self.outcomes
            .iter()
            .find(|c| matches!(c.outcome, Outcome::Stalled { .. }))
    }
}

/// Render a decision script the way diagnostics and the CLI print it.
pub fn format_script(script: &[usize]) -> String {
    format!("{script:?}")
}

fn footprints_disjoint(a: &[flagsim_desim::ResourceId], b: &[flagsim_desim::ResourceId]) -> bool {
    !a.iter().any(|r| b.contains(r))
}

/// Would flipping decision `d` to its candidate `alt` commute with the
/// run as observed? See the module docs for the rule.
fn sleep_prunable(d: &Decision, alt: usize, log: &ScheduleLog) -> bool {
    if d.kind != ChoiceKind::Wakeup {
        return false;
    }
    let Some(&alt_pid) = log.candidates_of(d).get(alt) else {
        return false;
    };
    // Cascades are logged in time order: the same-instant ones are the
    // slice starting at the first cascade not before `d`.
    let same_instant = &log.cascades[log.cascades.partition_point(|c| c.at < d.at)..];
    let Some(pos) = same_instant
        .iter()
        .take_while(|c| c.at == d.at)
        .position(|c| c.pid == alt_pid)
    else {
        return false;
    };
    let target = &same_instant[pos];
    if target.spawned_same_time {
        return false;
    }
    let target_footprint = log.footprint(target);
    same_instant[..pos]
        .iter()
        .all(|c| !c.spawned_same_time && footprints_disjoint(log.footprint(c), target_footprint))
}

/// Depth-first exploration of the schedule space behind `run`.
///
/// `run` must execute one simulation under the given decision script
/// (decisions past the script's end take the canonical default 0) and
/// return the outcome together with the [`ScheduleLog`] the run recorded.
/// It is called once per explored schedule, and each call must run the
/// same world from its start: a fresh build, or a reused one reset in
/// between. Any genuine simulation error aborts the whole exploration.
/// Every schedule runs in full.
pub fn explore<F>(mut run: F, cfg: &ExploreConfig) -> Result<Exploration, String>
where
    F: FnMut(&[usize]) -> Result<(Outcome, ScheduleLog), String>,
{
    explore_in_place(
        |script, log, _known| {
            let (outcome, recorded) = run(script)?;
            *log = recorded;
            Ok(Some(outcome))
        },
        cfg,
    )
}

/// [`explore`] over one recycled [`ScheduleLog`]: `run` records each
/// schedule into the log it is handed, which the loop clears before every
/// schedule, so the log's buffers serve the whole exploration.
///
/// `run` is also handed the explored states, and may end a schedule early
/// at the first decision past its script whose state is among them,
/// returning `None` (a known-state cut). It must then still have run and
/// logged the rest of that decision's instant, whose cascades the
/// sleep-set check of an earlier decision at the same instant reads. The
/// cut schedule lands in the known state's outcome class, and every
/// decision from the known one on counts as state-hash-pruned, as it
/// would in the full run: the state hash covers everything the rest of
/// the run reads, and past the script every decision takes the default,
/// so the full run would replay the known state's first run from there.
fn explore_in_place<F>(mut run: F, cfg: &ExploreConfig) -> Result<Exploration, String>
where
    F: FnMut(&[usize], &mut ScheduleLog, &mut KnownStates) -> Result<Option<Outcome>, String>,
{
    // The script to run next, plus the outcome class of the run that
    // generated it (`None` only for the root).
    struct Pending {
        script: Vec<usize>,
        parent: Option<usize>,
    }
    let skipped = |d: &Decision| d.candidates.len().saturating_sub(1);
    let mut ex = Exploration::default();
    let mut visited = KnownStates::new();
    let mut log = ScheduleLog::default();
    let mut stack = vec![Pending {
        script: Vec::new(),
        parent: None,
    }];

    while let Some(Pending { script, parent }) = stack.pop() {
        if ex.schedules_run >= cfg.max_schedules {
            ex.truncated = true;
            break;
        }
        log.clear();
        let outcome = run(&script, &mut log, &mut visited)?;
        ex.schedules_run += 1;

        // The decisions this run took beyond its forced prefix (those all
        // chose the canonical default 0), up to a known state if it was
        // cut there, and the pruned alternatives from that state on.
        let past_prefix = log.decisions.get(script.len()..).unwrap_or_default();
        let (class, fresh, pruned_tail) = match outcome {
            Some(outcome) => (classify(&mut ex, outcome, &script, parent), past_prefix, 0),
            None => {
                let (at, known) = past_prefix
                    .iter()
                    .enumerate()
                    .find_map(|(i, d)| visited.get(&d.state_hash).map(|k| (i, *k)))
                    .ok_or("a schedule ended early without reaching an explored state")?;
                ex.outcomes[known.class].runs += 1;
                let tail = skipped(&past_prefix[at]) + known.pruned_after;
                (known.class, &past_prefix[..at], tail)
            }
        };
        ex.pruned_visited += pruned_tail;

        // Branch on every fresh decision at an unexplored state.
        let mut pruned_after = pruned_tail + fresh.iter().map(skipped).sum::<usize>();
        for (i, d) in fresh.iter().enumerate() {
            pruned_after -= skipped(d);
            if !cfg.naive {
                match visited.entry(d.state_hash) {
                    Entry::Occupied(_) => {
                        ex.pruned_visited += skipped(d);
                        continue;
                    }
                    Entry::Vacant(entry) => {
                        entry.insert(KnownState {
                            class,
                            pruned_after,
                        });
                    }
                }
            }
            for alt in 0..d.candidates.len() {
                if alt == d.chosen {
                    continue;
                }
                if !cfg.naive && sleep_prunable(d, alt, &log) {
                    ex.pruned_sleep += 1;
                    continue;
                }
                let mut next = log.script_prefix(script.len() + i);
                next.push(alt);
                stack.push(Pending {
                    script: next,
                    parent: Some(class),
                });
            }
        }
    }
    if !stack.is_empty() {
        ex.truncated = true;
    }
    ex.visited_states = visited.len();
    Ok(ex)
}

/// The index of `outcome`'s class, counting one more run in it, or of a
/// new class that `script` discovered. A non-root script that discovers a
/// new class is a minimal witness: its parent ran the same prefix with
/// only the last decision at the default, and landed in an older class.
fn classify(
    ex: &mut Exploration,
    outcome: Outcome,
    script: &[usize],
    parent: Option<usize>,
) -> usize {
    let key = outcome.key();
    if let Some(at) = ex.outcomes.iter().position(|c| c.outcome.key() == key) {
        ex.outcomes[at].runs += 1;
        return at;
    }
    if let (None, Some(parent)) = (&ex.witness, parent) {
        ex.witness = Some(WitnessPair {
            baseline: script[..script.len() - 1].to_vec(),
            divergent: script.to_vec(),
            baseline_outcome: ex.outcomes[parent].outcome.clone(),
            divergent_outcome: outcome.clone(),
        });
    }
    ex.outcomes.push(OutcomeClass {
        outcome,
        schedule: script.to_vec(),
        runs: 1,
    });
    ex.outcomes.len() - 1
}

/// Canonical fingerprint of a completed engine run: end time plus every
/// per-process and per-resource figure the trace reports.
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_mix(h, trace.end_time.millis());
    for p in &trace.procs {
        h = fnv_mix_str(h, &p.name);
        h = fnv_mix(h, p.busy.millis());
        h = fnv_mix(h, p.waiting.millis());
        h = fnv_mix(h, p.completed_work);
        h = fnv_mix(h, p.finished_at.map_or(u64::MAX, |t| t.millis()));
    }
    for r in &trace.resources {
        h = fnv_mix_str(h, &r.label);
        h = fnv_mix(h, r.stats.acquisitions);
        h = fnv_mix(h, r.stats.contended_acquisitions);
        h = fnv_mix(h, r.stats.handoffs);
        h = fnv_mix(h, r.stats.total_wait.millis());
        h = fnv_mix(h, r.stats.handoff_time.millis());
        h = fnv_mix(h, r.stats.max_queue_len as u64);
    }
    h
}

/// Canonical fingerprint of a stall: when it happened and the full shape
/// of the wait-for graph.
pub fn graph_fingerprint(graph: &WaitForGraph) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_mix(h, graph.at.millis());
    for e in &graph.edges {
        h = fnv_mix(h, e.proc.index() as u64);
        h = fnv_mix_str(h, &e.resource_label);
        h = fnv_mix(h, e.queue_position as u64);
        for holder in &e.holders {
            h = fnv_mix(h, holder.index() as u64);
        }
    }
    h
}

/// Canonical fingerprint of a finished activity run: the number on the
/// board, the grid as colored, correctness, and every per-student and
/// per-marker figure the discussion digs into ([`RunReport::fingerprint`]).
pub fn report_fingerprint(report: &RunReport) -> u64 {
    report.fingerprint()
}

/// Run one engine build under `script` and reduce it to an [`Outcome`].
fn run_engine_scripted(engine: Engine, script: &[usize]) -> Result<(Outcome, ScheduleLog), String> {
    let (policy, log) = ForcedSchedule::new(script.to_vec());
    let result = engine.with_schedule_policy(policy).try_run();
    let outcome = match result {
        Ok(trace) => Outcome::Completed {
            fingerprint: trace_fingerprint(&trace),
            makespan_ms: trace.end_time.millis(),
        },
        Err(SimError::Stalled { waiters }) => Outcome::Stalled {
            fingerprint: graph_fingerprint(&waiters),
            graph: waiters,
        },
        Err(e) => return Err(format!("exploration run failed: {e}")),
    };
    let log = Rc::try_unwrap(log)
        .map(std::cell::RefCell::into_inner)
        .map_err(|_| "schedule log still shared after the run".to_owned())?;
    Ok((outcome, log))
}

/// Explore every schedule of a raw engine workload. `build` must produce
/// a fresh, identical engine on every call (exploration re-runs the world
/// once per schedule).
pub fn explore_engine<B>(mut build: B, cfg: &ExploreConfig) -> Result<Exploration, String>
where
    B: FnMut() -> Engine,
{
    explore(|script| run_engine_scripted(build(), script), cfg)
}

/// An activity-level exploration: the schedule-space verdict plus the
/// observed-run context the diagnostics cross-link against.
#[derive(Debug)]
pub struct ActivityExploration {
    /// The schedule-space exploration result.
    pub exploration: Exploration,
    /// The root schedule's run (every tie at its default) with full
    /// tracing — `None` when it stalls.
    pub baseline: Option<Box<RunReport>>,
    /// The acquire-order ties the baseline run's trace exhibits (what
    /// SC302 reports), for cross-linking against the verdict.
    pub ties: Vec<AcquireTie>,
}

/// Build the fresh team a scenario needs ("P1", "P2", …).
pub fn scenario_team(scenario: &CompiledScenario) -> Vec<StudentProfile> {
    (1..=scenario.parts())
        .map(|i| StudentProfile::new(format!("P{i}")))
        .collect()
}

/// Explore every schedule of a compiled scenario.
///
/// The run is prepared and its durations sampled once per verdict; every
/// schedule replays that world in one reused engine under one restarted
/// [`ForcedSchedule`], whose log handle holds exploration's recycled
/// [`ScheduleLog`] for the length of each run, and which holds the
/// explored states for the same span. The root schedule (the empty
/// script, every tie at its default) is the baseline: it takes the report
/// finish ([`ScheduledRuns::run`]) with trace events on, whatever the
/// caller's config says, and its report's fingerprint is its outcome.
/// The SC302 ties of that observed schedule are read off its events
/// ([`crate::hb::acquire_ties`]) to be annotated with the verdict. Every
/// other schedule takes the fingerprint finish
/// ([`ScheduledRuns::fingerprint`]), which builds no report and records
/// no events, and gives the same fingerprint.
///
/// Past its script, a schedule that reaches an explored choice state
/// stops when that instant closes and takes the state's known outcome (a
/// known-state cut; the `simcheck.explore.cuts` counter counts them). The
/// [`Exploration`] is the one full runs give, field for field; naive mode
/// explores no states, so it runs every schedule in full.
///
/// [`ScheduledRuns::run`]: flagsim_core::ScheduledRuns::run
/// [`ScheduledRuns::fingerprint`]: flagsim_core::ScheduledRuns::fingerprint
pub fn explore_activity(
    scenario: &CompiledScenario,
    kit: &TeamKit,
    config: &ActivityConfig,
    cfg: &ExploreConfig,
) -> Result<ActivityExploration, String> {
    let plan = FaultPlan::default();
    let traced = config.clone().with_trace_events(true);
    let (policy, handle) = ForcedSchedule::new(Vec::new());
    let team = scenario_team(scenario);
    let mut runs = scenario.scheduled_runs(team, kit, &traced, &plan, *policy)?;
    let mut baseline = None;
    let mut cuts = 0;
    let exploration = explore_in_place(
        |script, log, known| {
            let policy = runs.policy_mut();
            policy.restart(script);
            std::mem::swap(known, policy.known_mut());
            std::mem::swap(log, &mut handle.borrow_mut());
            let finished = if script.is_empty() {
                runs.run().map(|root| Some(root_outcome(root, &mut baseline)))
            } else {
                runs.fingerprint().map(fingerprint_outcome)
            };
            std::mem::swap(log, &mut handle.borrow_mut());
            std::mem::swap(known, runs.policy_mut().known_mut());
            cuts += u64::from(matches!(finished, Ok(None)));
            finished
        },
        cfg,
    )?;
    flagsim_telemetry::count("simcheck.explore.cuts", cuts);
    if exploration.schedules_run == 0 {
        // A zero bound explores nothing; the baseline still runs.
        runs.policy_mut().restart(&[]);
        root_outcome(runs.run()?, &mut baseline);
    }
    let ties = baseline
        .as_ref()
        .map(|r| crate::hb::acquire_ties(&r.trace))
        .unwrap_or_default();
    Ok(ActivityExploration {
        exploration,
        baseline,
        ties,
    })
}

/// The root schedule's outcome, keeping its report as the baseline.
fn root_outcome(root: ActivityOutcome, baseline: &mut Option<Box<RunReport>>) -> Outcome {
    match root {
        ActivityOutcome::Completed(report) => {
            let outcome = Outcome::Completed {
                fingerprint: report.fingerprint(),
                makespan_ms: report.completion.millis(),
            };
            *baseline = Some(report);
            outcome
        }
        ActivityOutcome::Stalled(graph) => Outcome::Stalled {
            fingerprint: graph_fingerprint(&graph),
            graph,
        },
    }
}

/// The outcome of a schedule run through the fingerprint finish, or
/// `None` for a known-state cut.
fn fingerprint_outcome(finished: OutcomeFingerprint) -> Option<Outcome> {
    match finished {
        OutcomeFingerprint::Completed {
            fingerprint,
            completion,
        } => Some(Outcome::Completed {
            fingerprint,
            makespan_ms: completion.millis(),
        }),
        OutcomeFingerprint::Stalled(graph) => Some(Outcome::Stalled {
            fingerprint: graph_fingerprint(&graph),
            graph,
        }),
        OutcomeFingerprint::Known => None,
    }
}

/// The verify verdict as SC4xx diagnostics (deterministic, sorted by the
/// caller's [`crate::diag::Report::sort`] like every other analyzer).
pub fn verify_diags(ex: &Exploration) -> Vec<Diag> {
    let mut out = Vec::new();
    if let Some(class) = ex.deadlock() {
        if let Outcome::Stalled { graph, .. } = &class.outcome {
            let mut d = Diag::new(
                "SC411",
                Severity::Error,
                "",
                format!(
                    "deadlock is reachable: schedule {} stalls {} process(es) at t={}ms",
                    format_script(&class.schedule),
                    graph.len(),
                    graph.at.millis()
                ),
            );
            for e in &graph.edges {
                d = d.with_detail(e.to_string());
            }
            d = d.with_detail(format!(
                "{} of {} explored schedule(s) stall",
                class.runs, ex.schedules_run
            ));
            out.push(d);
        }
    }
    if ex.outcomes.len() > 1 {
        let mut d = Diag::new(
            "SC410",
            Severity::Warning,
            "",
            format!(
                "schedule-divergent: {} distinct outcomes across {} explored schedule(s)",
                ex.outcomes.len(),
                ex.schedules_run
            ),
        );
        if let Some(w) = &ex.witness {
            d = d
                .with_detail(format!(
                    "witness A {} → {}",
                    format_script(&w.baseline),
                    w.baseline_outcome.describe()
                ))
                .with_detail(format!(
                    "witness B {} → {}",
                    format_script(&w.divergent),
                    w.divergent_outcome.describe()
                ))
                .with_detail(
                    "the two schedules differ in exactly one tie resolution".to_owned(),
                );
        }
        out.push(d);
    }
    if ex.invariant() {
        out.push(
            Diag::new(
                "SC412",
                Severity::Note,
                "",
                format!(
                    "schedule-invariant: {} schedule(s) explored ({} choice states), every \
                     tie resolution converges",
                    ex.schedules_run, ex.visited_states
                ),
            )
            .with_detail(ex.outcomes[0].outcome.describe()),
        );
    }
    if ex.truncated {
        out.push(Diag::new(
            "SC413",
            Severity::Warning,
            "",
            format!(
                "exploration bound exhausted after {} schedule(s); {} outcome class(es) seen \
                 so far — coverage incomplete",
                ex.schedules_run,
                ex.outcomes.len()
            ),
        ));
    }
    out
}

/// The SC302 acquire-order ties of an observed run, annotated with the
/// schedule-space verdict: each tie is *benign* when exploration proved
/// every resolution converges, *divergent* when a witness exists, and
/// *inconclusive* when the bound cut coverage short.
pub fn annotate_ties(ties: &[AcquireTie], ex: &Exploration) -> Vec<Diag> {
    let verdict = if ex.outcomes.len() > 1 {
        "verify: divergent — some resolution changes the outcome (see the SC410 witness pair)"
    } else if ex.truncated {
        "verify: inconclusive — the exploration bound was exhausted (see SC413)"
    } else {
        "verify: benign — every explored resolution converges to the same outcome"
    };
    ties.iter()
        .map(|t| {
            Diag::new(
                "SC302",
                Severity::Note,
                t.resource.clone(),
                format!(
                    "{} processes requested \"{}\" at t={}ms simultaneously; \
                     FIFO order fell to event-queue insertion order",
                    t.procs.len(),
                    t.resource,
                    t.at.millis()
                ),
            )
            .with_detail(verdict.to_owned())
        })
        .collect()
}

/// The classic circular-wait drill as a live engine build — the same
/// setup `flagsim faults --demo-deadlock` runs and
/// [`crate::lockorder::demo_deadlock_seqs`] analyzes statically.
pub fn demo_deadlock_engine() -> Engine {
    let mut eng = Engine::new();
    let red = eng.add_resource("red marker", SimDuration::ZERO);
    let blue = eng.add_resource("blue marker", SimDuration::ZERO);
    let second = SimDuration::from_millis(1_000);
    for (name, first, then) in [
        ("grabs-red-then-blue", red, blue),
        ("grabs-blue-then-red", blue, red),
    ] {
        let mut queue: std::collections::VecDeque<Action> =
            vec![Action::Acquire(first), Action::Work(second), Action::Acquire(then)].into();
        eng.add_process(Box::new(FnProcess::new(name, move |_| {
            queue.pop_front().unwrap_or(Action::Done)
        })));
    }
    eng
}

/// Cross-check a reachable stall against the static lock-order analysis:
/// `true` when some SC204 cycle's resources are exactly the ones the
/// stalled schedule's waiters are parked on — the static prediction and
/// the dynamic witness name the same deadlock.
pub fn deadlock_matches_cycle(graph: &WaitForGraph, cycles: &[Vec<String>]) -> bool {
    if graph.is_empty() {
        return false;
    }
    let stalled_on: BTreeSet<&str> = graph
        .edges
        .iter()
        .map(|e| e.resource_label.as_str())
        .collect();
    cycles.iter().any(|cycle| {
        cycle.len() == stalled_on.len() && cycle.iter().all(|r| stalled_on.contains(r.as_str()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockorder::{demo_deadlock_seqs, LockOrderGraph};

    /// A process that acquires `rid`, works `work_ms`, and releases it.
    fn worker(eng: &mut Engine, name: &str, rid: flagsim_desim::ResourceId, work_ms: u64) {
        let mut queue: std::collections::VecDeque<Action> = vec![
            Action::Acquire(rid),
            Action::Work(SimDuration::from_millis(work_ms)),
            Action::Release(rid),
        ]
        .into();
        eng.add_process(Box::new(FnProcess::new(name.to_owned(), move |_| {
            queue.pop_front().unwrap_or(Action::Done)
        })));
    }

    /// One worker per `(name, work_ms)`, all contending for one marker.
    fn contending(workers: &[(&str, u64)]) -> Engine {
        let mut eng = Engine::new();
        let m = eng.add_resource("marker", SimDuration::ZERO);
        for &(name, work_ms) in workers {
            worker(&mut eng, name, m, work_ms);
        }
        eng
    }

    /// Four workers on disjoint resources: the t=0 wake-up tie orderings
    /// all commute. DPOR collapses 4! orderings to one schedule; naive
    /// enumeration visits all 24 — and both see one outcome. That 24×
    /// factor is the reduction gate (≥ 10×).
    #[test]
    fn independent_workers_collapse_under_dpor() {
        let build = || {
            let mut eng = Engine::new();
            for (name, work_ms) in [("a", 10), ("b", 20), ("c", 30), ("d", 40)] {
                let rid = eng.add_resource(format!("r{name}"), SimDuration::ZERO);
                worker(&mut eng, name, rid, work_ms);
            }
            eng
        };
        let dpor = explore_engine(build, &ExploreConfig::default()).expect("dpor");
        assert_eq!(dpor.schedules_run, 1, "{dpor:?}");
        assert_eq!(dpor.outcomes.len(), 1);
        assert!(dpor.invariant());
        assert!(dpor.pruned_sleep > 0);

        let naive = explore_engine(
            build,
            &ExploreConfig {
                naive: true,
                ..ExploreConfig::default()
            },
        )
        .expect("naive");
        assert_eq!(naive.schedules_run, 24, "{naive:?}");
        assert_eq!(naive.outcomes.len(), 1);
        assert_eq!(
            naive.outcomes[0].outcome.key(),
            dpor.outcomes[0].outcome.key(),
            "naive and DPOR must agree on the outcome"
        );
    }

    /// Two workers of different durations contend on one marker: who goes
    /// first flips each worker's finish time — a genuine divergence with
    /// a minimal witness pair.
    #[test]
    fn contended_marker_diverges_with_witness() {
        let build = || contending(&[("a", 10), ("b", 20)]);
        let ex = explore_engine(build, &ExploreConfig::default()).expect("explore");
        assert!(ex.outcomes.len() > 1, "{ex:?}");
        assert!(!ex.invariant());
        let w = ex.witness.as_ref().expect("witness pair");
        assert_eq!(w.divergent.len(), w.baseline.len() + 1);
        assert_eq!(&w.divergent[..w.baseline.len()], &w.baseline[..]);
        assert_ne!(w.baseline_outcome.key(), w.divergent_outcome.key());
        let diags = verify_diags(&ex);
        assert!(diags.iter().any(|d| d.id == "SC410"), "{diags:?}");
        assert!(!diags.iter().any(|d| d.id == "SC412"));
    }

    /// The demo-deadlock drill stalls on every schedule; the witness
    /// graph names exactly the statically predicted SC204 cycle.
    #[test]
    fn demo_deadlock_reachable_and_matches_static_cycle() {
        let ex = explore_engine(demo_deadlock_engine, &ExploreConfig::default())
            .expect("explore");
        let class = ex.deadlock().expect("a stalled class");
        let Outcome::Stalled { graph, .. } = &class.outcome else {
            panic!("deadlock() returned a completed class");
        };
        let cycles = LockOrderGraph::build(&demo_deadlock_seqs()).cycles();
        assert!(deadlock_matches_cycle(graph, &cycles), "{graph:?} vs {cycles:?}");
        let diags = verify_diags(&ex);
        assert!(diags.iter().any(|d| d.id == "SC411"), "{diags:?}");
    }

    /// Bound exhaustion is reported, not silently absorbed.
    #[test]
    fn truncation_sets_flag_and_sc413() {
        let build = || contending(&[("a", 10), ("b", 20), ("c", 30)]);
        let cfg = ExploreConfig {
            max_schedules: 2,
            naive: false,
        };
        let ex = explore_engine(build, &cfg).expect("explore");
        assert!(ex.truncated);
        assert_eq!(ex.schedules_run, 2);
        assert!(verify_diags(&ex).iter().any(|d| d.id == "SC413"));
    }

    #[test]
    fn annotate_ties_states_the_verdict() {
        let tie = AcquireTie {
            resource: "red marker".into(),
            at: flagsim_desim::SimTime(0),
            procs: vec![0, 1],
        };
        let benign = Exploration {
            schedules_run: 1,
            outcomes: vec![OutcomeClass {
                outcome: Outcome::Completed {
                    fingerprint: 1,
                    makespan_ms: 5,
                },
                schedule: vec![],
                runs: 1,
            }],
            ..Exploration::default()
        };
        let diags = annotate_ties(std::slice::from_ref(&tie), &benign);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].detail[0].contains("benign"), "{:?}", diags[0]);
        let mut divergent = benign.clone();
        divergent.outcomes.push(OutcomeClass {
            outcome: Outcome::Completed {
                fingerprint: 2,
                makespan_ms: 9,
            },
            schedule: vec![1],
            runs: 1,
        });
        let diags = annotate_ties(&[tie], &divergent);
        assert!(diags[0].detail[0].contains("divergent"), "{:?}", diags[0]);
    }
}

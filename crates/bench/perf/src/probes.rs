//! Per-layer probes for the traced run.
//!
//! Each probe replays one layer's public calls on the inputs a sampled
//! unit used and times them from outside. Every replay is checked against
//! what the program itself computed (a fidelity gate), so a probe that
//! drifts from the program fails the run instead of timing the wrong work:
//!
//! - the engine replay reproduces the rep's `end_time` and every process's
//!   busy and waiting time;
//! - the grid replay equals `report.grid`;
//! - the cost replay makes one draw per colour and per cell, and its
//!   durations are the ones the engine ran;
//! - the harness's `explore` closure finds the schedules and outcome
//!   classes `explore_activity` finds.

use crate::alloc;
use crate::trace::{timed, Tracer};
use flagsim_agents::{CostModel, Implement, StudentProfile};
use flagsim_core::config::{ActivityConfig, TeamKit};
use flagsim_core::scenario::{CompiledScenario, Scenario};
use flagsim_core::sweep::SweepRunner;
use flagsim_core::work::{PreparedFlag, WorkItem};
use flagsim_core::{ActivityOutcome, FaultPlan, RunReport};
use flagsim_desim::{
    Action, Engine, EventKind, FnProcess, ForcedSchedule, ResourceId, SimDuration, SimTime, Trace,
};
use flagsim_grid::{Color, Grid};
use flagsim_metrics::StreamingStats;
use flagsim_shard::{
    Checkpoint, JobSpec, LeaseConfig, LeaseGrant, LeaseTable, MergeState, Message, RepOutcome,
};
use flagsim_simcheck::explore::{graph_fingerprint, report_fingerprint, scenario_team};
use flagsim_simcheck::{explore, explore_activity, Exploration, ExploreConfig, Outcome};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;

/// Every `SAMPLE_EVERY`-th rep of a unit is probed.
pub const SAMPLE_EVERY: u64 = 16;

/// Seconds `core::run` adds to a cell whose crayon broke.
const REPLACEMENT_DELAY_SECS: f64 = 12.0;

/// Calls per timed batch for operations too short to time one by one.
const BATCH: u64 = 8;

/// What a sweep repetition runs with.
pub struct RepSite<'a> {
    pub scenario: &'a Scenario,
    pub flag: &'a PreparedFlag,
    pub kit: &'a TeamKit,
    /// The unit's base configuration; rep seeds derive from its seed.
    pub config: &'a ActivityConfig,
    pub team: usize,
    pub warmup: bool,
}

impl<'a> RepSite<'a> {
    pub fn runner(&self, retain: bool) -> SweepRunner<'a> {
        SweepRunner::new(self.scenario, self.flag, self.kit, self.config)
            .team_size(self.team)
            .warmup(self.warmup)
            .retain_reports(retain)
    }

    /// The fresh team `SweepRunner::run_rep` builds for every rep.
    fn fresh_team(&self) -> Vec<StudentProfile> {
        (1..=self.team)
            .map(|i| {
                let s = StudentProfile::new(format!("P{i}"));
                if self.warmup {
                    s
                } else {
                    s.without_warmup()
                }
            })
            .collect()
    }

    /// The cost-model seed `SweepRunner::run_rep` derives for `rep`.
    fn rep_seed(&self, rep: u64) -> u64 {
        self.config.seed.wrapping_add(rep.wrapping_mul(0x9E37_79B9))
    }
}

/// One unit to probe: its rep site, the shard job describing it (its
/// `reps` are the unit's simulated runs), and how the workload's own runner
/// keeps reports.
pub struct UnitProbe<'a> {
    pub site: RepSite<'a>,
    pub job: JobSpec,
    pub retain: bool,
}

/// Probe every layer on one unit's inputs. `reference` is the unit's own
/// exploration when the unit was a verdict; otherwise the probe explores
/// the unit's scenario itself for the gate.
pub fn probe_unit(
    tr: &mut Tracer,
    u: &UnitProbe<'_>,
    reference: Option<&Exploration>,
    checkpoint: &Path,
) -> Result<(), String> {
    let runner = u.site.runner(u.retain);
    let traced = u.site.runner(true);
    // Compile each runner's scenario outside the timed calls.
    runner.run_rep(0)?;
    traced.run_rep(0)?;
    let mut merge = MergeState::new(u64::MAX);
    let mut next = 0;
    for rep in (0..u.job.reps).step_by(SAMPLE_EVERY as usize) {
        let report = probe_rep(tr, &u.site, &runner, &traced, rep)?;
        let outcome = RepOutcome::Ok {
            completion: report.completion_secs(),
            waiting: report.total_wait_secs(),
        };
        probe_wire(tr, rep, &outcome)?;
        tr.time_n("shard.merge.accept", BATCH, || {
            for _ in 0..BATCH {
                merge.accept(next, outcome.clone());
                next += 1;
            }
        });
    }
    probe_lease(tr, u.job.reps)?;
    let saved = tr.time("shard.checkpoint.save", || {
        Checkpoint::from_merge(&u.job, &merge).save(checkpoint)
    });
    saved.map_err(|e| format!("checkpoint probe: {e}"))?;
    let bytes = std::fs::metadata(checkpoint).map_err(|e| format!("checkpoint probe: {e}"))?;
    tr.record("shard.checkpoint.bytes", bytes.len() as f64);

    let compiled = u.site.scenario.compile(u.site.flag, u.site.config)?;
    let own;
    let reference = match reference {
        Some(r) => r,
        None => {
            own = explore_activity(
                &compiled,
                u.site.kit,
                u.site.config,
                &ExploreConfig::default(),
            )?
            .exploration;
            &own
        }
    };
    probe_explore(tr, &compiled, u.site.kit, u.site.config, reference)
}

/// Probe one repetition: the sweep call itself, then replays of its cost
/// sampling, engine run, grid check and statistics push.
fn probe_rep(
    tr: &mut Tracer,
    site: &RepSite<'_>,
    runner: &SweepRunner<'_>,
    traced: &SweepRunner<'_>,
    rep: u64,
) -> Result<RunReport, String> {
    let (run, counts) = tr.time("core.sweep.run_rep", || {
        alloc::measure(|| runner.run_rep(rep))
    });
    run?;
    tr.record("core.sweep.allocs", counts.allocs as f64);
    tr.record("core.sweep.alloc_bytes", counts.bytes as f64);

    // The same rep with trace events on: the script the replays follow.
    let report = traced.run_rep(rep)?;

    let mut team = site.fresh_team();
    let cost = tr.time("agents.cost.sample", || {
        replay_cost(
            site.kit,
            site.config,
            site.rep_seed(rep),
            &mut team,
            &report.cell_log,
        )
    })?;
    check_cost(&cost, &report)?;
    tr.record("agents.cost.draws", cost.draws as f64);

    probe_engine(tr, &report.trace)?;

    let (grid, correct) = tr.time("grid.verify", || paint_and_verify(site.flag, &report));
    if grid != report.grid || correct != report.correct {
        return Err(format!(
            "grid replay of rep {rep} differs from the report's grid"
        ));
    }

    let xs = [report.completion_secs(), report.total_wait_secs()];
    let mut stats = StreamingStats::new();
    tr.time_n("metrics.streaming.push", 64, || {
        for k in 0..64 {
            stats.push(xs[k & 1]);
        }
    });
    black_box(stats);
    Ok(report)
}

/// What replaying a rep's cost-model calls produced.
#[derive(Debug)]
pub struct CostReplay {
    /// Sampling calls made: one hand-off per colour, one per cell.
    pub draws: u64,
    /// Colours the run used.
    pub colors: u64,
    /// Sampled cell durations per student, in work order.
    pub durations: Vec<Vec<SimDuration>>,
}

/// Make the `CostModel` calls `core::run` makes for one rep: a hand-off
/// sample per colour, then per cell a duration and a breakage draw.
pub fn replay_cost(
    kit: &TeamKit,
    config: &ActivityConfig,
    seed: u64,
    team: &mut [StudentProfile],
    cell_log: &[Vec<WorkItem>],
) -> Result<CostReplay, String> {
    let mut needed: Vec<Color> = cell_log.iter().flatten().map(|w| w.color).collect();
    needed.sort_unstable();
    needed.dedup();
    let implements: Vec<Implement> = needed
        .iter()
        .map(|&c| {
            kit.implement(c)
                .ok_or_else(|| format!("kit has no {c} implement"))
        })
        .collect::<Result<_, _>>()?;
    let mut cost = CostModel::with_params(seed, config.cost_params.clone());
    let mut draws = 0;
    for &imp in &implements {
        black_box(cost.sample_handoff_secs(imp));
        draws += 1;
    }
    let fill = config.fill.work_factor();
    let sigma = cost.cell_sigma(config.fill);
    let mut durations = Vec::with_capacity(team.len());
    for (student, items) in team.iter_mut().zip(cell_log) {
        let base_skill: Vec<f64> = implements
            .iter()
            .map(|imp| imp.effective_base_secs() * student.skill)
            .collect();
        let mut durs = Vec::with_capacity(items.len());
        for item in items {
            let ci = needed.binary_search(&item.color).expect("collected above");
            let mut secs =
                cost.sample_cell_secs_resolved(student, base_skill[ci], fill, sigma, item.kind);
            draws += 1;
            if cost.sample_breakage(implements[ci]) {
                secs += REPLACEMENT_DELAY_SECS;
            }
            durs.push(SimDuration::from_secs_f64(secs));
        }
        durations.push(durs);
    }
    Ok(CostReplay {
        draws,
        colors: needed.len() as u64,
        durations,
    })
}

/// Gate: one draw per colour and per cell, and each sampled duration is
/// the one the engine ran.
pub fn check_cost(cost: &CostReplay, report: &RunReport) -> Result<(), String> {
    let cells: u64 = report.cell_log.iter().map(|l| l.len() as u64).sum();
    if cost.draws != cells + cost.colors {
        return Err(format!(
            "cost replay made {} draws for {cells} cells and {} colours",
            cost.draws, cost.colors
        ));
    }
    for (p, durs) in cost.durations.iter().enumerate() {
        let ran = report
            .trace
            .events_for(flagsim_desim::ProcId::from_index(p))
            .filter_map(|e| match e.kind {
                EventKind::WorkStart { dur } => Some(dur),
                _ => None,
            });
        if !ran.eq(durs.iter().copied()) {
            return Err(format!(
                "cost replay durations for process {p} differ from the run's"
            ));
        }
    }
    Ok(())
}

/// Each process's actions, recovered from a traced run's event log.
pub fn scripts(trace: &Trace) -> Vec<Vec<Action>> {
    let mut out = vec![Vec::new(); trace.procs.len()];
    let mut blocked: Vec<Option<ResourceId>> = vec![None; trace.procs.len()];
    for e in &trace.events {
        let p = e.proc.index();
        match e.kind {
            EventKind::WorkStart { dur } => out[p].push(Action::Work(dur)),
            EventKind::Blocked(r) => {
                out[p].push(Action::Acquire(r));
                blocked[p] = Some(r);
            }
            // A contended acquire logs Blocked then Acquired: one action.
            EventKind::Acquired(r) => {
                if blocked[p].take() != Some(r) {
                    out[p].push(Action::Acquire(r));
                }
            }
            EventKind::Released(r) => out[p].push(Action::Release(r)),
            EventKind::Finished => out[p].push(Action::Done),
        }
    }
    out
}

/// Build an engine the way `core::run` does, with scripted processes.
pub fn build_replay(trace: &Trace, scripts: Vec<Vec<Action>>, record: bool) -> Engine {
    let events = if record { trace.events.len() } else { 0 };
    let mut engine = Engine::with_capacity(trace.procs.len(), trace.resources.len(), events);
    engine.set_trace_events(record);
    for r in &trace.resources {
        engine.add_resource_pool(r.label.clone(), r.capacity, r.handoff);
    }
    for (p, script) in trace.procs.iter().zip(scripts) {
        let mut actions = script.into_iter();
        let process = FnProcess::new(p.name.clone(), move |_| {
            actions.next().unwrap_or(Action::Done)
        });
        engine.add_process_at(Box::new(process), SimTime::ZERO);
    }
    engine
}

/// Gate: the replay ends when the run ended and charges every process the
/// same busy and waiting time.
pub fn check_replay(replay: &Trace, run: &Trace) -> Result<(), String> {
    let same_procs = replay.procs.len() == run.procs.len()
        && replay
            .procs
            .iter()
            .zip(&run.procs)
            .all(|(a, b)| a.busy == b.busy && a.waiting == b.waiting);
    if replay.end_time != run.end_time || !same_procs {
        return Err(format!(
            "engine replay ended at {}ms with different accounting; the run ended at {}ms",
            replay.end_time.millis(),
            run.end_time.millis()
        ));
    }
    Ok(())
}

fn probe_engine(tr: &mut Tracer, run: &Trace) -> Result<(), String> {
    let script = scripts(run);
    let untraced = script.clone();
    let ((engine, setup), iv) = timed(|| alloc::measure(|| build_replay(run, untraced, false)));
    tr.add("desim.engine.setup", iv, 1);
    let ((result, loop_allocs), off) = timed(|| alloc::measure(|| engine.try_run()));
    tr.add("desim.engine.run", off, 1);
    let replay = result.map_err(|e| format!("engine replay: {e}"))?;
    check_replay(&replay, run)?;
    tr.record(
        "desim.engine.allocs",
        (setup.allocs + loop_allocs.allocs) as f64,
    );

    let engine = build_replay(run, script, true);
    let (result, on) = timed(|| engine.try_run());
    tr.add("desim.engine.run_traced", on, 1);
    let replay = result.map_err(|e| format!("engine replay: {e}"))?;
    check_replay(&replay, run)?;
    tr.record("desim.trace.record", on.ns() - off.ns());
    tr.record("desim.engine.events", replay.events.len() as f64);
    let handoffs: u64 = replay.resources.iter().map(|r| r.stats.handoffs).sum();
    tr.record("desim.engine.handoffs", handoffs as f64);
    Ok(())
}

/// Paint the cells each student completed, as `core::run` does, and
/// compare with the flag's reference.
pub fn paint_and_verify(flag: &PreparedFlag, report: &RunReport) -> (Grid, bool) {
    let mut grid = Grid::new(flag.width, flag.height);
    for (log, p) in report.cell_log.iter().zip(&report.trace.procs) {
        let done = (p.completed_work as usize).min(log.len());
        for item in &log[..done] {
            grid.paint(item.cell, item.color);
        }
    }
    let correct = grid.iter().all(|(id, got)| got == flag.reference.get(id));
    (grid, correct)
}

fn probe_wire(tr: &mut Tracer, rep: u64, outcome: &RepOutcome) -> Result<(), String> {
    let msg = Message::Rep {
        rep,
        outcome: outcome.clone(),
    };
    let body = tr.time_n("shard.wire.encode", BATCH, || {
        let mut body = msg.encode();
        for _ in 1..BATCH {
            body = black_box(msg.encode());
        }
        body
    });
    let decoded = tr.time_n("shard.wire.decode", BATCH, || {
        let mut decoded = Message::decode(&body);
        for _ in 1..BATCH {
            decoded = black_box(Message::decode(&body));
        }
        decoded
    });
    if decoded != Ok(msg) {
        return Err(format!(
            "wire probe: rep {rep} did not survive encode/decode"
        ));
    }
    // Per rep: its own frame plus its share of the lease/lease_done pair.
    let chunk = LeaseConfig::default().chunk;
    let lease = Message::Lease {
        start: rep,
        end: rep + chunk,
        grant: 0,
    }
    .encode()
    .len();
    let done = Message::LeaseDone {
        start: rep,
        end: rep + chunk,
    }
    .encode()
    .len();
    let bytes = (4 + body.len()) as f64 + (8 + lease + done) as f64 / chunk as f64;
    tr.record("shard.wire.bytes", bytes);
    Ok(())
}

/// Replay a campaign's lease traffic on a fake clock: one worker asks for
/// a lease, reports each rep, reports the lease done, and asks again.
fn probe_lease(tr: &mut Tracer, reps: u64) -> Result<(), String> {
    let (grants, iv) = timed(|| {
        let mut table = LeaseTable::new(reps, LeaseConfig::default());
        let w = table.add_worker("bench");
        table.on_connected(w, 0);
        let mut grants = 0u64;
        for now in 0.. {
            match table.request_lease(w, now) {
                LeaseGrant::Range { start, end } => {
                    grants += 1;
                    for rep in start..end {
                        table.on_rep_done(w, rep, now);
                    }
                    table.on_lease_done(w, now);
                }
                LeaseGrant::Finished => return Ok(grants),
                LeaseGrant::Wait => break,
            }
        }
        Err("lease replay: a lone worker was told to wait".to_owned())
    });
    let grants = grants?;
    tr.add("shard.lease.request", iv, grants);
    tr.record("shard.lease.grants", grants as f64);
    Ok(())
}

/// Explore `compiled` through `simcheck::explore` with a closure that
/// makes the calls `explore_activity`'s closure makes, timing each.
pub fn probe_explore(
    tr: &mut Tracer,
    compiled: &CompiledScenario,
    kit: &TeamKit,
    config: &ActivityConfig,
    reference: &Exploration,
) -> Result<(), String> {
    let plan = FaultPlan::default();
    let lean = config.clone().with_trace_events(false);
    let mut closure_ns = 0.0;
    let mut decisions = 0u64;
    let (ex, total) = timed(|| {
        explore(
            |script| {
                let (out, body) = timed(|| {
                    let mut team = scenario_team(compiled);
                    let (policy, log) = ForcedSchedule::new(script.to_vec());
                    let ((run, allocs), iv) = timed(|| {
                        alloc::measure(|| {
                            compiled.run_scheduled(&mut team, kit, &lean, &plan, Some(policy))
                        })
                    });
                    tr.add("core.scenario.run_scheduled", iv, 1);
                    tr.record("core.scenario.allocs", allocs.allocs as f64);
                    let outcome = match run? {
                        ActivityOutcome::Completed(report) => {
                            let fingerprint =
                                tr.time("simcheck.fingerprint", || report_fingerprint(&report));
                            Outcome::Completed {
                                fingerprint,
                                makespan_ms: report.completion.millis(),
                            }
                        }
                        ActivityOutcome::Stalled(graph) => Outcome::Stalled {
                            fingerprint: graph_fingerprint(&graph),
                            graph,
                        },
                    };
                    let log = Rc::try_unwrap(log)
                        .map(std::cell::RefCell::into_inner)
                        .map_err(|_| "schedule log still shared after the run".to_owned())?;
                    decisions += log.decisions.len() as u64;
                    Ok((outcome, log))
                });
                closure_ns += body.ns();
                out
            },
            &ExploreConfig::default(),
        )
    });
    let ex = ex?;
    check_explore(&ex, reference)?;
    let schedules = ex.schedules_run as f64;
    tr.add("simcheck.explore", total, 1);
    tr.record(
        "simcheck.explore.self",
        (total.ns() - closure_ns) / schedules,
    );
    tr.record("simcheck.explore.schedules", schedules);
    tr.record("simcheck.explore.classes", ex.outcomes.len() as f64);
    tr.record(
        "simcheck.explore.useful",
        ex.outcomes.len() as f64 / schedules,
    );
    tr.record("simcheck.explore.pruned_sleep", ex.pruned_sleep as f64);
    tr.record("simcheck.explore.visited_states", ex.visited_states as f64);
    tr.record("desim.schedule.decisions", decisions as f64 / schedules);
    Ok(())
}

/// The outcome-class keys of an exploration.
pub fn class_keys(ex: &Exploration) -> BTreeSet<(u8, u64)> {
    ex.outcomes.iter().map(|c| c.outcome.key()).collect()
}

/// Gate: the harness's exploration ran the same schedules and found the
/// same outcome classes as the program's.
pub fn check_explore(ex: &Exploration, reference: &Exploration) -> Result<(), String> {
    if ex.schedules_run != reference.schedules_run || class_keys(ex) != class_keys(reference) {
        return Err(format!(
            "explore probe ran {} schedules into {} classes; explore_activity ran {} into {}",
            ex.schedules_run,
            ex.outcomes.len(),
            reference.schedules_run,
            reference.outcomes.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_agents::ImplementKind;
    use flagsim_flags::library;

    struct Fixture {
        scenario: Scenario,
        flag: PreparedFlag,
        kit: TeamKit,
        config: ActivityConfig,
    }

    fn fixture() -> Fixture {
        let flag = PreparedFlag::new(&library::mauritius());
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
        Fixture {
            scenario: Scenario::fig1(4),
            flag,
            kit,
            config: ActivityConfig::default().with_seed(2025),
        }
    }

    impl Fixture {
        fn site(&self) -> RepSite<'_> {
            RepSite {
                scenario: &self.scenario,
                flag: &self.flag,
                kit: &self.kit,
                config: &self.config,
                team: 4,
                warmup: false,
            }
        }
    }

    fn report(f: &Fixture, rep: u64) -> RunReport {
        f.site().runner(true).run_rep(rep).expect("rep runs")
    }

    #[test]
    fn engine_gate_accepts_the_replay_and_rejects_a_drifted_script() {
        let f = fixture();
        let r = report(&f, 3);
        let replay = build_replay(&r.trace, scripts(&r.trace), false)
            .try_run()
            .unwrap();
        check_replay(&replay, &r.trace).expect("faithful replay passes");

        let mut drifted = scripts(&r.trace);
        let work = drifted[0]
            .iter_mut()
            .find(|a| matches!(a, Action::Work(_)))
            .unwrap();
        *work = Action::Work(SimDuration::from_millis(1));
        let replay = build_replay(&r.trace, drifted, false).try_run().unwrap();
        assert!(check_replay(&replay, &r.trace).is_err());
    }

    #[test]
    fn grid_gate_matches_the_report_and_catches_a_lost_cell() {
        let f = fixture();
        let mut r = report(&f, 1);
        let (grid, correct) = paint_and_verify(&f.flag, &r);
        assert!(correct && grid == r.grid);
        r.cell_log[2].pop();
        let (grid, correct) = paint_and_verify(&f.flag, &r);
        assert!(!correct && grid != r.grid);
    }

    #[test]
    fn cost_gate_counts_draws_and_matches_durations() {
        let f = fixture();
        let site = f.site();
        let r = report(&f, 5);
        let mut team = site.fresh_team();
        let cost =
            replay_cost(&f.kit, &f.config, site.rep_seed(5), &mut team, &r.cell_log).unwrap();
        assert_eq!(cost.draws, 96 + 4, "Mauritius: 96 cells, 4 colours");
        check_cost(&cost, &r).expect("faithful replay passes");

        let mut team = site.fresh_team();
        let wrong_seed =
            replay_cost(&f.kit, &f.config, site.rep_seed(6), &mut team, &r.cell_log).unwrap();
        assert!(check_cost(&wrong_seed, &r).is_err());
    }

    #[test]
    fn explore_gate_matches_explore_activity_and_rejects_another_scenario() {
        let f = fixture();
        let compiled = f.scenario.compile(&f.flag, &f.config).unwrap();
        let own = explore_activity(&compiled, &f.kit, &f.config, &ExploreConfig::default())
            .unwrap()
            .exploration;
        let mut tr = Tracer::default();
        probe_explore(&mut tr, &compiled, &f.kit, &f.config, &own).expect("gate passes");
        assert_eq!(
            tr.samples("simcheck.explore.schedules"),
            [own.schedules_run as f64]
        );

        let other = Scenario::fig1(3).compile(&f.flag, &f.config).unwrap();
        assert!(probe_explore(&mut tr, &other, &f.kit, &f.config, &own).is_err());
    }
}

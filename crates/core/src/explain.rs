//! Causal run explanation: orchestrates a deterministic run, the
//! `desim::causal` analysis, the taskgraph cross-check, and the
//! zero-warmup counterfactual, then renders the result as text (ANSI
//! gantt + blame table + what-if lines) or machine-readable JSON.
//!
//! The observed run is repetition 0 of a [`SweepRunner`], the one
//! repetition function every sweep runs, so `flagsim explain` explains
//! exactly the run a sweep's first repetition is.

use crate::config::{ActivityConfig, TeamKit};
use crate::report::RunReport;
use crate::scenario::Scenario;
use crate::sweep::SweepRunner;
use crate::work::PreparedFlag;
use flagsim_desim::causal::{self, CausalAnalysis, CriticalKind};
use flagsim_desim::{SegmentKind, SimDuration};
use flagsim_taskgraph::{analysis, TaskGraph};
use flagsim_telemetry::json::json_string;
use std::fmt::Write as _;

/// A fully analyzed run: the report, its causal analysis, the taskgraph
/// cross-check, and the zero-warmup counterfactual.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The observed run.
    pub report: RunReport,
    /// Causal analysis of the observed trace.
    pub analysis: CausalAnalysis,
    /// Makespan of a deterministic re-run with warm-up disabled — the
    /// "what if everyone was already warmed up" counterfactual.
    pub zero_warmup: SimDuration,
    /// Total work of the trace-derived task graph (sum of compute
    /// segments; equals the trace's total busy time).
    pub graph_work: SimDuration,
    /// Span of the trace-derived task graph: the longest per-process
    /// compute chain, i.e. the infinite-resource floor.
    pub graph_span: SimDuration,
    /// `taskgraph::analysis::makespan_lower_bound` at the observed team
    /// size: `max(⌈work/p⌉, span)`.
    pub graph_lower_bound: SimDuration,
    /// Seed the run used.
    pub seed: u64,
}

impl Explanation {
    /// The acceptance sandwich: the infinite-implement what-if bound
    /// must sit between the task-graph span (nothing can beat the
    /// longest compute chain) and the observed makespan (removing
    /// contention never slows a run down).
    pub fn bounds_hold(&self) -> bool {
        let w = &self.analysis.whatif;
        self.graph_span <= w.no_contention && w.no_contention <= w.observed
    }

    /// Render the explanation as human-facing text: summary, ANSI gantt
    /// with the critical path highlighted, the executed critical path,
    /// the blame table, and the what-if decomposition.
    pub fn render_text(&self, width: usize) -> String {
        let trace = &self.report.trace;
        let a = &self.analysis;
        let mut out = format!(
            "{} on {} — seed {}\n{}\n\n",
            self.report.label,
            self.report.flag_name,
            self.seed,
            trace.summary(),
        );
        out.push_str(&causal::critical_gantt(trace, a, width));
        out.push('\n');

        let _ = writeln!(
            out,
            "executed critical path ({} step(s)):",
            a.critical_path.len()
        );
        for seg in &a.critical_path {
            let who = trace
                .procs
                .get(seg.proc.index())
                .map(|p| p.name.as_str())
                .unwrap_or("?");
            let what = match seg.kind {
                CriticalKind::Compute => "compute".to_owned(),
                CriticalKind::Contention(r) => format!(
                    "contention on {}",
                    trace
                        .resources
                        .get(r.index())
                        .map(|res| res.label.as_str())
                        .unwrap_or("?")
                ),
                CriticalKind::Dependency => "dependency/idle wait".to_owned(),
            };
            let _ = writeln!(
                out,
                "  {:>8} .. {:>8}  {:<6} {}",
                seg.start.to_string(),
                seg.end.to_string(),
                who,
                what
            );
        }
        let (compute, contention, dependency) = a.critical_split();
        let _ = writeln!(
            out,
            "critical split: compute {compute} | contention {contention} | dependency {dependency}\n"
        );

        out.push_str("blame:\n");
        out.push_str(&causal::blame_table_text(trace, a));
        out.push('\n');

        let w = &a.whatif;
        let _ = writeln!(out, "what-if:");
        let _ = writeln!(out, "  observed makespan        {}", w.observed);
        let _ = writeln!(
            out,
            "  infinite implements      {}  (contention costs {})",
            w.no_contention, w.contention_cost
        );
        let _ = writeln!(
            out,
            "  zero warmup              {}  ({} vs observed)",
            self.zero_warmup,
            if self.zero_warmup <= w.observed {
                format!(
                    "saves {}",
                    SimDuration(w.observed.millis().saturating_sub(self.zero_warmup.millis()))
                )
            } else {
                format!(
                    "costs {}",
                    SimDuration(self.zero_warmup.millis().saturating_sub(w.observed.millis()))
                )
            }
        );
        let _ = writeln!(
            out,
            "  perfect balance          {}  (imbalance costs {})",
            w.ideal_balance, w.imbalance_cost
        );
        let _ = writeln!(
            out,
            "  cross-check: graph span {} <= infinite-implements {} <= observed {}  [{}]",
            self.graph_span,
            w.no_contention,
            w.observed,
            if self.bounds_hold() { "ok" } else { "VIOLATED" }
        );
        let _ = writeln!(
            out,
            "  graph lower bound (p={}): {}",
            self.report.students.len().max(1),
            self.graph_lower_bound
        );
        out
    }

    /// Render the explanation as JSON. All durations are integer
    /// milliseconds, so the output is deterministic byte-for-byte for a
    /// given seed (no float formatting in sight).
    pub fn to_json(&self) -> String {
        let trace = &self.report.trace;
        let a = &self.analysis;
        let pname = |idx: usize| {
            trace
                .procs
                .get(idx)
                .map(|p| p.name.as_str())
                .unwrap_or("?")
        };
        let rname = |idx: usize| {
            trace
                .resources
                .get(idx)
                .map(|r| r.label.as_str())
                .unwrap_or("?")
        };
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"scenario\": {},", json_string(&self.report.label));
        let _ = writeln!(out, "  \"flag\": {},", json_string(&self.report.flag_name));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"correct\": {},", self.report.correct);
        let _ = writeln!(out, "  \"makespan_ms\": {},", trace.makespan().millis());
        let _ = writeln!(out, "  \"work_ms\": {},", trace.total_busy().millis());
        let _ = writeln!(out, "  \"waiting_ms\": {},", trace.total_waiting().millis());
        let _ = writeln!(out, "  \"idle_ms\": {},", trace.total_idle().millis());

        out.push_str("  \"critical_path\": [\n");
        for (i, seg) in a.critical_path.iter().enumerate() {
            let (kind, resource) = match seg.kind {
                CriticalKind::Compute => ("compute", None),
                CriticalKind::Contention(r) => ("contention", Some(rname(r.index()))),
                CriticalKind::Dependency => ("dependency", None),
            };
            let _ = write!(
                out,
                "    {{\"proc\": {}, \"start_ms\": {}, \"end_ms\": {}, \"kind\": {}{}}}",
                json_string(pname(seg.proc.index())),
                seg.start.millis(),
                seg.end.millis(),
                json_string(kind),
                match resource {
                    Some(r) => format!(", \"resource\": {}", json_string(r)),
                    None => String::new(),
                }
            );
            out.push_str(if i + 1 < a.critical_path.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");

        let (compute, contention, dependency) = a.critical_split();
        let _ = writeln!(
            out,
            "  \"critical_split\": {{\"compute_ms\": {}, \"contention_ms\": {}, \"dependency_ms\": {}}},",
            compute.millis(),
            contention.millis(),
            dependency.millis()
        );

        out.push_str("  \"blame\": [\n");
        for (i, b) in a.blame.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"resource\": {}, \"total_wait_ms\": {}, \"holders\": [",
                json_string(rname(b.resource.index())),
                b.total.millis()
            );
            for (j, h) in b.holders.iter().enumerate() {
                let victims: Vec<String> = h
                    .victims
                    .iter()
                    .map(|&v| json_string(pname(v.index())))
                    .collect();
                let _ = write!(
                    out,
                    "{}{{\"holder\": {}, \"wait_ms\": {}, \"victims\": [{}]}}",
                    if j > 0 { ", " } else { "" },
                    json_string(pname(h.holder.index())),
                    h.wait.millis(),
                    victims.join(", ")
                );
            }
            out.push_str("]}");
            out.push_str(if i + 1 < a.blame.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");

        let w = &a.whatif;
        let _ = writeln!(
            out,
            "  \"whatif\": {{\"observed_ms\": {}, \"no_contention_ms\": {}, \"zero_warmup_ms\": {}, \
             \"ideal_balance_ms\": {}, \"contention_cost_ms\": {}, \"imbalance_cost_ms\": {}}},",
            w.observed.millis(),
            w.no_contention.millis(),
            self.zero_warmup.millis(),
            w.ideal_balance.millis(),
            w.contention_cost.millis(),
            w.imbalance_cost.millis()
        );
        let _ = writeln!(
            out,
            "  \"crosscheck\": {{\"graph_work_ms\": {}, \"graph_span_ms\": {}, \
             \"graph_lower_bound_ms\": {}, \"bounds_hold\": {}}}",
            self.graph_work.millis(),
            self.graph_span.millis(),
            self.graph_lower_bound.millis(),
            self.bounds_hold()
        );
        out.push_str("}\n");
        out
    }
}

/// Build a task graph from the executed trace: each process's compute
/// segments become a dependency chain (what that student did, in order).
/// Hand-off waits are deliberately *not* edges — with infinite implement
/// copies they vanish, so the graph's span is the infinite-resource
/// floor the what-if bound must respect.
pub fn trace_taskgraph(analysis: &CausalAnalysis, report: &RunReport) -> TaskGraph {
    let mut g = TaskGraph::new();
    for (pi, segs) in analysis.timelines.iter().enumerate() {
        let name = report
            .trace
            .procs
            .get(pi)
            .map(|p| p.name.clone())
            .unwrap_or_else(|| format!("P{}", pi + 1));
        let mut prev = None;
        let mut chunk = 0usize;
        for seg in segs {
            if seg.kind != SegmentKind::Compute {
                continue;
            }
            let id = g.add_task(format!("{name}#{chunk}"), seg.duration().millis());
            if let Some(p) = prev {
                g.add_dep(p, id).expect("per-process chains are acyclic");
            }
            prev = Some(id);
            chunk += 1;
        }
    }
    g
}

/// Run `scenario` once, deterministically, and explain it. The observed
/// run keeps the warm-up effect (matching `flagsim run`); the
/// zero-warmup counterfactual re-runs the identical configuration with
/// warmed-up students.
pub fn explain_scenario(
    scenario: &Scenario,
    flag: &PreparedFlag,
    kit: &TeamKit,
    config: &ActivityConfig,
    team_size: usize,
) -> Result<Explanation, String> {
    let run_once = |warmup: bool| {
        SweepRunner::new(scenario, flag, kit, config)
            .team_size(team_size)
            .warmup(warmup)
            .run_rep(0)
    };
    let report = run_once(true)?;
    let zero_warmup = run_once(false)?.completion;
    Ok(explain_report(report, zero_warmup, config.seed))
}

/// Explain an already-obtained run report (the non-orchestrating core of
/// [`explain_scenario`], usable on any report you have in hand).
pub fn explain_report(report: RunReport, zero_warmup: SimDuration, seed: u64) -> Explanation {
    let analysis = causal::analyze(&report.trace);
    let g = trace_taskgraph(&analysis, &report);
    let p = report.students.len().max(1);
    let graph_work = SimDuration(analysis::work(&g));
    let graph_span = SimDuration(analysis::span(&g));
    let graph_lower_bound = SimDuration(analysis::makespan_lower_bound(&g, p));
    Explanation {
        report,
        analysis,
        zero_warmup,
        graph_work,
        graph_span,
        graph_lower_bound,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_agents::ImplementKind;
    use flagsim_flags::library;

    fn explain_fig(n: u8, seed: u64) -> Explanation {
        let flag = PreparedFlag::new(&library::mauritius());
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
        let cfg = ActivityConfig::default().with_seed(seed);
        let scenario = Scenario::fig1(n);
        let team = scenario.team_size(&flag, &cfg);
        explain_scenario(&scenario, &flag, &kit, &cfg, team).expect("scenario runs")
    }

    #[test]
    fn bounds_hold_on_all_fig1_scenarios() {
        for n in 1..=4 {
            let e = explain_fig(n, 7);
            assert!(e.bounds_hold(), "scenario {n}: {:?}", e.analysis.whatif);
            // Work accounting agrees between trace and graph.
            assert_eq!(e.graph_work, e.report.trace.total_busy(), "scenario {n}");
        }
    }

    #[test]
    fn scenario4_blames_the_contended_marker() {
        let e = explain_fig(4, 7);
        assert!(!e.analysis.blame.is_empty(), "vertical slices contend");
        assert_eq!(
            e.analysis.blame_total(),
            e.report.trace.total_waiting(),
            "blame accounts for every waited millisecond"
        );
        let text = e.render_text(60);
        assert!(text.contains("executed critical path"), "{text}");
        assert!(text.contains("blame:"), "{text}");
        assert!(text.contains("what-if:"), "{text}");
        assert!(text.contains("[ok]"), "{text}");
    }

    #[test]
    fn json_is_valid_and_job_count_invariant() {
        let flag = PreparedFlag::new(&library::mauritius());
        let kit = TeamKit::uniform(ImplementKind::ThickMarker, &flag.colors_needed(&[]));
        let cfg = ActivityConfig::default().with_seed(11);
        let scenario = Scenario::fig1(4);
        let team = scenario.team_size(&flag, &cfg);
        let a = explain_scenario(&scenario, &flag, &kit, &cfg, team)
            .unwrap()
            .to_json();
        // The explained run is rep 0 of a sweep at any job count.
        let rep0 = |warmup| {
            let runner = SweepRunner::new(&scenario, &flag, &kit, &cfg)
                .team_size(team)
                .warmup(warmup)
                .reps(3)
                .jobs(4);
            runner.run().unwrap().reports.swap_remove(0)
        };
        let b = explain_report(rep0(true), rep0(false).completion, cfg.seed).to_json();
        assert_eq!(a, b, "jobs must not change the explanation");
        let v = flagsim_telemetry::json::parse(&a).expect("valid json");
        assert!(v.get("makespan_ms").and_then(|m| m.as_f64()).unwrap() > 0.0);
        assert!(!v.get("critical_path").and_then(|c| c.as_array()).unwrap().is_empty());
    }

    #[test]
    fn zero_warmup_counterfactual_is_no_slower() {
        // Warm-up only ever slows early cells down, so removing it can
        // only help (same seed, same cost draws otherwise).
        let e = explain_fig(3, 5);
        assert!(e.zero_warmup <= e.analysis.whatif.observed);
    }
}

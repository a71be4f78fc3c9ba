//! The perf-trajectory lab: persists every harness run keyed by commit digest
//! and config fingerprint, and gates CI on regressions of the metrics that
//! encode the paper's guarantees.
//!
//! The harness already writes one `BENCH_<exp>.json` per experiment (see
//! [`crate::report`]); this module closes the loop across commits:
//!
//! * [`collect_run`] reads the gated experiments' reports from a directory
//!   and condenses them into one [`RunRecord`] — every exported metric, keyed
//!   `"<exp>/<metric>"`, plus the commit digest (read straight from
//!   `.git/HEAD`, no subprocess) and the config fingerprint (quick vs full
//!   sizes and the gate-set version);
//! * [`record`] appends the record to `bench_history/history-<fp>.jsonl` and,
//!   on request, promotes it to `bench_history/baseline-<fp>.json`;
//! * [`check`] diffs a fresh run against the stored baseline over the
//!   [`gated_metrics`] and reports every regression beyond the metric's
//!   tolerance — the `trajectory` binary turns a non-empty report into a
//!   nonzero exit, which is the CI gate.
//!
//! Everything is hand-rolled JSON (this build environment has no real
//! `serde`): the writer reuses [`crate::report::json_escape`], and the
//! reader is the wire protocol's parser ([`omq_server::json`]).

use crate::report::json_escape;
use omq_server::json::{self, Json};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Whether a gated metric regresses by growing or by shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Timings, slopes: a larger value is a regression.
    LowerIsBetter,
    /// Speedups: a smaller value is a regression.
    HigherIsBetter,
}

/// One metric the trajectory lab gates CI on.
#[derive(Debug, Clone, Copy)]
pub struct GatedMetric {
    /// Experiment identifier, e.g. `"E12"`.
    pub experiment: &'static str,
    /// Metric name inside the experiment's JSON report.
    pub metric: &'static str,
    /// Which way a regression points.
    pub direction: Direction,
    /// Relative change (percent, against the baseline) tolerated before the
    /// gate trips.  Timing metrics on shared CI runners are noisy, so the
    /// tolerances are deliberately generous — the gate exists to catch
    /// step-change regressions (an accidental `O(|D|)` in the hot loop, a
    /// lost amortisation), not single-digit drift.
    pub tolerance_pct: f64,
    /// Absolute change that must *also* be exceeded before the gate trips —
    /// keeps near-zero baselines (e.g. slopes ≈ 0) from turning measurement
    /// noise into huge relative changes.
    pub abs_floor: f64,
}

/// The gated metrics: the enumeration-delay constants (E12), the pagination
/// constants (E14), the incremental-maintenance slope (E16), the batching
/// amortisation (E17/E18), the network front end's serving figures plus
/// its pinned-isolation gate (E19), and the distributed scaling figure plus
/// its answers-equal gate including the killed-worker row (E20).
pub const GATES: &[GatedMetric] = &[
    GatedMetric {
        experiment: "E12",
        metric: "iter_mean_ns_at_max",
        direction: Direction::LowerIsBetter,
        tolerance_pct: 100.0,
        abs_floor: 100.0,
    },
    GatedMetric {
        experiment: "E12",
        metric: "iter_p99_ns_at_max",
        direction: Direction::LowerIsBetter,
        tolerance_pct: 150.0,
        abs_floor: 200.0,
    },
    GatedMetric {
        experiment: "E14",
        metric: "ttfa_max_nanos",
        direction: Direction::LowerIsBetter,
        tolerance_pct: 100.0,
        abs_floor: 2_000.0,
    },
    GatedMetric {
        experiment: "E14",
        metric: "page_mean_ns_at_max",
        direction: Direction::LowerIsBetter,
        tolerance_pct: 100.0,
        abs_floor: 100.0,
    },
    GatedMetric {
        experiment: "E16",
        metric: "post_commit_refresh_slope_us_per_fact",
        direction: Direction::LowerIsBetter,
        tolerance_pct: 100.0,
        abs_floor: 0.05,
    },
    GatedMetric {
        experiment: "E17",
        metric: "batch_speedup_at_max",
        direction: Direction::HigherIsBetter,
        tolerance_pct: 50.0,
        abs_floor: 1.0,
    },
    GatedMetric {
        experiment: "E17",
        metric: "partial_batch_speedup_at_max",
        direction: Direction::HigherIsBetter,
        tolerance_pct: 50.0,
        abs_floor: 1.0,
    },
    GatedMetric {
        experiment: "E18",
        metric: "count_speedup_at_max",
        direction: Direction::HigherIsBetter,
        tolerance_pct: 50.0,
        abs_floor: 1.0,
    },
    GatedMetric {
        experiment: "E18",
        metric: "partial_batch_speedup_at_max",
        direction: Direction::HigherIsBetter,
        tolerance_pct: 50.0,
        abs_floor: 1.0,
    },
    // E19's latency figures from a 1-CPU CI runner are scheduling-bound
    // (the event loop's idle sleep dominates a round trip), so the
    // tolerances are very loose — these gates catch step changes like a
    // lost warm-refresh path or an accidental full-drain per page, not
    // jitter.
    GatedMetric {
        experiment: "E19",
        metric: "fetch_p50_us_at_max",
        direction: Direction::LowerIsBetter,
        tolerance_pct: 200.0,
        abs_floor: 1_000.0,
    },
    GatedMetric {
        experiment: "E19",
        metric: "qps_at_max",
        direction: Direction::HigherIsBetter,
        tolerance_pct: 75.0,
        abs_floor: 100.0,
    },
    GatedMetric {
        experiment: "E19",
        metric: "post_commit_ttfp_us_at_max",
        direction: Direction::LowerIsBetter,
        tolerance_pct: 200.0,
        abs_floor: 3_000.0,
    },
    // The isolation gate is exact (1.0 or 0.0): any drop trips it.
    GatedMetric {
        experiment: "E19",
        metric: "answers_equal",
        direction: Direction::HigherIsBetter,
        tolerance_pct: 0.0,
        abs_floor: 0.5,
    },
    // E20's scaling figure from a 1-CPU CI runner is near 1.0 (four worker
    // processes share one core), so the gate is loose and only catches a
    // collapse — e.g. the work-stealing queue serialising every shard onto
    // one worker.
    GatedMetric {
        experiment: "E20",
        metric: "speedup_4_workers",
        direction: Direction::HigherIsBetter,
        tolerance_pct: 75.0,
        abs_floor: 0.5,
    },
    // Exact gate: every E20 row — including the killed-worker row — must
    // reproduce the sequential answer multiset.
    GatedMetric {
        experiment: "E20",
        metric: "answers_equal",
        direction: Direction::HigherIsBetter,
        tolerance_pct: 0.0,
        abs_floor: 0.5,
    },
];

/// The gated metrics (see [`GATES`]).
pub fn gated_metrics() -> &'static [GatedMetric] {
    GATES
}

/// The experiments that must have been run for a trajectory record —
/// [`GATES`] deduplicated, in order.
pub fn gated_experiments() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for gate in GATES {
        if !out.contains(&gate.experiment) {
            out.push(gate.experiment);
        }
    }
    out
}

/// Version of the gate set; bumping it retires old baselines (the
/// fingerprint changes, so `check` reports "no baseline" instead of
/// comparing incomparable runs).
pub const GATE_SET_VERSION: u32 = 3;

/// The config fingerprint a run is keyed by: the size mode (quick vs full
/// sweeps measure different databases) and the gate-set version.
pub fn fingerprint(quick: bool) -> String {
    format!(
        "{}-v{GATE_SET_VERSION}",
        if quick { "quick" } else { "full" }
    )
}

/// One persisted harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Commit digest the run was produced at (`"unknown"` outside a git
    /// checkout).
    pub commit: String,
    /// Config fingerprint, see [`fingerprint`].
    pub fingerprint: String,
    /// Seconds since the Unix epoch when the record was collected.
    pub unix_time: u64,
    /// Every metric of every gated experiment, keyed `"<exp>/<metric>"`.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// Serialises the record as a single JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| {
                let value = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_owned()
                };
                format!("\"{}\":{}", json_escape(k), value)
            })
            .collect();
        format!(
            "{{\"commit\":\"{}\",\"fingerprint\":\"{}\",\"unix_time\":{},\"metrics\":{{{}}}}}\n",
            json_escape(&self.commit),
            json_escape(&self.fingerprint),
            self.unix_time,
            metrics.join(",")
        )
    }

    /// Parses a record serialised by [`RunRecord::to_json`].
    pub fn from_json(s: &str) -> Result<RunRecord, String> {
        let doc = json::parse(s).map_err(|e| e.to_string())?;
        let commit = doc
            .get("commit")
            .and_then(Json::as_str)
            .ok_or("missing `commit`")?
            .to_owned();
        let fingerprint = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("missing `fingerprint`")?
            .to_owned();
        let unix_time = doc.get("unix_time").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(entries)) = doc.get("metrics") {
            for (k, v) in entries {
                if let Some(x) = v.as_f64() {
                    metrics.insert(k.clone(), x);
                }
            }
        }
        Ok(RunRecord {
            commit,
            fingerprint,
            unix_time,
            metrics,
        })
    }
}

/// One gated metric that moved beyond its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// `"<exp>/<metric>"` key of the offending metric.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (`NaN` when the metric vanished from the run).
    pub current: f64,
    /// Relative change in percent (positive = grew).
    pub change_pct: f64,
    /// The tolerance that was exceeded.
    pub limit_pct: f64,
}

impl Regression {
    /// One human-readable line describing the regression.
    pub fn describe(&self) -> String {
        if self.current.is_nan() {
            return format!(
                "{}: metric missing from the current run (baseline {:.3})",
                self.key, self.baseline
            );
        }
        format!(
            "{}: {:.3} -> {:.3} ({:+.1}%, tolerance ±{:.0}%)",
            self.key, self.baseline, self.current, self.change_pct, self.limit_pct
        )
    }
}

/// Diffs `current` against `baseline` over the [`gated_metrics`] and returns
/// every regression beyond tolerance.  A gated metric missing from `current`
/// is itself a regression (a silently dropped gate must trip CI); one missing
/// from `baseline` is skipped (a gate introduced after the baseline).
pub fn check(baseline: &RunRecord, current: &RunRecord) -> Vec<Regression> {
    let mut out = Vec::new();
    for gate in GATES {
        let key = format!("{}/{}", gate.experiment, gate.metric);
        let Some(&base) = baseline.metrics.get(&key) else {
            continue;
        };
        let Some(&cur) = current.metrics.get(&key) else {
            out.push(Regression {
                key,
                baseline: base,
                current: f64::NAN,
                change_pct: f64::NAN,
                limit_pct: gate.tolerance_pct,
            });
            continue;
        };
        let delta = cur - base;
        let regressed = match gate.direction {
            Direction::LowerIsBetter => {
                delta > gate.abs_floor && cur > base * (1.0 + gate.tolerance_pct / 100.0)
            }
            Direction::HigherIsBetter => {
                -delta > gate.abs_floor && cur < base * (1.0 - gate.tolerance_pct / 100.0)
            }
        };
        if regressed {
            let change_pct = if base != 0.0 {
                delta / base * 100.0
            } else {
                f64::INFINITY
            };
            out.push(Regression {
                key,
                baseline: base,
                current: cur,
                change_pct,
                limit_pct: gate.tolerance_pct,
            });
        }
    }
    out
}

/// Reads the gated experiments' `BENCH_<exp>.json` reports from
/// `reports_dir` into one [`RunRecord`].  Every gated experiment's report
/// must exist — a missing file means the harness did not run the gated
/// suite, and comparing a partial run against the baseline would pass
/// vacuously.
pub fn collect_run(
    reports_dir: &Path,
    fingerprint: &str,
    commit: String,
    unix_time: u64,
) -> Result<RunRecord, String> {
    let mut metrics = BTreeMap::new();
    for exp in gated_experiments() {
        let path = reports_dir.join(format!("BENCH_{exp}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(Json::Obj(entries)) = doc.get("metrics") else {
            return Err(format!("{}: no `metrics` object", path.display()));
        };
        for (name, value) in entries {
            if let Some(x) = value.as_f64() {
                metrics.insert(format!("{exp}/{name}"), x);
            }
        }
    }
    Ok(RunRecord {
        commit,
        fingerprint: fingerprint.to_owned(),
        unix_time,
        metrics,
    })
}

/// Reads the commit digest of `repo_root`'s checkout from `.git/HEAD`
/// directly (no `git` subprocess): a detached HEAD holds the digest, a
/// symbolic one is resolved through `.git/refs/...` or, failing that,
/// `.git/packed-refs`.  Returns `"unknown"` when anything is missing.
pub fn commit_digest(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(digest) = std::fs::read_to_string(git.join(refname)) {
        return digest.trim().to_owned();
    }
    if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
        for line in packed.lines() {
            if let Some(digest) = line.strip_suffix(refname) {
                return digest.trim().to_owned();
            }
        }
    }
    "unknown".to_owned()
}

/// Path of the committed baseline for a fingerprint.
pub fn baseline_path(history_dir: &Path, fingerprint: &str) -> PathBuf {
    history_dir.join(format!("baseline-{fingerprint}.json"))
}

/// Path of the append-only run history for a fingerprint.
pub fn history_path(history_dir: &Path, fingerprint: &str) -> PathBuf {
    history_dir.join(format!("history-{fingerprint}.jsonl"))
}

/// Loads the stored baseline for `fingerprint`, if any.
pub fn load_baseline(history_dir: &Path, fingerprint: &str) -> Result<Option<RunRecord>, String> {
    let path = baseline_path(history_dir, fingerprint);
    match std::fs::read_to_string(&path) {
        Ok(text) => RunRecord::from_json(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Appends `run` to the history (creating `history_dir` if needed) and
/// promotes it to the baseline when `set_baseline` is true or no baseline
/// exists yet for its fingerprint.  Returns whether the baseline was
/// (re)written.
pub fn record(history_dir: &Path, run: &RunRecord, set_baseline: bool) -> Result<bool, String> {
    std::fs::create_dir_all(history_dir)
        .map_err(|e| format!("cannot create {}: {e}", history_dir.display()))?;
    let hist = history_path(history_dir, &run.fingerprint);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&hist)
        .map_err(|e| format!("cannot open {}: {e}", hist.display()))?;
    file.write_all(run.to_json().as_bytes())
        .map_err(|e| format!("cannot append to {}: {e}", hist.display()))?;
    let base = baseline_path(history_dir, &run.fingerprint);
    if set_baseline || !base.exists() {
        std::fs::write(&base, run.to_json())
            .map_err(|e| format!("cannot write {}: {e}", base.display()))?;
        return Ok(true);
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Table;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("omq_trajectory_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_with(metrics: &[(&str, f64)]) -> RunRecord {
        RunRecord {
            commit: "deadbeef".to_owned(),
            fingerprint: fingerprint(true),
            unix_time: 1_700_000_000,
            metrics: metrics.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    fn healthy_run() -> RunRecord {
        run_with(&[
            ("E12/iter_mean_ns_at_max", 500.0),
            ("E12/iter_p99_ns_at_max", 900.0),
            ("E14/ttfa_max_nanos", 20_000.0),
            ("E14/page_mean_ns_at_max", 800.0),
            ("E16/post_commit_refresh_slope_us_per_fact", 0.4),
            ("E17/batch_speedup_at_max", 3.0),
            ("E17/partial_batch_speedup_at_max", 2.0),
            ("E18/count_speedup_at_max", 4.0),
            ("E18/partial_batch_speedup_at_max", 2.0),
            ("E19/fetch_p50_us_at_max", 700.0),
            ("E19/qps_at_max", 1_500.0),
            ("E19/post_commit_ttfp_us_at_max", 4_000.0),
            ("E19/answers_equal", 1.0),
            ("E20/speedup_4_workers", 1.2),
            ("E20/answers_equal", 1.0),
        ])
    }

    #[test]
    fn parser_reads_report_documents() {
        let mut table = Table::new("E0", "a \"title\"\nwith newline", &["x"]);
        table.push_row(vec!["1".to_owned()]);
        table.push_metric("m", 0.5);
        table.push_metric("nan", f64::NAN);
        let doc = json::parse(&table.to_json()).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("E0"));
        assert_eq!(
            doc.get("title").and_then(Json::as_str),
            Some("a \"title\"\nwith newline")
        );
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("m").and_then(Json::as_f64), Some(0.5));
        assert_eq!(metrics.get("nan"), Some(&Json::Null));
        assert!(matches!(doc.get("rows"), Some(Json::Arr(rows)) if rows.len() == 1));
        // Malformed inputs fail instead of panicking.
        assert!(json::parse("{\"a\":").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("{} extra").is_err());
    }

    #[test]
    fn run_record_round_trips() {
        let run = healthy_run();
        let parsed = RunRecord::from_json(&run.to_json()).unwrap();
        assert_eq!(parsed, run);
    }

    #[test]
    fn identical_runs_pass_and_improvements_pass() {
        let base = healthy_run();
        assert!(check(&base, &base).is_empty());
        let mut faster = healthy_run();
        faster
            .metrics
            .insert("E12/iter_mean_ns_at_max".to_owned(), 100.0);
        faster
            .metrics
            .insert("E17/batch_speedup_at_max".to_owned(), 5.0);
        assert!(check(&base, &faster).is_empty());
    }

    #[test]
    fn tenfold_delay_regression_trips_the_gate() {
        let base = healthy_run();
        let mut slow = healthy_run();
        slow.metrics
            .insert("E12/iter_mean_ns_at_max".to_owned(), 5_000.0);
        let regressions = check(&base, &slow);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "E12/iter_mean_ns_at_max");
        assert!(regressions[0].change_pct > 100.0);
        assert!(regressions[0]
            .describe()
            .contains("E12/iter_mean_ns_at_max"));
    }

    #[test]
    fn lost_amortisation_trips_the_speedup_gate() {
        let base = healthy_run();
        let mut unbatched = healthy_run();
        // The batched path silently degrading to per-tuple pulls: 3.0 -> 1.0.
        unbatched
            .metrics
            .insert("E17/batch_speedup_at_max".to_owned(), 1.0);
        let regressions = check(&base, &unbatched);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "E17/batch_speedup_at_max");
        // A small wobble below the baseline does not trip it.
        let mut wobble = healthy_run();
        wobble
            .metrics
            .insert("E17/batch_speedup_at_max".to_owned(), 2.6);
        assert!(check(&base, &wobble).is_empty());
    }

    #[test]
    fn noise_within_tolerance_and_near_zero_baselines_pass() {
        let base = healthy_run();
        let mut noisy = healthy_run();
        noisy
            .metrics
            .insert("E12/iter_mean_ns_at_max".to_owned(), 700.0); // +40% < 100%
        noisy
            .metrics
            .insert("E14/ttfa_max_nanos".to_owned(), 25_000.0); // +25%
        assert!(check(&base, &noisy).is_empty());
        // A ≈0 slope baseline: relative change is huge but the absolute
        // change is below the floor.
        let mut zero_base = healthy_run();
        zero_base.metrics.insert(
            "E16/post_commit_refresh_slope_us_per_fact".to_owned(),
            0.001,
        );
        let mut tiny_wobble = healthy_run();
        tiny_wobble
            .metrics
            .insert("E16/post_commit_refresh_slope_us_per_fact".to_owned(), 0.04);
        assert!(check(&zero_base, &tiny_wobble).is_empty());
    }

    #[test]
    fn missing_gated_metric_is_a_regression() {
        let base = healthy_run();
        let mut partial = healthy_run();
        partial.metrics.remove("E14/ttfa_max_nanos");
        let regressions = check(&base, &partial);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].current.is_nan());
        assert!(regressions[0].describe().contains("missing"));
        // The other direction — a gate the baseline predates — is skipped.
        let mut old_base = healthy_run();
        old_base.metrics.remove("E14/ttfa_max_nanos");
        assert!(check(&old_base, &base).is_empty());
    }

    #[test]
    fn collect_run_reads_reports_and_requires_gated_experiments() {
        let dir = temp_dir("collect");
        for exp in gated_experiments() {
            let mut table = Table::new(exp, "t", &["x"]);
            table.push_metric("some_metric", 1.5);
            std::fs::write(dir.join(format!("BENCH_{exp}.json")), table.to_json()).unwrap();
        }
        let run = collect_run(&dir, "quick-v1", "abc".to_owned(), 42).unwrap();
        assert_eq!(run.commit, "abc");
        assert_eq!(run.metrics.get("E12/some_metric"), Some(&1.5));
        assert_eq!(run.metrics.len(), gated_experiments().len());
        // A gated experiment's report going missing is an error, not a pass.
        std::fs::remove_file(dir.join("BENCH_E16.json")).unwrap();
        assert!(collect_run(&dir, "quick-v1", "abc".to_owned(), 42).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_appends_history_and_promotes_baselines() {
        let dir = temp_dir("record");
        let history = dir.join("bench_history");
        let first = healthy_run();
        // First record becomes the baseline even without --set-baseline.
        assert!(record(&history, &first, false).unwrap());
        let stored = load_baseline(&history, &first.fingerprint)
            .unwrap()
            .unwrap();
        assert_eq!(stored, first);
        // A later record does not displace it...
        let mut second = healthy_run();
        second.commit = "cafe".to_owned();
        assert!(!record(&history, &second, false).unwrap());
        assert_eq!(
            load_baseline(&history, &first.fingerprint)
                .unwrap()
                .unwrap(),
            first
        );
        // ...unless promotion is requested.
        assert!(record(&history, &second, true).unwrap());
        assert_eq!(
            load_baseline(&history, &first.fingerprint)
                .unwrap()
                .unwrap(),
            second
        );
        // Every record landed in the history, one JSON line each.
        let hist = std::fs::read_to_string(history_path(&history, &first.fingerprint)).unwrap();
        assert_eq!(hist.lines().count(), 3);
        for line in hist.lines() {
            RunRecord::from_json(line).unwrap();
        }
        // An unknown fingerprint has no baseline.
        assert!(load_baseline(&history, "full-v999").unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_digest_resolves_head_forms() {
        let dir = temp_dir("digest");
        assert_eq!(commit_digest(&dir), "unknown");
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        // Detached HEAD.
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(commit_digest(&dir), "0123abcd");
        // Symbolic HEAD through a loose ref.
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("refs/heads/main"), "feedface\n").unwrap();
        assert_eq!(commit_digest(&dir), "feedface");
        // Symbolic HEAD through packed-refs only.
        std::fs::remove_file(git.join("refs/heads/main")).unwrap();
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs with: peeled fully-peeled sorted\nabad1dea refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(commit_digest(&dir), "abad1dea");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

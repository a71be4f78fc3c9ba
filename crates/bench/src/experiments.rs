//! The experiment suite (E1–E11) and its table output.
//!
//! Every experiment returns a [`Table`]; the harness binary prints them and
//! `EXPERIMENTS.md` records a reference run together with the paper claim the
//! experiment validates.

use crate::generators::{
    chain, hub, random_bipartite_graph, random_graph, sparse_boolean_matrix, university,
    UniversityConfig,
};
use crate::measure::{linear_fit, measure_stream, DelayStats};
use crate::reductions;
use omq_chase::{ChaseConfig, OntologyMediatedQuery, QchaseConfig};
use omq_core::{baseline::BruteForce, Answer, PreparedInstance, QueryPlan, Semantics};
use omq_cq::acyclicity::AcyclicityReport;
use omq_cq::ConjunctiveQuery;
use omq_data::Database;
use std::ops::ControlFlow;
use std::time::Instant;

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier, e.g. `"E3"`.
    pub id: String,
    /// Human-readable title (the paper artefact it validates).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let render_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// The one-off evaluation path: a plan compiled for, and executed over, one
/// database.
fn prepare_with(
    omq: &OntologyMediatedQuery,
    db: &Database,
    config: &QchaseConfig,
) -> PreparedInstance {
    QueryPlan::compile_with(omq, config)
        .and_then(|plan| plan.execute(db))
        .expect("guarded OMQ")
}

fn prepare(omq: &OntologyMediatedQuery, db: &Database) -> PreparedInstance {
    prepare_with(omq, db, &QchaseConfig::default())
}

/// The answers of one semantics rendered with constant names, in stream
/// order.
fn rendered(instance: &PreparedInstance, semantics: Semantics) -> Vec<String> {
    instance
        .answers(semantics)
        .expect("tractable query")
        .map(|a| instance.format_answer(&a))
        .collect()
}

/// Drains one semantics through `for_each_answer`, ticking per answer.
fn tick_answers(instance: &PreparedInstance, semantics: Semantics, tick: &mut dyn FnMut()) {
    instance
        .for_each_answer(semantics, |_| {
            tick();
            ControlFlow::Continue(())
        })
        .expect("tractable query");
}

fn university_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![250, 500, 1_000, 2_000]
    } else {
        vec![1_000, 2_000, 4_000, 8_000, 16_000, 32_000]
    }
}

fn delay_row(size: usize, facts: usize, stats: &DelayStats) -> Vec<String> {
    vec![
        size.to_string(),
        facts.to_string(),
        format!("{}", stats.preprocess_micros),
        stats.answers.to_string(),
        format!("{}", stats.enumeration_micros),
        format!("{}", stats.mean_delay_nanos),
        format!("{}", stats.p99_delay_nanos),
        format!("{}", stats.max_delay_nanos),
    ]
}

/// E1 — Figure 1: classification of the example queries with respect to the
/// acyclicity notions.
pub fn e1_figure1() -> Table {
    let queries: Vec<(&str, &str)> = vec![
        ("full path", "q(x, y, z) :- R(x, y), S(y, z)"),
        ("projected path", "q(x, z) :- R(x, y), S(y, z)"),
        ("answer triangle", "q(x, y, z) :- R(x, y), S(y, z), T(z, x)"),
        (
            "triangle + pendant path",
            "q(x, y, z) :- R(x, y), S(y, z), T(z, x), U(x, u), V(u, w), W(w, y)",
        ),
        ("quantified triangle", "q() :- R(x, y), S(y, z), T(z, x)"),
    ];
    let mut table = Table::new(
        "E1",
        "Figure 1 — acyclic (ac), free-connex acyclic (fc), weakly acyclic (wac)",
        &["query", "ac", "fc", "wac", "enumeration tractable"],
    );
    for (name, text) in queries {
        let q = ConjunctiveQuery::parse(text).expect("static query");
        let report = AcyclicityReport::classify(&q);
        table.push_row(vec![
            name.to_owned(),
            report.acyclic.to_string(),
            report.free_connex_acyclic.to_string(),
            report.weakly_acyclic.to_string(),
            report.enumeration_tractable().to_string(),
        ]);
    }
    table
}

/// E2 — Proposition 3.3 / Theorem 3.1: the query-directed chase and
/// single-testing scale linearly with the database, along its size (`uni`),
/// along the degree of its values at a fixed size (`hub`) and along the
/// depth of its derivations (`chain`).
pub fn e2_qchase_scaling(quick: bool) -> Table {
    let mut table = Table::new(
        "E2",
        "Query-directed chase: preprocessing time vs database size and degree (expected: linear, flat per fact)",
        &[
            "data",
            "|D| facts",
            "chase µs",
            "µs/fact",
            "bag probes/fact",
            "chased facts",
            "rounds",
            "memo hits/fact",
            "single-test µs",
        ],
    );
    let mut sizes = Vec::new();
    let mut times = Vec::new();
    for researchers in university_sizes(quick) {
        let (omq, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let label = format!("uni, {researchers} researchers");
        let (size, micros) = e2_row(
            &mut table,
            label,
            &omq,
            &db,
            &["person0", "office0", "building0"],
        );
        sizes.push(size);
        times.push(micros);
    }
    let (slope, r2) = linear_fit(&sizes, &times);
    table.push_row(vec![
        "uni linear fit".to_owned(),
        String::new(),
        format!("{slope:.2} µs/fact, R²={r2:.4}"),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    // 1 920 facts at every fan: only the degree of the hub values grows.
    for fan in [32, 128, 320, 640] {
        let (omq, db) = hub(2 * 1_920 / (3 * fan), fan);
        e2_row(
            &mut table,
            format!("hub, fan {fan}"),
            &omq,
            &db,
            &["h0x0", "h0y", "h0z0"],
        );
    }
    // One saturation round deeper per fact.
    let depths: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &n in depths {
        let (omq, db) = chain(n);
        e2_row(&mut table, format!("chain, {n} deep"), &omq, &db, &["a1"]);
    }
    table
}

/// One E2 row: `db` executed four times on one plan.  The first execution
/// fills the bag-type memo; the fastest of the other three times the part
/// that is linear in the data (one millisecond-scale run is too noisy to
/// compare sizes by).  Returns the input size and that warm chase time, for
/// the fit.
fn e2_row(
    table: &mut Table,
    label: String,
    omq: &OntologyMediatedQuery,
    db: &Database,
    probe: &[&str],
) -> (f64, f64) {
    let plan = QueryPlan::compile(omq).expect("guarded OMQ");
    plan.execute(db).expect("guarded OMQ");
    let instance = (0..3)
        .map(|_| plan.execute(db).expect("guarded OMQ"))
        .min_by_key(|instance| instance.stats().chase_micros)
        .expect("three executions");
    let start = Instant::now();
    let _ = instance.test_complete_names(probe).expect("arity matches");
    let test_micros = start.elapsed().as_micros();
    let stats = instance.stats();
    let rounds = plan
        .chase_plan()
        .chase(db)
        .expect("guarded OMQ")
        .saturation_rounds;
    let per_fact = |x: f64| x / stats.input_facts as f64;
    table.push_row(vec![
        label,
        stats.input_facts.to_string(),
        stats.chase_micros.to_string(),
        format!("{:.2}", per_fact(stats.chase_micros as f64)),
        format!("{:.2}", per_fact(stats.bag_probes as f64)),
        stats.chased_facts.to_string(),
        rounds.to_string(),
        format!("{:.2}", per_fact(stats.memo_hits as f64)),
        test_micros.to_string(),
    ]);
    (stats.input_facts as f64, stats.chase_micros as f64)
}

fn enumeration_headers() -> [&'static str; 8] {
    [
        "researchers",
        "|D| facts",
        "preprocess µs",
        "answers",
        "enum µs",
        "mean delay ns",
        "p99 delay ns",
        "max delay ns",
    ]
}

/// E3 — Theorem 4.1(1): constant-delay enumeration of complete answers.
///
/// The preprocessing phase is the query-directed chase plus the construction
/// of the enumeration structure; the delay is measured between consecutive
/// answers only.
pub fn e3_complete_enum(quick: bool) -> Table {
    let mut table = Table::new(
        "E3",
        "Complete-answer enumeration (Theorem 4.1(1)): linear preprocessing, constant delay",
        &enumeration_headers(),
    );
    for researchers in university_sizes(quick) {
        let (omq, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let facts = db.len();
        let stats = measure_stream(
            || {
                prepare(&omq, &db)
                    .complete_structure()
                    .expect("tractable query")
            },
            |structure, tick| {
                for _ in omq_core::AnswerIter::new(structure) {
                    tick();
                }
            },
        );
        table.push_row(delay_row(researchers, facts, &stats));
    }
    table
}

/// E4 — Theorem 4.1(2): all-testing of complete answers.
pub fn e4_all_testing(quick: bool) -> Table {
    let mut table = Table::new(
        "E4",
        "All-testing of complete answers (Theorem 4.1(2)): constant time per test",
        &[
            "researchers",
            "|D| facts",
            "preprocess µs",
            "tests",
            "hits",
            "mean test ns",
        ],
    );
    for researchers in university_sizes(quick) {
        let (omq, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let start = Instant::now();
        let instance = prepare(&omq, &db);
        let tester = instance.all_tester().expect("free-connex query");
        let preprocess_micros = start.elapsed().as_micros();
        // Candidate stream: a mix of true answers and misses.
        let mut candidates: Vec<Vec<omq_data::Value>> = instance
            .answers(Semantics::Complete)
            .expect("tractable")
            .take(500)
            .filter_map(Answer::into_complete)
            .map(|a| a.into_iter().map(omq_data::Value::Const).collect())
            .collect();
        let adom = instance.chased_database().adom_consts();
        for i in 0..candidates.len().max(100) {
            let pick = |k: usize| omq_data::Value::Const(adom[(i * 7 + k) % adom.len()]);
            candidates.push(vec![pick(0), pick(1), pick(2)]);
        }
        let start = Instant::now();
        let mut hits = 0usize;
        for c in &candidates {
            if tester.test(c).expect("arity matches") {
                hits += 1;
            }
        }
        let total = start.elapsed().as_nanos();
        table.push_row(vec![
            researchers.to_string(),
            db.len().to_string(),
            preprocess_micros.to_string(),
            candidates.len().to_string(),
            hits.to_string(),
            (total / candidates.len().max(1) as u128).to_string(),
        ]);
    }
    table
}

/// E5 — Theorem 5.2 / Algorithm 1: enumeration of minimal partial answers.
///
/// Preprocessing = query-directed chase; the stream's first pull builds
/// Algorithm 1's `trees(v,h)` lists, so it carries the max delay.  The delay
/// is measured between consecutive answers.
pub fn e5_partial_enum(quick: bool) -> Table {
    let mut table = Table::new(
        "E5",
        "Minimal partial answers, single wildcard (Algorithm 1 / Theorem 5.2)",
        &enumeration_headers(),
    );
    for researchers in university_sizes(quick) {
        let (omq, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let facts = db.len();
        let stats = measure_stream(
            || prepare(&omq, &db),
            |instance, tick| {
                instance
                    .answers(Semantics::MinimalPartial)
                    .expect("tractable query")
                    .for_each(|_| tick());
            },
        );
        table.push_row(delay_row(researchers, facts, &stats));
    }
    table
}

/// E6 — Theorem 6.1 / Algorithm 2: enumeration of minimal partial answers with
/// multi-wildcards.  Algorithm 2 interleaves its phases (it drives Algorithm 1
/// and the multi-wildcard tester), so the whole run is measured and only the
/// total time and answer counts are reported as delays.
pub fn e6_multi_enum(quick: bool) -> Table {
    let mut table = Table::new(
        "E6",
        "Minimal partial answers with multi-wildcards (Algorithm 2 / Theorem 6.1)",
        &enumeration_headers(),
    );
    for researchers in university_sizes(quick) {
        let (omq, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let facts = db.len();
        let stats = measure_stream(
            || prepare(&omq, &db),
            |instance, tick| tick_answers(instance, Semantics::MinimalPartialMulti, tick),
        );
        table.push_row(delay_row(researchers, facts, &stats));
    }
    table
}

/// E7 — Theorems 3.4/3.6/5.1: the triangle reductions.
pub fn e7_triangle(quick: bool) -> Table {
    let mut table = Table::new(
        "E7",
        "Triangle reductions: tractable vs triangle-hard single-testing",
        &[
            "vertices",
            "edges",
            "has triangle (direct)",
            "reduction agrees",
            "weakly-acyclic test µs",
            "triangle-hard test µs",
        ],
    );
    let sizes: Vec<(usize, usize)> = if quick {
        vec![(64, 192), (128, 384), (256, 768)]
    } else {
        vec![
            (128, 384),
            (256, 768),
            (512, 1536),
            (1024, 3072),
            (2048, 6144),
        ]
    };
    for (i, (n, m)) in sizes.into_iter().enumerate() {
        // Alternate between general graphs and triangle-free graphs.
        let graph = if i % 2 == 0 {
            random_graph(n, m, i as u64)
        } else {
            random_bipartite_graph(n, m, i as u64)
        };
        let direct = reductions::has_triangle_direct(&graph);
        let via_omq = reductions::has_triangle_via_omq(&graph);
        let start = Instant::now();
        let _ = reductions::single_test_workload(&reductions::path_omq(), &graph);
        let easy_micros = start.elapsed().as_micros();
        let start = Instant::now();
        let _ = reductions::single_test_workload(&reductions::triangle_omq(), &graph);
        let hard_micros = start.elapsed().as_micros();
        table.push_row(vec![
            n.to_string(),
            graph.edges.len().to_string(),
            direct.to_string(),
            (direct == via_omq).to_string(),
            easy_micros.to_string(),
            hard_micros.to_string(),
        ]);
    }
    table
}

/// E8 — Theorems 4.4/4.6: the Boolean matrix multiplication reductions.
pub fn e8_bmm(quick: bool) -> Table {
    let mut table = Table::new(
        "E8",
        "BMM reductions: enumerating a non-free-connex query computes the matrix product",
        &[
            "n",
            "|M1|+|M2| ones",
            "|M1·M2| ones",
            "product correct",
            "enumeration µs",
            "direct spBMM µs",
            "free-connex variant µs",
        ],
    );
    let sizes: Vec<(usize, usize)> = if quick {
        vec![(32, 128), (64, 256), (128, 512)]
    } else {
        vec![(64, 256), (128, 512), (256, 1024), (512, 2048)]
    };
    for (n, ones) in sizes {
        let m1 = sparse_boolean_matrix(n, ones, 1);
        let m2 = sparse_boolean_matrix(n, ones, 2);
        let start = Instant::now();
        let direct = m1.multiply(&m2);
        let direct_micros = start.elapsed().as_micros();
        let start = Instant::now();
        let via_enum = reductions::multiply_via_enumeration(&m1, &m2);
        let enum_micros = start.elapsed().as_micros();
        // The free-connex (full) variant enumerated with constant delay.
        let db = reductions::bmm_database(&m1, &m2);
        let start = Instant::now();
        let structure =
            omq_core::FreeConnexStructure::build(&reductions::bmm_full_query(), &db, false)
                .expect("free-connex query");
        let full_count = omq_core::collect_answers(&structure).len();
        let full_micros = start.elapsed().as_micros();
        let _ = full_count;
        table.push_row(vec![
            n.to_string(),
            (m1.ones.len() + m2.ones.len()).to_string(),
            direct.ones.len().to_string(),
            (direct.ones == via_enum.ones).to_string(),
            enum_micros.to_string(),
            direct_micros.to_string(),
            full_micros.to_string(),
        ]);
    }
    table
}

/// E9 — the running example (Examples 1.1 and 2.2) and Proposition 2.1.
pub fn e9_running_example() -> Table {
    let mut table = Table::new(
        "E9",
        "Running example (Examples 1.1 / 2.2) and complete-answers-first ordering (Prop. 2.1)",
        &["mode", "answers"],
    );
    let (omq, db) = crate::experiments::example_1_1();
    let instance = prepare(&omq, &db);
    for (mode, semantics) in [
        ("complete", Semantics::Complete),
        ("minimal partial", Semantics::MinimalPartial),
        ("multi-wildcard", Semantics::MinimalPartialMulti),
    ] {
        table.push_row(vec![
            mode.to_owned(),
            rendered(&instance, semantics).join("  "),
        ]);
    }
    let ordered: Vec<String> = instance
        .enumerate_minimal_partial_complete_first()
        .expect("tractable")
        .iter()
        .map(|a| instance.format_answer(a))
        .collect();
    table.push_row(vec!["complete-first order".to_owned(), ordered.join("  ")]);
    table
}

/// The database and OMQ of Example 1.1.
pub fn example_1_1() -> (omq_chase::OntologyMediatedQuery, omq_data::Database) {
    let omq = omq_chase::OntologyMediatedQuery::new(
        crate::generators::university_ontology(),
        crate::generators::university_query(),
    )
    .expect("static OMQ");
    let db = omq_data::Database::builder(crate::generators::university_schema())
        .fact("Researcher", ["mary"])
        .fact("Researcher", ["john"])
        .fact("Researcher", ["mike"])
        .fact("HasOffice", ["mary", "room1"])
        .fact("HasOffice", ["john", "room4"])
        .fact("InBuilding", ["room1", "main1"])
        .build()
        .expect("static database");
    (omq, db)
}

/// E10 — comparison with the brute-force baseline (who wins, by what factor).
pub fn e10_baseline(quick: bool) -> Table {
    let mut table = Table::new(
        "E10",
        "Constant-delay engine vs brute-force chase-and-join baseline",
        &[
            "researchers",
            "engine total µs (partial answers)",
            "baseline total µs",
            "speed-up",
            "answer sets equal",
        ],
    );
    // The engine's advantage is asymptotic (the baseline recomputes minimality
    // by pairwise comparison, which is quadratic in the number of answers), so
    // the sweep is chosen to show the crossover.
    let sizes = if quick {
        vec![100, 400, 1_600]
    } else {
        vec![400, 1_600, 6_400]
    };
    for researchers in sizes {
        let (omq, db) = university(&UniversityConfig {
            researchers,
            office_ratio: 0.5,
            building_ratio: 0.5,
            ..Default::default()
        });
        let start = Instant::now();
        let instance = prepare(&omq, &db);
        let fast_answers = instance
            .answers(Semantics::MinimalPartial)
            .and_then(|stream| stream.try_collect())
            .expect("tractable");
        let fast_micros = start.elapsed().as_micros();
        let start = Instant::now();
        let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).expect("chase runs");
        let slow_answers = brute.minimal_partial();
        let slow_micros = start.elapsed().as_micros();
        let fast_set: std::collections::BTreeSet<String> = fast_answers
            .iter()
            .map(|a| instance.format_answer(a))
            .collect();
        let slow_set: std::collections::BTreeSet<String> = slow_answers
            .iter()
            .map(|t| t.display_with(|c| brute.chased.const_name(c).to_owned()))
            .collect();
        table.push_row(vec![
            researchers.to_string(),
            fast_micros.to_string(),
            slow_micros.to_string(),
            format!("{:.1}x", slow_micros as f64 / fast_micros.max(1) as f64),
            (fast_set == slow_set).to_string(),
        ]);
    }
    table
}

/// E11 — ablations: chase tree depth and bag memoisation.
pub fn e11_ablation(quick: bool) -> Table {
    let mut table = Table::new(
        "E11",
        "Ablation: query-directed chase memoisation and tree depth",
        &[
            "researchers",
            "memoised chase µs",
            "unmemoised chase µs",
            "depth 2 facts",
            "depth 4 facts",
        ],
    );
    let sizes = if quick {
        vec![500, 1_000]
    } else {
        vec![1_000, 4_000, 16_000]
    };
    for researchers in sizes {
        let (omq, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let start = Instant::now();
        let with_memo = prepare(&omq, &db);
        let memo_micros = start.elapsed().as_micros();
        let start = Instant::now();
        let without_memo = prepare_with(
            &omq,
            &db,
            &QchaseConfig {
                memoize: false,
                ..Default::default()
            },
        );
        let no_memo_micros = start.elapsed().as_micros();
        let at_depth = |depth| {
            prepare_with(
                &omq,
                &db,
                &QchaseConfig {
                    tree_depth: Some(depth),
                    ..Default::default()
                },
            )
        };
        let (shallow, deep) = (at_depth(2), at_depth(4));
        let _ = (&with_memo, &without_memo);
        table.push_row(vec![
            researchers.to_string(),
            memo_micros.to_string(),
            no_memo_micros.to_string(),
            shallow.stats().chased_facts.to_string(),
            deep.stats().chased_facts.to_string(),
        ]);
    }
    table
}

/// An experiment: its id and its entry point, whose flag is `quick` (smaller
/// sizes).
pub type Experiment = (&'static str, fn(bool) -> Table);

/// The suite, in the order [`run_all`] runs it.
pub const EXPERIMENTS: [Experiment; 11] = [
    ("E1", |_| e1_figure1()),
    ("E2", e2_qchase_scaling),
    ("E3", e3_complete_enum),
    ("E4", e4_all_testing),
    ("E5", e5_partial_enum),
    ("E6", e6_multi_enum),
    ("E7", e7_triangle),
    ("E8", e8_bmm),
    ("E9", |_| e9_running_example()),
    ("E10", e10_baseline),
    ("E11", e11_ablation),
];

/// Looks an experiment up by identifier (case-insensitive); `None` for an
/// id outside [`EXPERIMENTS`].
pub fn find_experiment(id: &str) -> Option<Experiment> {
    EXPERIMENTS
        .iter()
        .find(|(known, _)| known.eq_ignore_ascii_case(id))
        .copied()
}

/// Runs one experiment by identifier; `None` for an unknown id.
pub fn run_experiment(id: &str, quick: bool) -> Option<Table> {
    find_experiment(id).map(|(_, run)| run(quick))
}

/// Runs the full suite.
pub fn run_all(quick: bool) -> Vec<Table> {
    EXPERIMENTS.iter().map(|(_, run)| run(quick)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_table_matches_paper() {
        let table = e1_figure1();
        assert_eq!(table.rows.len(), 5);
        // ac column per row: true, true, false, false, false
        let ac: Vec<&str> = table.rows.iter().map(|r| r[1].as_str()).collect();
        assert_eq!(ac, vec!["true", "true", "false", "false", "false"]);
        // fc column: true, false, true, false, false
        let fc: Vec<&str> = table.rows.iter().map(|r| r[2].as_str()).collect();
        assert_eq!(fc, vec!["true", "false", "true", "false", "false"]);
        // wac column: true, true, true, true, false
        let wac: Vec<&str> = table.rows.iter().map(|r| r[3].as_str()).collect();
        assert_eq!(wac, vec!["true", "true", "true", "true", "false"]);
        assert!(table.render().contains("E1"));
    }

    #[test]
    fn running_example_table() {
        let table = e9_running_example();
        assert_eq!(table.rows.len(), 4);
        assert!(table.rows[0][1].contains("(mary,room1,main1)"));
        assert!(table.rows[1][1].contains("(mike,*,*)"));
        assert!(table.rows[2][1].contains("(mike,*1,*2)"));
    }

    #[test]
    fn small_scaling_tables_have_rows() {
        // Use tiny sizes through the quick flag to keep the test fast.
        let table = e2_qchase_scaling(true);
        assert!(table.rows.len() >= 4);
        let table = e10_baseline(true);
        assert!(table.rows.iter().all(|r| r[4] == "true"));
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("E99", true).is_none());
        // The retired system measurements are unknown ids too.
        for retired in 12..=20 {
            assert!(run_experiment(&format!("E{retired}"), true).is_none());
        }
    }
}

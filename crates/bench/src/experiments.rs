//! The experiment suite (E1–E20) and its table output.
//!
//! Every experiment returns a [`Table`]; the harness binary prints them,
//! writes the machine-readable `BENCH_<exp>.json` counterparts (see
//! [`crate::report`]), and `EXPERIMENTS.md` records a reference run together
//! with the paper claim the experiment validates.

use crate::generators::{
    clustered_university, random_bipartite_graph, random_graph, sparse_boolean_matrix, university,
    ClusteredConfig, UniversityConfig,
};
use crate::measure::{
    linear_fit, measure_drain, measure_iterator, measure_stream, measure_take_k, DelayStats,
};
use crate::reductions;
use omq_chase::{ChaseConfig, FactArena, OntologyMediatedQuery, QchaseConfig};
use omq_core::{
    baseline::BruteForce, Answer, PartialEnumerator, PreparedInstance, QueryPlan, Semantics,
};
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
    /// Summary scalars exported to the JSON report (name → value).
    pub metrics: Vec<(String, f64)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Records a summary scalar for the JSON report.
    pub fn push_metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
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
/// single-testing scale linearly with the database.
pub fn e2_qchase_scaling(quick: bool) -> Table {
    let mut table = Table::new(
        "E2",
        "Query-directed chase: preprocessing time vs database size (expected: linear)",
        &[
            "researchers",
            "|D| facts",
            "chase µs",
            "chased facts",
            "memo hits",
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
        let start = Instant::now();
        let instance = prepare(&omq, &db);
        let chase_micros = start.elapsed().as_micros();
        let start = Instant::now();
        let _ = instance
            .test_complete_names(&["person0", "office0", "building0"])
            .expect("arity matches");
        let test_micros = start.elapsed().as_micros();
        sizes.push(db.len() as f64);
        times.push(chase_micros as f64);
        table.push_row(vec![
            researchers.to_string(),
            db.len().to_string(),
            chase_micros.to_string(),
            instance.stats().chased_facts.to_string(),
            instance.stats().memo_hits.to_string(),
            test_micros.to_string(),
        ]);
    }
    let (slope, r2) = linear_fit(&sizes, &times);
    table.push_row(vec![
        "linear fit".to_owned(),
        String::new(),
        format!("{slope:.2} µs/fact, R²={r2:.4}"),
        String::new(),
        String::new(),
        String::new(),
    ]);
    table
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
/// Preprocessing = query-directed chase + Algorithm 1 preprocessing (the
/// `trees(v,h)` lists); the delay is measured between consecutive answers.
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
            || {
                Some(
                    prepare(&omq, &db)
                        .partial_enumerator()
                        .expect("tractable query"),
                )
            },
            |enumerator, tick| {
                enumerator
                    .take()
                    .expect("enumerator built in preprocessing")
                    .enumerate(|_| tick())
                    .expect("tractable query");
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

/// Reference enumerator for E12: the pre-refactor per-answer loop, walking
/// the hash index (`FxHashMap<Tuple, Vec<usize>>`) of every node with a
/// hash-map variable assignment, instead of the dense CSR parent joins.
fn enumerate_via_hash_index(
    structure: &omq_core::FreeConnexStructure,
    tick: &mut dyn FnMut(&rustc_hash::FxHashMap<omq_cq::VarId, omq_data::Value>),
) {
    use omq_cq::VarId;
    use omq_data::Value;
    use rustc_hash::FxHashMap;
    if structure.boolean_satisfiable == Some(true) {
        tick(&FxHashMap::default());
        return;
    }
    if structure.empty || structure.boolean_satisfiable.is_some() {
        return;
    }
    fn go(
        structure: &omq_core::FreeConnexStructure,
        depth: usize,
        assignment: &mut FxHashMap<VarId, Value>,
        tick: &mut dyn FnMut(&FxHashMap<VarId, Value>),
    ) {
        if depth == structure.preorder.len() {
            tick(assignment);
            return;
        }
        let node = structure.preorder[depth];
        let node_data = &structure.nodes[node];
        let key: Vec<Value> = node_data.pred_vars.iter().map(|v| assignment[v]).collect();
        let Some(candidates) = node_data.index.get(&key) else {
            return;
        };
        for &tuple_idx in candidates {
            let tuple = node_data.extension.tuple(tuple_idx);
            let mut newly_bound: Vec<VarId> = Vec::new();
            for (pos, &var) in node_data.extension.vars.iter().enumerate() {
                if let std::collections::hash_map::Entry::Vacant(e) = assignment.entry(var) {
                    e.insert(tuple[pos]);
                    newly_bound.push(var);
                }
            }
            go(structure, depth + 1, assignment, tick);
            for var in newly_bound {
                assignment.remove(&var);
            }
        }
    }
    let mut assignment = FxHashMap::default();
    go(structure, 0, &mut assignment, tick);
}

/// E12 — the plan/instance split: plan-reuse amortisation (one compiled
/// `QueryPlan` executed over many databases, chase memo shared) and the
/// delay distributions of the columnar (dense CSR) enumeration loop versus
/// the old hash-index loop.  Also cross-checks, per database, that the reused
/// plan agrees answer-for-answer with a plan compiled for that database alone.
pub fn e12_plan_columnar(quick: bool) -> Table {
    let mut table = Table::new(
        "E12",
        "Plan reuse amortisation and columnar-vs-hash per-answer delay",
        &[
            "researchers",
            "|D| facts",
            "plan exec µs",
            "fresh plan µs",
            "memo hits",
            "answers",
            "dense mean ns",
            "dense p99 ns",
            "iter mean ns",
            "iter p99 ns",
            "hash mean ns",
            "partial mean ns",
            "answers equal",
        ],
    );
    let (omq, _) = university(&UniversityConfig {
        researchers: 1,
        ..Default::default()
    });
    let compile_start = Instant::now();
    let plan = QueryPlan::compile(&omq).expect("guarded OMQ");
    let compile_micros = compile_start.elapsed().as_micros() as f64;

    let mut facts_axis: Vec<f64> = Vec::new();
    let mut dense_means: Vec<f64> = Vec::new();
    let mut dense_p99s: Vec<f64> = Vec::new();
    let mut iter_means: Vec<f64> = Vec::new();
    let mut iter_p99s: Vec<f64> = Vec::new();
    let mut exec_micros_total = 0f64;
    let mut fresh_micros_total = 0f64;
    for researchers in university_sizes(quick) {
        let (_, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let facts = db.len();
        // A plan compiled per database: recompiles the query side and starts
        // with a cold chase memo every time.
        let start = Instant::now();
        let fresh = prepare(&omq, &db);
        let fresh_micros = start.elapsed().as_micros();
        // The compiled plan: query artefacts and chase memo amortised.
        let start = Instant::now();
        let instance = plan.execute(&db).expect("guarded OMQ");
        let exec_micros = start.elapsed().as_micros();
        exec_micros_total += exec_micros as f64;
        fresh_micros_total += fresh_micros as f64;

        // Delay distribution of the dense columnar enumeration loop.
        let dense = measure_stream(
            || instance.complete_structure().expect("tractable query"),
            |structure, tick| {
                for _ in omq_core::AnswerIter::new(structure) {
                    tick();
                }
            },
        );
        // The same answers through the pull-based cursor API — the metric a
        // caller of `answers(Semantics::Complete)` actually experiences.
        let iter = measure_iterator(|| {
            instance
                .answers(Semantics::Complete)
                .expect("tractable query")
        });
        // The same answers through the old hash-index loop.
        let hash = measure_stream(
            || instance.complete_structure().expect("tractable query"),
            |structure, tick| {
                enumerate_via_hash_index(structure, &mut |_| tick());
            },
        );
        // Minimal partial answers through the dense Algorithm 1 loop.
        let partial = measure_stream(
            || Some(instance.partial_enumerator().expect("tractable query")),
            |enumerator, tick| {
                enumerator
                    .take()
                    .expect("enumerator built in preprocessing")
                    .enumerate(|_| tick())
                    .expect("tractable query");
            },
        );

        // Answer-for-answer agreement of the reused plan with the fresh one,
        // on all three semantics (multi-wildcards only at the smaller sizes
        // to keep the experiment's runtime bounded).
        let mut equal = Semantics::ALL
            .into_iter()
            .filter(|&sem| sem != Semantics::MinimalPartialMulti || researchers <= 1_000)
            .all(|sem| {
                let sorted = |instance: &PreparedInstance| {
                    let mut answers = rendered(instance, sem);
                    answers.sort();
                    answers
                };
                sorted(&instance) == sorted(&fresh)
            });
        equal &= dense.answers == hash.answers;
        equal &= dense.answers == iter.answers;

        facts_axis.push(facts as f64);
        dense_means.push(dense.mean_delay_nanos as f64);
        dense_p99s.push(dense.p99_delay_nanos as f64);
        iter_means.push(iter.mean_delay_nanos as f64);
        iter_p99s.push(iter.p99_delay_nanos as f64);
        table.push_row(vec![
            researchers.to_string(),
            facts.to_string(),
            exec_micros.to_string(),
            fresh_micros.to_string(),
            instance.stats().memo_hits.to_string(),
            dense.answers.to_string(),
            dense.mean_delay_nanos.to_string(),
            dense.p99_delay_nanos.to_string(),
            iter.mean_delay_nanos.to_string(),
            iter.p99_delay_nanos.to_string(),
            hash.mean_delay_nanos.to_string(),
            partial.mean_delay_nanos.to_string(),
            equal.to_string(),
        ]);
    }
    let (delay_slope, _) = linear_fit(&facts_axis, &dense_means);
    table.push_metric("plan_compile_micros", compile_micros);
    table.push_metric("plan_exec_micros_total", exec_micros_total);
    table.push_metric("fresh_engine_micros_total", fresh_micros_total);
    table.push_metric(
        "amortisation_speedup",
        fresh_micros_total / exec_micros_total.max(1.0),
    );
    // Flat per-answer delay ⟺ slope ≈ 0 ns per fact.
    table.push_metric("dense_delay_slope_ns_per_fact", delay_slope);
    let (iter_slope, _) = linear_fit(&facts_axis, &iter_means);
    table.push_metric("iter_delay_slope_ns_per_fact", iter_slope);
    // Absolute per-answer delay at the largest database — mean and p99, the
    // trajectory-gated "constant" of DelayClin (see `crate::trajectory`).
    table.push_metric(
        "dense_mean_ns_at_max",
        dense_means.last().copied().unwrap_or(0.0),
    );
    table.push_metric(
        "dense_p99_ns_at_max",
        dense_p99s.last().copied().unwrap_or(0.0),
    );
    table.push_metric(
        "iter_mean_ns_at_max",
        iter_means.last().copied().unwrap_or(0.0),
    );
    table.push_metric(
        "iter_p99_ns_at_max",
        iter_p99s.last().copied().unwrap_or(0.0),
    );
    table
}

/// E13 — shared-nothing parallel execution: speedup of
/// `QueryPlan::execute_parallel` versus thread count on a component-rich
/// clustered workload, plus the per-answer delay of the merged (chained)
/// enumeration, which must stay flat as threads are added.
///
/// The chase memo is warmed before the sweep so that every run measures the
/// steady-state serving path (sharding + parallel chase + merge), not the
/// first-run bag-type discovery.  Every parallel run is cross-checked
/// answer-for-answer (as multisets) against the sequential baseline on both
/// the complete and the minimal-partial semantics.
pub fn e13_parallel_speedup(quick: bool) -> Table {
    use std::collections::BTreeMap;
    let mut table = Table::new(
        "E13",
        "Parallel execution: Gaifman-sharded chase, speedup vs thread count",
        &[
            "threads",
            "shards",
            "exec µs",
            "speedup",
            "answers",
            "mean delay ns",
            "p99 delay ns",
            "answers equal",
        ],
    );
    let config = if quick {
        ClusteredConfig {
            clusters: 8,
            researchers_per_cluster: 125,
            ..Default::default()
        }
    } else {
        ClusteredConfig {
            clusters: 16,
            researchers_per_cluster: 500,
            ..Default::default()
        }
    };
    let (omq, db) = clustered_university(&config);
    let plan = QueryPlan::compile(&omq).expect("guarded OMQ");
    // Warm the shared chase memo (bag-type tables are data-independent).
    let _ = plan.execute(&db).expect("guarded OMQ");
    let start = Instant::now();
    let sequential = plan.execute(&db).expect("guarded OMQ");
    let sequential_micros = start.elapsed().as_micros().max(1);
    let answer_multisets = |instance: &PreparedInstance| {
        [Semantics::Complete, Semantics::MinimalPartial].map(|sem| {
            let mut multiset: BTreeMap<Answer, usize> = BTreeMap::new();
            for a in instance.answers(sem).expect("tractable query") {
                *multiset.entry(a).or_default() += 1;
            }
            multiset
        })
    };
    let baseline = answer_multisets(&sequential);

    let mut mean_delay_1t = 0f64;
    for threads in [1usize, 2, 4, 8] {
        let stats = measure_stream(
            || plan.execute_parallel(&db, threads).expect("guarded OMQ"),
            |instance, tick| tick_answers(instance, Semantics::MinimalPartial, tick),
        );
        let exec_micros = stats.preprocess_micros.max(1);
        let speedup = sequential_micros as f64 / exec_micros as f64;
        // Untimed verification run.
        let instance = plan.execute_parallel(&db, threads).expect("guarded OMQ");
        let equal = answer_multisets(&instance) == baseline;
        if threads == 1 {
            mean_delay_1t = stats.mean_delay_nanos as f64;
        } else {
            table.push_metric(&format!("speedup_{threads}_threads"), speedup);
        }
        if threads == 4 {
            table.push_metric(
                "delay_ratio_4_threads_vs_1",
                stats.mean_delay_nanos as f64 / mean_delay_1t.max(1.0),
            );
        }
        table.push_row(vec![
            threads.to_string(),
            instance.shard_count().to_string(),
            exec_micros.to_string(),
            format!("{speedup:.2}x"),
            stats.answers.to_string(),
            stats.mean_delay_nanos.to_string(),
            stats.p99_delay_nanos.to_string(),
            equal.to_string(),
        ]);
    }
    table.push_metric("sequential_exec_micros", sequential_micros as f64);
    table.push_metric("input_facts", db.len() as f64);
    table.push_metric("components", db.component_count() as f64);
    table
}

/// E14 — the answer-cursor API: time-to-first-answer and `take(k)` cost
/// versus database size, through `PreparedInstance::answers(Semantics)`.
///
/// The paper's DelayClin guarantee, read as an API contract, says: after the
/// linear preprocessing, the first answer arrives after O(1) further work and
/// the first `k` answers after `O(k)` — independent of `|D|`.  This
/// experiment sweeps the database size, times the cursor construction
/// (preprocessing), the delay to the first `next()` (TTFA) and a
/// `take(k)` page on the minimal-partial semantics, and fits the per-fact
/// slope of the page cost, which must be ~flat.  Every row also verifies the
/// **prefix property** on all three semantics: `answers(sem).take(k)` equals
/// the first `k` answers of the full enumeration (the CI gate).
pub fn e14_cursor_pagination(quick: bool) -> Table {
    const K: usize = 64;
    let mut table = Table::new(
        "E14",
        "Answer cursor: time-to-first-answer and take(k) cost vs |D|",
        &[
            "researchers",
            "|D| facts",
            "answers() µs",
            "ttfa ns",
            "take(64) µs",
            "page mean ns",
            "page p99 ns",
            "full answers",
            "full enum µs",
            "prefix ok",
        ],
    );
    let (omq, _) = university(&UniversityConfig {
        researchers: 1,
        ..Default::default()
    });
    let plan = QueryPlan::compile(&omq).expect("guarded OMQ");

    let mut facts_axis: Vec<f64> = Vec::new();
    let mut page_nanos: Vec<f64> = Vec::new();
    let mut page_means: Vec<f64> = Vec::new();
    let mut page_p99s: Vec<f64> = Vec::new();
    let mut ttfa_nanos: Vec<f64> = Vec::new();
    for researchers in university_sizes(quick) {
        let (_, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let facts = db.len();
        let instance = plan.execute(&db).expect("guarded OMQ");

        // A `take(k)` page: cursor construction (= enumeration
        // preprocessing) plus k constant-work `next()` calls.
        let page = measure_take_k(
            || {
                instance
                    .answers(Semantics::MinimalPartial)
                    .expect("tractable query")
            },
            K,
        );
        // The full enumeration through the same cursor, for scale.
        let full = measure_iterator(|| {
            instance
                .answers(Semantics::MinimalPartial)
                .expect("tractable query")
        });

        // Prefix property on all three semantics (multi-wildcards only at
        // the smaller sizes: Algorithm 2's tester dominates beyond that).
        let mut prefix_ok = true;
        for sem in Semantics::ALL {
            if sem == Semantics::MinimalPartialMulti && researchers > 1_000 {
                continue;
            }
            let all: Vec<Answer> = instance.answers(sem).expect("tractable query").collect();
            let prefix: Vec<Answer> = instance
                .answers(sem)
                .expect("tractable query")
                .take(K)
                .collect();
            prefix_ok &= prefix == all[..K.min(all.len())];
        }

        facts_axis.push(facts as f64);
        page_nanos.push(page.enumeration_micros as f64 * 1e3);
        page_means.push(page.mean_delay_nanos as f64);
        page_p99s.push(page.p99_delay_nanos as f64);
        ttfa_nanos.push(page.first_delay_nanos as f64);
        table.push_row(vec![
            researchers.to_string(),
            facts.to_string(),
            page.preprocess_micros.to_string(),
            page.first_delay_nanos.to_string(),
            page.enumeration_micros.to_string(),
            page.mean_delay_nanos.to_string(),
            page.p99_delay_nanos.to_string(),
            full.answers.to_string(),
            full.enumeration_micros.to_string(),
            prefix_ok.to_string(),
        ]);
    }
    // The flat-delay assertion: the cost of a k-answer page must not grow
    // with the database (slope in ns per fact ≈ 0; preprocessing, which is
    // allowed to grow linearly, is excluded).
    let (page_slope, _) = linear_fit(&facts_axis, &page_nanos);
    let (ttfa_slope, _) = linear_fit(&facts_axis, &ttfa_nanos);
    table.push_metric("take_k", K as f64);
    table.push_metric("take_k_slope_ns_per_fact", page_slope);
    table.push_metric("ttfa_slope_ns_per_fact", ttfa_slope);
    table.push_metric(
        "ttfa_max_nanos",
        ttfa_nanos.iter().copied().fold(0.0, f64::max),
    );
    // Absolute page-delay constants at the largest database — mean and p99,
    // gated by the perf-trajectory lab (see `crate::trajectory`).
    table.push_metric(
        "page_mean_ns_at_max",
        page_means.last().copied().unwrap_or(0.0),
    );
    table.push_metric(
        "page_p99_ns_at_max",
        page_p99s.last().copied().unwrap_or(0.0),
    );
    table
}

/// E15 — the session API: ingest throughput through transactional commits,
/// and the post-commit time-to-first-answer of a fresh snapshot, versus
/// store size.
///
/// The session model (`Store` / `Txn` / `Snapshot` + `ServingEngine`) claims
/// that (1) data changes are batch commits whose cost is linear in the batch,
/// (2) a pinned snapshot's answers are immune to concurrent commits, and
/// (3) a fresh snapshot sees the new facts through the *same* compiled plan,
/// paying only the data-linear preprocessing again.  This experiment ingests
/// the university workload through fixed-size transactions, then pins a
/// snapshot, commits a late batch, and checks:
///
/// * the pinned snapshot's answer multiset is unchanged (isolation),
/// * the fresh snapshot's answers equal a from-scratch evaluation of the
///   merged database (freshness) — both folded into the `answers equal`
///   column, the CI gate;
/// * the post-commit TTFA (plan execution over the fresh snapshot + the
///   first `next()`) as the store grows — linear in `|D|` by the paper's
///   preprocessing bound, with the cursor delay itself flat.
pub fn e15_live_store(quick: bool) -> Table {
    const FACTS_PER_TXN: usize = 256;
    let mut table = Table::new(
        "E15",
        "Live store: txn ingest throughput and post-commit snapshot TTFA",
        &[
            "researchers",
            "|D| facts",
            "txns",
            "ingest µs",
            "facts/s",
            "epoch",
            "ttfa µs",
            "first next() ns",
            "answers",
            "answers equal",
        ],
    );
    let (omq, _) = university(&UniversityConfig {
        researchers: 1,
        ..Default::default()
    });

    let mut facts_axis: Vec<f64> = Vec::new();
    let mut ttfa_micros_axis: Vec<f64> = Vec::new();
    let mut last_throughput = 0.0f64;
    for researchers in university_sizes(quick) {
        let (_, generated) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });

        // The session: one engine, one registered query, one store.
        let mut engine = omq_serve::ServingEngine::new(2);
        let q = engine.register_query("office", &omq).expect("guarded OMQ");

        // Ingest the generated facts through fixed-size transactions.
        let ingest_start = Instant::now();
        let mut txn = omq_serve::Txn::new();
        let mut staged = 0usize;
        let mut txns = 0usize;
        for fact in generated.facts() {
            let rel = generated.schema().name(fact.rel);
            let args: Vec<&str> = fact
                .args
                .iter()
                .map(|&v| match v {
                    omq_data::Value::Const(c) => generated.const_name(c),
                    omq_data::Value::Null(_) => unreachable!("generator emits S-databases"),
                })
                .collect();
            txn = txn.insert(rel, &args);
            staged += 1;
            if staged == FACTS_PER_TXN {
                engine.register_data(txn).expect("valid batch");
                txn = omq_serve::Txn::new();
                staged = 0;
                txns += 1;
            }
        }
        if staged > 0 {
            engine.register_data(txn).expect("valid batch");
            txns += 1;
        }
        let ingest_micros = ingest_start.elapsed().as_micros();
        let facts = engine.store().len();
        let throughput = if ingest_micros == 0 {
            0.0
        } else {
            facts as f64 / (ingest_micros as f64 / 1e6)
        };
        last_throughput = throughput;

        // Pin the loaded epoch and record its answers.
        let pinned = engine.snapshot();
        // Plans are cheap clones (shared `Arc` state): clone the handle out
        // of the engine so the later `register_data` commit can borrow it
        // mutably — the very pattern a writer task uses in production.
        let plan = engine.plan(q).expect("registered").clone();
        let mut before: Vec<Answer> = plan
            .execute(&pinned)
            .expect("guarded OMQ")
            .answers(Semantics::MinimalPartial)
            .expect("tractable query")
            .collect();
        before.sort();

        // A late commit: complete chains, so fresh snapshots gain answers.
        let late: Vec<[String; 2]> = (0..8)
            .map(|i| [format!("zz_extra{i}"), format!("zz_office{i}")])
            .collect();
        let late_buildings: Vec<[String; 2]> = (0..8)
            .map(|i| [format!("zz_office{i}"), "zz_hq".to_owned()])
            .collect();
        engine
            .register_data(
                omq_serve::Txn::new()
                    .insert_all("HasOffice", &late)
                    .insert_all("InBuilding", &late_buildings),
            )
            .expect("valid batch");

        // Isolation: the pinned snapshot's answer multiset is unchanged.
        let mut pinned_after: Vec<Answer> = plan
            .execute(&pinned)
            .expect("guarded OMQ")
            .answers(Semantics::MinimalPartial)
            .expect("tractable query")
            .collect();
        pinned_after.sort();
        let isolated = pinned_after == before;

        // Freshness: a fresh snapshot equals a from-scratch evaluation of
        // the merged database (generator facts + the late batch).
        let fresh = engine.snapshot();
        let page = measure_take_k(
            || {
                plan.execute(&fresh)
                    .expect("guarded OMQ")
                    .answers(Semantics::MinimalPartial)
                    .expect("tractable query")
            },
            1,
        );
        let mut merged = generated.clone();
        for row in &late {
            merged
                .add_named_fact("HasOffice", row)
                .expect("schema fits");
        }
        for row in &late_buildings {
            merged
                .add_named_fact("InBuilding", row)
                .expect("schema fits");
        }
        let reference_instance = plan.execute(&merged).expect("guarded OMQ");
        let mut reference: Vec<String> = reference_instance
            .answers(Semantics::MinimalPartial)
            .expect("tractable query")
            .map(|a| reference_instance.format_answer(&a))
            .collect();
        reference.sort();
        let fresh_instance = plan.execute(&fresh).expect("guarded OMQ");
        let mut fresh_answers: Vec<String> = fresh_instance
            .answers(Semantics::MinimalPartial)
            .expect("tractable query")
            .map(|a| fresh_instance.format_answer(&a))
            .collect();
        fresh_answers.sort();
        let fresh_matches = fresh_answers == reference;
        let gained = fresh_answers.len() > before.len();
        let answers_equal = isolated && fresh_matches && gained;

        let ttfa_micros = page.preprocess_micros + page.first_delay_nanos / 1_000;
        facts_axis.push(facts as f64);
        ttfa_micros_axis.push(ttfa_micros as f64);
        table.push_row(vec![
            researchers.to_string(),
            facts.to_string(),
            txns.to_string(),
            ingest_micros.to_string(),
            format!("{throughput:.0}"),
            engine.epoch().to_string(),
            ttfa_micros.to_string(),
            page.first_delay_nanos.to_string(),
            fresh_answers.len().to_string(),
            answers_equal.to_string(),
        ]);
    }
    let (ttfa_slope, _) = linear_fit(&facts_axis, &ttfa_micros_axis);
    table.push_metric("facts_per_txn", FACTS_PER_TXN as f64);
    table.push_metric("ingest_facts_per_sec", last_throughput);
    table.push_metric("post_commit_ttfa_slope_us_per_fact", ttfa_slope);
    table.push_metric(
        "post_commit_ttfa_max_us",
        ttfa_micros_axis.iter().copied().fold(0.0, f64::max),
    );
    table
}

/// E16 — incremental maintenance: the post-commit time-to-first-answer of a
/// delta-chase refresh versus a full rebuild, as the store grows.
///
/// `PreparedInstance::refresh` claims that after a component-local commit,
/// only the dirty shards — packs of whole Gaifman components, at most 64
/// facts unless one component is larger — are re-chased and re-indexed while
/// every untouched shard is spliced in by pointer — so the post-commit TTFA
/// is proportional to the *delta*, not to `|D|`.  This experiment loads the
/// clustered (component-rich) university workload through a `Store`, commits
/// a fixed six-fact single-component delta, and times, at growing `|D|`:
///
/// * **refresh ttfa** — `refresh(head, receipt)` + first `next()` of the
///   answer stream (the fresh, delta-sized shard streams first);
/// * **rebuild ttfa** — from-scratch `QueryPlan::execute` + first `next()`.
///
/// The `answers equal` column is the CI gate: the refreshed instance must
/// reuse at least one shard *and* agree with the from-scratch evaluation on
/// every semantics.  The exported slopes are the delta-proportionality
/// metric: the rebuild TTFA grows linearly in `|D|` while the refresh TTFA
/// stays ~flat (its slope is bounded by the per-fact cost of the dirty-set
/// computation, orders of magnitude below the rebuild slope).  The `shards`,
/// `components` and `rechased facts` columns say the same in counts: shards
/// follow `|D| / 64` rather than the component count, and the re-chase stays
/// within one pack.
pub fn e16_incremental_maintenance(quick: bool) -> Table {
    let mut table = Table::new(
        "E16",
        "Delta-chase refresh: post-commit TTFA vs full rebuild",
        &[
            "clusters",
            "|D| facts",
            "shards",
            "reused",
            "components",
            "rechased facts",
            "delta facts",
            "refresh ttfa µs",
            "rebuild ttfa µs",
            "speedup",
            "answers equal",
        ],
    );
    let per_cluster = if quick { 64 } else { 250 };
    let cluster_counts: Vec<usize> = if quick {
        vec![4, 8, 16, 32]
    } else {
        vec![16, 32, 64, 128, 256]
    };

    let mut facts_axis: Vec<f64> = Vec::new();
    let mut refresh_axis: Vec<f64> = Vec::new();
    let mut rebuild_axis: Vec<f64> = Vec::new();
    let mut last_speedup = 0.0f64;
    let mut delta_facts = 0usize;
    for clusters in cluster_counts {
        let (omq, generated) = clustered_university(&ClusteredConfig {
            clusters,
            researchers_per_cluster: per_cluster,
            ..Default::default()
        });
        let plan = QueryPlan::compile(&omq).expect("guarded OMQ");

        // Load the generated facts through the transactional store.
        let mut store = omq_data::Store::new(generated.schema().clone());
        let mut txn = omq_data::Txn::new();
        for fact in generated.facts() {
            let rel = generated.schema().name(fact.rel);
            let args: Vec<&str> = fact
                .args
                .iter()
                .map(|&v| match v {
                    omq_data::Value::Const(c) => generated.const_name(c),
                    omq_data::Value::Null(_) => unreachable!("generator emits S-databases"),
                })
                .collect();
            txn = txn.insert(rel, &args);
        }
        store.commit(txn).expect("valid load");
        let baseline = plan.execute_tracked(store.snapshot()).expect("guarded OMQ");

        // The fixed-size, component-local delta: one fresh building holding
        // two complete researcher chains — a single new Gaifman component.
        let receipt = store
            .commit(
                omq_data::Txn::new()
                    .insert("Researcher", ["delta_p0"])
                    .insert("HasOffice", ["delta_p0", "delta_o0"])
                    .insert("InBuilding", ["delta_o0", "delta_hq"])
                    .insert("Researcher", ["delta_p1"])
                    .insert("HasOffice", ["delta_p1", "delta_o1"])
                    .insert("InBuilding", ["delta_o1", "delta_hq"]),
            )
            .expect("valid delta");
        delta_facts = receipt.new_facts;
        let head = store.snapshot();
        let facts = store.len();

        // Post-commit TTFA, both ways: build-to-first-answer, end to end.
        let refresh_page = measure_take_k(
            || {
                baseline
                    .refresh(&head, &receipt)
                    .expect("incremental refresh")
                    .answers(Semantics::MinimalPartial)
                    .expect("tractable query")
            },
            1,
        );
        let rebuild_page = measure_take_k(
            || {
                plan.execute(&head)
                    .expect("guarded OMQ")
                    .answers(Semantics::MinimalPartial)
                    .expect("tractable query")
            },
            1,
        );

        // The gate: the refresh was genuinely incremental (shards reused)
        // and indistinguishable from a from-scratch evaluation.
        let refreshed = baseline
            .refresh(&head, &receipt)
            .expect("incremental refresh");
        let scratch = plan.execute(&head).expect("guarded OMQ");
        let mut answers_equal = refreshed.stats().reused_shards > 0;
        for sem in Semantics::ALL {
            // Algorithm 2's tester dominates beyond this size (cf. E14).
            if sem == Semantics::MinimalPartialMulti && facts > 20_000 {
                continue;
            }
            let mut incremental: Vec<String> = refreshed
                .answers(sem)
                .expect("tractable query")
                .map(|a| refreshed.format_answer(&a))
                .collect();
            let mut reference: Vec<String> = scratch
                .answers(sem)
                .expect("tractable query")
                .map(|a| scratch.format_answer(&a))
                .collect();
            incremental.sort();
            reference.sort();
            answers_equal &= incremental == reference;
        }

        let refresh_ttfa = refresh_page.preprocess_micros + refresh_page.first_delay_nanos / 1_000;
        let rebuild_ttfa = rebuild_page.preprocess_micros + rebuild_page.first_delay_nanos / 1_000;
        let speedup = rebuild_ttfa as f64 / refresh_ttfa.max(1) as f64;
        last_speedup = speedup;
        facts_axis.push(facts as f64);
        refresh_axis.push(refresh_ttfa as f64);
        rebuild_axis.push(rebuild_ttfa as f64);
        table.push_row(vec![
            clusters.to_string(),
            facts.to_string(),
            refreshed.shard_count().to_string(),
            refreshed.stats().reused_shards.to_string(),
            refreshed.stats().components.to_string(),
            refreshed.stats().rechased_facts.to_string(),
            delta_facts.to_string(),
            refresh_ttfa.to_string(),
            rebuild_ttfa.to_string(),
            format!("{speedup:.1}"),
            answers_equal.to_string(),
        ]);
    }
    let (refresh_slope, _) = linear_fit(&facts_axis, &refresh_axis);
    let (rebuild_slope, _) = linear_fit(&facts_axis, &rebuild_axis);
    table.push_metric("delta_facts", delta_facts as f64);
    table.push_metric("post_commit_refresh_slope_us_per_fact", refresh_slope);
    table.push_metric("full_rebuild_slope_us_per_fact", rebuild_slope);
    table.push_metric("ttfa_speedup_at_max", last_speedup);
    table.push_metric(
        "refresh_ttfa_max_us",
        refresh_axis.iter().copied().fold(0.0, f64::max),
    );
    table
}

/// E17 — batched hot-path enumeration: the per-answer cost of draining an
/// [`omq_core::AnswerStream`] one `next()` at a time versus in `next_batch`
/// blocks, and the staging cost of the chase's [`FactArena`] versus per-fact
/// `Vec<Fact>` allocation (the pre-arena staging discipline).
///
/// Batching does not change what is computed — the property tests pin
/// `next_batch(k)` to `k × next()` answer-for-answer — it only amortises the
/// per-pull dispatch (semantics match, shard bookkeeping, iterator plumbing)
/// over a block.  Both drains are timed with [`measure_drain`]: two clock
/// reads bracket the whole loop, because per-answer instrumentation à la
/// [`measure_take_k`] costs two `Instant::now` calls per answer, the same
/// order of magnitude as the constant under comparison.
pub fn e17_batched_enumeration(quick: bool) -> Table {
    const BATCH: usize = 256;
    const STAGING_ROUNDS: usize = 8;
    let mut table = Table::new(
        "E17",
        "Batched enumeration and arena staging: dispatch amortisation",
        &[
            "researchers",
            "|D| facts",
            "answers",
            "next() ns/ans",
            "batch ns/ans",
            "speedup",
            "partial next() ns/ans",
            "partial batch ns/ans",
            "vec stage ns/fact",
            "arena stage ns/fact",
            "answers equal",
        ],
    );
    let (omq, _) = university(&UniversityConfig {
        researchers: 1,
        ..Default::default()
    });
    let plan = QueryPlan::compile(&omq).expect("guarded OMQ");

    let mut batch_speedup_at_max = 0.0;
    let mut partial_speedup_at_max = 0.0;
    let mut arena_speedup_at_max = 0.0;
    let mut unbatched_at_max = 0.0;
    let mut batched_at_max = 0.0;
    for researchers in university_sizes(quick) {
        let (_, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let facts = db.len();
        let instance = plan.execute(&db).expect("guarded OMQ");

        // One `next()` call per answer — the per-tuple pull everyone wrote
        // before `next_batch` existed.
        let drain_next = |sem: Semantics| {
            measure_drain(
                || instance.answers(sem).expect("tractable query"),
                |stream| {
                    let mut n = 0usize;
                    // Explicit `next()` per answer is the thing under test —
                    // a `for` desugars identically but hides the call.
                    #[allow(clippy::while_let_on_iterator)]
                    while let Some(answer) = stream.next() {
                        std::hint::black_box(&answer);
                        n += 1;
                    }
                    n
                },
            )
        };
        // The same answers pulled in `BATCH`-sized blocks.
        let drain_batch = |sem: Semantics| {
            measure_drain(
                || (instance.answers(sem).expect("tractable query"), Vec::new()),
                |(stream, block)| {
                    let mut n = 0usize;
                    loop {
                        let got = stream.next_batch(block, BATCH);
                        if got == 0 {
                            break;
                        }
                        for answer in block.drain(..) {
                            std::hint::black_box(&answer);
                        }
                        n += got;
                    }
                    n
                },
            )
        };
        let complete_next = drain_next(Semantics::Complete);
        let complete_batch = drain_batch(Semantics::Complete);
        let partial_next = drain_next(Semantics::MinimalPartial);
        let partial_batch = drain_batch(Semantics::MinimalPartial);

        // Arena-vs-malloc staging: push every database fact through the two
        // staging disciplines the chase has used — a fresh `Vec<Fact>` per
        // round (one argument-vector allocation per fact, all freed at the
        // end of the round) versus one recycled [`FactArena`].
        let base_facts = db.facts();
        let vec_stage = measure_drain(
            || (),
            |_| {
                let mut n = 0usize;
                for _ in 0..STAGING_ROUNDS {
                    let mut staged: Vec<omq_data::Fact> = Vec::new();
                    for fact in base_facts {
                        staged.push(omq_data::Fact::new(fact.rel, fact.args.clone()));
                    }
                    for fact in &staged {
                        std::hint::black_box(fact);
                        n += 1;
                    }
                }
                n
            },
        );
        let arena_stage = measure_drain(FactArena::new, |arena| {
            let mut n = 0usize;
            for _ in 0..STAGING_ROUNDS {
                arena.clear();
                for fact in base_facts {
                    arena.push_fact(fact.rel, &fact.args);
                }
                for staged in arena.facts() {
                    std::hint::black_box(&staged);
                    n += 1;
                }
            }
            n
        });

        let speedup =
            complete_next.per_answer_nanos() / complete_batch.per_answer_nanos().max(1e-9);
        let partial_speedup =
            partial_next.per_answer_nanos() / partial_batch.per_answer_nanos().max(1e-9);
        let arena_speedup = vec_stage.per_answer_nanos() / arena_stage.per_answer_nanos().max(1e-9);
        let equal = complete_next.answers == complete_batch.answers
            && partial_next.answers == partial_batch.answers;

        batch_speedup_at_max = speedup;
        partial_speedup_at_max = partial_speedup;
        arena_speedup_at_max = arena_speedup;
        unbatched_at_max = complete_next.per_answer_nanos();
        batched_at_max = complete_batch.per_answer_nanos();
        table.push_row(vec![
            researchers.to_string(),
            facts.to_string(),
            complete_next.answers.to_string(),
            format!("{:.1}", complete_next.per_answer_nanos()),
            format!("{:.1}", complete_batch.per_answer_nanos()),
            format!("{speedup:.2}"),
            format!("{:.1}", partial_next.per_answer_nanos()),
            format!("{:.1}", partial_batch.per_answer_nanos()),
            format!("{:.1}", vec_stage.per_answer_nanos()),
            format!("{:.1}", arena_stage.per_answer_nanos()),
            equal.to_string(),
        ]);
    }
    table.push_metric("batch_size", BATCH as f64);
    table.push_metric("staging_rounds", STAGING_ROUNDS as f64);
    // The acceptance gate: batched pulls amortise dispatch to ≥1.5× lower
    // mean per-answer cost at the largest database.
    table.push_metric("batch_speedup_at_max", batch_speedup_at_max);
    table.push_metric("partial_batch_speedup_at_max", partial_speedup_at_max);
    table.push_metric("arena_staging_speedup_at_max", arena_speedup_at_max);
    table.push_metric("unbatched_ns_per_answer_at_max", unbatched_at_max);
    table.push_metric("batched_ns_per_answer_at_max", batched_at_max);
    table
}

/// E18 — aggregate fast paths and scan kernels: `count()` versus
/// drain-and-count, allocation-free batched partial emission
/// ([`PartialEnumerator::fill_values`]) versus per-answer owned pulls
/// through the warmed answer stream, and the chunked scan kernels of
/// `omq_data::kernels` versus a scalar gather loop.
///
/// `count()` never materialises an answer: for complete semantics it walks
/// assignment prefixes and closes each with one CSR-length kernel call at
/// the leaf, so its cost is `O(materialisation + prefixes)` while the drain
/// pays `O(materialisation + answers × per-answer constant)`.  Both sides
/// are timed as whole calls (structure materialisation included), which is
/// what a caller of either API pays.  The correctness column re-checks
/// `count == drain` and `exists == (first answer exists)` on *all three*
/// semantics — the wildcard semantics count through the borrowed-tuple
/// minimality merge, which this experiment would not otherwise exercise.
pub fn e18_aggregate_fast_paths(quick: bool) -> Table {
    const BATCH: usize = 256;
    const SCAN_ROUNDS: usize = 64;
    /// Repetitions per timed drain: each drain here is a ~millisecond
    /// single shot, so one sample is at the mercy of the scheduler.  The
    /// minimum over a few repetitions is the standard robust estimator of
    /// the true cost.
    const REPS: usize = 5;
    fn best<S>(
        build: impl Fn() -> S,
        drain: impl Fn(&mut S) -> usize,
    ) -> crate::measure::DrainStats {
        (0..REPS)
            .map(|_| measure_drain(&build, &drain))
            .min_by_key(|stats| stats.total_nanos)
            .expect("REPS > 0")
    }
    /// Fan-out of the hub-join workload: every hub joins `FAN` R-facts with
    /// `FAN` S-facts, so the join emits `FAN²` answers per hub while the
    /// database only grows by `2·FAN` facts — the answer-dense regime where
    /// counting without materialising pays (on answer-sparse inputs both
    /// sides are dominated by the shared structure materialisation and the
    /// ratio is ~1).
    const FAN: usize = 32;
    let mut table = Table::new(
        "E18",
        "Aggregate fast paths: non-materializing count/exists and scan kernels",
        &[
            "size",
            "join facts",
            "join answers",
            "drain µs",
            "count µs",
            "count speedup",
            "stream next() ns/ans",
            "fill_values ns/ans",
            "partial speedup",
            "scalar scan ns/row",
            "kernel scan ns/row",
            "agg equal",
        ],
    );
    let (omq, _) = university(&UniversityConfig {
        researchers: 1,
        ..Default::default()
    });
    let plan = QueryPlan::compile(&omq).expect("guarded OMQ");
    let skeleton = plan.skeleton().expect("tractable query");

    // The count workload: a two-atom path joined through shared hubs, with
    // no ontology (the aggregate walk is orthogonal to the chase).
    let join_query = ConjunctiveQuery::parse("q(x, y, z) :- R(x, y), S(y, z)").expect("parses");
    let join_omq = omq_chase::OntologyMediatedQuery::new(omq_chase::Ontology::new(), join_query)
        .expect("acyclic OMQ");
    let join_plan = QueryPlan::compile(&join_omq).expect("free-connex OMQ");

    let mut count_speedup_at_max = 0.0;
    let mut partial_speedup_at_max = 0.0;
    let mut scalar_at_max = 0.0;
    let mut kernel_at_max = 0.0;
    for researchers in university_sizes(quick) {
        let (_, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let instance = plan.execute(&db).expect("guarded OMQ");

        // The hub-join database for the count comparison.
        let hubs = (researchers / 50).max(2);
        let mut join_builder = omq_data::Database::builder(join_omq.data_schema().clone());
        for h in 0..hubs {
            for i in 0..FAN {
                join_builder = join_builder
                    .fact("R", [format!("a{h}_{i}"), format!("h{h}")])
                    .fact("S", [format!("h{h}"), format!("c{h}_{i}")]);
            }
        }
        let join_db = join_builder.build().expect("schema fits");
        let join_facts = join_db.len();
        let join_instance = join_plan.execute(&join_db).expect("free-connex OMQ");

        // Drain-and-count: the only way to count before `count()` existed —
        // materialise every answer just to throw it away.
        let drain = best(
            || (),
            |_| {
                let mut n = 0usize;
                for answer in join_instance
                    .answers(Semantics::Complete)
                    .expect("tractable")
                {
                    std::hint::black_box(&answer);
                    n += 1;
                }
                n
            },
        );
        // The counting walk over the same structure: no tuples, the leaf
        // level collapses to CSR-length sums.
        let counted = best(
            || (),
            |_| join_instance.count(Semantics::Complete).expect("tractable") as usize,
        );
        // Correctness column: on both workloads, the aggregates agree with
        // the stream on every semantics (the wildcard ones count through
        // the minimality merge).
        let agg_equal = [&instance, &join_instance].into_iter().all(|inst| {
            Semantics::ALL.iter().all(|&sem| {
                let stream_count = inst.answers(sem).expect("tractable").count() as u64;
                inst.count(sem).expect("tractable") == stream_count
                    && inst.exists(sem).expect("tractable") == (stream_count > 0)
            })
        }) && counted.answers == drain.answers;

        // Partial emission: per-answer owned pulls through the answer
        // stream (the only pre-`fill_values` consumption path, and what
        // `count(MinimalPartial)` replaced internally) versus the
        // allocation-free batched emission straight off the enumerator over
        // the instance's chased shard (the raw database would miss every
        // chase-derived wildcard answer).  The stream is warmed — built and
        // first-pulled inside the untimed build closure — because it defers
        // per-shard preprocessing to the first pull; E17's stream-level
        // partial ratio was blind to the per-answer constant precisely
        // because unwarmed drains bury it under that preprocessing.  What
        // remains per answer on the stream side is the traversal plus the
        // merge offer, the `PartialTuple` allocation, and the `Answer`
        // wrapper — the costs the borrowed-scratch batch entry point
        // eliminates.
        let shards = instance.shards();
        assert_eq!(shards.len(), 1, "sequential execute yields one shard");
        let partial_next = best(
            || {
                let mut stream = instance
                    .answers(Semantics::MinimalPartial)
                    .expect("tractable");
                let warmed = usize::from(stream.next().is_some());
                (stream, warmed)
            },
            |(stream, warmed)| {
                let mut n = *warmed;
                for answer in stream {
                    std::hint::black_box(&answer);
                    n += 1;
                }
                n
            },
        );
        let partial_batch = best(
            || PartialEnumerator::with_skeleton(skeleton, &shards[0]).expect("tractable"),
            |cursor| {
                let mut n = 0usize;
                loop {
                    let got = cursor.fill_values(BATCH, |values| {
                        std::hint::black_box(values);
                    });
                    n += got;
                    if got < BATCH {
                        break;
                    }
                }
                n
            },
        );

        // Scan kernels on a real column: gather the rows matching one value
        // of `HasOffice[0]` — the branchy scalar push loop the extension
        // scans used to run, against `kernels::select_eq`'s chunked
        // count-then-gather passes.
        let columnar = db.columnar();
        let rel = db.schema().relation_id("HasOffice").expect("schema");
        let cols = columnar.rel_columns(rel).expect("non-empty relation");
        let col = cols.column(0);
        let needle = *col.last().expect("non-empty column");
        let scalar_scan = best(Vec::<u32>::new, |out| {
            let mut scanned = 0usize;
            for _ in 0..SCAN_ROUNDS {
                out.clear();
                for (row, value) in col.iter().enumerate() {
                    if *value == needle {
                        out.push(row as u32);
                    }
                }
                std::hint::black_box(&out);
                scanned += col.len();
            }
            scanned
        });
        let kernel_scan = best(Vec::<u32>::new, |out| {
            let mut scanned = 0usize;
            for _ in 0..SCAN_ROUNDS {
                omq_data::kernels::select_eq(col, needle, out);
                std::hint::black_box(&out);
                scanned += col.len();
            }
            scanned
        });

        let count_speedup = drain.total_nanos as f64 / counted.total_nanos.max(1) as f64;
        let partial_speedup =
            partial_next.per_answer_nanos() / partial_batch.per_answer_nanos().max(1e-9);
        let equal = agg_equal && partial_next.answers == partial_batch.answers && {
            let mut scalar_rows = Vec::new();
            for (row, value) in col.iter().enumerate() {
                if *value == needle {
                    scalar_rows.push(row as u32);
                }
            }
            let mut kernel_rows = Vec::new();
            omq_data::kernels::select_eq(col, needle, &mut kernel_rows);
            scalar_rows == kernel_rows
        };

        count_speedup_at_max = count_speedup;
        partial_speedup_at_max = partial_speedup;
        scalar_at_max = scalar_scan.per_answer_nanos();
        kernel_at_max = kernel_scan.per_answer_nanos();
        table.push_row(vec![
            researchers.to_string(),
            join_facts.to_string(),
            drain.answers.to_string(),
            format!("{:.0}", drain.total_nanos as f64 / 1e3),
            format!("{:.0}", counted.total_nanos as f64 / 1e3),
            format!("{count_speedup:.2}"),
            format!("{:.1}", partial_next.per_answer_nanos()),
            format!("{:.1}", partial_batch.per_answer_nanos()),
            format!("{partial_speedup:.2}"),
            format!("{:.2}", scalar_scan.per_answer_nanos()),
            format!("{:.2}", kernel_scan.per_answer_nanos()),
            equal.to_string(),
        ]);
    }
    table.push_metric("batch_size", BATCH as f64);
    table.push_metric("scan_rounds", SCAN_ROUNDS as f64);
    // The acceptance gates: counting beats drain-and-count ≥2× and batched
    // borrowed emission beats per-tuple materialisation ≥1.5×, both at the
    // largest database.
    table.push_metric("count_speedup_at_max", count_speedup_at_max);
    table.push_metric("partial_batch_speedup_at_max", partial_speedup_at_max);
    table.push_metric("scalar_scan_ns_per_row", scalar_at_max);
    table.push_metric("vector_scan_ns_per_row", kernel_at_max);
    table.push_metric(
        "scan_speedup_at_max",
        scalar_at_max / kernel_at_max.max(1e-9),
    );
    table
}

/// E19 — the network front end under load: closed-loop fetch latency,
/// sustained request throughput, pinned-cursor isolation under a concurrent
/// commit writer, and post-commit time-to-first-page — all over real TCP.
///
/// Each size starts a fresh [`omq_server::Server`] on an ephemeral loopback
/// port, registers the office OMQ over the wire, seeds facts through wire
/// commits, and then drives three phases from a blocking client:
///
/// 1. **Closed loop** — drain the cursor page by page (`k` = `PAGE`),
///    re-opening until at least `MIN_FETCHES` fetch round-trips have been
///    timed.  Each fetch pays the wire codec, the event loop's scheduling
///    (up to one `IDLE_SLEEP` of worker latency) and the `O(k)`
///    `next_batch` — so p50 tracks the protocol constant and p99 the
///    scheduler tail.  QPS counts fetches over the whole loop, opens and
///    closes included, which makes it a conservative sustained-rate figure.
/// 2. **Concurrent writer** — pin a snapshot, open an in-process reference
///    stream at the same snapshot *before* any concurrent commit, then page
///    the pinned wire cursor while a second connection commits
///    `WRITER_ROUNDS` transactions.  The `equal` column is the acceptance
///    gate: the paged wire sequence must be byte-identical to the reference
///    drain (both rendered through `render_answer`), i.e. the cursor
///    replays exactly its pinned epoch no matter what commits land
///    mid-enumeration.  Fetch latencies in this phase are reported
///    separately (`writer p99`): they include write-lock contention from
///    the commit path.
/// 3. **Post-commit time-to-first-page** — commit a small delta, then time
///    `open_cursor` + first `fetch` at the new head.  The serving engine's
///    warm-instance refresh makes this delta-proportional, and the wire
///    must not lose that: the metric is the minimum over a few repetitions
///    (each commits its own delta, so every rep really pays a refresh).
///
/// Latency figures from a 1-CPU container are dominated by scheduling, not
/// by the enumeration constant — the trajectory gates on these metrics use
/// deliberately loose tolerances and the real acceptance gate is
/// `answers_equal`.
pub fn e19_network_serving(quick: bool) -> Table {
    use omq_serve::{Request, ServingEngine};
    use omq_server::{render_answer, Client, QueryTarget, Server, ServerConfig, TxnOp};
    use std::time::Duration;

    /// Page size for every timed fetch: large enough that the `O(k)` body
    /// is visible, small enough that a drain takes several round-trips.
    const PAGE: u64 = 16;
    const ONTOLOGY: &str = "Researcher(x) -> exists y. HasOffice(x, y)\n\
                            HasOffice(x, y) -> Office(y)\n\
                            Office(x) -> exists y. InBuilding(x, y)";
    const QUERY: &str = "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";
    const TTFP_REPS: usize = 3;
    let min_fetches: usize = if quick { 128 } else { 1024 };
    let writer_rounds: usize = if quick { 8 } else { 32 };
    let sizes: Vec<usize> = if quick {
        vec![64, 128, 256]
    } else {
        vec![128, 256, 512, 1024]
    };

    fn percentile(sorted: &[u64], p: f64) -> u64 {
        debug_assert!(!sorted.is_empty());
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }
    /// The seed workload: every researcher answers under minimal-partial
    /// semantics (the ontology invents offices and buildings), half have a
    /// known office, a quarter a known building — so answers mix constants
    /// and wildcards and the answer count scales with `n`.
    fn seed_ops(n: usize) -> Vec<TxnOp> {
        let mut ops = Vec::new();
        for i in 0..n {
            ops.push(TxnOp::Insert {
                relation: "Researcher".into(),
                tuple: vec![format!("r{i:04}")],
            });
            if i % 2 == 0 {
                ops.push(TxnOp::Insert {
                    relation: "HasOffice".into(),
                    tuple: vec![format!("r{i:04}"), format!("o{i:04}")],
                });
            }
            if i % 4 == 0 {
                ops.push(TxnOp::Insert {
                    relation: "InBuilding".into(),
                    tuple: vec![format!("o{i:04}"), format!("b{}", i / 8)],
                });
            }
        }
        ops
    }

    let mut table = Table::new(
        "E19",
        "Network front end: wire pagination latency, throughput, pinned isolation",
        &[
            "size",
            "answers",
            "fetches",
            "p50 µs",
            "p99 µs",
            "qps",
            "writer p99 µs",
            "ttfp µs",
            "equal",
        ],
    );

    let mut p50_at_max = 0.0;
    let mut p99_at_max = 0.0;
    let mut qps_at_max = 0.0;
    let mut ttfp_at_max = 0.0;
    let mut all_equal = true;
    for n in sizes {
        let server = Server::start(
            ServingEngine::new(1),
            ServerConfig {
                addr: "127.0.0.1:0".parse().expect("loopback addr"),
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral port");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(120)))
            .expect("timeout");
        client
            .register_query("offices", ONTOLOGY, QUERY)
            .expect("register over the wire");
        client.commit(seed_ops(n)).expect("seed commit");

        // Phase 1: the closed loop.  Time every fetch round-trip; QPS is
        // fetches over wall clock with the open/close overhead included.
        let mut latencies: Vec<u64> = Vec::with_capacity(min_fetches + 64);
        let mut answers = 0usize;
        let loop_start = Instant::now();
        while latencies.len() < min_fetches {
            let cursor = client
                .open_cursor(
                    QueryTarget::Name("offices".into()),
                    Semantics::MinimalPartial,
                    None,
                )
                .expect("open cursor");
            let mut drained = 0usize;
            loop {
                let t = Instant::now();
                let page = client.fetch(cursor, PAGE).expect("fetch");
                latencies.push(t.elapsed().as_nanos() as u64);
                drained += page.answers.len();
                std::hint::black_box(&page.answers);
                if page.done {
                    break;
                }
            }
            client.close_cursor(cursor).expect("close cursor");
            answers = drained;
        }
        let elapsed = loop_start.elapsed();
        let qps = latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        latencies.sort_unstable();
        let p50_us = percentile(&latencies, 50.0) as f64 / 1e3;
        let p99_us = percentile(&latencies, 99.0) as f64 / 1e3;

        // Phase 2: pinned cursor under a concurrent commit writer.  The
        // reference stream is opened at the same snapshot before the writer
        // starts, so both drains come from identical engine state and the
        // comparison is exact, not just multiset-equal.
        let pinned = client.pin().expect("pin");
        let shared = server.shared_engine();
        let (snap, reference_stream) = {
            let engine = shared.engine.read().expect("engine lock");
            let snap = engine.snapshot();
            assert_eq!(snap.epoch(), pinned.epoch, "pin and snapshot agree");
            let stream = engine
                .serve_stream(
                    &Request::by_name("offices", Semantics::MinimalPartial).at(snap.clone()),
                )
                .expect("reference stream");
            (snap, stream)
        };
        let pinned_cursor = client
            .open_cursor(
                QueryTarget::Name("offices".into()),
                Semantics::MinimalPartial,
                Some(pinned.handle),
            )
            .expect("open pinned cursor");
        let addr = server.local_addr();
        let writer = std::thread::spawn(move || {
            let mut writer = Client::connect(addr).expect("writer connect");
            for round in 0..writer_rounds {
                writer
                    .insert_all(
                        "Researcher",
                        (0..4).map(|i| vec![format!("w{round:02}_{i}")]),
                    )
                    .expect("concurrent commit");
            }
            writer.bye().expect("writer bye");
        });
        let mut wire_answers = Vec::new();
        let mut writer_latencies: Vec<u64> = Vec::new();
        loop {
            let t = Instant::now();
            let page = client.fetch(pinned_cursor, PAGE / 2).expect("pinned fetch");
            writer_latencies.push(t.elapsed().as_nanos() as u64);
            wire_answers.extend(page.answers);
            if page.done {
                break;
            }
        }
        writer.join().expect("writer thread");
        let reference: Vec<Vec<String>> = reference_stream
            .map(|answer| render_answer(&answer, snap.database()))
            .collect();
        let equal = wire_answers == reference && !wire_answers.is_empty();
        writer_latencies.sort_unstable();
        let writer_p99_us = percentile(&writer_latencies, 99.0) as f64 / 1e3;
        client.close_cursor(pinned_cursor).expect("close pinned");

        // Phase 3: post-commit time-to-first-page.  Every rep commits its
        // own delta so each timed open really pays a head refresh.
        let mut ttfp_best = u64::MAX;
        for rep in 0..TTFP_REPS {
            client
                .insert_all("Researcher", [vec![format!("ttfp{n}_{rep}")]])
                .expect("delta commit");
            let t = Instant::now();
            let cursor = client
                .open_cursor(
                    QueryTarget::Name("offices".into()),
                    Semantics::MinimalPartial,
                    None,
                )
                .expect("open at head");
            let page = client.fetch(cursor, PAGE).expect("first page");
            ttfp_best = ttfp_best.min(t.elapsed().as_nanos() as u64);
            assert!(!page.answers.is_empty(), "head cursor has answers");
            client.close_cursor(cursor).expect("close");
        }
        let ttfp_us = ttfp_best as f64 / 1e3;
        client.bye().expect("bye");
        server.shutdown();

        p50_at_max = p50_us;
        p99_at_max = p99_us;
        qps_at_max = qps;
        ttfp_at_max = ttfp_us;
        all_equal = all_equal && equal;
        table.push_row(vec![
            n.to_string(),
            answers.to_string(),
            latencies.len().to_string(),
            format!("{p50_us:.0}"),
            format!("{p99_us:.0}"),
            format!("{qps:.0}"),
            format!("{writer_p99_us:.0}"),
            format!("{ttfp_us:.0}"),
            equal.to_string(),
        ]);
    }
    table.push_metric("page_k", PAGE as f64);
    table.push_metric("fetch_p50_us_at_max", p50_at_max);
    table.push_metric("fetch_p99_us_at_max", p99_at_max);
    table.push_metric("qps_at_max", qps_at_max);
    table.push_metric("post_commit_ttfp_us_at_max", ttfp_at_max);
    // The acceptance gate, exported for the JSON validation in CI: 1.0 iff
    // every size's pinned wire drain was byte-identical to the in-process
    // reference at the pinned epoch.
    table.push_metric("answers_equal", if all_equal { 1.0 } else { 0.0 });
    table
}

/// E20 — distributed execution over real worker **processes**: end-to-end
/// speedup versus worker count on the component-rich clustered university
/// workload, shard-shipping volume, work-stealing placement, and fault
/// recovery (a worker killed mid-shard).
///
/// The worker fleet is this very harness binary: `main` calls
/// `omq_cluster::maybe_run_worker()` first thing, so when the coordinator
/// spawns `current_exe()` with the cluster environment variables set, the
/// child becomes a worker instead of re-running the experiments.
///
/// Every row drains the full distributed `AnswerStream`
/// (minimal-partial semantics) and compares the answer multiset against the
/// sequential in-process run — that `answers equal` column, including the
/// kill row, is the acceptance gate exported as the `answers_equal` metric.
/// Wall-clock times include everything a deployment would pay: process
/// spawn, plan compilation on each worker, fact shipping, evaluation,
/// page parsing, and the cross-shard reduce.  `speedup` is measured against
/// the 1-worker distributed run (isolating scaling from the fixed wire
/// overhead, which `distribution_overhead_x` reports separately against the
/// sequential engine); on a 1-CPU CI runner the processes share one core,
/// so the speedup magnitudes are only meaningful on multicore hosts and the
/// trajectory gate on them is deliberately loose.
///
/// The kill row re-runs the 2-worker configuration with small pages and a
/// fault injected into worker 0 (connection dropped cold after 2 pages):
/// the coordinator must detect the death, requeue the unacknowledged shard
/// on the survivor, and still produce exactly the sequential answers —
/// `kill_reassignments` records how many shards were replayed.
pub fn e20_distributed_execution(quick: bool) -> Table {
    use omq_cluster::{execute, ClusterConfig, ClusterStats, Kill, WorkerSpawn};
    use std::collections::BTreeMap;
    use std::time::Duration;

    let gen_config = if quick {
        ClusteredConfig {
            clusters: 8,
            researchers_per_cluster: 125,
            ..Default::default()
        }
    } else {
        ClusteredConfig {
            clusters: 16,
            researchers_per_cluster: 500,
            ..Default::default()
        }
    };
    let (omq, db) = clustered_university(&gen_config);
    let plan = QueryPlan::compile(&omq).expect("guarded OMQ");
    // Warm the shared chase memo (bag-type tables are data-independent).
    let _ = plan.execute(&db).expect("guarded OMQ");
    let start = Instant::now();
    let instance = plan.execute(&db).expect("guarded OMQ");
    let mut stream = instance
        .answers(Semantics::MinimalPartial)
        .expect("tractable query");
    let mut baseline: BTreeMap<Answer, usize> = BTreeMap::new();
    for answer in &mut stream {
        *baseline.entry(answer).or_default() += 1;
    }
    let sequential_micros = start.elapsed().as_micros().max(1);

    let spawn = WorkerSpawn::Command {
        program: std::env::current_exe().expect("current executable"),
        args: Vec::new(),
    };
    let run_once = |workers: usize,
                    kill: Option<Kill>,
                    page_answers: Option<usize>|
     -> (BTreeMap<Answer, usize>, ClusterStats, u128) {
        let config = ClusterConfig {
            workers,
            worker_timeout: Duration::from_secs(120),
            spawn: spawn.clone(),
            kill,
            page_answers,
        };
        let start = Instant::now();
        let run = execute(
            crate::generators::UNIVERSITY_ONTOLOGY_TEXT,
            crate::generators::UNIVERSITY_QUERY_TEXT,
            &db,
            Semantics::MinimalPartial,
            &config,
        )
        .expect("cluster run starts");
        let mut stream = run.stream;
        let mut counts: BTreeMap<Answer, usize> = BTreeMap::new();
        for answer in &mut stream {
            *counts.entry(answer).or_default() += 1;
        }
        assert!(
            stream.error().is_none(),
            "cluster stream failed: {:?}",
            stream.error()
        );
        let micros = start.elapsed().as_micros().max(1);
        (counts, run.handle.finish(), micros)
    };

    let mut table = Table::new(
        "E20",
        "Distributed execution: speedup over worker processes, shipping, fault recovery",
        &[
            "workers",
            "shards",
            "wall µs",
            "speedup",
            "answers",
            "shipped KiB",
            "steals",
            "reassigned",
            "kill",
            "answers equal",
        ],
    );

    let mut all_equal = true;
    let mut wall_1_worker = 1u128;
    let mut push_row = |table: &mut Table,
                        workers: usize,
                        counts: &BTreeMap<Answer, usize>,
                        stats: ClusterStats,
                        micros: u128,
                        speedup_base: u128,
                        killed: bool| {
        let equal = *counts == baseline;
        all_equal = all_equal && equal;
        table.push_row(vec![
            workers.to_string(),
            stats.shards.to_string(),
            micros.to_string(),
            format!("{:.2}x", speedup_base as f64 / micros as f64),
            counts.values().sum::<usize>().to_string(),
            format!("{:.0}", stats.shipped_bytes as f64 / 1024.0),
            stats.steals.to_string(),
            stats.reassignments.to_string(),
            killed.to_string(),
            equal.to_string(),
        ]);
        equal
    };

    let mut shipped_at_max = 0.0;
    let mut steals_at_max = 0.0;
    for workers in [1usize, 2, 4] {
        let (counts, stats, micros) = run_once(workers, None, None);
        if workers == 1 {
            wall_1_worker = micros;
            table.push_metric("wall_micros_1_worker", micros as f64);
            table.push_metric(
                "distribution_overhead_x",
                micros as f64 / sequential_micros as f64,
            );
        } else {
            table.push_metric(
                &format!("speedup_{workers}_workers"),
                wall_1_worker as f64 / micros as f64,
            );
        }
        if workers == 4 {
            shipped_at_max = stats.shipped_bytes as f64;
            steals_at_max = stats.steals as f64;
        }
        push_row(
            &mut table,
            workers,
            &counts,
            stats,
            micros,
            wall_1_worker,
            false,
        );
    }

    // The fault row: kill worker 0 after two small pages, mid-shard.
    let (counts, stats, micros) = run_once(
        2,
        Some(Kill {
            worker: 0,
            after_pages: 2,
        }),
        Some(32),
    );
    assert_eq!(stats.worker_failures, 1, "kill row stats: {stats:?}");
    push_row(&mut table, 2, &counts, stats, micros, wall_1_worker, true);
    table.push_metric("kill_reassignments", stats.reassignments as f64);

    table.push_metric("sequential_exec_micros", sequential_micros as f64);
    table.push_metric("input_facts", db.len() as f64);
    table.push_metric("shipped_bytes_at_max", shipped_at_max);
    table.push_metric("steals_at_max", steals_at_max);
    // The acceptance gate: 1.0 iff every row — the kill row included —
    // reproduced the sequential answer multiset exactly.
    table.push_metric("answers_equal", if all_equal { 1.0 } else { 0.0 });
    table
}

/// Runs one experiment by identifier.
pub fn run_experiment(id: &str, quick: bool) -> Option<Table> {
    match id.to_ascii_uppercase().as_str() {
        "E1" => Some(e1_figure1()),
        "E2" => Some(e2_qchase_scaling(quick)),
        "E3" => Some(e3_complete_enum(quick)),
        "E4" => Some(e4_all_testing(quick)),
        "E5" => Some(e5_partial_enum(quick)),
        "E6" => Some(e6_multi_enum(quick)),
        "E7" => Some(e7_triangle(quick)),
        "E8" => Some(e8_bmm(quick)),
        "E9" => Some(e9_running_example()),
        "E10" => Some(e10_baseline(quick)),
        "E11" => Some(e11_ablation(quick)),
        "E12" => Some(e12_plan_columnar(quick)),
        "E13" => Some(e13_parallel_speedup(quick)),
        "E14" => Some(e14_cursor_pagination(quick)),
        "E15" => Some(e15_live_store(quick)),
        "E16" => Some(e16_incremental_maintenance(quick)),
        "E17" => Some(e17_batched_enumeration(quick)),
        "E18" => Some(e18_aggregate_fast_paths(quick)),
        "E19" => Some(e19_network_serving(quick)),
        "E20" => Some(e20_distributed_execution(quick)),
        _ => None,
    }
}

/// Runs the full suite.
pub fn run_all(quick: bool) -> Vec<Table> {
    [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14",
        "E15", "E16", "E17", "E18", "E19", "E20",
    ]
    .iter()
    .filter_map(|id| run_experiment(id, quick))
    .collect()
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
    }

    #[test]
    fn e13_parallel_agrees_and_exports_metrics() {
        let table = e13_parallel_speedup(true);
        assert_eq!(table.rows.len(), 4);
        // Every thread count reproduces the sequential answer multisets.
        let equal_col = table.headers.len() - 1;
        assert!(table.rows.iter().all(|r| r[equal_col] == "true"));
        // The same number of answers at every thread count.
        let answers: Vec<&str> = table.rows.iter().map(|r| r[4].as_str()).collect();
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        let names: Vec<&str> = table.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.contains(&"speedup_4_threads"));
        assert!(names.contains(&"delay_ratio_4_threads_vs_1"));
        assert!(names.contains(&"components"));
    }

    #[test]
    fn e15_sessions_are_isolated_and_export_metrics() {
        let table = e15_live_store(true);
        assert_eq!(table.rows.len(), 4);
        // The acceptance gate: pinned snapshots unchanged by the late
        // commit, fresh snapshots equal to the from-scratch reference.
        let equal_col = table.headers.len() - 1;
        assert!(table.rows.iter().all(|r| r[equal_col] == "true"));
        let names: Vec<&str> = table.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.contains(&"ingest_facts_per_sec"));
        assert!(names.contains(&"post_commit_ttfa_slope_us_per_fact"));
        assert!(names.contains(&"facts_per_txn"));
    }

    #[test]
    fn e16_refresh_is_incremental_and_equivalent() {
        let table = e16_incremental_maintenance(true);
        assert_eq!(table.rows.len(), 4);
        // The acceptance gate: the refresh reused shards and agrees with the
        // from-scratch evaluation on every semantics.
        let equal_col = table.headers.len() - 1;
        assert!(table.rows.iter().all(|r| r[equal_col] == "true"));
        // Every row spliced at least one untouched shard in by pointer.
        assert!(table.rows.iter().all(|r| r[3] != "0"));
        let names: Vec<&str> = table.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.contains(&"post_commit_refresh_slope_us_per_fact"));
        assert!(names.contains(&"full_rebuild_slope_us_per_fact"));
        assert!(names.contains(&"ttfa_speedup_at_max"));
        assert!(names.contains(&"delta_facts"));
    }

    #[test]
    fn e17_batched_drains_agree_and_export_metrics() {
        let table = e17_batched_enumeration(true);
        assert_eq!(table.rows.len(), 4);
        // The correctness gate: batched and unbatched drains produce the
        // same number of answers on both semantics, at every size.  (The
        // ≥1.5× speedup gate is asserted on the release-build JSON report,
        // not here — debug-build ratios are meaningless.)
        let equal_col = table.headers.len() - 1;
        assert!(table.rows.iter().all(|r| r[equal_col] == "true"));
        let names: Vec<&str> = table.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.contains(&"batch_speedup_at_max"));
        assert!(names.contains(&"arena_staging_speedup_at_max"));
        assert!(names.contains(&"unbatched_ns_per_answer_at_max"));
        assert!(names.contains(&"batched_ns_per_answer_at_max"));
        assert!(names.contains(&"batch_size"));
    }

    #[test]
    fn e18_aggregates_agree_and_export_metrics() {
        let table = e18_aggregate_fast_paths(true);
        assert_eq!(table.rows.len(), 4);
        // The correctness gate: at every size, count/exists agree with the
        // stream on all three semantics, the batched and per-tuple partial
        // drains yield the same number of answers, and the kernel gather
        // selects exactly the scalar loop's rows.  (The ≥2×/≥1.5× speedup
        // gates are asserted on the release-build JSON report, not here —
        // debug-build ratios are meaningless.)
        let equal_col = table.headers.len() - 1;
        assert!(table.rows.iter().all(|r| r[equal_col] == "true"));
        let names: Vec<&str> = table.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.contains(&"count_speedup_at_max"));
        assert!(names.contains(&"partial_batch_speedup_at_max"));
        assert!(names.contains(&"scalar_scan_ns_per_row"));
        assert!(names.contains(&"vector_scan_ns_per_row"));
        assert!(names.contains(&"scan_speedup_at_max"));
    }

    #[test]
    fn e19_wire_drains_agree_and_export_metrics() {
        let table = e19_network_serving(true);
        assert_eq!(table.rows.len(), 3);
        // The acceptance gate: at every size, the pinned wire cursor's
        // paged sequence is byte-identical to the in-process reference
        // drain at the pinned epoch, under a concurrent commit writer.
        // (Latency and QPS figures are machine-bound; their sanity checks
        // run on the release-build JSON report in CI, not here.)
        let equal_col = table.headers.len() - 1;
        assert!(table.rows.iter().all(|r| r[equal_col] == "true"));
        let names: Vec<&str> = table.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.contains(&"fetch_p50_us_at_max"));
        assert!(names.contains(&"fetch_p99_us_at_max"));
        assert!(names.contains(&"qps_at_max"));
        assert!(names.contains(&"post_commit_ttfp_us_at_max"));
        assert!(names.contains(&"answers_equal"));
        let answers_equal = table
            .metrics
            .iter()
            .find(|(k, _)| k == "answers_equal")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(answers_equal, 1.0);
    }

    #[test]
    fn e12_plan_agrees_and_exports_metrics() {
        let table = e12_plan_columnar(true);
        assert!(table.rows.len() >= 4);
        // The reused plan agrees with the per-database plan (and the dense
        // loop with the hash loop) on every database.
        let equal_col = table.headers.len() - 1;
        assert!(table.rows.iter().all(|r| r[equal_col] == "true"));
        let names: Vec<&str> = table.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.contains(&"plan_compile_micros"));
        assert!(names.contains(&"dense_delay_slope_ns_per_fact"));
        assert!(names.contains(&"amortisation_speedup"));
    }
}

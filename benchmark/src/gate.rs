//! The correctness gate, run on every invocation before any timing.
//!
//! Three layers of evidence, each cheap enough to pay every time:
//!
//! 1. on a small copy of the dataset, all three semantics agree —
//!    answer for answer — with `omq_core::baseline::BruteForce`, which
//!    knows nothing of the plan, the columnar index or the enumerators;
//! 2. on the full dataset, the plain in-process path returns the
//!    closed-form answer counts the generator promises;
//! 3. the workload's own path returns the same answer *sets* as that
//!    in-process path (digest of the sorted rendered answers), and its
//!    `count` agrees with its drains.
//!
//! So wire-paging ≡ dense-enum, and live-refresh before its first delta ≡
//! cold-eval.  Any mismatch ends the run with a non-zero exit and no
//! metrics.

use crate::gen::{Dataset, SetDigest};
use crate::trace::Tracer;
use crate::workload::{mismatch, parse_omq, BenchResult, InProcess, Ops, Path, SEMANTICS};
use omq_chase::ChaseConfig;
use omq_core::BruteForce;
use omq_data::{Answer, Database, Value};
use omq_wire::render_answer;

/// Drains all three semantics off `path`, feeding every rendered answer of
/// semantics `i` to `sink(i, answer)`, and checks the counts on the way:
/// each drain against the closed form, `count` against the drains.
fn drain_all(
    path: &mut dyn Path,
    ops: &mut Ops,
    mut sink: impl FnMut(usize, Vec<String>),
) -> BenchResult<()> {
    let mut tr = Tracer::new(false);
    let expected = path.expected();
    for (i, &semantics) in SEMANTICS.iter().enumerate() {
        let mut seen = 0u64;
        let mut each = |answer: Vec<String>| {
            seen += 1;
            sink(i, answer);
        };
        let (n, _) = path.drain(semantics, &mut Vec::new(), Some(&mut each), &mut tr, ops)?;
        if n != expected[i] || seen != n {
            return mismatch(format!(
                "{semantics}: drained {n} ({seen} delivered), closed form says {}",
                expected[i]
            ));
        }
    }
    let (complete, partial, _) = path.count_pair(&mut tr, ops)?;
    if [complete, partial] != [expected[0], expected[1]] {
        return mismatch(format!(
            "count says {complete}/{partial}, drains gave {}/{}",
            expected[0], expected[1]
        ));
    }
    Ok(())
}

/// Layer 1: the optimised in-process path against the brute-force oracle
/// on a dataset small enough for the oracle.
pub fn oracle(small: &Dataset, ops: &mut Ops) -> BenchResult<()> {
    let mut fast: [Vec<Vec<String>>; 3] = Default::default();
    drain_all(&mut InProcess::setup(small, ops)?, ops, |i, answer| {
        fast[i].push(answer)
    })?;
    fast.iter_mut().for_each(|set| set.sort_unstable());

    let db = ops.run(
        "Database::from_fact_rows",
        Database::from_fact_rows(small.schema(), &small.rows),
    )?;
    let omq = parse_omq(small, ops)?;
    let brute = ops.run(
        "BruteForce::new",
        BruteForce::new(&omq, &db, &ChaseConfig::default()),
    )?;
    if brute.truncated {
        return mismatch("the oracle's chase was truncated");
    }
    let complete: Option<Vec<Answer>> = brute
        .complete_answers()
        .into_iter()
        .map(|tuple| {
            let constants: Option<Vec<_>> = tuple
                .into_iter()
                .map(|v| match v {
                    Value::Const(c) => Some(c),
                    Value::Null(_) => None,
                })
                .collect();
            constants.map(Answer::Complete)
        })
        .collect();
    let Some(complete) = complete else {
        return mismatch("the oracle put a null in a complete answer");
    };
    let slow = [
        complete,
        brute
            .minimal_partial()
            .into_iter()
            .map(Answer::from)
            .collect(),
        brute
            .minimal_partial_multi()
            .into_iter()
            .map(Answer::from)
            .collect(),
    ]
    .map(|answers: Vec<Answer>| {
        let mut set: Vec<Vec<String>> = answers
            .iter()
            .map(|a| render_answer(a, &brute.chased))
            .collect();
        set.sort_unstable();
        set
    });
    for (i, semantics) in SEMANTICS.iter().enumerate() {
        if fast[i] != slow[i] {
            return mismatch(format!(
                "{semantics} on small {}: plan path has {} answers, brute force {}",
                small.name,
                fast[i].len(),
                slow[i].len()
            ));
        }
    }
    Ok(())
}

/// Layer 2: the reference digests of the full dataset, through the plain
/// in-process path (closed-form counts checked on the way).
pub fn reference(ds: &Dataset, ops: &mut Ops) -> BenchResult<[SetDigest; 3]> {
    digests(&mut InProcess::setup(ds, ops)?, ops)
}

/// Layer 3: the digests of the workload's own path.
pub fn digests(path: &mut dyn Path, ops: &mut Ops) -> BenchResult<[SetDigest; 3]> {
    let mut digests = [SetDigest::default(); 3];
    drain_all(path, ops, |i, answer| digests[i].add(&answer))?;
    Ok(digests)
}

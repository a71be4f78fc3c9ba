//! Remote shard sources: plugging distributed executors into [`AnswerStream`].
//!
//! `QueryPlan::execute_tracked` (and `execute_parallel`, its twin with a
//! caller-set worker bound) packs the database's Gaifman components into
//! shards and chases them on local threads; [`AnswerStream`] chains the
//! shards' cursors and folds the cross-shard reduce (the `WildcardMerge`
//! minimality filter plus the Boolean empty-tuple dedup) into the chain.  A
//! *distributed* executor — the `omq-cluster` coordinator — does the
//! per-shard chase and enumeration in other **processes** and only has
//! answer pages, not chased databases, on hand.  This module is the seam
//! between the two: a [`RemoteShard`] is a pull-based source of one shard's
//! already-enumerated answers, and [`AnswerStream::from_remote`] chains a
//! vector of them exactly as `PreparedInstance::answers` chains local
//! shards — a remote source is one more kind of shard cursor in the same
//! chain, so the reduce is the same code for both.  Downstream consumers
//! (the serving layer, pagination, `try_collect`) cannot tell a cluster
//! execution from a local one.
//!
//! Soundness inherits from the parallel module's argument (see
//! [`crate::parallel`]): each source must yield the per-shard-minimal answers
//! of a union of Gaifman components, disjoint across sources.  Then
//! constant-bearing answers are globally minimal as they stream by, and only
//! the wildcard-only patterns need the merge's park-and-flush treatment.
//!
//! Error contract: a source fails by returning `Err` from
//! [`RemoteShard::next_batch`].  A transport fault the executor could not
//! mask (e.g. every worker died) surfaces that way as a [`CoreError`] and
//! terminates the stream, exactly like a mid-stream builder failure in the
//! local cursor; the answers the failing call appended are dropped.

use crate::error::CoreError;
use crate::plan::QueryPlan;
use crate::stream::{AnswerStream, Shards};
use omq_data::{Answer, Semantics};

/// A pull-based source of one shard's enumerated answers, produced somewhere
/// else (another process, another machine).
///
/// The stream asks a source for answers only while it needs them: a Boolean
/// stream stops at the first source that reports the empty tuple, and a
/// stream dropped mid-way never asks again.  Every answer must be of the
/// [`Semantics`] the stream was built with, with values resolved against the
/// *coordinator's* database (implementors translate wire answers by constant
/// name before handing them over).
pub trait RemoteShard: Send {
    /// Pulls up to `k` answers, appending to `out`, and returns how many it
    /// appended; fewer than `k` means the source is exhausted.  `Err` means
    /// the shard failed: the whole stream ends with that error, and the
    /// answers this call appended are dropped.
    fn next_batch(&mut self, out: &mut Vec<Answer>, k: usize) -> Result<usize, CoreError>;
}

/// Per-call cap on how many answers are requested from a source at once,
/// so drain-everything requests (`k = usize::MAX`) stay incremental.
const REMOTE_PULL_CAP: usize = 4096;

/// Pulls up to `k` answers from `source` in calls of at most
/// [`REMOTE_PULL_CAP`], converting each with `convert` and handing it to
/// `emit`; returns how many were emitted, fewer than `k` meaning the source
/// is exhausted.  An answer `convert` rejects is of the wrong semantics —
/// a broken executor, not bad data — and fails the pull like a source error.
pub(crate) fn pull_remote<T>(
    source: &mut dyn RemoteShard,
    k: usize,
    convert: impl Fn(Answer) -> Option<T>,
    mut emit: impl FnMut(T),
) -> crate::Result<usize> {
    let mut batch = Vec::new();
    let mut pulled = 0usize;
    while pulled < k {
        let want = (k - pulled).min(REMOTE_PULL_CAP);
        let got = source.next_batch(&mut batch, want)?;
        debug_assert!(
            got == batch.len(),
            "sources append exactly what they report"
        );
        for answer in batch.drain(..) {
            let Some(t) = convert(answer) else {
                let wrong = "remote shard emitted an answer of the wrong semantics";
                return Err(CoreError::Internal(wrong.to_owned()));
            };
            emit(t);
        }
        pulled += got;
        if got < want {
            break;
        }
    }
    Ok(pulled)
}

impl AnswerStream {
    /// Builds an [`AnswerStream`] over *remote* shard sources, chained under
    /// the same cross-shard reduce (wildcard minimality merge, Boolean
    /// dedup) as the shards of a local instance.
    ///
    /// `plan` must be the plan the remote executors evaluate — it supplies
    /// the tractability gate and the wildcard-only patterns the merge
    /// tracks.  Sources are drained in order, one at a time; each must yield the
    /// per-shard minimal answers of a distinct group of Gaifman components
    /// under `semantics` (see the [module docs](self) for the contract).
    pub fn from_remote(
        plan: &QueryPlan,
        semantics: Semantics,
        sources: Vec<Box<dyn RemoteShard>>,
    ) -> crate::Result<AnswerStream> {
        AnswerStream::chain(plan, semantics, Shards::Remote(sources.into_iter()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_chase::{Ontology, OntologyMediatedQuery};
    use omq_cq::ConjunctiveQuery;
    use omq_data::{Database, PartialTuple, PartialValue, Schema};
    use std::collections::VecDeque;
    use std::sync::Arc;

    fn office_plan() -> QueryPlan {
        let ontology = Ontology::parse(
            "Researcher(x) -> exists y. HasOffice(x, y)\n\
             HasOffice(x, y) -> Office(y)\n\
             Office(x) -> exists y. InBuilding(x, y)",
        )
        .unwrap();
        let query =
            ConjunctiveQuery::parse("q(x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap();
        QueryPlan::compile(&OntologyMediatedQuery::new(ontology, query).unwrap()).unwrap()
    }

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("Researcher", 1).unwrap();
        s.add_relation("HasOffice", 2).unwrap();
        s.add_relation("InBuilding", 2).unwrap();
        s
    }

    /// A canned source: a fixed answer script, then an optional error.
    struct Scripted {
        answers: VecDeque<Answer>,
        error: Option<CoreError>,
    }

    impl RemoteShard for Scripted {
        fn next_batch(&mut self, out: &mut Vec<Answer>, k: usize) -> Result<usize, CoreError> {
            let mut n = 0;
            while n < k {
                let Some(a) = self.answers.pop_front() else {
                    break;
                };
                out.push(a);
                n += 1;
            }
            match self.error.take() {
                Some(e) if n < k => Err(e),
                error => {
                    self.error = error;
                    Ok(n)
                }
            }
        }
    }

    fn source(answers: Vec<Answer>) -> Box<dyn RemoteShard> {
        Box::new(Scripted {
            answers: answers.into(),
            error: None,
        })
    }

    #[test]
    fn remote_sources_run_the_cross_shard_reduce() {
        let plan = office_plan();
        let db = Database::builder(schema())
            .fact("HasOffice", ["bob", "lab"])
            .fact("InBuilding", ["lab", "west"])
            .build()
            .unwrap();
        let west = db.const_id("west").unwrap();
        // Shard 1 (chase-only researcher) yields the all-star answer; shard 2
        // yields the constant `west`, which dominates it cross-shard.
        let all_star = Answer::Partial(PartialTuple(vec![PartialValue::Star]));
        let constant = Answer::Partial(PartialTuple(vec![PartialValue::Const(west)]));
        let stream = AnswerStream::from_remote(
            &plan,
            Semantics::MinimalPartial,
            vec![
                source(vec![all_star.clone()]),
                source(vec![constant.clone()]),
            ],
        )
        .unwrap();
        assert_eq!(stream.semantics(), Semantics::MinimalPartial);
        assert_eq!(stream.try_collect().unwrap(), vec![constant]);
        // With every shard reporting only the all-star, it survives — once.
        let stream = AnswerStream::from_remote(
            &plan,
            Semantics::MinimalPartial,
            vec![
                source(vec![all_star.clone()]),
                source(vec![all_star.clone()]),
            ],
        )
        .unwrap();
        assert_eq!(stream.try_collect().unwrap(), vec![all_star]);
    }

    #[test]
    fn remote_complete_answers_concatenate_and_boolean_dedups() {
        let plan = office_plan();
        let db = Database::builder(schema())
            .fact("InBuilding", ["lab", "west"])
            .fact("InBuilding", ["den", "east"])
            .build()
            .unwrap();
        let west = Answer::Complete(vec![db.const_id("west").unwrap()]);
        let east = Answer::Complete(vec![db.const_id("east").unwrap()]);
        let stream = AnswerStream::from_remote(
            &plan,
            Semantics::Complete,
            vec![source(vec![west.clone()]), source(vec![east.clone()])],
        )
        .unwrap();
        assert_eq!(stream.try_collect().unwrap(), vec![west, east]);

        // Boolean query: two satisfiable shards, one empty tuple out.
        let ontology = Ontology::new();
        let query = ConjunctiveQuery::parse("q() :- Researcher(x)").unwrap();
        let plan =
            QueryPlan::compile(&OntologyMediatedQuery::new(ontology, query).unwrap()).unwrap();
        let sat = Answer::Complete(Vec::new());
        let mut stream = AnswerStream::from_remote(
            &plan,
            Semantics::Complete,
            vec![source(vec![sat.clone()]), source(vec![sat.clone()])],
        )
        .unwrap();
        let mut page = Vec::new();
        assert_eq!(stream.next_batch(&mut page, 16), 1);
        assert_eq!(page, vec![sat]);
        assert_eq!(stream.emitted(), 1);
        assert!(stream.error().is_none());
    }

    #[test]
    fn remote_source_failures_terminate_the_stream() {
        let plan = office_plan();
        let db = Database::builder(schema())
            .fact("InBuilding", ["lab", "west"])
            .build()
            .unwrap();
        let west = Answer::Partial(PartialTuple(vec![PartialValue::Const(
            db.const_id("west").unwrap(),
        )]));
        let mut stream = AnswerStream::from_remote(
            &plan,
            Semantics::MinimalPartial,
            vec![
                source(vec![west.clone()]),
                Box::new(Scripted {
                    answers: VecDeque::new(),
                    error: Some(CoreError::Internal("worker died".to_owned())),
                }),
            ],
        )
        .unwrap();
        // The healthy shard's constant-bearing answer streams through first…
        assert_eq!(stream.next(), Some(west));
        // …then the dead shard ends the stream with its error.
        assert_eq!(stream.next(), None);
        assert!(matches!(stream.error(), Some(CoreError::Internal(m)) if m == "worker died"));
        // A failed stream stays ended.
        assert_eq!(stream.next(), None);

        // A semantics mismatch is an executor bug and also terminates.
        let bad = Answer::Complete(vec![db.const_id("west").unwrap()]);
        let mut stream =
            AnswerStream::from_remote(&plan, Semantics::MinimalPartial, vec![source(vec![bad])])
                .unwrap();
        assert_eq!(stream.next(), None);
        assert!(matches!(stream.error(), Some(CoreError::Internal(_))));
    }

    fn failing(message: &str) -> Box<dyn RemoteShard> {
        Box::new(Scripted {
            answers: VecDeque::new(),
            error: Some(CoreError::Internal(message.to_owned())),
        })
    }

    /// A source replaying a stream, as a worker replays its shard's stream.
    struct Replay(AnswerStream);

    impl RemoteShard for Replay {
        fn next_batch(&mut self, out: &mut Vec<Answer>, k: usize) -> Result<usize, CoreError> {
            let n = self.0.next_batch(out, k);
            match self.0.error() {
                Some(e) => Err(e.clone()),
                None => Ok(n),
            }
        }
    }

    #[test]
    fn a_remote_chain_over_replayed_shards_is_the_local_chain() {
        // Four components: mary's complete chain, john's office, lone mike,
        // and ann's complete chain in another building.
        let db = Database::builder(schema())
            .fact("Researcher", ["mary"])
            .fact("Researcher", ["john"])
            .fact("Researcher", ["mike"])
            .fact("HasOffice", ["mary", "room1"])
            .fact("HasOffice", ["john", "room4"])
            .fact("InBuilding", ["room1", "main1"])
            .fact("HasOffice", ["ann", "room9"])
            .fact("InBuilding", ["room9", "east"])
            .build()
            .unwrap();
        for head in ["q(x1, x2, x3)", "q(x3)", "q()"] {
            let ontology = Ontology::parse(
                "Researcher(x) -> exists y. HasOffice(x, y)\n\
                 HasOffice(x, y) -> Office(y)\n\
                 Office(x) -> exists y. InBuilding(x, y)",
            )
            .unwrap();
            let query = ConjunctiveQuery::parse(&format!(
                "{head} :- HasOffice(x1, x2), InBuilding(x2, x3)"
            ))
            .unwrap();
            let plan =
                QueryPlan::compile(&OntologyMediatedQuery::new(ontology, query).unwrap()).unwrap();
            let instance = plan.execute_parallel(&db, 1).unwrap();
            assert!(
                instance.shard_count() >= 3,
                "{head}: {}",
                instance.shard_count()
            );
            for semantics in Semantics::ALL {
                let local = instance.answers(semantics).unwrap().try_collect().unwrap();
                assert!(!local.is_empty(), "{head} {semantics:?}");
                for k in [1, 3, usize::MAX] {
                    let sources = instance
                        .shared_shards()
                        .iter()
                        .map(|shard| {
                            let shards = Shards::Local {
                                shards: Arc::new(vec![Arc::clone(shard)]),
                                next: 0,
                            };
                            let own = AnswerStream::chain(&plan, semantics, shards).unwrap();
                            Box::new(Replay(own)) as Box<dyn RemoteShard>
                        })
                        .collect();
                    let mut stream = AnswerStream::from_remote(&plan, semantics, sources).unwrap();
                    let mut remote = Vec::new();
                    while stream.next_batch(&mut remote, k) == k {}
                    assert!(stream.error().is_none(), "{head} {semantics:?} k = {k}");
                    assert_eq!(remote, local, "{head} {semantics:?} k = {k}");
                }
            }
        }
    }

    #[test]
    fn a_boolean_remote_chain_ends_at_the_first_satisfiable_shard() {
        let ontology = Ontology::new();
        let query = ConjunctiveQuery::parse("q() :- Researcher(x)").unwrap();
        let plan =
            QueryPlan::compile(&OntologyMediatedQuery::new(ontology, query).unwrap()).unwrap();
        let sat = Answer::Complete(Vec::new());
        let mut stream = AnswerStream::from_remote(
            &plan,
            Semantics::Complete,
            vec![source(vec![sat.clone()]), failing("worker died")],
        )
        .unwrap();
        let mut page = Vec::new();
        // The answer set is complete after the first source: the local chain
        // stops there, and so does the remote one — the dead source is never
        // asked.
        assert_eq!(stream.next_batch(&mut page, 16), 1);
        assert_eq!(page, vec![sat]);
        assert!(stream.error().is_none(), "{:?}", stream.error());
    }
}

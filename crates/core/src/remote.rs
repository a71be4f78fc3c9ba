//! Remote shard sources: plugging distributed executors into [`AnswerStream`].
//!
//! `QueryPlan::execute_tracked` (and `execute_parallel`, its twin with a
//! caller-set worker bound) packs the database's Gaifman components into
//! shards and chases them on local threads; the cross-shard reduce (the
//! `WildcardMerge` minimality filter plus the Boolean empty-tuple dedup) is
//! folded into the [`AnswerStream`] cursor.  A *distributed* executor — the
//! `omq-cluster` coordinator — does the per-shard chase and enumeration in
//! other **processes** and only has answer pages, not chased databases, on
//! hand.  This module is the seam between the two: a [`RemoteShard`] is a
//! pull-based source of one shard's already-enumerated answers, and
//! [`AnswerStream::from_remote`] wraps a vector of them in a normal
//! `AnswerStream` that runs the *same* cross-shard reduce the in-process
//! sharded cursor uses.  Downstream consumers (the serving layer, pagination,
//! `try_collect`) cannot tell a cluster execution from a local one.
//!
//! Soundness inherits from the parallel module's argument (see
//! [`crate::parallel`]): each source must yield the per-shard-minimal answers
//! of a union of Gaifman components, disjoint across sources.  Then
//! constant-bearing answers are globally minimal as they stream by, and only
//! the wildcard-only patterns need the merge's park-and-flush treatment.
//!
//! Error contract: a source that ends early reports why through
//! [`RemoteShard::error`].  A transport fault the executor could not mask
//! (e.g. every worker died) surfaces here as a [`CoreError`] and terminates
//! the stream, exactly like a mid-stream builder failure in the local cursor.

use crate::error::CoreError;
use crate::parallel::{MergeTuple, WildcardMerge};
use crate::plan::QueryPlan;
use crate::preprocess::PlanSkeleton;
use crate::stream::AnswerStream;
use omq_data::{Answer, MultiTuple, PartialTuple, Semantics};
use std::collections::VecDeque;

/// A pull-based source of one shard's enumerated answers, produced somewhere
/// else (another process, another machine).
///
/// The contract mirrors [`AnswerStream::next_batch`]:
///
/// * `next_batch` appends up to `k` answers to `out` and returns how many
///   were appended; fewer than `k` means the source ended.
/// * An ended source is asked [`RemoteShard::error`] once: `Some(e)` means
///   the shard failed mid-stream (the whole stream reports `e`), `None`
///   means it was exhausted normally.
/// * Every answer must be of the [`Semantics`] the stream was built with,
///   with values resolved against the *coordinator's* database (implementors
///   translate wire answers by constant name before handing them over).
pub trait RemoteShard: Send {
    /// Pulls up to `k` answers, appending to `out`; returns the number
    /// appended.  Fewer than `k` means the source ended — check
    /// [`RemoteShard::error`].
    fn next_batch(&mut self, out: &mut Vec<Answer>, k: usize) -> usize;

    /// The error that ended this source early, if any.  Called once, after
    /// `next_batch` returned short.
    fn error(&mut self) -> Option<CoreError>;
}

/// The cross-shard reduce, parameterised by semantics.  The same machinery
/// `Inner::{Complete,Partial,Multi}` applies to locally chased shards,
/// repackaged for answers that arrive pre-enumerated.
enum RemoteReduce {
    /// Complete answers are shard-disjoint (constants are partitioned across
    /// components); only the Boolean empty tuple needs deduplication.
    Complete {
        boolean: bool,
        emitted_empty: bool,
    },
    /// `None` once flushed.
    Partial(Option<WildcardMerge<PartialTuple>>),
    Multi(Option<WildcardMerge<MultiTuple>>),
}

impl RemoteReduce {
    fn new(semantics: Semantics, skeleton: &PlanSkeleton) -> crate::Result<Self> {
        Ok(match semantics {
            Semantics::Complete => RemoteReduce::Complete {
                boolean: skeleton.boolean,
                emitted_empty: false,
            },
            Semantics::MinimalPartial => RemoteReduce::Partial(Some(WildcardMerge::new(
                PartialTuple::wildcard_only(skeleton)?,
            ))),
            Semantics::MinimalPartialMulti => RemoteReduce::Multi(Some(WildcardMerge::new(
                MultiTuple::wildcard_only(skeleton)?,
            ))),
        })
    }

    /// Feeds one per-shard answer through the reduce; released answers are
    /// queued on `pending`.  Fails if the answer's variant does not match
    /// the stream's semantics — that is a broken executor, not bad data.
    fn offer(&mut self, answer: Answer, pending: &mut VecDeque<Answer>) -> Result<(), CoreError> {
        match (self, answer) {
            (
                RemoteReduce::Complete {
                    boolean,
                    emitted_empty,
                },
                Answer::Complete(t),
            ) => {
                if *boolean {
                    // The empty tuple is the only Boolean answer; every
                    // satisfiable shard reports it once.
                    if !*emitted_empty {
                        *emitted_empty = true;
                        pending.push_back(Answer::Complete(t));
                    }
                } else {
                    pending.push_back(Answer::Complete(t));
                }
                Ok(())
            }
            (RemoteReduce::Partial(merge), Answer::Partial(t)) => {
                merge
                    .as_mut()
                    .expect("no offers after flush")
                    .offer(t, &mut |out| pending.push_back(Answer::Partial(out)));
                Ok(())
            }
            (RemoteReduce::Multi(merge), Answer::Multi(t)) => {
                merge
                    .as_mut()
                    .expect("no offers after flush")
                    .offer(t, &mut |out| pending.push_back(Answer::Multi(out)));
                Ok(())
            }
            _ => Err(CoreError::Internal(
                "remote shard emitted an answer of the wrong semantics".to_owned(),
            )),
        }
    }

    /// Releases the surviving wildcard-only answers.  Call once, after every
    /// source has been drained.
    fn flush(&mut self, pending: &mut VecDeque<Answer>) {
        match self {
            RemoteReduce::Complete { .. } => {}
            RemoteReduce::Partial(merge) => {
                if let Some(m) = merge.take() {
                    m.flush(&mut |t| pending.push_back(Answer::Partial(t)));
                }
            }
            RemoteReduce::Multi(merge) => {
                if let Some(m) = merge.take() {
                    m.flush(&mut |t| pending.push_back(Answer::Multi(t)));
                }
            }
        }
    }
}

/// Per-pull cap on how many answers are requested from a source at once,
/// so drain-everything requests (`k = usize::MAX`) stay incremental.
const REMOTE_PULL_CAP: usize = 4096;

/// The state behind `Inner::Remote` in [`AnswerStream`]: the shard sources,
/// a cursor over them, and the cross-shard reduce.
pub(crate) struct RemoteState {
    sources: Vec<Box<dyn RemoteShard>>,
    /// Index of the source currently being drained.
    current: usize,
    reduce: RemoteReduce,
    /// Answers released by the reduce but not yet pulled.
    pending: VecDeque<Answer>,
    /// Reused landing buffer for source batches.
    scratch: Vec<Answer>,
    /// The reduce has been flushed (all sources drained, or the stream
    /// failed); only `pending` remains.
    flushed: bool,
}

impl std::fmt::Debug for RemoteState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteState")
            .field("sources", &self.sources.len())
            .field("current", &self.current)
            .field("pending", &self.pending.len())
            .field("flushed", &self.flushed)
            .finish()
    }
}

impl RemoteState {
    pub(crate) fn new(
        semantics: Semantics,
        skeleton: &PlanSkeleton,
        sources: Vec<Box<dyn RemoteShard>>,
    ) -> crate::Result<Self> {
        Ok(RemoteState {
            sources,
            current: 0,
            reduce: RemoteReduce::new(semantics, skeleton)?,
            pending: VecDeque::new(),
            scratch: Vec::new(),
            flushed: false,
        })
    }

    /// The batched-pull engine: appends up to `k` answers via `sink` and
    /// returns how many, plus the error that terminated the stream, if any.
    /// Mirrors the batch loops of the local cursor.
    pub(crate) fn pull(
        &mut self,
        k: usize,
        sink: &mut impl FnMut(Answer),
    ) -> (usize, Option<CoreError>) {
        let mut produced = 0usize;
        loop {
            while produced < k {
                let Some(a) = self.pending.pop_front() else {
                    break;
                };
                sink(a);
                produced += 1;
            }
            if produced == k {
                return (produced, None);
            }
            // `pending` is empty past this point.
            if self.current < self.sources.len() {
                let want = (k - produced).min(REMOTE_PULL_CAP);
                self.scratch.clear();
                let got = self.sources[self.current].next_batch(&mut self.scratch, want);
                debug_assert!(
                    got == self.scratch.len(),
                    "sources append exactly what they report"
                );
                let mut bad = None;
                for answer in self.scratch.drain(..) {
                    if let Err(e) = self.reduce.offer(answer, &mut self.pending) {
                        bad = Some(e);
                        break;
                    }
                }
                if let Some(e) = bad {
                    return (produced, Some(self.fail(e)));
                }
                if got < want {
                    // Source ended: failed, or exhausted normally.
                    if let Some(e) = self.sources[self.current].error() {
                        return (produced, Some(self.fail(e)));
                    }
                    self.current += 1;
                }
            } else if !self.flushed {
                self.reduce.flush(&mut self.pending);
                self.flushed = true;
            } else {
                return (produced, None);
            }
        }
    }

    /// Puts the state into its terminal failed shape and passes the error
    /// through: no more pulls from any source, nothing pending.
    fn fail(&mut self, e: CoreError) -> CoreError {
        self.current = self.sources.len();
        self.flushed = true;
        self.pending.clear();
        e
    }
}

impl AnswerStream {
    /// Builds an [`AnswerStream`] over *remote* shard sources, running the
    /// cross-shard reduce (wildcard minimality merge, Boolean dedup) locally.
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
        let state = RemoteState::new(semantics, plan.skeleton()?, sources)?;
        Ok(AnswerStream::with_remote(plan.clone(), semantics, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_chase::{Ontology, OntologyMediatedQuery};
    use omq_cq::ConjunctiveQuery;
    use omq_data::{Database, PartialValue, Schema};

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
        fn next_batch(&mut self, out: &mut Vec<Answer>, k: usize) -> usize {
            let mut n = 0;
            while n < k {
                let Some(a) = self.answers.pop_front() else {
                    break;
                };
                out.push(a);
                n += 1;
            }
            n
        }
        fn error(&mut self) -> Option<CoreError> {
            self.error.take()
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
}

//! The unified, lazy, pull-based answer cursor: [`AnswerStream`].
//!
//! `PreparedInstance::answers(Semantics)` is the one enumeration entry point
//! of the engine: it checks the tractability gate and returns an
//! [`AnswerStream`], an `Iterator<Item = Answer>` that walks the instance's
//! shards one after the other, opening a cursor over a shard when it reaches
//! it.  What a cursor runs on — the join structure of Theorem 4.1(1), or
//! Algorithm 1's prepared half — is the result of the paper's *linear
//! preprocessing*, and it belongs to the shard, not to the stream: the first
//! cursor of a kind to reach a shard builds it (linear in that shard's
//! chase), every later one — of this stream, of another stream, of a `count`
//! or an `exists`, of an instance `refresh`ed from this one — finds it there
//! (see [`crate::shard`]).  So:
//!
//! * **the first stream over an instance** pays each shard's preprocessing on
//!   the pull that enters the shard; `stream.take(k)` only pays for the
//!   shards it enters, and after a [`crate::PreparedInstance::refresh`] the
//!   freshly chased (delta-sized) shards come first, so the time to the
//!   first answer scales with the delta, not with `|D|`;
//! * **every later stream** pays, per shard it enters, for opening a cursor:
//!   nothing for complete answers (the cursor is a stack of indices), and
//!   for minimal partial answers one fill of the list linkage that
//!   Algorithm 1's `prune` edits — a few `u32` writes per progress tree of
//!   the shard.  After that every `next()` is constant work: the paper's
//!   `O(k)` for the first `k` answers, with the preprocessing paid once per
//!   shard instead of once per cursor.  (Multi-wildcard cursors do not share
//!   yet: each still prepares Algorithm 1 for itself — see
//!   [`crate::MultiEnumerator`].)
//!
//! Properties:
//!
//! * **Lazy.** No answer is materialised before it is pulled, and no cursor
//!   is opened — hence no shard's structure built — before the stream
//!   reaches the shard; dropping the stream mid-way abandons the remaining
//!   work, and what it built stays with the shards.
//! * **Owning / resumable.** The stream holds clones of the plan's shared
//!   `Arc` state and of the shard vector, so it is `'static`: it can be
//!   returned from the function that executed the plan, parked inside a
//!   paginating request handler, and resumed at any later point — the
//!   `PreparedInstance` it came from may be dropped freely.  A parked stream
//!   therefore pins its shards *and* the structures built over them, plus
//!   its current cursor's private state; nothing else.
//! * **Independent.** Cursors share a shard's structures read-only.  What an
//!   enumeration mutates (the pruned list linkage, Algorithm 2's candidate
//!   table) is private to its cursor, so any number of streams over one
//!   instance, interleaved or on different threads, each yield the full
//!   sequence (`tests/structure_cache.rs`).
//! * **Shard-sound.** On multi-shard instances the per-shard streams are
//!   chained lazily and the cross-shard wildcard minimality filter
//!   (`WildcardMerge`) plus the Boolean empty-tuple dedup are folded *into*
//!   the cursor, so sharded and sequential instances yield the same answer
//!   multiset (property-tested in `tests/answer_stream.rs`).
//! * **Borrowed.** The pull engine, [`AnswerStream::next_batch_ref`], shows
//!   its sink each answer where the enumerator keeps it, as an
//!   [`AnswerRef`]: a page writer sinking it allocates nothing per answer.
//!   `next`, `next_batch` and `fill` wrap it, copying each answer out.
//! * **One chain for every source.** A shard of the chain is either one of
//!   the instance's own shards or a [`crate::RemoteShard`] handing out the
//!   answers a worker process enumerated over its shard
//!   ([`AnswerStream::from_remote`]).  Both kinds run through the same
//!   batch loops, so the cross-shard reduce exists once, and a remote chain
//!   over sources replaying the per-shard streams yields the local chain's
//!   sequence (`remote::tests`).
//!
//! The tractability gate still fails inside `answers()`; an error from a
//! shard's structure build surfaces mid-stream, like the Algorithm 2 tester
//! failures always did — and on every stream that reaches the shard, since
//! the shard keeps the build's result either way: the stream ends and
//! [`AnswerStream::error`] reports it, which `try_collect`/`for_each_answer`
//! turn back into a `Result`.

use crate::enumerate::AnswerCursor;
use crate::error::CoreError;
use crate::parallel::{MergeTuple, WildcardMerge};
use crate::plan::QueryPlan;
use crate::preprocess::{FreeConnexStructure, PlanSkeleton};
use crate::remote::{pull_remote, RemoteShard};
use crate::shard::Shard;
use crate::Result;
use omq_data::{Answer, AnswerRef, ConstId, MultiTuple, PartialTuple, Semantics};
use std::sync::Arc;

/// Where a stream's shard cursors come from: the instance's own shards,
/// opened in order as the stream reaches them, or remote sources, each
/// already enumerating one shard somewhere else (see [`crate::remote`]).
pub(crate) enum Shards {
    Local {
        /// The shard vector, shared with the instance (and its successors).
        shards: Arc<Vec<Arc<Shard>>>,
        /// Index of the next shard no cursor has been opened over yet.
        next: usize,
    },
    Remote(std::vec::IntoIter<Box<dyn RemoteShard>>),
}

impl Shards {
    /// The next shard's cursor — `open`ed over the shard if it is local —
    /// or `None` once every shard has been handed out.
    fn next<C>(
        &mut self,
        open: impl FnOnce(&Arc<Shard>) -> Result<C>,
    ) -> Option<Result<Cursor<C>>> {
        match self {
            Shards::Local { shards, next } => {
                let shard = shards.get(*next)?;
                *next += 1;
                Some(open(shard).map(Cursor::Local))
            }
            Shards::Remote(sources) => sources.next().map(|source| Ok(Cursor::Remote(source))),
        }
    }
}

impl std::fmt::Debug for Shards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Shards::Local { shards, next } => f
                .debug_struct("Local")
                .field("shards", &shards.len())
                .field("next", next)
                .finish(),
            Shards::Remote(sources) => f.debug_tuple("Remote").field(&sources.len()).finish(),
        }
    }
}

/// The current shard of a stream: a cursor over a local shard, or a remote
/// source handing out that shard's answers.
enum Cursor<C> {
    Local(C),
    Remote(Box<dyn RemoteShard>),
}

/// One shard of the complete-answer stream: the shard's join structure and
/// the cursor walking it.
#[derive(Debug)]
struct CompleteShard {
    structure: Arc<FreeConnexStructure>,
    cursor: AnswerCursor,
}

/// The semantics-specific machinery behind the stream.  Each variant holds
/// at most the *current* shard's cursor; the next shard's is opened on
/// demand when the current one drains.  One stream exists per
/// paginating request, so the size spread between the variants is not worth
/// an indirection on the per-answer hot path.
#[allow(clippy::large_enum_variant)]
enum Inner {
    Complete {
        current: Option<Cursor<CompleteShard>>,
        /// Boolean query: the empty tuple is emitted at most once overall.
        boolean: bool,
        done: bool,
        /// The answer the sink is shown, reused across answers.
        scratch: Vec<ConstId>,
    },
    Partial(WildcardShards<PartialTuple>),
    Multi(WildcardShards<MultiTuple>),
}

/// The state of a wildcard-semantics stream, generic over the tuple kind.
struct WildcardShards<T: MergeTuple> {
    current: Option<Cursor<T::Cursor>>,
    merge: WildcardMerge<T>,
    /// How many of the merge's flushed answers have been pulled.
    flushed: usize,
}

impl<T: MergeTuple> WildcardShards<T> {
    fn new(skeleton: &PlanSkeleton) -> Result<Self> {
        Ok(WildcardShards {
            current: None,
            merge: WildcardMerge::new(T::wildcard_only(skeleton)?),
            flushed: 0,
        })
    }
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, live) = match self {
            Inner::Complete { current, .. } => ("Complete", current.is_some()),
            Inner::Partial(shards) => ("Partial", shards.current.is_some()),
            Inner::Multi(shards) => ("Multi", shards.current.is_some()),
        };
        f.debug_struct("AnswerStreamInner")
            .field("semantics", &name)
            .field("current_shard_live", &live)
            .finish()
    }
}

/// A lazy, resumable cursor over the answers of a prepared instance, in one
/// of the three [`Semantics`].  See the [module docs](self) for the
/// guarantees and `PreparedInstance::answers` for the entry point.
#[derive(Debug)]
pub struct AnswerStream {
    semantics: Semantics,
    /// The plan, kept for the compiled skeleton the lazy shard builds need.
    plan: QueryPlan,
    /// The shards still to be opened.
    shards: Shards,
    inner: Inner,
    error: Option<CoreError>,
    emitted: usize,
}

impl AnswerStream {
    /// Chains the cursors of `shards` under the cross-shard reduce of
    /// `semantics`: the one constructor behind `PreparedInstance::answers`
    /// and [`AnswerStream::from_remote`].  Only the tractability gate runs
    /// here; a shard's cursor is opened — and a local shard's structure
    /// built, if no one has yet — when the stream reaches the shard.
    pub(crate) fn chain(plan: &QueryPlan, semantics: Semantics, shards: Shards) -> Result<Self> {
        // Fail the intractable cases (and a query too wide for Algorithm 2)
        // eagerly — the skeleton is compiled at plan build time, so this is
        // a cheap check, not per-shard work.
        let skeleton = plan.skeleton()?;
        let inner = match semantics {
            Semantics::Complete => Inner::Complete {
                current: None,
                boolean: skeleton.boolean,
                done: false,
                scratch: Vec::new(),
            },
            Semantics::MinimalPartial => Inner::Partial(WildcardShards::new(skeleton)?),
            Semantics::MinimalPartialMulti => Inner::Multi(WildcardShards::new(skeleton)?),
        };
        Ok(AnswerStream {
            semantics,
            plan: plan.clone(),
            shards,
            inner,
            error: None,
            emitted: 0,
        })
    }

    /// The semantics this stream enumerates.  Every yielded [`Answer`] is of
    /// the matching variant.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Number of answers yielded so far — the natural `offset` for resumable
    /// pagination.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// The error that terminated the stream early, if any.  A stream that
    /// returned `None` with no error was exhausted normally.
    pub fn error(&self) -> Option<&CoreError> {
        self.error.as_ref()
    }

    /// Drains the stream into a `Result`: the remaining answers, or the
    /// error that cut the enumeration short.
    pub fn try_collect(mut self) -> Result<Vec<Answer>> {
        let mut out = Vec::new();
        for answer in &mut self {
            out.push(answer);
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Batched pull: appends up to `k` answers to `out` and returns how many
    /// were appended.  Equivalent to `k` calls to `next()` (same answers, same
    /// order, resumable mid-stream); the owning wrapper over
    /// [`AnswerStream::next_batch_ref`].
    pub fn next_batch(&mut self, out: &mut Vec<Answer>, k: usize) -> usize {
        self.next_batch_ref(k, |a| out.push(a.to_answer()))
    }

    /// Batched pull into a preallocated buffer: overwrites a prefix of `buf`
    /// and returns its length.  Same semantics as [`AnswerStream::next_batch`]
    /// with `k = buf.len()`.
    pub fn fill(&mut self, buf: &mut [Answer]) -> usize {
        let mut slots = buf.iter_mut();
        self.next_batch_ref(slots.len(), |a| {
            *slots.next().expect("at most buf.len() answers") = a.to_answer();
        })
    }

    /// The stream's one pull engine: shows `sink` up to `k` answers, each
    /// borrowed from where the enumerator keeps it, and returns how many —
    /// block refills, no per-answer dispatch, no per-answer allocation.
    /// Fewer than `k` means the stream ended — exhausted, or failed (check
    /// [`AnswerStream::error`]).  The only writer of `self.error`.
    pub fn next_batch_ref(&mut self, k: usize, sink: impl FnMut(AnswerRef<'_>)) -> usize {
        if k == 0 || self.error.is_some() {
            return 0;
        }
        let skeleton = self.plan.skeleton().expect("checked at stream build");
        let (produced, error) = match &mut self.inner {
            Inner::Complete { .. } => self.batch_complete(k, sink),
            Inner::Partial(state) => state.pull_batch(skeleton, &mut self.shards, k, sink),
            Inner::Multi(state) => state.pull_batch(skeleton, &mut self.shards, k, sink),
        };
        self.error = error;
        self.emitted += produced;
        produced
    }

    fn batch_complete(
        &mut self,
        k: usize,
        mut sink: impl FnMut(AnswerRef<'_>),
    ) -> (usize, Option<CoreError>) {
        let Inner::Complete {
            current,
            boolean,
            done,
            scratch,
        } = &mut self.inner
        else {
            unreachable!("semantics-checked dispatch");
        };
        if *done {
            return (0, None);
        }
        let mut produced = 0usize;
        loop {
            if produced == k {
                return (produced, None);
            }
            if let Some(cursor) = current.as_mut() {
                // Boolean queries emit at most one (empty) tuple overall.
                let limit = if *boolean { 1 } else { k - produced };
                let stepped = match cursor {
                    Cursor::Local(shard) => {
                        let mut invariant_null = false;
                        let stepped = shard.cursor.fill_with(&shard.structure, limit, |values| {
                            // `complete_only` structures hold no null; one
                            // is reported as an invariant violation.
                            scratch.clear();
                            scratch.extend(values.iter().map(|v| {
                                v.as_const().unwrap_or_else(|| {
                                    invariant_null = true;
                                    ConstId(0)
                                })
                            }));
                            if !invariant_null {
                                sink(AnswerRef::Complete(scratch));
                                produced += 1;
                            }
                        });
                        if invariant_null {
                            *done = true;
                            let error =
                                CoreError::Internal("complete answer contains a null".to_owned());
                            return (produced, Some(error));
                        }
                        stepped
                    }
                    Cursor::Remote(source) => {
                        let pulled =
                            pull_remote(source.as_mut(), limit, Answer::into_complete, |a| {
                                sink(AnswerRef::Complete(&a));
                                produced += 1;
                            });
                        match pulled {
                            Ok(stepped) => stepped,
                            Err(e) => {
                                *done = true;
                                return (produced, Some(e));
                            }
                        }
                    }
                };
                if *boolean && stepped > 0 {
                    *done = true;
                    return (produced, None);
                }
                if stepped < limit {
                    *current = None;
                }
            } else {
                let skeleton = self.plan.skeleton().expect("checked at stream build");
                let opened = self.shards.next(|shard| {
                    let structure = shard.complete_structure(skeleton)?;
                    Ok(CompleteShard {
                        cursor: AnswerCursor::new(structure),
                        structure: Arc::clone(structure),
                    })
                });
                match opened {
                    Some(Ok(cursor)) => *current = Some(cursor),
                    // A shard failed to open, or there is none left.
                    ended => {
                        *done = true;
                        return (produced, ended.and_then(Result::err));
                    }
                }
            }
        }
    }
}

impl<T: MergeTuple> WildcardShards<T> {
    /// The wildcard batch loop: pulls the current shard's cursor, passing
    /// every tuple the merge lets through straight to the sink, opens the
    /// next shard when the current one is exhausted, and releases what the
    /// merge flushes after the last.  Returns the answers sunk and the
    /// error that ended the stream (never pulled again), if any.
    fn pull_batch(
        &mut self,
        skeleton: &PlanSkeleton,
        shards: &mut Shards,
        k: usize,
        mut sink: impl FnMut(AnswerRef<'_>),
    ) -> (usize, Option<CoreError>) {
        let WildcardShards {
            current,
            merge,
            flushed,
        } = self;
        let mut produced = 0usize;
        while produced < k {
            if let Some(cursor) = current.as_mut() {
                // A pulled tuple passes at most once: no overshooting `k`.
                let want = k - produced;
                let mut pass = |t: &T| {
                    if merge.observe(t) {
                        sink(t.answer_ref());
                        produced += 1;
                    }
                };
                let stepped = match cursor {
                    Cursor::Local(cursor) => {
                        let stepped = T::fill_ref(cursor, want, &mut pass);
                        match T::error(cursor) {
                            Some(e) if stepped < want => return (produced, Some(e.clone())),
                            _ => stepped,
                        }
                    }
                    Cursor::Remote(source) => {
                        match pull_remote(source.as_mut(), want, T::from_answer, |t| pass(&t)) {
                            Ok(stepped) => stepped,
                            Err(e) => return (produced, Some(e)),
                        }
                    }
                };
                if stepped < want {
                    *current = None;
                }
            } else {
                match shards.next(|shard| T::open(skeleton, shard)) {
                    Some(Ok(cursor)) => *current = Some(cursor),
                    Some(Err(e)) => return (produced, Some(e)),
                    None => {
                        // Every shard is drained: what the merge releases,
                        // past what earlier pulls took of it.
                        for t in merge.flush().skip(*flushed).take(k - produced) {
                            sink(t.answer_ref());
                            produced += 1;
                            *flushed += 1;
                        }
                        break;
                    }
                }
            }
        }
        (produced, None)
    }
}

impl Iterator for AnswerStream {
    type Item = Answer;

    fn next(&mut self) -> Option<Self::Item> {
        let mut out = None;
        self.next_batch_ref(1, |a| out = Some(a.to_answer()));
        out
    }
}

impl std::iter::FusedIterator for AnswerStream {}

// A stream is handed across request-handler threads by the serving layer.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AnswerStream>();
};

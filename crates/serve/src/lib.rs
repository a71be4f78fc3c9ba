//! A session-oriented serving front end: one long-lived [`Store`] plus a
//! catalogue of named, compiled OMQ plans.
//!
//! The compile-once/execute-many split of `omq-core` (`QueryPlan` /
//! `PreparedInstance`) was built for serving workloads: a fixed catalogue of
//! ontology-mediated queries compiled up front, per-request evaluation only
//! charged the data-linear work.  [`ServingEngine`] is that front end, now
//! organised as a **session** over live data:
//!
//! * a **store**: the engine owns one [`Store`] — a mutable fact store with
//!   transactional batch ingestion ([`ServingEngine::register_data`] commits
//!   a [`Txn`]) and cheap copy-on-write [`Snapshot`]s
//!   ([`ServingEngine::snapshot`]).  Registering a query merges its data
//!   schema into the store, so the store always accepts the facts the
//!   catalogue can query;
//! * a **catalogue** of named, compiled [`QueryPlan`]s
//!   ([`ServingEngine::register_query`]), addressable by [`QueryId`] or by
//!   name;
//! * **owned requests**: a [`Request`] is a plain value naming a catalogued
//!   query (by id or name) and the data to evaluate it over — the store head,
//!   a pinned [`Snapshot`], or an ad-hoc database — with optional
//!   `limit`/`offset` work bounds.  Requests borrow nothing, so they can be
//!   built, queued, cloned, and shipped across threads freely;
//! * **snapshot pinning**: [`ServingEngine::serve_batch`] /
//!   [`ServingEngine::serve_stream`] pin one snapshot per request at open
//!   time, so concurrent commits never invalidate an in-flight enumeration —
//!   an [`AnswerStream`] opened on a snapshot keeps yielding after
//!   arbitrarily many commits, and after the engine itself is dropped;
//! * per-request **work bounds**: [`Request::with_limit`] /
//!   [`Request::with_offset`] page through an answer stream without ever
//!   materialising the full answer set (`O(offset + limit)` enumeration work
//!   thanks to the constant-delay cursor).
//!
//! The catalogue and the store head are only mutated through `&mut self`
//! entry points; serving itself is `&self` and `ServingEngine` is
//! `Send + Sync`, so one engine can be shared by any number of reader
//! threads between writes.
//!
//! ```
//! use omq_chase::{Ontology, OntologyMediatedQuery};
//! use omq_cq::ConjunctiveQuery;
//! use omq_serve::{Request, Semantics, ServingEngine, Txn};
//!
//! let ontology = Ontology::parse("Researcher(x) -> exists y. HasOffice(x, y)")?;
//! let query = ConjunctiveQuery::parse("q(x, y) :- HasOffice(x, y)")?;
//! let omq = OntologyMediatedQuery::new(ontology, query)?;
//!
//! // The session: one engine owning a store plus a catalogue.
//! let mut engine = ServingEngine::new(4);
//! let offices = engine.register_query("offices", &omq)?;
//! engine.register_data(
//!     Txn::new()
//!         .insert("Researcher", ["mary"])
//!         .insert("Researcher", ["ada"]),
//! )?;
//!
//! // Requests are owned values naming a query; by default they evaluate
//! // over the store head, pinned per request.
//! let responses = engine.serve_batch(&[
//!     Request::new(offices, Semantics::MinimalPartial).with_limit(1),
//! ]);
//! let response = responses[0].as_ref().unwrap();
//! assert_eq!(response.answers.len(), 1); // (mary, *) — or (ada, *)
//! assert!(response.truncated); // one more answer existed
//!
//! // Pin a snapshot: later commits never change what it answers.
//! let pinned = engine.snapshot();
//! engine.register_data(Txn::new().insert("Researcher", ["bob"]))?;
//! let before =
//!     engine.serve_one(&Request::new(offices, Semantics::MinimalPartial).at(pinned))?;
//! assert_eq!(before.answers.len(), 2);
//!
//! // A fresh request (here by name) sees the new facts — same compiled plan.
//! let after = engine.serve_stream(&Request::by_name("offices", Semantics::MinimalPartial))?;
//! assert_eq!(after.count(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use omq_chase::OntologyMediatedQuery;
use omq_core::parallel::map_bounded;
use omq_core::{AnswerStream, CoreError, PreparedInstance, PreprocessStats, QueryPlan};
use omq_data::{Answer, AnswerRef, ConstId, Database, MultiTuple, PartialTuple};
use rustc_hash::FxHashMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

pub use omq_data::{CommitReceipt, DataError, Semantics, Snapshot, Store, Txn};

/// Errors raised by the serving front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A query name was registered twice.
    DuplicateQuery(String),
    /// A request referenced a query id that is not in the catalogue.
    UnknownQuery(usize),
    /// A request referenced a query name that is not in the catalogue.
    UnknownQueryName(String),
    /// A store/data error bubbled up from ingestion or schema merging.
    Data(DataError),
    /// A compilation or execution error bubbled up from the core engine.
    Core(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DuplicateQuery(name) => {
                write!(f, "query `{name}` is already registered")
            }
            ServeError::UnknownQuery(id) => write!(f, "unknown query id {id}"),
            ServeError::UnknownQueryName(name) => write!(f, "unknown query name `{name}`"),
            ServeError::Data(e) => write!(f, "store error: {e}"),
            ServeError::Core(e) => write!(f, "core engine error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Data(e) => Some(e),
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<DataError> for ServeError {
    fn from(e: DataError) -> Self {
        ServeError::Data(e)
    }
}

/// Convenient `Result` alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Block size for the serving layer's batched pulls off an [`AnswerStream`]
/// (offset skipping and response collection).  Large enough to amortise the
/// per-block dispatch, small enough to keep bounded-window requests cheap.
const SERVE_BLOCK: usize = 256;

/// Handle to a compiled plan in a [`ServingEngine`] catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(usize);

impl QueryId {
    /// The catalogue index behind the handle.  Stable for the lifetime of
    /// the engine (plans are never evicted), so out-of-process front ends
    /// can carry it over a wire and rebuild the handle with
    /// [`QueryId::from_index`].
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a catalogue index (e.g. decoded off a wire).
    /// An index that names no catalogued plan is not an error here — it
    /// fails at use time with [`ServeError::UnknownQuery`].
    pub fn from_index(index: usize) -> QueryId {
        QueryId(index)
    }
}

/// Names a catalogued query inside a [`Request`]: by compiled handle or by
/// registration name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryRef {
    /// A [`QueryId`] returned by [`ServingEngine::register_query`].
    Id(QueryId),
    /// The name the query was registered under.
    Name(String),
}

impl From<QueryId> for QueryRef {
    fn from(id: QueryId) -> Self {
        QueryRef::Id(id)
    }
}

impl From<&str> for QueryRef {
    fn from(name: &str) -> Self {
        QueryRef::Name(name.to_owned())
    }
}

impl From<String> for QueryRef {
    fn from(name: String) -> Self {
        QueryRef::Name(name)
    }
}

/// Names the data a [`Request`] evaluates over.
#[derive(Debug, Clone, Default)]
pub enum DataRef {
    /// The engine's store head, pinned to a fresh [`Snapshot`] when the
    /// request is opened (the default).
    #[default]
    Head,
    /// A caller-pinned snapshot: the request sees exactly this epoch, no
    /// matter how many commits happen in between.
    Snapshot(Snapshot),
    /// An ad-hoc database outside the engine's store (e.g. per-tenant data
    /// shipped with the request).
    Database(Arc<Database>),
}

/// One unit of serving work: evaluate a catalogued query over some data,
/// optionally bounded by a result window.
///
/// A request is an **owned value** — it names its query ([`QueryRef`]) and
/// its data ([`DataRef`]) instead of borrowing them, so requests can be
/// built ahead of time, queued, cloned, and moved across threads.  Built in
/// builder style:
///
/// ```ignore
/// Request::new(id, Semantics::MinimalPartial)  // store head…
///     .at(snapshot)                            // …or a pinned snapshot
///     .with_offset(100)
///     .with_limit(50)
/// ```
#[derive(Debug, Clone)]
pub struct Request {
    /// The catalogued query to evaluate (by id or by name).
    pub query: QueryRef,
    /// The data to evaluate it over (store head by default).
    pub data: DataRef,
    /// The answer semantics to produce.
    pub semantics: Semantics,
    /// Maximum number of answers to return (`None` = unbounded).  A bounded
    /// request performs `O(offset + limit)` enumeration work, never
    /// materialising the full answer set.
    pub limit: Option<usize>,
    /// Number of leading answers to skip — the pagination cursor.
    pub offset: usize,
}

impl Request {
    /// Builds an unbounded request over the engine's store head.
    pub fn new(query: impl Into<QueryRef>, semantics: Semantics) -> Self {
        Request {
            query: query.into(),
            data: DataRef::Head,
            semantics,
            limit: None,
            offset: 0,
        }
    }

    /// Builds a request addressing the query by its registration name.
    pub fn by_name(name: &str, semantics: Semantics) -> Self {
        Request::new(name, semantics)
    }

    /// Evaluates over a pinned [`Snapshot`] instead of the store head.  Use
    /// one snapshot across several requests for a consistent multi-request
    /// read (e.g. the pages of one pagination session).
    pub fn at(mut self, snapshot: Snapshot) -> Self {
        self.data = DataRef::Snapshot(snapshot);
        self
    }

    /// Evaluates over an ad-hoc database outside the engine's store.
    /// Accepts an owned [`Database`] or a shared `Arc<Database>` (use the
    /// latter to reuse one database across requests without copying).
    pub fn with_database(mut self, database: impl Into<Arc<Database>>) -> Self {
        self.data = DataRef::Database(database.into());
        self
    }

    /// Caps the number of answers returned.  A million-user front end sets
    /// this on every request: the engine stops enumerating right after the
    /// window (one extra probe detects truncation).
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Skips the first `offset` answers — combine with
    /// [`Request::with_limit`] for stateless pagination (the enumeration
    /// order is deterministic for a fixed plan and database; pin one
    /// [`Snapshot`] across the pages to also fix the data).
    pub fn with_offset(mut self, offset: usize) -> Self {
        self.offset = offset;
        self
    }
}

/// The answers of one served request, in the semantics the request asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerSet {
    /// Complete answers as constant tuples.
    Complete(Vec<Vec<ConstId>>),
    /// Minimal partial answers.
    Partial(Vec<PartialTuple>),
    /// Minimal partial answers with multi-wildcards.
    Multi(Vec<MultiTuple>),
}

impl AnswerSet {
    /// An empty answer set of the given semantics.
    pub fn empty(semantics: Semantics) -> Self {
        match semantics {
            Semantics::Complete => AnswerSet::Complete(Vec::new()),
            Semantics::MinimalPartial => AnswerSet::Partial(Vec::new()),
            Semantics::MinimalPartialMulti => AnswerSet::Multi(Vec::new()),
        }
    }

    /// The semantics of this answer set.
    pub fn semantics(&self) -> Semantics {
        match self {
            AnswerSet::Complete(_) => Semantics::Complete,
            AnswerSet::Partial(_) => Semantics::MinimalPartial,
            AnswerSet::Multi(_) => Semantics::MinimalPartialMulti,
        }
    }

    /// Appends one answer; the variant must match the set's semantics (which
    /// holds by construction for answers pulled off a stream of the same
    /// semantics).
    fn push(&mut self, answer: Answer) {
        match (self, answer) {
            (AnswerSet::Complete(v), Answer::Complete(t)) => v.push(t),
            (AnswerSet::Partial(v), Answer::Partial(t)) => v.push(t),
            (AnswerSet::Multi(v), Answer::Multi(t)) => v.push(t),
            (set, answer) => unreachable!(
                "stream semantics {:?} yielded mismatched answer {answer:?}",
                set.semantics()
            ),
        }
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        match self {
            AnswerSet::Complete(a) => a.len(),
            AnswerSet::Partial(a) => a.len(),
            AnswerSet::Multi(a) => a.len(),
        }
    }

    /// Returns `true` iff the request produced no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The response to one [`Request`].
#[derive(Debug, Clone)]
pub struct Response {
    /// The query that was evaluated (resolved to its catalogue id).
    pub query: QueryId,
    /// The store epoch the request was served at (`None` for ad-hoc
    /// databases outside the store).
    pub epoch: Option<u64>,
    /// The answers inside the request's `offset`/`limit` window, in the
    /// requested semantics.
    pub answers: AnswerSet,
    /// `true` iff more answers existed beyond the request's window.
    pub truncated: bool,
    /// Preprocessing statistics of the execution behind this response.
    pub stats: PreprocessStats,
}

/// The response to an aggregate request ([`ServingEngine::count`]): the
/// total number of answers of the request's query under its semantics at
/// the served epoch, with no answer tuples materialised along the way.
#[derive(Debug, Clone)]
pub struct CountResponse {
    /// The query that was counted (resolved to its catalogue id).
    pub query: QueryId,
    /// The store epoch the aggregate was served at (`None` for ad-hoc
    /// databases outside the store).
    pub epoch: Option<u64>,
    /// The semantics the answers were counted under.
    pub semantics: Semantics,
    /// Total number of answers — what draining an unbounded [`Request`] of
    /// the same semantics would return, computed without materialising it.
    pub count: u64,
    /// `count > 0`, for symmetry with [`ServingEngine::exists`].
    pub exists: bool,
    /// Preprocessing statistics of the execution behind this aggregate.
    pub stats: PreprocessStats,
}

/// The lazy counterpart of [`Response`]: the request's answer window as a
/// pullable cursor ([`Iterator<Item = Answer>`]).
///
/// The stream owns its data (plan handles plus chased shards), so it is
/// independent of the engine, the request, and the store: it can be parked,
/// resumed, or dropped mid-way, survives concurrent
/// [`ServingEngine::register_data`] commits, and every pulled answer costs
/// constant enumeration work.
#[derive(Debug)]
pub struct StreamedResponse {
    query: QueryId,
    epoch: Option<u64>,
    stats: PreprocessStats,
    stream: AnswerStream,
    /// Answers still to be yielded under the request's limit.
    remaining: Option<usize>,
}

impl StreamedResponse {
    /// The query this stream answers.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// The store epoch pinned by this stream (`None` for ad-hoc databases).
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// Preprocessing statistics of the execution behind this stream.
    pub fn stats(&self) -> &PreprocessStats {
        &self.stats
    }

    /// The semantics of the yielded answers.
    pub fn semantics(&self) -> Semantics {
        self.stream.semantics()
    }

    /// The error that ended the stream early, if any.
    pub fn error(&self) -> Option<&CoreError> {
        self.stream.error()
    }

    /// Batched pull: appends up to `k` answers to `out` (clipped to the
    /// request's remaining `limit`) and returns how many were appended.
    /// Equivalent to `k` calls to `next()`, at a lower per-answer cost —
    /// see [`AnswerStream::next_batch`].
    pub fn next_batch(&mut self, out: &mut Vec<Answer>, k: usize) -> usize {
        self.next_batch_ref(k, |a| out.push(a.to_answer()))
    }

    /// Borrowed batched pull: shows `sink` up to `k` answers (clipped to
    /// the request's remaining `limit`) without copying them out of the
    /// enumerator, and returns how many — see
    /// [`AnswerStream::next_batch_ref`].
    pub fn next_batch_ref(&mut self, k: usize, sink: impl FnMut(AnswerRef<'_>)) -> usize {
        let want = match self.remaining {
            Some(n) => k.min(n),
            None => k,
        };
        let produced = self.stream.next_batch_ref(want, sink);
        if let Some(n) = &mut self.remaining {
            *n -= produced;
        }
        produced
    }
}

impl Iterator for StreamedResponse {
    type Item = Answer;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.remaining {
            Some(0) => None,
            Some(n) => {
                let answer = self.stream.next()?;
                *n -= 1;
                Some(answer)
            }
            None => self.stream.next(),
        }
    }
}

impl std::iter::FusedIterator for StreamedResponse {}

/// A serving session: one [`Store`] plus a catalogue of compiled plans and a
/// fixed-size worker pool.  See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct ServingEngine {
    store: Store,
    plans: Vec<(String, QueryPlan)>,
    by_name: FxHashMap<String, usize>,
    workers: usize,
    /// Warm prepared instances over the store head, aligned with `plans`.
    /// Kept fresh by [`ServingEngine::register_data`] via incremental
    /// `PreparedInstance::refresh`; an entry is `None` when warming failed
    /// (the slow per-request path still serves the query).  The store only
    /// moves through `register_data` and `register_plan`, and both bring
    /// `warm` to the new head, so it is always at the head epoch.
    warm: Vec<Option<Arc<PreparedInstance>>>,
}

impl ServingEngine {
    /// Creates an engine with an empty store and a pool of `workers` threads
    /// for batch serving (clamped to at least one).  The store schema grows
    /// automatically as queries are registered.
    pub fn new(workers: usize) -> Self {
        ServingEngine {
            store: Store::new(omq_data::Schema::new()),
            plans: Vec::new(),
            by_name: FxHashMap::default(),
            workers: workers.max(1),
            warm: Vec::new(),
        }
    }

    /// Number of worker threads used by [`ServingEngine::serve_batch`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The engine's store (read access; commits go through
    /// [`ServingEngine::register_data`]).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Pins the current store head (see [`Store::snapshot`]): cheap, and
    /// immune to later commits.
    pub fn snapshot(&self) -> Snapshot {
        self.store.snapshot()
    }

    /// The store's current epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Commits a transaction of data changes to the engine's store
    /// (commit-or-rollback; see [`Store::commit`]).  In-flight streams and
    /// pinned snapshots are unaffected; requests opened afterwards against
    /// the head see the new facts — through the same compiled plans, nothing
    /// is recompiled.
    ///
    /// After the commit, every catalogued query's warm prepared instance is
    /// brought forward incrementally via `PreparedInstance::refresh`: only
    /// the Gaifman components the commit touched are re-chased, untouched
    /// shards are shared with the previous instance, and subsequent
    /// store-head requests serve from the refreshed cache with
    /// time-to-first-answer proportional to the delta.
    pub fn register_data(&mut self, txn: Txn) -> Result<CommitReceipt> {
        let receipt = self.store.commit(txn)?;
        let head = self.store.snapshot();
        // Warming is best-effort: a refresh that cannot verify its lineage
        // falls back to a full tracked execution internally, and an entry
        // that errors outright is dropped (the slow path still serves it).
        let mut warm = std::mem::take(&mut self.warm);
        warm.resize(self.plans.len(), None);
        for (entry, (_, plan)) in warm.iter_mut().zip(&self.plans) {
            *entry = match entry.take() {
                Some(prev) => prev.refresh(&head, &receipt).ok().map(Arc::new),
                None => Self::warm_one(plan, &head),
            };
        }
        self.warm = warm;
        Ok(receipt)
    }

    /// Compiles `omq` with default configuration, adds it to the catalogue
    /// under `name`, and merges its data schema into the store.
    pub fn register_query(&mut self, name: &str, omq: &OntologyMediatedQuery) -> Result<QueryId> {
        let plan = QueryPlan::compile(omq)?;
        self.register_plan(name, plan)
    }

    /// Adds an already-compiled plan to the catalogue under `name`, merging
    /// its data schema into the store and warming a prepared instance over
    /// the current head.
    pub fn register_plan(&mut self, name: &str, plan: QueryPlan) -> Result<QueryId> {
        if self.by_name.contains_key(name) {
            return Err(ServeError::DuplicateQuery(name.to_owned()));
        }
        let schema_grew = self.store.merge_schema(plan.omq().data_schema())?;
        let id = self.plans.len();
        self.plans.push((name.to_owned(), plan));
        self.by_name.insert(name.to_owned(), id);
        if schema_grew {
            // The merge moved the epoch (older warm instances bake in the
            // previous relation-id layout): rebuild everything over the
            // current head.
            self.rewarm_all();
        } else {
            let head = self.store.snapshot();
            let warmed = Self::warm_one(&self.plans[id].1, &head);
            self.warm.push(warmed);
        }
        Ok(QueryId(id))
    }

    /// Warms one plan over the store head.  An empty head is deliberately
    /// not executed: there is nothing to chase, and the execution would pin
    /// the plan's shared chase-memo fingerprint to the store's merged schema
    /// layout, disabling memoisation for ad-hoc databases laid out over the
    /// query's own data schema.
    fn warm_one(plan: &QueryPlan, head: &Snapshot) -> Option<Arc<PreparedInstance>> {
        if head.database().is_empty() {
            return None;
        }
        plan.execute_tracked(head).ok().map(Arc::new)
    }

    /// Rebuilds the warm prepared cache for every catalogued query over the
    /// current store head.
    fn rewarm_all(&mut self) {
        let head = self.store.snapshot();
        self.warm = self
            .plans
            .iter()
            .map(|(_, plan)| Self::warm_one(plan, &head))
            .collect();
    }

    /// The warm prepared instance cached for `id` at the current store
    /// epoch, if one exists.  Store-head requests are served from this
    /// instance; it is refreshed incrementally by
    /// [`ServingEngine::register_data`].
    pub fn warm_instance(&self, id: QueryId) -> Option<Arc<PreparedInstance>> {
        self.warm.get(id.0).cloned().flatten()
    }

    /// Looks up a catalogued query by name.
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.by_name.get(name).copied().map(QueryId)
    }

    /// The compiled plan behind a query id.
    pub fn plan(&self, id: QueryId) -> Result<&QueryPlan> {
        self.plans
            .get(id.0)
            .map(|(_, plan)| plan)
            .ok_or(ServeError::UnknownQuery(id.0))
    }

    /// Number of catalogued queries.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Returns `true` iff the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Resolves a query reference to its catalogue id and compiled plan.
    fn resolve_query(&self, query: &QueryRef) -> Result<(QueryId, &QueryPlan)> {
        let id = match query {
            QueryRef::Id(id) => *id,
            QueryRef::Name(name) => self
                .query_id(name)
                .ok_or_else(|| ServeError::UnknownQueryName(name.clone()))?,
        };
        Ok((id, self.plan(id)?))
    }

    /// Executes the request's plan over its (pinned) data: the chase plus
    /// shard preparation, shared by the streaming and aggregate entry
    /// points.  Returns the prepared instance behind a shared handle — the
    /// warm head instance when the fast path hits, a freshly executed one
    /// otherwise.
    fn resolve_instance(
        &self,
        request: &Request,
    ) -> Result<(QueryId, Option<u64>, Arc<PreparedInstance>)> {
        let (id, plan) = self.resolve_query(&request.query)?;
        // Pin the data *before* executing: `Head` resolves to a snapshot of
        // the store at this instant, so the returned instance is isolated
        // from every later commit.
        let pinned;
        let (db, epoch): (&Database, Option<u64>) = match &request.data {
            DataRef::Head => {
                pinned = self.store.snapshot();
                // Warm fast path: the head was already executed (and kept
                // fresh incrementally across commits), so the request only
                // pays for opening its cursor — after a delta commit, time
                // to the first answer is proportional to the delta.
                if let Some(instance) = self.warm.get(id.0).and_then(Option::as_ref) {
                    return Ok((id, Some(pinned.epoch()), Arc::clone(instance)));
                }
                (pinned.database(), Some(pinned.epoch()))
            }
            // Caller-pinned snapshots always execute from scratch — even
            // when the snapshot still *is* the store head.  Serving the
            // warm (incrementally refreshed) instance here would be sound
            // multiset-wise, but its answer *order* differs from a fresh
            // execute (refreshed shards stream first), and the same pinned
            // snapshot must replay the same sequence whether or not the
            // head has moved on since.
            DataRef::Snapshot(snapshot) => (snapshot.database(), Some(snapshot.epoch())),
            DataRef::Database(db) => (db, None),
        };
        Ok((id, epoch, Arc::new(plan.execute(db)?)))
    }

    /// Opens the answer cursor of a request (every answer pulled afterwards
    /// is constant work).
    fn open_stream(
        &self,
        request: &Request,
    ) -> Result<(QueryId, Option<u64>, AnswerStream, PreprocessStats)> {
        let (id, epoch, instance) = self.resolve_instance(request)?;
        let stream = instance.answers(request.semantics)?;
        Ok((id, epoch, stream, *instance.stats()))
    }

    /// Serves the aggregate form of a request: how many answers the query
    /// has under the request's semantics at the served epoch, computed
    /// through the non-materialising fast paths of
    /// [`PreparedInstance::count`] — no answer tuple is ever built.  The
    /// request's `limit`/`offset` window describes an answer page and does
    /// not apply to aggregates; it is ignored.
    pub fn count(&self, request: &Request) -> Result<CountResponse> {
        let (query, epoch, instance) = self.resolve_instance(request)?;
        let count = instance.count(request.semantics)?;
        Ok(CountResponse {
            query,
            epoch,
            semantics: request.semantics,
            count,
            exists: count > 0,
            stats: *instance.stats(),
        })
    }

    /// Emptiness probe for a request — like [`ServingEngine::count`] but
    /// cheaper: per-shard constant-work probes through
    /// [`PreparedInstance::exists`], no enumeration at all.
    pub fn exists(&self, request: &Request) -> Result<bool> {
        let (_, _, instance) = self.resolve_instance(request)?;
        Ok(instance.exists(request.semantics)?)
    }

    /// Serves one request lazily: returns the cursor over the request's
    /// answer window instead of a materialised answer set.  The offset is
    /// applied eagerly (skipped answers are enumerated but not built into a
    /// response); the limit is enforced by the returned iterator.
    pub fn serve_stream(&self, request: &Request) -> Result<StreamedResponse> {
        let (query, epoch, mut stream, stats) = self.open_stream(request)?;
        // Skip the offset in batched blocks: same enumeration work as pulling
        // one-by-one, minus the per-answer dispatch, and bounded memory (the
        // skipped block is recycled, never accumulated).
        let mut to_skip = request.offset;
        let mut block: Vec<Answer> = Vec::new();
        while to_skip > 0 {
            let n = stream.next_batch(&mut block, to_skip.min(SERVE_BLOCK));
            if n == 0 {
                break;
            }
            to_skip -= n;
            block.clear();
        }
        if let Some(e) = stream.error() {
            return Err(e.clone().into());
        }
        Ok(StreamedResponse {
            query,
            epoch,
            stats,
            stream,
            remaining: request.limit,
        })
    }

    /// Serves one request on the calling thread, materialising the answers
    /// of the request's window.  `O(offset + limit)` enumeration work for
    /// bounded requests.
    pub fn serve_one(&self, request: &Request) -> Result<Response> {
        let mut streamed = self.serve_stream(request)?;
        let mut answers = AnswerSet::empty(request.semantics);
        let mut block: Vec<Answer> = Vec::new();
        while streamed.next_batch(&mut block, SERVE_BLOCK) > 0 {
            for answer in block.drain(..) {
                answers.push(answer);
            }
        }
        // The iterator stops at the limit; one extra probe on the raw stream
        // detects whether the window cut the enumeration short.
        let StreamedResponse {
            query,
            epoch,
            stats,
            mut stream,
            ..
        } = streamed;
        let truncated = request.limit.is_some() && stream.next().is_some();
        if let Some(e) = stream.error() {
            return Err(e.clone().into());
        }
        Ok(Response {
            query,
            epoch,
            answers,
            truncated,
            stats,
        })
    }

    /// Serves a batch of requests across the worker pool, returning one
    /// result per request in request order.
    ///
    /// Shared-nothing scheduling: at most `workers` threads (the caller one
    /// of them) claim request indices through `omq-core`'s bounded-worker
    /// helper, evaluate against the immutable catalogue (warming the plans'
    /// shared chase memos as a side effect), and only the collected results
    /// are merged at the end.  Each request pins its own snapshot at open
    /// time.  A failed request does not affect the others.  Per-request
    /// `limit`/`offset` windows are honoured, so a batch of bounded requests
    /// never materialises an unbounded answer set.
    pub fn serve_batch(&self, requests: &[Request]) -> Vec<Result<Response>> {
        // One result per request: a request's error is its result, never
        // the batch's.
        map_bounded(requests.len(), self.workers, |idx| {
            Ok::<_, Infallible>(self.serve_one(&requests[idx]))
        })
        .unwrap_or_else(|never| match never {})
    }
}

// The whole point of the engine is to be shared across request threads, and
// requests/snapshots are the values shipped between them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<ServingEngine>();
    assert_send_sync::<Request>();
    assert_send_sync::<Response>();
    assert_send_sync::<CountResponse>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<Txn>();
    assert_send::<StreamedResponse>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use omq_chase::Ontology;
    use omq_cq::ConjunctiveQuery;
    use std::collections::BTreeSet;

    fn office_omq() -> OntologyMediatedQuery {
        let ontology = Ontology::parse(
            "Researcher(x) -> exists y. HasOffice(x, y)\n\
             HasOffice(x, y) -> Office(y)\n\
             Office(x) -> exists y. InBuilding(x, y)",
        )
        .unwrap();
        let query =
            ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)")
                .unwrap();
        OntologyMediatedQuery::new(ontology, query).unwrap()
    }

    fn researcher_omq() -> OntologyMediatedQuery {
        let ontology = Ontology::parse("Researcher(x) -> exists y. HasOffice(x, y)").unwrap();
        let query = ConjunctiveQuery::parse("q(x, y) :- HasOffice(x, y)").unwrap();
        OntologyMediatedQuery::new(ontology, query).unwrap()
    }

    fn db(i: usize, omq: &OntologyMediatedQuery) -> Database {
        let has_buildings = omq.data_schema().relation_id("InBuilding").is_some();
        let mut builder = Database::builder(omq.data_schema().clone());
        for r in 0..=i {
            builder = builder.fact("Researcher", [format!("p{i}_{r}")]);
            if r % 2 == 0 {
                builder = builder.fact("HasOffice", [format!("p{i}_{r}"), format!("o{i}_{r}")]);
            }
            if has_buildings && r % 4 == 0 {
                builder = builder.fact("InBuilding", [format!("o{i}_{r}"), format!("b{i}")]);
            }
        }
        builder.build().unwrap()
    }

    /// Drains a freshly opened stream for `request` into a vector — the
    /// reassembly step shared by the pagination/stream tests.
    fn collect_stream(engine: &ServingEngine, request: &Request) -> Vec<Answer> {
        engine.serve_stream(request).unwrap().collect()
    }

    /// Seeds the engine's own store with the same facts as `db(i, ..)`.
    fn seed_store(engine: &mut ServingEngine, i: usize, with_buildings: bool) {
        let mut txn = Txn::new();
        for r in 0..=i {
            txn = txn.insert("Researcher", [format!("p{i}_{r}")]);
            if r % 2 == 0 {
                txn = txn.insert("HasOffice", [format!("p{i}_{r}"), format!("o{i}_{r}")]);
            }
            if with_buildings && r % 4 == 0 {
                txn = txn.insert("InBuilding", [format!("o{i}_{r}"), format!("b{i}")]);
            }
        }
        engine.register_data(txn).unwrap();
    }

    #[test]
    fn count_requests_match_drained_answer_sets() {
        let office = office_omq();
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("office", &office).unwrap();
        seed_store(&mut engine, 6, true);

        for semantics in Semantics::ALL {
            // Against the warm store head: the served epoch is pinned.
            let request = Request::new(id, semantics);
            let counted = engine.count(&request).unwrap();
            let drained = collect_stream(&engine, &request).len() as u64;
            assert_eq!(counted.count, drained, "{semantics:?}");
            assert_eq!(counted.query, id);
            assert_eq!(counted.epoch, Some(engine.epoch()));
            assert_eq!(counted.semantics, semantics);
            assert_eq!(counted.exists, drained > 0);
            assert_eq!(engine.exists(&request).unwrap(), drained > 0);

            // Against an ad-hoc database: no epoch, window fields ignored.
            let adhoc = Arc::new(db(3, &office));
            let request = Request::new(id, semantics)
                .with_database(Arc::clone(&adhoc))
                .with_offset(1)
                .with_limit(2);
            let counted = engine.count(&request).unwrap();
            let unbounded = Request::new(id, semantics).with_database(adhoc);
            let drained = collect_stream(&engine, &unbounded).len() as u64;
            assert_eq!(counted.count, drained, "{semantics:?} ad-hoc");
            assert_eq!(counted.epoch, None);
        }
    }

    #[test]
    fn batch_serving_matches_per_request_engines() {
        let office = office_omq();
        let mut engine = ServingEngine::new(4);
        let office_id = engine.register_query("office", &office).unwrap();
        assert_eq!(engine.query_id("office"), Some(office_id));
        assert_eq!(engine.len(), 1);

        let dbs: Vec<Arc<Database>> = (0..12).map(|i| Arc::new(db(i, &office))).collect();
        let requests: Vec<Request> = dbs
            .iter()
            .enumerate()
            .map(|(i, d)| Request::new(office_id, Semantics::ALL[i % 3]).with_database(d.clone()))
            .collect();
        let responses = engine.serve_batch(&requests);
        assert_eq!(responses.len(), requests.len());
        for ((request, database), response) in requests.iter().zip(&dbs).zip(&responses) {
            let response = response.as_ref().unwrap();
            assert!(!response.truncated, "unbounded requests never truncate");
            assert_eq!(response.epoch, None, "ad-hoc data has no store epoch");
            // The reference: a plan compiled and executed for this request alone.
            let reference = QueryPlan::compile(&office)
                .unwrap()
                .execute(database)
                .unwrap();
            let mut want = AnswerSet::empty(request.semantics);
            for answer in reference.answers(request.semantics).unwrap() {
                want.push(answer);
            }
            assert_eq!(response.answers, want);
        }
    }

    #[test]
    fn store_backed_requests_pin_snapshots() {
        let omq = researcher_omq();
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("q", &omq).unwrap();
        // Registering the query merged its data schema into the store.
        assert!(engine.store().schema().relation_id("Researcher").is_some());
        seed_store(&mut engine, 5, false);

        let head = engine
            .serve_one(&Request::new(id, Semantics::MinimalPartial))
            .unwrap();
        assert_eq!(head.epoch, Some(engine.epoch()));
        let before = head.answers.len();
        assert!(before > 0);

        // Pin, then commit more researchers.
        let pinned = engine.snapshot();
        engine
            .register_data(
                Txn::new()
                    .insert("Researcher", ["fresh0"])
                    .insert("Researcher", ["fresh1"]),
            )
            .unwrap();

        // The pinned snapshot still answers exactly as before…
        let at_pin = engine
            .serve_one(&Request::new(id, Semantics::MinimalPartial).at(pinned.clone()))
            .unwrap();
        assert_eq!(at_pin.answers.len(), before);
        assert_eq!(at_pin.epoch, Some(pinned.epoch()));
        // …while the head (and a by-name request) sees the new facts.
        let at_head = engine
            .serve_one(&Request::by_name("q", Semantics::MinimalPartial))
            .unwrap();
        assert_eq!(at_head.answers.len(), before + 2);
        assert_eq!(at_head.epoch, Some(engine.epoch()));
    }

    #[test]
    fn streams_survive_commits_and_engine_drop() {
        let omq = researcher_omq();
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("q", &omq).unwrap();
        seed_store(&mut engine, 7, false);

        let full = collect_stream(&engine, &Request::new(id, Semantics::MinimalPartial));
        assert!(full.len() >= 4);

        let mut stream = engine
            .serve_stream(&Request::new(id, Semantics::MinimalPartial))
            .unwrap();
        let first = stream.next().unwrap();
        assert_eq!(first, full[0]);
        // Commit between pulls: the in-flight stream is pinned.
        engine
            .register_data(Txn::new().insert("Researcher", ["late"]))
            .unwrap();
        // Drop the whole engine (store included): the stream owns its data.
        drop(engine);
        let rest: Vec<Answer> = stream.collect();
        assert_eq!(rest, full[1..]);
    }

    #[test]
    fn limits_bound_responses_and_flag_truncation() {
        let omq = researcher_omq();
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("q", &omq).unwrap();
        seed_store(&mut engine, 7, false); // 8 researchers -> 8 answers
        let full = engine
            .serve_one(&Request::new(id, Semantics::MinimalPartial))
            .unwrap();
        let total = full.answers.len();
        assert!(total >= 2);
        assert!(!full.truncated);

        let bounded = engine
            .serve_one(&Request::new(id, Semantics::MinimalPartial).with_limit(2))
            .unwrap();
        assert_eq!(bounded.answers.len(), 2);
        assert!(bounded.truncated);

        // limit == total: everything fits, not truncated.
        let exact = engine
            .serve_one(&Request::new(id, Semantics::MinimalPartial).with_limit(total))
            .unwrap();
        assert_eq!(exact.answers.len(), total);
        assert!(!exact.truncated);

        // Offset past the end: empty, not truncated.
        let past = engine
            .serve_one(
                &Request::new(id, Semantics::MinimalPartial)
                    .with_offset(total + 5)
                    .with_limit(2),
            )
            .unwrap();
        assert!(past.answers.is_empty());
        assert!(!past.truncated);
    }

    #[test]
    fn pagination_over_a_pinned_snapshot_ignores_commits() {
        let omq = office_omq();
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("office", &omq).unwrap();
        seed_store(&mut engine, 11, true);
        let session = engine.snapshot();
        let full = engine
            .serve_one(&Request::new(id, Semantics::MinimalPartial).at(session.clone()))
            .unwrap();
        let AnswerSet::Partial(full) = full.answers else {
            panic!("semantics mismatch");
        };
        for page_size in [1usize, 2, 3, 7] {
            let mut paged: Vec<PartialTuple> = Vec::new();
            let mut offset = 0;
            loop {
                let page = engine
                    .serve_one(
                        &Request::new(id, Semantics::MinimalPartial)
                            .at(session.clone())
                            .with_offset(offset)
                            .with_limit(page_size),
                    )
                    .unwrap();
                let AnswerSet::Partial(answers) = page.answers else {
                    panic!("semantics mismatch");
                };
                let done = !page.truncated;
                offset += answers.len();
                paged.extend(answers);
                // A commit in the middle of the pagination session: pages
                // pinned to `session` must not notice.
                engine
                    .register_data(
                        Txn::new().insert("Researcher", [format!("mid{page_size}_{offset}")]),
                    )
                    .unwrap();
                if done {
                    break;
                }
            }
            assert_eq!(
                paged, full,
                "page size {page_size} loses or reorders answers"
            );
        }
    }

    #[test]
    fn streamed_responses_are_lazy_and_owned() {
        let omq = researcher_omq();
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("q", &omq).unwrap();
        seed_store(&mut engine, 9, false);
        let full = collect_stream(&engine, &Request::new(id, Semantics::MinimalPartial));
        assert!(!full.is_empty());

        // take(k) through the streamed response honours the request limit.
        let mut stream = engine
            .serve_stream(&Request::new(id, Semantics::MinimalPartial).with_limit(3))
            .unwrap();
        assert_eq!(stream.semantics(), Semantics::MinimalPartial);
        assert_eq!(stream.epoch(), Some(engine.epoch()));
        let first: Vec<Answer> = (&mut stream).collect();
        assert_eq!(first, full[..3.min(full.len())]);
        assert!(stream.error().is_none());

        // Offset streams resume exactly where the previous window ended.
        let rest = collect_stream(
            &engine,
            &Request::new(id, Semantics::MinimalPartial).with_offset(3),
        );
        assert_eq!(rest, full[3.min(full.len())..]);

        // Dropping a stream mid-way is fine.
        let mut abandoned = engine
            .serve_stream(&Request::new(id, Semantics::Complete))
            .unwrap();
        let _ = abandoned.next();
        drop(abandoned);
    }

    #[test]
    fn catalogue_names_are_unique_and_refs_checked() {
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("q", &researcher_omq()).unwrap();
        assert!(matches!(
            engine.register_query("q", &researcher_omq()),
            Err(ServeError::DuplicateQuery(_))
        ));
        assert!(engine.plan(id).is_ok());
        assert!(matches!(
            engine.plan(QueryId(99)),
            Err(ServeError::UnknownQuery(99))
        ));
        let bad_id = Request::new(QueryId(99), Semantics::Complete);
        let responses = engine.serve_batch(&[bad_id]);
        assert!(matches!(responses[0], Err(ServeError::UnknownQuery(99))));
        let bad_name = Request::by_name("nope", Semantics::Complete);
        assert!(matches!(
            engine.serve_one(&bad_name),
            Err(ServeError::UnknownQueryName(_))
        ));
    }

    #[test]
    fn invalid_txns_do_not_move_the_epoch() {
        let mut engine = ServingEngine::new(1);
        engine.register_query("q", &researcher_omq()).unwrap();
        let epoch = engine.epoch();
        assert!(matches!(
            engine.register_data(Txn::new().insert("Nope", ["x"])),
            Err(ServeError::Data(DataError::UnknownRelation(_)))
        ));
        assert_eq!(engine.epoch(), epoch);
    }

    /// An arity from the network is bounded before anything allocates per
    /// position: the commit is refused, the epoch stays, the warm instance
    /// keeps serving.
    #[test]
    fn an_oversized_arity_is_refused_before_the_warm_refresh() {
        let mut engine = ServingEngine::new(1);
        let id = engine.register_query("q", &researcher_omq()).unwrap();
        seed_store(&mut engine, 5, false);
        let epoch = engine.epoch();
        let request = Request::new(id, Semantics::MinimalPartial);
        let before = engine.count(&request).unwrap().count;
        assert!(matches!(
            engine.register_data(Txn::new().add_relation("Z", 1 << 40).insert("Z", ["x"])),
            Err(ServeError::Data(DataError::ArityTooLarge { arity, .. })) if arity == 1 << 40
        ));
        assert_eq!(engine.epoch(), epoch);
        assert!(engine.store().schema().relation_id("Z").is_none());
        assert!(engine.warm_instance(id).is_some());
        assert_eq!(engine.count(&request).unwrap().count, before);
    }

    #[test]
    fn mixed_catalogue_and_more_requests_than_workers() {
        let office = office_omq();
        let researcher = researcher_omq();
        let mut engine = ServingEngine::new(3);
        let office_id = engine.register_query("office", &office).unwrap();
        let researcher_id = engine.register_query("researcher", &researcher).unwrap();
        let office_dbs: Vec<Arc<Database>> = (0..8).map(|i| Arc::new(db(i, &office))).collect();
        let researcher_dbs: Vec<Arc<Database>> =
            (0..8).map(|i| Arc::new(db(i, &researcher))).collect();
        let mut requests = Vec::new();
        for d in &office_dbs {
            requests
                .push(Request::new(office_id, Semantics::MinimalPartial).with_database(d.clone()));
        }
        for d in &researcher_dbs {
            // Bounded requests mixed into the same batch, addressed by name.
            requests.push(
                Request::by_name("researcher", Semantics::MinimalPartial)
                    .with_database(d.clone())
                    .with_limit(2),
            );
        }
        let responses = engine.serve_batch(&requests);
        assert_eq!(responses.len(), 16);
        for (i, (request, response)) in requests.iter().zip(&responses).enumerate() {
            let response = response.as_ref().unwrap();
            let expected = if i < 8 { office_id } else { researcher_id };
            assert_eq!(response.query, expected);
            assert!(!response.answers.is_empty());
            if let Some(limit) = request.limit {
                assert!(response.answers.len() <= limit);
            }
            assert!(response.stats.shards >= 1);
        }
        // Serving warmed the shared chase memos of both catalogued plans.
        assert!(
            engine
                .plan(office_id)
                .unwrap()
                .chase_plan()
                .memoized_bag_types()
                > 0
        );
        assert!(
            engine
                .plan(researcher_id)
                .unwrap()
                .chase_plan()
                .memoized_bag_types()
                > 0
        );
    }

    #[test]
    fn warm_cache_serves_the_head_and_refreshes_incrementally() {
        let omq = office_omq();
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("office", &omq).unwrap();
        // An empty store is never warmed (nothing to chase).
        assert!(engine.warm_instance(id).is_none());
        seed_store(&mut engine, 7, true);
        let warm = engine
            .warm_instance(id)
            .expect("the commit warms the cache");
        assert!(warm.shard_count() > 1, "component-rich head is sharded");
        // Head requests serve from the warm instance: the response carries
        // its exact execution stats.
        let response = engine
            .serve_one(&Request::new(id, Semantics::MinimalPartial))
            .unwrap();
        assert_eq!(response.stats.shards, warm.stats().shards);
        assert_eq!(response.epoch, Some(engine.epoch()));

        // A single-component delta: the cache is refreshed incrementally —
        // every previous shard is reused, only the new component is chased.
        let before = warm.shard_count();
        engine
            .register_data(
                Txn::new()
                    .insert("Researcher", ["delta"])
                    .insert("HasOffice", ["delta", "delta_office"]),
            )
            .unwrap();
        let refreshed = engine.warm_instance(id).expect("still warm after commit");
        assert_eq!(refreshed.stats().reused_shards, before);

        // Answers served off the warm head agree with a from-scratch
        // execution over the same snapshot.
        let head = engine.snapshot();
        let response = engine
            .serve_one(&Request::new(id, Semantics::MinimalPartial))
            .unwrap();
        let AnswerSet::Partial(got) = response.answers else {
            panic!("semantics mismatch");
        };
        let scratch = engine.plan(id).unwrap().execute(&head).unwrap();
        let want: BTreeSet<PartialTuple> = scratch
            .answers(Semantics::MinimalPartial)
            .unwrap()
            .map(|a| a.into_partial().unwrap())
            .collect();
        assert_eq!(got.into_iter().collect::<BTreeSet<_>>(), want);
    }

    #[test]
    fn warm_shards_stay_packed_over_a_run_of_delta_commits() {
        let omq = office_omq();
        let mut engine = ServingEngine::new(1);
        let id = engine.register_query("office", &omq).unwrap();
        // Four 60-fact building components and 200 lone researchers.
        let mut load = Txn::new();
        for i in 0..200 {
            load = load.insert("Researcher", [format!("lone{i}")]);
        }
        for i in 0..80 {
            load = load
                .insert("Researcher", [format!("p{i}")])
                .insert("HasOffice", [format!("p{i}"), format!("o{i}")])
                .insert("InBuilding", [format!("o{i}"), format!("b{}", i % 4)]);
        }
        engine.register_data(load).unwrap();
        let mut warm = engine.warm_instance(id).expect("the load warms the cache");
        let initial = warm.shard_count();
        assert_eq!(warm.stats().components, 204);
        assert!(initial <= 12, "{initial} shards for 204 components");

        for i in 0..40 {
            let building = format!("b{}", i % 4);
            engine
                .register_data(
                    Txn::new()
                        .insert("Researcher", [format!("d{i}")])
                        .insert("HasOffice", [format!("d{i}"), format!("od{i}")])
                        .insert("InBuilding", [format!("od{i}"), building]),
                )
                .unwrap();
            let refreshed = engine.warm_instance(id).expect("still warm");
            let stats = *refreshed.stats();
            // Only the building's shard was chased again; every other one
            // is the previous instance's, by pointer.
            assert_eq!(refreshed.shard_count(), initial, "commit {i}");
            assert_eq!(stats.reused_shards, initial - 1, "commit {i}");
            assert_eq!(stats.rechased_facts, 60 + 3 * (i / 4 + 1), "commit {i}");
            let shared = refreshed
                .shards()
                .iter()
                .filter(|shard| warm.shards().iter().any(|old| Arc::ptr_eq(shard, old)))
                .count();
            assert_eq!(shared, stats.reused_shards, "commit {i}");
            warm = refreshed;
        }
        let request = Request::new(id, Semantics::MinimalPartial);
        assert_eq!(engine.count(&request).unwrap().count, 200 + 80 + 40);
    }

    #[test]
    fn batched_pulls_match_single_pulls_through_the_serving_layer() {
        let omq = office_omq();
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("office", &omq).unwrap();
        seed_store(&mut engine, 11, true);
        for semantics in [
            Semantics::Complete,
            Semantics::MinimalPartial,
            Semantics::MinimalPartialMulti,
        ] {
            let full = collect_stream(&engine, &Request::new(id, semantics));
            // Reassemble the whole answer set through bounded windows pulled
            // with `next_batch`, in uneven block sizes.
            let mut batched: Vec<Answer> = Vec::new();
            let mut stream = engine.serve_stream(&Request::new(id, semantics)).unwrap();
            for k in [1usize, 2, 3, 5, 64] {
                stream.next_batch(&mut batched, k);
            }
            batched.extend(stream);
            assert_eq!(batched, full, "{semantics:?} batched pull diverges");
            // Limits clip batched pulls exactly like single pulls.
            let mut window: Vec<Answer> = Vec::new();
            let mut bounded = engine
                .serve_stream(&Request::new(id, semantics).with_limit(3))
                .unwrap();
            assert_eq!(bounded.next_batch(&mut window, 64), 3.min(full.len()));
            assert_eq!(window, full[..3.min(full.len())]);
            assert_eq!(bounded.next_batch(&mut window, 64), 0);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = ServingEngine::new(4);
        assert!(engine.serve_batch(&[]).is_empty());
        assert!(engine.is_empty());
        assert_eq!(engine.epoch(), 0);
    }
}

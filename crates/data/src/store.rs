//! The long-lived, snapshot-isolated fact store: [`Store`], [`Txn`],
//! [`Snapshot`].
//!
//! The paper's pipeline is *compile once* (a query plan), *preprocess per
//! database*, *enumerate with constant delay*.  A serving deployment runs
//! that pipeline against data that changes over time, so the data side needs
//! a long-lived owner rather than a hand-built immutable [`Database`]:
//!
//! * [`Store`] owns the current database behind an `Arc` (the *head*) plus a
//!   monotone **epoch** counter, bumped once per state-changing commit;
//! * [`Txn`] is a detached batch of ingestion operations
//!   ([`Txn::insert`] / [`Txn::insert_all`] / [`Txn::add_relation`]).  A
//!   transaction is validated as a whole before anything is applied
//!   ([`Store::commit`] is commit-or-rollback: on the first invalid
//!   operation the store is untouched), and dropping an uncommitted
//!   transaction ([`Txn::rollback`]) never touches the store at all;
//! * [`Snapshot`] pins the head at one epoch.  Snapshots are **copy-on-write**:
//!   taking one is an `Arc` clone (no fact is copied), and a later commit
//!   pays for the copy via [`Arc::make_mut`] only if a snapshot still pins
//!   the pre-commit head.  A snapshot is `Send + Sync`, derefs to
//!   [`Database`], and — because [`Database`] implements
//!   `AsRef<Database>` alongside it — plugs directly into
//!   `QueryPlan::execute`-style consumers without recomputing any index:
//!   the columnar index and interner inside the shared database are reused
//!   by every snapshot of the same epoch.
//!
//! # Isolation invariants
//!
//! 1. **Snapshot stability** — no operation on a [`Store`] (commit, schema
//!    merge, drop) ever mutates a database reachable through a previously
//!    taken [`Snapshot`]; answer streams opened on a snapshot keep yielding
//!    after arbitrarily many commits and after the store is gone.
//! 2. **Atomicity** — [`Store::commit`] applies all of a transaction's
//!    operations or none: validation runs against a staged schema first, and
//!    application is infallible afterwards.
//! 3. **Epoch monotonicity** — the epoch moves iff the head does: every
//!    successful commit that changes the store bumps it by one, a no-effect
//!    commit (empty or duplicate-only) leaves it — and the head `Arc` —
//!    untouched, and a snapshot's [`Snapshot::epoch`] names the state it
//!    pins.
//!
//! ```
//! use omq_data::{Schema, Semantics, Store, Txn};
//!
//! let mut schema = Schema::new();
//! schema.add_relation("Researcher", 1)?;
//! let mut store = Store::new(schema);
//!
//! let receipt = store.commit(Txn::new().insert("Researcher", ["mary"]))?;
//! assert_eq!(receipt.epoch, 1);
//! let pinned = store.snapshot();
//!
//! // A later commit never changes what `pinned` sees.
//! store.commit(Txn::new().insert("Researcher", ["ada"]))?;
//! assert_eq!(pinned.len(), 1);
//! assert_eq!(store.snapshot().len(), 2);
//! # Ok::<(), omq_data::DataError>(())
//! ```

use crate::database::Database;
use crate::error::DataError;
use crate::schema::Schema;
use crate::Result;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// One staged ingestion operation of a [`Txn`].
#[derive(Debug, Clone)]
enum TxnOp {
    /// Declare a relation symbol (idempotent for matching arities).
    AddRelation { name: String, arity: usize },
    /// Insert one fact given by relation name and constant names.
    Insert { relation: String, args: Vec<String> },
}

/// A detached, buffered batch of ingestion operations.
///
/// A transaction records operations without touching any store; it is only
/// validated and applied — atomically — by [`Store::commit`].  Operations
/// are applied in insertion order, so a relation declared by
/// [`Txn::add_relation`] is visible to later [`Txn::insert`]s of the same
/// transaction.  Dropping an uncommitted transaction (or calling
/// [`Txn::rollback`] to say so explicitly) discards it without any effect on
/// the store.
#[derive(Debug, Clone, Default)]
pub struct Txn {
    ops: Vec<TxnOp>,
}

impl Txn {
    /// Starts an empty transaction.
    pub fn new() -> Self {
        Txn::default()
    }

    /// Stages one fact, given by relation name and constant names.
    ///
    /// Nothing is validated here: unknown relations and arity mismatches are
    /// reported by [`Store::commit`], which rejects the whole transaction.
    pub fn insert<S: AsRef<str>>(mut self, relation: &str, args: impl AsRef<[S]>) -> Self {
        self.ops.push(TxnOp::Insert {
            relation: relation.to_owned(),
            args: args
                .as_ref()
                .iter()
                .map(|a| a.as_ref().to_owned())
                .collect(),
        });
        self
    }

    /// Stages a batch of facts over one relation.
    pub fn insert_all<S: AsRef<str>, R: AsRef<[S]>>(
        mut self,
        relation: &str,
        rows: impl IntoIterator<Item = R>,
    ) -> Self {
        for row in rows {
            self = self.insert(relation, row.as_ref());
        }
        self
    }

    /// Stages the declaration of a relation symbol.  Declaring an existing
    /// relation with the same arity is a no-op; a conflicting arity fails the
    /// commit.
    pub fn add_relation(mut self, name: &str, arity: usize) -> Self {
        self.ops.push(TxnOp::AddRelation {
            name: name.to_owned(),
            arity,
        });
        self
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` iff nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Discards the transaction.  Equivalent to dropping it — the method
    /// exists so call sites can say what they mean.  The store the
    /// transaction was destined for is untouched (byte-identical: it was
    /// never involved).
    pub fn rollback(self) {}
}

/// The outcome of a successful [`Store::commit`].
///
/// Besides the ingestion counts, a receipt records the **delta window** of
/// the commit: the head's [`Database::revision`] and fact count immediately
/// before the commit and the revision immediately after.  Facts are
/// append-only, so the slice `head.facts()[base_facts..]` of the post-commit
/// head is exactly what this commit inserted — the hook delta-chase
/// maintenance (`PreparedInstance::refresh` in `omq-core`) uses to re-chase
/// only the dirtied Gaifman components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The store's epoch after the commit (snapshots taken from now on carry
    /// this tag).
    pub epoch: u64,
    /// Number of facts that were new to the store.
    pub new_facts: usize,
    /// Number of staged facts that were already present (set semantics:
    /// duplicates are accepted and ignored).
    pub duplicate_facts: usize,
    /// Number of relation symbols the transaction added to the schema.
    pub new_relations: usize,
    /// The head database's revision immediately before this commit applied
    /// (equal to [`CommitReceipt::revision`] for a no-effect commit).
    pub base_revision: u64,
    /// The head database's revision immediately after this commit applied.
    pub revision: u64,
    /// The head's fact count immediately before this commit applied; the
    /// commit's inserted facts are `head.facts()[base_facts..]`.
    pub base_facts: usize,
}

/// An immutable view of a [`Store`] at one epoch.
///
/// Cheap to take and to clone (an `Arc` bump); see the module docs for the
/// copy-on-write contract.  A snapshot derefs to [`Database`] and implements
/// `AsRef<Database>`, so everything that evaluates over a database —
/// `QueryPlan::execute`, `QueryPlan::execute_tracked`, serving requests —
/// accepts a snapshot directly and reuses the shared columnar index and
/// interner instead of recomputing them.
#[derive(Debug, Clone)]
pub struct Snapshot {
    db: Arc<Database>,
    epoch: u64,
}

impl Snapshot {
    /// The epoch this snapshot pins (the store's epoch when the snapshot
    /// was taken).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned database view.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Returns `true` iff `self` and `other` pin the very same database
    /// (same `Arc`), which implies equal epochs of one store.
    pub fn ptr_eq(&self, other: &Snapshot) -> bool {
        Arc::ptr_eq(&self.db, &other.db)
    }
}

impl Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

impl AsRef<Database> for Snapshot {
    fn as_ref(&self) -> &Database {
        &self.db
    }
}

/// A long-lived, mutable fact store with transactional batch ingestion and
/// copy-on-write snapshots.  See the module docs for the model and the
/// isolation invariants.
///
/// A store is single-writer (`commit` takes `&mut self`) and many-reader:
/// snapshots are `Send + Sync` values that outlive both borrows of the store
/// and the store itself.
#[derive(Debug, Clone)]
pub struct Store {
    head: Arc<Database>,
    epoch: u64,
}

impl Store {
    /// Creates an empty store over `schema`.
    pub fn new(schema: Schema) -> Self {
        Store {
            head: Arc::new(Database::new(schema)),
            epoch: 0,
        }
    }

    /// The schema of the current head.
    pub fn schema(&self) -> &Schema {
        self.head.schema()
    }

    /// Number of facts in the current head.
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// Returns `true` iff the current head holds no facts.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// The current epoch: the number of state-changing commits applied so
    /// far (plus any schema merges that actually extended the schema).
    /// No-effect commits do not move it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pins the current head: an `Arc` clone plus the epoch tag, no copying.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            db: self.head.clone(),
            epoch: self.epoch,
        }
    }

    /// Extends the store schema with every relation of `other` (idempotent;
    /// errors on arity conflicts without applying anything).  Returns `true`
    /// iff a relation was actually added, in which case the epoch is bumped.
    ///
    /// This is how a serving engine grows the store schema to cover each
    /// registered query's data schema.
    pub fn merge_schema(&mut self, other: &Schema) -> Result<bool> {
        // Validate the whole merge on a staged schema first.
        let mut staged = self.head.schema().clone();
        let before = staged.len();
        staged.merge(other)?;
        if staged.len() == before {
            return Ok(false);
        }
        let db = Arc::make_mut(&mut self.head);
        for (_, rel) in other.iter() {
            db.add_relation(&rel.name, rel.arity)
                .expect("merge was validated on the staged schema");
        }
        self.epoch += 1;
        Ok(true)
    }

    /// Validates and applies a transaction atomically, returning the new
    /// epoch and ingestion counts.
    ///
    /// **Commit-or-rollback**: every operation is validated against a staged
    /// schema (in operation order, so relations declared earlier in the
    /// transaction count) before anything is applied; on the first invalid
    /// operation the error is returned and the store — including its epoch
    /// and every snapshot — is exactly as before.
    ///
    /// **Copy-on-write**: if no snapshot pins the current head, the commit
    /// mutates it in place; otherwise the writer pays for one copy of the
    /// head and the snapshots keep the original.  A **no-effect** commit —
    /// empty, or staging only facts/relations the store already has — never
    /// copies anything and leaves the epoch unchanged (the epoch identifies
    /// the head's state: it moves iff the head does), reporting the
    /// duplicates in the receipt.
    pub fn commit(&mut self, txn: Txn) -> Result<CommitReceipt> {
        // Phase 1: validate. No store state is touched in this phase.
        // Alongside validation, detect whether any operation would change
        // the head at all, so duplicate-only re-deliveries (at-least-once
        // ingestion) skip the copy-on-write entirely.
        let mut staged = self.head.schema().clone();
        let mut effective = false;
        let mut staged_inserts = 0usize;
        for op in &txn.ops {
            match op {
                TxnOp::AddRelation { name, arity } => {
                    staged.add_relation(name, *arity)?;
                    effective |= self.head.schema().relation_id(name).is_none();
                }
                TxnOp::Insert { relation, args } => {
                    let rel = staged.require(relation)?;
                    let arity = staged.arity(rel);
                    if arity != args.len() {
                        return Err(DataError::ArityMismatch {
                            relation: relation.clone(),
                            expected: arity,
                            actual: args.len(),
                        });
                    }
                    staged_inserts += 1;
                    effective = effective || !self.head_contains(relation, args);
                }
            }
        }
        if !effective {
            return Ok(CommitReceipt {
                epoch: self.epoch,
                new_facts: 0,
                duplicate_facts: staged_inserts,
                new_relations: 0,
                base_revision: self.head.revision(),
                revision: self.head.revision(),
                base_facts: self.head.len(),
            });
        }
        // Phase 2: apply. Infallible after validation.  The delta window is
        // captured before `make_mut`: a copy-on-write clone preserves the
        // revision, so the base names the pre-commit state either way.
        let base_revision = self.head.revision();
        let base_facts = self.head.len();
        let db = Arc::make_mut(&mut self.head);
        let mut receipt = CommitReceipt {
            epoch: 0,
            new_facts: 0,
            duplicate_facts: 0,
            new_relations: 0,
            base_revision,
            revision: 0,
            base_facts,
        };
        for op in txn.ops {
            match op {
                TxnOp::AddRelation { name, arity } => {
                    if db.schema().relation_id(&name).is_none() {
                        receipt.new_relations += 1;
                    }
                    db.add_relation(&name, arity)
                        .expect("relation was validated against the staged schema");
                }
                TxnOp::Insert { relation, args } => {
                    let added = db
                        .add_named_fact(&relation, &args)
                        .expect("fact was validated against the staged schema");
                    if added {
                        receipt.new_facts += 1;
                    } else {
                        receipt.duplicate_facts += 1;
                    }
                }
            }
        }
        self.epoch += 1;
        receipt.epoch = self.epoch;
        receipt.revision = self.head.revision();
        Ok(receipt)
    }

    /// Returns `true` iff the head already contains the named fact (read-only:
    /// nothing is interned).  A relation or constant unknown to the head means
    /// the fact is necessarily new.
    fn head_contains(&self, relation: &str, args: &[String]) -> bool {
        let Some(rel) = self.head.schema().relation_id(relation) else {
            return false;
        };
        let mut values = Vec::with_capacity(args.len());
        for arg in args {
            match self.head.const_id(arg) {
                Some(c) => values.push(crate::value::Value::Const(c)),
                None => return false,
            }
        }
        self.head
            .contains_fact(&crate::fact::Fact::new(rel, values))
    }
}

impl fmt::Display for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Store(epoch {}, {} facts, {} relations)",
            self.epoch,
            self.head.len(),
            self.head.schema().len()
        )
    }
}

// Snapshots cross thread boundaries by design; the store itself moves into
// writer tasks.  (The facade crate re-asserts this for the public surface.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Store>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<Txn>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn office_schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("Researcher", 1).unwrap();
        s.add_relation("HasOffice", 2).unwrap();
        s
    }

    #[test]
    fn commit_applies_batch_and_bumps_epoch() {
        let mut store = Store::new(office_schema());
        assert_eq!(store.epoch(), 0);
        assert!(store.is_empty());
        let receipt = store
            .commit(
                Txn::new()
                    .insert("Researcher", ["mary"])
                    .insert("Researcher", ["john"])
                    .insert("HasOffice", ["mary", "room1"]),
            )
            .unwrap();
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.new_facts, 3);
        assert_eq!(receipt.duplicate_facts, 0);
        assert_eq!(store.len(), 3);
        assert_eq!(store.epoch(), 1);
        // Duplicates are counted but not inserted (set semantics), and a
        // duplicate-only commit is a no-effect commit: the head is not even
        // copied (same allocation) and the epoch stands.
        let pinned = store.snapshot();
        let receipt = store
            .commit(Txn::new().insert("Researcher", ["mary"]))
            .unwrap();
        assert_eq!(receipt.new_facts, 0);
        assert_eq!(receipt.duplicate_facts, 1);
        assert_eq!(receipt.epoch, 1);
        assert_eq!(store.len(), 3);
        assert_eq!(store.epoch(), 1);
        assert!(store.snapshot().ptr_eq(&pinned));
        // The empty transaction is equally free.
        let receipt = store.commit(Txn::new()).unwrap();
        assert_eq!(receipt.epoch, 1);
        assert!(store.snapshot().ptr_eq(&pinned));
    }

    #[test]
    fn insert_all_and_add_relation_in_one_txn() {
        let mut store = Store::new(office_schema());
        let receipt = store
            .commit(
                Txn::new()
                    .add_relation("InBuilding", 2)
                    .insert_all("Researcher", [["a"], ["b"], ["c"]])
                    .insert("InBuilding", ["room1", "main1"]),
            )
            .unwrap();
        assert_eq!(receipt.new_relations, 1);
        assert_eq!(receipt.new_facts, 4);
        assert!(store.schema().relation_id("InBuilding").is_some());
    }

    #[test]
    fn invalid_txn_is_rejected_atomically() {
        let mut store = Store::new(office_schema());
        store
            .commit(Txn::new().insert("Researcher", ["mary"]))
            .unwrap();
        let pinned = store.snapshot();
        // Valid prefix, invalid tail: nothing of the batch may land.
        let err = store
            .commit(
                Txn::new()
                    .insert("Researcher", ["ada"])
                    .insert("Nope", ["x"]),
            )
            .unwrap_err();
        assert!(matches!(err, DataError::UnknownRelation(_)));
        assert_eq!(store.len(), 1);
        assert_eq!(store.epoch(), 1);
        assert!(store.snapshot().ptr_eq(&pinned));
        // Arity mismatches are caught the same way.
        let err = store
            .commit(
                Txn::new()
                    .insert("Researcher", ["ada"])
                    .insert("HasOffice", ["ada"]),
            )
            .unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { .. }));
        assert_eq!(store.len(), 1);
        // Conflicting re-declaration of an existing relation.
        let err = store
            .commit(Txn::new().add_relation("Researcher", 2))
            .unwrap_err();
        assert!(matches!(err, DataError::ConflictingArity { .. }));
    }

    #[test]
    fn relations_declared_in_a_txn_are_visible_to_later_inserts() {
        let mut store = Store::new(Schema::new());
        // Insert before the declaration: order matters, the commit fails.
        let err = store
            .commit(Txn::new().insert("Flag", ["on"]).add_relation("Flag", 1))
            .unwrap_err();
        assert!(matches!(err, DataError::UnknownRelation(_)));
        assert_eq!(store.epoch(), 0);
        // Declaration first: the same operations commit.
        store
            .commit(Txn::new().add_relation("Flag", 1).insert("Flag", ["on"]))
            .unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn receipts_record_the_delta_window() {
        let mut store = Store::new(office_schema());
        let r1 = store
            .commit(Txn::new().insert("Researcher", ["mary"]))
            .unwrap();
        assert_eq!(r1.base_facts, 0);
        assert_eq!(r1.base_revision, 0);
        assert_eq!(r1.revision, store.snapshot().revision());
        assert!(r1.revision > r1.base_revision);
        let head = store.snapshot();
        let r2 = store
            .commit(
                Txn::new()
                    .insert("Researcher", ["mary"])
                    .insert("HasOffice", ["mary", "room1"]),
            )
            .unwrap();
        assert_eq!(r2.base_facts, 1);
        assert_eq!(r2.base_revision, head.revision());
        assert_eq!(r2.new_facts, 1);
        // Facts are append-only: the delta slice is exactly the inserts.
        let new_head = store.snapshot();
        assert_eq!(new_head.facts()[r2.base_facts..].len(), r2.new_facts);
        // A no-effect commit reports an empty window at the current state.
        let r3 = store
            .commit(Txn::new().insert("Researcher", ["mary"]))
            .unwrap();
        assert_eq!(r3.base_revision, r3.revision);
        assert_eq!(r3.base_facts, store.len());
        assert_eq!(r3.revision, new_head.revision());
    }

    #[test]
    fn snapshots_are_immune_to_later_commits() {
        let mut store = Store::new(office_schema());
        store
            .commit(Txn::new().insert("Researcher", ["mary"]))
            .unwrap();
        let pinned = store.snapshot();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.len(), 1);
        store
            .commit(
                Txn::new()
                    .insert("Researcher", ["ada"])
                    .insert("HasOffice", ["ada", "lab"]),
            )
            .unwrap();
        // The pinned snapshot still sees epoch 1's single fact; a fresh
        // snapshot sees the new head.
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned.epoch(), 1);
        let fresh = store.snapshot();
        assert_eq!(fresh.len(), 3);
        assert_eq!(fresh.epoch(), 2);
        assert!(!fresh.ptr_eq(&pinned));
        // Snapshots survive the store itself.
        drop(store);
        assert_eq!(pinned.len(), 1);
        assert!(pinned.const_id("mary").is_some());
    }

    #[test]
    fn snapshots_share_the_head_until_a_commit_diverges_it() {
        let mut store = Store::new(office_schema());
        store
            .commit(Txn::new().insert("Researcher", ["mary"]))
            .unwrap();
        let a = store.snapshot();
        let b = store.snapshot();
        // Same epoch -> the very same Arc (and the same columnar index).
        assert!(a.ptr_eq(&b));
        assert_eq!(a.epoch(), b.epoch());
        // Force the index to be built through one snapshot; the other (same
        // Arc) sees it for free.
        let rel = a.schema().relation_id("Researcher").unwrap();
        assert_eq!(a.facts_of(rel).len(), 1);
        assert_eq!(b.facts_of(rel).len(), 1);
        // After a commit the head diverges; the old snapshots stay shared.
        store
            .commit(Txn::new().insert("Researcher", ["ada"]))
            .unwrap();
        assert!(a.ptr_eq(&b));
        assert!(!store.snapshot().ptr_eq(&a));
    }

    #[test]
    fn rollback_leaves_the_store_untouched() {
        let mut store = Store::new(office_schema());
        store
            .commit(Txn::new().insert("Researcher", ["mary"]))
            .unwrap();
        let before = store.snapshot();
        let txn = Txn::new()
            .insert("Researcher", ["ada"])
            .add_relation("Extra", 1);
        assert_eq!(txn.len(), 2);
        assert!(!txn.is_empty());
        txn.rollback();
        // Not just equal content: the head is the very same allocation.
        assert!(store.snapshot().ptr_eq(&before));
        assert_eq!(store.epoch(), before.epoch());
    }

    #[test]
    fn merge_schema_is_idempotent_and_conflict_checked() {
        let mut store = Store::new(office_schema());
        let mut wider = office_schema();
        wider.add_relation("InBuilding", 2).unwrap();
        assert!(store.merge_schema(&wider).unwrap());
        let epoch = store.epoch();
        // Merging the same schema again adds nothing and keeps the epoch.
        assert!(!store.merge_schema(&wider).unwrap());
        assert_eq!(store.epoch(), epoch);
        // Conflicts are rejected without partial application.
        let mut conflicting = Schema::new();
        conflicting.add_relation("Fresh", 1).unwrap();
        conflicting.add_relation("Researcher", 3).unwrap();
        let before = store.schema().len();
        assert!(store.merge_schema(&conflicting).is_err());
        assert_eq!(store.schema().len(), before);
        assert!(store.schema().relation_id("Fresh").is_none());
    }

    #[test]
    fn snapshot_plugs_into_as_ref_consumers() {
        fn fact_count(db: impl AsRef<Database>) -> usize {
            db.as_ref().len()
        }
        let mut store = Store::new(office_schema());
        store
            .commit(Txn::new().insert("Researcher", ["mary"]))
            .unwrap();
        let snap = store.snapshot();
        assert_eq!(fact_count(&snap), 1);
        assert_eq!(fact_count(snap.database()), 1);
    }
}

//! Finite instances and databases with RAM-model style lookup indexes.

use crate::columnar::ColumnarIndex;
use crate::error::DataError;
use crate::fact::Fact;
use crate::interner::Interner;
use crate::schema::{RelId, Schema};
use crate::value::{ConstId, NullId, Value};
use crate::Result;
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Sentinel for "value has no code yet" in the dense code tables.
const NO_CODE: u32 = u32::MAX;

/// Most input facts a pack of several Gaifman components holds (see
/// [`Database::pack_capacity`]).  It bounds what a refresh re-chases beside
/// the dirty component, and was chosen by the sweep recorded in DESIGN.md
/// (*Incremental maintenance*): above 64 the pack-mates dominate the
/// re-chase of a typical delta.
const PACK_FACTS: usize = 64;

/// Packing bounds the shard count, it does not minimise it: a pack never
/// holds more than one `MIN_SHARDS`-th of the facts, so a database too small
/// to gain from packing keeps one shard per component.
const MIN_SHARDS: usize = 8;

/// A finite instance over a [`Schema`].
///
/// Following the paper, an *S-database* is a finite instance that uses only
/// constants; instances produced by the chase may also contain labelled nulls.
/// `Database` represents both: [`Database::has_nulls`] distinguishes them.
///
/// The structure maintains the constant-time lookup tables of the RAM model
/// used in the paper as **dense columnar indexes** rather than hash maps:
///
/// * facts grouped by relation symbol (`by_relation`),
/// * every active-domain value carries a dense *value code* (its index in
///   `adom(D)`), maintained incrementally via per-kind code tables,
/// * a [`ColumnarIndex`] — CSR arrays keyed by `(relation, position)` and by
///   value code — built lazily in one linear pass and invalidated by every
///   mutation, see [`crate::columnar`] for the invariants,
/// * an **incremental Gaifman component index**: a union-find over value
///   codes with intrusive per-component fact lists, maintained by
///   [`Database::add_fact`] in near-constant amortised time, so delta-chase
///   maintenance can locate and extract a dirty component in time
///   proportional to that component — never by rescanning the fact table.
#[derive(Debug, Default)]
pub struct Database {
    schema: Schema,
    /// The constant interner, shared copy-on-write: read-only clones (shards,
    /// derived instances, chase copies) all point at the same snapshot, and
    /// only a database that interns a *new* constant pays for a private copy.
    consts: Arc<Interner>,
    facts: Vec<Fact>,
    /// Fact-dedup index: hash of `(rel, args)` → indices into `facts` with
    /// that hash (almost always one).  Keyed by hash instead of by owned
    /// `Fact` so membership tests take a *borrowed* `(RelId, &[Value])` pair
    /// — the chase's saturation loop probes candidate facts without building
    /// them — and so inserting never clones the fact a second time.
    fact_lookup: FxHashMap<u64, Vec<u32>>,
    by_relation: Vec<Vec<usize>>,
    adom: Vec<Value>,
    /// `ConstId` → value code (`NO_CODE` if the constant is not in the adom).
    const_code: Vec<u32>,
    /// `NullId` → value code (`NO_CODE` if the null is not in the adom).
    null_code: Vec<u32>,
    /// Lazily built columnar index; reset on every mutation.
    columnar: OnceLock<ColumnarIndex>,
    /// Incremental union-find over dense value codes: `comp_parent[c]` is the
    /// parent of code `c`, roots satisfy `comp_parent[c] == c`.  Two codes
    /// share a root iff their values are in the same Gaifman connected
    /// component.  Maintained by `add_fact` with path-halving finds.
    comp_parent: Vec<u32>,
    /// Head of the intrusive fact list of the component rooted at each code
    /// (`NO_CODE` if empty).  Non-empty only at canonical roots: unions
    /// concatenate the lists in O(1) and clear the absorbed root's slots.
    comp_head: Vec<u32>,
    /// Tail of the intrusive per-root fact list (`NO_CODE` if empty).
    comp_tail: Vec<u32>,
    /// Per-fact `next` pointer of the intrusive component fact lists
    /// (`NO_CODE` terminates a list).
    comp_next: Vec<u32>,
    next_null: u32,
    /// Monotone mutation counter: bumped by every operation that changes the
    /// fact table or the schema (`add_fact`, `add_relation`, `absorb`).  The
    /// columnar index records the revision it was built at, and store
    /// epochs/snapshots use it as a cheap identity tag.
    revision: u64,
}

impl Clone for Database {
    /// Clones the data but not the lazily built columnar index: clones are
    /// usually taken to be extended (chase, absorb), which would invalidate
    /// the index immediately, and a read-only clone simply rebuilds it on
    /// first lookup for the same linear cost the copy would have paid.
    fn clone(&self) -> Self {
        Database {
            schema: self.schema.clone(),
            consts: self.consts.clone(),
            facts: self.facts.clone(),
            fact_lookup: self.fact_lookup.clone(),
            by_relation: self.by_relation.clone(),
            adom: self.adom.clone(),
            const_code: self.const_code.clone(),
            null_code: self.null_code.clone(),
            columnar: OnceLock::new(),
            comp_parent: self.comp_parent.clone(),
            comp_head: self.comp_head.clone(),
            comp_tail: self.comp_tail.clone(),
            comp_next: self.comp_next.clone(),
            next_null: self.next_null,
            revision: self.revision,
        }
    }
}

impl Database {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Schema) -> Self {
        let relation_count = schema.len();
        Database {
            schema,
            consts: Arc::new(Interner::new()),
            facts: Vec::new(),
            fact_lookup: FxHashMap::default(),
            by_relation: vec![Vec::new(); relation_count],
            adom: Vec::new(),
            const_code: Vec::new(),
            null_code: Vec::new(),
            columnar: OnceLock::new(),
            comp_parent: Vec::new(),
            comp_head: Vec::new(),
            comp_tail: Vec::new(),
            comp_next: Vec::new(),
            next_null: 0,
            revision: 0,
        }
    }

    /// Starts a fluent [`DatabaseBuilder`] over `schema`.
    pub fn builder(schema: Schema) -> DatabaseBuilder {
        DatabaseBuilder {
            db: Database::new(schema),
            error: None,
        }
    }

    /// The schema of this database.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Declares an additional relation symbol (used when extending a database
    /// with auxiliary relations such as the `P_db` relativisation predicate).
    ///
    /// Relations may be declared after facts exist: the per-relation fact
    /// lists are extended and the columnar index is invalidated so that the
    /// next lookup sees columns for the new symbol as well.
    pub fn add_relation(&mut self, name: &str, arity: usize) -> Result<RelId> {
        let before = self.schema.len();
        let id = self.schema.add_relation(name, arity)?;
        if self.schema.len() > before {
            while self.by_relation.len() < self.schema.len() {
                self.by_relation.push(Vec::new());
            }
            // A previously built index has no columns for the new relation;
            // rebuild on the next lookup.  Re-declaring an existing relation
            // (same arity) is a true no-op: the index and revision stand.
            self.columnar = OnceLock::new();
            self.revision += 1;
        }
        Ok(id)
    }

    /// Interns a constant name, returning its identifier.
    ///
    /// If the interner snapshot is shared with other databases (clones,
    /// shards) and `name` is new, this copies the snapshot first
    /// (copy-on-write); readers of the shared snapshot are unaffected.
    pub fn intern_const(&mut self, name: &str) -> ConstId {
        if let Some(id) = self.consts.get(name) {
            return ConstId(id);
        }
        ConstId(Arc::make_mut(&mut self.consts).intern(name))
    }

    /// Returns `true` iff `self` and `other` share the same interner
    /// snapshot (no constant was interned in either since they diverged).
    pub fn shares_interner_with(&self, other: &Database) -> bool {
        Arc::ptr_eq(&self.consts, &other.consts)
    }

    /// Looks up a constant by name without interning it.
    pub fn const_id(&self, name: &str) -> Option<ConstId> {
        self.consts.get(name).map(ConstId)
    }

    /// Returns the name of an interned constant.
    pub fn const_name(&self, id: ConstId) -> &str {
        self.consts.resolve(id.0)
    }

    /// Renders a value for display: constant names, or `*k` style nulls.
    pub fn display_value(&self, v: Value) -> String {
        match v {
            Value::Const(c) => self
                .consts
                .try_resolve(c.0)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("c{}", c.0)),
            Value::Null(NullId(n)) => format!("_:n{n}"),
        }
    }

    /// Creates a fresh labelled null that does not occur in this database.
    pub fn fresh_null(&mut self) -> NullId {
        let id = NullId(self.next_null);
        self.next_null += 1;
        id
    }

    /// Number of labelled nulls allocated so far (fresh-null counter).
    pub fn null_counter(&self) -> u32 {
        self.next_null
    }

    /// Bumps the fresh-null counter so that it exceeds `n`.  Used when copying
    /// facts from another instance.
    pub fn reserve_null(&mut self, n: NullId) {
        self.next_null = self.next_null.max(n.0 + 1);
    }

    /// Adds a fact constructed from a relation name and constant names,
    /// interning the constants on the fly.
    pub fn add_named_fact<S: AsRef<str>>(&mut self, relation: &str, args: &[S]) -> Result<bool> {
        let rel = self.schema.require(relation)?;
        let arity = self.schema.arity(rel);
        if arity != args.len() {
            return Err(DataError::ArityMismatch {
                relation: relation.to_owned(),
                expected: arity,
                actual: args.len(),
            });
        }
        let values: Vec<Value> = args
            .iter()
            .map(|a| Value::Const(self.intern_const(a.as_ref())))
            .collect();
        self.add_fact(Fact::new(rel, values))
    }

    /// Adds a fact, returning `Ok(true)` if it was new and `Ok(false)` if it
    /// was already present.
    pub fn add_fact(&mut self, fact: Fact) -> Result<bool> {
        let arity = self.schema.arity(fact.rel);
        if arity != fact.args.len() {
            return Err(DataError::ArityMismatch {
                relation: self.schema.name(fact.rel).to_owned(),
                expected: arity,
                actual: fact.args.len(),
            });
        }
        if self.contains_fact_ref(fact.rel, &fact.args) {
            return Ok(false);
        }
        self.insert_new_fact(fact);
        Ok(true)
    }

    /// Adds a fact given by relation id and a **borrowed** argument slice —
    /// the allocation-conscious twin of [`Database::add_fact`].  A duplicate
    /// costs one hash probe and zero allocations; only a genuinely new fact
    /// copies `args` into the fact table.  This is the append path the
    /// arena-backed chase drives: candidate facts live in a bump arena and
    /// are only materialised here when they turn out to be new.
    pub fn add_fact_ref(&mut self, rel: RelId, args: &[Value]) -> Result<bool> {
        let arity = self.schema.arity(rel);
        if arity != args.len() {
            return Err(DataError::ArityMismatch {
                relation: self.schema.name(rel).to_owned(),
                expected: arity,
                actual: args.len(),
            });
        }
        if self.contains_fact_ref(rel, args) {
            return Ok(false);
        }
        self.insert_new_fact(Fact::new(rel, args.to_vec()));
        Ok(true)
    }

    /// The shared insert path behind [`Database::add_fact`] /
    /// [`Database::add_fact_ref`].  The caller has checked the arity and that
    /// the fact is not present.
    fn insert_new_fact(&mut self, fact: Fact) {
        let idx = self.facts.len();
        for &v in &fact.args {
            self.assign_code(v);
            if let Value::Null(n) = v {
                self.reserve_null(n);
            }
        }
        // Maintain the incremental component index: all argument values of a
        // fact are Gaifman-connected, so union their codes and append the
        // fact to the surviving root's intrusive list.  A nullary fact has
        // no value and is in no component.
        self.comp_next.push(NO_CODE);
        if let Some(&head) = fact.args.first() {
            let code = self.value_code(head).expect("code assigned above");
            let mut root = self.find_compress(code);
            for &v in &fact.args[1..] {
                let code = self.value_code(v).expect("code assigned above");
                let other = self.find_compress(code);
                root = self.union_roots(root, other);
            }
            self.append_to_component(root, idx as u32);
        }
        self.by_relation[fact.rel.0 as usize].push(idx);
        let key = Self::fact_key(fact.rel, &fact.args);
        self.fact_lookup
            .entry(key)
            .or_default()
            .push(u32::try_from(idx).expect("fact table overflow"));
        self.facts.push(fact);
        self.columnar = OnceLock::new();
        self.revision += 1;
    }

    /// The dedup-index key of a fact: an FxHash over `(rel, args)`.
    #[inline]
    fn fact_key(rel: RelId, args: &[Value]) -> u64 {
        let mut hasher = FxHasher::default();
        rel.hash(&mut hasher);
        args.hash(&mut hasher);
        hasher.finish()
    }

    /// Assigns a dense value code to `v` if it does not have one yet,
    /// extending the active domain.
    fn assign_code(&mut self, v: Value) {
        let table = match v {
            Value::Const(ConstId(c)) => {
                if self.const_code.len() <= c as usize {
                    self.const_code.resize(c as usize + 1, NO_CODE);
                }
                &mut self.const_code[c as usize]
            }
            Value::Null(NullId(n)) => {
                if self.null_code.len() <= n as usize {
                    self.null_code.resize(n as usize + 1, NO_CODE);
                }
                &mut self.null_code[n as usize]
            }
        };
        if *table == NO_CODE {
            let code = u32::try_from(self.adom.len()).expect("adom overflow");
            *table = code;
            self.adom.push(v);
            // A fresh value starts as its own singleton component.
            self.comp_parent.push(code);
            self.comp_head.push(NO_CODE);
            self.comp_tail.push(NO_CODE);
        }
    }

    /// Read-only union-find lookup: walks parents without compressing.
    fn find(&self, mut i: u32) -> u32 {
        while self.comp_parent[i as usize] != i {
            i = self.comp_parent[i as usize];
        }
        i
    }

    /// Union-find lookup with path halving (mutating fast path).
    fn find_compress(&mut self, mut i: u32) -> u32 {
        while self.comp_parent[i as usize] != i {
            let grand = self.comp_parent[self.comp_parent[i as usize] as usize];
            self.comp_parent[i as usize] = grand;
            i = grand;
        }
        i
    }

    /// Unions two canonical roots, concatenating `a`'s fact list onto `b`'s
    /// in O(1), and returns the surviving root.
    fn union_roots(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        self.comp_parent[a as usize] = b;
        if self.comp_head[a as usize] != NO_CODE {
            if self.comp_head[b as usize] == NO_CODE {
                self.comp_head[b as usize] = self.comp_head[a as usize];
            } else {
                self.comp_next[self.comp_tail[b as usize] as usize] = self.comp_head[a as usize];
            }
            self.comp_tail[b as usize] = self.comp_tail[a as usize];
            self.comp_head[a as usize] = NO_CODE;
            self.comp_tail[a as usize] = NO_CODE;
        }
        b
    }

    /// Appends fact `idx` to the intrusive fact list of the canonical root
    /// `root` (`comp_next[idx]` must already exist and terminate the list).
    fn append_to_component(&mut self, root: u32, idx: u32) {
        if self.comp_head[root as usize] == NO_CODE {
            self.comp_head[root as usize] = idx;
        } else {
            self.comp_next[self.comp_tail[root as usize] as usize] = idx;
        }
        self.comp_tail[root as usize] = idx;
    }

    /// The dense value code of `v` (its index in [`Database::adom`]), if the
    /// value occurs in the database.  A dense-array lookup, no hashing.
    #[inline]
    pub fn value_code(&self, v: Value) -> Option<u32> {
        let code = match v {
            Value::Const(ConstId(c)) => self.const_code.get(c as usize),
            Value::Null(NullId(n)) => self.null_code.get(n as usize),
        };
        match code {
            Some(&c) if c != NO_CODE => Some(c),
            _ => None,
        }
    }

    /// The columnar index of this database, building it in one linear pass if
    /// a mutation invalidated (or nothing yet requested) it.
    pub fn columnar(&self) -> &ColumnarIndex {
        let index = self.columnar.get_or_init(|| ColumnarIndex::build(self));
        // Mutations drop the index, so a reachable index is always current.
        debug_assert_eq!(index.revision(), self.revision);
        index
    }

    /// Verifies that the built columnar index (if any) matches this
    /// database's revision, surfacing [`DataError::StaleIndex`] as a typed
    /// error instead of the internal debug assertion.  Executors that splice
    /// previously indexed shards into a refreshed instance call this before
    /// serving lookups from the reused index; a database without a built
    /// index trivially passes (the next lookup builds a current one).
    pub fn verify_columnar(&self) -> Result<()> {
        match self.columnar.get() {
            Some(index) => index.verify_against(self),
            None => Ok(()),
        }
    }

    /// The monotone mutation counter of this database: bumped by every
    /// `add_fact`/`add_relation`/`absorb`.  Two databases cloned from one
    /// another diverge in revision as soon as either mutates, which makes the
    /// revision a cheap identity tag for copy-on-write snapshots.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Returns `true` iff the fact is present.
    pub fn contains_fact(&self, fact: &Fact) -> bool {
        self.contains_fact_ref(fact.rel, &fact.args)
    }

    /// Borrowed-key membership test: like [`Database::contains_fact`] but
    /// without requiring an owned [`Fact`], so hot loops (chase saturation,
    /// differential harnesses) can probe without allocating.
    pub fn contains_fact_ref(&self, rel: RelId, args: &[Value]) -> bool {
        match self.fact_lookup.get(&Self::fact_key(rel, args)) {
            Some(indices) => indices.iter().any(|&idx| {
                let fact = &self.facts[idx as usize];
                fact.rel == rel && fact.args == args
            }),
            None => false,
        }
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Returns `true` iff the database has no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The total size `‖D‖`: number of facts weighted by arity (plus one per
    /// fact for the relation symbol).  This is the size measure used by the
    /// paper's linear-time claims.
    pub fn size(&self) -> usize {
        self.facts.iter().map(|f| f.args.len() + 1).sum()
    }

    /// All facts, in insertion order.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// Fact at a given index.
    pub fn fact(&self, idx: usize) -> &Fact {
        &self.facts[idx]
    }

    /// Indices of the facts over a relation symbol.
    pub fn facts_of(&self, rel: RelId) -> &[usize] {
        self.by_relation
            .get(rel.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Indices of the facts over `rel` whose argument at `pos` equals `value`.
    ///
    /// Served from the dense [`ColumnarIndex`]: a value-code array lookup
    /// followed by a CSR slice — no hashing.
    pub fn facts_with(&self, rel: RelId, pos: usize, value: Value) -> &[usize] {
        match self.value_code(value) {
            Some(code) => self.columnar().facts_with_code(rel, pos, code),
            None => &[],
        }
    }

    /// Indices of the facts mentioning `value` in any position.
    pub fn facts_mentioning(&self, value: Value) -> &[usize] {
        match self.value_code(value) {
            Some(code) => self.columnar().facts_mentioning_code(code),
            None => &[],
        }
    }

    /// Iterates over fact indices of `rel` matching a partial binding: the
    /// binding assigns a concrete value to some positions (`Some`) and leaves
    /// others free (`None`).  The most selective bound position's index is
    /// used when available.
    pub fn facts_matching(&self, rel: RelId, binding: &[Option<Value>]) -> Vec<usize> {
        debug_assert_eq!(binding.len(), self.schema.arity(rel));
        let mut best: Option<&[usize]> = None;
        for (pos, b) in binding.iter().enumerate() {
            if let Some(v) = b {
                let candidates = self.facts_with(rel, pos, *v);
                if best.map(|b| candidates.len() < b.len()).unwrap_or(true) {
                    best = Some(candidates);
                }
            }
        }
        let candidates = best.unwrap_or_else(|| self.facts_of(rel));
        candidates
            .iter()
            .copied()
            .filter(|&idx| {
                let fact = &self.facts[idx];
                binding
                    .iter()
                    .zip(&fact.args)
                    .all(|(b, &actual)| b.map(|expected| expected == actual).unwrap_or(true))
            })
            .collect()
    }

    /// The active domain `adom(D)` in first-occurrence order.
    pub fn adom(&self) -> &[Value] {
        &self.adom
    }

    /// Returns `true` iff `value` occurs in the database.
    pub fn in_adom(&self, value: Value) -> bool {
        self.value_code(value).is_some()
    }

    /// The constants of the active domain.
    pub fn adom_consts(&self) -> Vec<ConstId> {
        self.adom.iter().filter_map(|v| v.as_const()).collect()
    }

    /// Returns `true` iff the instance mentions at least one labelled null.
    pub fn has_nulls(&self) -> bool {
        self.adom.iter().any(|v| v.is_null())
    }

    /// Copies all facts of `other` into `self` (schemas are merged).
    pub fn absorb(&mut self, other: &Database) -> Result<()> {
        self.schema.merge(other.schema())?;
        while self.by_relation.len() < self.schema.len() {
            self.by_relation.push(Vec::new());
        }
        self.columnar = OnceLock::new();
        self.revision += 1;
        // Relation ids may differ between the two schemas; remap by name.
        for fact in other.facts() {
            let name = other.schema().name(fact.rel).to_owned();
            let rel = self.schema.require(&name)?;
            // Constants are also interned by name to keep identifiers coherent.
            let args = fact
                .args
                .iter()
                .map(|&v| match v {
                    Value::Const(c) => Value::Const(self.intern_const(other.const_name(c))),
                    Value::Null(n) => Value::Null(n),
                })
                .collect();
            self.add_fact(Fact::new(rel, args))?;
        }
        Ok(())
    }

    /// Shares this database's constant interner with a fresh empty database
    /// over the same schema.  Useful for derived instances (e.g. the chase)
    /// that must agree on constant identifiers.
    pub fn derived_empty(&self) -> Database {
        let mut out = Database::new(self.schema.clone());
        out.consts = self.consts.clone();
        out.next_null = self.next_null;
        out
    }

    // ------------------------------------------------------------------
    // Gaifman-component sharding.
    // ------------------------------------------------------------------

    /// The canonical component root — a dense value code — of the Gaifman
    /// connected component containing `v`, or `None` if `v` does not occur
    /// in the database.
    ///
    /// Roots are a property of the current partition: a later insert can
    /// merge two components, after which both old roots resolve (via
    /// [`Database::component_root_of_code`]) to one surviving root.  Value
    /// codes are append-stable, so a root obtained at an older revision can
    /// always be re-canonicalised against a newer clone of the database.
    pub fn component_root(&self, v: Value) -> Option<u32> {
        self.value_code(v).map(|code| self.find(code))
    }

    /// Re-canonicalises a dense value code (possibly obtained from an older
    /// revision of this database's lineage) to its current component root.
    /// Returns `None` if the code is out of range for this database.
    pub fn component_root_of_code(&self, code: u32) -> Option<u32> {
        ((code as usize) < self.comp_parent.len()).then(|| self.find(code))
    }

    /// Walks the intrusive fact list of the canonical root `root` (list
    /// order, not insertion order); empty for any other code.
    fn component_list(&self, root: u32) -> impl Iterator<Item = u32> + '_ {
        let head = self.comp_head.get(root as usize).copied();
        std::iter::successors(head.filter(|&idx| idx != NO_CODE), |&idx| {
            Some(self.comp_next[idx as usize]).filter(|&next| next != NO_CODE)
        })
    }

    // ------------------------------------------------------------------
    // Packs: bounded unions of whole components, the shards of every
    // sharded execution.
    // ------------------------------------------------------------------

    /// The stable key of every Gaifman component: the canonical component
    /// roots in ascending order.  A nullary fact has no value and is in no
    /// component, so it has no key: a plan that may read one runs as one
    /// shard (`QueryPlan::shard_keys` in `omq-core`).  Keys survive later
    /// inserts up to re-canonicalisation
    /// ([`Database::component_root_of_code`]), which is what lets
    /// delta-chase maintenance recognise untouched components across
    /// revisions of one database lineage.
    pub fn component_keys(&self) -> Vec<u32> {
        // Non-empty fact lists live only at canonical roots.
        (0..self.comp_head.len() as u32)
            .filter(|&c| self.comp_head[c as usize] != NO_CODE)
            .collect()
    }

    /// Number of facts of the component rooted at `root`, read off the
    /// intrusive fact list in time proportional to the component.
    pub fn component_len(&self, root: u32) -> usize {
        self.component_list(root).count()
    }

    /// Most facts a pack of *several* components holds when this database is
    /// sharded in process: an eighth of the facts (so that a small database
    /// keeps one shard per component), at most 64.
    pub fn pack_capacity(&self) -> usize {
        (self.facts.len() / MIN_SHARDS).clamp(1, PACK_FACTS)
    }

    /// Groups the components `keys` into **packs** — unions of whole
    /// components holding at most `capacity` facts — and returns the pack
    /// boundaries: pack `i` is `keys[offsets[i]..offsets[i + 1]]`.  This is
    /// the one sharding rule: in-process execution passes
    /// [`Database::pack_capacity`], the cluster coordinator a capacity
    /// derived from its worker count.
    ///
    /// The rule is next-fit over `keys` in the order given (callers list
    /// them as [`Database::component_keys`] does, canonical roots
    /// ascending): a component joins the open pack if the pack
    /// then holds at most the capacity, otherwise it opens a new one, so a
    /// component larger than the capacity is a pack by itself.  The number
    /// of packs is thereby bounded by the data's size — any two neighbouring
    /// packs hold more than the capacity between them — instead of by its
    /// component count.  Every pack is a union of whole components, which is
    /// all sharding needs to be sound (no fact spans two packs).
    pub fn pack_components(&self, keys: &[u32], capacity: usize) -> Vec<usize> {
        let mut offsets = vec![0];
        let mut open = 0usize;
        for (i, &key) in keys.iter().enumerate() {
            let len = self.component_len(key);
            if i > 0 && open + len > capacity {
                offsets.push(i);
                open = 0;
            }
            open += len;
        }
        if !keys.is_empty() {
            offsets.push(keys.len());
        }
        offsets
    }

    /// Extracts the union of the components `keys` as one independent
    /// database over a clone of the schema, sharing this database's interner
    /// snapshot, with the facts in global insertion order.  Time
    /// proportional to the extracted facts (plus their sort).
    pub fn pack_database(&self, keys: &[u32]) -> Database {
        let mut indices: Vec<u32> = Vec::new();
        for &root in keys {
            indices.extend(self.component_list(root));
        }
        // Unions concatenate lists, so restore global insertion order; a key
        // listed twice must not copy its facts twice.
        indices.sort_unstable();
        indices.dedup();
        let mut out = self.derived_empty();
        for idx in indices {
            // Distinct, arity-checked facts over a clone of the schema: the
            // duplicate probe of `add_fact` has nothing to find.
            out.insert_new_fact(self.facts[idx as usize].clone());
        }
        out
    }

    /// Number of connected components of the Gaifman graph (values that
    /// occur in no fact do not count, and a nullary fact is in none).
    pub fn component_count(&self) -> usize {
        // Non-empty fact lists live only at canonical roots, and every
        // active-domain value occurs in a fact.
        self.comp_head.iter().filter(|&&h| h != NO_CODE).count()
    }

    /// Partitions the facts by Gaifman connected component into independent
    /// sub-databases: one database per component, each over a clone of the
    /// schema and **sharing this database's interner snapshot** (see
    /// [`Database::shares_interner_with`]), so constant identifiers coincide
    /// across all shards and with the parent.
    ///
    /// The union of the shards' fact sets is exactly this database's facts
    /// with arguments (a nullary fact is in no component), and no fact
    /// mentions values from two shards.  A database with no component
    /// yields a single empty shard.
    pub fn shard_by_component(&self) -> Vec<Database> {
        let keys = self.component_keys();
        if keys.is_empty() {
            return vec![self.derived_empty()];
        }
        keys.iter()
            .map(|&root| self.pack_database(&[root]))
            .collect()
    }

    /// Renders a fact for display.
    pub fn display_fact(&self, fact: &Fact) -> String {
        let args: Vec<String> = fact.args.iter().map(|&v| self.display_value(v)).collect();
        format!("{}({})", self.schema.name(fact.rel), args.join(","))
    }

    // ------------------------------------------------------------------
    // Named-row export/import (process-portable shard serialisation).
    // ------------------------------------------------------------------

    /// Exports every fact as `(relation name, constant names)` rows — the
    /// process-portable form of a database: names are stable across
    /// interners, while [`ConstId`]s and [`RelId`]s are not.  The cluster
    /// coordinator ships shards this way and workers rebuild them with
    /// [`Database::from_fact_rows`]; `export ∘ import` preserves the fact
    /// *set* exactly (order included).
    ///
    /// Fails with [`DataError::UnexportableNull`] if a fact mentions a
    /// labelled null: nulls have no name, and base databases — the only
    /// thing worth shipping — never contain them (nulls are minted by the
    /// chase, which runs downstream of export).
    pub fn export_fact_rows(&self) -> Result<Vec<(String, Vec<String>)>> {
        self.facts
            .iter()
            .map(|fact| {
                let args = fact
                    .args
                    .iter()
                    .map(|&v| match v {
                        Value::Const(c) => Ok(self.const_name(c).to_owned()),
                        Value::Null(_) => Err(DataError::UnexportableNull {
                            relation: self.schema.name(fact.rel).to_owned(),
                        }),
                    })
                    .collect::<Result<Vec<String>>>()?;
                Ok((self.schema.name(fact.rel).to_owned(), args))
            })
            .collect()
    }

    /// Rebuilds a database from named rows (the inverse of
    /// [`Database::export_fact_rows`]) over `schema`.  Constants are
    /// interned in row order, so two processes importing the same rows
    /// agree on every constant *name* — which is all the wire carries —
    /// even though their numeric [`ConstId`]s need not match a third
    /// process's.
    pub fn from_fact_rows<S: AsRef<str>>(
        schema: Schema,
        rows: &[(String, Vec<S>)],
    ) -> Result<Database> {
        let mut db = Database::new(schema);
        for (relation, args) in rows {
            db.add_named_fact(relation, args)?;
        }
        Ok(db)
    }
}

/// The identity conversion, so that APIs taking `impl AsRef<Database>` (plan
/// execution, serving) accept `&Database` and store snapshots uniformly.
impl AsRef<Database> for Database {
    fn as_ref(&self) -> &Database {
        self
    }
}

/// Fluent builder for [`Database`], collecting the first error and reporting
/// it at [`DatabaseBuilder::build`] time.
#[derive(Debug)]
pub struct DatabaseBuilder {
    db: Database,
    error: Option<DataError>,
}

impl DatabaseBuilder {
    /// Adds a fact given by relation name and constant names.
    pub fn fact<S: AsRef<str>>(mut self, relation: &str, args: impl AsRef<[S]>) -> Self {
        if self.error.is_none() {
            if let Err(e) = self.db.add_named_fact(relation, args.as_ref()) {
                self.error = Some(e);
            }
        }
        self
    }

    /// Finishes building, returning the database or the first error.
    pub fn build(self) -> Result<Database> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.db),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn office_schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("Researcher", 1).unwrap();
        s.add_relation("HasOffice", 2).unwrap();
        s.add_relation("InBuilding", 2).unwrap();
        s
    }

    fn office_db() -> Database {
        Database::builder(office_schema())
            .fact("Researcher", ["mary"])
            .fact("Researcher", ["john"])
            .fact("Researcher", ["mike"])
            .fact("HasOffice", ["mary", "room1"])
            .fact("HasOffice", ["john", "room4"])
            .fact("InBuilding", ["room1", "main1"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_and_basic_queries() {
        let db = office_db();
        assert_eq!(db.len(), 6);
        assert!(db.size() > db.len());
        let has_office = db.schema().relation_id("HasOffice").unwrap();
        assert_eq!(db.facts_of(has_office).len(), 2);
        let mary = Value::Const(db.const_id("mary").unwrap());
        assert_eq!(db.facts_with(has_office, 0, mary).len(), 1);
        assert_eq!(db.facts_mentioning(mary).len(), 2);
        assert!(!db.has_nulls());
    }

    #[test]
    fn duplicate_facts_are_ignored() {
        let mut db = office_db();
        let before = db.len();
        let added = db.add_named_fact("Researcher", &["mary"]).unwrap();
        assert!(!added);
        assert_eq!(db.len(), before);
    }

    #[test]
    fn arity_mismatch_is_error() {
        let mut db = office_db();
        let err = db.add_named_fact("Researcher", &["a", "b"]).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_relation_is_error() {
        let err = Database::builder(office_schema())
            .fact("Nope", ["x"])
            .build()
            .unwrap_err();
        assert!(matches!(err, DataError::UnknownRelation(_)));
    }

    #[test]
    fn adom_holds_every_value_once() {
        let db = office_db();
        // mary, john, mike, room1, room4, main1
        assert_eq!(db.adom().len(), 6);
    }

    #[test]
    fn facts_matching_partial_binding() {
        let db = office_db();
        let has_office = db.schema().relation_id("HasOffice").unwrap();
        let john = Value::Const(db.const_id("john").unwrap());
        let matches = db.facts_matching(has_office, &[Some(john), None]);
        assert_eq!(matches.len(), 1);
        let all = db.facts_matching(has_office, &[None, None]);
        assert_eq!(all.len(), 2);
        let none = db.facts_matching(
            has_office,
            &[
                Some(john),
                Some(Value::Const(db.const_id("room1").unwrap())),
            ],
        );
        assert!(none.is_empty());
    }

    #[test]
    fn fresh_nulls_are_distinct_and_reserved() {
        let mut db = office_db();
        let n1 = db.fresh_null();
        let n2 = db.fresh_null();
        assert_ne!(n1, n2);
        let rel = db.schema().relation_id("Researcher").unwrap();
        db.add_fact(Fact::new(rel, vec![Value::Null(NullId(100))]))
            .unwrap();
        let n3 = db.fresh_null();
        assert!(n3.0 > 100);
        assert!(db.has_nulls());
        // Only NullId(100) was inserted into a fact; fresh_null() alone does not
        // extend the active domain.
        assert_eq!(db.adom().iter().filter(|v| v.is_null()).count(), 1);
    }

    #[test]
    fn absorb_merges_by_name() {
        let mut s2 = Schema::new();
        s2.add_relation("Extra", 1).unwrap();
        s2.add_relation("Researcher", 1).unwrap();
        let mut other = Database::new(s2);
        other.add_named_fact("Extra", &["zoe"]).unwrap();
        other.add_named_fact("Researcher", &["zoe"]).unwrap();

        let mut db = office_db();
        db.absorb(&other).unwrap();
        assert!(db.schema().relation_id("Extra").is_some());
        let zoe = db.const_id("zoe").unwrap();
        let researcher = db.schema().relation_id("Researcher").unwrap();
        assert!(db.contains_fact(&Fact::new(researcher, vec![Value::Const(zoe)])));
        assert_eq!(db.len(), 8);
    }

    #[test]
    fn derived_empty_shares_constants() {
        let db = office_db();
        let derived = db.derived_empty();
        assert!(derived.is_empty());
        assert_eq!(derived.const_id("mary"), db.const_id("mary"));
    }

    #[test]
    fn display_helpers() {
        let db = office_db();
        let has_office = db.schema().relation_id("HasOffice").unwrap();
        let f = &db.facts()[db.facts_of(has_office)[0]];
        assert_eq!(db.display_fact(f), "HasOffice(mary,room1)");
    }

    #[test]
    fn value_codes_are_dense_and_stable() {
        let db = office_db();
        for (expected, &v) in db.adom().iter().enumerate() {
            assert_eq!(db.value_code(v), Some(expected as u32));
        }
        assert_eq!(db.value_code(Value::Const(ConstId(9999))), None);
        assert_eq!(db.value_code(Value::Null(NullId(0))), None);
    }

    /// Regression test for the `P_db` relativisation path: relations declared
    /// *after* facts exist (and after the columnar index was built) must be
    /// fully indexed.
    #[test]
    fn add_relation_after_facts_keeps_indexes_consistent() {
        let mut db = office_db();
        let mary = Value::Const(db.const_id("mary").unwrap());
        // Force the columnar index to be built with the original schema.
        assert_eq!(db.facts_mentioning(mary).len(), 2);
        // Declare the relativisation predicate afterwards and populate it.
        let p_db = db.add_relation("P_db", 1).unwrap();
        assert_eq!(db.by_relation.len(), db.schema().len());
        for value in ["mary", "john", "mike"] {
            db.add_named_fact("P_db", &[value]).unwrap();
        }
        assert_eq!(db.facts_of(p_db).len(), 3);
        assert_eq!(db.facts_with(p_db, 0, mary).len(), 1);
        // The new facts also show up in the mention index.
        assert_eq!(db.facts_mentioning(mary).len(), 3);
        // Declaring a relation and never adding facts is also consistent.
        let empty = db.add_relation("Q_db", 2).unwrap();
        assert!(db.facts_of(empty).is_empty());
        assert!(db.facts_with(empty, 0, mary).is_empty());
        // Re-declaring an existing relation (same arity) is a true no-op:
        // the revision stands and the built index is not discarded.
        let _ = db.columnar(); // force the index
        let revision = db.revision();
        assert_eq!(db.add_relation("Q_db", 2).unwrap(), empty);
        assert_eq!(db.revision(), revision);
        assert!(db.columnar.get().is_some(), "index survived the no-op");
    }

    #[test]
    fn shard_by_component_partitions_facts() {
        let db = office_db();
        // Components: {mary, room1, main1}, {john, room4}, {mike}.
        assert_eq!(db.component_count(), 3);
        let shards = db.shard_by_component();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(Database::len).sum::<usize>(), db.len());
        for shard in &shards {
            assert!(shard.shares_interner_with(&db));
            assert_eq!(shard.schema().len(), db.schema().len());
            for fact in shard.facts() {
                assert!(db.contains_fact(fact));
            }
        }
        // No value occurs in two shards.
        for (i, a) in shards.iter().enumerate() {
            for b in &shards[i + 1..] {
                for v in a.adom() {
                    assert!(!b.in_adom(*v), "value {v:?} spans shards");
                }
            }
        }
        // Every shard resolves every constant name (shared snapshot).
        assert!(shards.iter().all(|s| s.const_id("mike").is_some()));
    }

    #[test]
    fn pack_components_follows_the_callers_capacity() {
        // 40 singletons, components of 30, 7 and 12 facts, a nullary fact.
        let db = packing_db(40, &[30, 7, 12], true);
        let keys = db.component_keys();
        for capacity in [1, 2, 5, 7, 12, 29, 30, 64, usize::MAX] {
            let offsets = db.pack_components(&keys, capacity);
            // An exact partition of the keys, hence of the facts.
            assert_eq!((offsets[0], *offsets.last().unwrap()), (0, keys.len()));
            assert!(offsets.windows(2).all(|w| w[0] < w[1]));
            let lens: Vec<usize> = offsets
                .windows(2)
                .map(|w| db.pack_database(&keys[w[0]..w[1]]).len())
                .collect();
            // Every fact but the nullary one, which is in no component.
            assert_eq!(lens.iter().sum::<usize>(), db.len() - 1);
            // No pack above the capacity holds two components.
            for (w, &len) in offsets.windows(2).zip(&lens) {
                assert!(len <= capacity || w[1] - w[0] == 1, "{len} > {capacity}");
            }
            let bound = 2 * db.len().div_ceil(capacity) + 1;
            assert!(lens.len() <= bound, "{} packs at {capacity}", lens.len());
        }
        assert_eq!(db.pack_components(&keys, usize::MAX), vec![0, keys.len()]);
        let singly: Vec<usize> = (0..=keys.len()).collect();
        assert_eq!(db.pack_components(&keys, 1), singly);
        // The empty database has no packs but still one (empty) shard.
        let empty = Database::new(office_schema());
        assert_eq!(empty.pack_components(&[], 64), vec![0]);
        assert_eq!(empty.shard_by_component().len(), 1);
        assert_eq!(empty.component_count(), 0);
    }

    #[test]
    fn a_nullary_fact_is_in_no_component() {
        let mut db = office_db();
        let keys = db.component_keys();
        let flag = db.add_relation("Flag", 0).unwrap();
        db.add_fact(Fact::new(flag, vec![])).unwrap();
        // No key, no pack and no shard holds it.
        assert_eq!(db.component_keys(), keys);
        assert_eq!(db.component_count(), 3);
        let packed: usize = keys.iter().map(|&root| db.component_len(root)).sum();
        assert_eq!(packed, db.len() - 1);
        assert_eq!(db.pack_database(&keys).len(), db.len() - 1);
        let shards = db.shard_by_component();
        assert_eq!(
            shards.iter().map(Database::len).sum::<usize>(),
            db.len() - 1
        );
        // Nullary facts alone make no component: one empty shard.
        let mut flags = db.derived_empty();
        flags.add_fact(Fact::new(flag, vec![])).unwrap();
        assert!(flags.component_keys().is_empty());
        assert_eq!(flags.component_count(), 0);
        assert!(flags.shard_by_component()[0].is_empty());
    }

    #[test]
    fn component_roots_and_keys_track_inserts() {
        let mut db = office_db();
        let mary = Value::Const(db.const_id("mary").unwrap());
        let room1 = Value::Const(db.const_id("room1").unwrap());
        let mike = Value::Const(db.const_id("mike").unwrap());
        assert_eq!(db.component_root(mary), db.component_root(room1));
        assert_ne!(db.component_root(mary), db.component_root(mike));
        // The keyed components partition the facts and agree with the roots.
        let keys = db.component_keys();
        assert_eq!(keys.len(), 3);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending roots");
        let lens: Vec<usize> = keys.iter().map(|&k| db.component_len(k)).collect();
        assert_eq!(lens.iter().sum::<usize>(), db.len());
        for &root in &keys {
            let shard = db.pack_database(&[root]);
            assert_eq!(shard.len(), db.component_len(root));
            assert!(shard.shares_interner_with(&db));
            for fact in shard.facts() {
                assert_eq!(db.component_root(fact.args[0]), Some(root));
            }
        }
        // Extracting a component yields exactly its facts, insertion order.
        let root = db.component_root(mary).unwrap();
        let extracted = db.pack_database(&[root]);
        let expected: Vec<Fact> = [0usize, 3, 5].map(|i| db.fact(i).clone()).into();
        assert_eq!(extracted.facts(), expected);
        // A bridging fact merges two components: both old roots
        // re-canonicalise to the one survivor, which owns all the facts.
        let old_mary = root;
        let old_mike = db.component_root(mike).unwrap();
        db.add_named_fact("HasOffice", &["mike", "room1"]).unwrap();
        let merged = db.component_root(mary).unwrap();
        assert_eq!(db.component_root(mike), Some(merged));
        assert_eq!(db.component_root_of_code(old_mary), Some(merged));
        assert_eq!(db.component_root_of_code(old_mike), Some(merged));
        assert_eq!(db.component_count(), 2);
        assert_eq!(db.component_len(merged), 5);
        let extracted = db.pack_database(&[merged]);
        let order: Vec<String> = extracted
            .facts()
            .iter()
            .map(|f| db.display_fact(f))
            .collect();
        let expected: Vec<String> = [0usize, 2, 3, 5, 6]
            .iter()
            .map(|&i| db.display_fact(db.fact(i)))
            .collect();
        assert_eq!(order, expected, "global insertion order survives a merge");
        assert_eq!(db.component_root_of_code(u32::MAX - 1), None);
    }

    /// A database of `singles` one-fact components, then one component per
    /// entry of `chains` with that many facts, then optionally a nullary
    /// fact.
    fn packing_db(singles: usize, chains: &[usize], nullary: bool) -> Database {
        let mut s = Schema::new();
        s.add_relation("Node", 1).unwrap();
        s.add_relation("Edge", 2).unwrap();
        s.add_relation("Flag", 0).unwrap();
        let mut db = Database::new(s);
        for i in 0..singles {
            db.add_named_fact("Node", &[format!("s{i}")]).unwrap();
        }
        for (c, &len) in chains.iter().enumerate() {
            for i in 0..len {
                let (a, b) = (format!("c{c}_{i}"), format!("c{c}_{}", i + 1));
                db.add_named_fact("Edge", &[a, b]).unwrap();
            }
        }
        if nullary {
            let flag = db.schema().relation_id("Flag").unwrap();
            db.add_fact(Fact::new(flag, vec![])).unwrap();
        }
        db
    }

    /// The packs of the whole database, as key slices.
    fn packs_of(db: &Database) -> Vec<Vec<u32>> {
        let keys = db.component_keys();
        let offsets = db.pack_components(&keys, db.pack_capacity());
        offsets
            .windows(2)
            .map(|w| keys[w[0]..w[1]].to_vec())
            .collect()
    }

    #[test]
    fn packs_partition_the_facts_into_bounded_unions_of_components() {
        // 700 singletons, components of 100, 30, 40 and 64 facts, a nullary
        // fact: 935 facts, so the capacity is the full 64.
        let db = packing_db(700, &[100, 30, 40, 64], true);
        assert_eq!(db.pack_capacity(), 64);
        let packs = packs_of(&db);
        // Every component key sits in exactly one pack…
        let flat: Vec<u32> = packs.iter().flatten().copied().collect();
        assert_eq!(flat, db.component_keys());
        // …and the extracted packs partition the facts with arguments
        // exactly: the nullary fact is in no component.
        let parts: Vec<Database> = packs.iter().map(|p| db.pack_database(p)).collect();
        assert_eq!(parts.iter().map(Database::len).sum::<usize>(), db.len() - 1);
        for part in &parts {
            assert!(part.shares_interner_with(&db));
            assert!(part.facts().iter().all(|f| db.contains_fact(f)));
        }
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                assert!(
                    a.adom().iter().all(|v| !b.in_adom(*v)),
                    "a value spans packs"
                );
            }
        }
        // No pack above the capacity holds two components; the 100-fact
        // component sits alone, the 64-fact one fills a pack by itself.
        for (pack, part) in packs.iter().zip(&parts) {
            assert!(part.len() <= 64 || pack.len() == 1, "{} facts", part.len());
        }
        assert!(parts.iter().any(|p| p.len() == 100));
        // Next-fit: two neighbouring packs never fit into one.
        for pair in parts.windows(2) {
            assert!(pair[0].len() + pair[1].len() > 64);
        }
        // The count is bounded by the size, not by the 705 components.
        assert!(parts.len() <= db.len() / 32 + 1, "{} packs", parts.len());
        // Facts keep their global insertion order inside a pack.
        let first: Vec<String> = parts[0]
            .facts()
            .iter()
            .map(|f| db.display_fact(f))
            .collect();
        let expected: Vec<String> = (0..64).map(|i| db.display_fact(db.fact(i))).collect();
        assert_eq!(first, expected);
    }

    #[test]
    fn the_pack_assignment_is_a_function_of_the_database_alone() {
        let db = packing_db(300, &[70, 10, 20], true);
        let again = packing_db(300, &[70, 10, 20], true);
        assert_eq!(packs_of(&db), packs_of(&again));
        assert_eq!(packs_of(&db), packs_of(&db.clone()));
        // Packing a sub-list of the keys uses the same capacity and rule.
        let keys = db.component_keys();
        let capacity = db.pack_capacity();
        assert_eq!(db.pack_components(&keys[..1], capacity), vec![0, 1]);
        assert_eq!(db.pack_components(&[], capacity), vec![0]);
        // A key listed twice is extracted once.
        assert_eq!(db.pack_database(&[keys[0], keys[0]]).len(), 1);
    }

    #[test]
    fn small_databases_keep_one_shard_per_component() {
        // Under sixteen facts the capacity is one fact: nothing is packed.
        let db = office_db();
        assert_eq!(db.pack_capacity(), 1);
        assert_eq!(packs_of(&db).len(), db.component_count());
        let db = packing_db(15, &[], false);
        assert_eq!(packs_of(&db).len(), 15);
        // A pack never holds more than an eighth of the facts, so eight (or
        // fewer) components of like size stay one shard each however large.
        let db = packing_db(0, &[40; 8], false);
        assert_eq!(db.pack_capacity(), 40);
        assert_eq!(packs_of(&db).len(), 8);
        // From there on singletons share packs.
        let db = packing_db(32, &[], false);
        assert_eq!(db.pack_capacity(), 4);
        assert_eq!(packs_of(&db).len(), 8);
    }

    #[test]
    fn stale_columnar_index_is_a_typed_error() {
        let mut db = office_db();
        let detached = db.columnar().clone();
        assert!(detached.verify_against(&db).is_ok());
        assert!(db.verify_columnar().is_ok());
        db.add_named_fact("Researcher", &["zoe"]).unwrap();
        let err = detached.verify_against(&db).unwrap_err();
        assert!(matches!(err, DataError::StaleIndex { .. }));
        assert!(err.to_string().contains("stale columnar index"));
        // The owning database never serves a stale index: the mutation
        // dropped it, so the typed check passes before and after a rebuild.
        assert!(db.columnar.get().is_none());
        assert!(db.verify_columnar().is_ok());
        let _ = db.columnar();
        assert!(db.columnar.get().is_some());
        assert!(db.verify_columnar().is_ok());
    }

    #[test]
    fn interner_snapshot_is_copy_on_write() {
        let db = office_db();
        let mut clone = db.clone();
        assert!(clone.shares_interner_with(&db));
        // Re-interning an existing constant keeps the shared snapshot.
        let mary = clone.intern_const("mary");
        assert_eq!(Some(mary), db.const_id("mary"));
        assert!(clone.shares_interner_with(&db));
        // A genuinely new constant copies the snapshot; the parent's ids are
        // unchanged and still coherent with the clone's.
        clone.intern_const("zoe");
        assert!(!clone.shares_interner_with(&db));
        assert_eq!(db.const_id("zoe"), None);
        assert_eq!(clone.const_id("mary"), db.const_id("mary"));
    }

    #[test]
    fn lookups_reflect_mutations_interleaved_with_reads() {
        let mut db = office_db();
        let researcher = db.schema().relation_id("Researcher").unwrap();
        let mary = Value::Const(db.const_id("mary").unwrap());
        assert_eq!(db.facts_with(researcher, 0, mary).len(), 1);
        db.add_named_fact("Researcher", &["zoe"]).unwrap();
        let zoe = Value::Const(db.const_id("zoe").unwrap());
        assert_eq!(db.facts_with(researcher, 0, zoe).len(), 1);
        assert_eq!(db.facts_of(researcher).len(), 4);
    }

    #[test]
    fn named_rows_round_trip_and_shards_stay_portable() {
        let db = office_db();
        let rows = db.export_fact_rows().unwrap();
        assert_eq!(rows.len(), db.len());
        assert_eq!(rows[3].0, "HasOffice");
        assert_eq!(rows[3].1, vec!["mary".to_owned(), "room1".to_owned()]);
        let rebuilt = Database::from_fact_rows(db.schema().clone(), &rows).unwrap();
        assert_eq!(rebuilt.len(), db.len());
        for (fact, other) in db.facts().iter().zip(rebuilt.facts()) {
            assert_eq!(db.display_fact(fact), rebuilt.display_fact(other));
        }
        // Component shards export/import independently: the re-imported
        // shard renders the same facts even though its interner is fresh.
        for shard in db.shard_by_component() {
            let rows = shard.export_fact_rows().unwrap();
            let rebuilt = Database::from_fact_rows(shard.schema().clone(), &rows).unwrap();
            let render = |d: &Database| -> Vec<String> {
                d.facts().iter().map(|f| d.display_fact(f)).collect()
            };
            assert_eq!(render(&shard), render(&rebuilt));
        }
    }

    #[test]
    fn null_bearing_facts_refuse_to_export() {
        let mut db = office_db();
        let null = db.fresh_null();
        let researcher = db.schema().relation_id("Researcher").unwrap();
        db.add_fact(Fact::new(researcher, vec![Value::Null(null)]))
            .unwrap();
        assert!(matches!(
            db.export_fact_rows(),
            Err(DataError::UnexportableNull { relation }) if relation == "Researcher"
        ));
    }
}

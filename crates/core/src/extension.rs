//! Atom extensions: materialised variable bindings with semijoin and
//! projection operations.
//!
//! The preprocessing phases of the paper's algorithms manipulate, for each
//! atom of the query, the set of variable bindings that match the database
//! (its *extension*), reduced by semijoins along a join tree.  This module
//! provides that machinery.

use omq_cq::{Atom, Term, VarId};
use omq_data::{Database, Value};
use rustc_hash::{FxHashMap, FxHashSet};

/// A tuple of values, ordered consistently with an [`Extension`]'s variables.
/// Owned tuples are only built at seams that need them (hash keys, answer
/// materialisation); the extension itself stores its rows flat.
pub type Tuple = Vec<Value>;

/// The extension of an atom (or of a derived relation): a set of distinct
/// tuples over an ordered list of variables.
///
/// Rows are stored **flat and row-major** (`data[i * width..(i + 1) * width]`
/// is tuple `i`): one contiguous allocation per extension instead of one
/// `Vec<Value>` per tuple, so the per-answer loops that walk neighbouring
/// tuples (`JoinCsr` parent joins, answer materialisation) stay within one
/// cache-friendly block and the builders stop paying a heap allocation per
/// row.
#[derive(Debug, Clone)]
pub struct Extension {
    /// The variables, in a fixed order.
    pub vars: Vec<VarId>,
    /// Flat row-major tuple storage; `vars.len()` values per row.
    data: Vec<Value>,
    /// Number of rows (kept explicitly: zero-arity extensions have
    /// `width == 0`, so the row count cannot be derived from `data`).
    rows: usize,
}

impl Extension {
    /// Creates an empty extension over the given variables.
    pub fn empty(vars: Vec<VarId>) -> Self {
        Extension {
            vars,
            data: Vec::new(),
            rows: 0,
        }
    }

    /// Number of values per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.vars.len()
    }

    /// Tuple `i` as a value slice (length [`Extension::width`]).
    #[inline]
    pub fn tuple(&self, i: usize) -> &[Value] {
        let w = self.vars.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// The value at row `i`, column `col`.
    #[inline]
    pub fn value(&self, i: usize, col: usize) -> Value {
        self.data[i * self.vars.len() + col]
    }

    /// Iterates over the rows as value slices.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        (0..self.rows).map(move |i| self.tuple(i))
    }

    /// Appends a row (length must equal [`Extension::width`]; uniqueness is
    /// the caller's concern).
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.vars.len());
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Materialises the extension of `atom` over `db`: the distinct bindings
    /// of the atom's variables under which the atom is a fact of `db`.
    /// Constants in the atom must match literally; repeated variables enforce
    /// equality.
    ///
    /// When `drop_null_for` is non-empty, tuples that assign a labelled null
    /// to any variable in that set are dropped — this implements the `P_db`
    /// relativisation used for complete answers.
    ///
    /// The scan compiles the atom into per-position *slots* once and then
    /// iterates over a columnar fact slice: constant positions narrow the
    /// candidate slice through the most selective column, and the inner loop
    /// performs no hash lookups.
    pub fn of_atom(atom: &Atom, db: &Database, drop_null_for: &FxHashSet<VarId>) -> Extension {
        /// What to do with one argument position of a candidate fact.
        enum Slot {
            /// Must equal this literal constant.
            Check(Value),
            /// First occurrence of a variable: bind column `col`; `true` if
            /// tuples binding this column to a null must be dropped.
            First(usize, bool),
            /// Repeated variable: must equal the value bound at column `col`.
            Repeat(usize),
        }

        let vars = atom.variables();
        let Some(rel) = db.schema().relation_id(&atom.relation) else {
            return Extension::empty(vars);
        };
        if db.schema().arity(rel) != atom.arity() {
            return Extension::empty(vars);
        }
        // Compile the atom: resolve constants once and map every position to
        // a slot over the dense column layout `vars`.
        let mut slots: Vec<Slot> = Vec::with_capacity(atom.arity());
        let mut first_of: Vec<Option<usize>> = vec![None; vars.len()];
        for term in &atom.terms {
            match term {
                Term::Const(name) => match db.const_id(name) {
                    Some(c) => slots.push(Slot::Check(Value::Const(c))),
                    None => return Extension::empty(vars),
                },
                Term::Var(v) => {
                    let col = vars.iter().position(|x| x == v).expect("var listed");
                    match first_of[col] {
                        Some(_) => slots.push(Slot::Repeat(col)),
                        None => {
                            first_of[col] = Some(slots.len());
                            slots.push(Slot::First(col, drop_null_for.contains(v)));
                        }
                    }
                }
            }
        }
        // Narrow the candidates through the most selective constant column.
        let mut candidates: Option<(usize, Value, &[usize])> = None;
        for (pos, slot) in slots.iter().enumerate() {
            if let Slot::Check(value) = slot {
                let narrowed = db.facts_with(rel, pos, *value);
                if candidates
                    .map(|(_, _, c)| narrowed.len() < c.len())
                    .unwrap_or(true)
                {
                    candidates = Some((pos, *value, narrowed));
                }
            }
        }

        // Scan through the structure-of-arrays columns: each checked position
        // reads one contiguous `Value` column instead of chasing the per-fact
        // `args` allocation.  The unrestricted scan walks rows `0..n`
        // sequentially.
        let columnar = db.columnar();
        let cols = columnar
            .rel_columns(rel)
            .expect("relation is in the schema the index was built from");
        let col_slices: Vec<&[Value]> = (0..atom.arity()).map(|p| cols.column(p)).collect();

        // Constant positions resolve to a packed row-id list before the
        // binding loop runs.  A selective constant remaps its CSR fact ids to
        // column rows (one random access per match); a dense one is cheaper
        // to rediscover with a sequential column scan than to remap row by
        // row.  Any further constant columns refine the list in place, so the
        // binding loop below only ever sees rows whose constants already
        // matched.
        let mut row_list: Option<Vec<u32>> = None;
        if let Some((best_pos, best_value, narrowed)) = candidates {
            let mut rows: Vec<u32> = if narrowed.len() * 4 >= cols.rows() {
                (0u32..)
                    .zip(col_slices[best_pos])
                    .filter(|&(_, &v)| v == best_value)
                    .map(|(row, _)| row)
                    .collect()
            } else {
                narrowed
                    .iter()
                    .map(|&idx| columnar.row_of_fact(idx))
                    .collect()
            };
            for (pos, slot) in slots.iter().enumerate() {
                if let Slot::Check(value) = slot {
                    if pos != best_pos {
                        let column = col_slices[pos];
                        rows.retain(|&row| column[row as usize] == *value);
                    }
                }
            }
            row_list = Some(rows);
        }

        let mut out = Extension::empty(vars);
        let mut seen: FxHashSet<Tuple> = FxHashSet::default();
        let mut scratch: Tuple = vec![Value::Const(omq_data::ConstId(0)); out.vars.len()];
        let mut visit = |row: usize| {
            for (slot, column) in slots.iter().zip(&col_slices) {
                match slot {
                    // Constants were verified by the row-list refinement (or
                    // there are none on the unrestricted path).
                    Slot::Check(expected) => {
                        debug_assert_eq!(*expected, column[row]);
                    }
                    Slot::First(col, drop_null) => {
                        let actual = column[row];
                        if *drop_null && actual.is_null() {
                            return;
                        }
                        scratch[*col] = actual;
                    }
                    Slot::Repeat(col) => {
                        if scratch[*col] != column[row] {
                            return;
                        }
                    }
                }
            }
            if !seen.contains(&scratch) {
                seen.insert(scratch.clone());
                out.push_row(&scratch);
            }
        };
        match &row_list {
            Some(rows) => {
                for &row in rows {
                    visit(row as usize);
                }
            }
            None => {
                for row in 0..cols.rows() {
                    visit(row);
                }
            }
        }
        out
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` iff the extension has no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Position of a variable within [`Extension::vars`], if present.
    pub fn position_of(&self, v: VarId) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    /// Projects the extension onto `keep` (all of which must occur in
    /// [`Extension::vars`]), deduplicating the resulting tuples.
    pub fn project(&self, keep: &[VarId]) -> Extension {
        let positions: Vec<usize> = keep
            .iter()
            .map(|v| self.position_of(*v).expect("projection variable present"))
            .collect();
        let mut seen: FxHashSet<Tuple> = FxHashSet::default();
        let mut out = Extension::empty(keep.to_vec());
        for t in self.rows() {
            let projected: Tuple = positions.iter().map(|&p| t[p]).collect();
            if !seen.contains(&projected) {
                out.push_row(&projected);
                seen.insert(projected);
            }
        }
        out
    }

    /// The variables shared with another extension, in this extension's order.
    pub fn shared_vars(&self, other: &Extension) -> Vec<VarId> {
        self.vars
            .iter()
            .copied()
            .filter(|v| other.vars.contains(v))
            .collect()
    }

    /// Semijoin-reduces this extension by `other`: keeps only the tuples that
    /// agree with some tuple of `other` on the shared variables.  Returns
    /// `true` iff any tuple was removed.  If the extensions share no
    /// variables, tuples are kept iff `other` is non-empty.
    pub fn semijoin(&mut self, other: &Extension) -> bool {
        let shared = self.shared_vars(other);
        if shared.is_empty() {
            if other.is_empty() && self.rows != 0 {
                self.data.clear();
                self.rows = 0;
                return true;
            }
            return false;
        }
        let other_positions: Vec<usize> = shared
            .iter()
            .map(|v| other.position_of(*v).expect("shared variable"))
            .collect();
        let my_positions: Vec<usize> = shared
            .iter()
            .map(|v| self.position_of(*v).expect("shared variable"))
            .collect();
        let keys: FxHashSet<Tuple> = other
            .rows()
            .map(|t| other_positions.iter().map(|&p| t[p]).collect())
            .collect();
        // In-place compaction of the flat storage: surviving rows are copied
        // down over the dropped ones (`Value` is `Copy`), no reallocation.
        let w = self.vars.len();
        let before = self.rows;
        let mut probe: Tuple = Vec::with_capacity(my_positions.len());
        let mut kept = 0usize;
        for i in 0..self.rows {
            probe.clear();
            probe.extend(my_positions.iter().map(|&p| self.data[i * w + p]));
            if keys.contains(&probe) {
                if kept != i {
                    self.data.copy_within(i * w..(i + 1) * w, kept * w);
                }
                kept += 1;
            }
        }
        self.data.truncate(kept * w);
        self.rows = kept;
        self.rows != before
    }

    /// Builds an index from the projection onto `key_vars` to the indices of
    /// the matching tuples.
    pub fn index_on(&self, key_vars: &[VarId]) -> FxHashMap<Tuple, Vec<usize>> {
        let positions: Vec<usize> = key_vars
            .iter()
            .map(|v| self.position_of(*v).expect("key variable present"))
            .collect();
        let mut index: FxHashMap<Tuple, Vec<usize>> = FxHashMap::default();
        for (i, t) in self.rows().enumerate() {
            let key: Tuple = positions.iter().map(|&p| t[p]).collect();
            index.entry(key).or_default().push(i);
        }
        index
    }

    /// A hash set of the tuples (for membership tests).
    pub fn tuple_set(&self) -> FxHashSet<Tuple> {
        self.rows().map(<[Value]>::to_vec).collect()
    }

    /// Looks up the value of `v` in tuple `idx`.
    pub fn value_at(&self, idx: usize, v: VarId) -> Option<Value> {
        self.position_of(v).map(|p| self.value(idx, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_cq::ConjunctiveQuery;
    use omq_data::Schema;

    fn db() -> Database {
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        s.add_relation("S", 2).unwrap();
        Database::builder(s)
            .fact("R", ["a", "b"])
            .fact("R", ["a", "c"])
            .fact("R", ["d", "d"])
            .fact("S", ["b", "e"])
            .build()
            .unwrap()
    }

    fn atom_of(query: &str, idx: usize) -> (ConjunctiveQuery, Atom) {
        let q = ConjunctiveQuery::parse(query).unwrap();
        let atom = q.atoms()[idx].clone();
        (q, atom)
    }

    #[test]
    fn extension_of_plain_atom() {
        let database = db();
        let (_, atom) = atom_of("q(x, y) :- R(x, y)", 0);
        let ext = Extension::of_atom(&atom, &database, &FxHashSet::default());
        assert_eq!(ext.vars.len(), 2);
        assert_eq!(ext.len(), 3);
    }

    #[test]
    fn repeated_variable_enforces_equality() {
        let database = db();
        let (_, atom) = atom_of("q(x) :- R(x, x)", 0);
        let ext = Extension::of_atom(&atom, &database, &FxHashSet::default());
        assert_eq!(ext.len(), 1);
        assert_eq!(ext.vars.len(), 1);
    }

    #[test]
    fn constants_filter_facts() {
        let database = db();
        let (_, atom) = atom_of("q(y) :- R('a', y)", 0);
        let ext = Extension::of_atom(&atom, &database, &FxHashSet::default());
        assert_eq!(ext.len(), 2);
        let (_, missing) = atom_of("q(y) :- R('zzz', y)", 0);
        assert!(Extension::of_atom(&missing, &database, &FxHashSet::default()).is_empty());

        // 40 rows `T(h|s_i, v_i, w_{i mod 2})`: `h` heads 32 of them.
        let mut s = Schema::new();
        s.add_relation("T", 3).unwrap();
        let mut builder = Database::builder(s);
        for i in 0..40 {
            let head = if i < 32 {
                "h".to_string()
            } else {
                format!("s{i}")
            };
            builder = builder.fact("T", [head, format!("v{i}"), format!("w{}", i % 2)]);
        }
        let database = builder.build().unwrap();
        // Dense constant (32 of 40 rows): the column-scan path.
        assert_matches_facts(&database, "q(y, z) :- T('h', y, z)", 32);
        // Sparse constant (1 of 40 rows): the CSR-remap path.
        assert_matches_facts(&database, "q(y, z) :- T('s33', y, z)", 1);
        // Two constants, narrowed through `w0` (20 rows, dense) and refined
        // by `h`; then through `v7` (sparse) and refined by `h`.
        assert_matches_facts(&database, "q(y) :- T('h', y, 'w0')", 16);
        assert_matches_facts(&database, "q(z) :- T('h', 'v7', z)", 1);
        assert_matches_facts(&database, "q(z) :- T('h', 'v35', z)", 0);
    }

    /// The extension of the single atom of `query` (distinct variables, every
    /// constant in the database) equals `Database::facts_matching` projected
    /// onto the variable positions, and has `len` rows.
    fn assert_matches_facts(database: &Database, query: &str, len: usize) {
        let (_, atom) = atom_of(query, 0);
        let rel = database.schema().relation_id(&atom.relation).unwrap();
        let binding: Vec<Option<Value>> = atom
            .terms
            .iter()
            .map(|term| match term {
                Term::Const(name) => Some(Value::Const(database.const_id(name).unwrap())),
                Term::Var(_) => None,
            })
            .collect();
        let expected: FxHashSet<Tuple> = database
            .facts_matching(rel, &binding)
            .into_iter()
            .map(|idx| {
                let args = &database.fact(idx).args;
                (0..args.len())
                    .filter(|&p| binding[p].is_none())
                    .map(|p| args[p])
                    .collect()
            })
            .collect();
        let ext = Extension::of_atom(&atom, database, &FxHashSet::default());
        assert_eq!(ext.len(), len, "{query}");
        assert_eq!(ext.tuple_set(), expected, "{query}");
    }

    #[test]
    fn unknown_relation_is_empty() {
        let database = db();
        let (_, atom) = atom_of("q(x) :- T(x)", 0);
        assert!(Extension::of_atom(&atom, &database, &FxHashSet::default()).is_empty());
    }

    #[test]
    fn drop_null_filter() {
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        let mut database = Database::new(s);
        database.add_named_fact("R", &["a", "b"]).unwrap();
        let null = database.fresh_null();
        let rel = database.schema().relation_id("R").unwrap();
        let a = Value::Const(database.const_id("a").unwrap());
        database
            .add_fact(omq_data::Fact::new(rel, vec![a, Value::Null(null)]))
            .unwrap();
        let (q, atom) = atom_of("q(x, y) :- R(x, y)", 0);
        let all = Extension::of_atom(&atom, &database, &FxHashSet::default());
        assert_eq!(all.len(), 2);
        let y = q.var_id("y").unwrap();
        let filtered = Extension::of_atom(&atom, &database, &[y].into_iter().collect());
        assert_eq!(filtered.len(), 1);
    }

    #[test]
    fn projection_dedups() {
        let database = db();
        let (q, atom) = atom_of("q(x, y) :- R(x, y)", 0);
        let ext = Extension::of_atom(&atom, &database, &FxHashSet::default());
        let x = q.var_id("x").unwrap();
        let projected = ext.project(&[x]);
        assert_eq!(projected.len(), 2); // a, d
    }

    #[test]
    fn semijoin_reduces() {
        let database = db();
        let (q, r_atom) = atom_of("q(x, y, z) :- R(x, y), S(y, z)", 0);
        let s_atom = q.atoms()[1].clone();
        let mut r_ext = Extension::of_atom(&r_atom, &database, &FxHashSet::default());
        let s_ext = Extension::of_atom(&s_atom, &database, &FxHashSet::default());
        let changed = r_ext.semijoin(&s_ext);
        assert!(changed);
        assert_eq!(r_ext.len(), 1); // only R(a,b) joins with S(b,e)
                                    // Semijoin is idempotent.
        assert!(!r_ext.semijoin(&s_ext));
    }

    #[test]
    fn semijoin_without_shared_vars_checks_emptiness() {
        let database = db();
        let (_, r_atom) = atom_of("q(x, y) :- R(x, y)", 0);
        let mut r_ext = Extension::of_atom(&r_atom, &database, &FxHashSet::default());
        let empty = Extension::empty(vec![VarId(99)]);
        assert!(r_ext.semijoin(&empty));
        assert!(r_ext.is_empty());
    }

    #[test]
    fn index_on_key() {
        let database = db();
        let (q, atom) = atom_of("q(x, y) :- R(x, y)", 0);
        let ext = Extension::of_atom(&atom, &database, &FxHashSet::default());
        let x = q.var_id("x").unwrap();
        let index = ext.index_on(&[x]);
        let a = Value::Const(database.const_id("a").unwrap());
        assert_eq!(index[&vec![a]].len(), 2);
        // Index on the empty key groups everything.
        let all = ext.index_on(&[]);
        assert_eq!(all[&Vec::new()].len(), 3);
    }

    #[test]
    fn tuple_set_and_value_at() {
        let database = db();
        let (q, atom) = atom_of("q(x, y) :- R(x, y)", 0);
        let ext = Extension::of_atom(&atom, &database, &FxHashSet::default());
        assert_eq!(ext.tuple_set().len(), 3);
        let x = q.var_id("x").unwrap();
        assert!(ext.value_at(0, x).is_some());
        assert_eq!(ext.value_at(0, VarId(42)), None);
    }
}

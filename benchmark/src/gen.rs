//! The benchmark's own input generator.
//!
//! Deliberately independent of `omq-bench::generators`: a later edit there
//! must not be able to move a workload.  Everything is a pure function of
//! the seed (a SplitMix64 stream), and the *shape* of a dataset — fact
//! counts, answer counts, component structure — is fixed by its config, so
//! runs with different seeds do the same amount of work on different data.

use omq_data::Schema;

/// One named fact: relation name plus constant names.
pub type Row = (String, Vec<String>);

/// SplitMix64: tiny, seedable, and good enough to shuffle with.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A generated dataset: the OMQ as text, the facts, and the closed-form
/// answer counts the correctness gate holds every path to.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: &'static str,
    pub seed: u64,
    shape: Shape,
    pub ontology: &'static str,
    pub query: &'static str,
    /// The data schema, in the order the relations are declared.
    pub relations: &'static [(&'static str, usize)],
    pub rows: Vec<Row>,
    /// Closed-form answer counts: complete, minimal partial, multi-wildcard
    /// (the [`crate::workload::SEMANTICS`] order).  The last two coincide
    /// on both datasets: no answer has two wildcards that must be equal.
    pub expected: [u64; 3],
    /// How many answers of each kind one [`Dataset::delta`] adds.
    pub delta_adds: [u64; 3],
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Uni(UniConfig),
    Hub(HubConfig),
}

impl Dataset {
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        for (name, arity) in self.relations {
            schema
                .add_relation(name, *arity)
                .expect("generator relations are distinct");
        }
        schema
    }

    /// The `k`-th three-fact delta: new constants attached to an *existing*
    /// Gaifman component, so a commit of it dirties one component and adds
    /// exactly [`Dataset::delta_adds`] answers.
    pub fn delta(&self, k: usize) -> [Row; 3] {
        let mut rng = Rng::new(self.seed ^ 0x6465_6c74 ^ ((k as u64) << 20));
        match self.shape {
            // One new researcher with a new office in an existing building.
            Shape::Uni(config) => {
                let cluster = rng.below(config.clusters);
                let building = rng.below(config.buildings_per_cluster);
                let (researcher, office) = (format!("d{k}r"), format!("d{k}o"));
                [
                    ("Researcher".into(), vec![researcher.clone()]),
                    ("HasOffice".into(), vec![researcher, office.clone()]),
                    (
                        "InBuilding".into(),
                        vec![office, format!("c{cluster}b{building}")],
                    ),
                ]
            }
            // Three new R-facts into an existing odd (S-less) hub.
            Shape::Hub(config) => {
                let h = 2 * rng.below(config.hubs / 2) + 1;
                [0, 1, 2].map(|i| ("R".into(), vec![format!("d{k}x{i}"), format!("h{h}y")]))
            }
        }
    }

    /// Order-sensitive digest of the fact list (generator determinism).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (rel, args) in &self.rows {
            h.write(rel.as_bytes());
            for a in args {
                h.write(&[0x1f]);
                h.write(a.as_bytes());
            }
            h.write(&[0x1e]);
        }
        h.finish()
    }
}

/// FNV-1a, 64 bit: the digest behind every equality check of the gate.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Order-independent digest of a set of rendered answers, folded one
/// answer at a time: two paths that enumerate in different orders agree iff
/// (up to hash collisions) their answer sets agree, and no path has to keep
/// its answers in memory to be compared — the gate must not be what sets
/// the run's peak memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetDigest {
    count: u64,
    sum: u64,
}

impl SetDigest {
    pub fn add(&mut self, answer: &[String]) {
        let mut h = Fnv::new();
        for value in answer {
            h.write(value.as_bytes());
            h.write(&[0x1f]);
        }
        // Scramble before summing so that related answers do not cancel.
        let mut rng = Rng::new(h.finish());
        self.sum = self.sum.wrapping_add(rng.next_u64());
        self.count += 1;
    }
}

impl std::fmt::Display for SetDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{:016x}", self.count, self.sum)
    }
}

// ---------------------------------------------------------------------------
// `uni`: the paper's running example, clustered.
// ---------------------------------------------------------------------------

pub const UNI_ONTOLOGY: &str = "Researcher(x) -> exists y. HasOffice(x, y)\n\
                                HasOffice(x, y) -> Office(y)\n\
                                Office(x) -> exists y. InBuilding(x, y)";
pub const UNI_QUERY: &str = "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";
const UNI_RELATIONS: &[(&str, usize)] = &[("Researcher", 1), ("HasOffice", 2), ("InBuilding", 2)];

/// Shape of a `uni` dataset.  Per cluster, exactly `with_office` of the
/// researchers have a known office and exactly `with_building` of those
/// offices a known building, so every researcher contributes exactly one
/// minimal partial answer and the counts are the same whatever the seed.
///
/// The shares are 52 % and 26 %, not a half and a quarter, on purpose: the
/// partial enumeration emits the three kinds of answer one kind after the
/// other, a page of each kind has its own cost (about 95, 57 and 15 µs),
/// and with exact halves the median page pull sits on the cliff between
/// two kinds — `op_p50_ms` then flips between 0.03 and 0.05 from round to
/// round.  At 52/26 the median page is safely inside the middle kind.
#[derive(Debug, Clone, Copy)]
pub struct UniConfig {
    pub clusters: usize,
    pub researchers_per_cluster: usize,
    pub with_office: usize,
    pub with_building: usize,
    pub buildings_per_cluster: usize,
}

impl UniConfig {
    /// 8 × 400 researchers: 5 696 facts, 3 200 partial answers (25 pages of
    /// 128), 832 of them complete, 2 400 Gaifman components.  A quarter of
    /// the size the benchmark started with: at 32 clusters one evaluation
    /// from scratch took 170 ms and one `count` over the live store 1.2 s,
    /// and on this host a timing that long never falls wholly inside a calm
    /// spell (see the README's noise rules).
    pub const FULL: UniConfig = UniConfig {
        clusters: 8,
        researchers_per_cluster: 400,
        with_office: 208,
        with_building: 104,
        buildings_per_cluster: 4,
    };
    /// The 1/16-scale copy the brute-force oracle can afford.
    pub const SMALL: UniConfig = UniConfig {
        clusters: 2,
        researchers_per_cluster: 100,
        with_office: 52,
        with_building: 26,
        buildings_per_cluster: 2,
    };

    pub fn researchers(&self) -> usize {
        self.clusters * self.researchers_per_cluster
    }
}

pub fn uni(seed: u64, config: UniConfig) -> Dataset {
    assert!(config.with_building <= config.with_office);
    assert!(config.with_office <= config.researchers_per_cluster);
    let mut rng = Rng::new(seed ^ 0x756e_6900);
    let mut rows: Vec<Row> = Vec::new();
    let per = config.researchers_per_cluster;
    for cluster in 0..config.clusters {
        // The seed decides *which* researchers have an office and which
        // offices a building; how many is fixed.
        let mut order: Vec<usize> = (0..per).collect();
        rng.shuffle(&mut order);
        for (rank, &idx) in order.iter().enumerate() {
            let researcher = format!("c{cluster}r{idx}");
            rows.push(("Researcher".into(), vec![researcher.clone()]));
            if rank < config.with_office {
                let office = format!("c{cluster}o{idx}");
                rows.push(("HasOffice".into(), vec![researcher, office.clone()]));
                if rank < config.with_building {
                    let building =
                        format!("c{cluster}b{}", rng.below(config.buildings_per_cluster));
                    rows.push(("InBuilding".into(), vec![office, building]));
                }
            }
        }
    }
    rng.shuffle(&mut rows);
    let researchers = config.researchers() as u64;
    Dataset {
        name: "uni",
        seed,
        shape: Shape::Uni(config),
        delta_adds: [1, 1, 1],
        ontology: UNI_ONTOLOGY,
        query: UNI_QUERY,
        relations: UNI_RELATIONS,
        rows,
        expected: [
            (config.clusters * config.with_building) as u64,
            researchers,
            researchers,
        ],
    }
}

// ---------------------------------------------------------------------------
// `hub`: answers outnumber facts 11:1.
// ---------------------------------------------------------------------------

pub const HUB_ONTOLOGY: &str = "R(x, y) -> exists z. S(y, z)";
pub const HUB_QUERY: &str = "q(x, y, z) :- R(x, y), S(y, z)";
const HUB_RELATIONS: &[(&str, usize)] = &[("R", 2), ("S", 2)];

/// Shape of a `hub` dataset: `hubs` join values, each with `fan` R-facts
/// into it; even hubs also have `fan` S-facts out of it (`fan²` complete
/// answers each), odd hubs none (`fan` wildcard answers each).
#[derive(Debug, Clone, Copy)]
pub struct HubConfig {
    /// Must be even.
    pub hubs: usize,
    pub fan: usize,
}

impl HubConfig {
    /// 40 × 32: 1 920 facts, 20 480 complete and 21 120 minimal partial
    /// answers (165 pages of 128).
    pub const FULL: HubConfig = HubConfig { hubs: 40, fan: 32 };
    /// The 1/64-scale copy for the brute-force oracle.
    pub const SMALL: HubConfig = HubConfig { hubs: 4, fan: 5 };
}

pub fn hub(seed: u64, config: HubConfig) -> Dataset {
    assert!(config.hubs.is_multiple_of(2));
    let mut rng = Rng::new(seed ^ 0x6875_6200);
    let mut rows: Vec<Row> = Vec::new();
    for h in 0..config.hubs {
        for i in 0..config.fan {
            rows.push(("R".into(), vec![format!("h{h}x{i}"), format!("h{h}y")]));
            if h % 2 == 0 {
                rows.push(("S".into(), vec![format!("h{h}y"), format!("h{h}z{i}")]));
            }
        }
    }
    // The shape leaves the seed nothing to choose but the order facts
    // arrive in (which fixes interner ids and index layout downstream).
    rng.shuffle(&mut rows);
    let even = (config.hubs / 2) as u64;
    let fan = config.fan as u64;
    Dataset {
        name: "hub",
        seed,
        shape: Shape::Hub(config),
        delta_adds: [0, 3, 3],
        ontology: HUB_ONTOLOGY,
        query: HUB_QUERY,
        relations: HUB_RELATIONS,
        rows,
        expected: [
            even * fan * fan,
            even * fan * fan + even * fan,
            even * fan * fan + even * fan,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_facts_different_seed_different_facts() {
        let a = uni(7, UniConfig::SMALL);
        let b = uni(7, UniConfig::SMALL);
        let c = uni(8, UniConfig::SMALL);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.rows, c.rows);
        assert_ne!(a.digest(), c.digest());

        let a = hub(7, HubConfig::FULL);
        let b = hub(7, HubConfig::FULL);
        let c = hub(8, HubConfig::FULL);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn shapes_do_not_depend_on_the_seed() {
        for seed in [1, 7, 99] {
            let u = uni(seed, UniConfig::FULL);
            assert_eq!(u.rows.len(), 5_696);
            assert_eq!(u.expected, [832, 3_200, 3_200]);
            let count = |rel: &str| u.rows.iter().filter(|(r, _)| r == rel).count();
            assert_eq!(count("Researcher"), 3_200);
            assert_eq!(count("HasOffice"), 1_664);
            assert_eq!(count("InBuilding"), 832);

            let h = hub(seed, HubConfig::FULL);
            assert_eq!(h.rows.len(), 1_920);
            assert_eq!(h.expected, [20_480, 21_120, 21_120]);
        }
    }

    #[test]
    fn deltas_are_deterministic_and_land_in_existing_components() {
        let u = uni(7, UniConfig::FULL);
        assert_eq!(u.delta(3), u.delta(3));
        assert_ne!(u.delta(3), u.delta(4));
        let [_, _, (rel, args)] = u.delta(3);
        assert_eq!(rel, "InBuilding");
        assert!(args[1].starts_with('c') && args[1].contains('b'));
        let h = hub(7, HubConfig::FULL);
        assert_eq!(h.delta(0), h.delta(0));
        assert!(h
            .delta(0)
            .iter()
            .all(|(rel, args)| rel == "R" && args[1].ends_with('y')));
    }

    #[test]
    fn set_digest_ignores_order_only() {
        let answers = [
            vec!["x".to_owned(), "*".to_owned()],
            vec!["y".to_owned(), "z".to_owned()],
            vec!["y".to_owned(), "*".to_owned()],
        ];
        let digest = |order: &[usize]| {
            let mut d = SetDigest::default();
            order.iter().for_each(|&i| d.add(&answers[i]));
            d
        };
        assert_eq!(digest(&[0, 1, 2]), digest(&[2, 0, 1]));
        assert_ne!(digest(&[0, 1, 2]), digest(&[0, 1]));
        assert_ne!(digest(&[0, 1]), digest(&[0, 2]));
        // Where a value sits in the tuple matters.
        let mut swapped = SetDigest::default();
        swapped.add(&["*".to_owned(), "x".to_owned()]);
        assert_ne!(digest(&[0]), swapped);
    }
}

//! The seeded workload generator.
//!
//! Every request the benchmark sends is made here from `--seed`; the
//! program under test only ever sees the generated protocol lines. Each
//! world has its own generator state and its own random stream (derived
//! from the seed and the world index), so the k-th request of a world
//! is the same whatever order the load generator visits worlds in.
//! Every generated line is valid for the world it targets: the workloads
//! are built so that no request is refused.

use troll::serve::Request;

/// Which of the two traffic mixes to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// DEPT worlds that hire and fire distinct persons until each
    /// department's history is thousands of steps long, then close it.
    Churn,
    /// Views-spec worlds with 32 persons each; 80 % reads.
    Views,
}

/// A workload: its traffic mix and the constants fixed for it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Traffic mix.
    pub mix: Mix,
    /// Number of worlds.
    pub worlds: usize,
    /// Open-loop arrival rate, requests per second (fixed once).
    pub rate_rps: f64,
    /// Latency limit of the open-loop SLO, milliseconds (fixed once).
    pub limit_ms: f64,
    /// Requests in flight per connection in the closed loop.
    pub window: usize,
}

impl Workload {
    /// The TROLL specification the workload's worlds run.
    pub fn spec(&self) -> &'static str {
        match self.mix {
            Mix::Churn => troll::specs::DEPT,
            Mix::Views => troll::specs::VIEWS,
        }
    }
}

/// The workloads. The open-loop rate and latency limit of each
/// are part of the benchmark's definition: changing either makes
/// results incomparable with earlier runs.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dept-churn-long",
        mix: Mix::Churn,
        worlds: 8,
        rate_rps: 2000.0,
        limit_ms: 50.0,
        window: 16,
    },
    Workload {
        name: "views-mixed-read",
        mix: Mix::Views,
        worlds: 256,
        rate_rps: 4000.0,
        limit_ms: 20.0,
        window: 32,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Hire/fire pairs in one `dept-churn-long` department's life before
/// `closure`: far past the runtime's 128-binding monitor cache. World i
/// of n cuts its first department short, at (i + 1)/n of this, so the
/// worlds' `closure` steps (each a long quantified scan) fall at
/// different times instead of stalling every worker at once.
pub const CHURN_PAIRS: u32 = 1000;
/// Writes per world after the preload in the durable prefix of
/// `dept-churn-long` (the workload's durability rows): more than the
/// snapshot cadence, so every world's store writes a snapshot.
pub const CHURN_DURABLE_WRITES: usize = 1100;
/// Persons per `views-mixed-read` world.
pub const VIEW_PERSONS: u32 = 32;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Whether a request changes its world (a step) or only reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `submit-event`: one committed step when answered `ok`.
    Write,
    /// `query-attr` / `query-view`.
    Read,
}

/// One generated request: its world, kind and protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Index of the target world.
    pub world: usize,
    /// Write or read.
    pub kind: Kind,
    /// The JSON request line (no newline).
    pub line: String,
}

/// The id of world `index` of a workload.
pub fn world_name(w: &Workload, index: usize) -> String {
    let prefix = match w.mix {
        Mix::Churn => "churn",
        Mix::Views => "views",
    };
    format!("{prefix}-{index:03}")
}

fn date(rng: &mut Rng) -> String {
    format!(
        "date({},{},{})",
        1980 + rng.below(40),
        1 + rng.below(12),
        1 + rng.below(28)
    )
}

fn money(rng: &mut Rng) -> String {
    format!("{}.{:02}", 1000 + rng.below(9000), rng.below(100))
}

/// Per-world generator state.
#[derive(Debug, Clone)]
pub struct WorldGen {
    mix: Mix,
    name: String,
    index: usize,
    rng: Rng,
    /// Random tag making this seed's person names its own.
    tag: u64,
    /// Churn: current department number; a department is alive between
    /// its birth and its `closure`.
    cycle: u32,
    born: bool,
    pair: u32,
    /// Churn: pairs in the first department's life.
    first_pairs: u32,
    hired: bool,
    /// Views: who is employed right now.
    employed: Vec<bool>,
    /// Whether [`WorldGen::preload`] ran (it must run first, once).
    preloaded: bool,
}

impl WorldGen {
    /// Generator for world `index` of workload `w` under `seed`.
    pub fn new(w: &Workload, seed: u64, index: usize) -> WorldGen {
        let mut rng = Rng::new(seed, 1 + index as u64);
        let tag = rng.below(1 << 20);
        let persons = match w.mix {
            Mix::Churn => 0,
            Mix::Views => VIEW_PERSONS as usize,
        };
        WorldGen {
            mix: w.mix,
            name: world_name(w, index),
            index,
            rng,
            tag,
            cycle: 0,
            born: false,
            pair: 0,
            first_pairs: CHURN_PAIRS * (index as u32 + 1) / w.worlds as u32,
            hired: false,
            employed: vec![false; persons],
            preloaded: false,
        }
    }

    fn submit(&self, line: String) -> Req {
        Req {
            world: self.index,
            kind: Kind::Write,
            line: Request::SubmitEvent {
                world: self.name.clone(),
                line,
            }
            .to_json(),
        }
    }

    fn query_attr(&self, id: String, attr: &str) -> Req {
        Req {
            world: self.index,
            kind: Kind::Read,
            line: Request::QueryAttr {
                world: self.name.clone(),
                id,
                attr: attr.to_string(),
            }
            .to_json(),
        }
    }

    fn query_view(&self, interface: &str) -> Req {
        Req {
            world: self.index,
            kind: Kind::Read,
            line: Request::QueryView {
                world: self.name.clone(),
                interface: interface.to_string(),
            }
            .to_json(),
        }
    }

    fn churn_dept(&self) -> String {
        format!("|DEPT|(\"d{}\")", self.cycle)
    }

    /// The lines that bring a fresh world to the state the measured
    /// phases start from.
    pub fn preload(&mut self) -> Vec<Req> {
        assert!(!self.preloaded, "preload is generated once");
        self.preloaded = true;
        let mut out = Vec::new();
        match self.mix {
            Mix::Churn => out.push(self.next_write()),
            Mix::Views => {
                out.push(self.submit("birth DEPT (\"Research\") establishment ()".to_string()));
                for i in 0..VIEW_PERSONS {
                    let dept = if self.rng.below(2) == 0 {
                        "Research"
                    } else {
                        "Sales"
                    };
                    let m = money(&mut self.rng);
                    out.push(
                        self.submit(format!("birth PERSON (\"n{i}\") create ({m}, \"{dept}\")")),
                    );
                }
                for i in 0..VIEW_PERSONS as usize {
                    if self.rng.below(2) == 0 {
                        self.employed[i] = true;
                        out.push(self.submit(format!(
                            "exec |DEPT|(\"Research\") hire (|PERSON|(\"n{i}\"))"
                        )));
                    }
                }
            }
        }
        out
    }

    /// The next request of the world's stream (after [`preload`]).
    ///
    /// [`preload`]: WorldGen::preload
    pub fn next_request(&mut self) -> Req {
        assert!(self.preloaded, "preload comes first");
        match self.mix {
            Mix::Churn => {
                if self.born && self.rng.below(10) == 0 {
                    return self.query_attr(self.churn_dept(), "employees");
                }
                self.next_write()
            }
            Mix::Views => {
                let person = self.rng.below(u64::from(VIEW_PERSONS)) as usize;
                let id = format!("|PERSON|(\"n{person}\")");
                match self.rng.below(100) {
                    0..=39 => self.query_attr(id, "Salary"),
                    40..=59 => self.query_view("SAL_EMPLOYEE"),
                    60..=79 => self.query_view("WORKS_FOR"),
                    80..=93 => {
                        let m = money(&mut self.rng);
                        self.submit(format!("exec {id} ChangeSalary ({m})"))
                    }
                    _ => {
                        let event = self.toggle(person);
                        self.submit(format!("exec |DEPT|(\"Research\") {event} ({id})"))
                    }
                }
            }
        }
    }

    /// Hires `person` if unemployed, else fires them; returns the event
    /// name. Only a hired person is ever fired, so `fire`'s permission
    /// holds.
    fn toggle(&mut self, person: usize) -> &'static str {
        self.employed[person] = !self.employed[person];
        if self.employed[person] {
            "hire"
        } else {
            "fire"
        }
    }

    fn next_write(&mut self) -> Req {
        match self.mix {
            Mix::Churn => {
                if !self.born {
                    self.born = true;
                    self.pair = 0;
                    self.hired = false;
                    let d = date(&mut self.rng);
                    return self.submit(format!(
                        "birth DEPT (\"d{}\") establishment ({d})",
                        self.cycle
                    ));
                }
                let dept = self.churn_dept();
                let life = if self.cycle == 0 {
                    self.first_pairs
                } else {
                    CHURN_PAIRS
                };
                if self.pair == life {
                    // every person ever hired has been fired, so the
                    // quantified closure permission holds
                    self.born = false;
                    self.cycle += 1;
                    return self.submit(format!("exec {dept} closure ()"));
                }
                let person = format!(
                    "|PERSON|(\"p{:05x}-{}-{}\")",
                    self.tag, self.cycle, self.pair
                );
                if self.hired {
                    self.hired = false;
                    self.pair += 1;
                    self.submit(format!("exec {dept} fire ({person})"))
                } else {
                    self.hired = true;
                    self.submit(format!("exec {dept} hire ({person})"))
                }
            }
            Mix::Views => unreachable!("views writes come from next_request()"),
        }
    }

    /// The fixed prefix the durable primary of the durability rows is
    /// loaded with: the preload, then (churn) the world's first
    /// [`CHURN_DURABLE_WRITES`] generated writes.
    pub fn durable_prefix(&mut self) -> Vec<Req> {
        let mut out = self.preload();
        if self.mix == Mix::Churn {
            while out.len() < 1 + CHURN_DURABLE_WRITES {
                let req = self.next_request();
                if req.kind == Kind::Write {
                    out.push(req);
                }
            }
        }
        out
    }

    /// Read-only queries whose answers pin down the world's final state.
    pub fn final_queries(&self) -> Vec<Req> {
        match self.mix {
            Mix::Churn => {
                // the newest department, alive or just closed
                let dept = if self.born || self.cycle == 0 {
                    self.churn_dept()
                } else {
                    format!("|DEPT|(\"d{}\")", self.cycle - 1)
                };
                vec![
                    self.query_attr(dept.clone(), "employees"),
                    self.query_attr(dept, "hired_ever"),
                ]
            }
            Mix::Views => vec![
                self.query_view("SAL_EMPLOYEE"),
                self.query_view("WORKS_FOR"),
                self.query_view("RESEARCH_EMPLOYEE"),
            ],
        }
    }
}

/// The open-loop request sequence: `n` requests, each to a world drawn
/// from the seed, taken in order from that world's stream.
pub fn open_loop_sequence(gens: &mut [WorldGen], seed: u64, n: usize) -> Vec<Req> {
    let mut pick = Rng::new(seed, 0);
    (0..n)
        .map(|_| {
            let w = pick.below(gens.len() as u64) as usize;
            gens[w].next_request()
        })
        .collect()
}

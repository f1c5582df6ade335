//! Seeded traffic for the workloads. Everything a run does — every
//! item, every stream length, every request — is a function of the seed
//! and the run length alone. A different seed changes the items but not
//! the work shape: per-class counts and stream lengths are fixed by the
//! shape, and the seed only fills in values, parameters and order.

use crate::rng::Rng;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How much work one round holds. `FULL` is the benchmark; `SMALL` keeps
/// the same classes at a fraction of the size, for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Narrow-netlist stream lengths: every narrow design gets each
    /// length `narrow_copies` times per round.
    pub narrow_lens: &'static [usize],
    /// Copies of each narrow (design, length) per round.
    pub narrow_copies: usize,
    /// AES-10 scalar stream lengths, `wide_copies` times per round.
    pub aes_lens: &'static [usize],
    /// `Systolic[8,32]` scalar stream lengths, `wide_copies` times per
    /// round.
    pub sys_lens: &'static [usize],
    /// Copies of each wide (design, length) per round.
    pub wide_copies: usize,
    /// `(lanes, stream length)` of an AES-10 batch.
    pub aes_batch: (usize, usize),
    /// `(lanes, stream length)` of a `Systolic[8,32]` batch.
    pub sys_batch: (usize, usize),
    /// Batches of each design per round.
    pub batch_copies: usize,
    /// Copies of each corpus design per compile round.
    pub corpus_copies: usize,
    /// Copies of each parametric-variant slot per compile round.
    pub variant_copies: usize,
    /// Generated programs per compile round.
    pub fuzz_items: usize,
    /// Daemon requests per round.
    pub daemon_requests: usize,
}

impl Shape {
    /// The benchmark's shape: a little under a second of work per round
    /// for each workload on a 2-core x86-64 container.
    pub const FULL: Shape = Shape {
        narrow_lens: &[1024, 2048, 4096],
        narrow_copies: 4,
        aes_lens: &[48, 64, 80, 96, 112, 128],
        sys_lens: &[256, 320, 384, 448],
        wide_copies: 4,
        aes_batch: (64, 24),
        sys_batch: (128, 64),
        batch_copies: 7,
        corpus_copies: 16,
        variant_copies: 8,
        fuzz_items: 160,
        daemon_requests: 1500,
    };

    /// A small shape with the same classes, for tests.
    pub const SMALL: Shape = Shape {
        narrow_lens: &[8, 16],
        narrow_copies: 1,
        aes_lens: &[4, 6],
        sys_lens: &[8, 12],
        wide_copies: 1,
        aes_batch: (4, 4),
        sys_batch: (8, 8),
        batch_copies: 1,
        corpus_copies: 1,
        variant_copies: 1,
        fuzz_items: 4,
        daemon_requests: 40,
    };
}

// ------------------------------------------------------------------ verify

/// A design the `verify_*` workloads drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// The paper's pipelined ALU (32-bit).
    Alu,
    /// The parametric ALU at 16 bits.
    Alu16,
    /// The pipelined restoring divider (Figure 2c).
    DivPipe,
    /// Ten-round AES-128 as Filament source (2 640 cells).
    Aes10,
    /// The 8×8 systolic array, 32-bit lanes.
    Sys8,
}

/// The narrow designs, in shape order.
pub const NARROW: [Design; 3] = [Design::Alu, Design::Alu16, Design::DivPipe];
/// The wide designs, in shape order.
pub const WIDE: [Design; 2] = [Design::Aes10, Design::Sys8];

impl Design {
    /// Filament source.
    pub fn source(self) -> String {
        match self {
            Design::Alu => fil_designs::alu::source(fil_designs::alu::ALU_PIPELINED),
            Design::Alu16 => fil_designs::alu::param_source(16),
            Design::DivPipe => fil_designs::divider::pipelined_source(),
            Design::Aes10 => pipelinec::aes_fil::source(10),
            Design::Sys8 => fil_designs::systolic::source(8, 32),
        }
    }

    /// Top component.
    pub fn top(self) -> String {
        match self {
            Design::Alu => "ALU".into(),
            Design::Alu16 => "Alu16".into(),
            Design::DivPipe => "DivPipe".into(),
            Design::Aes10 => pipelinec::aes_fil::top_name(10),
            Design::Sys8 => fil_designs::systolic::top_name(8),
        }
    }

    /// Data inputs `(name, width)` in interface order.
    pub fn inputs(self) -> Vec<(String, u32)> {
        let named = |n: &str, w| (n.to_owned(), w);
        match self {
            Design::Alu => vec![named("op", 1), named("l", 32), named("r", 32)],
            Design::Alu16 => vec![named("op", 1), named("l", 16), named("r", 16)],
            Design::DivPipe => vec![named("left", 8), named("div", 16)],
            Design::Aes10 => (0..16)
                .map(|b| (format!("st_{b}"), 8))
                .chain((0..160).map(|j| (format!("key_{j}"), 8)))
                .collect(),
            Design::Sys8 => (0..8)
                .map(|i| (format!("left_{i}"), 32))
                .chain((0..8).map(|i| (format!("top_{i}"), 32)))
                .collect(),
        }
    }

    /// One transaction's random inputs; `widths` are the data inputs'
    /// widths.
    fn txn(self, widths: &[u32], rng: &mut Rng) -> Vec<u64> {
        match self {
            // Divisors stay non-zero and below 256 so quotients vary.
            Design::DivPipe => vec![rng.bits(8), 1 + rng.below(255)],
            _ => widths.iter().map(|&w| rng.bits(w)).collect(),
        }
    }
}

/// One seeded transaction stream: `txns[k][i]` is input `i` of
/// transaction `k`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stream {
    /// The design it drives.
    pub design: Design,
    /// Per-transaction inputs.
    pub txns: Vec<Vec<u64>>,
}

/// One lane-batched run: every lane is its own stream of equal length.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Batch {
    /// The design it drives.
    pub design: Design,
    /// One stream per lane.
    pub lanes: Vec<Stream>,
}

/// Which class of `verify` traffic a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyClass {
    /// Long `run_pipelined` streams on the narrow netlists.
    Narrow,
    /// `run_pipelined` streams on the wide netlists.
    Wide,
    /// `BatchSim` runs over the wide netlists.
    Batch,
}

impl VerifyClass {
    /// The designs this class drives.
    pub fn designs(self) -> &'static [Design] {
        match self {
            VerifyClass::Narrow => &NARROW,
            VerifyClass::Wide | VerifyClass::Batch => &WIDE,
        }
    }
}

/// One round of one `verify` class: scalar streams (narrow and wide) or
/// batches, in seeded order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VerifyRound {
    /// Scalar streams.
    pub streams: Vec<Stream>,
    /// Lane-batched runs.
    pub batches: Vec<Batch>,
}

fn stream(design: Design, len: usize, rng: &mut Rng) -> Stream {
    let widths: Vec<u32> = design.inputs().iter().map(|(_, w)| *w).collect();
    Stream {
        design,
        txns: (0..len).map(|_| design.txn(&widths, rng)).collect(),
    }
}

/// Round `round` of the `class` traffic for `seed`.
pub fn verify_round(seed: u64, round: u32, shape: &Shape, class: VerifyClass) -> VerifyRound {
    let salt = match class {
        VerifyClass::Narrow => 0x7e51_0000,
        VerifyClass::Wide => 0x7e52_0000,
        VerifyClass::Batch => 0x7e53_0000,
    };
    let mut rng = Rng::new(seed, salt + u64::from(round));
    let mut out = VerifyRound {
        streams: Vec::new(),
        batches: Vec::new(),
    };
    let scalar: Vec<(Design, &[usize], usize)> = match class {
        VerifyClass::Narrow => NARROW
            .iter()
            .map(|&d| (d, shape.narrow_lens, shape.narrow_copies))
            .collect(),
        VerifyClass::Wide => vec![
            (Design::Aes10, shape.aes_lens, shape.wide_copies),
            (Design::Sys8, shape.sys_lens, shape.wide_copies),
        ],
        VerifyClass::Batch => vec![],
    };
    for (d, lens, copies) in scalar {
        for _ in 0..copies {
            out.streams
                .extend(lens.iter().map(|&len| stream(d, len, &mut rng)));
        }
    }
    if class == VerifyClass::Batch {
        for (d, (lanes, len)) in [
            (Design::Aes10, shape.aes_batch),
            (Design::Sys8, shape.sys_batch),
        ] {
            for _ in 0..shape.batch_copies {
                out.batches.push(Batch {
                    design: d,
                    lanes: (0..lanes).map(|_| stream(d, len, &mut rng)).collect(),
                });
            }
        }
    }
    rng.shuffle(&mut out.streams);
    rng.shuffle(&mut out.batches);
    out
}

// ----------------------------------------------------------------- compile

/// Where a compile item comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A design of `fil_bench::design_corpus`.
    Corpus,
    /// A parametric variant of a generator family.
    Variant,
    /// A program from the differential fuzzer's generator.
    Fuzz,
}

/// One source to build to Verilog.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompileItem {
    /// Source class.
    pub class: Class,
    /// A readable name.
    pub name: String,
    /// Filament source.
    pub source: Arc<str>,
    /// Top component.
    pub top: String,
    /// Optimization level, 0–2.
    pub level: u8,
}

/// The corpus designs the compile workload builds: every corpus entry the
/// standard registry lowers (`conv2d-reticle` needs the Reticle registry).
pub fn corpus() -> Vec<(String, Arc<str>, String)> {
    fil_bench::design_corpus()
        .into_iter()
        .filter(|(name, _, _)| name != "conv2d-reticle")
        .map(|(name, src, top)| (name, Arc::from(src), top.to_owned()))
        .collect()
}

/// A parametric-variant slot: the family is fixed by the shape, the
/// parameters the seed leaves free are drawn.
fn variant(slot: usize, rng: &mut Rng) -> (String, String, String) {
    use fil_designs::{alu, encoder, shift, systolic, wsum};
    let w = rng.pick(&[8u64, 16, 32]);
    match slot {
        0..=2 => {
            let n = 2 + slot as u64;
            (
                format!("systolic-{n}x{w}"),
                systolic::source(n, w),
                systolic::top_name(n),
            )
        }
        3 | 4 => {
            let n = [8u64, 16][slot - 3];
            (
                format!("encoder-{n}"),
                encoder::source(n),
                encoder::top_name(n),
            )
        }
        5..=7 => {
            let r = (slot - 4) as u32;
            (
                format!("aes-fil-{r}"),
                pipelinec::aes_fil::source(r),
                pipelinec::aes_fil::top_name(r),
            )
        }
        8 => (
            format!("wsum-{w}"),
            wsum::naive_source(w as u32),
            "WSum8".into(),
        ),
        9 | 10 => {
            let n = [4usize, 8][slot - 9];
            (
                format!("stencil-{n}x{w}"),
                wsum::stencil_source(n, w as u32),
                format!("Stencil{n}"),
            )
        }
        11 | 12 => {
            let aw = 8 + rng.below(25);
            (
                format!("alu-{aw}"),
                alu::param_source(aw),
                format!("Alu{aw}"),
            )
        }
        13..=15 => {
            let d = [2u64, 4, 8][slot - 13];
            (
                format!("chain-{w}x{d}"),
                shift::source(w, d),
                format!("Chain{w}x{d}"),
            )
        }
        _ => {
            let d = [2u64, 4][slot - 16];
            (
                format!("taps-{w}x{d}"),
                shift::taps_source(w, d),
                format!("Taps{w}x{d}"),
            )
        }
    }
}

/// Parametric-variant slots per copy.
pub const VARIANT_SLOTS: usize = 18;

/// The opt-level mix of compile items and daemon edits, one entry per
/// quarter: half at `-O0`, the default of `filament build` (the
/// source → Verilog path these workloads emulate), a quarter at `-O1`,
/// the default of `filament sim`, and a quarter at `-O2`. The repository
/// records no usage data, so the split is a choice, not a measurement;
/// runs report the shares they produced.
pub const LEVEL_MIX: [u8; 4] = [0, 0, 1, 2];

/// Opt levels for `n` items of one class: [`LEVEL_MIX`] repeated, in
/// seeded order.
fn levels(n: usize, rng: &mut Rng) -> Vec<u8> {
    let mut v: Vec<u8> = (0..n).map(|i| LEVEL_MIX[i % LEVEL_MIX.len()]).collect();
    rng.shuffle(&mut v);
    v
}

/// The `compile_cold` traffic for `seed` over the corpus from [`corpus`]:
/// `rounds` rounds that each build the same seeded items, every round in
/// its own seeded order. Every source recurs once per round, so each
/// build's time can be set against the others of the same source.
pub fn compile_rounds(
    seed: u64,
    rounds: u32,
    shape: &Shape,
    corpus: &[(String, Arc<str>, String)],
) -> Vec<Vec<CompileItem>> {
    let mut rng = Rng::new(seed, 0xc0_0000);
    let mut items = Vec::new();
    let n = corpus.len() * shape.corpus_copies;
    for (i, level) in levels(n, &mut rng).into_iter().enumerate() {
        let (name, src, top) = &corpus[i % corpus.len()];
        items.push(CompileItem {
            class: Class::Corpus,
            name: name.clone(),
            source: src.clone(),
            top: top.clone(),
            level,
        });
    }
    let n = VARIANT_SLOTS * shape.variant_copies;
    for (i, level) in levels(n, &mut rng).into_iter().enumerate() {
        let (name, src, top) = variant(i % VARIANT_SLOTS, &mut rng);
        items.push(CompileItem {
            class: Class::Variant,
            name,
            source: Arc::from(src),
            top,
            level,
        });
    }
    for level in levels(shape.fuzz_items, &mut rng) {
        let case = fil_harness::fuzz::gen::generate(rng.next_u64());
        items.push(CompileItem {
            class: Class::Fuzz,
            name: format!("fuzz-{:016x}", case.seed),
            source: Arc::from(case.source),
            top: fil_harness::fuzz::gen::TOP.into(),
            level,
        });
    }
    (0..rounds)
        .map(|round| {
            let mut order = items.clone();
            Rng::new(seed, 0xc1_0000 + u64::from(round)).shuffle(&mut order);
            order
        })
        .collect()
}

// ------------------------------------------------------------------ daemon

/// A multi-unit design family an edit session works on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Family {
    /// A readable name.
    pub name: String,
    /// The unedited source; its top component is last.
    pub source: String,
    /// Top component.
    pub top: String,
}

/// One distinct request: a family, optionally edited, built to Verilog or
/// to a netlist at an opt level.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ident {
    /// Index into [`DaemonTraffic::families`].
    pub family: usize,
    /// The edit applied to the family's top unit, if any: two literal
    /// operands of a dead adder, unique per edit.
    pub edit: Option<(u32, u64, u64)>,
    /// `.netlist(top)` instead of `.verilog()`.
    pub netlist: bool,
    /// Opt level.
    pub level: u8,
}

/// The `daemon_edit` traffic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DaemonTraffic {
    /// Design families.
    pub families: Vec<Family>,
    /// Every distinct request.
    pub idents: Vec<Ident>,
    /// Requests built during setup to warm the artifact cache.
    pub warm: Vec<u32>,
    /// Per round, the requests in order (indexes into `idents`).
    pub rounds: Vec<Vec<u32>>,
}

/// Distinct requests the session keeps live: about 1.5× the daemon's
/// 64-entry reply memo.
pub const WORKING_SET: usize = 96;
// The three proportions below are choices, not measurements: the
// repository records no edit-session traces. Untraced runs report the
// shares of memo hits, warm builds, edits, netlists and opt levels that
// they actually produced.
/// Percent of requests that are a fresh edit. Fresh edits are the
/// slowest class and memo hits plus warm builds hold the rest, so at 10%
/// the p90 of a run fell on the boundary between warm builds and edits
/// and jumped between the two from run to run (a quarter of its median
/// over ten runs); at 6% it lies inside the warm builds.
pub const EDIT_PERCENT: u64 = 6;
/// Popularity skew: request rank `r` of the working set is drawn with
/// weight `1 / (r + 1)^ZIPF_EXPONENT`.
pub const ZIPF_EXPONENT: f64 = 0.6;
/// Percent of fresh edits requested as a netlist.
pub const NETLIST_PERCENT: u64 = 25;

impl DaemonTraffic {
    /// The Filament source of request `id`.
    pub fn source(&self, id: u32) -> String {
        let ident = &self.idents[id as usize];
        let fam = &self.families[ident.family];
        match ident.edit {
            None => fam.source.clone(),
            Some((n, a, b)) => {
                let close = fam.source.rfind('}').expect("a component body");
                format!(
                    "{}  edit{n} := new Add[16]<G>({a}, {b});\n{}",
                    &fam.source[..close],
                    &fam.source[close..]
                )
            }
        }
    }

    /// The build request for `id`.
    pub fn request(&self, id: u32) -> fil_build::BuildRequest {
        let ident = &self.idents[id as usize];
        let req = fil_build::BuildRequest::new(self.source(id))
            .expanded(false)
            .opt_level(ident.level);
        if ident.netlist {
            req.netlist(self.families[ident.family].top.clone())
        } else {
            req.verilog()
        }
    }
}

/// Zipf-like popularity over recency ranks `0..n` (rank 0 most popular).
fn zipf_rank(rng: &mut Rng, cdf: &[f64]) -> usize {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * cdf[cdf.len() - 1];
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// The `daemon_edit` traffic for `seed` over `rounds` rounds.
///
/// Which requests repeat, which are fresh edits, and which want netlists
/// follow one fixed pattern for every seed, so the mix of memo hits, warm
/// builds and rebuilds is the same. The families are fixed too: with six
/// of them, drawing their parameters from the seed changed a run's work
/// by more than the host's noise. The seed picks each edit's literals.
pub fn daemon_traffic(seed: u64, rounds: u32, shape: &Shape) -> DaemonTraffic {
    use fil_designs::{alu, divider, encoder, shift, systolic};
    let mut content = Rng::new(seed, 0xd0_0000);
    let mut pattern = Rng::new(0x5e55_10e0_da3a_0001, 0);
    let (sys_n, enc_n, alu_w) = (2u64, 16u64, 16u64);
    let (cw, cd, tw, td) = (16u64, 3u64, 16u64, 2u64);
    let fam = |name: String, source: String, top: String| Family { name, source, top };
    let families = vec![
        fam(
            format!("systolic-{sys_n}"),
            systolic::source(sys_n, 32),
            systolic::top_name(sys_n),
        ),
        fam(
            "div-pipe".into(),
            divider::pipelined_source(),
            "DivPipe".into(),
        ),
        fam(
            format!("encoder-{enc_n}"),
            encoder::source(enc_n),
            encoder::top_name(enc_n),
        ),
        fam(
            format!("alu-{alu_w}"),
            alu::param_source(alu_w),
            format!("Alu{alu_w}"),
        ),
        fam(
            format!("chain-{cw}x{cd}"),
            shift::source(cw, cd),
            format!("Chain{cw}x{cd}"),
        ),
        fam(
            format!("taps-{tw}x{td}"),
            shift::taps_source(tw, td),
            format!("Taps{tw}x{td}"),
        ),
    ];
    let mut idents = Vec::new();
    let mut edits = 0u32;
    let mut new_ident = |idents: &mut Vec<Ident>,
                         family: usize,
                         edit: bool,
                         netlist: bool,
                         level: u8,
                         content: &mut Rng| {
        let edit = edit.then(|| {
            edits += 1;
            (edits, content.below(1 << 16), content.below(1 << 16))
        });
        idents.push(Ident {
            family,
            edit,
            netlist,
            level,
        });
        (idents.len() - 1) as u32
    };
    // The live set, newest first: every family at every level both ways,
    // then edited variants up to the working-set size.
    let mut live: Vec<u32> = Vec::new();
    for f in 0..families.len() {
        for level in 0..3u8 {
            for netlist in [false, true] {
                live.push(new_ident(
                    &mut idents,
                    f,
                    false,
                    netlist,
                    level,
                    &mut content,
                ));
            }
        }
    }
    while live.len() < WORKING_SET {
        let f = pattern.below(families.len() as u64) as usize;
        let netlist = pattern.below(100) < NETLIST_PERCENT;
        let level = pattern.pick(&LEVEL_MIX);
        live.push(new_ident(
            &mut idents,
            f,
            true,
            netlist,
            level,
            &mut content,
        ));
    }
    pattern.shuffle(&mut live);
    let warm = live.clone();
    let cdf: Vec<f64> = (0..WORKING_SET)
        .scan(0.0, |acc, r| {
            *acc += (r as f64 + 1.0).powf(-ZIPF_EXPONENT);
            Some(*acc)
        })
        .collect();
    let mut out_rounds = Vec::new();
    for _ in 0..rounds {
        let mut reqs = Vec::with_capacity(shape.daemon_requests);
        for _ in 0..shape.daemon_requests {
            if pattern.below(100) < EDIT_PERCENT {
                let f = pattern.below(families.len() as u64) as usize;
                let netlist = pattern.below(100) < NETLIST_PERCENT;
                let level = pattern.pick(&LEVEL_MIX);
                let id = new_ident(&mut idents, f, true, netlist, level, &mut content);
                live.insert(0, id);
                live.truncate(WORKING_SET);
                reqs.push(id);
            } else {
                reqs.push(live[zipf_rank(&mut pattern, &cdf)]);
            }
        }
        out_rounds.push(reqs);
    }
    DaemonTraffic {
        families,
        idents,
        warm,
        rounds: out_rounds,
    }
}

/// A 64-bit digest of anything hashable (the standard SipHash with fixed
/// keys: equal inputs digest equally in every run of one build).
pub fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

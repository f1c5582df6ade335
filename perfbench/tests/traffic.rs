//! The traffic is a pure function of the seed: the same seed gives
//! byte-identical traffic, a different seed different items with the same
//! work shape.

use perfbench::traffic::{
    compile_rounds, corpus, daemon_traffic, digest, verify_round, Class, DaemonTraffic, Shape,
    VerifyClass, VerifyRound,
};
use std::collections::BTreeMap;

const SHAPE: Shape = Shape::SMALL;
const CLASSES: [VerifyClass; 3] = [VerifyClass::Narrow, VerifyClass::Wide, VerifyClass::Batch];

#[test]
fn same_seed_same_verify_traffic() {
    for class in CLASSES {
        for round in 0..2 {
            let (a, b) = (
                verify_round(7, round, &SHAPE, class),
                verify_round(7, round, &SHAPE, class),
            );
            assert_eq!(a, b);
            assert_eq!(digest(&a), digest(&b));
        }
    }
}

/// Per design: the sorted stream lengths, and each batch's lanes × length.
fn verify_shape(r: &VerifyRound) -> Vec<String> {
    let mut lens: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for s in &r.streams {
        lens.entry(format!("{:?}", s.design))
            .or_default()
            .push(s.txns.len());
    }
    let mut out: Vec<String> = lens
        .into_iter()
        .map(|(d, mut l)| {
            l.sort_unstable();
            format!("{d}: {l:?}")
        })
        .collect();
    let mut batches: Vec<String> = r
        .batches
        .iter()
        .map(|b| {
            let len: Vec<usize> = b.lanes.iter().map(|l| l.txns.len()).collect();
            format!("{:?} batch {len:?}", b.design)
        })
        .collect();
    batches.sort_unstable();
    out.extend(batches);
    out
}

#[test]
fn other_seed_same_verify_shape() {
    for class in CLASSES {
        let (a, b) = (
            verify_round(7, 0, &SHAPE, class),
            verify_round(8, 0, &SHAPE, class),
        );
        assert_ne!(a, b, "{class:?}: a different seed changes the items");
        assert_eq!(verify_shape(&a), verify_shape(&b), "{class:?}");
        let total = |r: &VerifyRound| -> usize {
            let lanes = r.batches.iter().flat_map(|b| &b.lanes);
            r.streams.iter().chain(lanes).map(|s| s.txns.len()).sum()
        };
        assert_eq!(total(&a), total(&b), "{class:?}: stream-length totals");
        assert!(total(&a) > 0, "{class:?} has work");
        // Each class drives only its own designs.
        let designs = a.streams.iter().map(|s| s.design);
        let designs: Vec<_> = designs.chain(a.batches.iter().map(|b| b.design)).collect();
        assert!(designs.iter().all(|d| class.designs().contains(d)));
    }
}

#[test]
fn same_seed_same_compile_traffic() {
    let corpus = corpus();
    let a = compile_rounds(3, 2, &SHAPE, &corpus);
    let b = compile_rounds(3, 2, &SHAPE, &corpus);
    assert_eq!(a, b);
    assert_eq!(digest(&a), digest(&b));
}

#[test]
fn compile_rounds_build_the_same_items_in_their_own_order() {
    let rounds = compile_rounds(3, 3, &SHAPE, &corpus());
    let sorted = |items: &[perfbench::traffic::CompileItem]| {
        let mut v: Vec<_> = items
            .iter()
            .map(|i| (digest(&*i.source), i.level))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(sorted(&rounds[0]), sorted(&rounds[1]));
    assert_eq!(sorted(&rounds[0]), sorted(&rounds[2]));
    assert_ne!(rounds[0], rounds[1], "each round has its own order");
}

#[test]
fn other_seed_same_compile_shape() {
    let corpus = corpus();
    let (a, b) = (
        compile_rounds(3, 1, &SHAPE, &corpus).remove(0),
        compile_rounds(4, 1, &SHAPE, &corpus).remove(0),
    );
    assert_ne!(a, b);
    let counts = |items: &[perfbench::traffic::CompileItem]| {
        let mut m: BTreeMap<(Class, u8), usize> = BTreeMap::new();
        for it in items {
            *m.entry((it.class, it.level)).or_default() += 1;
        }
        m
    };
    assert_eq!(counts(&a), counts(&b), "per-class, per-level counts");
    let corpus_names = |items: &[perfbench::traffic::CompileItem]| {
        let mut v: Vec<&str> = items
            .iter()
            .filter(|i| i.class == Class::Corpus)
            .map(|i| i.name.as_str())
            .collect();
        v.sort_unstable();
        v.into_iter().map(str::to_owned).collect::<Vec<_>>()
    };
    assert_eq!(corpus_names(&a), corpus_names(&b));
    let fuzz = |items: &[perfbench::traffic::CompileItem]| {
        items
            .iter()
            .filter(|i| i.class == Class::Fuzz)
            .map(|i| i.source.clone())
            .collect::<Vec<_>>()
    };
    assert_ne!(fuzz(&a), fuzz(&b), "generated programs follow the seed");
}

fn encoded(t: &DaemonTraffic) -> Vec<Vec<u8>> {
    (0..t.idents.len() as u32)
        .map(|id| {
            let mut bytes = Vec::new();
            fil_build::request::encode_request(&t.request(id), &mut bytes);
            bytes
        })
        .collect()
}

#[test]
fn same_seed_same_daemon_traffic() {
    let (a, b) = (daemon_traffic(5, 2, &SHAPE), daemon_traffic(5, 2, &SHAPE));
    assert_eq!(a, b);
    assert_eq!(encoded(&a), encoded(&b), "byte-identical requests");
}

#[test]
fn other_seed_same_daemon_shape() {
    let (a, b) = (daemon_traffic(5, 2, &SHAPE), daemon_traffic(6, 2, &SHAPE));
    assert_ne!(encoded(&a), encoded(&b));
    // The request pattern — which request repeats which, which are fresh
    // edits, netlists and at which level — is the same for every seed.
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.warm, b.warm);
    assert_eq!(a.families, b.families, "the families are fixed");
    let kinds = |t: &DaemonTraffic| {
        t.idents
            .iter()
            .map(|i| (i.family, i.edit.map(|e| e.0), i.netlist, i.level))
            .collect::<Vec<_>>()
    };
    assert_eq!(kinds(&a), kinds(&b));
}

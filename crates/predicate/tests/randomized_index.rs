//! Property: the predicate index's staged evaluation agrees exactly with
//! direct per-predicate evaluation (the §4.1.1 rules applied naively).
//! Seeded randomized sweep (in-tree PRNG).

use pxf_predicate::{
    eval_direct, CtxMark, MatchContext, PosOp, PredId, Predicate, PredicateIndex, Publication,
};
use pxf_rng::Rng;
use pxf_xml::{Interner, Symbol};

fn arb_pred(rng: &mut Rng, n_tags: u32) -> Predicate {
    let pos_op = |rng: &mut Rng| {
        if rng.gen_bool(0.5) {
            PosOp::Ge
        } else {
            PosOp::Eq
        }
    };
    match rng.gen_range(0..4usize) {
        0 => {
            let op = pos_op(rng);
            Predicate::absolute(Symbol(rng.gen_range(0..n_tags)), op, rng.gen_range(1..8u32))
        }
        1 => {
            let (a, b) = (rng.gen_range(0..n_tags), rng.gen_range(0..n_tags));
            let op = pos_op(rng);
            Predicate::relative(Symbol(a), Symbol(b), op, rng.gen_range(1..6u32))
        }
        2 => Predicate::end_of_path(Symbol(rng.gen_range(0..n_tags)), rng.gen_range(1..6u32)),
        _ => Predicate::length(rng.gen_range(1..8u32)),
    }
}

#[test]
fn index_agrees_with_direct_evaluation() {
    let mut rng = Rng::seed_from_u64(0x1d1d);
    let names = ["a", "b", "c", "d"];
    for _ in 0..2048 {
        let preds: Vec<Predicate> = (0..rng.gen_range(1..12usize))
            .map(|_| arb_pred(&mut rng, 4))
            .collect();
        let path: Vec<usize> = (0..rng.gen_range(1..9usize))
            .map(|_| rng.gen_range(0..4usize))
            .collect();

        let mut interner = Interner::new();
        // Intern the 4 tag names so symbols 0..4 exist.
        for n in names {
            interner.intern(n);
        }
        let tags: Vec<&str> = path.iter().map(|&i| names[i]).collect();
        let publication = Publication::from_tags(&tags, &mut interner);

        let mut index = PredicateIndex::new();
        let pids: Vec<_> = preds.iter().map(|p| index.insert(p.clone())).collect();
        let mut ctx = MatchContext::new();
        index.evaluate(&publication, None::<&pxf_xml::Document>, &mut ctx);

        let mut direct = Vec::new();
        for (pred, &pid) in preds.iter().zip(&pids) {
            eval_direct(pred, &publication, None::<&pxf_xml::Document>, &mut direct);
            // The index may enumerate pairs in a different order.
            let mut via_index: Vec<(u16, u16)> = ctx.get(pid).to_vec();
            via_index.sort_unstable();
            direct.sort_unstable();
            assert_eq!(&via_index, &direct, "pred {pred:?} path {tags:?}");
        }
    }
}

/// Model check of [`MatchContext`]: seeded random sequences of `begin`,
/// `push`, `push_mark` and `pop_to_mark` against a naive model (one pair
/// list per predicate, first-touch order, marks as full state copies).
/// After every step `get`, `is_matched`, `matched()` and `matched_since`
/// of every open mark must agree with the model.
#[test]
fn match_context_agrees_with_naive_model() {
    #[derive(Clone)]
    struct Model {
        lists: Vec<Vec<(u16, u16)>>,
        order: Vec<PredId>,
    }
    let mut rng = Rng::seed_from_u64(0xc7c7);
    for _ in 0..256 {
        let mut ctx = MatchContext::new();
        let mut npreds = rng.gen_range(1..200usize);
        let mut model = Model {
            lists: vec![Vec::new(); npreds],
            order: Vec::new(),
        };
        ctx.begin(npreds);
        // Open marks, innermost last: the context's mark and the model's
        // state when it was taken.
        let mut marks: Vec<(CtxMark, Model)> = Vec::new();
        for _ in 0..rng.gen_range(1..300usize) {
            match rng.gen_range(0..10usize) {
                0 => {
                    // A new publication, sometimes over a larger predicate
                    // space (the context only ever grows).
                    npreds = if rng.gen_bool(0.3) {
                        npreds + rng.gen_range(1..100usize)
                    } else {
                        rng.gen_range(1..npreds + 1)
                    };
                    ctx.begin(npreds);
                    model = Model {
                        lists: vec![Vec::new(); npreds.max(model.lists.len())],
                        order: Vec::new(),
                    };
                    marks.clear();
                }
                1 | 2 => marks.push((ctx.push_mark(), model.clone())),
                3 | 4 if !marks.is_empty() => {
                    let (mark, saved) = marks.pop().unwrap();
                    ctx.pop_to_mark(mark);
                    model = saved;
                }
                _ => {
                    // Bias towards a few hot predicates so lists grow
                    // and roll back through several marks.
                    let pid = if rng.gen_bool(0.5) {
                        rng.gen_range(0..npreds.min(4))
                    } else {
                        rng.gen_range(0..npreds)
                    };
                    let pair = (rng.gen_range(0..20u16), rng.gen_range(0..20u16));
                    ctx.push(PredId(pid as u32), pair);
                    if model.lists[pid].is_empty() {
                        model.order.push(PredId(pid as u32));
                    }
                    model.lists[pid].push(pair);
                }
            }
            for (i, list) in model.lists.iter().enumerate() {
                let pid = PredId(i as u32);
                assert_eq!(ctx.get(pid), list.as_slice(), "get({i})");
                assert_eq!(ctx.is_matched(pid), !list.is_empty(), "is_matched({i})");
            }
            assert_eq!(ctx.matched(), model.order.as_slice());
            for (mark, saved) in &marks {
                assert_eq!(ctx.matched_since(*mark), &model.order[saved.order.len()..]);
            }
        }
    }
}

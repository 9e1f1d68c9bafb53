//! The decoded provenance log, pinned: `Solution::provenance()` and
//! `Solution::explain` on seeded programs, digested and compared with
//! constants recorded at the commit *before* the log's storage became
//! encoded columns (PR 22). How the log is stored is the engine's
//! business; what it decodes to — event for event, premise for premise,
//! at every strategy and thread count, through resumes that share and
//! mask segments — is the contract, and this file is its capture.
//!
//! A digest is FNV-1a over `format!("{:?}", solution.provenance())`
//! followed by the rendered `explain` tree of the first and the last fact
//! of every predicate (a lattice cell both by its key and by key plus
//! value). One thread and four must produce the same digest: the log is
//! part of what parallel evaluation keeps bit-identical.
//!
//! A digest that moves is a finding, as in `work_counters.rs`. To record
//! new constants after a deliberate change of the log's *contents*:
//!
//! ```text
//! cargo test --test provenance_golden -- --ignored --nocapture print_golden
//! ```

mod common;

use common::golden::{
    all_pairs_40, flat_programs, fnv1a, ifds_taint_8x16, pair, sequences, FNV_OFFSET,
};
use common::random_program;
use flix::{Delta, Program, Query, Solution, Solver, Value};
use std::fmt::Write as _;

/// The digest of one solution's log and explanations.
fn digest(program: &Program, solution: &Solution) -> u64 {
    let mut text = format!("{:?}", solution.provenance());
    for (_, decl) in program.predicates() {
        let name = decl.name();
        let facts: Vec<_> = solution.facts(name).expect("declared").collect();
        let ends = [facts.first(), facts.last()];
        for fact in ends.into_iter().flatten() {
            let mut rows = vec![fact.key().to_vec()];
            if let Some(value) = fact.value() {
                let mut full = fact.key().to_vec();
                full.push(value.clone());
                rows.push(full);
            }
            for row in rows {
                match solution.explain(name, &row) {
                    Some(tree) => write!(text, "\n{name}{row:?} =>\n{tree}"),
                    None => write!(text, "\n{name}{row:?} => none"),
                }
                .expect("write to a string");
            }
        }
    }
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, text.as_bytes());
    hash
}

/// `[semi-naïve, naïve]` digests of `run`, provenance recorded.
fn per_strategy(label: &str, run: impl Fn(&Solver) -> u64) -> [u64; 2] {
    common::golden::per_strategy(label, true, run)
}

fn solve_digest(program: &Program, solver: &Solver) -> u64 {
    digest(program, &solver.solve(program).expect("solves"))
}

// ---------------------------------------------------------------------
// Random programs.
// ---------------------------------------------------------------------

/// Seeds 0..100: `[negation off, negation on]` × `[semi-naïve, naïve]`.
fn random_digests(seed: u64) -> [[u64; 2]; 2] {
    [false, true].map(|negation| {
        let program = random_program(seed, negation).program;
        per_strategy(&format!("random/{seed}/negation={negation}"), |solver| {
            solve_digest(&program, solver)
        })
    })
}

// ---------------------------------------------------------------------
// The two `work_counters.rs` programs, and one demand query.
// ---------------------------------------------------------------------

/// `Dist(0, _, _)` on the all-pairs program: the log of a demand solve is
/// recorded over the rewritten program and translated back.
fn demand_digest(solver: &Solver) -> u64 {
    let program = all_pairs_40();
    let query = Query::new("Dist", vec![Some(Value::from(0i64)), None, None]);
    let result = solver.solve_query(&program, &[query]).expect("queries");
    digest(&program, result.solution())
}

// ---------------------------------------------------------------------
// Resume sequences.
// ---------------------------------------------------------------------

/// Runs one sequence, each step resumed from the previous solution, and
/// folds the digest of every step. The solution a step resumed from
/// shares its log's segments with the new one; it must still read its own
/// history as it did before.
fn sequence_digest(program: &Program, steps: &[Delta], solver: &Solver) -> u64 {
    let mut current = solver.solve(program).expect("solves");
    let mut hash = digest(program, &current);
    for delta in steps {
        let before = digest(program, &current);
        let next = solver.resume(program, &current, delta).expect("resumes");
        assert_eq!(
            digest(program, &current),
            before,
            "a resume disturbed the log of the solution it resumed"
        );
        fnv1a(&mut hash, &digest(program, &next).to_le_bytes());
        current = next;
    }
    hash
}

/// Seeds 0..8: `[insert, retract, retract-then-reinsert]` × strategies.
fn resume_digests(seed: u64) -> [[u64; 2]; 3] {
    let random = random_program(seed, false);
    let steps = sequences(&random.program, random.key_width, seed);
    let mut kind = 0;
    steps.map(|steps| {
        kind += 1;
        per_strategy(&format!("resume/{seed}/kind {kind}"), |solver| {
            sequence_digest(&random.program, &steps, solver)
        })
    })
}

/// Per program over flat lattices: `[solve, insert → retract → insert]`
/// × strategies.
fn flat_digests() -> [[[u64; 2]; 2]; 2] {
    flat_programs().map(|(label, program, steps)| {
        let resumed = format!("{label}/resume");
        [
            per_strategy(label, |solver| solve_digest(&program, solver)),
            per_strategy(&resumed, |solver| sequence_digest(&program, &steps, solver)),
        ]
    })
}

// ---------------------------------------------------------------------
// The constants, recorded at the parent of PR 22 — but for `FLAT`,
// recorded at the parent of PR 25.
// ---------------------------------------------------------------------

#[rustfmt::skip]
const RANDOM: [[[u64; 2]; 2]; 100] = [
    [[0xded1098568e4681c, 0xded1098568e4681c], [0x93eba8a1a35c7b47, 0x93eba8a1a35c7b47]],
    [[0xc63a0c8677ebe42b, 0xc63a0c8677ebe42b], [0xa79248b82593a15d, 0xa79248b82593a15d]],
    [[0x8c0cb0d528ac9807, 0x8c0cb0d528ac9807], [0xb98c04a325f949e6, 0xb98c04a325f949e6]],
    [[0x13c7715dadd2a2c5, 0x13c7715dadd2a2c5], [0x167b44477ecf0999, 0x167b44477ecf0999]],
    [[0xef82c5176bc21173, 0xef82c5176bc21173], [0xd1c5e083584250b0, 0xd1c5e083584250b0]],
    [[0xf44c040be1a27afc, 0x2ba064bb7a13e461], [0xfa5df94ac5b5b468, 0x17464629dab95ef9]],
    [[0x49d2cbdf791fd29b, 0x49d2cbdf791fd29b], [0xd31f617ae70f8511, 0xd31f617ae70f8511]],
    [[0xd5096ca268aba3f0, 0xd5096ca268aba3f0], [0x6f8ca32d46480d9e, 0x6f8ca32d46480d9e]],
    [[0x91d5ca34f03b6cd6, 0x91d5ca34f03b6cd6], [0x410d31dd79541845, 0x410d31dd79541845]],
    [[0xfe73b3a0190ac11a, 0xfe73b3a0190ac11a], [0xdaea0056469eadad, 0xdaea0056469eadad]],
    [[0x69e5a4a086e3434b, 0x69e5a4a086e3434b], [0x8aa5b094ddc60c4f, 0x8aa5b094ddc60c4f]],
    [[0xfd00d58e0ce5bf16, 0xfd00d58e0ce5bf16], [0xb9fd3d68a0777dea, 0xb9fd3d68a0777dea]],
    [[0x3805bbce4a90ccea, 0x3805bbce4a90ccea], [0xd07a4da1f0f7f73c, 0xd07a4da1f0f7f73c]],
    [[0x361e0f5a41f559b0, 0x361e0f5a41f559b0], [0x04e8f6653564d6d5, 0x04e8f6653564d6d5]],
    [[0xfb58882ea8b210ab, 0xfb58882ea8b210ab], [0xb602194757b8d62c, 0xb602194757b8d62c]],
    [[0x777206f63afd6db1, 0x777206f63afd6db1], [0x0783518de683d3d7, 0x0783518de683d3d7]],
    [[0xbd7e3f006de6fd81, 0xbd7e3f006de6fd81], [0x305d398c362ea720, 0x305d398c362ea720]],
    [[0x7b052bcc8f6df9b7, 0xa0365430a4bd9593], [0x61a489828e0f61b3, 0x8627c8595972e2c3]],
    [[0x67517383e548bc71, 0x67517383e548bc71], [0x3befdecf820e9cdd, 0x3befdecf820e9cdd]],
    [[0xc38f1a89041be896, 0xc38f1a89041be896], [0x081a7c0450627de2, 0x081a7c0450627de2]],
    [[0xd911eebd016c52f5, 0xd911eebd016c52f5], [0x29c6da51fbcd1a18, 0x29c6da51fbcd1a18]],
    [[0xb105bebb119ffc13, 0xb105bebb119ffc13], [0x790efc110a0e37eb, 0x790efc110a0e37eb]],
    [[0x94dbc6638520584d, 0x94dbc6638520584d], [0xacfa6f906dfa2d8f, 0xacfa6f906dfa2d8f]],
    [[0xbd9aca18e491becf, 0xbd9aca18e491becf], [0xf0651f0b62664859, 0xf0651f0b62664859]],
    [[0x7fe61d7c60c66ed1, 0x7fe61d7c60c66ed1], [0xc8351acd5567e21f, 0xc8351acd5567e21f]],
    [[0x2023eff7263609eb, 0x2023eff7263609eb], [0x5f92f8dfa4e913c9, 0x5f92f8dfa4e913c9]],
    [[0x3c83e3ea99594b32, 0x3c83e3ea99594b32], [0x593ff92dd30fd14d, 0x593ff92dd30fd14d]],
    [[0xb7a0b30adf5ebbe3, 0x0ab04dbc465a852f], [0x691100311adcf986, 0x9b7840f34f106c2a]],
    [[0xfa8bf0cf84b194d8, 0xfa8bf0cf84b194d8], [0xb6f2b0dbaee165bc, 0xb6f2b0dbaee165bc]],
    [[0x3e2e5da005423ea8, 0x3e2e5da005423ea8], [0xf515ff3b4e97ed64, 0xf515ff3b4e97ed64]],
    [[0x0ff43af633077a7b, 0x0ff43af633077a7b], [0x4a3ae749f7c71fc1, 0x4a3ae749f7c71fc1]],
    [[0xd8d30cb1d76f6f0d, 0xd8d30cb1d76f6f0d], [0x84063bdf309cd2df, 0x84063bdf309cd2df]],
    [[0xffc82c5d63f573b3, 0xffc82c5d63f573b3], [0x288e7c7650a36a53, 0x288e7c7650a36a53]],
    [[0xa17cac439721dcb2, 0xa17cac439721dcb2], [0xf8ca833a5a487d47, 0xf8ca833a5a487d47]],
    [[0xfee8be8f9891dd85, 0xfee8be8f9891dd85], [0xb67c605fa9831d33, 0xb67c605fa9831d33]],
    [[0x7beef151c39b8b8c, 0x7beef151c39b8b8c], [0x03758d8a4a2d6db6, 0x03758d8a4a2d6db6]],
    [[0x5c4ee5922a086339, 0x5c4ee5922a086339], [0x70cc75f7b47dd272, 0x70cc75f7b47dd272]],
    [[0xc9338b190af06297, 0xc9338b190af06297], [0xd715ae72acf0efe5, 0xd715ae72acf0efe5]],
    [[0x0db0c392b9935595, 0x0db0c392b9935595], [0x1c2f6b08cdf2b497, 0x1c2f6b08cdf2b497]],
    [[0xbf55cb5dfd285fdc, 0xbf55cb5dfd285fdc], [0xb999202ac7638e3a, 0xb999202ac7638e3a]],
    [[0x339d05688a0011e4, 0x339d05688a0011e4], [0x82061ebee1fea6de, 0x82061ebee1fea6de]],
    [[0x75d1a17ee6a20504, 0x75d1a17ee6a20504], [0xdcac35dfefba3521, 0xdcac35dfefba3521]],
    [[0xcdf55e2a5533743a, 0xcdf55e2a5533743a], [0x51a5168d66c5bc74, 0x51a5168d66c5bc74]],
    [[0x4e6bbbb3f13a57c7, 0xb7bcf19d37ee211c], [0x47d4beba35b11870, 0x2ecde14f474530fb]],
    [[0x52a013b920d20b71, 0x52a013b920d20b71], [0x79ba4c5c60b3bb48, 0x79ba4c5c60b3bb48]],
    [[0xd5d236bb93ab4105, 0xd5d236bb93ab4105], [0x677c624fb5f3c77c, 0x677c624fb5f3c77c]],
    [[0xc3da9da57feadb38, 0xc3da9da57feadb38], [0xb32d14c1830a5d1c, 0xb32d14c1830a5d1c]],
    [[0xe9f8efe9765ee168, 0xe684862fccf4a9f2], [0xbc33dae6427ab0c2, 0xcfac176f3dcbc796]],
    [[0x4f6908bd72c7ec3f, 0x4f6908bd72c7ec3f], [0xfa667db654adb15e, 0xfa667db654adb15e]],
    [[0x03da44657d04d134, 0x03da44657d04d134], [0xc6a349542adf0841, 0xc6a349542adf0841]],
    [[0xb2ace01ac9ae7b4e, 0xb2ace01ac9ae7b4e], [0x38d3bb16b84ccbee, 0x38d3bb16b84ccbee]],
    [[0x6457588ff539e8cd, 0x6457588ff539e8cd], [0xe692f7abe8de9940, 0xe692f7abe8de9940]],
    [[0xa8c1349d6b5c2d08, 0xa8c1349d6b5c2d08], [0x1f5c9b9da3d4135a, 0x1f5c9b9da3d4135a]],
    [[0x4d49c108a03f5863, 0x4d49c108a03f5863], [0x8b8d0b8adc53bf22, 0x8b8d0b8adc53bf22]],
    [[0xd873d7cbca186b51, 0xd873d7cbca186b51], [0x790a1d7ad7090ed9, 0x790a1d7ad7090ed9]],
    [[0x58e48540b942a186, 0x58e48540b942a186], [0x4b5fee5e5edf792d, 0x4b5fee5e5edf792d]],
    [[0x50168b41ab10c08f, 0x50168b41ab10c08f], [0x33bebab43d8b0fd4, 0x33bebab43d8b0fd4]],
    [[0x2fe3a36f95bc2359, 0x8623e9934c251d79], [0x4d6a991c38bfde88, 0x339cfb286b7720e4]],
    [[0xc214aeb39344ca3c, 0x9d151b206c031102], [0x3068ef5ae3710cf2, 0xf4a0ce79a098fcd0]],
    [[0xa24f30ecb7d8e268, 0xa24f30ecb7d8e268], [0xc6200f1d0a4c3767, 0xc6200f1d0a4c3767]],
    [[0x849d9f231542f42b, 0x849d9f231542f42b], [0x3caeb1d276641102, 0x3caeb1d276641102]],
    [[0xc65e96aabc376b5c, 0xc65e96aabc376b5c], [0x44a28cf010c59278, 0x44a28cf010c59278]],
    [[0xd101e4d6f9fac406, 0xd101e4d6f9fac406], [0xa69d8a0f1dc033c4, 0xa69d8a0f1dc033c4]],
    [[0x2be131414c87a76a, 0x2be131414c87a76a], [0x72937c9c55c51ab1, 0x72937c9c55c51ab1]],
    [[0x15fbdd91abbc84dd, 0x15fbdd91abbc84dd], [0xe53988a288bd7460, 0xe53988a288bd7460]],
    [[0x7698162978398fa9, 0x7698162978398fa9], [0xf2af27056716e647, 0xf2af27056716e647]],
    [[0xd756846cfc7946de, 0xd756846cfc7946de], [0xa7e4d38150731b7a, 0xa7e4d38150731b7a]],
    [[0xbb33043c7d1ca104, 0x75584367e4962486], [0xec2fc39ba9d81f70, 0xdab4fe1bac4cc522]],
    [[0x6bb7a845acfc39aa, 0x6bb7a845acfc39aa], [0x34e54b8932d37f2c, 0x34e54b8932d37f2c]],
    [[0xaabdef820ae6ea26, 0xaabdef820ae6ea26], [0x415ab1cd69820e1f, 0x415ab1cd69820e1f]],
    [[0x346b00a97b4384d0, 0x346b00a97b4384d0], [0xf811b7914d582950, 0xf811b7914d582950]],
    [[0x78b706b7b14f9cb3, 0x78b706b7b14f9cb3], [0x505ada876c92ecd4, 0x505ada876c92ecd4]],
    [[0x6ba867ab91614656, 0x0953875964d4334f], [0x9ee00e8b443fbff0, 0xab1edb5eec9ed9db]],
    [[0xf17f4c9aa4f66628, 0xf17f4c9aa4f66628], [0x71003d32958c380f, 0x71003d32958c380f]],
    [[0x96cc1bc079adbf88, 0x96cc1bc079adbf88], [0x285b43922075e4a0, 0x285b43922075e4a0]],
    [[0x8587e19d8dc04f9f, 0x8587e19d8dc04f9f], [0xacd51b4bcca0baa8, 0xacd51b4bcca0baa8]],
    [[0xc729712e9ead6fb9, 0xc729712e9ead6fb9], [0x74de0492d5111194, 0x74de0492d5111194]],
    [[0x85ec2186b330451b, 0x85ec2186b330451b], [0xa11977ea750b4d32, 0xa11977ea750b4d32]],
    [[0x73eda45cd6674c6a, 0x73eda45cd6674c6a], [0xa11fb95c56c2c99d, 0xa11fb95c56c2c99d]],
    [[0x9041778f00e5f1a6, 0x9041778f00e5f1a6], [0xd86630245842e918, 0xd86630245842e918]],
    [[0x2b24ba42b4e62736, 0x2b24ba42b4e62736], [0xb8aa2a7c9ed3c568, 0xb8aa2a7c9ed3c568]],
    [[0xb4b594102366aaed, 0xb4b594102366aaed], [0x45701e3a6202e6af, 0x45701e3a6202e6af]],
    [[0x6f331fefc3d9f4b4, 0x6f331fefc3d9f4b4], [0x5cbf43430fa541f4, 0x5cbf43430fa541f4]],
    [[0x4ab6e45d6d55c8d7, 0x4ab6e45d6d55c8d7], [0x87b6cfb78a6a7adb, 0x87b6cfb78a6a7adb]],
    [[0x45a0a73bd8091e28, 0x45a0a73bd8091e28], [0x69f0369308dabb49, 0x69f0369308dabb49]],
    [[0x33674bc544f5dd06, 0x33674bc544f5dd06], [0x2e7d73570a5e1570, 0x2e7d73570a5e1570]],
    [[0x7f776834036b4670, 0x7f776834036b4670], [0x1c87054aa13d4449, 0x1c87054aa13d4449]],
    [[0x73ec53d5ec3ab4af, 0x73ec53d5ec3ab4af], [0xb2f1f84b50cada7f, 0xb2f1f84b50cada7f]],
    [[0x6d0c66a9e4d73b5c, 0x6d0c66a9e4d73b5c], [0xb90f1833b852fd7e, 0xb90f1833b852fd7e]],
    [[0x9ab8e4614f5e2b73, 0x2308899c1c103f28], [0xbdf9fcb0890f47ba, 0x2ffd7cbc447eb789]],
    [[0x4ca604eff4a7ff1c, 0x4ca604eff4a7ff1c], [0xf9acc2752d0e5c51, 0xf9acc2752d0e5c51]],
    [[0xbdfce014d4bab807, 0xbdfce014d4bab807], [0x9f70136999e64c2a, 0x9f70136999e64c2a]],
    [[0xf164b3a96ac87e28, 0xf164b3a96ac87e28], [0x11fc4f2413d42aa8, 0x11fc4f2413d42aa8]],
    [[0xedb49bf4f8566fdd, 0xedb49bf4f8566fdd], [0x8007b9ab64c8bee6, 0x8007b9ab64c8bee6]],
    [[0xbbf2984630696c68, 0xbbf2984630696c68], [0xe51448fdd432edc0, 0xe51448fdd432edc0]],
    [[0x51d723db3c164e94, 0x51d723db3c164e94], [0x28b65120b180d41d, 0x28b65120b180d41d]],
    [[0x002f6cb311eea499, 0x002f6cb311eea499], [0x5ff584485aae7d7d, 0x5ff584485aae7d7d]],
    [[0xced64ed0fbf76e87, 0xced64ed0fbf76e87], [0x8c868c38d8f8ee0c, 0x8c868c38d8f8ee0c]],
    [[0x301ad203a7844479, 0x301ad203a7844479], [0x7fdc9276645ab8bf, 0x7fdc9276645ab8bf]],
    [[0xcae8d8094a7bde09, 0xcae8d8094a7bde09], [0x7fa5e300a0425789, 0x7fa5e300a0425789]],
];

#[rustfmt::skip]
const RESUME: [[[u64; 2]; 3]; 8] = [
    [[0xe943137b4cc20ea8, 0x862af52ea4715052], [0x3f190c3cfce589a2, 0x78122572a8e4e157], [0x5f68b9e2d85e2313, 0x5f68b9e2d85e2313]],
    [[0x596415e68b39aeaf, 0x63449e87e7dc6ca6], [0xf073d5f7efc37a4b, 0x5452ac0594039cbc], [0xc86b554467b4835f, 0x9bb2b7acce9eb2fc]],
    [[0x9f7f8e5a27d19779, 0xa8ff431f9e8b5212], [0x3c0a9495b3aa3091, 0xda260d8cb2199497], [0x8cf3a75b15765f27, 0x8cf3a75b15765f27]],
    [[0xcdff99c68b96b1b9, 0x24c4ca55ac642865], [0x6827022505c96cd3, 0xb1475ebde6f0b25c], [0x3f350f5810905379, 0xe640f8629a5595bd]],
    [[0x45252ecf0fe98762, 0x53380d35a8a65106], [0xc137c1af9fea2c89, 0xc137c1af9fea2c89], [0x73b00c7ace1629cf, 0x66ba5158411cfc66]],
    [[0x04fd253499c8cbda, 0x372024b515431db8], [0xf9a514c2a3215075, 0xf80a518a7e6d7e62], [0x7b0ac6d395d57b95, 0x8e66bf6bc51f6f52]],
    [[0xfeafd80f580378b7, 0xe3d97830ee24a81c], [0xc0fc04ec5c7a5cdf, 0x7aff18e2e644f035], [0xaaeeb34691ca09f7, 0xd3873f746970815f]],
    [[0x2816b97e65d72f1e, 0x14af1eba0b1cc7a5], [0x19b7dda788d2b567, 0x88aed218c758c057], [0x681cd07c86809daf, 0x2ca459c13ed85694]],
];

const ALL_PAIRS_40: [u64; 2] = [0x2813c38c27a412be, 0x2156b164be69d8c7];
const IFDS_TAINT_8X16: [u64; 2] = [0x62fcdd217747a1a2, 0x42eabee488a0d3e2];
const DEMAND_ALL_PAIRS_40: [u64; 2] = [0x8b52f8c305c64345, 0xa1d1ef1052cc2b79];

#[rustfmt::skip]
const FLAT: [[[u64; 2]; 2]; 2] = [
    [[0x0969144ea8334e6c, 0x8d8d6e4f2497a532], [0xe308ea17e8f1b965, 0x65f58d92527a3f2c]],
    [[0x1f0327f1481fe55f, 0xac8eab857ef10f0f], [0x2b55a4a9d0b2cd09, 0x94ffad5e8b9bec1c]],
];

#[test]
fn random_programs_log_what_they_logged() {
    for seed in 0..100u64 {
        assert_eq!(
            random_digests(seed),
            RANDOM[seed as usize],
            "seed {seed}: [negation off, on] × [semi-naïve, naïve]"
        );
    }
}

#[test]
fn resume_sequences_log_what_they_logged() {
    // The draws that decide what a log holds: a key too wide for the
    // plans' encoded heads, and tuple-valued choice bindings.
    let drawn: Vec<_> = (0..8).map(|seed| random_program(seed, false)).collect();
    assert!(drawn.iter().any(|d| d.key_width > 4));
    assert!(drawn.iter().any(|d| d.choice_binds_whole_head));
    assert!(drawn.iter().any(|d| !d.choice_binds_whole_head));
    for seed in 0..8u64 {
        assert_eq!(
            resume_digests(seed),
            RESUME[seed as usize],
            "seed {seed}: [insert, retract, retract-then-reinsert] × [semi-naïve, naïve]"
        );
    }
}

#[test]
fn all_pairs_40_logs_what_it_logged() {
    let program = all_pairs_40();
    let digests = per_strategy("all_pairs_40", |solver| solve_digest(&program, solver));
    assert_eq!(digests, ALL_PAIRS_40);
}

#[test]
fn ifds_taint_8x16_logs_what_it_logged() {
    let program = ifds_taint_8x16();
    let digests = per_strategy("ifds_taint_8x16", |solver| solve_digest(&program, solver));
    assert_eq!(digests, IFDS_TAINT_8X16);
}

#[test]
fn a_demand_query_logs_what_it_logged() {
    assert_eq!(
        per_strategy("demand/all_pairs_40", demand_digest),
        DEMAND_ALL_PAIRS_40
    );
}

#[test]
fn flat_lattice_programs_log_what_they_logged() {
    assert_eq!(
        flat_digests(),
        FLAT,
        "[Figure 4, Figure 6] × [solve, resume sequence] × [semi-naïve, naïve]"
    );
}

/// Prints the constants above as Rust source.
#[test]
#[ignore = "records new constants; see the module docs"]
fn print_golden() {
    println!("#[rustfmt::skip]\nconst RANDOM: [[[u64; 2]; 2]; 100] = [");
    for seed in 0..100 {
        let [off, on] = random_digests(seed).map(pair);
        println!("    [{off}, {on}],");
    }
    println!("];\n\n#[rustfmt::skip]\nconst RESUME: [[[u64; 2]; 3]; 8] = [");
    for seed in 0..8 {
        let [insert, retract, again] = resume_digests(seed).map(pair);
        println!("    [{insert}, {retract}, {again}],");
    }
    println!("];\n");
    let (all_pairs, ifds) = (all_pairs_40(), ifds_taint_8x16());
    let all_pairs = per_strategy("all_pairs_40", |solver| solve_digest(&all_pairs, solver));
    println!("const ALL_PAIRS_40: [u64; 2] = {};", pair(all_pairs));
    let ifds = per_strategy("ifds_taint_8x16", |solver| solve_digest(&ifds, solver));
    println!("const IFDS_TAINT_8X16: [u64; 2] = {};", pair(ifds));
    let demand = per_strategy("demand/all_pairs_40", demand_digest);
    println!("const DEMAND_ALL_PAIRS_40: [u64; 2] = {};", pair(demand));
    println!("\n#[rustfmt::skip]\nconst FLAT: [[[u64; 2]; 2]; 2] = [");
    for [solve, resume] in flat_digests() {
        println!("    [{}, {}],", pair(solve), pair(resume));
    }
    println!("];");
}

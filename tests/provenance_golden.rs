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
// recorded at the parent of PR 25. The digests of the programs with a `_`
// in a positive atom's key column were re-recorded when such a premise
// began to log the row it matched; every other digest held.
// ---------------------------------------------------------------------

#[rustfmt::skip]
const RANDOM: [[[u64; 2]; 2]; 100] = [
    [[0xded1098568e4681c, 0xded1098568e4681c], [0x93eba8a1a35c7b47, 0x93eba8a1a35c7b47]],
    [[0xc63a0c8677ebe42b, 0xc63a0c8677ebe42b], [0xa79248b82593a15d, 0xa79248b82593a15d]],
    [[0x8c0cb0d528ac9807, 0x8c0cb0d528ac9807], [0xbcf15e6746ec51d6, 0xbcf15e6746ec51d6]],
    [[0xdf5cedf89c348180, 0xdf5cedf89c348180], [0x48034785fff1c4c4, 0x48034785fff1c4c4]],
    [[0xef82c5176bc21173, 0xef82c5176bc21173], [0xd1c5e083584250b0, 0xd1c5e083584250b0]],
    [[0x16c0d9d6c4d41024, 0xb7246bcb45659bf9], [0x24b7ed8d039994ec, 0xa948647a02dcd88d]],
    [[0x60bfca1fd1791178, 0x60bfca1fd1791178], [0x2df114f13076e746, 0x2df114f13076e746]],
    [[0x961b81f488e0ef6a, 0x961b81f488e0ef6a], [0x2b52ad1ad7387288, 0x2b52ad1ad7387288]],
    [[0x596d33bfd10e2752, 0x596d33bfd10e2752], [0xb84a2ee499599265, 0xb84a2ee499599265]],
    [[0xfe73b3a0190ac11a, 0xfe73b3a0190ac11a], [0xdaea0056469eadad, 0xdaea0056469eadad]],
    [[0x69e5a4a086e3434b, 0x69e5a4a086e3434b], [0x8aa5b094ddc60c4f, 0x8aa5b094ddc60c4f]],
    [[0xf5c8393b5cc1b539, 0xf5c8393b5cc1b539], [0x4439ba2efd6f176d, 0x4439ba2efd6f176d]],
    [[0x3805bbce4a90ccea, 0x3805bbce4a90ccea], [0xbc8bf258c25efd60, 0xbc8bf258c25efd60]],
    [[0x5ac67e089f535b8d, 0x5ac67e089f535b8d], [0x2861b6f8022bc1ac, 0x2861b6f8022bc1ac]],
    [[0xc900d3f8c247940f, 0xc900d3f8c247940f], [0x40795f6ab5ca4d64, 0x40795f6ab5ca4d64]],
    [[0x40a5385ca05efb70, 0x40a5385ca05efb70], [0x16aa06ea2329cb0c, 0x16aa06ea2329cb0c]],
    [[0x344803b8aa7d85af, 0x344803b8aa7d85af], [0xf3b2194c3ff7ef92, 0xf3b2194c3ff7ef92]],
    [[0xf50e7dce1da138ff, 0xd2ed43ff1be328db], [0xd0f4faa4403bf62b, 0xcf6aeb221281d85b]],
    [[0x6fbf57729d0ba4f6, 0x6fbf57729d0ba4f6], [0x2a70a65d6c58324a, 0x2a70a65d6c58324a]],
    [[0xc38f1a89041be896, 0xc38f1a89041be896], [0x081a7c0450627de2, 0x081a7c0450627de2]],
    [[0xd911eebd016c52f5, 0xd911eebd016c52f5], [0x29c6da51fbcd1a18, 0x29c6da51fbcd1a18]],
    [[0x7674dbc651108260, 0x7674dbc651108260], [0x5f52ea3bcdd7e6b3, 0x5f52ea3bcdd7e6b3]],
    [[0x94dbc6638520584d, 0x94dbc6638520584d], [0xacfa6f906dfa2d8f, 0xacfa6f906dfa2d8f]],
    [[0xbd9aca18e491becf, 0xbd9aca18e491becf], [0xf0651f0b62664859, 0xf0651f0b62664859]],
    [[0x7fe61d7c60c66ed1, 0x7fe61d7c60c66ed1], [0xc8351acd5567e21f, 0xc8351acd5567e21f]],
    [[0x2023eff7263609eb, 0x2023eff7263609eb], [0x5f92f8dfa4e913c9, 0x5f92f8dfa4e913c9]],
    [[0x3c83e3ea99594b32, 0x3c83e3ea99594b32], [0x593ff92dd30fd14d, 0x593ff92dd30fd14d]],
    [[0xb7a0b30adf5ebbe3, 0x0ab04dbc465a852f], [0x691100311adcf986, 0x9b7840f34f106c2a]],
    [[0xfa8bf0cf84b194d8, 0xfa8bf0cf84b194d8], [0xb6f2b0dbaee165bc, 0xb6f2b0dbaee165bc]],
    [[0x3e2e5da005423ea8, 0x3e2e5da005423ea8], [0xf515ff3b4e97ed64, 0xf515ff3b4e97ed64]],
    [[0x0ff43af633077a7b, 0x0ff43af633077a7b], [0x78eb362bd06d19b6, 0x78eb362bd06d19b6]],
    [[0x376bdfb0bd44e32d, 0x376bdfb0bd44e32d], [0xd0dcb0b2c3bf272f, 0xd0dcb0b2c3bf272f]],
    [[0xffc82c5d63f573b3, 0xffc82c5d63f573b3], [0x288e7c7650a36a53, 0x288e7c7650a36a53]],
    [[0xa17cac439721dcb2, 0xa17cac439721dcb2], [0xf8ca833a5a487d47, 0xf8ca833a5a487d47]],
    [[0xfee8be8f9891dd85, 0xfee8be8f9891dd85], [0xe174b4e382cd5309, 0xe174b4e382cd5309]],
    [[0x7beef151c39b8b8c, 0x7beef151c39b8b8c], [0x03758d8a4a2d6db6, 0x03758d8a4a2d6db6]],
    [[0xb3e844976e0ea3d9, 0xb3e844976e0ea3d9], [0x955cfd3a4d43b699, 0x955cfd3a4d43b699]],
    [[0x85d963301540a07e, 0x85d963301540a07e], [0xb3d5c36596da6360, 0xb3d5c36596da6360]],
    [[0x0db0c392b9935595, 0x0db0c392b9935595], [0x1c2f6b08cdf2b497, 0x1c2f6b08cdf2b497]],
    [[0xbf55cb5dfd285fdc, 0xbf55cb5dfd285fdc], [0xb999202ac7638e3a, 0xb999202ac7638e3a]],
    [[0x339d05688a0011e4, 0x339d05688a0011e4], [0x82061ebee1fea6de, 0x82061ebee1fea6de]],
    [[0x75d1a17ee6a20504, 0x75d1a17ee6a20504], [0xdcac35dfefba3521, 0xdcac35dfefba3521]],
    [[0xcdf55e2a5533743a, 0xcdf55e2a5533743a], [0x51a5168d66c5bc74, 0x51a5168d66c5bc74]],
    [[0x4e6bbbb3f13a57c7, 0xb7bcf19d37ee211c], [0x47d4beba35b11870, 0x2ecde14f474530fb]],
    [[0x3df12a1e4bcd6f87, 0x3df12a1e4bcd6f87], [0xee6085286c762176, 0xee6085286c762176]],
    [[0xd5d236bb93ab4105, 0xd5d236bb93ab4105], [0x677c624fb5f3c77c, 0x677c624fb5f3c77c]],
    [[0xd1f00a7f2cdbc9be, 0xd1f00a7f2cdbc9be], [0x6bd8ae9a39fb6a76, 0x6bd8ae9a39fb6a76]],
    [[0xc3953310ee83aedd, 0xc39c5c26ad6efedf], [0x3edf4ad7389a92e7, 0x5102e59812718c8b]],
    [[0x9848a22538a9bbac, 0x9848a22538a9bbac], [0x35542c74cd2d4115, 0x35542c74cd2d4115]],
    [[0x03da44657d04d134, 0x03da44657d04d134], [0xe5070e0f55ae5235, 0xe5070e0f55ae5235]],
    [[0x996b1c81f55787fc, 0x996b1c81f55787fc], [0x15c6a3b6961554e8, 0x15c6a3b6961554e8]],
    [[0x6457588ff539e8cd, 0x6457588ff539e8cd], [0xe692f7abe8de9940, 0xe692f7abe8de9940]],
    [[0x2eb11ea41acfd570, 0x2eb11ea41acfd570], [0x6124065b58b53932, 0x6124065b58b53932]],
    [[0x2ec6f013d7d37dd2, 0x2ec6f013d7d37dd2], [0x2697410777b4b24b, 0x2697410777b4b24b]],
    [[0x6d9d29e9178f4dd5, 0x6d9d29e9178f4dd5], [0x65abb09cb375a585, 0x65abb09cb375a585]],
    [[0x986abcc46a70a927, 0x986abcc46a70a927], [0x7376415d7ada5bfd, 0x7376415d7ada5bfd]],
    [[0x50168b41ab10c08f, 0x50168b41ab10c08f], [0x33bebab43d8b0fd4, 0x33bebab43d8b0fd4]],
    [[0x2fe3a36f95bc2359, 0x8623e9934c251d79], [0x4d6a991c38bfde88, 0x339cfb286b7720e4]],
    [[0x4338942325d26f40, 0x4c4b080427ebabb6], [0x3c8d2bd290355afb, 0x60ac8b71dfbdb0a1]],
    [[0xa24f30ecb7d8e268, 0xa24f30ecb7d8e268], [0x04c978bb982998dc, 0x04c978bb982998dc]],
    [[0x47d939b99094a01d, 0x47d939b99094a01d], [0xd3f9b87f3417c8c0, 0xd3f9b87f3417c8c0]],
    [[0xe7e633d3d5a2f0f9, 0xe7e633d3d5a2f0f9], [0x19081e07255c63f3, 0x19081e07255c63f3]],
    [[0xd101e4d6f9fac406, 0xd101e4d6f9fac406], [0x5d41c5944b5b9854, 0x5d41c5944b5b9854]],
    [[0x2be131414c87a76a, 0x2be131414c87a76a], [0x72937c9c55c51ab1, 0x72937c9c55c51ab1]],
    [[0x15fbdd91abbc84dd, 0x15fbdd91abbc84dd], [0xe53988a288bd7460, 0xe53988a288bd7460]],
    [[0x7698162978398fa9, 0x7698162978398fa9], [0xc17cc85dff333a53, 0xc17cc85dff333a53]],
    [[0x121094c3956c306f, 0x121094c3956c306f], [0xff4a87a358c2617d, 0xff4a87a358c2617d]],
    [[0xc51b170477011c2b, 0x309d4e12170bb6dd], [0xc78a23cb6392f7a3, 0x8b7add497adc5119]],
    [[0x4c0f776774af8bc6, 0x4c0f776774af8bc6], [0xcc4a5151a6465db8, 0xcc4a5151a6465db8]],
    [[0x6943474794ef2193, 0x6943474794ef2193], [0x3373fb7a1ed79c86, 0x3373fb7a1ed79c86]],
    [[0x346b00a97b4384d0, 0x346b00a97b4384d0], [0xf811b7914d582950, 0xf811b7914d582950]],
    [[0x78b706b7b14f9cb3, 0x78b706b7b14f9cb3], [0x505ada876c92ecd4, 0x505ada876c92ecd4]],
    [[0x6ba867ab91614656, 0x0953875964d4334f], [0x9e7e990d3cd90427, 0x7f69b23d9319eab8]],
    [[0x4c74047c5ec48439, 0x4c74047c5ec48439], [0x897b063c966c5782, 0x897b063c966c5782]],
    [[0x96cc1bc079adbf88, 0x96cc1bc079adbf88], [0x78351df2499b7c02, 0x78351df2499b7c02]],
    [[0x8587e19d8dc04f9f, 0x8587e19d8dc04f9f], [0xacd51b4bcca0baa8, 0xacd51b4bcca0baa8]],
    [[0x0adaf55d48f4a822, 0x0adaf55d48f4a822], [0x39a4ac5a65e83da3, 0x39a4ac5a65e83da3]],
    [[0x80b017e3cfa6c538, 0x80b017e3cfa6c538], [0xad39af19912757a1, 0xad39af19912757a1]],
    [[0xc0ae8e34135df621, 0xc0ae8e34135df621], [0xda0e8d90444fd7ca, 0xda0e8d90444fd7ca]],
    [[0x7e767b806b191f6c, 0x7e767b806b191f6c], [0xf6fae0d3e9c431f7, 0xf6fae0d3e9c431f7]],
    [[0x2b24ba42b4e62736, 0x2b24ba42b4e62736], [0xb8aa2a7c9ed3c568, 0xb8aa2a7c9ed3c568]],
    [[0xb4b594102366aaed, 0xb4b594102366aaed], [0x45701e3a6202e6af, 0x45701e3a6202e6af]],
    [[0x6f331fefc3d9f4b4, 0x6f331fefc3d9f4b4], [0x5cbf43430fa541f4, 0x5cbf43430fa541f4]],
    [[0x7626125f4368de38, 0x7626125f4368de38], [0x84b2a945c9d37913, 0x84b2a945c9d37913]],
    [[0x45a0a73bd8091e28, 0x45a0a73bd8091e28], [0xd43b77e90aac631c, 0xd43b77e90aac631c]],
    [[0xaa939571d6c04fa7, 0xaa939571d6c04fa7], [0x56d28d84acfee8ed, 0x56d28d84acfee8ed]],
    [[0x7f776834036b4670, 0x7f776834036b4670], [0x5d57062ac81ed35f, 0x5d57062ac81ed35f]],
    [[0x9c94038740c8ac71, 0x9c94038740c8ac71], [0xc23ed877bd06be0d, 0xc23ed877bd06be0d]],
    [[0x6d0c66a9e4d73b5c, 0x6d0c66a9e4d73b5c], [0xb90f1833b852fd7e, 0xb90f1833b852fd7e]],
    [[0x30de1afbe169604b, 0x99b1edf7a9942b44], [0xa6f6e148f7bcad69, 0xae77d345526651ae]],
    [[0x0d217bc967fb6caa, 0x0d217bc967fb6caa], [0xa92b4b5aa6043c97, 0xa92b4b5aa6043c97]],
    [[0xbdfce014d4bab807, 0xbdfce014d4bab807], [0x9f70136999e64c2a, 0x9f70136999e64c2a]],
    [[0xf164b3a96ac87e28, 0xf164b3a96ac87e28], [0x11fc4f2413d42aa8, 0x11fc4f2413d42aa8]],
    [[0xedb49bf4f8566fdd, 0xedb49bf4f8566fdd], [0x2691f6a7d9d664b3, 0x2691f6a7d9d664b3]],
    [[0xbbf2984630696c68, 0xbbf2984630696c68], [0xca2d6650440a668a, 0xca2d6650440a668a]],
    [[0x51d723db3c164e94, 0x51d723db3c164e94], [0x28b65120b180d41d, 0x28b65120b180d41d]],
    [[0x002f6cb311eea499, 0x002f6cb311eea499], [0x6dd31bb2fe15f80a, 0x6dd31bb2fe15f80a]],
    [[0xced64ed0fbf76e87, 0xced64ed0fbf76e87], [0xbd8a32cd9e46d54c, 0xbd8a32cd9e46d54c]],
    [[0x301ad203a7844479, 0x301ad203a7844479], [0x7fdc9276645ab8bf, 0x7fdc9276645ab8bf]],
    [[0xcae8d8094a7bde09, 0xcae8d8094a7bde09], [0x911f50f9dd2364ae, 0x911f50f9dd2364ae]],
];

#[rustfmt::skip]
const RESUME: [[[u64; 2]; 3]; 8] = [
    [[0xe943137b4cc20ea8, 0x862af52ea4715052], [0x3f190c3cfce589a2, 0x78122572a8e4e157], [0x5f68b9e2d85e2313, 0x5f68b9e2d85e2313]],
    [[0x596415e68b39aeaf, 0x63449e87e7dc6ca6], [0xe18e06ec413f2f34, 0xbc96de44beeadbb5], [0xc86b554467b4835f, 0x9bb2b7acce9eb2fc]],
    [[0x9f7f8e5a27d19779, 0xa8ff431f9e8b5212], [0x3c0a9495b3aa3091, 0xda260d8cb2199497], [0x8cf3a75b15765f27, 0x8cf3a75b15765f27]],
    [[0x0fa46bf255b2cef0, 0x0cd1f7e1ac4c1ca7], [0xd97b790f4ed8c729, 0x0ea4197df9e41be0], [0x7748fbb8e9286095, 0x56564760c1e0a427]],
    [[0x45252ecf0fe98762, 0x53380d35a8a65106], [0xc137c1af9fea2c89, 0xc137c1af9fea2c89], [0x73b00c7ace1629cf, 0x66ba5158411cfc66]],
    [[0x61c9971f37c7a28d, 0xf97862d454e646e5], [0xd82316bddcb87292, 0xa08e5694b9119a02], [0xde90cb7ab21f92a2, 0xde5b0712e1863fba]],
    [[0x8afeb407551d9e35, 0x6ced00a0a6288197], [0x7510b90b06801577, 0x769d6feef10002a1], [0xaeae2ccd0e6b9485, 0xe5c0e877ee29a966]],
    [[0x81ab0dc9a493e482, 0xc8525f36b73bca94], [0x39e179b9f7b41890, 0x81b6d362c98e7c5c], [0xd2f45e3fcb7cc216, 0x4688f60a09439a52]],
];

const ALL_PAIRS_40: [u64; 2] = [0x2813c38c27a412be, 0x2156b164be69d8c7];
const IFDS_TAINT_8X16: [u64; 2] = [0x34274966c54fc79e, 0x1b2a6e5e99e36996];
const DEMAND_ALL_PAIRS_40: [u64; 2] = [0x8b52f8c305c64345, 0xa1d1ef1052cc2b79];

#[rustfmt::skip]
const FLAT: [[[u64; 2]; 2]; 2] = [
    [[0x0969144ea8334e6c, 0x8d8d6e4f2497a532], [0xe308ea17e8f1b965, 0x65f58d92527a3f2c]],
    [[0xf3e66c393689f69f, 0xc4b78070e7dc98bb], [0xcea2194528d3d468, 0xf477efaa3f18d150]],
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

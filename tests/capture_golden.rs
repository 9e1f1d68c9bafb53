//! What a solve computes and what it costs, pinned: the sorted model,
//! the `SolveStats` totals and every per-rule work row of seeded programs
//! through every entry point, digested and compared with constants
//! recorded at the commit *before* the plan compiler and the step
//! interpreter were merged (PR 23). This is the in-tree form of the
//! differential capture PRs 13–17 each rebuilt outside the repository
//! (ROADMAP item 3(a)): a refactor of the engine records nothing new —
//! it runs this file at the parent and at its head, and the file is
//! byte-identical at both.
//!
//! A digest is FNV-1a over, per predicate in declaration order, the
//! rendered facts sorted; then `rounds`, `rule_evaluations`,
//! `facts_derived`, `facts_inserted`, `index_probes`, `scan_fallbacks`,
//! `strata`, `total_facts`; then the rounds and ∆ sizes of every stratum;
//! then each rule's `evaluations / derived / inserted / probes / scans`.
//! No timings. One thread and four must produce the same digest. The
//! matrix is `provenance_golden.rs`'s — `random_program` seeds 0..100 ×
//! negation × strategy, the two `work_counters.rs` programs, the three
//! resume sequences — plus `solve_query` with all-bound, partly bound
//! and all-free patterns on three predicates per seed: the body order a
//! demand guard induces is counted work like any other.
//!
//! A digest that moves is a finding, as in `work_counters.rs`: the engine
//! now visits rows in another order, charges a counter somewhere else, or
//! computes another model. Re-record only after a *deliberate* change of
//! evaluation order or of what a counter counts, and say which in
//! CHANGES.md:
//!
//! ```text
//! cargo test --test capture_golden -- --ignored --nocapture print_golden
//! ```

mod common;

use common::golden::{
    all_pairs_40, flat_programs, fnv1a, ifds_taint_8x16, pair, per_strategy, sequences, FNV_OFFSET,
};
use common::{random_program, RandomProgram};
use flix::{Delta, Program, Query, Solution, Solver, Value};
use std::fmt::Write as _;

/// The digest of one solution: its sorted model and its work counters.
fn digest(program: &Program, solution: &Solution) -> u64 {
    let mut text = String::new();
    for (_, decl) in program.predicates() {
        let facts = solution.facts(decl.name()).expect("declared");
        let mut facts: Vec<String> = facts.map(|fact| fact.to_string()).collect();
        facts.sort();
        writeln!(text, "{}: {facts:?}", decl.name()).expect("write to a string");
    }
    let stats = solution.stats();
    writeln!(
        text,
        "{} {} {} {} {} {} {} {}",
        stats.rounds,
        stats.rule_evaluations,
        stats.facts_derived,
        stats.facts_inserted,
        stats.index_probes,
        stats.scan_fallbacks,
        stats.strata,
        stats.total_facts,
    )
    .expect("write to a string");
    for s in &stats.per_stratum {
        writeln!(
            text,
            "stratum {} {} {:?}",
            s.stratum, s.rounds, s.delta_sizes
        )
        .expect("write to a string");
    }
    for r in &stats.per_rule {
        writeln!(
            text,
            "rule {} {} {} {} {} {} {}",
            r.rule, r.head, r.evaluations, r.derived, r.inserted, r.probes, r.scans,
        )
        .expect("write to a string");
    }
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, text.as_bytes());
    hash
}

fn solve_digest(program: &Program, solver: &Solver) -> u64 {
    digest(program, &solver.solve(program).expect("solves"))
}

// ---------------------------------------------------------------------
// Random programs: full solves and demand queries.
// ---------------------------------------------------------------------

/// Seeds 0..100: `[negation off, negation on]` × `[semi-naïve, naïve]`.
fn random_digests(seed: u64) -> [[u64; 2]; 2] {
    [false, true].map(|negation| {
        let program = random_program(seed, negation).program;
        let label = format!("random/{seed}/negation={negation}");
        per_strategy(&label, false, |solver| solve_digest(&program, solver))
    })
}

/// The query patterns of one seed: on `Dist` (a lattice, demanded by
/// key) and `Far` (above the negation) an all-bound, a partly bound — the
/// *last* key column alone, so the guard's bound set and not the first
/// atom decides the order — and an all-free pattern, bound to a fact of
/// the full model where the predicate has one; on `Hop` (behind the
/// choice rule) the all-free pattern and, where the head's first column
/// is not the choice's to bind, that column bound. No pattern binds a
/// variable a choice binds: what such a guard means is the one thing
/// PR 23 changed on purpose (a test, not an overwrite), and
/// `engine_semantics.rs` pins it instead.
fn query_patterns(random: &RandomProgram) -> Vec<Query> {
    let full = Solver::new().solve(&random.program).expect("solves");
    let mut queries = Vec::new();
    for name in ["Hop", "Dist", "Far"] {
        let facts = full.facts(name).expect("declared");
        let mut keys: Vec<Vec<Value>> = facts.map(|fact| fact.key().to_vec()).collect();
        keys.sort();
        let width = match name {
            "Dist" => random.key_width,
            _ => 2,
        };
        let key = keys.pop().unwrap_or_else(|| vec![Value::from(0i64); width]);
        let lattice = name == "Dist";
        let pattern = |bound: &dyn Fn(usize) -> bool| {
            let mut pattern: Vec<Option<Value>> = key
                .iter()
                .enumerate()
                .map(|(col, v)| bound(col).then(|| v.clone()))
                .collect();
            pattern.extend(lattice.then_some(None));
            Query::new(name, pattern)
        };
        if name != "Hop" {
            queries.push(pattern(&|_| true));
            queries.push(pattern(&|col| col + 1 == width));
        } else if !random.choice_binds_whole_head {
            queries.push(pattern(&|col| col == 0));
        }
        queries.push(pattern(&|_| false));
    }
    queries
}

/// Seeds 0..100, negation on: the seed's queries folded, per strategy.
fn query_digests(seed: u64) -> [u64; 2] {
    let random = random_program(seed, true);
    let queries = query_patterns(&random);
    per_strategy(&format!("query/{seed}"), false, |solver| {
        let mut hash = FNV_OFFSET;
        for query in &queries {
            let result = solver
                .solve_query(&random.program, std::slice::from_ref(query))
                .expect("queries");
            let mut answers: Vec<String> = result.answers(0).map(|f| f.to_string()).collect();
            answers.sort();
            fnv1a(&mut hash, format!("{query} {answers:?}").as_bytes());
            fnv1a(
                &mut hash,
                &digest(&random.program, result.solution()).to_le_bytes(),
            );
        }
        hash
    })
}

// ---------------------------------------------------------------------
// Resume sequences (those of `provenance_golden.rs`; provenance on, which
// a retraction's head-bound plans need).
// ---------------------------------------------------------------------

/// Runs one sequence, each step resumed from the previous solution, and
/// folds the digest of every step.
fn sequence_digest(program: &Program, steps: &[Delta], solver: &Solver) -> u64 {
    let mut current = solver.solve(program).expect("solves");
    let mut hash = digest(program, &current);
    for delta in steps {
        current = solver.resume(program, &current, delta).expect("resumes");
        fnv1a(&mut hash, &digest(program, &current).to_le_bytes());
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
        per_strategy(&format!("resume/{seed}/kind {kind}"), true, |solver| {
            sequence_digest(&random.program, &steps, solver)
        })
    })
}

/// Per program over flat lattices: `[solve, insert → retract → insert]`
/// × strategies (the sequence with provenance on, as above).
fn flat_digests() -> [[[u64; 2]; 2]; 2] {
    flat_programs().map(|(label, program, steps)| {
        let resumed = format!("{label}/resume");
        [
            per_strategy(label, false, |solver| solve_digest(&program, solver)),
            per_strategy(&resumed, true, |solver| {
                sequence_digest(&program, &steps, solver)
            }),
        ]
    })
}

// ---------------------------------------------------------------------
// The constants, recorded at the parent of PR 23 — but for `FLAT`,
// recorded at the parent of PR 25.
// ---------------------------------------------------------------------

#[rustfmt::skip]
const RANDOM: [[[u64; 2]; 2]; 100] = [
    [[0xc3f74cfb22efdbd0, 0xc99f46c60aa744b6], [0xdb920be037abf3ca, 0x87adffec0f785c5a]],
    [[0x54a9fb4261c97988, 0xdfa7235394fbc2f6], [0x5a99b04219d9ad03, 0x02bdcc631175d11c]],
    [[0x9f882a50e8bfe184, 0x8d9bd5d463a9031a], [0x1b9d371bc0ab6ed5, 0x36dcf28029d8a693]],
    [[0xc259dedba2267b21, 0x0f4b3138c7bf3f1e], [0xb3768ff2339229c4, 0x603bf25b1cc60d3f]],
    [[0x8c6341f7901195d3, 0xf546d9bf88bda4a6], [0xf4891cf7eedfd58f, 0x0bd274d0a692cf49]],
    [[0x639fe23a94548f4f, 0xe133da7902e00c9b], [0x98d5ef877727c9fe, 0x8c3737af657692b6]],
    [[0x284865dafaa69e88, 0x1eedfdbcdf6c0b19], [0x2e6796522704ec54, 0x8bcbb529ca13260c]],
    [[0xa6c5826e37efcba7, 0x09327928567edfaf], [0x05f654c2af366f50, 0x987a270b59b2b2bc]],
    [[0xc17ab70a94cf9db3, 0xa41004b87ea09b7a], [0xf04a14bec3534bf0, 0x5c2777fd0e5428f3]],
    [[0x415edd5796d688f0, 0xe552dc081b281766], [0x0091164a414dc4fa, 0xef55e3ed5f4d7bf8]],
    [[0x8b73f485ea84ae8a, 0x5768b78893504768], [0x8d32334b3e5b45d1, 0x5f1e5f2d577078d6]],
    [[0xdceb53a57d9bc8f0, 0x712259acb3498080], [0x9245265fee70b174, 0xd292d9373dd4723b]],
    [[0x9974338a2172f476, 0x64c01fa1ed7b079e], [0x62dc50b35e1669d5, 0x7d455559ffca2d2a]],
    [[0x57c1ada8ba2eeb9b, 0x562e9040c891ce9b], [0x7d6eda8d0e78fd5d, 0x0cd58df828763193]],
    [[0xd761c36c212551c1, 0x364d602b86854aaf], [0xbd93ae8fbfc2b27d, 0xd66221f3dc18973f]],
    [[0x0c09264e7ab419b5, 0x0813f6047d22959e], [0x39ab2f302b791e80, 0x8a53c4117f7d412d]],
    [[0x9e034718e9a5d93a, 0xd17b4382188053bc], [0xcafa3d70644abf3d, 0x1410b833d91fa550]],
    [[0x3e1abbd375356f69, 0x456d65696ed73dbc], [0x0d506b205fcadc4f, 0x5db1ca73cd3ce082]],
    [[0xc1555efab28e4264, 0xce87e73a393d742f], [0x69d83ea50a56b66f, 0x3873f7e0adef9cf1]],
    [[0x8baba09baf2c53c8, 0x8baba09baf2c53c8], [0xe3570a8743dc5ee4, 0x9745e45bcd6f54ab]],
    [[0x05f084e778573685, 0x2be5eae03d5ff415], [0x545e53addb4aeb20, 0x6c5712766a2bcf2b]],
    [[0x132d81da4dae73eb, 0x8d8500898348ddad], [0xf09dbf7fff0dd56d, 0x4528e9969183bfec]],
    [[0x7d16b45e33de5999, 0xd0670c2e1c847519], [0x29107fdcd01650a1, 0xd0d75ff01c87b13b]],
    [[0xabccbb827a9f1475, 0x3bcf49cc4b860d40], [0xcf241fb294a9af9c, 0x7140173547ef1c8d]],
    [[0x78178dd41d5b2539, 0x22cec4bfb34fc7d9], [0x58808f2bff04d487, 0x60b7fe435e4b3deb]],
    [[0x547e87c15f48771c, 0x547e87c15f48771c], [0x64e2acde81873249, 0x321be9f81b605f17]],
    [[0x487d396ac5aad75c, 0xfc84c683a7ed1a7a], [0x5697faad446f2f63, 0x21535e36f9b2d034]],
    [[0x28f28235886a815d, 0x6f626e21752579d9], [0x8defd88630c5fe4f, 0x6c982a85758a9b13]],
    [[0x88cf31eb889eab03, 0xcdbadc449b3b42b2], [0x6f4d688c7875b9f4, 0x1fffb46c848ccbf5]],
    [[0xd8e78d36be292268, 0x1fe502f2ebcbc66b], [0x07313d2f3c0f261f, 0xf5bd0b03ff2b64e9]],
    [[0x55b54dcff387aae7, 0xc81e4779503e42d9], [0x35d5ea32bfb03cb1, 0x579a57a6d50d39fe]],
    [[0x2b9e4bb312f0d48a, 0xef513f9235165267], [0x76739c9d6601fed3, 0x3fb1be6effdfdf44]],
    [[0x01df35d3e5204cf7, 0x01df35d3e5204cf7], [0xbe6f15276b7bd6d5, 0x28f49bc650a4985d]],
    [[0x0514b6b2b7fe950a, 0x0514b6b2b7fe950a], [0x027a33340e23c826, 0x85f79097834024b2]],
    [[0x82931d423fdd93cf, 0x44c918a98b1c35f8], [0x5f4aef4b13672ca1, 0x980b9dd168ea7701]],
    [[0xf390f4185b2135ab, 0xc690830478ca3e5b], [0x46d4cce80303fb62, 0xc72052f27b2f8012]],
    [[0x1a264947640ef6c5, 0xa2b485691a802aea], [0x507714b623b98bbd, 0xea2ff2a9d18d159b]],
    [[0x6f0bcb5bb48181c8, 0xdd3c192691ebea96], [0xf5ef12cfceba2a15, 0xda15db1adf947b09]],
    [[0xf3105fccd211c2f1, 0x5dfb34541e1e414a], [0x439550948812b2ca, 0xb2c0bb979fdf0371]],
    [[0x9b58cc5f626f1416, 0xbf3e108e2d372398], [0xe5b2b20bccf68ce3, 0x1168b2f4d4cce71e]],
    [[0x89c0c55349fd2f1b, 0x2ab581d6e2e91c1d], [0xf6896177a6726f10, 0xc019b1c8c6753d13]],
    [[0xc64b5124f9d1d02e, 0x290764d3334f3c7a], [0x806c8163775e67da, 0x22c507ce4e5d7ee2]],
    [[0x9cce4d35ab57d1b0, 0x01cbdd8ea0b28142], [0x571896e365feca85, 0x48bb7fcc67f140cb]],
    [[0xa826b7de317cfed9, 0x8ba479e571350779], [0x99aefb45fb0cff75, 0x5271cbe6ec264912]],
    [[0xa5fba74ff319475c, 0x3f2a34029c3e074b], [0x10d1ec032378f521, 0x911469edfc2741d2]],
    [[0x24e9c0cc97e481b8, 0xdb88b763c93e8c2a], [0xc41fe1e69ebbdcfe, 0xb6682c5bab4dfa16]],
    [[0xcf84a0034fb1aa49, 0x0a8c6c4f5eff7b11], [0xb6aa60c785dc44e9, 0x4f6afac6d90f3a03]],
    [[0xf1375fe96982deac, 0xe3d0862866aa8f0f], [0xc62658dac68601a3, 0x08c12b0d5bebb8ca]],
    [[0xcba004e7cc36c872, 0xb6dba56ed374cc4d], [0x2668667ef42b4f60, 0xb12616bdcce8a729]],
    [[0xa8e10c5fe47ff6f3, 0x8daf9c4ad0e0e745], [0x0bfeb4dddc2aeacd, 0xe503dc7f2d8c21b4]],
    [[0xc56e37a02d3a1e40, 0xefb68f40dd355683], [0x3213fbf35c1b7bec, 0x5110e8c4ff50ebfc]],
    [[0x6c69cd8ae02d08cb, 0x6c69cd8ae02d08cb], [0x5be0335dc6eb2b81, 0x3d94b5e1dc38cc10]],
    [[0xfc4c683f509f2d29, 0x5507cfade451dadd], [0x6483e5083bec25df, 0x6477696025b9d130]],
    [[0xeb8aa908088effdf, 0xac86fc6f29fe334e], [0x1ccf9d1a57bb66a0, 0xd80d5304d46e64ff]],
    [[0x7dc3e035343dcb49, 0x806a639b96c9349e], [0x39a5a7829fa5e799, 0xd90e66657782d5b5]],
    [[0x2cc5b1f19bdc9fdd, 0xda38374d96f025bb], [0x81f97a2ca7859eb4, 0x6e76d030a42b4fff]],
    [[0x086b9fd579e483b8, 0xd662d4803abe126e], [0x0db69c018c4d91ea, 0xf516f0c9e7a42293]],
    [[0xd1bb9a90b2f20375, 0x6d8ed9a87e57e0b7], [0xf0d37d8d622fa7bd, 0xf8d2b477a86399d4]],
    [[0xa2da8ef73d7969dc, 0xef4a6e07d9fb1bb7], [0xdb6499b519774fa9, 0x3ee0d36710ef20e5]],
    [[0xffe0c2c448bb70cd, 0xf947dd04b685d675], [0x8173d6bca12612fa, 0xc76da548c9c5e940]],
    [[0x4484061875e1ae84, 0x7548b2a9e01507f6], [0xf13d5998cda48ee5, 0x3966fad04d0a288e]],
    [[0xc8d2b1d710fcff5b, 0xe74e495248da323b], [0xc81360b17357878e, 0x340dc23add8b74c5]],
    [[0x560ce28e9e72ecb7, 0x81ab7dafa62d0bf2], [0x8b66450fd759839f, 0x1eecc61afa8be599]],
    [[0x7768c1e2d7d825b4, 0xb2952cef6da6db4c], [0x0bbb6ebc8c441048, 0x715852307d74220a]],
    [[0x3ebde4c15be124aa, 0x141f5e65c0c24a19], [0x27e62b06a2e5c6c3, 0x1703fae2d1c69d67]],
    [[0x955a85bb5ecdb801, 0x8ee41af1f0f8951e], [0x9b9a9237ea96b6b0, 0x2abe5f9a74ed12da]],
    [[0x1a6eaceb70956731, 0xacf9eb4c0085c433], [0xf2fac5d0790656f5, 0x265ebfd18cb5e93c]],
    [[0x2d5cfa59876cce8f, 0xcf5bcd049acafc8e], [0x82f79a999edc32d9, 0x8904b253d35d4083]],
    [[0x939ba2f175cc529c, 0xe620986b8673d6ec], [0xb798f9cad6f7f607, 0x8bb4b238256142b7]],
    [[0x9b3da300f4caa944, 0xf4ca4ca486a86f7a], [0x5cb7f41c4d967a6d, 0x88c868313d2354c4]],
    [[0x06b32667a60a7dd6, 0x04ad96ab362ba0e9], [0x51fe2008519e8b14, 0x5048651f2828c78a]],
    [[0x570d95b096c1437d, 0xc4f3bccb3394fefc], [0x63aaa6efd4fcfc23, 0xc5996ce60c585d12]],
    [[0x95182cc3070b34ca, 0x4fb14b64d56cde23], [0xb71ccb43fef7ee03, 0x192d7fb4f823e1a6]],
    [[0x2a597300cc3e6d56, 0x5c0a83c0d4cd35b0], [0x7968cf6f3eca4e15, 0xb3793a5498a2083a]],
    [[0x3b9455f6846da108, 0xf6a6d6a7e62b2ce2], [0xcefabc92f86c813a, 0xb0293d97d412494c]],
    [[0xddcbc63a9ab892d3, 0x9ed91b5593e2d9bf], [0xf52eddbfed15ec16, 0x6c8e78cf338c3c1f]],
    [[0x793df46cb3646706, 0x6234fac5e5a68b6e], [0xa3e6fa1a871b308e, 0x8918f937a3b9202d]],
    [[0x47a2049f9120db2d, 0xdc1e6549ba511a9a], [0x2c76900eee98a4de, 0xef8f0d5fb37c2123]],
    [[0x3d09fdf5f994e0fd, 0xcd96c3aa5c4fa2bf], [0x1edf0a9d7cd1d640, 0x0b766d5b43920dd0]],
    [[0x7520c290b7952090, 0x55d713027e2cf4bd], [0x6ce2611f1ee2878e, 0x5e0d7707c75991b5]],
    [[0x2c735a800a799312, 0xb8a61b55911cdcb6], [0x33da090db8eb0eb9, 0xf97b9aef3b32289a]],
    [[0x107bcc0da2991309, 0x43474675cd457492], [0xb19f0f6dcf654b91, 0x1b27aa089bf95bfb]],
    [[0xf677a0f244a78122, 0xf677a0f244a78122], [0x8a8e8335d7585b61, 0xf7997df783a5da82]],
    [[0x8e054801fbb44292, 0x4d6582a57e700a50], [0xbf5c9b30e89d5197, 0xfe1f8b621faf0e2f]],
    [[0xeaa65c131b8bf9e2, 0xf91d2ed927cf3241], [0xccde5beab1985edc, 0xf24903ad6169c6f2]],
    [[0x6b8cce5420b60b28, 0x267ed143197535db], [0xbc45b0b20c9920cf, 0x766034e65f0f6c49]],
    [[0x5006be69a1c87c4b, 0x3b6c0cf1b0e92650], [0x02c3947d7245a45c, 0x0d497adc82fc5ff3]],
    [[0xb7fe82297ab71869, 0x0bd6618cdc67734b], [0x491c0bcac4905462, 0x810ce18d747ba1c9]],
    [[0xc640b548e52af299, 0xbefe88906e6700de], [0xeb07ef7a92375ade, 0xdd48f688f0f09949]],
    [[0x1c5f749786aa7439, 0x9128b0dc62524a10], [0x3b2d1503c99194d4, 0xeeff9de8a062695d]],
    [[0x154d27ced8baa559, 0xe4ed5ea00a58bdaa], [0xef173996a3c9220c, 0x2fd83866f8562827]],
    [[0x4cfe4530463ee8b4, 0xe8776ac1e426b03d], [0xa55eb90afea2dcb5, 0x5e58740fb6db8a10]],
    [[0x1afbca0b6aba2897, 0x5927e87ab6068348], [0xbfcefc560dae0024, 0x9c606c2447bf74a2]],
    [[0x6acd9d8f63e48b3c, 0x2dc756365d10781a], [0xbb2c0673adbe91ff, 0xd5eb30d9259d7ee9]],
    [[0x45fa22f40691f572, 0xcf80b5147575fd89], [0x4c385a99e9a4d85c, 0x4958c550a71de558]],
    [[0x31e829905b69da31, 0x0b0ce43f92c8c7ba], [0xe0ba82bf03e30999, 0x97bfef5f70f60a70]],
    [[0xdc2ae31a21a71dc0, 0xaec3a6f4a74ca974], [0x3167fe99a98b1304, 0x2fb985d59a35ab62]],
    [[0xb44b25993065963c, 0xf4ec6244eec4d304], [0xd0930cbf9bd76fd0, 0x5a4dd1a0ae220a22]],
    [[0x926a299c25259cc0, 0x7d98ff62350415ce], [0x3ee0935386d6ccaf, 0xf34fe77d0f9918b4]],
    [[0x38b1b84f2070a2c1, 0x47acc1ee80263634], [0x85055c4d7537c647, 0xb1e81c3951c57977]],
];

#[rustfmt::skip]
const QUERY: [[u64; 2]; 100] = [
    [0x190bfad6213ba406, 0x58ce69f3f7ee7a62],
    [0x9c85e28df63fa6d0, 0xcf4497c1852f2d98],
    [0xe433c5c5b1526669, 0xdd23251c45c6377b],
    [0x1dbff2c3eeb993d6, 0x4c23818cd3c28a7e],
    [0x3a9b2b1ad5f1b561, 0x4eeb74fc02cc8a74],
    [0xb44da4d9a6faa80c, 0xb74bb275daeb3f4e],
    [0xe30478439c4cbe83, 0x1f528ebbb83c15df],
    [0xff98657e87f734ad, 0x62566664224310c4],
    [0x4273cec772a4a47e, 0x70e102cf51a851da],
    [0xd62a63f880049658, 0xbfb3a73d276283a1],
    [0x4d5b1ed1b82fc90a, 0xcb9bbd2380ecd6df],
    [0xd05f0b4d5be21311, 0x78aec6e96cc1cf45],
    [0x54a7e559bd196613, 0xaa5f9e015898c3c0],
    [0xe368478901ad2ef9, 0xf1026c99f8543c0c],
    [0x3f1ba4846dc94e46, 0x5e9e6e978b0954a4],
    [0xf6865cdeb2f8a749, 0x22037b912a50fc99],
    [0x648d5df93140f9ee, 0xb4bc334c47169779],
    [0xf26b4344a4944faf, 0x21498f410b497410],
    [0xbac80ec4ea62f863, 0x8c3fe0bec6da92d7],
    [0x5a30f47e3149707e, 0x7cf4eb20c079a707],
    [0x819b93907110ac40, 0x7fdcf19995e92b57],
    [0xdf269d49c1c9b4bd, 0xd8803e6ee1b9c244],
    [0xe08ab3795572f5fd, 0x696ae9f13365f5d1],
    [0xb01ed294d462bbbb, 0xdbda369e7ad3d52c],
    [0xa9dfa6770e745151, 0x1215b5079428eebe],
    [0x6fefd87ca1cc3282, 0x1823ebb8b0c0696e],
    [0xeabfbe371d39c239, 0x4ee8c4d23a08b896],
    [0x60ff67995c5c0c3c, 0x252adc682072415c],
    [0xd7323f9af029cbf4, 0x19b62950b4b9a269],
    [0x441ff23a616e7867, 0xb2d1e3a88cae1fac],
    [0xf599bff87b3a5220, 0x7f7d412142222c46],
    [0x6f84c1392f6d4b53, 0xca6267fafb82a3b4],
    [0x5f88e39469b1ae2b, 0x0d3aaeb5d798de6c],
    [0x8fe8620a7d414a99, 0xea48d20ef0d2a7e6],
    [0xb91889176651a9f3, 0x2a0f89b262d0ce2d],
    [0x6a1d3f0f94b8d72f, 0x6ec32d97e612225e],
    [0x9faf6e016b0c9a1e, 0xf799fd1c16d89fdb],
    [0x55ee8d9108a37b1c, 0x463f652d3d6cc100],
    [0xb2db2d18277d34b9, 0x058783e0afc3e7d2],
    [0x9081b4d5d9c89901, 0x9fe2aaba2b17bf87],
    [0x99dbe9e4df8653dd, 0x5f1de931b3c32a54],
    [0xcf0cf9d9e61d95de, 0xf6481f7aa71187d1],
    [0xd4eecf1c0ccacdfa, 0x1bf6474218d6f2cd],
    [0xf6ea73eb53a3ba90, 0x1e8d786fe8dbd31f],
    [0x904a43d46af18be3, 0xe1641491cd3849cb],
    [0x394b6d9a67268742, 0x7b1830c0f25178ca],
    [0xc06a1e89e0b8b15e, 0x6b4869896c9bda42],
    [0x710cbf9273296ddb, 0x5a96f41fac70ae21],
    [0xcbf8b3d502023086, 0x7e0d67bf6bb29cca],
    [0x22555eb5f791d74e, 0x66a339d55243d7d0],
    [0x61fa39926953f237, 0xad7fec3d4a0b1184],
    [0xbfc4fd16ca4c8ac6, 0xbfc4fd16ca4c8ac6],
    [0x55eb657c25adf232, 0x887269ccaccd5d1f],
    [0xe301150af2c9c56a, 0xbc3a4b0fff8f5312],
    [0xe54fab447678944a, 0x82d965b73b7c7fbd],
    [0xbb630ada41cc1b58, 0x73400c4fba554b41],
    [0x029dba050fbbce93, 0x190410802c85c8a4],
    [0xb455594f8cf03b43, 0xbaa5caf0207055ca],
    [0x8b3c4737b6d4044d, 0x7e8dbb009b92119f],
    [0x1f393307a9daa9aa, 0xab142f53555be105],
    [0x0ee1900baa8acaf9, 0xa56bfa7929073c57],
    [0x051ec5404dd51e2d, 0x79e6d561f3f14b16],
    [0xe977504634bc6345, 0xc95614dff378872c],
    [0xa507f1f5b78f4996, 0xfd6494d97e140fc7],
    [0x9e633473ce8cca49, 0x9fa4d0f7720d9559],
    [0x6961c60608b48dff, 0x5e30147183b253ab],
    [0x24986deb8137b4b9, 0x24a7b56a2029ae07],
    [0xda32111688273f26, 0x5833c51371b39319],
    [0x4dd8f12eead3b265, 0x3743015feddba4b3],
    [0x2a5b5c7fe0d4ae3f, 0x317dad879fb81a50],
    [0x05fb852fd69d79ad, 0xe5ca776cc4a447df],
    [0xa7c493eed61f74ba, 0xdd2e2595c3ff693d],
    [0x48ef1882fec5471b, 0x7b8abb6da0cce808],
    [0x1fb3ed81358045c5, 0x299de3722963ffa7],
    [0x4bc18a79a3bda823, 0x9ffd2f7017302cb6],
    [0xeaf6fd23935d30ef, 0x6712ba61e7bb1f71],
    [0xb4b246d8cd23c0c3, 0xf8da9b4e2f5e8279],
    [0x2fc08c37a0a1b086, 0x2825cc7e21449124],
    [0x19b437bdcc3a3c6d, 0xfa712c4ce17924c8],
    [0xb3e1d6dc97b70336, 0xc51e9244d4f07afe],
    [0xc3d1bbcdc147dfc2, 0x46ae5798002acf2e],
    [0xe58e635682cbccb7, 0xeb8cf24d1087b070],
    [0x8ed1f014f9a8289f, 0xd57fe7bb18410385],
    [0xf2ec5c302ba6412a, 0xf646fbe2487f5ee7],
    [0x4952a02fa746d318, 0x8d15b638d19ebc2b],
    [0x446b38d13e40ee37, 0xba916a9f74f9e8d2],
    [0x07236bff3d4d1f96, 0x86c409cea44910df],
    [0xb4991a63ce633fee, 0x0680c3f78c859583],
    [0x1ab9dd9088060b6c, 0x54c4ee2849808ec5],
    [0xe00da80345db72c5, 0x0591343999b0ef1b],
    [0x3cc2f6ff32a49ac2, 0xe5271472148db81d],
    [0x62c17f442020c7e3, 0xac6b2211f3c20e22],
    [0xdbc92a2591b1494d, 0x129dc1133867ef8d],
    [0x2cf00fe8f955554b, 0x83819341e97f42f2],
    [0xa082c7a0249db98d, 0x4337eea072a48c61],
    [0x4d6527e5898cfad7, 0xf8569034b2cc949b],
    [0xa3ae5715d07adaf2, 0x5dcc014fe5377a3f],
    [0x1ce621cd5e0515eb, 0x7171ac6a1b270bf9],
    [0xaa4f7adcf33b3a96, 0x372c8ca68b1c75ce],
    [0x521f3a62ac54315f, 0x51858f62814b9018],
];

#[rustfmt::skip]
const RESUME: [[[u64; 2]; 3]; 8] = [
    [[0x4f045b0646542c4a, 0xe3b9e684566cd946], [0x21a0ba50ec6b4380, 0xe69b3799f3913747], [0xd40f0f04c9b9e3ba, 0xbc85513de59cc746]],
    [[0x20442ab0be7a4bdd, 0x132ec5abead32a5a], [0x4728bf2d19e91bac, 0xa7e5c4df62d3dd33], [0xf31a0d2eecec7fdf, 0x66b65e99f1d9e6b6]],
    [[0x6a523c7b204b74b3, 0x48c1050b60e97c84], [0x0f010da6637732d3, 0x8c2054ccddd7f9b2], [0x24f2ec7afee4e68e, 0xb6ff0dfa09e7e78a]],
    [[0x7413a95ffadd68e4, 0xfe6175c62faff00d], [0xbd3ebcd05cf1a324, 0xa46f0a8449be476b], [0xa4bee4fa58ea32b2, 0x25e235ed1d3f678f]],
    [[0x073990b4f13703cf, 0x49bc273b57796f69], [0xd7b5a85ae90a959d, 0x8ba9cb2ce307e9c2], [0xd51fe22cf504fb9f, 0xb657269fb1b4d039]],
    [[0x476cf028bc352782, 0x281a771da0a73916], [0x74d75cdb3a6ec1d8, 0xfd637e8b4198b87f], [0xea1326506da9de0c, 0xb2f72f63234d92ac]],
    [[0x19cba0a1e968f499, 0x2889db43c1e0e31e], [0xc615012570934c60, 0x90538d02bedcb344], [0x1a619dea10ebeec0, 0x2ae67ff62c81315a]],
    [[0x5506cf7f1824ab9e, 0xc9ab02a76d44599f], [0x3fb653ec5f7094dc, 0x59ab2f4c42c6709e], [0x985e19db30d02d88, 0x838ca74c36adc45f]],
];

const ALL_PAIRS_40: [u64; 2] = [0x8a88189165c91196, 0xc287f6ed2df01df6];
const IFDS_TAINT_8X16: [u64; 2] = [0x60aeed26ce9a5a90, 0xec8db259afc6c3d9];

#[rustfmt::skip]
const FLAT: [[[u64; 2]; 2]; 2] = [
    [[0x20b7f276220f1467, 0x127d38437a4b8501], [0xa750f3036c69b6ad, 0x347d2f3790a05574]],
    [[0x5744ef9e8548ee97, 0xdb8955a248ed64db], [0xf89a718a2f7a069c, 0x1c9ca159d68cef3d]],
];

#[test]
fn random_programs_solve_as_captured() {
    for seed in 0..100u64 {
        assert_eq!(
            random_digests(seed),
            RANDOM[seed as usize],
            "seed {seed}: [negation off, on] × [semi-naïve, naïve]"
        );
    }
}

#[test]
fn demand_queries_solve_as_captured() {
    for seed in 0..100u64 {
        assert_eq!(
            query_digests(seed),
            QUERY[seed as usize],
            "seed {seed}: its queries × [semi-naïve, naïve]"
        );
    }
}

#[test]
fn resume_sequences_solve_as_captured() {
    for seed in 0..8u64 {
        assert_eq!(
            resume_digests(seed),
            RESUME[seed as usize],
            "seed {seed}: [insert, retract, retract-then-reinsert] × [semi-naïve, naïve]"
        );
    }
}

#[test]
fn all_pairs_40_solves_as_captured() {
    let program = all_pairs_40();
    let digests = per_strategy("all_pairs_40", false, |solver| {
        solve_digest(&program, solver)
    });
    assert_eq!(digests, ALL_PAIRS_40);
}

#[test]
fn ifds_taint_8x16_solves_as_captured() {
    let program = ifds_taint_8x16();
    let digests = per_strategy("ifds_taint_8x16", false, |solver| {
        solve_digest(&program, solver)
    });
    assert_eq!(digests, IFDS_TAINT_8X16);
}

#[test]
fn flat_lattice_programs_solve_as_captured() {
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
    println!("];\n\n#[rustfmt::skip]\nconst QUERY: [[u64; 2]; 100] = [");
    for seed in 0..100 {
        println!("    {},", pair(query_digests(seed)));
    }
    println!("];\n\n#[rustfmt::skip]\nconst RESUME: [[[u64; 2]; 3]; 8] = [");
    for seed in 0..8 {
        let [insert, retract, again] = resume_digests(seed).map(pair);
        println!("    [{insert}, {retract}, {again}],");
    }
    println!("];\n");
    let (all_pairs, ifds) = (all_pairs_40(), ifds_taint_8x16());
    let all_pairs = per_strategy("all_pairs_40", false, |solver| {
        solve_digest(&all_pairs, solver)
    });
    println!("const ALL_PAIRS_40: [u64; 2] = {};", pair(all_pairs));
    let ifds = per_strategy("ifds_taint_8x16", false, |solver| {
        solve_digest(&ifds, solver)
    });
    println!("const IFDS_TAINT_8X16: [u64; 2] = {};", pair(ifds));
    println!("\n#[rustfmt::skip]\nconst FLAT: [[[u64; 2]; 2]; 2] = [");
    for [solve, resume] in flat_digests() {
        println!("    [{}, {}],", pair(solve), pair(resume));
    }
    println!("];");
}

//! Golden outputs for both search kinds with matcher re-rank.
//!
//! A fabricated multi-source corpus (three dataset sources, unionable and
//! joinable scenarios, noisy schemata) is searched with `jaccard-levenshtein`
//! re-rank, and every returned hit is pinned: table, column, the exact bits
//! of the final score, and a digest of the re-rank matcher's column matches
//! (source, target and score bits of each, in order). Any change to
//! candidate generation, sketch scoring, the re-rank loop or the score
//! aggregation shows up here as a changed line.

use valentine_datasets::{chembl, tpcdi, wikidata, SizeClass};
use valentine_fabricator::{fabricate_pair, InstanceNoise, ScenarioSpec, SchemaNoise};
use valentine_index::{DiscoveryResult, Index, IndexConfig, SearchOptions};
use valentine_matchers::MatcherKind;
use valentine_table::Table;

/// Three sources × three scenarios; returns the index plus the query side
/// of every fabricated pair.
fn corpus() -> (Index, Vec<Table>) {
    let sources: [(&str, Table); 3] = [
        ("tpcdi", tpcdi::prospect(SizeClass::Tiny, 11)),
        ("chembl", chembl::assays(SizeClass::Tiny, 12)),
        ("wikidata", wikidata::singers(SizeClass::Tiny, 13)),
    ];
    let specs = [
        ScenarioSpec::unionable(0.5, SchemaNoise::Verbatim, InstanceNoise::Verbatim),
        ScenarioSpec::view_unionable(0.5, SchemaNoise::Noisy, InstanceNoise::Noisy),
        ScenarioSpec::joinable(0.5, false, SchemaNoise::Noisy),
    ];
    let mut index = Index::new(IndexConfig::default());
    let mut queries = Vec::new();
    for (name, base) in &sources {
        for (i, spec) in specs.iter().enumerate() {
            let mut pair = fabricate_pair(base, spec, 300 + i as u64).expect("fabrication works");
            pair.target.set_name(format!("{name}_target_{i}"));
            index.ingest(name, pair.target);
            queries.push(pair.source);
        }
    }
    (index, queries)
}

fn opts(threads: usize) -> SearchOptions {
    SearchOptions {
        rerank: Some(MatcherKind::JaccardLevenshtein),
        candidate_cap: 4,
        threads,
    }
}

/// FNV-1a over the match list: source, target and score bits, in order.
fn matches_digest(hit: &DiscoveryResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for m in &hit.column_matches {
        write(m.source.as_bytes());
        write(&[0]);
        write(m.target.as_bytes());
        write(&[0]);
        write(&m.score.to_bits().to_le_bytes());
    }
    h
}

fn render(hits: &[DiscoveryResult]) -> Vec<String> {
    hits.iter()
        .map(|hit| {
            format!(
                "{} {} {:016x} {}:{:016x}",
                hit.table_name,
                hit.column.as_deref().unwrap_or("-"),
                hit.score.to_bits(),
                hit.column_matches.len(),
                matches_digest(hit)
            )
        })
        .collect()
}

/// The expected rendering; re-ranking on one worker or several must give
/// exactly these lines.
const GOLDEN: &str = "\
unionable q0\n\
tpcdi_target_0 - 3fe5fc7a4f161ff9 484:8018895a2408c09f\n\
tpcdi_target_2 - 3fe141b46c6a9e2d 352:cc54ef4d83964ac0\n\
tpcdi_target_1 - 3fd716e13c112a3f 352:409850d19ec3f2a5\n\
joinable q0.agency_id\n\
tpcdi_target_0 agency_id 3febdef7bdef7bdf 1:55d5001418bbf01c\n\
tpcdi_target_1 agncy_d 3fea7b9611a7b961 1:a8878d9e02e5f983\n\
tpcdi_target_2 prospect_target_ai 3fdf75270d0456c8 1:22a0e1ec878a5320\n\
joinable q0.last_name\n\
tpcdi_target_2 ln 3fe7bdef7bdef7be 1:191ee425009d2ca1\n\
tpcdi_target_0 last_name 3fe1c71c71c71c72 1:b94ebf63a218c6ba\n\
unionable q1\n\
tpcdi_target_0 - 3fe8a5b3e3c87ab6 374:90f11fec8a9731cd\n\
tpcdi_target_2 - 3fe1f8d4e12386ff 272:6cc5f8240c10ff41\n\
tpcdi_target_1 - 3fd4a531f96d3155 272:624585c3c3106b2e\n\
joinable q1.agency_id\n\
tpcdi_target_1 agncy_d 3fea7b9611a7b961 1:a8878d9e02e5f983\n\
tpcdi_target_0 agency_id 3fea000000000000 1:a29629a41dc01506\n\
tpcdi_target_2 prospect_target_ai 3fdf75270d0456c8 1:22a0e1ec878a5320\n\
joinable q1.last_name\n\
tpcdi_target_2 ln 3fe6b5ad6b5ad6b6 1:fdc2ed69e6eb1ca5\n\
tpcdi_target_0 last_name 3fe097b425ed097b 1:536a8abf9c8c90ff\n\
unionable q2\n\
tpcdi_target_0 - 3fe6e65452648a76 374:3619735d230da668\n\
tpcdi_target_2 - 3fe4eae862b5f137 272:20de3ad771eca22a\n\
tpcdi_target_1 - 3fd868963a3c60a6 272:2ad3790ee7036be1\n\
joinable q2.agency_id\n\
tpcdi_target_2 prospect_target_ai 3ff0000000000000 1:07d00acb4ff2418e\n\
tpcdi_target_0 agency_id 3fdf75270d0456c8 1:611bae0258c121d6\n\
tpcdi_target_1 agncy_d 3fda08ad8f2fba94 1:4a8cf253d5f65d2b\n\
joinable q2.middle_initial\n\
tpcdi_target_2 prospect_target_mddl_ntl 3ff0000000000000 1:c382917f1a34acb5\n\
tpcdi_target_0 middle_initial 3fe2492492492492 1:7211bd246e92b994\n\
chembl_target_0 relationship_type 3fc1745d1745d174 1:15013ac34b744d6a\n\
unionable q3\n\
chembl_target_0 - 3fe951632ffc3a6d 529:0dc6c91631a21c1c\n\
chembl_target_2 - 3fe37d40c43209ca 391:55b827f5c75506a8\n\
chembl_target_1 - 3fcf102d0cb6d2f5 391:a2763013e1d5a9b2\n\
joinable q3.assay_id\n\
chembl_target_0 assay_id 3fec000000000000 1:8478673d80967c46\n\
chembl_target_2 assays_target_ai 3fe0000000000000 1:0210e02e411f85f8\n\
joinable q3.chembl_id\n\
chembl_target_0 chembl_id 3ff0000000000000 1:30ee0256ca1bfdc0\n\
chembl_target_1 chmbl_d 3fea2e8ba2e8ba2f 1:5ed330314804c1e6\n\
chembl_target_2 ci 3fe0000000000000 1:bb01c7a7b6604227\n\
unionable q4\n\
chembl_target_0 - 3fe893ae66dc15d6 414:abd6cb51ebb17fa6\n\
chembl_target_2 - 3fe4496159ae0def 306:9025537bc1f2f6ea\n\
chembl_target_1 - 3fc4100b28411105 306:9fe544a878226696\n\
joinable q4.assay_id\n\
chembl_target_0 assay_id 3fec000000000000 1:8478673d80967c46\n\
chembl_target_2 assays_target_ai 3fe0000000000000 1:0210e02e411f85f8\n\
joinable q4.description\n\
chembl_target_0 description 3fd5555555555555 1:2d9d2bd90b145fd7\n\
unionable q5\n\
chembl_target_0 - 3fe8e63b90e63b91 414:fb29ac2c411e9b0c\n\
chembl_target_2 - 3fe5a4e81f76c6c8 306:403bc49813a1f48f\n\
chembl_target_1 - 3fcda917afed792b 306:2e48152b8db37cdd\n\
joinable q5.assay_id\n\
chembl_target_2 assays_target_ai 3ff0000000000000 1:0247602e414deee8\n\
chembl_target_0 assay_id 3fe0000000000000 1:844f673d80737732\n\
joinable q5.chembl_id\n\
chembl_target_2 ci 3ff0000000000000 1:bacb47a7b631d937\n\
chembl_target_0 chembl_id 3fe0000000000000 1:31248256ca4a66b0\n\
chembl_target_1 chmbl_d 3fe0000000000000 1:58e4d8b6c6cdc446\n\
unionable q6\n\
wikidata_target_0 - 3fe4759768a2c103 400:156377b75bb40270\n\
wikidata_target_2 - 3fe0705f999f4ba0 300:bef1119648c0699c\n\
wikidata_target_1 - 3fd815c73accadfd 300:9313773ea638712a\n\
joinable q6.artist_name\n\
wikidata_target_1 artst_nm 3fe097b425ed097b 1:20379475beb6c7cc\n\
wikidata_target_0 artist_name 3fd7777777777777 1:3df4bcf380684045\n\
joinable q6.birth_name\n\
wikidata_target_2 singers_target_bn 3fe063e7063e7064 1:94671cb67a33eacb\n\
wikidata_target_0 birth_name 3fd999999999999a 1:0932dc0b8fde044a\n\
unionable q7\n\
wikidata_target_0 - 3fe30c878e5004dd 300:0bbe442eb403f121\n\
wikidata_target_2 - 3fe00e3be6702b06 225:ec1d4dc34d769f25\n\
wikidata_target_1 - 3fcb6aa00fbd6342 225:6a6b266b06061aa2\n\
joinable q7.artist_name\n\
wikidata_target_0 artist_name 3fd6b5ad6b5ad6b6 1:a1837f6f01166517\n\
joinable q7.birth_name\n\
wikidata_target_2 singers_target_bn 3fe063e7063e7064 1:94671cb67a33eacb\n\
wikidata_target_0 birth_name 3fd999999999999a 1:0932dc0b8fde044a\n\
unionable q8\n\
wikidata_target_0 - 3fe654ff7ebfa2c0 300:f47b7a019abd5f08\n\
wikidata_target_2 - 3fe565a2c5288062 225:879e227dfabfa55a\n\
wikidata_target_1 - 3fd65886e99f9e1a 225:9756d89536353636\n\
joinable q8.artist_name\n\
wikidata_target_0 artist_name 3fe0000000000000 1:5802cc738bc550f8\n\
wikidata_target_1 artst_nm 3fe0000000000000 1:4d1108222449f80f\n\
joinable q8.birth_name\n\
wikidata_target_2 singers_target_bn 3ff0000000000000 1:eec87c73e132e615\n\
wikidata_target_0 birth_name 3fe063e7063e7064 1:652372dc489a48b4\n";

fn search_all(index: &Index, queries: &[Table], threads: usize) -> String {
    let mut out = String::new();
    let mut push = |line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    for (q, query) in queries.iter().enumerate() {
        push(format!("unionable q{q}"));
        render(&index.top_k_unionable(query, 3, &opts(threads)).results)
            .into_iter()
            .for_each(&mut push);
        for column in query.columns().iter().take(2) {
            push(format!("joinable q{q}.{}", column.name()));
            render(&index.top_k_joinable(column, 3, &opts(threads)).results)
                .into_iter()
                .for_each(&mut push);
        }
    }
    out
}

#[test]
fn rerank_outputs_match_the_golden_file_on_every_thread_count() {
    let (index, queries) = corpus();
    for threads in [1, 2] {
        let got = search_all(&index, &queries, threads);
        assert_eq!(got, GOLDEN, "threads={threads}; got:\n{got}");
    }
}

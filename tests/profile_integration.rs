//! Observability integration: per-request profiles and the global
//! metrics registry must agree with what the engine actually did, and
//! profiling must never change query results.
//!
//! Everything lives in ONE test function: the obs registry and the
//! enabled flag are process-wide, and cargo runs tests in a binary
//! concurrently — separate tests would race on the counters.

use lotusx::{LotusX, QueryRequest, QueryResponse};
use lotusx_datagen::{generate, Dataset};

fn result_key(response: &QueryResponse) -> Vec<(u64, String)> {
    response
        .matches
        .iter()
        .map(|r| (r.score.to_bits(), r.snippet.to_string()))
        .collect()
}

#[test]
fn profiles_and_metrics_agree_with_engine_behaviour() {
    let sys = LotusX::load_document(generate(Dataset::DblpLike, 1, 99));

    // --- Profiling off: no profile, and results are the baseline. ------
    let q = "//article[author]/title";
    let plain = sys.query(&QueryRequest::twig(q)).unwrap();
    assert!(
        plain.profile.is_none(),
        "unprofiled requests carry no profile"
    );

    // --- A fresh (cache-miss) profile has a coherent stage tree. -------
    let cold = LotusX::load_document(generate(Dataset::DblpLike, 1, 99));
    let profiled = cold.query(&QueryRequest::twig(q).profiled(true)).unwrap();
    let profile = profiled.profile.as_ref().expect("requested a profile");
    assert!(!profile.cache_hit);
    assert!(profile.algorithm.is_some(), "a miss runs a join algorithm");
    assert_eq!(profile.query, q);
    assert!(profile.rewritten.is_none(), "no rewrite happened");
    assert_eq!(profile.results, profiled.matches.len());
    // Stage timings can never exceed the request's total.
    assert!(
        profile.stages_ns() <= profile.total_ns,
        "stage sum {} > total {}",
        profile.stages_ns(),
        profile.total_ns
    );
    let rendered = profile.render();
    for stage in ["parse", "match", "rank", "serialize", "total:"] {
        assert!(rendered.contains(stage), "missing {stage} in:\n{rendered}");
    }

    // --- Profiling does not change results (bit-for-bit). --------------
    assert_eq!(result_key(&plain), result_key(&profiled));

    // --- Repeating the query shows up as a result-cache hit. -----------
    let repeat = cold.query(&QueryRequest::twig(q).profiled(true)).unwrap();
    let hit_profile = repeat.profile.as_ref().unwrap();
    assert!(hit_profile.cache_hit, "second run must hit the result LRU");
    assert!(
        hit_profile.algorithm.is_none(),
        "cache hits run no algorithm"
    );
    assert_eq!(result_key(&repeat), result_key(&plain));

    // --- Global counters track the engine's own cache stats. -----------
    let m = lotusx_obs::metrics();
    let c = || m.counters.snapshot();
    let queries0 = c().queries;
    let hits0 = c().cache_hit;
    let misses0 = c().cache_miss;
    let keyword0 = c().keyword_queries;
    let cache0 = sys.query_cache_stats();

    lotusx_obs::set_enabled(true);
    sys.query(&QueryRequest::twig("//inproceedings/title"))
        .unwrap(); // miss
    sys.query(&QueryRequest::twig("//inproceedings/title"))
        .unwrap(); // hit
    sys.query(&QueryRequest::twig("//article/year")).unwrap(); // miss
    sys.query(&QueryRequest::keyword("xml")).unwrap(); // uncached
    lotusx_obs::set_enabled(false);

    let cache1 = sys.query_cache_stats();
    assert_eq!(c().queries - queries0, 4);
    assert_eq!(c().keyword_queries - keyword0, 1);
    assert_eq!(c().cache_hit - hits0, cache1.hits - cache0.hits);
    assert_eq!(c().cache_miss - misses0, cache1.misses - cache0.misses);
    assert_eq!(c().cache_hit - hits0, 1);
    assert_eq!(c().cache_miss - misses0, 2);

    // While disabled, queries leave the registry untouched.
    let queries1 = c().queries;
    sys.query(&QueryRequest::twig("//phdthesis")).unwrap();
    assert_eq!(c().queries, queries1);

    // Stage histograms were fed while enabled.
    let snapshot = m.snapshot();
    assert!(!snapshot.to_json().is_empty());

    // --- Metrics recording is invisible in responses. ------------------
    // A run with recording on must return byte-equal `QueryResponse`s to
    // a run with it off, and no response carries a profile it did not
    // ask for.
    let queries = [
        "//article[author]/title",
        "//book/publisher",
        "//inproceedings[year]",
        "//article//author",
        "//masterthesis", // empty: exercises the rewrite path too
        "//book[title][publisher]",
    ];
    let run = || -> Vec<String> {
        queries
            .iter()
            .map(|q| format!("{:?}", sys.query(&QueryRequest::twig(*q)).unwrap()))
            .collect()
    };
    let off = run();
    lotusx_obs::set_enabled(true);
    let on = run();
    lotusx_obs::set_enabled(false);
    assert_eq!(
        off, on,
        "metrics recording must not change any byte of the response"
    );
    assert!(
        on.iter().all(|r| r.contains("profile: None")),
        "a profile is attached only to the request that asked for one"
    );
}

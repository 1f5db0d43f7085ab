//! The four workloads: which corpora the server hosts and how it boots
//! them, and the exact request sequence every server lifetime replays.
//!
//! A workload is a list of *operations*; an operation is a list of wire
//! requests. In the three keep-alive workloads an operation is one
//! request on a persistent connection; in `session-mix` it is one whole
//! scripted user session on a connection of its own. Everything random
//! comes from the run's seed, and the server only ever sees the files
//! and bytes generated here.

use crate::client::render_request;
use crate::replica::Replica;
use lotusx_datagen::queries::{broken_queries, completion_traces, queries, CompletionTrace};
use lotusx_datagen::rng::XorShiftRng;
use lotusx_datagen::Dataset;
use lotusx_obs::json_string;

/// How `lotusx-serve` is told to open a corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boot {
    /// From the generated XML file: parse, label, index, precompute.
    Xml,
    /// From the `.ltsx` snapshot of the same corpus: bulk decode.
    Snapshot,
}

/// One hosted corpus.
#[derive(Clone, Copy, Debug)]
pub struct Corpus {
    /// Tenant name (only routed on when the workload has two).
    pub tenant: &'static str,
    pub dataset: Dataset,
    pub scale: u32,
    pub boot: Boot,
}

/// The static part of a workload: everything known before the corpora
/// exist.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload is in the suite, in one line.
    pub why: &'static str,
    /// One corpus = a single-engine server; two = registry mode.
    pub corpora: &'static [Corpus],
    /// Keep-alive connections held open by the generator; `0` means a
    /// fresh connection per operation, closed by the server at its end.
    pub conns: usize,
    /// Query-cache hits and misses each operation must cause, exactly.
    pub hits_per_op: u64,
    pub misses_per_op: u64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "query-hot",
        why: "six dblp twigs repeated on two keep-alive connections: every query is a cache hit, \
              so HTTP parse, event loop, worker hand-off, wire encode and flush are the cost",
        corpora: &[Corpus {
            tenant: "default",
            dataset: Dataset::DblpLike,
            scale: 128,
            boot: Boot::Snapshot,
        }],
        conns: 2,
        hits_per_op: 1,
        misses_per_op: 0,
    },
    Spec {
        name: "query-cold",
        why: "seven xmark twigs on more distinct cache keys than the LRU holds: every query \
              misses, so twig join, index and ranking are the cost and serving is noise",
        corpora: &[Corpus {
            tenant: "default",
            dataset: Dataset::XmarkLike,
            scale: 64,
            boot: Boot::Xml,
        }],
        conns: 1,
        hits_per_op: 0,
        misses_per_op: 1,
    },
    Spec {
        name: "complete-keystroke",
        why: "position-aware tag and value completion per keystroke, the paper's headline \
              operation: the request path is the cost and a join change must show nothing",
        corpora: &[Corpus {
            tenant: "default",
            dataset: Dataset::DblpLike,
            scale: 64,
            boot: Boot::Xml,
        }],
        conns: 2,
        hits_per_op: 0,
        misses_per_op: 0,
    },
    Spec {
        name: "session-mix",
        why: "whole user sessions on two tenants, one connection each: accept/close churn, \
              routing, deep-recursion joins, rewrite and keyword search in one operation",
        corpora: &[
            Corpus {
                tenant: "tb",
                dataset: Dataset::TreebankLike,
                scale: 16,
                boot: Boot::Snapshot,
            },
            Corpus {
                tenant: "bib",
                dataset: Dataset::DblpLike,
                scale: 16,
                boot: Boot::Xml,
            },
        ],
        conns: 0,
        hits_per_op: 1,
        misses_per_op: 7,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The request class, for the per-class client timings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Query,
    Complete,
}

/// One distinct wire request.
pub struct Request {
    pub bytes: Vec<u8>,
    pub class: Class,
}

/// A workload's request sequence.
pub struct Workload {
    pub spec: &'static Spec,
    pub requests: Vec<Request>,
    /// Operations in replay order; each lists indices into `requests`.
    /// Every lifetime starts at operation 0 and wraps at the end.
    pub ops: Vec<Vec<u32>>,
}

/// Deduplicating request table: equal bytes share one index, so the
/// oracle answers each distinct request once.
#[derive(Default)]
struct Table {
    requests: Vec<Request>,
    index: std::collections::HashMap<Vec<u8>, u32>,
}

impl Table {
    fn intern(&mut self, class: Class, bytes: Vec<u8>) -> u32 {
        if let Some(&i) = self.index.get(&bytes) {
            return i;
        }
        let i = self.requests.len() as u32;
        self.index.insert(bytes.clone(), i);
        self.requests.push(Request { bytes, class });
        i
    }

    fn query(&mut self, path: &str, tenant: Option<&str>, close: bool, body: String) -> u32 {
        let bytes = render_request("POST", path, tenant, close, &body);
        self.intern(Class::Query, bytes)
    }

    fn complete(&mut self, path: &str, tenant: Option<&str>, body: String) -> u32 {
        let bytes = render_request("POST", path, tenant, false, &body);
        self.intern(Class::Complete, bytes)
    }
}

/// Every twig query asks for `"algorithm":"auto"`: the server's default
/// pins TwigStack, and it is the cost-model chooser and the six join
/// algorithms behind it that later changes will want to move.
fn twig_body(text: &str, top_k: usize) -> String {
    format!(
        "{{\"text\":{},\"top_k\":{top_k},\"algorithm\":\"auto\"}}",
        json_string(text)
    )
}

fn keyword_body(text: &str, top_k: usize) -> String {
    format!(
        "{{\"text\":{},\"kind\":\"keyword\",\"top_k\":{top_k}}}",
        json_string(text)
    )
}

/// The body of one tag keystroke: the user has built `trace.context_path`
/// and typed the first `typed` characters of the intended tag.
fn tag_keystroke_body(trace: &CompletionTrace, typed: usize) -> String {
    let steps: Vec<String> = trace
        .context_path
        .iter()
        .map(|tag| format!("{{\"tag\":{},\"axis\":\"child\"}}", json_string(tag)))
        .collect();
    format!(
        "{{\"kind\":\"tag\",\"prefix\":{},\"k\":10,\"context\":{{\"steps\":[{}],\"axis\":\"child\"}}}}",
        json_string(&trace.intended[..typed]),
        steps.join(",")
    )
}

fn value_keystroke_body(tag: &str, prefix: &str) -> String {
    format!(
        "{{\"kind\":\"value\",\"tag\":{},\"prefix\":{},\"k\":10}}",
        json_string(tag),
        json_string(prefix)
    )
}

/// A seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut XorShiftRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Draws words a user could be typing under `tag`: terms that really
/// occur there, so every keystroke has candidates to return.
fn value_words(replica: &Replica, tenant: usize, tag: &str, rng: &mut XorShiftRng) -> Vec<String> {
    let mut words: Vec<String> = replica
        .engine(tenant)
        .completion_engine()
        .complete_value(tag, "", 64)
        .into_iter()
        .map(|c| c.term)
        .filter(|t| t.len() >= 4 && t.is_ascii())
        .collect();
    assert!(!words.is_empty(), "no completable values under <{tag}>");
    shuffle(&mut words, rng);
    words
}

/// `top_k` values that make cache keys distinct. Cost barely depends on
/// `top_k` (a few more snippets to serialize), the cache key does.
const FRESH_K_BASE: usize = 10;

/// Distinct `top_k` values per twig in `query-cold`. The engine's query
/// LRU has 8 hash-seeded shards of 16 entries; cycling 7 × 64 = 448 keys
/// puts 56 ± 7 on each shard, so no shard can ever hold its share and
/// every request misses in every process, whatever its hash seed (240
/// keys, the first design, left a shard at or under capacity in ~2 % of
/// processes).
const COLD_KS: usize = 64;

/// The seventh xmark twig. With the six canonical twigs the median
/// latency sat exactly on the boundary between the third and fourth
/// cheapest (4.6 ms vs 7.0 ms); with seven equally frequent classes the
/// median is the middle of the fourth and p90 lies inside the slowest.
const COLD_EXTRA_TWIG: &str = "//open_auction[seller][itemref]/initial";

/// Builds the request sequence of `spec` for `seed`. `replica` is the
/// in-process copy of the engines the server will host.
pub fn build(spec: &'static Spec, seed: u64, replica: &Replica) -> Workload {
    let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x10ad_9e4e);
    let mut table = Table::default();
    let ops = match spec.name {
        "query-hot" => query_hot(&mut table),
        "query-cold" => query_cold(&mut table, &mut rng),
        "complete-keystroke" => complete_keystroke(&mut table, &mut rng, replica),
        "session-mix" => session_mix(&mut table, &mut rng, replica),
        other => unreachable!("no generator for workload {other}"),
    };
    Workload {
        spec,
        requests: table.requests,
        ops,
    }
}

fn query_hot(table: &mut Table) -> Vec<Vec<u32>> {
    queries(Dataset::DblpLike)
        .iter()
        .map(|q| vec![table.query("/query", None, false, twig_body(q.text, FRESH_K_BASE))])
        .collect()
}

fn query_cold(table: &mut Table, rng: &mut XorShiftRng) -> Vec<Vec<u32>> {
    let mut twigs: Vec<&str> = queries(Dataset::XmarkLike).iter().map(|q| q.text).collect();
    twigs.push(COLD_EXTRA_TWIG);
    let mut ks: Vec<usize> = (FRESH_K_BASE..FRESH_K_BASE + COLD_KS).collect();
    shuffle(&mut ks, rng);
    let mut ops = Vec::new();
    for k in ks {
        for twig in &twigs {
            ops.push(vec![table.query("/query", None, false, twig_body(twig, k))]);
        }
    }
    ops
}

/// Rounds of the keystroke script; the sequence wraps after them.
const KEYSTROKE_ROUNDS: usize = 24;

fn complete_keystroke(
    table: &mut Table,
    rng: &mut XorShiftRng,
    replica: &Replica,
) -> Vec<Vec<u32>> {
    let value_tags = ["author", "title", "year"];
    let mut words: Vec<Vec<String>> = value_tags
        .iter()
        .map(|tag| value_words(replica, 0, tag, rng))
        .collect();
    let mut ops = Vec::new();
    let mut typed_values = 0;
    for _ in 0..KEYSTROKE_ROUNDS {
        // One round: the user builds each trace's node, typing its tag
        // one keystroke at a time, and after each node fills in a value.
        for trace in completion_traces(Dataset::DblpLike) {
            for typed in 1..=trace.intended.len() {
                let body = tag_keystroke_body(trace, typed);
                ops.push(vec![table.complete("/complete", None, body)]);
            }
            let which = typed_values % value_tags.len();
            let pool = &mut words[which];
            let word = pool[(typed_values / value_tags.len()) % pool.len()].clone();
            typed_values += 1;
            // Four keystrokes: a whole `year`, and for words the point
            // where the candidate list has converged.
            for typed in 1..=4 {
                let body = value_keystroke_body(value_tags[which], &word[..typed]);
                ops.push(vec![table.complete("/complete", None, body)]);
            }
        }
    }
    ops
}

/// Sessions generated for `session-mix`; a lifetime replays about a
/// hundred. Fresh cache keys come from `top_k`, cycled with a period
/// long enough that a key is evicted before it returns: `tb` takes six
/// insertions per session (period 80 = 60 ± 7 per 16-entry shard),
/// `bib` only the broken query (period 400 = 50 ± 7 per shard).
const SESSIONS: usize = 400;
const SESSION_TB_KS: usize = 80;
const SESSION_TAG_KEYSTROKES: usize = 18;
const SESSION_VALUE_KEYSTROKES: usize = 6;

/// The broken query every session submits. One fixed entry (dblp R1,
/// a synonym tag) so that sessions cost the same; it runs on `bib`
/// because a rewrite on `@treebank:16` costs ~85 ms, three times the
/// rest of the session, and would turn the mix into a rewrite benchmark.
const SESSION_BROKEN: usize = 0;

/// The keyword query every session ends with (keyword answers are never
/// cached, so the text can stay the same).
const SESSION_KEYWORDS: &str = "graph data";

fn session_mix(table: &mut Table, rng: &mut XorShiftRng, replica: &Replica) -> Vec<Vec<u32>> {
    let tb_traces = completion_traces(Dataset::TreebankLike);
    let tb_twigs = queries(Dataset::TreebankLike);
    let broken = broken_queries(Dataset::DblpLike)[SESSION_BROKEN].text;
    let value_tags = ["author", "title"];
    let words: Vec<Vec<String>> = value_tags
        .iter()
        .map(|tag| value_words(replica, 1, tag, rng))
        .collect();
    let per_word = SESSION_VALUE_KEYSTROKES / value_tags.len();

    (0..SESSIONS)
        .map(|s| {
            let mut op = Vec::new();
            // Tag keystrokes on `tb` (path-routed), starting at a
            // rotating trace and cycling until 18 keys are typed.
            let mut keys = 0;
            'typing: for trace in tb_traces.iter().cycle().skip(s % tb_traces.len()) {
                for typed in 1..=trace.intended.len() {
                    let body = tag_keystroke_body(trace, typed);
                    op.push(table.complete("/t/tb/complete", None, body));
                    keys += 1;
                    if keys == SESSION_TAG_KEYSTROKES {
                        break 'typing;
                    }
                }
            }
            // Value keystrokes on `bib` (header-routed).
            for (tag, pool) in value_tags.iter().zip(&words) {
                let word = &pool[s % pool.len()];
                for typed in 1..=per_word {
                    let body = value_keystroke_body(tag, &word[..typed]);
                    op.push(table.complete("/complete", Some("bib"), body));
                }
            }
            // Every canonical treebank twig on a cache key of its own…
            let k = FRESH_K_BASE + s % SESSION_TB_KS;
            for twig in tb_twigs {
                op.push(table.query("/t/tb/query", None, false, twig_body(twig.text, k)));
            }
            // …one of them again (the session's single cache hit)…
            let again = tb_twigs[s % tb_twigs.len()].text;
            op.push(table.query("/t/tb/query", None, false, twig_body(again, k)));
            // …a broken query that only answers through the rewriter…
            let broken_k = FRESH_K_BASE + s;
            op.push(table.query("/query", Some("bib"), false, twig_body(broken, broken_k)));
            // …and a keyword search that also says goodbye.
            op.push(table.query(
                "/query",
                Some("bib"),
                true,
                keyword_body(SESSION_KEYWORDS, 5 + s % 5),
            ));
            op
        })
        .collect()
}

/// The `--routes` file for a two-corpus workload: `/t/<tenant>/…`
/// paths first, then one tenant-header rule per tenant.
pub fn routes_json(corpus_paths: &[(&str, String)]) -> String {
    let tenants: Vec<String> = corpus_paths
        .iter()
        .map(|(name, path)| {
            format!(
                "{{\"name\":{},\"corpus\":{}}}",
                json_string(name),
                json_string(path)
            )
        })
        .collect();
    let header_rules: Vec<String> = corpus_paths
        .iter()
        .map(|(name, _)| {
            format!(
                "{{\"when\":{{\"header_exact\":{{\"name\":\"x-lotusx-tenant\",\"value\":{0}}}}},\
                 \"tenant\":{0}}}",
                json_string(name)
            )
        })
        .collect();
    format!(
        "{{\"tenants\":[{}],\n \"rules\":[\
         {{\"when\":{{\"path_prefix\":\"/t/\"}},\"tenant\":{{\"from_path\":true}}}},{}]}}\n",
        tenants.join(","),
        header_rules.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_consistent() {
        for s in &SPECS {
            assert_eq!(spec(s.name).map(|x| x.name), Some(s.name));
            assert!(!s.corpora.is_empty() && s.corpora.len() <= 2);
            assert!(s.why.len() <= 200, "{}: why is one line", s.name);
            assert!(s.conns <= 2, "at most nproc connections");
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn bodies_decode_on_the_server_side() {
        let trace = &completion_traces(Dataset::DblpLike)[3];
        let v = lotusx_obs::parse_json(&tag_keystroke_body(trace, 2)).unwrap();
        match lotusx_serve::wire::decode_complete(&v).unwrap() {
            lotusx_serve::wire::CompleteRequest::Tag { context, prefix, k } => {
                assert_eq!(prefix, "au");
                assert_eq!(k, 10);
                assert_eq!(context.steps.len(), 2);
                assert_eq!(context.axis_to_focus, lotusx::Axis::Child);
            }
            other => panic!("{other:?}"),
        }
        let v = lotusx_obs::parse_json(&value_keystroke_body("title", "gr")).unwrap();
        assert!(matches!(
            lotusx_serve::wire::decode_complete(&v).unwrap(),
            lotusx_serve::wire::CompleteRequest::Value { .. }
        ));
        let v = lotusx_obs::parse_json(&twig_body(r#"//a[b ~ "x"]"#, 12)).unwrap();
        let q = lotusx_serve::wire::decode_query(&v).unwrap();
        assert_eq!((q.text.as_str(), q.top_k), (r#"//a[b ~ "x"]"#, Some(12)));
        assert_eq!(q.algorithm, Some(lotusx::Algorithm::Auto));
        let v = lotusx_obs::parse_json(&keyword_body("graph data", 5)).unwrap();
        let q = lotusx_serve::wire::decode_query(&v).unwrap();
        assert_eq!(q.kind, lotusx::QueryKind::Keyword);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut XorShiftRng::seed_from_u64(1));
        shuffle(&mut b, &mut XorShiftRng::seed_from_u64(1));
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, (0..50).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn routes_file_parses_and_routes_both_ways() {
        let text = routes_json(&[("tb", "a.ltsx".to_string()), ("bib", "b.xml".to_string())]);
        let config = lotusx::RegistryConfig::parse(&text).unwrap();
        assert_eq!(config.tenants.len(), 2);
        let table = lotusx::RouteTable::new(config.rules);
        let m = table.resolve("/t/tb/query", &[]).unwrap();
        assert_eq!((m.tenant.as_str(), m.path.as_str()), ("tb", "/query"));
        let headers = vec![("x-lotusx-tenant".to_string(), "bib".to_string())];
        let m = table.resolve("/complete", &headers).unwrap();
        assert_eq!((m.tenant.as_str(), m.path.as_str()), ("bib", "/complete"));
        assert!(table.resolve("/query", &[]).is_none());
    }
}

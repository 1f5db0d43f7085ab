//! The in-process copy of what the server hosts.
//!
//! `Replica::prepare` generates a workload's corpora from the seed,
//! writes the files `lotusx-serve` will boot from, and opens the same
//! files in-process, the way the server will. The replica then plays
//! two parts with one code path ([`Replica::answer`]): it is the
//! *oracle* — the wire encoding is deterministic, so the bytes it
//! produces are the bytes the server must send — and, with span
//! recording on, it is the per-layer *tracer*: each step of a request
//! is a call into one crate's public function with a span around it.

use crate::spans::Spans;
use crate::workload::{routes_json, Boot, Corpus, Spec};
use lotusx::{LotusX, QueryKind, RegistryConfig, RouteTable};
use lotusx_index::IndexedDocument;
use lotusx_labeling::DocumentLabels;
use lotusx_serve::http::{self, ParseStatus};
use lotusx_serve::{wire, Limits};
use lotusx_twig::{choose_algorithm, parse_query};
use lotusx_xml::Document;
use std::path::{Path, PathBuf};

/// One hosted corpus: its files and its in-process engine.
pub struct Hosted {
    pub corpus: Corpus,
    pub xml_path: PathBuf,
    pub ltsx_path: PathBuf,
    /// Element count of the document.
    pub elements: usize,
    /// Size of the `.ltsx` snapshot.
    pub ltsx_bytes: u64,
    engine: LotusX,
}

pub struct Replica {
    hosted: Vec<Hosted>,
    /// The routing table of a two-corpus (registry) server.
    routes: Option<RouteTable>,
    routes_path: Option<PathBuf>,
    limits: Limits,
}

type Fallible<T> = Result<T, String>;

/// A framed request and where the routing table sent it.
struct Routed {
    tenant: usize,
    /// The path the tenant's endpoint handler sees (`/t/<tenant>` stripped).
    path: String,
    request: http::Request,
    keep_alive: bool,
}

impl Replica {
    /// Generates, writes and opens every corpus of `spec` under `out`.
    pub fn prepare(spec: &Spec, seed: u64, out: &Path) -> Fallible<Replica> {
        let ctx = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
        let mut hosted = Vec::new();
        for corpus in spec.corpora {
            let stem = format!("{}-{}", spec.name, corpus.tenant);
            let xml_path = out.join(format!("{stem}.xml"));
            let ltsx_path = out.join(format!("{stem}.ltsx"));
            let xml = lotusx_datagen::generate(corpus.dataset, corpus.scale, seed).to_xml();
            std::fs::write(&xml_path, &xml).map_err(|e| ctx("writing corpus XML", &e))?;
            // Parsed from the text, as the server does: node ids are in
            // parse order, which need not be the generator's.
            let built = LotusX::load_str(&xml).map_err(|e| ctx("indexing corpus", &e))?;
            drop(xml);
            built
                .save_snapshot(&ltsx_path)
                .map_err(|e| ctx("saving snapshot", &e))?;
            let elements = built.index().document().element_count();
            let ltsx_bytes = std::fs::metadata(&ltsx_path)
                .map_err(|e| ctx("snapshot size", &e))?
                .len();
            let engine = match corpus.boot {
                Boot::Xml => built,
                Boot::Snapshot => {
                    drop(built);
                    LotusX::open_snapshot(&ltsx_path).map_err(|e| ctx("opening snapshot", &e))?
                }
            };
            hosted.push(Hosted {
                corpus: *corpus,
                xml_path,
                ltsx_path,
                elements,
                ltsx_bytes,
                engine,
            });
        }
        let (routes, routes_path) = if hosted.len() > 1 {
            let sources: Vec<(&str, String)> = hosted
                .iter()
                .map(|h| (h.corpus.tenant, h.boot_path().display().to_string()))
                .collect();
            let text = routes_json(&sources);
            let path = out.join(format!("{}.routes.json", spec.name));
            std::fs::write(&path, &text).map_err(|e| ctx("writing routes file", &e))?;
            let config = RegistryConfig::parse(&text).map_err(|e| ctx("routes file", &e))?;
            (Some(RouteTable::new(config.rules)), Some(path))
        } else {
            (None, None)
        };
        Ok(Replica {
            hosted,
            routes,
            routes_path,
            limits: Limits::default(),
        })
    }

    pub fn hosted(&self) -> &[Hosted] {
        &self.hosted
    }

    pub fn engine(&self, tenant: usize) -> &LotusX {
        &self.hosted[tenant].engine
    }

    /// The corpus arguments that make `lotusx-serve` host this replica.
    pub fn server_args(&self) -> Vec<String> {
        if let Some(routes) = &self.routes_path {
            return vec!["--routes".to_string(), routes.display().to_string()];
        }
        let h = &self.hosted[0];
        match h.corpus.boot {
            Boot::Xml => vec!["--corpus".to_string(), h.xml_path.display().to_string()],
            Boot::Snapshot => vec![
                "--snapshot".to_string(),
                format!("load:{}", h.ltsx_path.display()),
            ],
        }
    }

    /// Snapshot bytes per element over all hosted corpora.
    pub fn snapshot_bytes_per_node(&self) -> f64 {
        let bytes: u64 = self.hosted.iter().map(|h| h.ltsx_bytes).sum();
        let nodes: usize = self.hosted.iter().map(|h| h.elements).sum();
        bytes as f64 / nodes as f64
    }

    /// Frames and routes a wire request the way the event loop does.
    fn route(&self, raw: &[u8], spans: &mut Spans) -> Fallible<Routed> {
        let status = spans.time("serve.http.parse", |_| {
            http::parse_request(raw, &self.limits)
        });
        let ParseStatus::Complete(parsed) = status else {
            return Err("generated request does not frame".to_string());
        };
        let (tenant, path) = match &self.routes {
            None => (0, parsed.request.path.clone()),
            Some(table) => {
                let request = &parsed.request;
                let matched = spans
                    .time("core.routing.resolve", |_| {
                        table.resolve(&request.path, &request.headers)
                    })
                    .ok_or_else(|| format!("no route for {}", request.path))?;
                let tenant = self
                    .hosted
                    .iter()
                    .position(|h| h.corpus.tenant == matched.tenant)
                    .ok_or_else(|| format!("unknown tenant {}", matched.tenant))?;
                (tenant, matched.path)
            }
        };
        Ok(Routed {
            tenant,
            path,
            request: parsed.request,
            keep_alive: !parsed.close,
        })
    }

    /// Answers one wire request through the same public functions the
    /// server's worker calls, one span per layer, and returns the
    /// response body. An `Err` means the generated request is not one
    /// the server would answer `200`.
    pub fn answer(&self, raw: &[u8], spans: &mut Spans) -> Fallible<String> {
        spans.time("request", |spans| {
            let Routed {
                tenant,
                path,
                request,
                keep_alive,
            } = self.route(raw, spans)?;
            let engine = self.engine(tenant);
            let body = match path.as_str() {
                "/query" => {
                    let query = spans.time("serve.wire.decode", |_| {
                        decode_body(&request.body, wire::decode_query)
                    })?;
                    let hits_before = engine.query_cache_stats().hits;
                    let response = spans
                        .time("core.query_miss", |_| engine.query(&query))
                        .map_err(|e| e.to_string())?;
                    if query.kind == QueryKind::Keyword {
                        spans.rename_last_closed("core.query_keyword");
                    } else if engine.query_cache_stats().hits > hits_before {
                        spans.rename_last_closed("core.query_hit");
                    } else if spans.enabled() {
                        spans.count("twig.matches", response.total_matches as u64);
                        // The one step of an uncached query the server
                        // keeps no stage histogram for.
                        let pattern = parse_query(&query.text).map_err(|e| e.to_string())?;
                        spans.time("twig.choose", |_| {
                            std::hint::black_box(choose_algorithm(engine.index(), &pattern));
                        });
                    }
                    spans.time("serve.wire.encode", |_| wire::encode_response(&response))
                }
                "/complete" => {
                    let complete = spans.time("serve.wire.decode", |_| {
                        decode_body(&request.body, wire::decode_complete)
                    })?;
                    let completion = engine.completion_engine();
                    match complete {
                        wire::CompleteRequest::Tag { context, prefix, k } => {
                            let found = spans.time("autocomplete.tag", |_| {
                                completion.complete_tag(&context, &prefix, k)
                            });
                            spans.time("serve.wire.encode", |_| wire::encode_tag_candidates(&found))
                        }
                        wire::CompleteRequest::Value { tag, prefix, k } => {
                            let found = spans.time("autocomplete.value", |_| {
                                completion.complete_value(&tag, &prefix, k)
                            });
                            spans.time("serve.wire.encode", |_| {
                                wire::encode_value_candidates(&found)
                            })
                        }
                    }
                }
                other => return Err(format!("workloads only query and complete, not {other}")),
            };
            spans.time("serve.http.encode", |_| {
                std::hint::black_box(http::encode_response(
                    200,
                    "application/json",
                    body.as_bytes(),
                    keep_alive,
                ));
            });
            Ok(body)
        })
    }

    /// Replays what the server's boot does for each hosted corpus, as
    /// calls into `xml`, `labeling`, `index`, `autocomplete` (XML boot)
    /// or `storage` and the snapshot decoder (snapshot boot), and
    /// returns the freshly booted copy: engines with cold caches, as a
    /// new server process has them.
    pub fn replay_boot(&self, spans: &mut Spans) -> Fallible<Replica> {
        let mut hosted = Vec::new();
        for h in &self.hosted {
            let engine = match h.corpus.boot {
                Boot::Xml => {
                    let xml = std::fs::read_to_string(&h.xml_path).map_err(|e| e.to_string())?;
                    let doc = spans
                        .time("xml.parse", |_| Document::parse_str(&xml))
                        .map_err(|e| e.to_string())?;
                    drop(xml);
                    // `IndexedDocument::build` labels the document
                    // itself; the separate call prices that share.
                    spans.time("labeling.compute", |_| {
                        std::hint::black_box(DocumentLabels::compute(&doc));
                    });
                    let idx = spans.time("index.build", |_| IndexedDocument::build(doc));
                    // What `from_indexed` does beyond taking ownership is
                    // prebuilding the value tries of the hottest tags.
                    spans.time("autocomplete.precompute", |_| LotusX::from_indexed(idx))
                }
                Boot::Snapshot => {
                    spans
                        .time("storage.snapshot_read", |_| {
                            lotusx_storage::read_snapshot_file(&h.ltsx_path).map(drop)
                        })
                        .map_err(|e| e.to_string())?;
                    spans
                        .time("core.open_snapshot", |_| {
                            LotusX::open_snapshot(&h.ltsx_path)
                        })
                        .map_err(|e| e.to_string())?
                }
            };
            hosted.push(Hosted {
                corpus: h.corpus,
                xml_path: h.xml_path.clone(),
                ltsx_path: h.ltsx_path.clone(),
                elements: h.elements,
                ltsx_bytes: h.ltsx_bytes,
                engine,
            });
        }
        Ok(Replica {
            hosted,
            routes: self.routes.clone(),
            routes_path: self.routes_path.clone(),
            limits: self.limits,
        })
    }
}

impl Hosted {
    /// The file the server boots this corpus from.
    pub fn boot_path(&self) -> &Path {
        match self.corpus.boot {
            Boot::Xml => &self.xml_path,
            Boot::Snapshot => &self.ltsx_path,
        }
    }
}

/// `Server::decode_body`: UTF-8, then JSON, then the endpoint's decoder.
fn decode_body<T>(
    body: &[u8],
    decode: impl FnOnce(&lotusx_obs::JsonValue) -> Result<T, String>,
) -> Fallible<T> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let value = lotusx_obs::parse_json(text).map_err(|e| e.to_string())?;
    decode(&value)
}

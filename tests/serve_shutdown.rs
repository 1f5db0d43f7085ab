//! Graceful-shutdown test: saturate the server with budgeted slow
//! queries on the treebank corpus, trigger shutdown mid-flight, and
//! verify every in-flight request still gets a complete, well-formed
//! response (complete or cleanly truncated) and the server joins fast.

use lotusx::{EngineRegistry, LotusX};
use lotusx_datagen::{generate, Dataset};
use lotusx_obs::parse_json;
use lotusx_serve::{client, ServeConfig, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// An expensive recursive twig on the deep treebank corpus; the naive
/// algorithm plus a huge (but finite) node budget keeps it busy long
/// enough for shutdown to land mid-query, while the budget machinery
/// keeps cancellation checkpoints active. `top_k` varies per client so
/// every request is a distinct cache key and must actually execute.
fn slow_query(client_id: usize) -> String {
    format!(
        "{{\"text\":\"//s//np//np//nn\",\"algorithm\":\"naive\",\
          \"top_k\":{},\"budget\":{{\"nodes\":500000000}}}}",
        9000 + client_id
    )
}

const CLIENTS: usize = 12;
const THREADS: usize = 4;

#[test]
fn shutdown_drains_in_flight_queries_cleanly() {
    let registry =
        EngineRegistry::single_tenant(LotusX::load_document(generate(Dataset::TreebankLike, 4, 7)));
    let config = ServeConfig {
        threads: THREADS,
        max_inflight: CLIENTS + 4,
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    let (results_tx, results_rx) = mpsc::channel::<Result<(u16, String), String>>();
    let started = AtomicUsize::new(0);

    let (join_elapsed, mut idle_conn) = std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run(&registry));

        // A parked keep-alive connection, established before the storm:
        // the event loop must reap it on shutdown instead of letting it
        // hold the drain open until the idle deadline.
        let mut idle_conn = client::Conn::connect(addr).expect("idle keep-alive connect");
        idle_conn.send("GET", "/healthz", None).expect("idle send");
        assert_eq!(idle_conn.read_one().expect("idle response").status, 200);

        for id in 0..CLIENTS {
            let results_tx = results_tx.clone();
            let started = &started;
            scope.spawn(move || {
                started.fetch_add(1, Ordering::SeqCst);
                let out = client::post(addr, "/query", &slow_query(id))
                    .map(|r| (r.status, r.body_text()))
                    .map_err(|e| e.to_string());
                let _ = results_tx.send(out);
            });
        }
        drop(results_tx);

        // Let the fleet get connected and (mostly) into query execution,
        // then pull the plug while work is in flight.
        while started.load(Ordering::SeqCst) < CLIENTS {
            std::thread::sleep(Duration::from_millis(1));
        }
        while handle.stats().requests < (THREADS as u64).min(CLIENTS as u64) {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(5));
        handle.shutdown();

        // The listener and every worker must join within a small bound:
        // in-flight queries observe the cancel token at their next
        // checkpoint instead of running to completion.
        let t0 = Instant::now();
        run.join().expect("server thread joins");
        (t0.elapsed(), idle_conn)
    });

    assert!(
        join_elapsed < Duration::from_secs(10),
        "shutdown drain took {join_elapsed:?}"
    );

    // The parked keep-alive connection was closed by the drain, not
    // abandoned: the client sees a clean FIN.
    assert!(
        idle_conn
            .at_eof()
            .expect("drain closes idle connections cleanly"),
        "shutdown must close parked keep-alive connections"
    );

    // Every client got a response: queued-but-unstarted connections are
    // drained (served with the cancelled token), never dropped.
    let results: Vec<_> = results_rx.iter().collect();
    assert_eq!(results.len(), CLIENTS);
    let mut truncated = 0usize;
    for out in results {
        let (status, body) = out.expect("every in-flight request gets a response");
        assert_eq!(status, 200, "body: {body}");
        let doc = parse_json(&body).expect("response body is complete, valid JSON");
        match doc.get("completeness").and_then(|v| v.as_str()) {
            Some("complete") => {}
            Some("truncated") => {
                truncated += 1;
                assert!(
                    doc.get("truncation_reason")
                        .and_then(|v| v.as_str())
                        .is_some(),
                    "truncated responses carry their reason"
                );
            }
            other => panic!("bad completeness field: {other:?}"),
        }
    }

    let stats = handle.stats();
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.queries, CLIENTS as u64);
    assert_eq!(stats.truncated_responses, truncated as u64);

    // The listener is really gone once the server is dropped: new
    // connections are refused, not silently parked in a backlog.
    drop(server);
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must stop accepting after shutdown"
    );
}

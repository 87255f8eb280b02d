//! The event-loop front end under many concurrent connections. This file
//! holds one test so that the resident-set growth it bounds is its own:
//! 512 connections stay open against the toy fp32 model while each puts
//! one request in flight per round. Every reply must be `Ok`, carry its
//! request's id and be bit-identical to the offline forward, and the
//! process may grow by at most 256 KiB per connection (client and server
//! sides together, since both live in this process).

use std::sync::Arc;
use std::time::Duration;

use quq_serve::{sys, Client, Fp32Provider, InferResponse, ServeConfig, Server};
use quq_vit::{Fp32Backend, ModelConfig, VitModel};

const CONNS: usize = 512;
const ROUNDS: usize = 2;
const MAX_RSS_KIB_PER_CONN: u64 = 256;

#[test]
fn many_connections_get_bit_exact_replies_matched_by_id_in_bounded_memory() {
    // Two descriptors per connection (client and server end) plus slack.
    let want_fds = 2 * CONNS as u64 + 64;
    let fds = sys::raise_nofile_limit(want_fds).expect("read the open-file limit");
    assert!(fds >= want_fds, "open-file limit {fds} < {want_fds}");

    let model = Arc::new(VitModel::synthesize(ModelConfig::test_config(), 77));
    let img = model.config().dummy_image(0.3);
    let offline = model.forward(&img, &mut Fp32Backend::new()).unwrap();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(Fp32Provider),
        ServeConfig {
            workers: 1,
            max_batch: 32,
            max_wait: Duration::from_millis(1),
            // Every connection's request fits, so nothing is shed.
            queue_capacity: 2 * CONNS,
            reactors: 1,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();

    let rss_before = sys::current_rss_kib().expect("VmRSS");
    // A lost reply fails the test after the timeout instead of hanging it.
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| {
            Client::builder()
                .timeout(Duration::from_secs(30))
                .connect(server.local_addr())
                .unwrap()
        })
        .collect();
    let mut rss_peak = rss_before;
    for round in 0..ROUNDS {
        // Every connection sends before any reads, so all 512 requests are
        // in flight together and the reactor multiplexes all of them.
        let ids: Vec<u32> = clients
            .iter_mut()
            .map(|c| c.send_infer(&img).unwrap())
            .collect();
        for (conn, (c, id)) in clients.iter_mut().zip(ids).enumerate() {
            match c.recv_response().unwrap() {
                (got, InferResponse::Ok { logits, .. }) => {
                    assert_eq!(got, id, "round {round}, conn {conn}: reply for another id");
                    assert_eq!(
                        logits,
                        offline.data(),
                        "round {round}, conn {conn}: logits not bit-exact"
                    );
                }
                (_, other) => panic!("round {round}, conn {conn}: {other:?}"),
            }
        }
        rss_peak = rss_peak.max(sys::current_rss_kib().expect("VmRSS"));
    }
    let per_conn = rss_peak.saturating_sub(rss_before) / CONNS as u64;
    assert!(
        per_conn <= MAX_RSS_KIB_PER_CONN,
        "{per_conn} KiB per connection (peak {rss_peak} KiB, before {rss_before} KiB)"
    );
    drop(clients);
    server.shutdown();
}

//! A server booted in-process for the integration suites: it serves on
//! an ephemeral loopback port from a background thread until
//! [`shutdown`].

use baryon_serve::client;
use baryon_serve::{ServeConfig, Server};
use baryon_sim::json::{parse, Json};
use std::net::SocketAddr;
use std::thread::JoinHandle;

/// Binds `cfg` (its port forced to 0) and runs it on a thread.
pub fn boot(cfg: ServeConfig) -> (SocketAddr, JoinHandle<()>) {
    let server =
        Server::bind(ServeConfig { port: 0, ..cfg }).expect("bind ephemeral loopback port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        server.run().expect("accept loop exits cleanly");
    });
    (addr, handle)
}

/// `POST /v1/shutdown` (must answer 200), then joins the server thread.
pub fn shutdown(addr: SocketAddr, handle: JoinHandle<()>) {
    let r = client::request(addr, "POST", "/v1/shutdown", None).expect("shutdown reachable");
    assert_eq!(r.status, 200, "{}", r.body);
    handle.join().expect("server thread exits");
}

/// Follows a job's event stream to its end and returns its status
/// document.
pub fn await_job(addr: SocketAddr, id: u64) -> Json {
    client::Client::new(addr)
        .await_end(id)
        .unwrap_or_else(|e| panic!("job {id} event stream: {e}"));
    let r =
        client::request(addr, "GET", &format!("/v1/jobs/{id}"), None).expect("status reachable");
    assert_eq!(r.status, 200, "{}", r.body);
    parse(&r.body).expect("status is JSON")
}

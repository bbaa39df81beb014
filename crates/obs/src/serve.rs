//! A dependency-free blocking HTTP scrape server.
//!
//! One `std::net::TcpListener` on one thread, serving read-only
//! endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition,
//! * `GET /healthz` — **liveness** JSON (is the process serving at all),
//! * `GET /readyz` — **readiness** JSON (load state, open breakers,
//!   quarantine depth; 503 while the broker should be drained — when
//!   installed via [`ScrapeHandlers::with_readyz`]),
//! * `GET /explain` — JSON array of recent match explanations,
//! * `GET /quality` — live precision/recall/F1 JSON (when the embedder
//!   installs a handler via [`ScrapeHandlers::with_quality`]),
//! * `GET /top` — top-k hottest themes/terms JSON (when installed via
//!   [`ScrapeHandlers::with_top`]),
//! * `GET /costs` — sampled cost-attribution JSON (when installed via
//!   [`ScrapeHandlers::with_costs`]),
//! * `GET /overload` — load-state / shedding / circuit-breaker JSON (when
//!   installed via [`ScrapeHandlers::with_overload`]),
//! * `GET /debug/bundle` — the latest flight-recorder diagnostic bundle
//!   (404 until one exists; installed via [`ScrapeHandlers::with_bundle`]),
//! * `POST /debug/trigger` — fires a manual diagnostic trigger (installed
//!   via [`ScrapeHandlers::with_trigger`]).
//!
//! Endpoints live in one route table, so dispatch, method checking
//! (known path + wrong method → 405), and the 404 help text all derive
//! from the same registrations — the help text can never drift from the
//! installed handlers again.
//!
//! The handlers are plain closures supplied by the embedding process, so
//! this crate stays free of tep dependencies and the broker stays free
//! of networking. Requests are served sequentially — a scrape endpoint
//! is polled by one Prometheus server every few seconds, not by a
//! crowd — which keeps the implementation at one thread, zero
//! dependencies, and no connection bookkeeping. Malformed, oversized, or
//! dropped requests get an error response (or a silently discarded
//! write); none of them can take the serving thread down.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-request read timeout: a scraper that stalls mid-request must not
/// wedge the single serving thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Upper bound on the request head we are willing to buffer.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Produces one response: `(status line, body)`. The content type is
/// fixed per route.
type RouteHandler = Box<dyn Fn() -> (&'static str, String) + Send + Sync>;

/// One installed endpoint.
struct Route {
    method: &'static str,
    path: &'static str,
    content_type: &'static str,
    respond: RouteHandler,
}

/// The route table, built by the embedder; see the module docs for the
/// endpoints.
pub struct ScrapeHandlers {
    routes: Vec<Route>,
}

/// Wraps an infallible body producer as an always-200 route handler.
fn ok(body: impl Fn() -> String + Send + Sync + 'static) -> RouteHandler {
    Box::new(move || ("200 OK", body()))
}

impl ScrapeHandlers {
    /// Bundles the `/metrics`, `/healthz`, and `/explain` body
    /// producers. Each is called once per matching request, on the
    /// serving thread. The remaining endpoints answer 404 until
    /// installed with their `with_*` builder.
    pub fn new(
        metrics: impl Fn() -> String + Send + Sync + 'static,
        healthz: impl Fn() -> String + Send + Sync + 'static,
        explain: impl Fn() -> String + Send + Sync + 'static,
    ) -> ScrapeHandlers {
        ScrapeHandlers {
            routes: vec![
                Route {
                    method: "GET",
                    path: "/metrics",
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    respond: ok(metrics),
                },
                Route {
                    method: "GET",
                    path: "/healthz",
                    content_type: "application/json",
                    respond: ok(healthz),
                },
                Route {
                    method: "GET",
                    path: "/explain",
                    content_type: "application/json",
                    respond: ok(explain),
                },
            ],
        }
    }

    /// Installs the `/quality` body producer (JSON).
    pub fn with_quality(
        mut self,
        quality: impl Fn() -> String + Send + Sync + 'static,
    ) -> ScrapeHandlers {
        self.routes.push(Route {
            method: "GET",
            path: "/quality",
            content_type: "application/json",
            respond: ok(quality),
        });
        self
    }

    /// Installs the `/top` body producer (JSON).
    pub fn with_top(mut self, top: impl Fn() -> String + Send + Sync + 'static) -> ScrapeHandlers {
        self.routes.push(Route {
            method: "GET",
            path: "/top",
            content_type: "application/json",
            respond: ok(top),
        });
        self
    }

    /// Installs the `/costs` body producer (JSON): the broker's
    /// sampled cost-attribution snapshot.
    pub fn with_costs(
        mut self,
        costs: impl Fn() -> String + Send + Sync + 'static,
    ) -> ScrapeHandlers {
        self.routes.push(Route {
            method: "GET",
            path: "/costs",
            content_type: "application/json",
            respond: ok(costs),
        });
        self
    }

    /// Installs the `/overload` body producer (JSON).
    pub fn with_overload(
        mut self,
        overload: impl Fn() -> String + Send + Sync + 'static,
    ) -> ScrapeHandlers {
        self.routes.push(Route {
            method: "GET",
            path: "/overload",
            content_type: "application/json",
            respond: ok(overload),
        });
        self
    }

    /// Installs the `/readyz` readiness producer: `(ready, body)`, served
    /// as 200 when ready and 503 when the broker should be drained.
    /// Distinct from `/healthz` liveness — an overloaded broker is alive
    /// (don't restart it) but not ready (stop routing new load to it).
    pub fn with_readyz(
        mut self,
        readyz: impl Fn() -> (bool, String) + Send + Sync + 'static,
    ) -> ScrapeHandlers {
        self.routes.push(Route {
            method: "GET",
            path: "/readyz",
            content_type: "application/json",
            respond: Box::new(move || {
                let (ready, body) = readyz();
                let status = if ready {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                };
                (status, body)
            }),
        });
        self
    }

    /// Installs the `/debug/bundle` producer: the latest diagnostic
    /// bundle JSON, or `None` (served as 404) while no trigger has fired
    /// yet.
    pub fn with_bundle(
        mut self,
        bundle: impl Fn() -> Option<String> + Send + Sync + 'static,
    ) -> ScrapeHandlers {
        self.routes.push(Route {
            method: "GET",
            path: "/debug/bundle",
            content_type: "application/json",
            respond: Box::new(move || match bundle() {
                Some(body) => ("200 OK", body),
                None => (
                    "404 Not Found",
                    "{\"error\": \"no bundle yet\"}\n".to_string(),
                ),
            }),
        });
        self
    }

    /// Installs the `POST /debug/trigger` handler: fires a manual
    /// diagnostic trigger and returns its JSON acknowledgement.
    pub fn with_trigger(
        mut self,
        trigger: impl Fn() -> String + Send + Sync + 'static,
    ) -> ScrapeHandlers {
        self.routes.push(Route {
            method: "POST",
            path: "/debug/trigger",
            content_type: "application/json",
            respond: ok(trigger),
        });
        self
    }

    /// The 404 body, derived from the installed routes so it can never
    /// drift from what is actually served.
    fn not_found_help(&self) -> String {
        let mut help = String::from("not found; try ");
        for (i, route) in self.routes.iter().enumerate() {
            if i > 0 {
                help.push_str(", ");
            }
            help.push_str(route.path);
        }
        help.push('\n');
        help
    }
}

impl fmt::Debug for ScrapeHandlers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScrapeHandlers")
            .field(
                "routes",
                &self
                    .routes
                    .iter()
                    .map(|r| format!("{} {}", r.method, r.path))
                    .collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

/// A running scrape server; dropping (or calling
/// [`ScrapeServer::shutdown`]) stops the serving thread.
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// The bound address (useful with port 0, which picks a free port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; poke it with one throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = handle.join();
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:9900"`, port 0 for an ephemeral port)
/// and serves the scrape endpoints on a background thread until the
/// returned [`ScrapeServer`] is shut down or dropped.
pub fn serve(addr: impl ToSocketAddrs, handlers: ScrapeHandlers) -> io::Result<ScrapeServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("tep-scrape".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if thread_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                let _ = handle_connection(&mut stream, &handlers);
            }
        })?;
    Ok(ScrapeServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

/// Reads the request head and writes one response.
fn handle_connection(stream: &mut TcpStream, handlers: &ScrapeHandlers) -> io::Result<()> {
    let (head, complete) = read_request_head(stream)?;
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let raw_path = parts.next().unwrap_or("");
    // Ignore any query string: `/metrics?x=1` still scrapes.
    let path = raw_path.split('?').next().unwrap_or(raw_path);

    let (status, content_type, body) = if !complete {
        (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "request head too large\n".to_string(),
        )
    } else if method.is_empty() || !path.starts_with('/') {
        (
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "malformed request line\n".to_string(),
        )
    } else if let Some(route) = handlers
        .routes
        .iter()
        .find(|r| r.path == path && r.method == method)
    {
        let (status, body) = (route.respond)();
        (status, route.content_type, body)
    } else if handlers.routes.iter().any(|r| r.path == path) {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            handlers.not_found_help(),
        )
    };

    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reads until the end of the request head (`\r\n\r\n`), EOF, or the
/// size cap. The flag reports whether the head terminator was seen
/// before the cap — a `false` with a full buffer means the client sent
/// an oversized head.
fn read_request_head(stream: &mut TcpStream) -> io::Result<(String, bool)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            // A request that stalls past the read timeout is treated as
            // what arrived; the response write to a dead peer just fails.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                0
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            return Ok((String::from_utf8_lossy(&buf).into_owned(), true));
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            return Ok((String::from_utf8_lossy(&buf).into_owned(), false));
        }
    }
    // EOF before the terminator: serve what we got (an empty or partial
    // line falls out as 400), never kill the thread.
    Ok((String::from_utf8_lossy(&buf).into_owned(), true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start() -> ScrapeServer {
        serve(
            "127.0.0.1:0",
            ScrapeHandlers::new(
                || "# TYPE t_total counter\nt_total 1\n".to_string(),
                || "{\"status\":\"ok\"}".to_string(),
                || "[]".to_string(),
            ),
        )
        .expect("bind ephemeral port")
    }

    fn request(addr: SocketAddr, head: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(head.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    #[test]
    fn serves_all_three_endpoints() {
        let server = start();
        let addr = server.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(metrics.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(metrics.ends_with("t_total 1\n"));

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(health.contains("Content-Type: application/json"));
        assert!(health.ends_with("{\"status\":\"ok\"}"));

        let explain = get(addr, "/explain?limit=5");
        assert!(explain.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(explain.ends_with("[]"), "query string is ignored");

        server.shutdown();
    }

    #[test]
    fn quality_and_top_are_404_until_installed() {
        let server = start();
        let addr = server.local_addr();
        assert!(get(addr, "/quality").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/top").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/costs").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/overload").starts_with("HTTP/1.1 404"));
        server.shutdown();

        let server = serve(
            "127.0.0.1:0",
            ScrapeHandlers::new(String::new, String::new, String::new)
                .with_quality(|| "{\"f1\":0.85}".to_string())
                .with_top(|| "{\"themes\":[]}".to_string())
                .with_costs(|| "{\"entries\":[]}".to_string())
                .with_overload(|| "{\"state\":\"healthy\"}".to_string()),
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let quality = get(addr, "/quality");
        assert!(quality.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(quality.contains("Content-Type: application/json"));
        assert!(quality.ends_with("{\"f1\":0.85}"));
        let top = get(addr, "/top");
        assert!(top.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(top.ends_with("{\"themes\":[]}"));
        let costs = get(addr, "/costs");
        assert!(costs.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(costs.contains("Content-Type: application/json"));
        assert!(costs.ends_with("{\"entries\":[]}"));
        let overload = get(addr, "/overload");
        assert!(overload.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(overload.ends_with("{\"state\":\"healthy\"}"));
        // The 404 hint advertises the new endpoints.
        assert!(get(addr, "/nope").contains("/quality, /top, /costs, /overload"));
        server.shutdown();
    }

    #[test]
    fn not_found_help_tracks_installed_routes() {
        let server = start();
        let addr = server.local_addr();
        let base = get(addr, "/nope");
        assert!(base.contains("try /metrics, /healthz, /explain\n"));
        assert!(
            !base.contains("/debug"),
            "uninstalled routes are not advertised"
        );
        server.shutdown();

        let server = serve(
            "127.0.0.1:0",
            ScrapeHandlers::new(String::new, String::new, String::new)
                .with_readyz(|| (true, "{}".to_string()))
                .with_bundle(|| None)
                .with_trigger(|| "{}".to_string()),
        )
        .expect("bind ephemeral port");
        let full = get(server.local_addr(), "/nope");
        assert!(
            full.contains(
                "try /metrics, /healthz, /explain, /readyz, /debug/bundle, /debug/trigger\n"
            ),
            "derived help lists every installed route: {full}"
        );
        server.shutdown();
    }

    #[test]
    fn readyz_reports_200_when_ready_and_503_when_not() {
        use std::sync::atomic::AtomicBool;
        let ready = Arc::new(AtomicBool::new(true));
        let probe = Arc::clone(&ready);
        let server = serve(
            "127.0.0.1:0",
            ScrapeHandlers::new(String::new, String::new, String::new).with_readyz(move || {
                let ok = probe.load(Ordering::SeqCst);
                (ok, format!("{{\"ready\": {ok}}}"))
            }),
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let up = get(addr, "/readyz");
        assert!(up.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(up.ends_with("{\"ready\": true}"));
        ready.store(false, Ordering::SeqCst);
        let down = get(addr, "/readyz");
        assert!(down.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(down.ends_with("{\"ready\": false}"));
        server.shutdown();
    }

    #[test]
    fn bundle_is_404_until_available_and_trigger_is_post_only() {
        use std::sync::Mutex;
        let bundle: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let reader = Arc::clone(&bundle);
        let writer = Arc::clone(&bundle);
        let server = serve(
            "127.0.0.1:0",
            ScrapeHandlers::new(String::new, String::new, String::new)
                .with_bundle(move || reader.lock().unwrap().clone())
                .with_trigger(move || {
                    *writer.lock().unwrap() = Some("{\"bundle_seq\": 0}".to_string());
                    "{\"triggered\": true}".to_string()
                }),
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let missing = get(addr, "/debug/bundle");
        assert!(missing.starts_with("HTTP/1.1 404"));
        // Not the plain-text route-help 404: a JSON error body with the
        // route's content type, so clients parsing the endpoint always
        // get JSON.
        assert!(missing.contains("Content-Type: application/json"));
        assert!(missing.ends_with("{\"error\": \"no bundle yet\"}\n"));
        // The trigger route only answers POST.
        assert!(get(addr, "/debug/trigger").starts_with("HTTP/1.1 405"));
        let fired = request(addr, "POST /debug/trigger HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(fired.starts_with("HTTP/1.1 200 OK\r\n"), "{fired}");
        assert!(fired.ends_with("{\"triggered\": true}"));
        let found = get(addr, "/debug/bundle");
        assert!(found.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(found.ends_with("{\"bundle_seq\": 0}"));
        server.shutdown();
    }

    #[test]
    fn unknown_path_is_404_and_non_get_is_405() {
        let server = start();
        let addr = server.local_addr();
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404 Not Found\r\n"));
        let post = request(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        server.shutdown();
    }

    #[test]
    fn content_length_matches_body() {
        let server = start();
        let resp = get(server.local_addr(), "/healthz");
        let (head, body) = resp.split_once("\r\n\r\n").expect("head/body split");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("length header")
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        server.shutdown();
    }

    #[test]
    fn malformed_request_lines_get_400_and_the_thread_survives() {
        let server = start();
        let addr = server.local_addr();
        for junk in [
            "GARBAGE\r\n\r\n",
            "\r\n\r\n",
            "GET\r\n\r\n",
            "GET nopath HTTP/1.1\r\n\r\n",
            "\0\0\0\0\r\n\r\n",
        ] {
            let resp = request(addr, junk);
            assert!(
                resp.starts_with("HTTP/1.1 400 Bad Request\r\n"),
                "junk {junk:?} got {resp:?}"
            );
        }
        // The serving thread survived all of it.
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 OK\r\n"));
        server.shutdown();
    }

    #[test]
    fn oversized_request_head_gets_431_and_the_thread_survives() {
        let server = start();
        let addr = server.local_addr();
        // A header stream that reaches the cap without ever terminating.
        // Sized to exactly the cap so the server drains every byte before
        // responding (a closing socket with unread data would RST the
        // connection and discard the response we want to assert on).
        let prefix = "GET /metrics HTTP/1.1\r\nX-Pad: ";
        let huge = format!("{prefix}{}", "x".repeat(MAX_REQUEST_BYTES - prefix.len()));
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.write_all(huge.as_bytes());
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(
            resp.starts_with("HTTP/1.1 431 "),
            "oversized head got {:?}",
            resp.lines().next()
        );
        drop(s);
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200 OK\r\n"));
        server.shutdown();
    }

    #[test]
    fn partial_reads_and_mid_response_drops_do_not_kill_the_thread() {
        let server = start();
        let addr = server.local_addr();
        // Partial request line, then the client vanishes.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /met").unwrap();
        } // dropped before the head terminator
          // Full request, but the client drops before reading the response.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
        } // dropped mid-response
          // An empty connection (no bytes at all).
        {
            let _s = TcpStream::connect(addr).expect("connect");
        }
        // The serving thread is still alive and serving.
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200 OK\r\n"));
        server.shutdown();
    }

    #[test]
    fn drop_stops_the_server() {
        let server = start();
        let addr = server.local_addr();
        drop(server);
        // The port is released: either connects are refused or a fresh
        // bind on the same port succeeds.
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err()
                || TcpListener::bind(addr).is_ok()
        );
    }
}

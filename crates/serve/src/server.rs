//! The TCP front end: newline-delimited JSON over `std::net`, one
//! connection per worker-pool job.
//!
//! The accept loop is deliberately boring: take a connection, queue it for
//! the worker pool (a fixed set of `std` threads on one `mpsc` queue),
//! repeat. Each connection handler reads lines, feeds them through
//! [`Service::handle_line`] (which never panics), and writes one response
//! line per request. A `shutdown` frame acks, then trips a flag the accept
//! loop checks; a wake-up connection from the handler unblocks `accept` so
//! the daemon exits promptly without platform-specific socket tricks.

use crate::protocol::{caps, error_line};
use crate::service::Service;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Runs the service behind `listener` with `workers` connection handlers
/// (at least one). Blocks until a client sends a `shutdown` frame, then drains: open
/// connections are served to EOF before the worker pool is released, so a
/// shutdown never cuts off an in-flight response (clients that want a fast
/// daemon exit should close their connections first). A worker thread the
/// system refuses to start is an error, not a panic.
pub fn serve(listener: TcpListener, service: Arc<Service>, workers: usize) -> std::io::Result<u64> {
    let pool = Pool::new(workers.max(1))?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut connections = 0u64;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(stream) => stream,
            // A failed accept (e.g. the client vanished between SYN and
            // accept) is that client's problem, not the daemon's.
            Err(e) => {
                cello_obs::warn!("serve", "accept failed: {e}");
                continue;
            }
        };
        connections += 1;
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        pool.spawn(move || handle_connection(stream, &service, &stop, local));
    }
    Ok(connections)
}

type Job = Box<dyn FnOnce() + Send>;

/// Fixed worker threads taking jobs from one queue. Dropping the pool
/// closes the queue and joins the workers, which finish every queued job
/// first.
struct Pool {
    queue: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(workers: usize) -> std::io::Result<Self> {
        let (queue, jobs) = mpsc::channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        // Built before the workers, so a refused spawn drops (and joins)
        // the ones already running.
        let mut pool = Pool {
            queue: Some(queue),
            workers: Vec::with_capacity(workers),
        };
        for _ in 0..workers {
            let jobs = Arc::clone(&jobs);
            let worker = std::thread::Builder::new().spawn(move || loop {
                let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok(job) = job else {
                    return; // the queue is closed: the pool was dropped
                };
                // A panicking connection must not take its worker down: a
                // long-running daemon would slowly lose its whole pool.
                let _ = catch_unwind(AssertUnwindSafe(job));
            })?;
            pool.workers.push(worker);
        }
        Ok(pool)
    }

    /// Queues a job for the next free worker.
    fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(queue) = &self.queue {
            // Every worker exits only after the queue closes, in `drop`,
            // so a send cannot fail while `&self` is alive.
            let _ = queue.send(Box::new(job));
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.queue.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One connection: a sequence of newline-delimited frames.
fn handle_connection(stream: TcpStream, service: &Service, stop: &AtomicBool, local: SocketAddr) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    // One small request/response pair per round trip: Nagle + delayed ACK
    // would add ~40 ms to every exchange.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            cello_obs::error!("serve", "{peer}: cannot clone stream: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // Capped read: `read_line` into an unbounded String would let a
        // client stream newline-less bytes until the daemon OOMs — the
        // MAX_LINE_BYTES cap must bind *while reading*, not after. An
        // over-long frame gets a typed error and the connection closes
        // (framing can't be resynced mid-line).
        match read_capped_line(&mut reader, &mut line, caps::MAX_LINE_BYTES) {
            Ok(0) => return, // EOF: client done
            Ok(_) => {}
            Err(ReadLineError::TooLong) => {
                let err = crate::error::ServeError::TooLarge(format!(
                    "frame exceeds {} bytes",
                    caps::MAX_LINE_BYTES
                ));
                let _ = writer.write_all(format!("{}\n", error_line(0, &err)).as_bytes());
                return;
            }
            Err(ReadLineError::Io(e)) => {
                cello_obs::warn!("serve", "{peer}: read failed: {e}");
                return;
            }
        }
        let line = String::from_utf8_lossy(&line);
        if line.trim().is_empty() {
            continue;
        }
        let (mut response, shutdown) = service.handle_line(&line);
        response.push('\n');
        // One write per response (a split frame + Nagle costs a delayed-ACK
        // round trip per request).
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            // The client hung up mid-response; nothing left to serve it.
            return;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop so it observes the flag.
            let _ = TcpStream::connect(local);
            return;
        }
    }
}

enum ReadLineError {
    /// The line outgrew the cap before a newline arrived.
    TooLong,
    /// The underlying read failed.
    Io(std::io::Error),
}

/// Reads one `\n`-terminated line into `buf` (newline excluded), refusing
/// to buffer more than `cap` bytes. Returns the number of bytes read (0 =
/// clean EOF).
fn read_capped_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    cap: usize,
) -> Result<usize, ReadLineError> {
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadLineError::Io(e)),
        };
        if available.is_empty() {
            // EOF mid-line still yields what we have (matches read_line).
            return Ok(buf.len());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                if buf.len() + newline > cap {
                    return Err(ReadLineError::TooLong);
                }
                buf.extend_from_slice(&available[..newline]);
                reader.consume(newline + 1);
                return Ok(buf.len() + 1);
            }
            None => {
                let take = available.len();
                if buf.len() + take > cap {
                    return Err(ReadLineError::TooLong);
                }
                buf.extend_from_slice(available);
                reader.consume(take);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use cello_obs::json::Json;
    use std::sync::atomic::AtomicUsize;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cello-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Sends one line, reads one line.
    fn round_trip(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        out
    }

    #[test]
    fn pool_runs_every_queued_job_before_drop_returns() {
        let pool = Pool::new(4).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    /// One worker: if a panicking job cost it, no later job would run.
    #[test]
    fn panicking_job_does_not_cost_a_worker() {
        let pool = Pool::new(1).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..16 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                if i % 2 == 0 {
                    panic!("job {i} goes down");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    /// Full daemon loop over a real socket: compile (miss), compile (hit),
    /// malformed frame (typed error), stats, shutdown — then the serve loop
    /// actually returns.
    #[test]
    fn end_to_end_over_tcp() {
        let dir = tmpdir("e2e");
        let service = Arc::new(Service::open(&dir).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve(listener, service, 4).unwrap())
        };

        let mut req = Request::cg("fv1");
        req.iterations = 1;
        req.strategy = "beam2".into();
        req.id = 1;
        let first =
            Response::from_json(&Json::parse(&round_trip(addr, &req.to_line())).unwrap()).unwrap();
        assert_eq!(first.cache.as_str(), "miss");
        req.id = 2;
        let second =
            Response::from_json(&Json::parse(&round_trip(addr, &req.to_line())).unwrap()).unwrap();
        assert_eq!(second.cache.as_str(), "hit");
        assert_eq!(second.best_key, first.best_key);

        let err = round_trip(addr, "{ not json");
        assert!(err.contains("\"status\": \"error\""), "{err}");

        let stats = round_trip(addr, r#"{"op": "stats"}"#);
        assert!(stats.contains("\"hits\": 1"), "{stats}");

        let ack = round_trip(addr, r#"{"op": "shutdown"}"#);
        assert!(ack.contains("\"shutdown\""));
        daemon.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A strategy whose draws would not fit in memory gets a typed
    /// `too-large` error before any tuning, and the daemon answers the
    /// next request.
    #[test]
    fn oversized_strategy_is_rejected_and_the_daemon_keeps_serving() {
        let dir = tmpdir("strategy-cap");
        let service = Arc::new(Service::open(&dir).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve(listener, service, 2).unwrap())
        };
        let mut req = Request::cg("fv1");
        req.iterations = 1;
        req.strategy = "random100000000000@1".into();
        let err = round_trip(addr, &req.to_line());
        assert!(err.contains("too-large"), "{err}");
        req.strategy = "beam2".into();
        req.id = 2;
        let next =
            Response::from_json(&Json::parse(&round_trip(addr, &req.to_line())).unwrap()).unwrap();
        assert_eq!(next.id, 2);
        assert_eq!(next.cache.as_str(), "miss");
        let _ = round_trip(addr, r#"{"op": "shutdown"}"#);
        daemon.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A newline-less flood larger than the frame cap gets a typed
    /// `too-large` error and a closed connection — the daemon buffers at
    /// most `caps::MAX_LINE_BYTES`, it does not read until OOM.
    #[test]
    fn oversized_frame_is_rejected_while_reading() {
        let dir = tmpdir("flood");
        let service = Arc::new(Service::open(&dir).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve(listener, service, 2).unwrap())
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        let chunk = vec![b'x'; 1 << 16];
        // Write until the server refuses (it answers + closes once the cap
        // trips); cap our own effort at ~2x the server cap.
        let mut sent = 0usize;
        while sent <= 2 * caps::MAX_LINE_BYTES {
            match stream.write_all(&chunk) {
                Ok(()) => sent += chunk.len(),
                Err(_) => break, // server already closed on us
            }
        }
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("too-large"), "{line}");
        let _ = round_trip(addr, r#"{"op": "shutdown"}"#);
        daemon.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Several frames down one connection get one response line each, in
    /// order.
    #[test]
    fn pipelined_frames_one_connection() {
        let dir = tmpdir("pipeline");
        let service = Arc::new(Service::open(&dir).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve(listener, service, 2).unwrap())
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut req = Request::cg("fv1");
        req.iterations = 1;
        req.strategy = "beam2".into();
        for id in [10, 11, 12] {
            req.id = id;
            stream
                .write_all(format!("{}\n", req.to_line()).as_bytes())
                .unwrap();
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for id in [10, 11, 12] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let resp = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(resp.id, id);
        }
        // Close *both* fds of the main connection (the reader holds a dup;
        // the handler only sees EOF — and the pool only drains — once every
        // clone is gone).
        drop(reader);
        drop(stream);
        let _ = round_trip(
            addr,
            &Json::Obj(vec![("op".into(), Json::Str("shutdown".into()))]).compact(),
        );
        daemon.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

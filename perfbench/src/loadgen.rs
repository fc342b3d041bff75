//! Single-threaded load generator over pipelined NDJSON connections.
//!
//! One thread drives every connection through `ppoll(2)`, so the
//! generator adds one thread and `conns.len()` sockets to the machine,
//! never more than it has cores. Requests are assigned to connections in
//! turn and answered in order on each (the protocol pipelines in order).
//!
//! * **Open loop** ([`Mode::Open`]): request `i` is due at `due[i]` and is
//!   sent then, whatever the server is doing. Latency is measured from the
//!   *due* time, so a stalled reply also charges the requests queued behind
//!   it, and how late the generator itself sent is recorded separately.
//! * **Closed loop** ([`Mode::Closed`]): each connection keeps exactly one
//!   request outstanding; used for the fixed back-to-back batch.

use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// How requests are released.
pub enum Mode<'a> {
    /// Request `i` is sent at `due[i]` after the start.
    Open(&'a [Duration]),
    /// Each connection sends its next request when the previous answered.
    Closed,
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When it was due (open loop) or released (closed loop).
    pub due: Duration,
    /// When the generator handed it to the socket.
    pub sent: Option<Duration>,
    /// When its reply line arrived.
    pub done: Option<Duration>,
    /// The reply line, without the newline.
    pub reply: Option<String>,
}

impl Outcome {
    /// Reply time minus due time, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        Some((self.done?.saturating_sub(self.due)).as_secs_f64() * 1e3)
    }

    /// How late the generator sent, in milliseconds.
    pub fn late_ms(&self) -> Option<f64> {
        Some((self.sent?.saturating_sub(self.due)).as_secs_f64() * 1e3)
    }
}

/// Result of one generator pass.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// One outcome per request, in request order.
    pub outcomes: Vec<Outcome>,
    /// `(time, requests sent but unanswered)` sampled at every send.
    pub inflight: Vec<(Duration, usize)>,
    /// Wall time from start to the last reply (or the give-up point).
    pub elapsed: Duration,
}

struct Conn<'a> {
    stream: &'a mut TcpStream,
    out: Vec<u8>,
    in_buf: Vec<u8>,
    pending: VecDeque<usize>,
    open: bool,
}

/// Sends `lines` (no trailing newlines) over `conns` and collects the
/// replies. Gives up `drain` after the last request was released;
/// requests still unanswered then have no `done` time.
///
/// # Errors
///
/// Returns an I/O error if polling fails or a server sends a reply line
/// nobody asked for.
pub fn drive(
    conns: &mut [TcpStream],
    lines: &[String],
    mode: Mode<'_>,
    drain: Duration,
) -> io::Result<Run> {
    assert!(!conns.is_empty(), "at least one connection");
    if let Mode::Open(due) = &mode {
        assert_eq!(due.len(), lines.len(), "one due time per request");
    }
    let mut conns: Vec<Conn<'_>> = conns
        .iter_mut()
        .map(|stream| {
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            Ok(Conn {
                stream,
                out: Vec::new(),
                in_buf: Vec::new(),
                pending: VecDeque::new(),
                open: true,
            })
        })
        .collect::<io::Result<_>>()?;
    let mut run = Run {
        outcomes: vec![Outcome::default(); lines.len()],
        ..Run::default()
    };
    let start = Instant::now();
    let mut next = 0;
    let mut outstanding = 0usize;
    let mut last_release = Duration::ZERO;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let now = start.elapsed();
        // Release every request that is due.
        while next < lines.len() {
            let slot = match &mode {
                Mode::Open(due) if due[next] <= now => Some((next % conns.len(), due[next])),
                Mode::Open(_) => None,
                Mode::Closed => conns
                    .iter()
                    .position(|c| c.open && c.pending.is_empty())
                    .map(|c| (c, now)),
            };
            let Some((c, due)) = slot else { break };
            let conn = &mut conns[c];
            run.outcomes[next].due = due;
            if conn.open {
                conn.out.extend_from_slice(lines[next].as_bytes());
                conn.out.push(b'\n');
                conn.pending.push_back(next);
                run.outcomes[next].sent = Some(now);
                outstanding += 1;
            }
            run.inflight.push((now, outstanding));
            last_release = now;
            next += 1;
        }
        for conn in conns.iter_mut().filter(|c| c.open && !c.out.is_empty()) {
            match conn.stream.write(&conn.out) {
                Ok(n) => {
                    conn.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => close(conn, &mut outstanding),
            }
        }
        let now = start.elapsed();
        if conns.iter().all(|c| !c.open) {
            // Every server hung up: the rest can never be sent.
            run.elapsed = now;
            return Ok(run);
        }
        if next == lines.len() && (outstanding == 0 || now > last_release + drain) {
            run.elapsed = now;
            return Ok(run);
        }
        let wait = match &mode {
            Mode::Open(due) if next < lines.len() => due[next].saturating_sub(now),
            _ => Duration::from_millis(20),
        }
        .min(Duration::from_millis(20));
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: if c.open { c.stream.as_raw_fd() } else { -1 },
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        if sys::poll(&mut fds, wait)? == 0 {
            continue;
        }
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            if !conn.open || fd.revents == 0 {
                continue;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        close(conn, &mut outstanding);
                        break;
                    }
                    Ok(n) => conn.in_buf.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        close(conn, &mut outstanding);
                        break;
                    }
                }
            }
            let arrived = start.elapsed();
            while let Some(pos) = conn.in_buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = conn.in_buf.drain(..=pos).collect();
                let idx = conn.pending.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "reply with no request")
                })?;
                outstanding -= 1;
                let outcome = &mut run.outcomes[idx];
                outcome.done = Some(arrived);
                outcome.reply = Some(String::from_utf8_lossy(&line[..pos]).into_owned());
            }
        }
    }
}

fn close(conn: &mut Conn<'_>, outstanding: &mut usize) {
    conn.open = false;
    *outstanding -= conn.pending.len();
    conn.pending.clear();
    conn.out.clear();
}

/// Whether a step's backlog grew: the mean number of unanswered requests
/// rises from each quarter of the step's sends to the next, and the last
/// quarter's mean exceeds twice the first's plus two. A server keeping up
/// holds the in-flight count flat around rate × latency; one falling
/// behind accumulates requests steadily, while a single stall raises only
/// the quarter it falls in.
pub fn backlog_grew(inflight: &[(Duration, usize)]) -> bool {
    let quarter = inflight.len() / 4;
    if quarter == 0 {
        return false;
    }
    let means: Vec<f64> = inflight
        .chunks_exact(quarter)
        .take(4)
        .map(|q| q.iter().map(|&(_, n)| n as f64).sum::<f64>() / q.len() as f64)
        .collect();
    means.windows(2).all(|w| w[1] > w[0]) && means[3] > 2.0 * means[0] + 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// Echo server answering in order; the reply to `stall_at` waits
    /// `stall` first, which holds back every reply pipelined behind it.
    fn stalling_echo(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let (sock, _) = listener.accept().expect("accept");
            let mut writer = sock.try_clone().expect("clone");
            for (i, line) in BufReader::new(sock).lines().enumerate() {
                let line = line.expect("read");
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                writeln!(writer, "{line}").expect("write");
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stalled_reply_inflates_the_latency_of_requests_queued_behind_it() {
        let (addr, server) = stalling_echo(2, Duration::from_millis(300));
        let mut conns = vec![TcpStream::connect(&addr).expect("connect")];
        let lines: Vec<String> = (0..8).map(|i| format!("req{i}")).collect();
        let due: Vec<Duration> = (0..8).map(|i| Duration::from_millis(20 * i)).collect();
        let run =
            drive(&mut conns, &lines, Mode::Open(&due), Duration::from_secs(5)).expect("drive");
        drop(conns);
        server.join().expect("server thread");
        for (i, o) in run.outcomes.iter().enumerate() {
            assert_eq!(o.reply.as_deref(), Some(lines[i].as_str()));
            assert!(
                o.late_ms().expect("sent") < 15.0,
                "generator sent late: {o:?}"
            );
        }
        let lat: Vec<f64> = run
            .outcomes
            .iter()
            .map(|o| o.latency_ms().expect("answered"))
            .collect();
        assert!(lat[0] < 100.0 && lat[1] < 100.0, "{lat:?}");
        // Request 2 stalls 300 ms; request 5 was due 60 ms later and sent
        // on time, yet waits behind it: its latency counts from its due
        // time, so it must show most of the stall.
        assert!(lat[2] >= 290.0, "{lat:?}");
        assert!(lat[5] >= 200.0, "{lat:?}");
        assert!(lat[5] < lat[2], "{lat:?}");
    }

    #[test]
    fn closed_loop_keeps_one_request_outstanding_per_connection() {
        let (addr, server) = stalling_echo(usize::MAX, Duration::ZERO);
        let mut conns = vec![TcpStream::connect(&addr).expect("connect")];
        let lines: Vec<String> = (0..50).map(|i| format!("r{i}")).collect();
        let run = drive(&mut conns, &lines, Mode::Closed, Duration::from_secs(5)).expect("drive");
        drop(conns);
        server.join().expect("server thread");
        assert!(run.inflight.iter().all(|&(_, n)| n == 1));
        assert!(run.outcomes.iter().all(|o| o.reply.is_some()));
    }

    #[test]
    fn backlog_detection_separates_a_flat_queue_from_a_growing_one() {
        let at = |i: usize| Duration::from_millis(i as u64);
        let flat: Vec<_> = (0..400).map(|i| (at(i), 1 + i % 3)).collect();
        assert!(!backlog_grew(&flat));
        let growing: Vec<_> = (0..400).map(|i| (at(i), 1 + i / 10)).collect();
        assert!(backlog_grew(&growing));
        // A brief burst, even at the very end, is not a growing backlog.
        for (from, to) in [(180, 220), (360, 400)] {
            let burst: Vec<_> = (0..400)
                .map(|i| (at(i), if (from..to).contains(&i) { 30 } else { 2 }))
                .collect();
            assert!(!backlog_grew(&burst), "burst {from}..{to}");
        }
        assert!(!backlog_grew(&[]));
    }
}

//! Child `smith85 serve` processes: spawn, wait until ready, query,
//! shut down. Every child is killed and reaped when its [`Fleet`] is
//! dropped, so no server outlives a failed or interrupted run.

use smith85_serve::protocol::{Request, Response, StatsResult};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a server may take to print its banner and answer a ping.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// One running server process.
pub struct Server {
    child: Child,
    /// `host:port` the server listens on.
    pub addr: String,
}

impl Server {
    /// Process id, as a `/proc` path component.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

/// A set of servers that lives and dies together.
#[derive(Default)]
pub struct Fleet {
    /// The servers, in spawn order.
    pub servers: Vec<Server>,
}

impl Fleet {
    /// Spawns `smith85 serve --addr 127.0.0.1:0 <args>` with its stderr
    /// in `log`, and waits until it listens and answers `ping`.
    ///
    /// # Errors
    ///
    /// Returns an error if the process cannot start or is not ready
    /// within 30 s.
    pub fn spawn(&mut self, bin: &Path, args: &[String], log: &Path) -> io::Result<String> {
        let mut command = Command::new(bin);
        command
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?);
        crate::sys::die_with_parent(&mut command);
        let child = command.spawn()?;
        self.servers.push(Server {
            child,
            addr: String::new(),
        });
        let deadline = Instant::now() + READY_TIMEOUT;
        let addr = loop {
            let banner = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = banner
                .lines()
                .find_map(|l| l.split("listening on ").nth(1))
                .and_then(|rest| rest.split_whitespace().next())
            {
                break addr.to_string();
            }
            let server = self.servers.last_mut().expect("just pushed");
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "server exited with {status} before listening: {banner}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not print its address"));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        loop {
            if let Ok(Response::Pong) = call(&addr, &Request::Ping) {
                break;
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "server at {addr} never answered ping"
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.servers.last_mut().expect("just pushed").addr = addr.clone();
        Ok(addr)
    }

    /// Sum of the servers' peak resident sets, in MiB.
    ///
    /// # Errors
    ///
    /// Returns an error if a server's `/proc` status cannot be read.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        self.servers
            .iter()
            .map(|s| crate::sys::peak_rss_mib(&s.pid()))
            .sum()
    }

    /// Sum of the servers' CPU seconds so far, at nanosecond resolution
    /// (server threads are long-lived pools, so every thread that did
    /// the work is still there to be counted).
    ///
    /// # Errors
    ///
    /// Returns an error if a server's `/proc` task list cannot be read.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        self.servers
            .iter()
            .map(|s| crate::sys::thread_cpu_seconds(&s.pid()))
            .sum()
    }

    /// Asks every server to shut down, last spawned first (the router
    /// before its shards), and waits for each to exit; a server still
    /// running after 20 s is killed.
    ///
    /// # Errors
    ///
    /// Returns an error if a server exited unsuccessfully or had to be
    /// killed.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut result = Ok(());
        while let Some(mut server) = self.servers.pop() {
            let _ = call(&server.addr, &Request::Shutdown);
            let deadline = Instant::now() + Duration::from_secs(20);
            let status = loop {
                if let Some(status) = server.child.try_wait()? {
                    break Some(status);
                }
                if Instant::now() > deadline {
                    break None;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            match status {
                Some(s) if s.success() => {}
                other => {
                    let _ = server.child.kill();
                    let _ = server.child.wait();
                    if result.is_ok() {
                        result = Err(io::Error::other(format!(
                            "server {} did not shut down cleanly ({other:?})",
                            server.addr
                        )));
                    }
                }
            }
        }
        result
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for server in &mut self.servers {
            let _ = server.child.kill();
            let _ = server.child.wait();
        }
    }
}

/// One request over a fresh connection, for control calls.
///
/// # Errors
///
/// Returns connection errors and undecodable replies.
pub fn call(addr: &str, request: &Request) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let reply = roundtrip(&mut stream, &request.encode())?;
    Response::decode(&reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes one request line and reads one reply line (without newline).
///
/// # Errors
///
/// Returns I/O errors, and `UnexpectedEof` if the server hung up.
pub fn roundtrip(stream: &mut TcpStream, line: &str) -> io::Result<String> {
    // One write with Nagle off: a separate newline segment would wait for
    // the server's delayed ACK and add ~40 ms to every round trip.
    stream.set_nodelay(true)?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = Vec::new();
    let mut reader = BufReader::new(&mut *stream);
    reader.read_until(b'\n', &mut reply)?;
    if reply.last() != Some(&b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server hung up",
        ));
    }
    reply.pop();
    String::from_utf8(reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The `stats` answer of the server at `addr`.
///
/// # Errors
///
/// Returns an error if the call fails or the reply is not `stats`.
pub fn stats(addr: &str) -> io::Result<StatsResult> {
    match call(addr, &Request::Stats)? {
        Response::Stats(stats) => Ok(stats),
        other => Err(io::Error::other(format!("stats answered {other:?}"))),
    }
}

//! Blocking client for the admission service.
//!
//! [`Client`] shares the wire codec with the server, so there is
//! exactly one encoding of every frame in the tree. Two styles of use:
//!
//! * **Call/response** — the typed helpers ([`Client::setup`],
//!   [`Client::release`], …) send one request, flush, and read one
//!   reply.
//! * **Pipelined** — [`Client::send`] queues frames without flushing;
//!   [`Client::flush`] pushes them out; [`Client::recv`] reads replies.
//!   Server sessions dispatch serially, so replies come back in request
//!   order and a FIFO of in-flight requests is all the matching a
//!   caller needs. A session flushes once per read batch, so the
//!   replies to a burst that reached it in one read arrive together.
//!   The open-loop load generator lives on this path.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use rtcac_signaling::SetupRequest;

use crate::proto::{ErrorCode, Request, Response};
use crate::wire::{read_frame, write_frame, WireError};

/// First retry delay when the server answers `SnapshotRestoring`.
const RESTORE_BACKOFF_START: Duration = Duration::from_millis(25);
/// Per-step backoff cap.
const RESTORE_BACKOFF_MAX: Duration = Duration::from_millis(500);
/// Retry attempts before giving up on a restoring server (the
/// geometric backoff makes this several seconds of patience in total).
const RESTORE_RETRIES: u32 = 40;

/// A blocking connection to an `rtcac serve` process.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to the service at `addr`.
    ///
    /// # Errors
    ///
    /// Any socket-level connect failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A generous timeout so a wedged server surfaces as an error
        // instead of a hang; normal replies arrive in microseconds.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// Wraps an already-connected stream (tests drive half-raw
    /// sessions this way: frames written on the original stream, typed
    /// replies read through the client).
    ///
    /// # Errors
    ///
    /// Any socket-level clone failure.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// Queues one request without flushing (the pipelined path).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the socket write fails.
    pub fn send(&mut self, request: &Request) -> Result<(), WireError> {
        write_frame(&mut self.writer, &request.encode())
    }

    /// Flushes all queued requests to the socket.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the flush fails.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.writer.flush().map_err(WireError::Io)
    }

    /// Reads the next reply frame (FIFO order w.r.t. sent requests).
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] when the server hung up; any codec error
    /// when the reply is malformed.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        let payload = read_frame(&mut self.reader)?;
        Response::decode(&payload)
    }

    /// Sends one request and reads its reply.
    ///
    /// # Errors
    ///
    /// Socket or codec failures from either direction.
    pub fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        self.send(request)?;
        self.flush()?;
        self.recv()
    }

    /// Asks the server what it is serving.
    ///
    /// A server that is warm-restarting from a snapshot answers every
    /// request with the typed [`ErrorCode::SnapshotRestoring`] error;
    /// this helper backs off geometrically and retries until the
    /// restore finishes, so load generators ride out a restart instead
    /// of misreading it as a refusal.
    ///
    /// # Errors
    ///
    /// Socket or codec failures, or the last `SnapshotRestoring` error
    /// when the server is still restoring after the full retry budget.
    pub fn hello(&mut self) -> Result<Response, WireError> {
        let mut backoff = RESTORE_BACKOFF_START;
        for _ in 0..RESTORE_RETRIES {
            match self.call(&Request::Hello)? {
                Response::Error {
                    code: ErrorCode::SnapshotRestoring,
                    ..
                } => {
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(RESTORE_BACKOFF_MAX);
                }
                reply => return Ok(reply),
            }
        }
        self.call(&Request::Hello)
    }

    /// Requests admission over an explicit route (external link ids).
    ///
    /// # Errors
    ///
    /// Socket or codec failures. An admission *rejection* is a normal
    /// [`Response::Rejected`] reply, not an error.
    pub fn setup(&mut self, links: &[u32], request: SetupRequest) -> Result<Response, WireError> {
        self.call(&Request::Setup {
            links: links.to_vec(),
            request,
        })
    }

    /// Requests multicast admission over an explicit tree.
    ///
    /// # Errors
    ///
    /// Socket or codec failures.
    pub fn setup_mcast(
        &mut self,
        links: &[u32],
        request: SetupRequest,
    ) -> Result<Response, WireError> {
        self.call(&Request::SetupMcast {
            links: links.to_vec(),
            request,
        })
    }

    /// Releases a connection this session admitted.
    ///
    /// # Errors
    ///
    /// Socket or codec failures.
    pub fn release(&mut self, id: u64) -> Result<Response, WireError> {
        self.call(&Request::Release { id })
    }

    /// Looks up the guaranteed delay of an established connection.
    ///
    /// # Errors
    ///
    /// Socket or codec failures.
    pub fn query(&mut self, id: u64) -> Result<Response, WireError> {
        self.call(&Request::Query { id })
    }

    /// Reads the server's service counters.
    ///
    /// # Errors
    ///
    /// Socket or codec failures.
    pub fn stats(&mut self) -> Result<Response, WireError> {
        self.call(&Request::Stats)
    }

    /// Asks the server to drain and shut down.
    ///
    /// # Errors
    ///
    /// Socket or codec failures.
    pub fn drain(&mut self) -> Result<Response, WireError> {
        self.call(&Request::Drain)
    }

    /// Forces the server's flight recorder to write a black box now.
    ///
    /// # Errors
    ///
    /// Socket or codec failures. A server without a flight recorder
    /// answers with a typed [`Response::Error`], not a wire error.
    pub fn dump(&mut self) -> Result<Response, WireError> {
        self.call(&Request::Dump)
    }
}

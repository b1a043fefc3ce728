//! A small typed client for the serve wire protocol.
//!
//! Speaks the same `u32`-LE length-prefixed JSON frames as the server. The
//! raw entry points ([`Client::request_raw`], [`Client::send_raw_frame`])
//! exist so fault-injection tests can send malformed bodies and partial
//! frames through the same connection type production code uses.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use hetarch_devices::json::{self, Json};

/// Default cap on response frames the client will accept.
const MAX_RESPONSE_LEN: u32 = 1 << 24;

/// One connection to a serve instance.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// The underlying stream (tests use this to half-close or drop early).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sends `request` and decodes the JSON reply.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` if the reply is not valid JSON.
    pub fn request_json(&mut self, request: &Json) -> io::Result<Json> {
        let body = self.request_raw(request.render().as_bytes())?;
        let text = std::str::from_utf8(&body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply is not UTF-8"))?;
        json::parse(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("invalid reply: {e}")))
    }

    /// Sends an arbitrary request body and returns the raw reply bytes.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn request_raw(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        self.send_raw_frame(body)?;
        self.read_reply()
    }

    /// Writes one length-prefixed frame without waiting for a reply.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send_raw_frame(&mut self, body: &[u8]) -> io::Result<()> {
        let len = u32::try_from(body.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        self.stream.write_all(&len.to_le_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()
    }

    /// Writes raw bytes with **no** framing (for truncated-frame tests).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one length-prefixed reply frame.
    ///
    /// # Errors
    ///
    /// Transport errors, `UnexpectedEof` on a closed connection, or
    /// `InvalidData` on an implausibly large reply.
    pub fn read_reply(&mut self) -> io::Result<Vec<u8>> {
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix);
        if len > MAX_RESPONSE_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply frame of {len} bytes"),
            ));
        }
        let mut body = vec![0u8; len as usize];
        self.stream.read_exact(&mut body)?;
        Ok(body)
    }

    /// Sets a read timeout for replies (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Fetches the server's `stats` report.
    ///
    /// # Errors
    ///
    /// Propagates transport/decode errors.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request_json(&Json::obj([("query", Json::Str("stats".to_string()))]))
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Propagates transport/decode errors.
    pub fn shutdown_server(&mut self) -> io::Result<Json> {
        self.request_json(&Json::obj([("query", Json::Str("shutdown".to_string()))]))
    }
}

//! A small blocking client for the wire protocol.
//!
//! One request in flight at a time: send a frame, block until the response
//! frame arrives.  That is all the load harness, the examples and the
//! end-to-end tests need — and it doubles as executable documentation of
//! the protocol from the peer's side.  Responses the client did not ask
//! for (there are none in this protocol) and protocol errors both surface
//! as [`ClientError`].

use crate::protocol::{
    ClientFrame, ErrorCode, FrameDecoder, QueryTarget, ServerFrame, TxnOp, MAX_FRAME_LEN,
};
use omq_data::Semantics;
use omq_wire::table::{Member, Object};
use omq_wire::{ProtocolViolation, Rows};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or unexpected EOF).
    Io(std::io::Error),
    /// The server answered with a protocol error frame.
    Server {
        /// The wire error code.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The peer sent bytes that are not a valid protocol frame.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Protocol(msg) => write!(f, "protocol violation from peer: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Convenient `Result` alias for client calls.
pub type Result<T> = std::result::Result<T, ClientError>;

/// Receipt of a successful commit, as reported over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCommit {
    /// Store epoch after the commit.
    pub epoch: u64,
    /// Facts new to the store.
    pub new_facts: u64,
    /// Staged facts that were already present.
    pub duplicate_facts: u64,
}

/// A pinned snapshot handle plus the epoch it pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Connection-scoped handle.
    pub handle: u64,
    /// The pinned epoch.
    pub epoch: u64,
}

/// An open cursor handle plus the epoch its pages replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCursor {
    /// Connection-scoped handle.
    pub handle: u64,
    /// The pinned epoch — every page replays exactly this epoch.
    pub epoch: u64,
}

/// One fetched page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePage {
    /// Rendered answers (see `protocol::render_answer` for the encoding),
    /// read into one buffer: iterate them borrowed ([`Rows::iter`]) or copy
    /// them out ([`Rows::into_owned`]).
    pub answers: Rows,
    /// Whether the cursor is exhausted.
    pub done: bool,
}

/// An aggregate response: count plus the epoch it was served at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCount {
    /// Number of answers.
    pub count: u64,
    /// `count > 0`.
    pub exists: bool,
    /// The epoch the aggregate was served at.
    pub epoch: u64,
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 64 * 1024],
        })
    }

    /// Sets (or clears) the read timeout for response frames.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Registers an ontology-mediated query under `name`; returns its
    /// catalogue id.
    pub fn register_query(&mut self, name: &str, ontology: &str, query: &str) -> Result<u64> {
        match self.call(&ClientFrame::Register {
            name: name.to_owned(),
            ontology: ontology.to_owned(),
            query: query.to_owned(),
        })? {
            ServerFrame::Registered { id, .. } => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Commits a transaction batch.
    pub fn commit(&mut self, ops: Vec<TxnOp>) -> Result<WireCommit> {
        match self.call(&ClientFrame::Commit { ops })? {
            ServerFrame::Committed {
                epoch,
                new_facts,
                duplicate_facts,
            } => Ok(WireCommit {
                epoch,
                new_facts,
                duplicate_facts,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Commits a batch of plain fact insertions into one relation.
    pub fn insert_all<S: AsRef<str>>(
        &mut self,
        relation: &str,
        rows: impl IntoIterator<Item = Vec<S>>,
    ) -> Result<WireCommit> {
        let ops = rows
            .into_iter()
            .map(|row| TxnOp::Insert {
                relation: relation.to_owned(),
                tuple: row.into_iter().map(|c| c.as_ref().to_owned()).collect(),
            })
            .collect();
        self.commit(ops)
    }

    /// Pins the server's store head; later commits never change what the
    /// handle answers.
    pub fn pin(&mut self) -> Result<WireSnapshot> {
        match self.call(&ClientFrame::Pin)? {
            ServerFrame::Pinned { snapshot, epoch } => Ok(WireSnapshot {
                handle: snapshot,
                epoch,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Opens a cursor over a query's answers, pinned at `snapshot` (or the
    /// head at open time if `None`).
    pub fn open_cursor(
        &mut self,
        query: QueryTarget,
        semantics: Semantics,
        snapshot: Option<u64>,
    ) -> Result<WireCursor> {
        self.open_cursor_window(query, semantics, snapshot, 0, None)
    }

    /// Like [`Client::open_cursor`] with an explicit answer window.
    pub fn open_cursor_window(
        &mut self,
        query: QueryTarget,
        semantics: Semantics,
        snapshot: Option<u64>,
        offset: u64,
        limit: Option<u64>,
    ) -> Result<WireCursor> {
        match self.call(&ClientFrame::OpenCursor {
            query,
            semantics,
            snapshot,
            offset,
            limit,
        })? {
            ServerFrame::CursorOpened { cursor, epoch, .. } => Ok(WireCursor {
                handle: cursor,
                epoch,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the next page of at most `k` answers.  The page is read
    /// straight into [`Rows`]; any other reply (an error frame) is decoded
    /// as a whole frame.
    pub fn fetch(&mut self, cursor: WireCursor, k: u64) -> Result<WirePage> {
        let fetch = ClientFrame::Fetch {
            cursor: cursor.handle,
            k,
        };
        self.stream.write_all(&fetch.encode())?;
        let payload = self.read_payload()?;
        match Object::decode(&payload) {
            Ok(mut page) if page.is("page") => read_page(&mut page).map_err(protocol),
            _ => Err(unexpected(&reply(&payload)?)),
        }
    }

    /// Counts a query's answers without materialising them.
    pub fn count(
        &mut self,
        query: QueryTarget,
        semantics: Semantics,
        snapshot: Option<u64>,
    ) -> Result<WireCount> {
        match self.call(&ClientFrame::Count {
            query,
            semantics,
            snapshot,
        })? {
            ServerFrame::Counted {
                count,
                exists,
                epoch,
            } => Ok(WireCount {
                count,
                exists,
                epoch,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Probes whether the query has any answer at all.
    pub fn exists(
        &mut self,
        query: QueryTarget,
        semantics: Semantics,
        snapshot: Option<u64>,
    ) -> Result<bool> {
        match self.call(&ClientFrame::Exists {
            query,
            semantics,
            snapshot,
        })? {
            ServerFrame::Exists { exists, .. } => Ok(exists),
            other => Err(unexpected(&other)),
        }
    }

    /// Releases a cursor.
    pub fn close_cursor(&mut self, cursor: WireCursor) -> Result<()> {
        match self.call(&ClientFrame::CloseCursor {
            cursor: cursor.handle,
        })? {
            ServerFrame::CursorClosed { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Releases a pinned snapshot.
    pub fn release(&mut self, snapshot: WireSnapshot) -> Result<()> {
        match self.call(&ClientFrame::ReleaseSnapshot {
            snapshot: snapshot.handle,
        })? {
            ServerFrame::SnapshotReleased { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Says goodbye; the connection is unusable afterwards.
    pub fn bye(mut self) -> Result<()> {
        match self.call(&ClientFrame::Bye)? {
            ServerFrame::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Drains a whole cursor page by page, collecting every answer.
    pub fn drain_cursor(&mut self, cursor: WireCursor, k: u64) -> Result<Vec<Vec<String>>> {
        let mut all = Vec::new();
        loop {
            let page = self.fetch(cursor, k)?;
            all.extend(page.answers);
            if page.done {
                return Ok(all);
            }
        }
    }

    /// Sends one frame and blocks for the response frame.  A protocol
    /// error frame becomes [`ClientError::Server`].
    pub fn call(&mut self, frame: &ClientFrame) -> Result<ServerFrame> {
        self.stream.write_all(&frame.encode())?;
        let payload = self.read_payload()?;
        reply(&payload)
    }

    fn read_payload(&mut self) -> Result<Vec<u8>> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => return Ok(payload),
                Ok(None) => {}
                Err(e) => {
                    return Err(ClientError::Protocol(format!(
                        "{e} (cap is {MAX_FRAME_LEN})"
                    )))
                }
            }
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                )));
            }
            self.decoder.feed(&self.read_buf[..n]);
        }
    }
}

/// A response payload as a frame; an error frame becomes
/// [`ClientError::Server`].
fn reply(payload: &[u8]) -> Result<ServerFrame> {
    match ServerFrame::decode(payload).map_err(protocol)? {
        ServerFrame::Error { code, message } => Err(ClientError::Server { code, message }),
        other => Ok(other),
    }
}

/// The members of a `page` frame, its answers left in one buffer.
fn read_page(page: &mut Object) -> std::result::Result<WirePage, ProtocolViolation> {
    u64::take(page, "cursor")?;
    Ok(WirePage {
        answers: page.take_answers()?,
        done: bool::take(page, "done")?,
    })
}

fn protocol(violation: ProtocolViolation) -> ClientError {
    ClientError::Protocol(violation.message)
}

fn unexpected(frame: &ServerFrame) -> ClientError {
    ClientError::Protocol(format!("unexpected response frame: {frame:?}"))
}

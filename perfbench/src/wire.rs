//! The client side of the daemon's wire protocol on plain sockets, and
//! the two system calls the standard library does not expose.
//!
//! A client speaks to the daemon as any `TcpTransport` peer would: it
//! connects, writes its 8-byte process id, then writes length-prefixed
//! group-enveloped frames. The daemon answers over a connection of its
//! own to the address the client registered, opening with the daemon's
//! id and carrying zero-length heartbeats between frames. One thread
//! serves every client by polling all their sockets at once.

use crate::span::{Tracer, NONE, NO_OP};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::{c_int, c_long, c_ulong};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use vsgm_net::codec::decode_body_routed;
use vsgm_types::{GroupId, NetMsg, ProcessId};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const RUSAGE_SELF: c_int = 0;

/// User + system CPU time of the whole process, every thread included.
pub fn cpu_time() -> Duration {
    let mut ru = RUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a properly laid out `struct rusage` the call fills.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Duration::ZERO;
    }
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&ru.utime) + us(&ru.stime))
}

/// Frames larger than this are refused as corrupt.
const MAX_FRAME: usize = 1 << 26;
const READ_CHUNK: usize = 1 << 16;

/// One decoded inbound frame.
pub struct Inbound {
    pub client: usize,
    pub gid: Option<GroupId>,
    pub msg: NetMsg,
    pub at: Instant,
}

/// Byte and frame counters of one client.
#[derive(Default, Clone, Copy)]
pub struct WireCounters {
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub reads: u64,
    pub frames_in: u64,
}

pub struct Client {
    listener: TcpListener,
    out: TcpStream,
    out_buf: Vec<u8>,
    inb: Option<TcpStream>,
    in_buf: Vec<u8>,
    in_off: usize,
    shook: bool,
    pub counters: WireCounters,
}

impl Client {
    /// Listens for the daemon's connection back, registers that address
    /// with `register`, connects to `server` and sends the handshake.
    pub fn connect(
        pid: u64,
        server: std::net::SocketAddr,
        register: impl FnOnce(ProcessId, std::net::SocketAddr),
    ) -> io::Result<Client> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        register(ProcessId::new(pid), listener.local_addr()?);
        let mut out = TcpStream::connect(server)?;
        out.set_nodelay(true)?;
        out.write_all(&pid.to_le_bytes())?;
        out.set_nonblocking(true)?;
        Ok(Client {
            listener,
            out,
            out_buf: Vec::new(),
            inb: None,
            in_buf: Vec::with_capacity(READ_CHUNK * 2),
            in_off: 0,
            shook: false,
            counters: WireCounters::default(),
        })
    }

    /// Queues one complete frame and writes as much as the socket takes.
    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.counters.bytes_out += frame.len() as u64;
        self.out_buf.extend_from_slice(frame);
        self.flush()
    }

    fn flush(&mut self) -> io::Result<()> {
        while !self.out_buf.is_empty() {
            match self.out.write(&self.out_buf) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "daemon closed")),
                Ok(n) => {
                    self.out_buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn accept(&mut self) -> io::Result<()> {
        match self.listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(true)?;
                s.set_nodelay(true)?;
                self.inb = Some(s);
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Reads everything the socket holds and decodes every complete
    /// frame into `out`.
    fn read(&mut self, idx: usize, tr: &mut Tracer, out: &mut Vec<Inbound>) -> io::Result<()> {
        loop {
            let Some(s) = self.inb.as_mut() else {
                return Ok(());
            };
            let len = self.in_buf.len();
            self.in_buf.resize(len + READ_CHUNK, 0);
            match s.read(&mut self.in_buf[len..]) {
                Ok(0) => {
                    self.in_buf.truncate(len);
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon hung up",
                    ));
                }
                Ok(n) => {
                    self.in_buf.truncate(len + n);
                    self.counters.reads += 1;
                }
                Err(e) => {
                    self.in_buf.truncate(len);
                    match e.kind() {
                        io::ErrorKind::WouldBlock => break,
                        io::ErrorKind::Interrupted => continue,
                        _ => return Err(e),
                    }
                }
            }
            let at = Instant::now();
            self.decode(idx, at, tr, out)?;
        }
        Ok(())
    }

    fn decode(
        &mut self,
        idx: usize,
        at: Instant,
        tr: &mut Tracer,
        out: &mut Vec<Inbound>,
    ) -> io::Result<()> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        if !self.shook {
            let Some(id) = self.in_buf.get(self.in_off..self.in_off + 8) else {
                return Ok(());
            };
            if id != 0u64.to_le_bytes() {
                return Err(bad("handshake from a process other than the daemon"));
            }
            self.in_off += 8;
            self.shook = true;
        }
        loop {
            let rest = &self.in_buf[self.in_off..];
            let Some(prefix) = rest.get(..4) else { break };
            let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
            if len > MAX_FRAME {
                return Err(bad("oversized frame"));
            }
            let Some(body) = rest.get(4..4 + len) else {
                break;
            };
            self.in_off += 4 + len;
            if len == 0 {
                continue; // heartbeat
            }
            self.counters.bytes_in += 4 + len as u64;
            self.counters.frames_in += 1;
            let decoded = tr.time("net.decode", NONE, NO_OP, || decode_body_routed(body, true));
            let (gid, msg) = decoded.ok_or_else(|| bad("undecodable frame"))?;
            out.push(Inbound {
                client: idx,
                gid,
                msg,
                at,
            });
        }
        if self.in_off == self.in_buf.len() {
            self.in_buf.clear();
            self.in_off = 0;
        } else if self.in_off > READ_CHUNK {
            self.in_buf.drain(..self.in_off);
            self.in_off = 0;
        }
        Ok(())
    }
}

/// Waits up to `timeout` for any client socket to be ready, then reads
/// and writes every ready one. Decoded frames are appended to `out`.
pub fn pump(
    clients: &mut [Client],
    timeout: Duration,
    tr: &mut Tracer,
    out: &mut Vec<Inbound>,
) -> io::Result<()> {
    let mut fds = Vec::with_capacity(clients.len() * 2);
    for c in clients.iter() {
        let read_fd = c
            .inb
            .as_ref()
            .map_or(c.listener.as_raw_fd(), |s| s.as_raw_fd());
        fds.push(PollFd {
            fd: read_fd,
            events: POLLIN,
            revents: 0,
        });
        let out_events = if c.out_buf.is_empty() { 0 } else { POLLOUT };
        fds.push(PollFd {
            fd: c.out.as_raw_fd(),
            events: out_events,
            revents: 0,
        });
    }
    let ms = timeout.as_millis().min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is a live, correctly sized array of `struct pollfd`.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(())
        } else {
            Err(e)
        };
    }
    for (i, c) in clients.iter_mut().enumerate() {
        let (r, w) = (fds[2 * i].revents, fds[2 * i + 1].revents);
        if r != 0 {
            if c.inb.is_none() {
                c.accept()?;
            }
            c.read(i, tr, out)?;
        }
        if w != 0 {
            c.flush()?;
        }
    }
    Ok(())
}

//! The benchmark's own memcached-text client: a closed loop that sends
//! a window of requests in one write and checks every reply. Key, value
//! and batch buffers are reused; the send loop allocates nothing.

use crate::common::Samples;
use nemo_proto::{encode_get, encode_set, encode_value, parse_response, synth_value};
use nemo_proto::{Limits, Response, ResponseOutcome, SetCmd};
use nemo_trace::{RequestKind, TraceConfig, TraceGenerator};
use std::io::{Error, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
struct Pending {
    key: u64,
    vlen: usize,
    get: bool,
}

/// Request generator and reply checker, usable with or without a socket.
#[derive(Debug)]
pub struct Client {
    trace: TraceGenerator,
    /// The current batch, encoded.
    pub out: Vec<u8>,
    pend: Vec<Pending>,
    /// Misses of the previous batch, demand-filled ahead of the next.
    fills: Vec<Pending>,
    /// A set drawn from the trace that waits for the next batch.
    held: Option<Pending>,
    key: Vec<u8>,
    val: Vec<u8>,
    limits: Limits,
    /// Reply cursor into `pend`, and whether its VALUE block came.
    next: usize,
    valued: bool,
    pub ops: u64,
    pub gets: u64,
    pub hits: u64,
    /// Refused, errored, wrong-body, out-of-order and unanswered ops.
    pub failed: u64,
}

impl Client {
    pub fn new(trace: &TraceConfig) -> Self {
        Self {
            trace: TraceGenerator::new(trace.clone()),
            out: Vec::with_capacity(64 << 10),
            pend: Vec::new(),
            fills: Vec::new(),
            held: None,
            key: Vec::new(),
            val: Vec::new(),
            limits: Limits::default(),
            next: 0,
            valued: false,
            ops: 0,
            gets: 0,
            hits: 0,
            failed: 0,
        }
    }

    /// Fills the scratch buffers with `p`'s wire key and value.
    fn render(&mut self, p: Pending) {
        self.key.clear();
        write!(self.key, "{}", p.key).expect("write to a Vec");
        self.val.clear();
        synth_value(&mut self.val, p.key, p.vlen);
    }

    fn encode(&mut self, p: Pending, noreply: bool) {
        self.render(p);
        if p.get {
            encode_get(&mut self.out, [self.key.as_slice()], false);
        } else {
            let (key, data) = (self.key.as_slice(), self.val.as_slice());
            let cmd = SetCmd {
                key,
                flags: 0,
                exptime: 0,
                data,
                noreply,
            };
            encode_set(&mut self.out, &cmd);
        }
    }

    /// The next request of the trace.
    fn draw(&mut self) -> Pending {
        let r = self.trace.next_request();
        // The server charges key plus value bytes; keep the trace's
        // object size. Sizes are a function of the key, so this is
        // also the length last set for the key.
        let digits = r.key.checked_ilog10().unwrap_or(0) as usize + 1;
        Pending {
            key: r.key,
            vlen: (r.size as usize).saturating_sub(digits).max(1),
            get: r.kind == RequestKind::Get,
        }
    }

    /// Starts a batch: `set … noreply` for each miss of the last batch,
    /// then up to `n` new requests from the trace. Returns how many.
    ///
    /// A set never shares a batch with an earlier get of its key; it
    /// opens the next batch instead. The server forgets a key's value
    /// length when it renders a miss, after the whole wave is dispatched:
    /// `get k` (miss), `set k`, `get k` in one wave answers the second
    /// get with an empty value, and that op would count as failed.
    pub fn fill_batch(&mut self, n: usize) -> usize {
        self.out.clear();
        self.pend.clear();
        self.next = 0;
        for i in 0..self.fills.len() {
            let fill = Pending {
                get: false,
                ..self.fills[i]
            };
            self.encode(fill, true);
        }
        self.fills.clear();
        while self.pend.len() < n {
            let p = self.held.take().unwrap_or_else(|| self.draw());
            if !p.get && self.pend.iter().any(|q| q.get && q.key == p.key) {
                self.held = Some(p);
                break;
            }
            self.encode(p, false);
            self.pend.push(p);
            self.ops += 1;
            self.gets += p.get as u64;
        }
        self.pend.len()
    }

    /// The replies a server sends when every get of the batch hits:
    /// what `consume` is timed on, stand-alone.
    pub fn synth_replies(&mut self, out: &mut Vec<u8>) {
        for i in 0..self.pend.len() {
            let p = self.pend[i];
            if !p.get {
                out.extend_from_slice(b"STORED\r\n");
                continue;
            }
            self.render(p);
            encode_value(out, &self.key, 0, None, &self.val);
            out.extend_from_slice(b"END\r\n");
        }
    }

    pub fn done(&self) -> bool {
        self.next == self.pend.len()
    }

    /// Whether the batch is a single get (the depth-1 latency sample).
    pub fn single_get(&self) -> bool {
        self.pend.len() == 1 && self.pend[0].get
    }

    /// Ops of the batch that never got their reply.
    pub fn abandon(&mut self) {
        self.failed += (self.pend.len() - self.next) as u64;
        self.next = self.pend.len();
    }

    /// Checks reply frames at the front of `buf` against the batch, in
    /// order; returns the bytes consumed.
    pub fn consume(&mut self, buf: &[u8]) -> usize {
        let mut off = 0;
        while !self.done() {
            let (resp, used) = match parse_response(&buf[off..], &self.limits) {
                ResponseOutcome::Incomplete => break,
                ResponseOutcome::Resp(r, used) => (Some(r), used),
                ResponseOutcome::Garbled(used) => (None, used),
            };
            off += used;
            let p = self.pend[self.next];
            let mut answered = true;
            match resp {
                Some(Response::Value { key, data, .. }) if p.get && !self.valued => {
                    self.render(p);
                    if key != self.key.as_slice() || data != self.val.as_slice() {
                        self.failed += 1;
                    }
                    self.valued = true;
                    answered = false;
                }
                Some(Response::End) if p.get => {
                    if self.valued {
                        self.hits += 1;
                    } else {
                        self.fills.push(p);
                    }
                }
                Some(Response::Stored) if !p.get => {}
                // SERVER_ERROR, garbled or unexpected frames.
                _ => self.failed += 1,
            }
            if answered {
                self.valued = false;
                self.next += 1;
            }
        }
        off
    }
}

/// One connection and its receive buffer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    inb: Vec<u8>,
    lo: usize,
    hi: usize,
}

impl Conn {
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Self {
            stream,
            inb: vec![0; 256 << 10],
            lo: 0,
            hi: 0,
        })
    }

    /// Sends the client's batch and reads until every reply is checked.
    fn round_trip(&mut self, client: &mut Client) -> std::io::Result<()> {
        if self.lo != self.hi {
            // Bytes beyond the previous batch's replies: unexpected frames.
            client.failed += 1;
        }
        (self.lo, self.hi) = (0, 0);
        self.stream.write_all(&client.out)?;
        while !client.done() {
            if self.hi == self.inb.len() {
                self.inb.copy_within(self.lo..self.hi, 0);
                (self.lo, self.hi) = (0, self.hi - self.lo);
            }
            let n = self.stream.read(&mut self.inb[self.hi..])?;
            if n == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "server closed"));
            }
            self.hi += n;
            self.lo += client.consume(&self.inb[self.lo..self.hi]);
        }
        Ok(())
    }

    /// Runs `ops` requests `window` at a time. `rtt` takes each batch's
    /// send-to-last-reply-byte time; at window 1, gets only.
    pub fn run(
        &mut self,
        client: &mut Client,
        ops: u64,
        window: usize,
        rtt: &mut Samples,
    ) -> std::io::Result<()> {
        let mut left = ops;
        while left > 0 {
            let n = client.fill_batch((window as u64).min(left) as usize);
            let t0 = Instant::now();
            if let Err(e) = self.round_trip(client) {
                client.abandon();
                return Err(e);
            }
            if window > 1 || client.single_get() {
                rtt.push(t0.elapsed().as_nanos() as u64);
            }
            left -= n as u64;
        }
        Ok(())
    }
}

//! Wire encoders (canonical request/response bytes) and the
//! client-side response parser used by the network load generator and
//! the test batteries.
//!
//! Encoding is canonical — single spaces, decimal numbers without
//! leading zeros — so `encode → parse → re-encode` is byte-identical,
//! which the property tests assert.

use crate::parser::{Command, Limits, SetCmd};
use std::io::Write;

/// Appends a canonical `get`/`gets` request.
pub fn encode_get<'a>(out: &mut Vec<u8>, keys: impl IntoIterator<Item = &'a [u8]>, cas: bool) {
    out.extend_from_slice(if cas { b"gets" } else { b"get" });
    for key in keys {
        out.push(b' ');
        out.extend_from_slice(key);
    }
    out.extend_from_slice(b"\r\n");
}

/// Appends a canonical `set` request (header line plus data block).
pub fn encode_set(out: &mut Vec<u8>, cmd: &SetCmd<'_>) {
    out.extend_from_slice(b"set ");
    out.extend_from_slice(cmd.key);
    let noreply = if cmd.noreply { " noreply" } else { "" };
    write!(
        out,
        " {} {} {}{noreply}\r\n",
        cmd.flags,
        cmd.exptime,
        cmd.data.len()
    )
    .expect("writing to a Vec cannot fail");
    out.extend_from_slice(cmd.data);
    out.extend_from_slice(b"\r\n");
}

/// Re-encodes any parsed command to its canonical bytes.
pub fn encode_command(out: &mut Vec<u8>, cmd: &Command<'_>) {
    match cmd {
        Command::Get { keys, cas } => encode_get(out, keys.iter(), *cas),
        Command::Set(set) => encode_set(out, set),
        Command::Version => out.extend_from_slice(b"version\r\n"),
        Command::Quit => out.extend_from_slice(b"quit\r\n"),
    }
}

/// Appends a `VALUE` block for one get hit. `cas` is present for
/// `gets` responses.
pub fn encode_value(out: &mut Vec<u8>, key: &[u8], flags: u32, cas: Option<u64>, data: &[u8]) {
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(key);
    match cas {
        Some(cas) => write!(out, " {flags} {} {cas}\r\n", data.len()),
        None => write!(out, " {flags} {}\r\n", data.len()),
    }
    .expect("writing to a Vec cannot fail");
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// One server response frame, as seen by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response<'a> {
    /// One `VALUE <key> <flags> <bytes> [<cas>]` block of a get reply.
    Value {
        /// The echoed key.
        key: &'a [u8],
        /// Stored flags.
        flags: u32,
        /// cas unique (only in `gets` replies).
        cas: Option<u64>,
        /// The value bytes.
        data: &'a [u8],
    },
    /// `END` — terminates a get reply.
    End,
    /// `STORED` — a successful set.
    Stored,
    /// `VERSION <string>`.
    Version(&'a [u8]),
    /// `ERROR` — unknown command.
    Error,
    /// `CLIENT_ERROR <message>`.
    ClientError(&'a [u8]),
    /// `SERVER_ERROR <message>`.
    ServerError(&'a [u8]),
}

/// Result of parsing one response frame from the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseOutcome<'a> {
    /// A complete response occupying the first `consumed` bytes.
    Resp(Response<'a>, usize),
    /// Need more bytes.
    Incomplete,
    /// The server sent something unintelligible; `consumed` skips it.
    Garbled(usize),
}

/// Parses one response frame from the front of `buf`. Stateless and
/// zero-copy, like the request parser: resume after any split point by
/// appending bytes and calling again.
pub fn parse_response<'a>(buf: &'a [u8], limits: &Limits) -> ResponseOutcome<'a> {
    let pos = match buf
        .windows(2)
        .take(limits.max_line_len)
        .position(|w| w == b"\r\n")
    {
        Some(pos) => pos,
        None if buf.len() >= limits.max_line_len => return ResponseOutcome::Garbled(buf.len()),
        None => return ResponseOutcome::Incomplete,
    };
    let (line, line_len) = (&buf[..pos], pos + 2);
    if line == b"END" {
        return ResponseOutcome::Resp(Response::End, line_len);
    }
    if line == b"STORED" {
        return ResponseOutcome::Resp(Response::Stored, line_len);
    }
    if line == b"ERROR" {
        return ResponseOutcome::Resp(Response::Error, line_len);
    }
    if let Some(msg) = line.strip_prefix(b"CLIENT_ERROR ") {
        return ResponseOutcome::Resp(Response::ClientError(msg), line_len);
    }
    if let Some(msg) = line.strip_prefix(b"SERVER_ERROR ") {
        return ResponseOutcome::Resp(Response::ServerError(msg), line_len);
    }
    if let Some(v) = line.strip_prefix(b"VERSION ") {
        return ResponseOutcome::Resp(Response::Version(v), line_len);
    }
    if let Some(rest) = line.strip_prefix(b"VALUE ") {
        let mut tokens = rest.split(|&b| b == b' ').filter(|t| !t.is_empty());
        let (key, flags, bytes) = match (tokens.next(), tokens.next(), tokens.next()) {
            (Some(k), Some(f), Some(b)) => (k, f, b),
            _ => return ResponseOutcome::Garbled(line_len),
        };
        let cas = tokens.next();
        if tokens.next().is_some() {
            return ResponseOutcome::Garbled(line_len);
        }
        let parse_num = |t: &[u8]| -> Option<u64> {
            if t.is_empty() || t.len() > 20 || !t.iter().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let mut v: u64 = 0;
            for &b in t {
                v = v.checked_mul(10)?.checked_add((b - b'0') as u64)?;
            }
            Some(v)
        };
        let flags = match parse_num(flags).and_then(|v| u32::try_from(v).ok()) {
            Some(v) => v,
            None => return ResponseOutcome::Garbled(line_len),
        };
        let bytes = match parse_num(bytes) {
            Some(v) if v as usize <= limits.max_value_len => v as usize,
            _ => return ResponseOutcome::Garbled(line_len),
        };
        let cas = match cas {
            None => None,
            Some(t) => match parse_num(t) {
                Some(v) => Some(v),
                None => return ResponseOutcome::Garbled(line_len),
            },
        };
        let frame_len = line_len + bytes + 2;
        if buf.len() < frame_len {
            return ResponseOutcome::Incomplete;
        }
        if &buf[line_len + bytes..frame_len] != b"\r\n" {
            return ResponseOutcome::Garbled(frame_len);
        }
        return ResponseOutcome::Resp(
            Response::Value {
                key,
                flags,
                cas,
                data: &buf[line_len..line_len + bytes],
            },
            frame_len,
        );
    }
    ResponseOutcome::Garbled(line_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_command, ParseOutcome};

    #[test]
    fn request_encode_parse_roundtrip() {
        let mut buf = Vec::new();
        encode_get(&mut buf, [b"alpha".as_ref(), b"beta".as_ref()], true);
        encode_set(
            &mut buf,
            &SetCmd {
                key: b"k9",
                flags: 3,
                exptime: -1,
                data: b"pay\r\nload",
                noreply: true,
            },
        );
        buf.extend_from_slice(b"version\r\nquit\r\n");
        let limits = Limits::default();
        let mut reencoded = Vec::new();
        let mut off = 0;
        let mut count = 0;
        while off < buf.len() {
            match parse_command(&buf[off..], &limits) {
                ParseOutcome::Cmd(cmd, consumed) => {
                    encode_command(&mut reencoded, &cmd);
                    off += consumed;
                    count += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(count, 4);
        assert_eq!(reencoded, buf, "canonical roundtrip must be byte-identical");
    }

    #[test]
    fn response_frames_roundtrip() {
        let limits = Limits::default();
        let mut buf = Vec::new();
        encode_value(&mut buf, b"k", 7, Some(99), b"abc");
        buf.extend_from_slice(b"END\r\nSTORED\r\nVERSION nemo\r\nERROR\r\nCLIENT_ERROR oops\r\n");
        let mut off = 0;
        let mut seen = Vec::new();
        while off < buf.len() {
            match parse_response(&buf[off..], &limits) {
                ResponseOutcome::Resp(r, consumed) => {
                    seen.push(format!("{r:?}"));
                    off += consumed;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen.len(), 6);
        assert!(seen[0].contains("Value"));
        assert!(seen[0].contains("cas: Some(99)"));
        assert_eq!(seen[1], "End");
        assert_eq!(seen[2], "Stored");
        assert!(seen[3].contains("Version"));
        assert_eq!(seen[4], "Error");
        assert!(seen[5].contains("ClientError"));
    }

    #[test]
    fn response_value_split_points_resume() {
        let limits = Limits::default();
        let mut buf = Vec::new();
        encode_value(&mut buf, b"key", 1, None, b"0123456789");
        buf.extend_from_slice(b"END\r\n");
        for split in 0..=buf.len() {
            // Feed the prefix: must be a prefix-consistent outcome.
            let mut off = 0;
            let mut frames = 0;
            for chunk_end in [split, buf.len()] {
                loop {
                    match parse_response(&buf[off..chunk_end], &limits) {
                        ResponseOutcome::Resp(_, consumed) => {
                            off += consumed;
                            frames += 1;
                        }
                        ResponseOutcome::Incomplete => break,
                        other => panic!("split {split}: {other:?}"),
                    }
                }
            }
            assert_eq!(frames, 2, "split {split}");
        }
    }
}

//! # nemo-proto — the memcached-text wire front-end
//!
//! Serves a [`nemo_service::ShardedCache`] over TCP speaking the
//! memcached text protocol (`get`/`gets`, `set`, `version`, `quit`),
//! using nothing beyond `std::net` — no async runtime. The design
//! mirrors the shard-per-core service layer it fronts:
//!
//! - **Parsing** ([`parser`]): a stateless, zero-copy incremental
//!   parser. One pure function over the connection buffer that yields a
//!   complete frame, asks for more bytes, or classifies an error as
//!   recoverable (reply and keep going) or fatal (reply and close).
//!   Statelessness is what makes resumption after arbitrary TCP segment
//!   splits trivial — and property-testable.
//! - **Connections** (`conn`, internal): a bounded pool of worker
//!   threads, one connection served at a time. Each read's worth of
//!   pipelined commands is parsed into one [`nemo_service::Wave`] per
//!   shard, and the connection's own thread runs each wave under that
//!   shard's lock ([`nemo_service::Dispatcher::run_wave`]), as every
//!   request to the fleet runs on the thread that issues it; responses
//!   are written back in request order as one batched write.
//! - **Serving** ([`server`]): accept loop + worker pool with layered
//!   backpressure (accept queue → a handler busy serving its wave → TCP
//!   flow control) and graceful drain on shutdown.
//! - **Keys and values** ([`store`]): the engines are placement
//!   simulators keyed by `u64`, so the wire layer maps byte-string keys
//!   (canonical-decimal or FNV-1a) and keeps flags/length/cas metadata
//!   in a striped side table; values are synthesized deterministically.
//! - **Client side** ([`wire`]): canonical encoders and a response
//!   parser with the same split-resume property, used by the network
//!   load generator and the test batteries.

pub mod parser;
pub mod server;
pub mod store;
pub mod wire;

mod conn;

pub use conn::{ClockMode, ServerClock};
pub use parser::{parse_command, Command, Keys, Limits, ParseOutcome, SetCmd, WireError};
pub use server::{Server, ServerConfig, ServerReport};
pub use store::{map_key, synth_value, MetaStore, ObjMeta};
pub use wire::{
    encode_command, encode_get, encode_set, encode_value, parse_response, Response, ResponseOutcome,
};

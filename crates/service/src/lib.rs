//! Sharded concurrent front-end for the Nemo reproduction's cache
//! engines.
//!
//! The paper's Nemo runs inside CacheLib, where requests run on the
//! caller's thread and only flushing and write-back get threads of their
//! own; the engines in this workspace are deliberately single-threaded,
//! deterministic simulators. This crate bridges the two with the
//! shard-per-core pattern production flash caches deploy:
//! [`ShardedCache`] holds one independent engine (and simulated device)
//! per shard, built by a user-supplied factory, and routes every request
//! to its shard by key hash ([`shard_of`]). Shard state is disjoint:
//! each shard's engine sits behind one lock of its own, taken by the
//! thread that issues a request — once per request, per wave or per
//! control call — and no thread ever holds two. The fleet starts no
//! thread of its own. For a fixed request sequence and shard count the
//! aggregate hit ratio and write amplification are bit-identical across
//! runs no matter how the callers' threads interleave across shards.
//!
//! Any engine implementing [`nemo_engine::CacheEngine`] can be sharded;
//! the configs in `nemo-core` and `nemo-baselines` all provide a
//! `.factory()` for uniform fleets — and a `.factory_on(..)` that takes
//! a per-shard device builder, which [`DeviceBackend`] supplies for
//! runtime backend selection (modeled in-memory, modeled file-backed,
//! or real-I/O with measured latency). The front-end itself implements
//! `CacheEngine` too, so any harness written against the trait drives a
//! shard fleet exactly like a single engine.
//!
//! One way to drive a fleet: **dispatch a request, get a completion.**
//! [`Dispatcher::dispatch_lookup`], [`Dispatcher::dispatch_get`] (demand
//! fill on a miss) and [`Dispatcher::dispatch_put`] route by key hash
//! and run the request on the calling thread: lock the owning shard,
//! admit the request through its bounded in-flight window, run the
//! engine, run one bounded slice of background maintenance, and send
//! exactly one [`Completion`] on the caller's reply channel before
//! returning — even when the engine fails fatally or panics serving it
//! ([`CompletionKind::Unavailable`]). A caller holding many requests at
//! once (the wire front-end, with a pipelined wave parsed) runs each
//! shard's share as one [`Wave`] ([`Dispatcher::run_wave`]): the same
//! per-request routine under one take of the same shard lock.
//!
//! * [`ShardedCache::try_get`]/[`ShardedCache::try_put`] run the same
//!   routine and return the completion instead of sending it: the
//!   caller's own pace is the offered load.
//! * [`openloop::OpenLoopReplay`] is the general case and the one timed
//!   driver: it dispatches at a configured virtual-time arrival rate,
//!   folds each completion as it is answered, and reports queueing
//!   delay and service time separately. This is how the paper's Fig. 15 latency
//!   claims are measured here.
//!
//! # Examples
//!
//! Demand fill over four shards, one operation at a time:
//!
//! ```
//! use nemo_core::NemoConfig;
//! use nemo_flash::Nanos;
//! use nemo_service::ShardedCacheBuilder;
//!
//! let cache = ShardedCacheBuilder::new(4).spawn(NemoConfig::small().factory());
//! for key in 0..1000u64 {
//!     if !cache.try_get(key, Nanos::ZERO).unwrap().hit {
//!         cache.try_put(key, 250, Nanos::ZERO).unwrap();
//!     }
//! }
//! let report = cache.finish(Nanos::ZERO); // drains every shard first
//! println!("aggregate ALWA {:.2}", report.stats.alwa());
//! assert_eq!(report.stats.puts, 1000);
//! ```
//!
//! Open-loop replay at 100k req/s of virtual time:
//!
//! ```
//! use nemo_baselines::LogCacheConfig;
//! use nemo_service::{OpenLoopConfig, OpenLoopReplay};
//! use nemo_trace::{TraceConfig, TraceGenerator};
//!
//! let mut cfg = OpenLoopConfig::new(4_000, 100_000.0);
//! cfg.shards = 2;
//! let mut trace = TraceGenerator::new(TraceConfig::twitter_merged(0.0002));
//! let result = OpenLoopReplay::new(cfg).run(LogCacheConfig::small().factory(), &mut trace);
//! println!(
//!     "p99 total {} ns = queueing {} ns behind service {} ns",
//!     result.latency.p99(),
//!     result.queueing.p99(),
//!     result.service.p99()
//! );
//! assert!(result.report.stats.gets > 0);
//! ```

mod backend;
pub mod openloop;
mod restart;
mod routing;
mod sharded;

pub use backend::DeviceBackend;
pub use openloop::{OpenLoopConfig, OpenLoopReplay, OpenLoopResult};
pub use restart::checkpoint_fleet;
pub use routing::shard_of;
pub use sharded::{
    Completion, CompletionKind, Dispatcher, ShardHealth, ShardedCache, ShardedCacheBuilder,
    ShardedReport, Wave,
};

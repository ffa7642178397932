//! The Canary application API.
//!
//! §IV-C.4a: "With minimum modification to the function code, application
//! states are registered by calling the Canary APIs" and "the
//! Checkpointing Module exposes the functionality to define critical data
//! within the application code that should be replicated and persisted".
//!
//! [`FunctionContext`] is that API surface: a handle a function body uses
//! to register named states and critical data blobs. Registered data is
//! written through the replicated KV store; after a crash a new context
//! for the same function id resumes from the latest registered state.
//! [`run_resumable`] adapts any [`Resumable`] kernel onto the API, which
//! is how the examples execute real workloads under Canary semantics.

use bytes::Bytes;
use canary_kvstore::{KvError, ReplicatedKv, StoreConfig};
use canary_workloads::{CodecError, Decoder, Encoder, Resumable};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// API errors.
#[derive(Debug)]
pub enum ApiError {
    /// Underlying store failure.
    Store(KvError),
    /// State payload failed to decode on restore.
    Codec(CodecError),
    /// The function was never registered / has no state yet.
    NoState {
        /// The function id queried.
        fn_id: u64,
    },
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Store(e) => write!(f, "store error: {e}"),
            ApiError::Codec(e) => write!(f, "codec error: {e}"),
            ApiError::NoState { fn_id } => write!(f, "no registered state for fn {fn_id}"),
        }
    }
}

impl Error for ApiError {}

impl From<KvError> for ApiError {
    fn from(e: KvError) -> Self {
        ApiError::Store(e)
    }
}

impl From<CodecError> for ApiError {
    fn from(e: CodecError) -> Self {
        ApiError::Codec(e)
    }
}

/// A KV key for the API namespace, rendered into a stack buffer.
///
/// The API sits on the recovery hot path — `recover` runs once per
/// failover, `register_state` once per step of every resumable kernel —
/// and the keys were previously built with `format!`, a heap allocation
/// per call. The layouts are fixed and short ("api/state/" + a
/// zero-padded decimal id; "api/critical/" + id + "/" + name), so they
/// render into a 96-byte inline buffer instead; only a critical-data
/// name longer than the buffer spills to the heap.
///
/// The rendered bytes are pinned byte-identical to the old `format!`
/// layout (`{fn_id:016}`: zero-padded *minimum* width 16, growing up to
/// 20 digits for large ids) — stored data written before this change
/// remains addressable, and `api_keys_match_the_formatted_layout` in the
/// test module guards the equivalence.
struct ApiKey {
    buf: [u8; Self::INLINE],
    len: u8,
    /// Set only when the key outgrew the inline buffer.
    spill: Option<Vec<u8>>,
}

impl ApiKey {
    const INLINE: usize = 96;

    /// Key of a function's rolling registered state:
    /// `api/state/<fn_id:016>`. Always fits inline.
    fn state(fn_id: u64) -> Self {
        let mut k = ApiKey {
            buf: [0; Self::INLINE],
            len: 0,
            spill: None,
        };
        k.push(b"api/state/");
        k.push_decimal_padded(fn_id);
        k
    }

    /// Key of a named critical-data blob:
    /// `api/critical/<fn_id:016>/<name>`. Spills to the heap only for
    /// names longer than the inline buffer allows (> 62 bytes).
    fn critical(fn_id: u64, name: &str) -> Self {
        let mut k = ApiKey {
            buf: [0; Self::INLINE],
            len: 0,
            spill: None,
        };
        k.push(b"api/critical/");
        k.push_decimal_padded(fn_id);
        k.push(b"/");
        k.push(name.as_bytes());
        k
    }

    fn push(&mut self, bytes: &[u8]) {
        if let Some(v) = &mut self.spill {
            v.extend_from_slice(bytes);
            return;
        }
        let len = self.len as usize;
        if len + bytes.len() <= Self::INLINE {
            self.buf[len..len + bytes.len()].copy_from_slice(bytes);
            self.len += bytes.len() as u8;
        } else {
            let mut v = Vec::with_capacity(len + bytes.len());
            v.extend_from_slice(&self.buf[..len]);
            v.extend_from_slice(bytes);
            self.spill = Some(v);
        }
    }

    /// `{n:016}`: zero-padded decimal, minimum width 16 — wider when the
    /// id needs more digits (u64::MAX is 20).
    fn push_decimal_padded(&mut self, n: u64) {
        let mut digits = [b'0'; 20];
        let mut i = digits.len();
        let mut rest = n;
        loop {
            i -= 1;
            digits[i] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let start = i.min(digits.len() - 16);
        self.push(&digits[start..]);
    }
}

impl AsRef<[u8]> for ApiKey {
    fn as_ref(&self) -> &[u8] {
        match &self.spill {
            Some(v) => v,
            None => &self.buf[..self.len as usize],
        }
    }
}

/// A registered state snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisteredState {
    /// Monotonic state sequence number within the function.
    pub seq: u64,
    /// Application-chosen state name (e.g. "epoch", "request").
    pub name: String,
    /// The state payload.
    pub payload: Bytes,
}

fn encode_state(state: &RegisteredState) -> Bytes {
    let mut e = Encoder::with_capacity(32 + state.name.len() + state.payload.len());
    e.put_u8(1)
        .put_u64(state.seq)
        .put_str(&state.name)
        .put_bytes(&state.payload);
    e.finish()
}

fn decode_state(bytes: &[u8]) -> Result<RegisteredState, CodecError> {
    let mut d = Decoder::new(bytes);
    let ver = d.u8("api state version")?;
    if ver != 1 {
        return Err(CodecError::BadTag {
            what: "api state version",
            value: ver as u64,
        });
    }
    let seq = d.u64("seq")?;
    let name = d.str("name")?;
    let payload = Bytes::from(d.bytes("payload")?);
    d.finish("api state")?;
    Ok(RegisteredState { seq, name, payload })
}

/// Shared Canary state service backing many function contexts — the
/// in-cluster side of the API (KV store + bookkeeping).
#[derive(Debug, Clone)]
pub struct StateService {
    kv: Arc<ReplicatedKv>,
}

impl StateService {
    /// A service over a fresh replicated store with `members` copies.
    pub fn new(members: usize) -> Self {
        StateService {
            kv: Arc::new(ReplicatedKv::new(
                members,
                StoreConfig {
                    entry_limit: u64::MAX,
                    ..StoreConfig::default()
                },
            )),
        }
    }

    /// The underlying store (exposed for failure-injection tests).
    pub fn kv(&self) -> &Arc<ReplicatedKv> {
        &self.kv
    }

    /// Open a context for one function invocation.
    pub fn context(&self, fn_id: u64) -> FunctionContext {
        FunctionContext {
            service: self.clone(),
            fn_id,
            seq: 0,
        }
    }

    /// Open a *recovery* context: resumes the sequence counter from the
    /// latest registered state of `fn_id`.
    pub fn recover(&self, fn_id: u64) -> Result<(FunctionContext, RegisteredState), ApiError> {
        let bytes = self
            .kv
            .get(ApiKey::state(fn_id))
            .map_err(|_| ApiError::NoState { fn_id })?;
        let state = decode_state(&bytes)?;
        Ok((
            FunctionContext {
                service: self.clone(),
                fn_id,
                seq: state.seq + 1,
            },
            state,
        ))
    }

    /// Latest critical-data blob registered under `name` for `fn_id`.
    pub fn critical_data(&self, fn_id: u64, name: &str) -> Result<Bytes, ApiError> {
        Ok(self.kv.get(ApiKey::critical(fn_id, name))?)
    }
}

/// The handle a function body uses to talk to Canary.
#[derive(Debug)]
pub struct FunctionContext {
    service: StateService,
    fn_id: u64,
    seq: u64,
}

impl FunctionContext {
    /// This invocation's function id.
    pub fn fn_id(&self) -> u64 {
        self.fn_id
    }

    /// Next state sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Register a named application state (the Canary checkpoint call the
    /// paper inserts into function code). Returns the assigned sequence
    /// number.
    pub fn register_state(&mut self, name: &str, payload: Bytes) -> Result<u64, ApiError> {
        let state = RegisteredState {
            seq: self.seq,
            name: name.to_string(),
            payload,
        };
        self.service
            .kv
            .put(ApiKey::state(self.fn_id), encode_state(&state))?;
        self.seq += 1;
        Ok(state.seq)
    }

    /// Register a critical data blob that must survive independently of
    /// the rolling state (e.g. preprocessed inputs, model weights).
    pub fn register_critical(&self, name: &str, payload: Bytes) -> Result<(), ApiError> {
        Ok(self
            .service
            .kv
            .put(ApiKey::critical(self.fn_id, name), payload)?)
    }
}

/// Execute a [`Resumable`] kernel under the Canary API: every step's
/// state is registered; if `kill_after_steps` is hit the in-memory state
/// is dropped and execution resumes through [`StateService::recover`].
/// Returns the kernel digest (identical to an uninterrupted run — the
/// tests assert it).
pub fn run_resumable<K: Resumable>(
    service: &StateService,
    fn_id: u64,
    kernel: &K,
    kill_after_steps: Option<u64>,
) -> Result<u64, ApiError> {
    let mut ctx = service.context(fn_id);
    let mut state = kernel.init();
    let mut steps = 0u64;
    loop {
        let more = kernel.step(&mut state);
        ctx.register_state(kernel.name(), kernel.encode(&state))?;
        steps += 1;
        if Some(steps) == kill_after_steps && more {
            // Container dies: lose everything held in memory.
            drop(state);
            let (new_ctx, restored) = service.recover(fn_id)?;
            ctx = new_ctx;
            state = kernel.decode(&restored.payload)?;
            // Continue from the restored state; the kill fires only once.
            return finish(service, ctx, kernel, state);
        }
        if !more {
            return Ok(kernel.digest(&state));
        }
    }
}

fn finish<K: Resumable>(
    _service: &StateService,
    mut ctx: FunctionContext,
    kernel: &K,
    mut state: K::State,
) -> Result<u64, ApiError> {
    while kernel.step(&mut state) {
        ctx.register_state(kernel.name(), kernel.encode(&state))?;
    }
    ctx.register_state(kernel.name(), kernel.encode(&state))?;
    Ok(kernel.digest(&state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_workloads::{BfsKernel, CompressionKernel, TrainingKernel};

    /// The stack-buffer key path must stay byte-identical to the
    /// `format!` layout it replaced, or previously stored rows become
    /// unreachable. Pins ids across the decimal-width boundary (including
    /// u64::MAX, whose 20 digits exceed the 16-wide zero padding) and
    /// names across empty / unicode / inline-capacity / heap-spill.
    #[test]
    fn api_keys_match_the_formatted_layout() {
        let ids = [
            0u64,
            1,
            42,
            9_999_999_999_999_999,
            10_000_000_000_000_000,
            u64::MAX,
        ];
        let names = [
            "",
            "model",
            "поток-θ",
            &"n".repeat(62),  // largest critical name that stays inline
            &"n".repeat(63),  // first to spill
            &"n".repeat(300), // far past the inline buffer
        ];
        for id in ids {
            assert_eq!(
                ApiKey::state(id).as_ref(),
                format!("api/state/{id:016}").as_bytes(),
                "state key layout drifted for fn {id}"
            );
            for name in names {
                assert_eq!(
                    ApiKey::critical(id, name).as_ref(),
                    format!("api/critical/{id:016}/{name}").as_bytes(),
                    "critical key layout drifted for fn {id}, name len {}",
                    name.len()
                );
            }
        }
    }

    /// Rows written under the old formatted keys stay readable through
    /// the typed key path (the on-store layout is unchanged).
    #[test]
    fn formatted_keys_and_typed_keys_address_the_same_rows() {
        let svc = StateService::new(2);
        let ctx = svc.context(u64::MAX);
        ctx.register_critical("w", Bytes::from_static(b"blob"))
            .unwrap();
        assert_eq!(
            svc.kv()
                .get(format!("api/critical/{:016}/w", u64::MAX))
                .unwrap(),
            Bytes::from_static(b"blob")
        );
        svc.kv()
            .put(
                format!("api/state/{:016}", 5u64),
                encode_state(&RegisteredState {
                    seq: 0,
                    name: "s".into(),
                    payload: Bytes::from_static(b"v"),
                }),
            )
            .unwrap();
        let (_, state) = svc.recover(5).unwrap();
        assert_eq!(state.payload, Bytes::from_static(b"v"));
    }

    #[test]
    fn state_codec_round_trip() {
        let s = RegisteredState {
            seq: 42,
            name: "epoch".into(),
            payload: Bytes::from_static(b"weights"),
        };
        assert_eq!(decode_state(&encode_state(&s)).unwrap(), s);
    }

    #[test]
    fn register_and_recover() {
        let svc = StateService::new(3);
        let mut ctx = svc.context(7);
        ctx.register_state("s", Bytes::from_static(b"v0")).unwrap();
        ctx.register_state("s", Bytes::from_static(b"v1")).unwrap();
        let (ctx2, state) = svc.recover(7).unwrap();
        assert_eq!(state.seq, 1);
        assert_eq!(state.payload, Bytes::from_static(b"v1"));
        assert_eq!(ctx2.next_seq(), 2);
    }

    #[test]
    fn recover_unknown_function_fails() {
        let svc = StateService::new(2);
        assert!(matches!(
            svc.recover(99),
            Err(ApiError::NoState { fn_id: 99 })
        ));
    }

    #[test]
    fn critical_data_round_trip() {
        let svc = StateService::new(2);
        let ctx = svc.context(3);
        ctx.register_critical("model", Bytes::from_static(b"w"))
            .unwrap();
        assert_eq!(
            svc.critical_data(3, "model").unwrap(),
            Bytes::from_static(b"w")
        );
        assert!(svc.critical_data(3, "missing").is_err());
    }

    #[test]
    fn state_survives_member_crash() {
        let svc = StateService::new(3);
        let mut ctx = svc.context(1);
        ctx.register_state("s", Bytes::from_static(b"alive"))
            .unwrap();
        svc.kv().fail_node(0).unwrap();
        let (_, state) = svc.recover(1).unwrap();
        assert_eq!(state.payload, Bytes::from_static(b"alive"));
    }

    #[test]
    fn run_resumable_uninterrupted_matches_plain() {
        let svc = StateService::new(2);
        let kernel = BfsKernel::new(100_000, 10_000);
        let via_api = run_resumable(&svc, 1, &kernel, None).unwrap();
        let plain = {
            let mut st = kernel.init();
            kernel.run_to_completion(&mut st)
        };
        assert_eq!(via_api, plain);
    }

    #[test]
    fn run_resumable_with_kill_matches() {
        let svc = StateService::new(3);
        let kernel = TrainingKernel {
            features: 8,
            examples: 64,
            batch: 16,
            epochs: 10,
            lr: 0.1,
            seed: 2,
        };
        let interrupted = run_resumable(&svc, 2, &kernel, Some(4)).unwrap();
        let clean = run_resumable(&svc, 3, &kernel, None).unwrap();
        assert_eq!(interrupted, clean);
    }

    #[test]
    fn kill_at_each_step_matches() {
        let kernel = CompressionKernel::new(5, 4 * 1024, 9);
        let clean = {
            let svc = StateService::new(2);
            run_resumable(&svc, 0, &kernel, None).unwrap()
        };
        for kill in 1..5 {
            let svc = StateService::new(2);
            let got = run_resumable(&svc, 0, &kernel, Some(kill)).unwrap();
            assert_eq!(got, clean, "kill after step {kill}");
        }
    }
}

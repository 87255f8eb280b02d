//! The multi-model registry: named [`ModelState`]s behind an LRU bounded
//! by resident artifact bytes.
//!
//! One server process holds N registered models but keeps only as many
//! resident as the `max_resident_bytes` budget allows. A request for an
//! evicted model triggers a lazy reload from its artifact (the same
//! ~tens-of-ms open-to-ready path LOAD uses) on the worker thread that
//! needed it; requests for other models keep flowing meanwhile. Eviction
//! only drops the `Arc<ModelState>` — in-flight batches holding a clone
//! finish unaffected, and the registry entry (name, artifact source,
//! counters) survives so the model stays addressable.
//!
//! Models registered without an artifact source (the in-process
//! `start_with_state` path) are never evicted: there is nothing to
//! reload them from.
//!
//! Observability: `registry.loads` / `registry.evictions` counters, a
//! `registry.resident_bytes` histogram sampled after every residency
//! change, and a per-model `registry.requests` counter keyed by model
//! name.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use quq_obs::SiteKey;

use crate::error::ServeError;
use crate::protocol::{ModelEntry, RegistrySnapshot};
use crate::server::{artifact_state, ModelState};

/// Registry name of the default model (what an empty wire name maps to).
pub const DEFAULT_MODEL: &str = "default";

/// Maps a wire model name to a registry name.
pub(crate) fn resolve_name(wire: &str) -> &str {
    if wire.is_empty() {
        DEFAULT_MODEL
    } else {
        wire
    }
}

/// Where a model can be (re)loaded from.
#[derive(Clone)]
struct ModelSource {
    path: PathBuf,
    backend: String,
}

struct Entry {
    source: Option<ModelSource>,
    resident: Option<Arc<ModelState>>,
    /// Artifact bytes (or an in-memory weight estimate for sourceless
    /// entries) — what the LRU budget charges while resident.
    bytes: u64,
    last_used: u64,
    requests: u64,
    /// Serializes lazy reloads of this entry so a thundering herd of
    /// workers loads the artifact once, not once per worker.
    loading: Arc<Mutex<()>>,
}

struct Inner {
    entries: BTreeMap<String, Entry>,
    tick: u64,
    loads: u64,
    evictions: u64,
}

/// What [`Registry::admit`] tells a front end about a named model.
pub(crate) enum Admit {
    /// No such model registered: answer with an error frame.
    Unknown,
    /// Registered but not resident: admit the job; a worker will lazily
    /// reload the artifact.
    Cold,
    /// Resident: the front end can validate the request shape up front.
    Resident(Arc<ModelState>),
}

/// Named models behind a resident-bytes LRU.
pub struct Registry {
    inner: Mutex<Inner>,
    /// High-water budget for resident artifact bytes; 0 = unbounded.
    max_resident_bytes: u64,
}

impl Registry {
    pub(crate) fn new(max_resident_bytes: u64) -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                entries: BTreeMap::new(),
                tick: 0,
                loads: 0,
                evictions: 0,
            }),
            max_resident_bytes,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `name` with an already-built state (no artifact source
    /// unless `source` is given), replacing any existing entry under that
    /// name but keeping its request counter.
    pub(crate) fn register_state(
        &self,
        name: &str,
        state: Arc<ModelState>,
        source: Option<PathBuf>,
    ) {
        let bytes = source
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok().map(|m| m.len()))
            // A sourceless entry is charged its f32 weights' footprint.
            .unwrap_or_else(|| 4 * state.model.config().param_count() as u64);
        let backend = state.provider.name().to_string();
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let requests = inner.entries.get(name).map_or(0, |e| e.requests);
        inner.entries.insert(
            name.to_string(),
            Entry {
                source: source.map(|path| ModelSource { path, backend }),
                resident: Some(state),
                bytes,
                last_used: tick,
                requests,
                loading: Arc::new(Mutex::new(())),
            },
        );
        self.evict_locked(&mut inner, name);
    }

    /// Attaches an artifact source to an existing entry, making it
    /// evictable (and lazily reloadable). No-op for unknown names.
    pub(crate) fn set_source(&self, name: &str, path: &Path) {
        let mut inner = self.lock();
        if let Some(e) = inner.entries.get_mut(name) {
            let backend = e
                .resident
                .as_ref()
                .map(|s| s.provider.name().to_string())
                .or_else(|| e.source.as_ref().map(|s| s.backend.clone()))
                .unwrap_or_else(|| "int".to_string());
            if let Ok(m) = std::fs::metadata(path) {
                e.bytes = m.len();
            }
            e.source = Some(ModelSource {
                path: path.to_path_buf(),
                backend,
            });
        }
        self.evict_locked(&mut inner, "");
    }

    /// Registers and loads model `name` from the artifact at `path`,
    /// replacing any existing entry under that name but keeping its
    /// request counter — so a LOAD of [`DEFAULT_MODEL`] is a hot swap of
    /// the default. The entry becomes evictable (it now has a source).
    /// A name longer than the 255 bytes the wire can carry is refused, so
    /// every name a LIST or SHADOW reply sends fits its field.
    pub(crate) fn load(&self, name: &str, path: &Path, backend: &str) -> Result<(), ServeError> {
        if name.len() > usize::from(u8::MAX) {
            return Err(ServeError::NameTooLong(name.len()));
        }
        let state = artifact_state(path, backend).map_err(|source| ServeError::Load {
            name: name.to_string(),
            path: path.to_path_buf(),
            lazy: false,
            source,
        })?;
        self.lock().loads += 1;
        quq_obs::add("registry.loads", 1);
        self.register_state(name, Arc::new(state), Some(path.to_path_buf()));
        Ok(())
    }

    /// Backend family of the default model — what LOAD builds its
    /// providers with.
    pub(crate) fn default_backend(&self) -> String {
        let inner = self.lock();
        inner
            .entries
            .get(DEFAULT_MODEL)
            .map(|e| match (&e.resident, &e.source) {
                (Some(s), _) => s.provider.name().to_string(),
                (None, Some(src)) => src.backend.clone(),
                (None, None) => "int".to_string(),
            })
            .unwrap_or_else(|| "int".to_string())
    }

    /// Promotes model `name` to be the new default: the candidate's
    /// source and resident state are installed under [`DEFAULT_MODEL`],
    /// keeping the default entry's request counter (as [`Registry::load`]
    /// does). The candidate entry itself stays
    /// registered under its own name. Used by shadow/canary promotion.
    pub(crate) fn promote(&self, name: &str) -> Result<(), ServeError> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let (source, resident, bytes, loading) = {
            let e = inner
                .entries
                .get(name)
                .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
            if e.resident.is_none() && e.source.is_none() {
                return Err(ServeError::NoArtifact(name.to_string()));
            }
            (
                e.source.clone(),
                e.resident.clone(),
                e.bytes,
                Arc::clone(&e.loading),
            )
        };
        let requests = inner.entries.get(DEFAULT_MODEL).map_or(0, |e| e.requests);
        inner.entries.insert(
            DEFAULT_MODEL.to_string(),
            Entry {
                source,
                resident,
                bytes,
                last_used: tick,
                requests,
                loading,
            },
        );
        self.evict_locked(&mut inner, DEFAULT_MODEL);
        Ok(())
    }

    /// Drops model `name` from the registry entirely. Returns `false` if
    /// no such model was registered.
    pub(crate) fn unload(&self, name: &str) -> bool {
        let mut inner = self.lock();
        let removed = inner.entries.remove(name).is_some();
        if removed {
            self.record_resident_bytes(&inner);
        }
        removed
    }

    /// Front-end admission check for a request naming `name` (already
    /// resolved — empty wire names become [`DEFAULT_MODEL`]). Bumps the
    /// model's request counter and LRU position.
    pub(crate) fn admit(&self, name: &str) -> Admit {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(name) {
            None => Admit::Unknown,
            Some(e) => {
                e.last_used = tick;
                e.requests += 1;
                quq_obs::add_at("registry.requests", || SiteKey::global(name.to_string()), 1);
                match &e.resident {
                    Some(state) => Admit::Resident(Arc::clone(state)),
                    None => Admit::Cold,
                }
            }
        }
    }

    /// Resolves `name` to a resident state, lazily reloading from its
    /// artifact if it was evicted. This is the worker-side call: the
    /// artifact open happens on the calling thread, serialized per entry,
    /// never under the registry lock.
    pub(crate) fn get(&self, name: &str) -> Result<Arc<ModelState>, ServeError> {
        let (loading, source) = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let e = inner
                .entries
                .get_mut(name)
                .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
            e.last_used = tick;
            if let Some(state) = &e.resident {
                return Ok(Arc::clone(state));
            }
            let source = e
                .source
                .clone()
                .ok_or_else(|| ServeError::NoArtifact(name.to_string()))?;
            (Arc::clone(&e.loading), source)
        };

        // Lazy reload, serialized per entry. Re-check residency under the
        // load lock: a racing worker may have already brought it back.
        let _serialize = loading.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(state) = self
            .lock()
            .entries
            .get(name)
            .and_then(|e| e.resident.clone())
        {
            return Ok(state);
        }
        let state =
            artifact_state(&source.path, &source.backend).map_err(|e| ServeError::Load {
                name: name.to_string(),
                path: source.path.clone(),
                lazy: true,
                source: e,
            })?;
        let bytes = std::fs::metadata(&source.path)
            .map(|m| m.len())
            .unwrap_or(0);
        let state = Arc::new(state);
        let mut inner = self.lock();
        inner.tick += 1;
        inner.loads += 1;
        quq_obs::add("registry.loads", 1);
        let tick = inner.tick;
        if let Some(e) = inner.entries.get_mut(name) {
            e.resident = Some(Arc::clone(&state));
            e.bytes = bytes;
            e.last_used = tick;
        }
        self.evict_locked(&mut inner, name);
        Ok(state)
    }

    /// Point-in-time snapshot for LIST responses and tests.
    pub(crate) fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.lock();
        RegistrySnapshot {
            models: inner
                .entries
                .iter()
                .map(|(name, e)| ModelEntry {
                    name: name.clone(),
                    resident: e.resident.is_some(),
                    bytes: e.bytes,
                    requests: e.requests,
                })
                .collect(),
            loads: inner.loads,
            evictions: inner.evictions,
        }
    }

    /// Evicts least-recently-used resident models until resident bytes
    /// fit the budget. `protect` (typically the model just loaded) and
    /// sourceless entries are never evicted, so the budget is a
    /// high-water mark, not a hard cap: one oversized-but-in-use model
    /// stays resident rather than thrashing.
    fn evict_locked(&self, inner: &mut Inner, protect: &str) {
        if self.max_resident_bytes > 0 {
            loop {
                let resident: u64 = inner
                    .entries
                    .values()
                    .filter(|e| e.resident.is_some())
                    .map(|e| e.bytes)
                    .sum();
                if resident <= self.max_resident_bytes {
                    break;
                }
                let victim = inner
                    .entries
                    .iter()
                    .filter(|(n, e)| {
                        e.resident.is_some() && e.source.is_some() && n.as_str() != protect
                    })
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(n, _)| n.clone());
                match victim {
                    Some(name) => {
                        if let Some(e) = inner.entries.get_mut(&name) {
                            e.resident = None;
                        }
                        inner.evictions += 1;
                        quq_obs::add("registry.evictions", 1);
                    }
                    None => break,
                }
            }
        }
        self.record_resident_bytes(inner);
    }

    fn record_resident_bytes(&self, inner: &Inner) {
        let resident: u64 = inner
            .entries
            .values()
            .filter(|e| e.resident.is_some())
            .map(|e| e.bytes)
            .sum();
        quq_obs::record("registry.resident_bytes", resident);
    }
}

//! The global string interner behind [`Value::Str`](crate::Value).
//!
//! Every string value constructed through [`Value::str`](crate::Value::str)
//! (and the `From<&str>` / `From<String>` conversions the parser and fact
//! loaders use) is registered here, so equal strings share one canonical
//! `Arc<str>` and a stable `u32` symbol id. The columnar fact store
//! (`crate::database`) encodes string columns as that id, which makes
//! string joins compare a single machine word instead of re-hashing
//! characters, and makes `Value` equality on interned strings a pointer
//! comparison.
//!
//! Interning and lookup by content go through one `RwLock`; resolving an
//! id — what every decode of a string column does, on every solver
//! thread — reads an append-only chunk table and takes no lock.
//!
//! The table is process-global and append-only: symbols are never freed.
//! That is the right trade-off for a Datalog engine — the set of distinct
//! strings is bounded by the input EDB plus anything user functions
//! fabricate, and ids must stay stable for as long as any encoded column
//! references them.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// The interner's write side: content → id, behind the lock. The read
/// side, id → canonical `Arc<str>`, is the lock-free `Names` table.
#[derive(Default)]
pub struct SymbolTable {
    ids: HashMap<Arc<str>, u32>,
}

impl SymbolTable {
    fn intern(&mut self, s: &str) -> (u32, Arc<str>) {
        if let Some((name, &id)) = self.ids.get_key_value(s) {
            return (id, Arc::clone(name));
        }
        let id = u32::try_from(self.ids.len()).expect("fewer than 2^32 distinct strings");
        let name: Arc<str> = Arc::from(s);
        // Published before the id can leave this function: the caller
        // holds the write lock, so ids are issued — and their slots
        // filled — one at a time, in order.
        names().publish(id, Arc::clone(&name));
        self.ids.insert(Arc::clone(&name), id);
        (id, name)
    }
}

/// Ids below this live in chunk 0; chunk `k ≥ 1` holds the ids in
/// `[FIRST_CHUNK << (k-1), FIRST_CHUNK << k)`, so chunk sizes double and
/// 23 chunks cover every `u32`.
const FIRST_CHUNK: u32 = 1 << 10;
const CHUNKS: usize = 23;

/// id → name without a lock: an append-only table of doubling chunks.
/// A chunk is allocated, and a slot filled, exactly once — by the
/// interning thread, under the write lock — and never moves afterwards,
/// so [`resolve`] reads a name with two atomic loads while the decode
/// paths of any number of solver threads run beside an `intern`.
struct Names {
    chunks: [OnceLock<Chunk>; CHUNKS],
}

/// One fixed-size run of name slots, each written once.
type Chunk = Box<[OnceLock<Arc<str>>]>;

impl Names {
    /// The chunk holding `id`, and the id's offset within it.
    fn locate(id: u32) -> (usize, usize) {
        if id < FIRST_CHUNK {
            return (0, id as usize);
        }
        let chunk = (u32::BITS - (id / FIRST_CHUNK).leading_zeros()) as usize;
        (chunk, (id - (FIRST_CHUNK << (chunk - 1))) as usize)
    }

    fn publish(&self, id: u32, name: Arc<str>) {
        let (chunk, offset) = Names::locate(id);
        let slots = self.chunks[chunk].get_or_init(|| {
            let len = (FIRST_CHUNK as usize) << chunk.saturating_sub(1);
            (0..len).map(|_| OnceLock::new()).collect()
        });
        slots[offset]
            .set(name)
            .expect("each symbol id is issued once");
    }

    fn get(&self, id: u32) -> Option<&Arc<str>> {
        let (chunk, offset) = Names::locate(id);
        self.chunks[chunk].get()?[offset].get()
    }
}

fn names() -> &'static Names {
    static NAMES: Names = Names {
        chunks: [const { OnceLock::new() }; CHUNKS],
    };
    &NAMES
}

fn table() -> &'static RwLock<SymbolTable> {
    static TABLE: OnceLock<RwLock<SymbolTable>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(SymbolTable::default()))
}

/// Interns `s`, returning its stable symbol id and the canonical
/// `Arc<str>` all equal interned strings share.
pub fn intern(s: &str) -> (u32, Arc<str>) {
    // Fast path: already interned, shared read lock only.
    if let Some(hit) = {
        let t = table().read().expect("symbol table lock");
        t.ids.get_key_value(s).map(|(n, &id)| (id, Arc::clone(n)))
    } {
        return hit;
    }
    table().write().expect("symbol table lock").intern(s)
}

/// Looks up the symbol id of `s` without interning it. Read-only: safe
/// to call concurrently from solver workers. A string that was never
/// interned has no id — and therefore cannot equal any encoded column.
pub fn lookup(s: &str) -> Option<u32> {
    table()
        .read()
        .expect("symbol table lock")
        .ids
        .get(s)
        .copied()
}

/// Resolves a symbol id back to its canonical string. Takes no lock.
///
/// # Panics
///
/// Panics on an id that was never issued by [`intern`].
pub fn resolve(id: u32) -> Arc<str> {
    Arc::clone(names().get(id).expect("symbol id issued by intern"))
}

/// Whether `id` was issued by [`intern`]: what [`resolve`] takes without
/// panicking. Takes no lock.
pub(crate) fn issued(id: u32) -> bool {
    names().get(id).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_canonical() {
        let (id1, a) = intern("flix-symbol-test");
        let (id2, b) = intern("flix-symbol-test");
        assert_eq!(id1, id2);
        assert!(Arc::ptr_eq(&a, &b), "equal strings share one allocation");
        assert!(Arc::ptr_eq(&resolve(id1), &a));
        assert_eq!(lookup("flix-symbol-test"), Some(id1));
    }

    #[test]
    fn lookup_does_not_intern() {
        assert_eq!(lookup("flix-symbol-never-interned-q7x"), None);
    }

    #[test]
    fn chunk_layout_covers_every_id_once() {
        assert_eq!(Names::locate(0), (0, 0));
        assert_eq!(
            Names::locate(FIRST_CHUNK - 1),
            (0, FIRST_CHUNK as usize - 1)
        );
        assert_eq!(Names::locate(FIRST_CHUNK), (1, 0));
        assert_eq!(
            Names::locate(2 * FIRST_CHUNK - 1),
            (1, FIRST_CHUNK as usize - 1)
        );
        assert_eq!(Names::locate(2 * FIRST_CHUNK), (2, 0));
        assert_eq!(
            Names::locate(4 * FIRST_CHUNK - 1),
            (2, 2 * FIRST_CHUNK as usize - 1)
        );
        assert_eq!(Names::locate(u32::MAX), (CHUNKS - 1, (1 << 31) - 1));
    }

    /// Four threads intern disjoint and overlapping strings while four
    /// others resolve every id already issued: a resolved name is the
    /// canonical `Arc<str>` of its id, and stays so.
    #[test]
    fn resolve_is_stable_beside_concurrent_interning() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Mutex;
        const PER_WRITER: usize = 3000; // past the first chunk boundary
        let issued: Mutex<Vec<(u32, Arc<str>)>> = Mutex::new(Vec::new());
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4)
                .map(|w| {
                    let issued = &issued;
                    scope.spawn(move || {
                        for i in 0..PER_WRITER {
                            // Even rounds: a string of this writer's own;
                            // odd rounds: one all four writers race on.
                            let s = if i % 2 == 0 {
                                format!("flix-symbol-conc-{w}-{i}")
                            } else {
                                format!("flix-symbol-conc-shared-{i}")
                            };
                            let (id, name) = intern(&s);
                            assert_eq!(&*name, s.as_str());
                            assert!(Arc::ptr_eq(&resolve(id), &name));
                            issued.lock().expect("issued").push((id, name));
                        }
                    })
                })
                .collect();
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut seen = 0;
                    while !done.load(Ordering::Acquire)
                        || seen < issued.lock().expect("issued").len()
                    {
                        let batch: Vec<(u32, Arc<str>)> =
                            issued.lock().expect("issued")[seen..].to_vec();
                        seen += batch.len();
                        for (id, name) in batch {
                            let resolved = resolve(id);
                            assert!(Arc::ptr_eq(&resolved, &name), "canonical for id {id}");
                            assert_eq!(lookup(&resolved), Some(id));
                        }
                    }
                });
            }
            for w in writers {
                w.join().expect("writer");
            }
            done.store(true, Ordering::Release);
        });
        // Overlapping strings got one id each, whichever writer won.
        let issued = issued.into_inner().expect("issued");
        assert_eq!(issued.len(), 4 * PER_WRITER);
        let mut by_name: HashMap<&str, u32> = HashMap::new();
        for (id, name) in &issued {
            assert_eq!(
                *by_name.entry(name).or_insert(*id),
                *id,
                "one id for {name}"
            );
            assert!(Arc::ptr_eq(&resolve(*id), name), "stable after the race");
        }
        assert_eq!(by_name.len(), 4 * (PER_WRITER / 2) + PER_WRITER / 2);
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let (a, _) = intern("flix-symbol-a");
        let (b, _) = intern("flix-symbol-b");
        assert_ne!(a, b);
    }
}

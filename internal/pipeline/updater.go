// The update stream is the incremental face of the pipeline: where
// Run/Stream process a relation whose entities are fully known up
// front, an Updater keeps one live grounding per entity and absorbs
// evidence tuples as they arrive, re-deducing (and re-searching) only
// the entities an update batch touches. Under the hood each delta runs
// through chase.Grounding.Extend — delta Instantiation plus monotone
// resumption of the base chase — so absorbing a tuple into an n-tuple
// entity costs O(‖Σ‖·n) instead of the O(‖Σ‖·n²) rebuild, and every
// re-deduction is byte-identical to a fresh batch over the accumulated
// instance (updater_test.go enforces this).
//
// The live entities are held in a sharded store: keys hash to one of
// shardCount stripes, each stripe guards only its routing map, and all
// per-entity work — extending the grounding, committing the new
// version, re-deducing — happens under that entity's own lock. No
// shard or store-wide lock is ever held across deduction, so batches
// over disjoint keys run fully concurrently, two batches touching one
// key serialise on that key alone, and the readers (Len, Keys,
// Version, Snapshot, Query) answer from atomically published grounding
// versions without waiting for any in-flight batch.
package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chase"
	"repro/internal/model"
	"repro/internal/par"
)

// Update is one evidence delta of the update stream: new tuples for the
// entity identified by Key. Keys are caller-chosen routing identifiers
// (an identifier column's value, an ER cluster id); a key never seen
// before creates a new live entity.
type Update struct {
	Key    string
	Tuples []*model.Tuple
}

// Persister is the durability hook under Apply. When one is attached,
// every batch is handed to LogApply AFTER batch-level validation but
// BEFORE any entity is touched — log-then-apply ordering, so a batch
// the caller saw acknowledged is always wholly recoverable, and a
// batch the persister rejected was never applied at all. internal/wal
// provides the write-ahead-log implementation; nil (the default)
// keeps the PR 1–5 memory-only behaviour byte for byte.
type Persister interface {
	// LogApply durably records one update batch and returns the
	// sequence number it assigned. An error fails the whole Apply
	// with no update applied.
	LogApply(updates []Update) (uint64, error)
}

// shardCount is the number of stripes the live-entity map is split
// into; a power of two so routing is a mask. 64 stripes keep routing
// contention negligible far past the worker counts a batch can use.
const shardCount = 64

// shard is one stripe of the live-entity store. Its lock guards only
// the routing map — never any entity's grounding work.
type shard struct {
	mu       sync.RWMutex
	entities map[string]*liveEntity
}

// liveEntity is one keyed entity of the stream. mu serialises writers
// (extend + commit + re-deduce) so each key's history is linear; g is
// the committed grounding version, published atomically so readers
// never take mu. g is nil only transiently, while a creation is in
// flight: a failed creation withdraws its routing entry again (see
// applyOne), so the shard maps hold no permanent tombstones.
type liveEntity struct {
	// mu serialises extend+commit+re-deduce per entity; holding it
	// across deduction is the design (writers to the same entity must
	// not interleave), not an accident.
	//
	//relacc:lock-held-over-deduction
	mu sync.Mutex
	g  atomic.Pointer[chase.Grounding]
	// memo is the entity's settled-target cache: the last computed
	// deduce → search answer, keyed by the grounding version it was
	// computed on plus the (k, algorithm) pair (see settledMemo). It is
	// best-effort and self-validating — a hit requires the memo's
	// grounding pointer to equal the currently committed one, so a memo
	// from a superseded version can never be served, only skipped.
	memo atomic.Pointer[settledMemo]
}

// settledMemo is one memoised re-deduction answer. Grounding versions
// are immutable and the deduce → search kernel is deterministic, so
// (g, k, algo) fully determines the result; invalidation is structural
// — Apply committing a new version makes every old memo's g pointer
// stale, and the hit check compares pointers. res carries only the
// recomputable fields (Instance, Version, Deduction, Candidates,
// Stats, Err): Key/Index/Elapsed stay per-call. A memoised result's
// Deduction and Candidates are shared across hits; like every Result
// off the read path they are read-only snapshots.
type settledMemo struct {
	g    *chase.Grounding
	k    int
	algo Algorithm
	res  Result
}

// Updater routes evidence deltas to live per-entity grounding versions
// held in a sharded store. Concurrent producers may call Apply:
// batches over disjoint keys proceed in parallel, batches sharing a
// key serialise per entity, and each entity observes a linear sequence
// of deltas. The read side (Len, Keys, Version, Snapshot, Query) never
// blocks on an in-flight batch's deduction. The zero value is
// unusable; create one with NewUpdater or NewUpdaterShared.
type Updater struct {
	shared *chase.Shared
	cfg    Config

	// persister, when non-nil, durably logs every batch before it is
	// applied (see Persister). Set once via AttachPersister, before
	// concurrent producers start.
	persister Persister

	// applyGate lets Checkpoint observe a quiesced store: every Apply
	// and Replay holds the read side across log + apply + key
	// registration, so under the write side no batch is in flight and
	// every sequence number the persister handed out is fully
	// reflected in the live entities. Uncontended RLock/RUnlock is
	// noise next to a deduction, so the gate is taken in memory-only
	// mode too.
	//
	//relacc:lock-held-over-deduction
	applyGate sync.RWMutex

	shards [shardCount]shard

	// keyMu guards the registry of successfully created entities. Keys
	// register in batch order when their creating Apply returns, so a
	// sequential caller observes exactly the pre-sharding first-seen
	// order; a brand-new entity answers Version(key) >= 0 as soon as
	// its version commits, which may be moments before Len/Keys count
	// it (only while its creating Apply is still running).
	keyMu sync.Mutex
	keys  []string // first-registration order, for deterministic enumeration

	// settledHits/settledMisses count settled-target memo outcomes
	// across the whole stream (hits are re-deductions answered without
	// running the kernel).
	settledHits   atomic.Int64
	settledMisses atomic.Int64

	// testHookMidApply, when non-nil, runs after an entity's new
	// grounding version is committed but before its re-deduction,
	// holding only that entity's lock — tests freeze a batch
	// mid-deduction with it to prove readers and disjoint keys are
	// never blocked.
	testHookMidApply func(key string)
}

// NewUpdater validates cfg.Rules against the schema (and cfg.Master)
// once and returns an empty update stream for entities of that schema.
func NewUpdater(schema *model.Schema, cfg Config) (*Updater, error) {
	shared, err := chase.NewShared(schema, cfg.Master, cfg.Rules)
	if err != nil {
		return nil, err
	}
	return NewUpdaterShared(shared, cfg), nil
}

// NewUpdaterShared builds an update stream on a prebuilt schema-level
// groundwork; cfg.Master and cfg.Rules are ignored in favour of the
// groundwork's own.
func NewUpdaterShared(shared *chase.Shared, cfg Config) *Updater {
	u := &Updater{shared: shared, cfg: cfg}
	for i := range u.shards {
		u.shards[i].entities = make(map[string]*liveEntity)
	}
	return u
}

// Schema returns the entity schema every update must conform to.
func (u *Updater) Schema() *model.Schema { return u.shared.Schema() }

// Dict returns the stream's base dictionary: the read-only master
// values and rule constants every entity's overlay extends. Tag
// decoded rows with it (csvio.TupleIterator.Intern) so grounding reuses
// their IDs.
func (u *Updater) Dict() *model.Dict { return u.shared.Dict() }

// AttachPersister installs the durability hook. Call it once, after
// recovery has replayed any existing log (replayed batches must not be
// re-logged) and before concurrent producers start applying.
func (u *Updater) AttachPersister(p Persister) { u.persister = p }

// Residency reports what the stream holds in memory: the number of
// live entities and the total evidence tuples across them. It reads
// committed versions only and never blocks an in-flight batch.
func (u *Updater) Residency() (entities, tuples int) {
	for _, key := range u.Keys() {
		e := u.lookup(key)
		if e == nil {
			continue
		}
		g := e.g.Load()
		if g == nil {
			continue
		}
		entities++
		tuples += g.Instance().Size()
	}
	return entities, tuples
}

// CacheStats aggregates the stream's two read-path cache layers: the
// settled-target memo (stream-wide hit/miss counts) and the per-entity
// verdict caches (hits/misses cumulative over each entity's version
// chain, entries counting committed versions only; summed across live
// entities). It reads committed state and never blocks a batch.
type CacheStats struct {
	SettledHits    int64
	SettledMisses  int64
	VerdictHits    int64
	VerdictMisses  int64
	VerdictEntries int64
}

// CacheStats reports the stream's cache accounting; see the type.
func (u *Updater) CacheStats() CacheStats {
	cs := CacheStats{
		SettledHits:   u.settledHits.Load(),
		SettledMisses: u.settledMisses.Load(),
	}
	for _, key := range u.Keys() {
		e := u.lookup(key)
		if e == nil {
			continue
		}
		g := e.g.Load()
		if g == nil {
			continue
		}
		st := g.VerdictCacheStats()
		cs.VerdictHits += st.Hits
		cs.VerdictMisses += st.Misses
		cs.VerdictEntries += st.Entries
	}
	return cs
}

// deduceMemo is runGrounding with settled-target memoisation: when the
// entity's last computed answer was produced on this exact grounding
// version with this (k, algorithm) pair, it is returned without
// running the kernel; otherwise the kernel runs and its answer is
// published as the new memo — but only while g is still the committed
// version, so a computation that lost a race with Apply cannot clobber
// the current version's memo (the pointer-equality hit check would
// reject it anyway; the conditional store just keeps the memo useful).
// Byte-identity of hit and recomputation follows from determinism of
// the kernel on an immutable version.
func (u *Updater) deduceMemo(e *liveEntity, g *chase.Grounding, out *Result, cfg *Config) {
	if cfg.DisableSettledCache {
		runGrounding(out, g, cfg)
		return
	}
	if m := e.memo.Load(); m != nil && m.g == g && m.k == cfg.TopK && m.algo == cfg.Algo {
		u.settledHits.Add(1)
		out.Instance = m.res.Instance
		out.Version = m.res.Version
		out.Deduction = m.res.Deduction
		out.Candidates = m.res.Candidates
		out.Stats = m.res.Stats
		out.Err = m.res.Err
		return
	}
	u.settledMisses.Add(1)
	runGrounding(out, g, cfg)
	m := &settledMemo{g: g, k: cfg.TopK, algo: cfg.Algo, res: Result{
		Instance:   out.Instance,
		Version:    out.Version,
		Deduction:  out.Deduction,
		Candidates: out.Candidates,
		Stats:      out.Stats,
		Err:        out.Err,
	}}
	if e.g.Load() == g {
		e.memo.Store(m)
	}
}

// shardFor routes a key to its stripe (FNV-1a, masked).
func (u *Updater) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &u.shards[h&(shardCount-1)]
}

// lookup returns the keyed entity record, or nil when the key has
// never been routed.
func (u *Updater) lookup(key string) *liveEntity {
	s := u.shardFor(key)
	s.mu.RLock()
	e := s.entities[key]
	s.mu.RUnlock()
	return e
}

// entity returns the keyed entity record, creating the routing entry
// if needed. The shard lock covers only the map access.
func (u *Updater) entity(key string) *liveEntity {
	s := u.shardFor(key)
	s.mu.RLock()
	e := s.entities[key]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	if e = s.entities[key]; e == nil {
		e = &liveEntity{}
		s.entities[key] = e
	}
	s.mu.Unlock()
	return e
}

// Len reports how many live entities the stream holds.
func (u *Updater) Len() int {
	u.keyMu.Lock()
	defer u.keyMu.Unlock()
	return len(u.keys)
}

// Keys returns the live entity keys in first-seen order.
func (u *Updater) Keys() []string {
	u.keyMu.Lock()
	defer u.keyMu.Unlock()
	return append([]string(nil), u.keys...)
}

// Version reports how many deltas the keyed entity has absorbed (0 for
// an entity created by its only batch so far, -1 for an unknown key).
// It reads the atomically published version and never waits for an
// in-flight batch.
func (u *Updater) Version(key string) int {
	e := u.lookup(key)
	if e == nil {
		return -1
	}
	g := e.g.Load()
	if g == nil {
		return -1
	}
	return g.Version()
}

// Apply absorbs one batch of evidence deltas. The whole batch is
// validated first — an empty key anywhere fails the batch before any
// entity is touched, as key routing is structural. Deltas are then
// merged by key (a batch may carry several updates for one entity;
// they apply in batch order), each affected entity's grounding is
// extended — or created, for new keys — and re-deduced concurrently on
// cfg.Workers workers, and one Result per affected entity returns in
// first-appearance order, with the Summary aggregated over them. Each
// entity's extend + re-deduce runs under that entity's lock only, so
// concurrent Apply calls over disjoint keys proceed in parallel while
// updates to one key serialise per entity. Per-entity failures report
// through Result.Err and never abort the batch, with the same
// semantics per phase as the batch pipeline: when ABSORBING the delta
// fails (a tuple of the wrong schema), the entity keeps its previous
// grounding version, so the batch may be corrected and retried; when
// absorption succeeds but the deduction's candidate SEARCH fails (say,
// a check budget), the evidence is already in — the version advances,
// Result.Deduction carries the chase outcome, and retrying the same
// tuples would duplicate them (use Version to tell the cases apart).
func (u *Updater) Apply(updates []Update) ([]Result, Summary, error) {
	return u.apply(updates, u.persister, &u.cfg)
}

// Replay is Apply for recovery: it re-absorbs batches read back from a
// durable log without re-logging them, and with the candidate search
// disabled (searches read committed state, they never shape it, so
// re-running them during replay would only burn time). Everything
// else — merging, per-entity extension, deterministic absorption
// failures, key registration order — is exactly Apply, which is what
// makes replayed state byte-identical to the pre-crash store.
func (u *Updater) Replay(updates []Update) ([]Result, Summary, error) {
	cfg := u.cfg
	cfg.TopK = 0
	return u.apply(updates, nil, &cfg)
}

// Checkpoint quiesces the stream and hands fn a consistent cut: the
// live keys in first-seen order and each key's committed entity
// instance, with no batch in flight anywhere (the apply gate is held
// exclusively, so every sequence number the persister assigned is
// fully absorbed). Producers block only while fn runs; fn must not
// call Apply or it deadlocks.
func (u *Updater) Checkpoint(fn func(keys []string, entities []*model.EntityInstance) error) error {
	u.applyGate.Lock()
	defer u.applyGate.Unlock()
	keys := u.Keys()
	entities := make([]*model.EntityInstance, len(keys))
	for i, key := range keys {
		e := u.lookup(key)
		if e == nil {
			return fmt.Errorf("pipeline: checkpoint: registered key %q has no live entity", key)
		}
		g := e.g.Load()
		if g == nil {
			return fmt.Errorf("pipeline: checkpoint: registered key %q has no committed version", key)
		}
		entities[i] = g.Instance()
	}
	return fn(keys, entities)
}

// apply is the core behind Apply and Replay; p is the persister to log
// through (nil for memory-only and for replay) and cfg the effective
// configuration.
func (u *Updater) apply(updates []Update, p Persister, cfg *Config) ([]Result, Summary, error) {
	start := time.Now()
	var sum Summary
	if len(updates) == 0 {
		sum.Elapsed = time.Since(start)
		return nil, sum, nil
	}
	for i, up := range updates {
		if up.Key == "" {
			return nil, sum, fmt.Errorf("pipeline: update %d has an empty key; no update was applied", i)
		}
	}
	u.applyGate.RLock()
	defer u.applyGate.RUnlock()
	if p != nil {
		// Log-then-apply: the batch must be durable (per the sync
		// policy) before any entity changes. The persister validates
		// round-trippability — a batch it rejects was applied nowhere.
		if _, err := p.LogApply(updates); err != nil {
			return nil, sum, fmt.Errorf("pipeline: persisting batch: %w; no update was applied", err)
		}
	}
	merged := make(map[string][]*model.Tuple, len(updates))
	var order []string
	for _, up := range updates {
		if _, ok := merged[up.Key]; !ok {
			order = append(order, up.Key)
		}
		merged[up.Key] = append(merged[up.Key], up.Tuples...)
	}

	results := make([]Result, len(order))
	created := make([]bool, len(order))
	err := par.Each(cfg.workers(), len(order), func(i int) error {
		entityStart := time.Now()
		defer func() { results[i].Elapsed = time.Since(entityStart) }()
		results[i].Index = i
		created[i] = u.applyOne(order[i], merged[order[i]], &results[i], cfg)
		return nil
	})
	if err != nil {
		return nil, sum, err
	}
	// Register this batch's new entities in batch order, so key
	// enumeration stays deterministic for sequential callers. Creation
	// succeeds at most once per key ever (the creating goroutine held
	// the entity lock and saw no committed version), so no record can
	// be registered twice.
	u.keyMu.Lock()
	for i, key := range order {
		if created[i] {
			u.keys = append(u.keys, key)
		}
	}
	u.keyMu.Unlock()
	for i := range results {
		sum.add(&results[i], u.shared.Schema().Arity())
	}
	sum.Elapsed = time.Since(start)
	return results, sum, nil
}

// tupleBound enforces cfg.MaxEntityTuples: it fails an absorption
// whose committed size plus delta would exceed the bound. The check
// depends only on those two sizes, so a logged batch re-fails (or
// re-succeeds) identically on recovery replay.
func tupleBound(have, add int, cfg *Config) error {
	if max := cfg.MaxEntityTuples; max > 0 && have+add > max {
		return fmt.Errorf("absorbing %d tuples onto %d would exceed the %d-tuple entity bound", add, have, max)
	}
	return nil
}

// applyOne extends (or creates) one keyed entity and re-deduces it,
// under that entity's lock alone; it reports whether this call
// performed the entity's successful creation.
func (u *Updater) applyOne(key string, tuples []*model.Tuple, out *Result, cfg *Config) (createdNow bool) {
	out.Key = key
	var ent *liveEntity
	for {
		ent = u.entity(key)
		ent.mu.Lock()
		if u.lookup(key) == ent {
			break
		}
		// A failed creator withdrew this record between our fetch and
		// lock; retry on the current one, else our commit would land
		// on an orphan no reader can reach.
		ent.mu.Unlock()
	}
	defer ent.mu.Unlock()
	g := ent.g.Load()
	live := g != nil
	var next *chase.Grounding
	var err error
	if live {
		// Report the version the entity still answers from if the
		// extend below fails; success overwrites it in runGrounding.
		out.Version = g.Version()
		out.Instance = g.Instance()
		if err = tupleBound(g.Instance().Size(), len(tuples), cfg); err == nil {
			next, err = g.Extend(tuples...)
		}
	} else {
		out.Version = -1 // no committed version exists yet
		// Set Instance up front so even a failed creation honours
		// the Result contract (callers format r.Instance).
		empty := model.NewEntityInstance(u.shared.Schema())
		out.Instance = empty
		if err = tupleBound(0, len(tuples), cfg); err == nil {
			var ie *model.EntityInstance
			ie, err = empty.Extend(tuples...)
			if err == nil {
				out.Instance = ie
				next, err = u.shared.NewGrounding(ie, cfg.Options)
			}
		}
	}
	if err != nil {
		out.Err = fmt.Errorf("pipeline: entity %q: %w", key, err)
		if !live {
			// Withdraw the routing entry a failed creation would
			// otherwise leak: a stream of bad tuples under many
			// distinct keys must not grow the shard maps forever.
			// Same-key waiters blocked on ent.mu re-check currency and
			// retry on a fresh record.
			s := u.shardFor(key)
			s.mu.Lock()
			if s.entities[key] == ent {
				delete(s.entities, key)
			}
			s.mu.Unlock()
		}
		return false // failed entity keeps its previous version
	}
	// Commit before deducing: the evidence is absorbed even if the
	// candidate search below fails, exactly as documented on Apply.
	ent.g.Store(next)
	if u.testHookMidApply != nil {
		u.testHookMidApply(key)
	}
	u.deduceMemo(ent, next, out, cfg)
	return !live
}

// Query re-deduces one keyed entity on its latest committed grounding
// version, overriding the stream's candidate search with topK and algo
// (topK < 0 keeps the stream's configured TopK; topK == 0 disables the
// search). It takes no entity lock — grounding versions are immutable
// and deduction runs on pooled engines — so queries never block or get
// blocked by in-flight batches; a query racing an Apply on the same
// key answers from whichever version is committed when it starts. The
// second return is false for an unknown key.
//
// A query whose (committed version, effective k, algorithm) matches
// the entity's last computed answer returns the settled-target memo —
// byte-identical to recomputing, since the kernel is deterministic on
// an immutable version — unless Config.DisableSettledCache is set.
// Apply publishing a new version structurally invalidates the memo
// (the hit check is pointer equality on the committed grounding).
func (u *Updater) Query(key string, topK int, algo Algorithm) (Result, bool) {
	var out Result
	e := u.lookup(key)
	if e == nil {
		return out, false
	}
	g := e.g.Load()
	if g == nil {
		return out, false
	}
	start := time.Now()
	cfg := u.cfg
	if topK >= 0 {
		cfg.TopK = topK
	}
	cfg.Algo = algo
	out.Key = key
	u.deduceMemo(e, g, &out, &cfg)
	out.Elapsed = time.Since(start)
	return out, true
}

// Snapshot re-deduces every live entity (concurrently, per cfg) and
// returns one Result per entity in first-seen key order, with keys
// aligned by index — the "where does the whole stream stand" view a
// caller needs after a run of deltas. Runs are cheap: each entity's
// grounding already holds its chased base state. Snapshot holds no
// locks across deduction either: each entity is re-deduced on the
// version committed when Snapshot reaches it, so concurrent producers
// are not blocked (and a snapshot racing them is a per-entity
// point-in-time view, not a cross-entity cut).
func (u *Updater) Snapshot() ([]string, []Result, Summary, error) {
	start := time.Now()
	var sum Summary
	keys := u.Keys()
	results := make([]Result, len(keys))
	err := par.Each(u.cfg.workers(), len(keys), func(i int) error {
		entityStart := time.Now()
		results[i].Index = i
		results[i].Key = keys[i]
		e := u.lookup(keys[i])
		u.deduceMemo(e, e.g.Load(), &results[i], &u.cfg)
		results[i].Elapsed = time.Since(entityStart)
		return nil
	})
	if err != nil {
		return nil, nil, sum, err
	}
	for i := range results {
		sum.add(&results[i], u.shared.Schema().Arity())
	}
	sum.Elapsed = time.Since(start)
	return keys, results, sum, nil
}

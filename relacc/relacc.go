// Package relacc is the public API of the repository: a Go
// implementation of relative-accuracy deduction (Cao, Fan and Yu,
// "Determining the Relative Accuracy of Attributes", SIGMOD 2013) that
// scales from one entity to a whole relation.
//
// Two entry points cover the two workload shapes:
//
//   - NewSession grounds ONE entity instance — all tuples describe the
//     same real-world entity — and exposes the per-entity kernel:
//     Deduce (the IsCR algorithm of Fig. 4), TopK (the candidate-target
//     search of Section 6), Check and the interactive framework of
//     Section 4.
//
//   - Run and StreamCSV process MANY entities at once: the batch
//     pipeline shards entity instances across a worker pool, reuses
//     the schema-level rule groundwork for every entity, and returns
//     per-entity Results in input order together with an aggregate
//     Summary (StreamCSV streams them to a sink straight from a CSV
//     reader). Per-entity output is identical to a sequential Session
//     run regardless of the worker count. Result.Settled is the target
//     an entity settles on — the complete deduced target, else the
//     best verified candidate — the one rule behind every fused
//     relation (cmd/relacc's -o output).
//
// Evidence need not be complete up front. Session.AddTuples absorbs
// new tuples into a live session through delta instantiation — only
// the new-tuple pairs are ground and the chase resumes from its
// previous state, so an update costs O(‖Σ‖·d·n) instead of the
// O(‖Σ‖·n²) rebuild — and subsequent Deduce/TopK/Check answers are
// byte-identical to a fresh session over the full instance (only a
// non-Church-Rosser conflict message may differ). NewUpdater
// scales the same idea to a keyed stream of deltas over many live
// entities: a sharded store in which disjoint keys absorb evidence
// fully concurrently and readers never wait on a deduction
// (cmd/relacc's append mode is its command-line face, and NewServer /
// the relaccd daemon put an HTTP/JSON front end on it — see
// examples/serving). NewGroundwork hoists the
// schema-level work (rule validation, form-(2) index compilation) out
// of session construction for callers that open many sessions or
// update streams over one schema.
//
// Raw relations enter through ReadRelation (CSV) and are grouped into
// entity instances either by an existing identifier column (GroupBy) or
// by similarity-based entity resolution (Resolve). For relations too
// large to hold, StreamCSV runs the same CSV → group → deduce chain as
// one composed stream in constant memory: rows decode one at a time,
// entities seal under a bounded Window, and results are byte-identical
// to the materialized path (DESIGN.md invariant 10). Rules are written
// in the textual rule language (ParseRules); see DESIGN.md for the
// subsystem map and the data-flow picture, and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
//
// Everything here wraps the internal packages (core, pipeline, csvio,
// er) without adding semantics, so library callers need no internal
// imports.
package relacc

import (
	"io"

	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/server"
	"repro/internal/wal"
)

// Data-model types, re-exported from internal/model.
type (
	// Schema is a relation schema: a name plus ordered attributes.
	Schema = model.Schema
	// Tuple is one tuple of a schema.
	Tuple = model.Tuple
	// Value is one attribute value (null, string, number or boolean).
	Value = model.Value
	// EntityInstance is the set Ie of tuples describing one entity.
	EntityInstance = model.EntityInstance
	// MasterRelation is the master data Im of the form-(2) rules.
	MasterRelation = model.MasterRelation
	// RuleSet is a validated accuracy-rule set Σ.
	RuleSet = rule.Set
)

// Per-entity session API, re-exported from internal/core.
type (
	// Session is the per-entity kernel; see NewSession.
	Session = core.Session
	// Preference is the (k, p(·)) preference model of Section 3.
	Preference = core.Preference
	// Candidate is one verified candidate target.
	Candidate = core.Candidate
	// SearchStats reports the work a top-k search performed.
	SearchStats = core.SearchStats
	// DeduceResult is a chase outcome: Church-Rosser verdict (with the
	// first invalid step when it fails), deduced target tuple and
	// residual step count.
	DeduceResult = core.Result
	// Oracle drives the interactive framework of Section 4.
	Oracle = core.Oracle
	// Algorithm selects a top-k candidate algorithm.
	Algorithm = core.Algorithm
)

// Batch pipeline API, re-exported from internal/pipeline.
type (
	// BatchConfig tunes a batch run (workers, top-k, algorithm).
	BatchConfig = pipeline.Config
	// Result is the outcome for one entity of a batch.
	Result = pipeline.Result
	// Summary aggregates a batch's outcomes and coverage.
	Summary = pipeline.Summary
	// Update is one evidence delta of an update stream: new tuples for
	// the entity identified by Key.
	Update = pipeline.Update
	// Updater routes evidence deltas to live per-entity sessions; see
	// NewUpdater.
	Updater = pipeline.Updater
	// Persister is the durability hook under Updater.Apply; see
	// OpenStore for the packaged write-ahead-log implementation.
	Persister = pipeline.Persister
	// CacheStats aggregates an Updater's read-path cache accounting:
	// the settled-target memo (each entity's last computed query
	// answer, invalidated structurally when Apply publishes a new
	// grounding version) and the per-version verdict caches that
	// memoise candidate checks. Both caches are semantically invisible
	// — cached answers are byte-identical to recomputing — and always
	// on in relaccd. BatchConfig.DisableSettledCache and
	// BatchConfig.Options.DisableVerdictCache remain only as the
	// uncached references that equivalence tests and benchmarks
	// compare against. Obtain with Updater.CacheStats.
	CacheStats = pipeline.CacheStats
)

// Durable update stream API, re-exported from internal/wal.
type (
	// Store is a durable store: write-ahead log + snapshots; see
	// OpenStore.
	Store = wal.Store
	// StoreOptions tunes a Store (sync policy and cadence).
	StoreOptions = wal.Options
	// SyncPolicy picks when appended log records are fsynced.
	SyncPolicy = wal.SyncPolicy
	// RecoveryStats summarises what Store.Recover rebuilt.
	RecoveryStats = wal.RecoveryStats
	// StoreStats is a point-in-time view of a Store's durability
	// counters.
	StoreStats = wal.Stats
)

// Sync policy choices for StoreOptions.Fsync.
const (
	// SyncAlways fsyncs before every acknowledged append (group
	// commit: concurrent appenders share one fsync).
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a background cadence.
	SyncInterval = wal.SyncInterval
	// SyncNever leaves flushing to the OS.
	SyncNever = wal.SyncNever
)

// Groundwork is the schema-level part of session and batch
// construction — the rule set validated once plus the compiled
// form-(2) index — so repeated sessions, runs and update streams over
// one schema skip re-validation; see NewGroundwork.
type Groundwork = core.Groundwork

// Top-k algorithm choices.
const (
	AlgoTopKCT     = core.AlgoTopKCT
	AlgoRankJoinCT = core.AlgoRankJoinCT
	AlgoTopKCTh    = core.AlgoTopKCTh
)

// Value constructors, re-exported from internal/model.
var (
	// S makes a string value.
	S = model.S
	// I makes an integer value.
	I = model.I
	// F makes a float value.
	F = model.F
	// B makes a boolean value.
	B = model.B
	// NullValue makes the null value.
	NullValue = model.NullValue
	// Parse interprets a CSV cell ("null"/"" null, numerals numeric,
	// true/false boolean, everything else string).
	Parse = model.Parse
)

// NewSchema builds a schema; attribute names must be non-empty and
// pairwise distinct.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	return model.NewSchema(name, attrs...)
}

// NewTuple creates an all-null tuple of the schema; fill it with Set.
func NewTuple(s *Schema) *Tuple { return model.NewTuple(s) }

// TupleOf builds a tuple from positional values; len(vals) must equal
// the schema's arity. Programmatic construction pairs with the update
// APIs (Session.AddTuples, Updater.Apply), which absorb tuples that
// never passed through a CSV.
func TupleOf(s *Schema, vals ...Value) (*Tuple, error) { return model.TupleOf(s, vals...) }

// NewEntityInstance creates an empty entity instance of the schema;
// fill it with its Add/AddValues methods.
func NewEntityInstance(s *Schema) *EntityInstance { return model.NewEntityInstance(s) }

// NewMasterRelation creates an empty master relation of the schema.
func NewMasterRelation(s *Schema) *MasterRelation { return model.NewMasterRelation(s) }

// NewSession validates the rules against the schemas and grounds ONE
// entity instance. im may be nil when the rule set has no form-(2)
// rules. The read-side session methods (Deduce, Check, TopK) are safe
// for concurrent use; AddTuples installs a new grounding version and
// must not overlap any other call. For many entities use Run, which
// parallelises across entities.
func NewSession(ie *EntityInstance, im *MasterRelation, rules *RuleSet) (*Session, error) {
	return core.NewSession(ie, im, rules)
}

// ParseRules parses the textual rule language and validates the result
// against the schemas; master may be nil.
func ParseRules(text string, entity *Schema, master *Schema) (*RuleSet, error) {
	return core.ParseRules(text, entity, master)
}

// FormatRules renders a rule set in the textual rule language.
func FormatRules(rules *RuleSet) string { return core.FormatRules(rules) }

// Run processes every entity instance through the deduce → top-k
// pipeline and returns per-entity results in input order plus the batch
// summary. All instances must share one schema; a failing entity
// reports through its Result.Err without aborting the batch.
func Run(entities []*EntityInstance, cfg BatchConfig) ([]Result, Summary, error) {
	return pipeline.Run(entities, cfg)
}

// NewGroundwork validates the rules against the schemas once and
// returns the reusable schema-level groundwork. im may be nil when the
// rule set has no form-(2) rules. Use Groundwork.NewSession for
// per-entity sessions, and NewUpdaterWith for update streams that skip
// per-call re-validation.
func NewGroundwork(entity *Schema, im *MasterRelation, rules *RuleSet) (*Groundwork, error) {
	return core.NewGroundwork(entity, im, rules)
}

// NewUpdater opens an update stream: live per-entity sessions keyed by
// caller-chosen identifiers, each absorbing evidence deltas through
// incremental re-grounding and re-deducing on Apply. Results are
// byte-identical to fresh batch runs over the accumulated instances.
func NewUpdater(schema *Schema, cfg BatchConfig) (*Updater, error) {
	return pipeline.NewUpdater(schema, cfg)
}

// NewUpdaterWith is NewUpdater on a prebuilt Groundwork; cfg.Master and
// cfg.Rules are ignored in favour of the groundwork's own.
func NewUpdaterWith(gw *Groundwork, cfg BatchConfig) *Updater {
	return pipeline.NewUpdaterShared(gw.Shared(), cfg)
}

// OpenStore makes an update stream durable. It opens (creating if
// needed) the write-ahead-log store in dir for the updater's schema,
// replays any state a previous process left — snapshot first, then
// the log tail, dropping a torn final record a crash mid-append may
// have written — into u, which must be freshly built with nothing
// applied, and attaches the store so every subsequent Apply is logged
// before it touches an entity. The returned RecoveryStats reports
// what was rebuilt (RecoveryStats.Empty distinguishes a brand-new
// store from a recovered one, for seed-exactly-once logic); after a
// recovery error u may be partly filled and must be discarded. Snapshot
// with Store.Checkpoint — typically on graceful shutdown — and Close
// the store after the updater stops applying. ParseSyncPolicy maps
// the flag spellings "always" | "interval" | "never" onto
// StoreOptions.Fsync.
func OpenStore(dir string, u *Updater, opts StoreOptions) (*Store, RecoveryStats, error) {
	st, err := wal.Open(dir, u.Schema(), opts)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	rs, err := st.Recover(u)
	if err != nil {
		st.Close()
		return nil, rs, err
	}
	u.AttachPersister(st)
	return st, rs, nil
}

// ParseSyncPolicy maps a -fsync flag value ("always", "interval",
// "never") to its SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// ParseAlgorithm maps an algorithm's wire name ("topkct", "rankjoin",
// "topkcth") — what cmd flags and relaccd query parameters carry — to
// its Algorithm value.
func ParseAlgorithm(name string) (Algorithm, error) {
	return pipeline.ParseAlgorithm(name)
}

// Serving layer, re-exported from internal/server.
type (
	// Server serves an update stream over HTTP/JSON; see NewServer.
	Server = server.Server
	// ServerOptions tunes the serving layer (request-concurrency
	// limit, query k cap, body limits); a query without ?k= asks for
	// 5 candidates.
	ServerOptions = server.Options
)

// NewServer puts an HTTP/JSON front end on an update stream: evidence
// appends route into Updater.Apply (disjoint keys concurrent, one
// key's deltas serialised) and queries answer from atomically
// published grounding versions without blocking behind any in-flight
// deduction. Mount Server.Handler on an http.Server; cmd/relaccd is
// the packaged daemon. See internal/server for routes and wire format.
func NewServer(u *Updater, opts ServerOptions) *Server {
	return server.New(u, opts)
}

// ReadRelation parses CSV (first row = attribute names) into a schema
// named name and its tuples.
func ReadRelation(r io.Reader, name string) (*Schema, []*Tuple, error) {
	return csvio.ReadRelation(r, name)
}

// ReadRelationFile is ReadRelation over a file path.
func ReadRelationFile(path string) (*Schema, []*Tuple, error) {
	return csvio.ReadRelationFile(path)
}

// ReadMaster loads a CSV as a master relation.
func ReadMaster(r io.Reader, name string) (*MasterRelation, error) {
	return csvio.ReadMaster(r, name)
}

// WriteRelation writes a header plus one CSV row per tuple.
func WriteRelation(w io.Writer, schema *Schema, tuples []*Tuple) error {
	return csvio.WriteRelation(w, schema, tuples)
}

// GroupBy partitions a relation's tuples into entity instances by exact
// equality on one attribute — for data that already carries an entity
// identifier. Null-keyed tuples become singleton entities.
func GroupBy(tuples []*Tuple, s *Schema, attr string) ([]*EntityInstance, error) {
	return er.GroupBy(tuples, s, attr)
}

// Streaming ingest API, re-exported from internal/ingest and
// internal/er.
type (
	// StreamOptions tunes StreamCSV: the grouping attribute, the
	// bounded window, and the bad-row policy.
	StreamOptions = ingest.Options
	// Window bounds how many entities the streaming grouper holds open;
	// the zero value is unbounded. Sorted input streams at
	// Window{MaxEntities:1}.
	Window = er.Window
	// WindowError reports input too disordered for the window: a
	// grouping key reappeared after its entity was already emitted.
	// StreamCSV refuses with it rather than ever emitting results that
	// differ from the materialized run.
	WindowError = er.WindowError
)

// IsRowError reports whether an error handed to
// StreamOptions.OnRowError is a recoverable malformed-CSV-row error
// (safe to skip), as opposed to one that ends the stream.
var IsRowError = csvio.IsRowError

// StreamCSV processes a CSV relation of any length in constant memory:
// one composed stream decodes each row, groups rows into entities by
// exact equality on opts.By within the bounded opts.Window, and feeds
// completed entities to the batch worker pool with backpressure all the
// way to the reader — nothing is ever materialized. Results reach sink
// in entity (first-appearance) order and are byte-identical to
// ReadRelation + GroupBy + Run over the same input; input too
// disordered for the window aborts with a *WindowError instead of ever
// splitting an entity. Sorted input works at Window{MaxEntities: 1};
// the zero Window is unbounded (correct for any order, at the
// materialized path's memory cost).
func StreamCSV(r io.Reader, name string, opts StreamOptions, cfg BatchConfig, sink func(Result) error) (Summary, error) {
	return ingest.StreamCSV(r, name, opts, cfg, sink)
}

// ResolveConfig tunes similarity-based entity resolution; see
// internal/er for the pipeline (blocking, StringSimilarity on the key
// attributes, transitive merging).
type ResolveConfig = er.Config

// Resolve partitions a relation's tuples into entity instances by
// pairwise attribute similarity — for data without a trustworthy
// identifier column.
func Resolve(tuples []*Tuple, s *Schema, cfg ResolveConfig) ([]*EntityInstance, error) {
	return er.Resolve(tuples, s, cfg)
}

// Command relaccd is the relative-accuracy serving daemon: it seeds a
// sharded update stream from a relation CSV and serves evidence
// appends and deduction queries over HTTP/JSON until shut down.
//
//	relaccd -data seed.csv -rules rules.txt -by id [-master master.csv]
//	        [-addr 127.0.0.1:8080] [-workers N] [-topk K] [-algo topkct|rankjoin|topkcth]
//	        [-max-inflight N] [-data-dir DIR] [-fsync always|interval|never]
//	        [-snapshot-every N] [-max-entity-tuples N] [-window N]
//
// The CSV's header defines the entity schema every appended tuple must
// conform to; its rows (may be none) are grouped into entities by the
// -by identifier column and deduced once at startup. The seed streams:
// rows decode one at a time into the live store, so a large seed CSV
// never materializes in memory; -window bounds the open-entity set (0 =
// unbounded, safe for any row order — a bound needs the seed grouped in
// contiguous -by runs, e.g. sorted on the identifier). -topk configures
// the candidate search run when an APPEND leaves an entity incomplete
// (0 = deduce only); the /topk query endpoint picks its own k and algo
// per request. The daemon listens on -addr (use port 0 to let the
// kernel pick; the chosen address is printed), serves until SIGINT or
// SIGTERM, then drains in-flight requests and exits 0.
//
// With -data-dir the store is DURABLE: every applied batch is written
// to a CRC-checksummed write-ahead log under the directory before it
// touches an entity (-fsync picks the sync policy), and on boot the
// daemon recovers the previous process's state — snapshot first, then
// the log tail — instead of re-seeding from CSV. -snapshot-every N
// checkpoints after every N appends; a checkpoint also runs on
// graceful shutdown, so a clean restart replays an empty log. A torn
// record left by a crash mid-append is detected by CRC and dropped,
// never partially applied (see internal/wal).
//
// See internal/server for the routes and the JSON wire format, and
// README.md for a curl quickstart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/topk"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	dataPath := flag.String("data", "", "seed relation CSV; its header defines the schema (required)")
	masterPath := flag.String("master", "", "master relation CSV")
	rulesPath := flag.String("rules", "", "accuracy rule file (required)")
	by := flag.String("by", "", "identifier column grouping seed rows into entities (required with seed rows)")
	workers := flag.Int("workers", 0, "concurrent entities per Apply batch (0 = GOMAXPROCS)")
	topK := flag.Int("topk", 0, "candidates searched when an append leaves an entity incomplete (0 = deduce only)")
	algo := flag.String("algo", "topkct", "append-time top-k algorithm: topkct, rankjoin or topkcth")
	maxInFlight := flag.Int("max-inflight", 0, "concurrently served requests (0 = 256)")
	maxChecks := flag.Int("max-checks", 100_000, "chase-check budget per candidate search; exhausting it returns the candidates found so far (0 = unlimited)")
	maxTopK := flag.Int("max-k", 0, "largest ?k= a topk query may request (0 = 100)")
	dataDir := flag.String("data-dir", "", "durable store directory (WAL + snapshots); empty = memory-only")
	fsync := flag.String("fsync", "always", "WAL sync policy: always, interval or never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "cadence of -fsync=interval")
	snapshotEvery := flag.Int("snapshot-every", 0, "checkpoint after every N appends (0 = only on shutdown / POST /v1/snapshot); a snapshot is one frame of at most 64 MiB, about 30,000 Med-shaped entities at ~2.2 KB each, past which checkpoints are refused and the log is not truncated (ROADMAP item 4)")
	maxEntityTuples := flag.Int("max-entity-tuples", 0, "evidence tuples one entity may accumulate; appends past it fail with 422 (0 = unbounded)")
	window := flag.Int("window", 0, "max open entities while streaming the seed (0 = unbounded; a bound needs the seed grouped in contiguous -by runs, e.g. sorted)")
	flag.Parse()
	if *dataPath == "" || *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "relaccd: -data and -rules are required")
		os.Exit(2)
	}
	alg, err := pipeline.ParseAlgorithm(*algo)
	if err != nil {
		fatal(err)
	}
	syncPolicy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}

	// The seed streams: only the header is read here (fixing the
	// schema); rows decode one at a time at seed time, so a large seed
	// CSV never materializes in memory.
	dataFile, err := os.Open(*dataPath)
	if err != nil {
		fatal(err)
	}
	defer dataFile.Close()
	it, err := csvio.NewTupleIterator(dataFile, *dataPath)
	if err != nil {
		fatal(err)
	}
	schema := it.Schema()
	im, rules, err := ingest.LoadSpec(*masterPath, *rulesPath, schema)
	if err != nil {
		fatal(err)
	}

	u, err := pipeline.NewUpdater(schema, pipeline.Config{
		Master:  im,
		Rules:   rules,
		Workers: *workers,
		TopK:    *topK,
		Algo:    alg,
		// Bound the work ONE candidate search may do: the problem is
		// NP-complete, and a serving daemon must degrade to partial
		// candidates rather than let one entity pin a core forever.
		Pref: topk.Preference{MaxChecks: *maxChecks},
		// Bound the evidence ONE entity may accumulate: with a durable
		// log the absorb failure replays identically on recovery.
		MaxEntityTuples: *maxEntityTuples,
	})
	if err != nil {
		fatal(err)
	}

	// Durable mode: open the store, replay what the previous process
	// left, and only then attach the log so replayed batches are not
	// re-logged. Recovered state is authoritative — the CSV seed ran
	// (and was logged) when the store was first created, so re-seeding
	// on every boot would double the evidence.
	var store *wal.Store
	seed := true
	if *dataDir != "" {
		store, err = wal.Open(*dataDir, schema, wal.Options{Fsync: syncPolicy, Interval: *fsyncInterval})
		if err != nil {
			fatal(err)
		}
		rs, err := store.Recover(u)
		if err != nil {
			fatal(err)
		}
		u.AttachPersister(store)
		if !rs.Empty() {
			fmt.Printf("relaccd: recovered %d entities from %s (snapshot seq %d, %d WAL batches replayed, resuming after seq %d)\n",
				rs.Entities, *dataDir, rs.SnapshotSeq, rs.Batches, rs.LastSeq)
			seed = false
		}
	}

	if seed && *by == "" {
		// A header-only CSV legitimately just fixes the schema; any
		// actual seed row needs the grouping column.
		if _, err := it.Next(); err != io.EOF {
			if err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, "relaccd: -by is required to group the seed rows into entities")
			os.Exit(2)
		}
	} else if seed {
		// Stream the seed into the live store: tuples decode one at a
		// time, entities seal as the -window retires them, and each
		// becomes one update applied in modest batches — constant
		// memory in the seed's length. Unlike cmd/relacc's append mode
		// (type-tagged Value.Key routing), the daemon keys by the
		// identifier's string rendering: the HTTP key namespace is
		// plain strings, so the "m1" a client POSTs evidence under must
		// be the "m1" the seed created — and '/' cannot be addressed by
		// the per-entity routes at all.
		sum, err := ingest.SeedUpdater(u, it, ingest.SeedOptions{
			By:     *by,
			Window: er.Window{MaxEntities: *window},
			KeyOf: func(v model.Value) (string, error) {
				k := v.String()
				if err := server.ValidateKey(k); err != nil {
					return "", fmt.Errorf("identifier not HTTP-routable: %w", err)
				}
				return k, nil
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("relaccd: seeded %s\n", sum.String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{
		Handler: server.New(u, server.Options{
			MaxInFlight:   *maxInFlight,
			MaxTopK:       *maxTopK,
			Store:         store,
			SnapshotEvery: *snapshotEvery,
		}).Handler(),
		// ReadTimeout covers the whole request read, so a slow-body
		// client cannot hold a MaxInFlight slot indefinitely inside the
		// JSON decoder. No WriteTimeout: a large top-k query may
		// legitimately take long to answer.
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("relaccd: serving schema %s (%d entities) on http://%s\n",
		schema.Name(), u.Len(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		fatal(err) // the listener died under us
	case <-ctx.Done():
	}
	stop()
	fmt.Println("relaccd: draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		// A drain that outlives the timeout (a long top-k query —
		// WriteTimeout is deliberately unset) is a normal termination,
		// not a crash: cut the stragglers and still exit 0.
		fmt.Fprintln(os.Stderr, "relaccd: drain timed out, closing in-flight connections:", err)
		srv.Close()
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if store != nil {
		// Snapshot-on-drain: the next boot restores the snapshot and
		// replays an empty log instead of the whole session's batches.
		// A failed checkpoint is not fatal — the log alone still
		// recovers everything — but it is worth a line.
		if _, err := store.Checkpoint(u); err != nil {
			fmt.Fprintln(os.Stderr, "relaccd: shutdown checkpoint failed (the WAL still covers all state):", err)
		}
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "relaccd: closing durable store:", err)
		}
	}
	fmt.Println("relaccd: shut down cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "relaccd:", err)
	os.Exit(1)
}

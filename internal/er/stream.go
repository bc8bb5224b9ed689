package er

// Streaming exact-identifier grouping: StreamGroupBy is GroupBy over a
// pull source with a bounded working set. Entities are held open while
// their tuples may still arrive and sealed — emitted — the moment the
// window forces the oldest one out, so sorted (run-length) input
// streams at window 1 and mildly disordered input needs only a window
// as deep as its disorder. Emission order is first-appearance order,
// exactly GroupBy's, and every emitted instance is byte-identical to
// what GroupBy would have built; when the input is too disordered for
// the window — a key reappears after its entity was already emitted —
// the stream refuses with a *WindowError rather than ever producing a
// split entity.

import (
	"fmt"
	"io"

	"repro/internal/model"
)

// TupleSource is a pull-based tuple stream; Next returns io.EOF after
// the last tuple. csvio.TupleIterator satisfies it.
type TupleSource interface {
	Next() (*model.Tuple, error)
}

// Window bounds the streaming grouper's working set of open entities.
// The zero value is unbounded: nothing is emitted before EOF, which
// reproduces GroupBy for any input at GroupBy's memory cost.
type Window struct {
	// MaxEntities caps how many entities may be open at once; when a
	// new entity would exceed it, the oldest open entity is sealed and
	// emitted. 0 means no entity-count bound. 1 is run-length mode:
	// every key change seals the previous entity.
	MaxEntities int
}

// WindowError reports input too disordered for the window: the named
// key reappeared after its entity had already been sealed and emitted.
// Emitting anyway would split the entity — producing results that
// differ from the materialized GroupBy — so the stream refuses instead.
// The fix is a larger window, or input sorted (run-length) on the
// grouping attribute.
type WindowError struct {
	Key    string // grouping key that reappeared
	Tuple  int    // 1-based tuple ordinal (not counting the header) of the reappearance
	Window Window // the bound that forced the early seal
}

func (e *WindowError) Error() string {
	return fmt.Sprintf("er: key %q reappeared at tuple %d after its entity was emitted; input exceeds the streaming window (%+v) — raise -window or sort the input on the grouping attribute", e.Key, e.Tuple, e.Window)
}

// NullPolicy decides what a null grouping value means to the streaming
// grouper.
type NullPolicy int

const (
	// NullSingleton makes each null-keyed tuple its own entity,
	// interleaved in input order — GroupBy's semantics.
	NullSingleton NullPolicy = iota
	// NullReject makes a null grouping value an error naming the tuple
	// — update routing semantics, where every tuple needs an identifier.
	NullReject
)

// StreamOpts tunes StreamGroupBy. The zero value is unbounded
// GroupBy-equivalent streaming.
type StreamOpts struct {
	Window Window
	// KeyOf renders a non-null grouping value to its entity key; nil
	// means model.Value.Key (GroupBy's key). An error aborts the stream.
	KeyOf func(model.Value) (string, error)
	// Nulls is the null-key policy (default NullSingleton).
	Nulls NullPolicy
	// OnRowError is consulted for every recoverable source error (e.g.
	// a csvio.RowError): return nil to skip that row and keep streaming,
	// or an error to abort with it. Nil aborts on any source error.
	OnRowError func(error) error
}

// openEntity is one entity still accepting tuples.
type openEntity struct {
	key string // "" for a null singleton (never matched)
	ie  *model.EntityInstance
}

// EntityStream emits grouped entities as Next is called, pulling tuples
// from the source only as needed — the composition point between a
// TupleSource and a pipeline.EntitySource.
type EntityStream struct {
	src     TupleSource
	s       *model.Schema
	idx     int
	opts    StreamOpts
	open    []*openEntity          // FIFO by first appearance
	byKey   map[string]*openEntity // real-keyed open entities only
	sealed  []*openEntity          // emitted order, ready for Next
	seen    map[uint64]struct{}    // FNV-64a hashes of sealed keys
	tuple   int                    // 1-based count of source tuples consumed
	lastKey string
	srcDone bool
	err     error // sticky
}

// StreamGroupBy starts grouping the source's tuples into entity
// instances by exact equality on attr. It validates the attribute
// eagerly; tuples are pulled lazily by Next.
func StreamGroupBy(src TupleSource, s *model.Schema, attr string, opts StreamOpts) (*EntityStream, error) {
	i := s.Index(attr)
	if i < 0 {
		return nil, &UnknownAttrError{Attr: attr}
	}
	return &EntityStream{
		src:   src,
		s:     s,
		idx:   i,
		opts:  opts,
		byKey: map[string]*openEntity{},
		seen:  map[uint64]struct{}{},
	}, nil
}

// hashKey is FNV-1a over the key string: the sealed-key memory is 8
// bytes per entity instead of the key itself, so a long stream's
// reappearance guard grows by a word per entity, not a string. A
// 64-bit collision makes a fresh key look sealed and refuses with a
// spurious WindowError — conservative and deterministic (FNV is
// seedless), and at ~2^-64 per pair never a wrong result.
func hashKey(k string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return h
}

// LastKey returns the grouping key of the entity most recently returned
// by Next ("" for a null singleton).
func (es *EntityStream) LastKey() string { return es.lastKey }

// Next returns the next completed entity, in first-appearance order, or
// io.EOF after the last. Any other error is sticky: the stream is dead
// and Next keeps returning it.
func (es *EntityStream) Next() (*model.EntityInstance, error) {
	for {
		if es.err != nil {
			return nil, es.err
		}
		if len(es.sealed) > 0 {
			e := es.sealed[0]
			es.sealed[0] = nil
			es.sealed = es.sealed[1:]
			es.lastKey = e.key
			return e.ie, nil
		}
		if es.srcDone {
			if len(es.open) > 0 {
				es.sealN(len(es.open))
				continue
			}
			return nil, io.EOF
		}
		if err := es.pull(); err != nil {
			es.err = err
			return nil, err
		}
	}
}

// pull consumes one source tuple (or EOF) and updates the window.
func (es *EntityStream) pull() error {
	t, err := es.src.Next()
	if err == io.EOF {
		es.srcDone = true
		return nil
	}
	es.tuple++ // count attempted rows so errors and WindowError agree
	if err != nil {
		if es.opts.OnRowError != nil {
			if herr := es.opts.OnRowError(err); herr != nil {
				return herr
			}
			es.tuple-- // skipped row: not a tuple
			return nil
		}
		return err
	}

	v := t.At(es.idx)
	if v.IsNull() {
		if es.opts.Nulls == NullReject {
			return fmt.Errorf("er: tuple %d has a null %s value; streaming group-by with NullReject needs an identifier", es.tuple, es.s.Attr(es.idx))
		}
		ie := model.NewEntityInstance(es.s)
		ie.MustAdd(t)
		es.push(&openEntity{ie: ie})
		return nil
	}

	var k string
	if es.opts.KeyOf != nil {
		k, err = es.opts.KeyOf(v)
		if err != nil {
			return err
		}
	} else {
		k = v.Key()
	}

	oe, ok := es.byKey[k]
	if !ok {
		if _, gone := es.seen[hashKey(k)]; gone {
			return &WindowError{Key: k, Tuple: es.tuple, Window: es.opts.Window}
		}
		oe = &openEntity{key: k, ie: model.NewEntityInstance(es.s)}
		es.byKey[k] = oe
		es.push(oe)
	}
	oe.ie.MustAdd(t)
	return nil
}

// push appends a new open entity and, when that exceeds the window,
// seals the oldest one.
func (es *EntityStream) push(oe *openEntity) {
	es.open = append(es.open, oe)
	if m := es.opts.Window.MaxEntities; m > 0 && len(es.open) > m {
		es.sealN(1)
	}
}

// sealN moves the n oldest open entities to the sealed (emit) queue.
func (es *EntityStream) sealN(n int) {
	for ; n > 0; n-- {
		oe := es.open[0]
		es.open[0] = nil
		es.open = es.open[1:]
		if oe.key != "" {
			delete(es.byKey, oe.key)
			es.seen[hashKey(oe.key)] = struct{}{}
		}
		es.sealed = append(es.sealed, oe)
	}
}

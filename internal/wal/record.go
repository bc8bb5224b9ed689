// Record framing and payload codec for the durable update stream.
//
// Everything the store writes — WAL batch records, the schema header
// frame, the snapshot sections — travels inside one frame shape:
//
//	[4-byte little-endian payload length]
//	[4-byte little-endian CRC-32C of the payload]
//	[payload]
//
// A frame is valid only when the full payload is present AND its CRC
// matches; anything else (a short header, a short payload, a flipped
// bit, a garbage length) is a torn tail. Torn tails are DETECTED and
// DROPPED — never guessed at, never partially applied — which is the
// whole crash-safety story: a batch is either wholly inside the log
// behind a matching checksum, or it never happened (DESIGN.md
// invariant 7). FuzzWALDecode drives arbitrary bytes through the
// decoder to pin "no panic, no CRC-less record" down.
//
// Batch payloads are schema-relative: tuples are written as their
// value rows only, and the decoder rebuilds them on the store's own
// schema. Values serialize by kind tag; the one synthetic value the
// model can hand us — the NaN canonical sentinel produced by
// Value.Norm — has its own tag. Snapshots no longer persist a value
// dictionary, but older ones do, and recovery decodes their dictionary
// sections value by value to skip them, so the tag stays readable.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/model"
	"repro/internal/pipeline"
)

// maxRecord bounds a single frame's payload. It exists to keep a
// corrupted length prefix from asking the decoder to allocate
// gigabytes: any frame claiming more than this is treated as a torn
// tail. 64 MiB is far past what a request-sized update batch can
// produce (the serving layer caps bodies at single-digit MiB), but not
// past a snapshot body, which is one frame holding the whole store: at
// about 2.2 KB per gen.Med entity, a store of more than about 30,000
// such entities outgrows it, and Checkpoint refuses every snapshot
// (ROADMAP item 4 streams snapshots in frames under the bound). Writers
// enforce the bound too (fitsFrame): a frame past it would be written,
// then dropped as torn on the next read, together with everything
// after it.
const maxRecord = 64 << 20

// fitsFrame refuses a payload too large for one frame, naming what it
// holds.
func fitsFrame(what string, payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: %s of %d bytes exceeds the %d-byte frame limit", what, len(payload), maxRecord)
	}
	return nil
}

// castagnoli is the CRC-32C table; Castagnoli is hardware-accelerated
// on amd64/arm64, which keeps checksumming off the append hot path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcOf is the one checksum every frame in the store uses.
func crcOf(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// value kind tags. These are the on-disk contract — never renumber.
const (
	tagNull   = 0
	tagString = 1
	tagInt    = 2
	tagFloat  = 3
	tagBool   = 4
	// tagNaNNorm is the canonical NaN sentinel Value.Norm produces
	// (Bool-kinded, payload "NaN"). Snapshots written while the value
	// dictionary was persisted can hold it in their dictionary section,
	// which recovery still decodes to skip, so it keeps its own tag
	// instead of being folded into a plain bool or float.
	tagNaNNorm = 5
)

// appendUvarint / appendVarint are binary.PutUvarint over an
// append-style buffer.
func appendUvarint(b []byte, x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], x)]...)
}

func appendVarint(b []byte, x int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutVarint(tmp[:], x)]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendValue serializes one attribute value.
func appendValue(b []byte, v model.Value) []byte {
	switch v.Kind() {
	case model.Null:
		return append(b, tagNull)
	case model.String:
		b = append(b, tagString)
		return appendString(b, v.Str())
	case model.Int:
		b = append(b, tagInt)
		return appendVarint(b, v.Int())
	case model.Float:
		b = append(b, tagFloat)
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.Float()))
		return append(b, tmp[:]...)
	case model.Bool:
		if v.Str() == "NaN" {
			// The Norm sentinel for NaN (see package comment).
			return append(b, tagNaNNorm)
		}
		b = append(b, tagBool)
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	}
	// Unreachable for values the model can construct; encode as null so
	// the frame stays well-formed rather than torn.
	return append(b, tagNull)
}

// decoder walks a payload buffer; every read reports malformed input
// as an error instead of panicking (the fuzz target's contract).
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated uvarint at offset %d", d.off)
	}
	d.off += n
	return x, nil
}

func (d *decoder) varint() (int64, error) {
	x, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated varint at offset %d", d.off)
	}
	d.off += n
	return x, nil
}

func (d *decoder) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)-d.off) {
		return nil, fmt.Errorf("wal: %d-byte field overruns payload at offset %d", n, d.off)
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.bytes(n)
	return string(b), err
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("wal: truncated payload at offset %d", d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) value() (model.Value, error) {
	tag, err := d.byte()
	if err != nil {
		return model.Value{}, err
	}
	switch tag {
	case tagNull:
		return model.NullValue(), nil
	case tagString:
		s, err := d.string()
		return model.S(s), err
	case tagInt:
		i, err := d.varint()
		return model.I(i), err
	case tagFloat:
		b, err := d.bytes(8)
		if err != nil {
			return model.Value{}, err
		}
		return model.F(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case tagBool:
		b, err := d.byte()
		if err != nil || b > 1 {
			return model.Value{}, fmt.Errorf("wal: malformed bool at offset %d", d.off)
		}
		return model.B(b == 1), nil
	case tagNaNNorm:
		return model.F(math.NaN()).Norm(), nil
	}
	return model.Value{}, fmt.Errorf("wal: unknown value tag %d at offset %d", tag, d.off)
}

// appendFrame wraps payload into the length+CRC frame.
func appendFrame(b, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	b = append(b, hdr[:]...)
	return append(b, payload...)
}

// readFrame reads one frame from r. Any malformation — short header,
// absurd length, short payload, CRC mismatch — returns errTorn wrapped
// with the detail; a clean EOF at a frame boundary returns io.EOF.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short frame header: %v", errTorn, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxRecord {
		return nil, fmt.Errorf("%w: frame claims %d bytes (limit %d)", errTorn, n, maxRecord)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short frame payload: %v", errTorn, err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[4:]); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", errTorn, want, got)
	}
	return payload, nil
}

// Batch is one decoded WAL record: an update batch together with the
// authoritative sequence number the log assigned it.
type Batch struct {
	Seq     uint64
	Updates []pipeline.Update
}

// encodeBatch builds a batch record payload (not yet framed).
func encodeBatch(seq uint64, updates []pipeline.Update) []byte {
	n := 16
	for _, up := range updates {
		n += len(up.Key) + 8 + 16*len(up.Tuples)
	}
	b := make([]byte, 0, n)
	b = appendUvarint(b, seq)
	b = appendUvarint(b, uint64(len(updates)))
	for _, up := range updates {
		b = appendString(b, up.Key)
		b = appendUvarint(b, uint64(len(up.Tuples)))
		for _, t := range up.Tuples {
			b = appendTuple(b, t)
		}
	}
	return b
}

// decodeBatch rebuilds a batch record on the given schema. Tuples come
// back on that schema pointer regardless of which (structurally
// identical) schema they were encoded from — the store validates
// structural identity at append time.
func decodeBatch(payload []byte, schema *model.Schema) (Batch, error) {
	d := &decoder{buf: payload}
	var out Batch
	seq, err := d.uvarint()
	if err != nil {
		return out, err
	}
	out.Seq = seq
	nups, err := d.uvarint()
	if err != nil {
		return out, err
	}
	if nups > uint64(len(payload)) { // each update costs ≥1 byte
		return out, fmt.Errorf("wal: batch claims %d updates in a %d-byte payload", nups, len(payload))
	}
	out.Updates = make([]pipeline.Update, 0, nups)
	for u := uint64(0); u < nups; u++ {
		key, err := d.string()
		if err != nil {
			return out, err
		}
		nt, err := d.uvarint()
		if err != nil {
			return out, err
		}
		if nt > uint64(len(payload)) {
			return out, fmt.Errorf("wal: update claims %d tuples in a %d-byte payload", nt, len(payload))
		}
		tuples := make([]*model.Tuple, 0, nt)
		for i := uint64(0); i < nt; i++ {
			t, err := d.tuple(schema)
			if err != nil {
				return out, err
			}
			tuples = append(tuples, t)
		}
		out.Updates = append(out.Updates, pipeline.Update{Key: key, Tuples: tuples})
	}
	if d.off != len(payload) {
		return out, fmt.Errorf("wal: %d trailing bytes after batch record", len(payload)-d.off)
	}
	return out, nil
}

// appendTuple serializes one tuple as decoder.tuple reads it back: its
// arity, then its values in attribute order.
func appendTuple(b []byte, t *model.Tuple) []byte {
	arity := t.Schema().Arity()
	b = appendUvarint(b, uint64(arity))
	for i := 0; i < arity; i++ {
		b = appendValue(b, t.At(i))
	}
	return b
}

func (d *decoder) tuple(schema *model.Schema) (*model.Tuple, error) {
	arity, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if arity != uint64(schema.Arity()) {
		return nil, fmt.Errorf("wal: tuple has %d values, schema %s has %d attributes",
			arity, schema.Name(), schema.Arity())
	}
	t := model.NewTuple(schema)
	for i := 0; i < int(arity); i++ {
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		t.SetAt(i, v)
	}
	return t, nil
}

// encodeSchema captures a schema structurally, so a store refuses to
// replay a log against a different relation.
func encodeSchema(s *model.Schema) []byte {
	b := appendString(nil, s.Name())
	b = appendUvarint(b, uint64(s.Arity()))
	for i := 0; i < s.Arity(); i++ {
		b = appendString(b, s.Attr(i))
	}
	return b
}

// checkSchema verifies a decoded schema payload structurally matches
// the store's schema.
func checkSchema(payload []byte, schema *model.Schema) error {
	d := &decoder{buf: payload}
	name, err := d.string()
	if err != nil {
		return err
	}
	arity, err := d.uvarint()
	if err != nil {
		return err
	}
	mismatch := name != schema.Name() || arity != uint64(schema.Arity())
	attrs := make([]string, 0, schema.Arity())
	for i := uint64(0); i < arity && !mismatch; i++ {
		a, err := d.string()
		if err != nil {
			return err
		}
		attrs = append(attrs, a)
		if a != schema.Attr(int(i)) {
			mismatch = true
		}
	}
	if mismatch {
		return fmt.Errorf("wal: store was written for schema %s(%v), opened with %s",
			name, attrs, schema)
	}
	return nil
}

// Package er is the entity-resolution substrate: the paper assumes the
// entity instance Ie "is identified by entity resolution techniques"
// (Section 2.1, citing [Elmagarmid et al. TKDE'07; Naumann & Herschel
// 2010]) before relative accuracy is analysed. This package groups the
// tuples of a dirty relation into entity instances using blocking,
// attribute similarity and transitive merging (union-find), which is the
// standard pairwise-ER pipeline.
package er

import (
	"sort"
	"strings"

	"repro/internal/model"
)

// Levenshtein returns the edit distance between two strings.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = minInt(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func minInt(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// StringSimilarity returns a [0,1] similarity: 1 - normalised edit
// distance. Case-insensitive.
func StringSimilarity(a, b string) float64 {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if a == b {
		return 1
	}
	max := len([]rune(a))
	if l := len([]rune(b)); l > max {
		max = l
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(max)
}

// Config tunes the resolution pipeline.
type Config struct {
	// KeyAttrs are the attributes compared for identity; all must exist
	// in the schema.
	KeyAttrs []string
	// Threshold is the minimum average similarity over the key
	// attributes for two tuples to be merged; 0 means 0.85. Two
	// non-null values compare by StringSimilarity on their String
	// forms, a null and a non-null score 0.5, and two nulls are
	// skipped.
	Threshold float64
	// BlockAttr optionally restricts comparisons to tuples sharing a
	// blocking key: the first BlockPrefix runes of this attribute,
	// lower-cased. Empty means no blocking (all pairs compared).
	BlockAttr   string
	BlockPrefix int
}

// Resolve partitions the tuples of a relation into entity instances.
// Tuples are compared pairwise within blocks on the key attributes;
// pairs at or above the threshold are merged transitively (union-find).
// The returned instances preserve input order (each instance's tuples
// are in input order; instances are ordered by their first tuple).
func Resolve(tuples []*model.Tuple, s *model.Schema, cfg Config) ([]*model.EntityInstance, error) {
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.85
	}
	if cfg.BlockPrefix == 0 {
		cfg.BlockPrefix = 3
	}
	keyIdx := make([]int, 0, len(cfg.KeyAttrs))
	for _, a := range cfg.KeyAttrs {
		i := s.Index(a)
		if i < 0 {
			return nil, &UnknownAttrError{Attr: a}
		}
		keyIdx = append(keyIdx, i)
	}

	// Blocking.
	blocks := map[string][]int{}
	if cfg.BlockAttr != "" {
		bi := s.Index(cfg.BlockAttr)
		if bi < 0 {
			return nil, &UnknownAttrError{Attr: cfg.BlockAttr}
		}
		for i, t := range tuples {
			key := strings.ToLower(t.At(bi).String())
			if r := []rune(key); len(r) > cfg.BlockPrefix {
				key = string(r[:cfg.BlockPrefix])
			}
			blocks[key] = append(blocks[key], i)
		}
	} else {
		all := make([]int, len(tuples))
		for i := range all {
			all[i] = i
		}
		blocks[""] = all
	}

	uf := newUnionFind(len(tuples))
	blockKeys := make([]string, 0, len(blocks))
	for k := range blocks {
		blockKeys = append(blockKeys, k)
	}
	sort.Strings(blockKeys)
	for _, k := range blockKeys {
		idx := blocks[k]
		for x := 0; x < len(idx); x++ {
			for y := x + 1; y < len(idx); y++ {
				i, j := idx[x], idx[y]
				if uf.find(i) == uf.find(j) {
					continue
				}
				if similar(tuples[i], tuples[j], keyIdx, cfg) {
					uf.union(i, j)
				}
			}
		}
	}

	// Collect clusters in input order.
	groups := map[int][]int{}
	var order []int
	for i := range tuples {
		r := uf.find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	var out []*model.EntityInstance
	for _, r := range order {
		ie := model.NewEntityInstance(s)
		for _, i := range groups[r] {
			ie.MustAdd(tuples[i])
		}
		out = append(out, ie)
	}
	return out, nil
}

// GroupBy partitions the tuples of a relation into entity instances by
// exact equality on one attribute — the degenerate but common case where
// the data already carries a trustworthy entity identifier, so no
// similarity-based resolution is needed. Null-keyed tuples form one
// group per tuple (an unidentified tuple is its own entity). Instances
// preserve input order, like Resolve.
func GroupBy(tuples []*model.Tuple, s *model.Schema, attr string) ([]*model.EntityInstance, error) {
	i := s.Index(attr)
	if i < 0 {
		return nil, &UnknownAttrError{Attr: attr}
	}
	byKey := map[string]*model.EntityInstance{}
	var out []*model.EntityInstance
	for _, t := range tuples {
		v := t.At(i)
		if v.IsNull() {
			ie := model.NewEntityInstance(s)
			ie.MustAdd(t)
			out = append(out, ie)
			continue
		}
		k := v.Key()
		ie, ok := byKey[k]
		if !ok {
			ie = model.NewEntityInstance(s)
			byKey[k] = ie
			out = append(out, ie)
		}
		ie.MustAdd(t)
	}
	return out, nil
}

// similar averages the per-key similarities; a pair of nulls in a key
// contributes nothing, a null against a value contributes 0.5 (unknown).
func similar(t1, t2 *model.Tuple, keyIdx []int, cfg Config) bool {
	sum, n := 0.0, 0
	for _, k := range keyIdx {
		v1, v2 := t1.At(k), t2.At(k)
		switch {
		case v1.IsNull() && v2.IsNull():
			continue
		case v1.IsNull() || v2.IsNull():
			sum += 0.5
			n++
		default:
			sum += StringSimilarity(v1.String(), v2.String())
			n++
		}
	}
	if n == 0 {
		return false
	}
	return sum/float64(n) >= cfg.Threshold
}

// UnknownAttrError reports a key or blocking attribute missing from the
// schema.
type UnknownAttrError struct{ Attr string }

func (e *UnknownAttrError) Error() string {
	return "er: unknown attribute " + e.Attr
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

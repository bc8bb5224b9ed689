package topk

// valueHeap is a binary max-heap over scored values — the heaps
// H1..Hm that TopKCT consumes instead of pre-ranked lists. Building is
// O(n); Pop is O(log n), matching the complexity accounting of
// Section 6.2.
type valueHeap struct {
	items []scoredValue
	pops  *int // shared pop counter for instance-optimality accounting
}

// newValueHeap heapifies the given entries (which need not be sorted).
func newValueHeap(items []scoredValue, pops *int) *valueHeap {
	h := &valueHeap{items: append([]scoredValue(nil), items...), pops: pops}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h *valueHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && scoredLess(h.items[best], h.items[l]) {
			best = l
		}
		if r < n && scoredLess(h.items[best], h.items[r]) {
			best = r
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}

// Pop removes and returns the top-weighted value.
func (h *valueHeap) Pop() (scoredValue, bool) {
	if len(h.items) == 0 {
		return scoredValue{}, false
	}
	if h.pops != nil {
		*h.pops++
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if len(h.items) > 0 {
		h.siftDown(0)
	}
	return top, true
}

// object is a queue entry of TopKCT (Fig. 5): a Z-assignment described
// by positions into the buffers B1..Bm, with its score.
type object struct {
	vals   []scoredValue
	pos    []int
	posSum int // Σ pos, the total demotion depth
	w      float64
	key    string
}

// objectLess orders objects for the priority queue: higher score first;
// among equal scores, fewer demotions first (staying near the top of
// every list keeps the search close to the preference optimum and
// reaches a verifiable candidate in few swaps when ties abound); the
// value key breaks remaining ties deterministically.
func objectLess(a, b *object) bool {
	if a.w != b.w {
		return a.w > b.w
	}
	if a.posSum != b.posSum {
		return a.posSum < b.posSum
	}
	return a.key < b.key
}

// pairingHeap is a max-priority queue over objects with O(1) insertion
// and O(log n) amortised delete-max.
//
// The paper uses a Brodal queue [Brodal, SODA'96] for worst-case bounds;
// a pairing heap provides the same amortised bounds with far simpler
// code, which changes no experiment (see DESIGN.md, substitutions).
type pairingHeap struct {
	root *phNode
	n    int
}

type phNode struct {
	obj     *object
	child   *phNode // first child
	sibling *phNode // next sibling
}

// Push inserts an object in O(1).
func (h *pairingHeap) Push(o *object) {
	h.root = meld(h.root, &phNode{obj: o})
	h.n++
}

// Pop removes and returns the best object.
func (h *pairingHeap) Pop() (*object, bool) {
	if h.root == nil {
		return nil, false
	}
	top := h.root.obj
	h.root = mergePairs(h.root.child)
	h.n--
	return top, true
}

// Len returns the number of queued objects.
func (h *pairingHeap) Len() int { return h.n }

func meld(a, b *phNode) *phNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if objectLess(b.obj, a.obj) {
		a, b = b, a
	}
	// a wins: b becomes a's first child.
	b.sibling = a.child
	a.child = b
	return a
}

// mergePairs performs the two-pass pairing combine.
func mergePairs(first *phNode) *phNode {
	if first == nil || first.sibling == nil {
		return first
	}
	a := first
	b := first.sibling
	rest := b.sibling
	a.sibling, b.sibling = nil, nil
	return meld(meld(a, b), mergePairs(rest))
}

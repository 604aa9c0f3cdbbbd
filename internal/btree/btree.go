// Package btree implements an in-memory B+-tree set of byte-slice keys, the
// ordered index structure behind every provider-side share index. Keys are
// compared with bytes.Compare; because order-preserving shares serialize to
// big-endian fixed-width bytes, the tree can index shares without knowing
// anything about the sharing construction.
//
// The tree stores unique keys and no values. Callers that need duplicates
// (several rows with the same share value) append a unique row-id suffix to
// the key and range-scan by prefix.
//
// Every node packs its keys into one byte slab plus a vector of end offsets,
// so an entry costs its key bytes and four: no slice header, no allocation
// per key. Keys are copied on insert, so callers may reuse buffers.
// A Tree is not safe for concurrent mutation; the store layer serializes
// access.
package btree

import (
	"bytes"
	"fmt"
	"slices"
)

// degree is the maximum number of children of an internal node. Leaves hold
// at most degree-1 keys. 64 keeps nodes around a cache line multiple and
// the tree shallow for table-scale data.
const degree = 64

const (
	maxKeys = degree - 1
	minKeys = maxKeys / 2
)

// Tree is a B+-tree set of []byte keys.
// The zero value is not usable; call New.
type Tree struct {
	root *node
	size int
}

type node struct {
	leaf bool
	// slab holds the keys back to back; key i is slab[ends[i-1]:ends[i]]
	// (from 0 for i = 0). In a leaf they are the stored keys; in an
	// internal node key i is the smallest key reachable under children[i+1].
	slab []byte
	ends []uint32
	// children is nil in leaves.
	children []*node
	// next links leaves in ascending key order for range scans.
	next *node
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

func (n *node) len() int { return len(n.ends) }

// start returns the slab offset of key i; start(len) is the slab's length.
func (n *node) start(i int) uint32 {
	if i == 0 {
		return 0
	}
	return n.ends[i-1]
}

// key returns key i, capped so that an append by the caller cannot reach
// into the next key.
func (n *node) key(i int) []byte {
	return n.slab[n.start(i):n.ends[i]:n.ends[i]]
}

// rank returns the number of keys below key, or at most key when orEqual.
// An internal node descends into children[rank(key, true)]; a leaf holds
// key, if at all, at rank(key, false).
func (n *node) rank(key []byte, orEqual bool) int {
	lo, hi := 0, n.len()
	for lo < hi {
		mid := (lo + hi) / 2
		if c := bytes.Compare(n.key(mid), key); c < 0 || orEqual && c == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns the leaf that would hold key and key's position in it.
func (t *Tree) find(key []byte) (*node, int, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[n.rank(key, true)]
	}
	i := n.rank(key, false)
	return n, i, i < n.len() && bytes.Equal(n.key(i), key)
}

// Has reports whether key is in the tree.
func (t *Tree) Has(key []byte) bool {
	_, _, ok := t.find(key)
	return ok
}

// insertKey copies k into the slab as key i, shifting the keys after it.
func (n *node) insertKey(i int, k []byte) {
	off := n.start(i)
	n.slab = slices.Insert(n.slab, int(off), k...)
	n.ends = slices.Insert(n.ends, i, off)
	for j := i; j < len(n.ends); j++ {
		n.ends[j] += uint32(len(k))
	}
}

// removeKey drops key i, shifting the keys after it down in place.
func (n *node) removeKey(i int) {
	off, end := n.start(i), n.ends[i]
	n.slab = slices.Delete(n.slab, int(off), int(end))
	n.ends = slices.Delete(n.ends, i, i+1)
	for j := i; j < len(n.ends); j++ {
		n.ends[j] -= end - off
	}
}

// setKey replaces key i with k.
func (n *node) setKey(i int, k []byte) {
	n.removeKey(i)
	n.insertKey(i, k)
}

// span returns an exact-size copy of keys [i, j): a slab and its offsets.
func (n *node) span(i, j int) ([]byte, []uint32) {
	base := n.start(i)
	slab := slices.Clone(n.slab[base:n.start(j)])
	ends := make([]uint32, j-i)
	for x := range ends {
		ends[x] = n.ends[i+x] - base
	}
	return slab, ends
}

// Insert adds key, reporting whether it was not already present.
func (t *Tree) Insert(key []byte) bool {
	inserted, splitKey, right := t.insert(t.root, key)
	if right != nil {
		root := &node{children: []*node{t.root, right}}
		root.insertKey(0, splitKey)
		t.root = root
	}
	if inserted {
		t.size++
	}
	return inserted
}

// Set adds key to the set; value must be empty, since the tree stores none.
// It adapts the frozen benchmark probe to the set API, and the next
// [benchmark] PR, which may edit the probe, deletes it.
func (t *Tree) Set(key, value []byte) bool {
	if len(value) != 0 {
		panic("btree: Set with a value; the tree is a set")
	}
	return t.Insert(key)
}

// Get reports whether key is present, with a nil value: the probe's other
// adapter, deleted with Set.
func (t *Tree) Get(key []byte) ([]byte, bool) { return nil, t.Has(key) }

// insert adds k under n. If n splits, it returns the separator key and the
// new right sibling; the separator is only valid until the next mutation.
func (t *Tree) insert(n *node, k []byte) (inserted bool, splitKey []byte, right *node) {
	if n.leaf {
		i := n.rank(k, false)
		if i < n.len() && bytes.Equal(n.key(i), k) {
			return false, nil, nil
		}
		n.insertKey(i, k)
		inserted = true
	} else {
		ci := n.rank(k, true)
		var childSplit []byte
		var newChild *node
		inserted, childSplit, newChild = t.insert(n.children[ci], k)
		if newChild != nil {
			n.insertKey(ci, childSplit)
			n.children = slices.Insert(n.children, ci+1, newChild)
		}
	}
	if n.len() <= maxKeys {
		return inserted, nil, nil
	}
	splitKey, right = n.split()
	return inserted, splitKey, right
}

// split divides an overfull node into two, each with its own exact-size
// slab, returning the separator to promote and the new right sibling.
func (n *node) split() ([]byte, *node) {
	mid := n.len() / 2
	right := &node{leaf: n.leaf}
	// In a B+-tree the separator for a leaf split is the first key of the
	// right sibling, which stays in the leaf; an internal split moves its
	// middle key up.
	from := mid + 1
	if n.leaf {
		from = mid
		right.next, n.next = n.next, right
	} else {
		right.children = append(right.children, n.children[from:]...)
		n.children = n.children[: mid+1 : mid+1]
	}
	sep := n.key(mid) // aliases the old slab, which n is about to drop
	right.slab, right.ends = n.span(from, n.len())
	n.slab, n.ends = n.span(0, mid)
	return sep, right
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key []byte) bool {
	deleted := t.delete(t.root, key)
	if deleted {
		t.size--
	}
	if !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return deleted
}

func (t *Tree) delete(n *node, key []byte) bool {
	if n.leaf {
		i := n.rank(key, false)
		if i == n.len() || !bytes.Equal(n.key(i), key) {
			return false
		}
		n.removeKey(i)
		return true
	}
	ci := n.rank(key, true)
	child := n.children[ci]
	deleted := t.delete(child, key)
	if deleted && child.len() < minKeys {
		n.rebalance(ci)
	}
	return deleted
}

// rebalance restores the minimum-occupancy invariant of children[ci] by
// borrowing from a sibling or merging with one.
func (n *node) rebalance(ci int) {
	child := n.children[ci]
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := n.children[ci-1]
		if last := left.len() - 1; last >= minKeys {
			if child.leaf {
				child.insertKey(0, left.key(last))
				n.setKey(ci-1, child.key(0))
			} else {
				// Rotate through the separator.
				child.insertKey(0, n.key(ci-1))
				n.setKey(ci-1, left.key(last))
				child.children = slices.Insert(child.children, 0, left.children[last+1])
				left.children = left.children[:last+1]
			}
			left.removeKey(last)
			return
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(n.children)-1 {
		right := n.children[ci+1]
		if right.len() > minKeys {
			if child.leaf {
				child.insertKey(child.len(), right.key(0))
				right.removeKey(0)
				n.setKey(ci, right.key(0))
			} else {
				child.insertKey(child.len(), n.key(ci))
				n.setKey(ci, right.key(0))
				right.removeKey(0)
				child.children = append(child.children, right.children[0])
				right.children = right.children[1:]
			}
			return
		}
	}
	// Merge with a sibling.
	if ci > 0 {
		n.merge(ci - 1)
	} else {
		n.merge(ci)
	}
}

// merge folds children[i+1] into children[i] and drops separator key i.
func (n *node) merge(i int) {
	left, right := n.children[i], n.children[i+1]
	if left.leaf {
		left.next = right.next
	} else {
		left.insertKey(left.len(), n.key(i))
		left.children = append(left.children, right.children...)
	}
	for j := 0; j < right.len(); j++ {
		left.insertKey(left.len(), right.key(j))
	}
	n.removeKey(i)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// AscendRange visits keys in [lo, hi) in ascending order, calling fn for
// each; iteration stops early if fn returns false. A nil lo starts at the
// smallest key; a nil hi scans to the end. The key passed to fn aliases the
// node's slab, which the next insert or delete shifts in place: fn must not
// retain or mutate it.
func (t *Tree) AscendRange(lo, hi []byte, fn func(key []byte) bool) {
	n, start, _ := t.find(lo)
	for ; n != nil; n, start = n.next, 0 {
		for i := start; i < n.len(); i++ {
			k := n.key(i)
			if hi != nil && bytes.Compare(k, hi) >= 0 || !fn(k) {
				return
			}
		}
	}
}

// Ascend visits all keys in ascending order, under AscendRange's rules.
func (t *Tree) Ascend(fn func(key []byte) bool) {
	t.AscendRange(nil, nil, fn)
}

// checkInvariants walks the tree verifying structural invariants; it is
// exported to the test suite through export_test.go.
func (t *Tree) checkInvariants() error {
	_, _, err := checkNode(t.root, true)
	if err != nil {
		return err
	}
	// Leaf chain must be sorted and cover size keys.
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	count := 0
	var prev []byte
	for ; n != nil; n = n.next {
		for i := 0; i < n.len(); i++ {
			k := n.key(i)
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				return fmt.Errorf("btree: leaf chain out of order at %x", k)
			}
			prev = k
			count++
		}
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but leaf chain has %d keys", t.size, count)
	}
	return nil
}

func checkNode(n *node, isRoot bool) (min, max []byte, err error) {
	if n.len() > maxKeys {
		return nil, nil, fmt.Errorf("btree: node with %d keys", n.len())
	}
	if !isRoot && n.len() < minKeys {
		return nil, nil, fmt.Errorf("btree: underfull node with %d keys", n.len())
	}
	if int(n.start(n.len())) != len(n.slab) {
		return nil, nil, fmt.Errorf("btree: keys end at %d of a %d-byte slab", n.start(n.len()), len(n.slab))
	}
	for i := 0; i < n.len(); i++ {
		if n.ends[i] < n.start(i) {
			return nil, nil, fmt.Errorf("btree: key %d ends before it starts", i)
		}
		if i > 0 && bytes.Compare(n.key(i-1), n.key(i)) >= 0 {
			return nil, nil, fmt.Errorf("btree: keys out of order")
		}
	}
	if n.leaf {
		if n.children != nil {
			return nil, nil, fmt.Errorf("btree: leaf with children")
		}
		if n.len() == 0 {
			return nil, nil, nil
		}
		return n.key(0), n.key(n.len() - 1), nil
	}
	if len(n.children) != n.len()+1 {
		return nil, nil, fmt.Errorf("btree: internal node with %d keys, %d children",
			n.len(), len(n.children))
	}
	for i, c := range n.children {
		cmin, cmax, err := checkNode(c, false)
		if err != nil {
			return nil, nil, err
		}
		if cmin == nil {
			return nil, nil, fmt.Errorf("btree: empty non-root child")
		}
		if i > 0 && bytes.Compare(cmin, n.key(i-1)) < 0 {
			return nil, nil, fmt.Errorf("btree: child %d min below separator", i)
		}
		if i < n.len() && bytes.Compare(cmax, n.key(i)) >= 0 {
			return nil, nil, fmt.Errorf("btree: child %d max above separator", i)
		}
		if i == 0 {
			min = cmin
		}
		if i == len(n.children)-1 {
			max = cmax
		}
	}
	return min, max, nil
}

// Package btree implements an in-memory B+-tree: an ordered set of (key,
// row id) entries, the structure behind every provider-side share index.
// Every key of one tree is as wide as the tree says. Entries order by key
// bytes (bytes.Compare), then by id; because order-preserving shares
// serialize to big-endian fixed-width bytes, the tree indexes shares
// without knowing anything about the sharing construction, and several rows
// with the same share are several entries.
//
// A node stores once what all its entries share: the leading key bytes
// they have in common and the high bytes of their ids. Each entry then
// takes only its remaining key bytes and its low id bytes, at one fixed
// stride in one byte slab, so an entry costs the bytes it does not share
// with its node: no slice header, no offsets, no allocation per entry. An
// insert that breaks what a node shares re-encodes that node, as do a split
// and a merge; keys are copied in, so callers may reuse buffers.
//
// No node holds a whole key, so a read materialises each key it returns
// into a buffer of the reader's (see Iter). A Tree is not safe for
// concurrent mutation; the store layer serializes access.
package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// degree is the maximum number of children of an internal node. Leaves hold
// at most degree-1 entries. 64 keeps the tree shallow for table-scale data
// and lets a count fit a byte.
const degree = 64

const (
	maxKeys = degree - 1
	minKeys = maxKeys / 2
	// growStep is how many entries a full slab gains room for at a time.
	growStep = 8
	// maxWidth is the widest key a tree takes: a node counts its shared
	// prefix in a byte.
	maxWidth = 255
)

// Tree is a B+-tree set of (key, id) entries with keys of one width.
type Tree struct {
	root  *node
	size  int
	width int
	// key and scratch are the mutations' buffers: key holds a separator or
	// a borrowed entry on its way to another node, scratch a node's entries
	// written out whole (key, then 8-byte id) while they are re-encoded.
	// Reads never touch them.
	key, scratch []byte
}

type node struct {
	// slab holds the prefix every key of the node starts with, then the
	// entries at stride() bytes each: the key's remaining sfx bytes, then
	// the low idLen bytes of its id. In an internal node entry i is the
	// smallest entry reachable under children[i+1].
	slab []byte
	// children is nil in leaves.
	children []*node
	// next links leaves in ascending order for range scans.
	next *node
	// idHigh holds the id bytes every entry shares; its low idLen bytes are
	// zero.
	idHigh           uint64
	count            uint8
	plen, sfx, idLen uint8
}

// NewWidth returns an empty tree of width-byte keys, 0 ≤ width ≤ maxWidth.
func NewWidth(width int) *Tree {
	checkTreeWidth(width)
	return &Tree{root: &node{sfx: uint8(width)}, width: width}
}

// checkTreeWidth refuses a key width no tree takes.
func checkTreeWidth(width int) {
	if width < 0 || width > maxWidth {
		panic(fmt.Sprintf("btree: key width %d outside [0, %d]", width, maxWidth))
	}
}

// New returns a tree for the Set and Get adapters, whose first Set fixes its
// key width. The three exist only for the frozen benchmark probe and go
// when the probe next changes.
func New() *Tree { return &Tree{root: &node{}, width: -1} }

// Set adds the entry (key[:len-8], the big-endian id in key's last 8 bytes);
// value must be empty, since the tree stores none.
func (t *Tree) Set(key, value []byte) bool {
	if len(value) != 0 {
		panic("btree: Set with a value; the tree is a set")
	}
	k, id := splitID(key)
	if t.width < 0 {
		t.width = len(k)
	}
	return t.Insert(k, id)
}

// Get reports whether the entry Set(key, nil) would add is present, with a
// nil value.
func (t *Tree) Get(key []byte) ([]byte, bool) { return nil, t.Has(splitID(key)) }

func splitID(key []byte) ([]byte, uint64) {
	at := len(key) - 8
	return key[:at], binary.BigEndian.Uint64(key[at:])
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Width returns the byte width of the tree's keys.
func (t *Tree) Width() int { return t.width }

// checkWidth refuses a key of another width: against keys of one width its
// bytes would be read as some other key's.
func (t *Tree) checkWidth(key []byte) {
	if len(key) != t.width {
		panic(fmt.Sprintf("btree: a %d-byte key in a tree of %d-byte keys", len(key), t.width))
	}
}

func (n *node) len() int    { return int(n.count) }
func (n *node) stride() int { return int(n.sfx) + int(n.idLen) }
func (n *node) prefix() []byte {
	return n.slab[:n.plen:n.plen]
}

// at returns the stored bytes of entry i.
func (n *node) at(i int) []byte {
	s := n.stride()
	off := int(n.plen) + i*s
	return n.slab[off : off+s : off+s]
}

// id returns entry i's id.
func (n *node) id(i int) uint64 {
	v := n.idHigh
	for j, b := range n.at(i)[n.sfx:] {
		v |= uint64(b) << (8 * (int(n.idLen) - 1 - j))
	}
	return v
}

// appendKey appends entry i's key to dst.
func (n *node) appendKey(dst []byte, i int) []byte {
	return append(append(dst, n.prefix()...), n.at(i)[:n.sfx]...)
}

// rank returns the number of entries below (key, id), or at most it when
// orEqual. An internal node descends into children[rank(key, id, true)]; a
// leaf holds the entry, if at all, at rank(key, id, false).
func (n *node) rank(key []byte, id uint64, orEqual bool) int {
	switch c := bytes.Compare(key[:n.plen], n.prefix()); {
	case c < 0:
		return 0
	case c > 0:
		return n.len()
	}
	rest, s, sfx := key[n.plen:], n.stride(), int(n.sfx)
	lo, hi := 0, n.len()
	for lo < hi {
		mid := (lo + hi) / 2
		off := int(n.plen) + mid*s
		c := bytes.Compare(n.slab[off:off+sfx], rest)
		if c == 0 {
			c = cmp.Compare(n.id(mid), id)
		}
		if c < 0 || orEqual && c == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// holds reports whether entry i is (key, id).
func (n *node) holds(i int, key []byte, id uint64) bool {
	return i < n.len() && bytes.Equal(key[:n.plen], n.prefix()) &&
		bytes.Equal(n.at(i)[:n.sfx], key[n.plen:]) && n.id(i) == id
}

// find returns the leaf that would hold (key, id) and the number of its
// entries below it, or at most it when orEqual.
func (t *Tree) find(key []byte, id uint64, orEqual bool) (*node, int) {
	n := t.root
	for n.children != nil {
		n = n.children[n.rank(key, id, true)]
	}
	return n, n.rank(key, id, orEqual)
}

// Has reports whether (key, id) is in the tree.
func (t *Tree) Has(key []byte, id uint64) bool {
	t.checkWidth(key)
	n, i := t.find(key, id, false)
	return n.holds(i, key, id)
}

// putID writes the low len(dst) bytes of id into dst, big-endian.
func putID(dst []byte, id uint64) {
	for j := len(dst) - 1; j >= 0; j-- {
		dst[j] = byte(id)
		id >>= 8
	}
}

// insertAt adds (key, id) as entry i. It writes the entry in place when it
// shares what the node's entries share, and re-encodes the node when not.
func (t *Tree) insertAt(n *node, i int, key []byte, id uint64) {
	samePrefix := bytes.Equal(key[:n.plen], n.prefix())
	if n.len() == 0 || !samePrefix || (id^n.idHigh)>>(8*n.idLen) != 0 {
		switch {
		case n.len() == 0:
		case !samePrefix:
			note("prefix break", n)
		default:
			note("id break", n)
		}
		full := n.unpack(t.scratch[:0], 0, i)
		full = binary.BigEndian.AppendUint64(append(full, key...), id)
		t.scratch = n.unpack(full, i, n.len())
		n.pack(t.scratch, t.width)
		return
	}
	s := n.stride()
	if cap(n.slab)-len(n.slab) < s {
		n.slab = append(alloc(len(n.slab)+growStep*s), n.slab...)
	}
	off := int(n.plen) + i*s
	n.slab = n.slab[:len(n.slab)+s]
	copy(n.slab[off+s:], n.slab[off:])
	copy(n.slab[off:], key[n.plen:])
	putID(n.slab[off+int(n.sfx):off+s], id)
	n.count++
}

// remove drops entry i, shifting the entries after it down in place. What
// the rest share stays stored as it was.
func (n *node) remove(i int) {
	s := n.stride()
	off := int(n.plen) + i*s
	n.slab = append(n.slab[:off], n.slab[off+s:]...)
	n.count--
}

// setAt replaces entry i with (key, id).
func (t *Tree) setAt(n *node, i int, key []byte, id uint64) {
	n.remove(i)
	t.insertAt(n, i, key, id)
}

// load copies entry i of n into t.key and returns it.
func (t *Tree) load(n *node, i int) ([]byte, uint64) {
	t.key = n.appendKey(t.key[:0], i)
	return t.key, n.id(i)
}

// unpack appends entries [from, to) to dst whole: key, then 8-byte id.
func (n *node) unpack(dst []byte, from, to int) []byte {
	for i := from; i < to; i++ {
		dst = binary.BigEndian.AppendUint64(n.appendKey(dst, i), n.id(i))
	}
	return dst
}

// pack re-encodes n to hold the whole entries in full (at least one), in
// order, storing once the key prefix and the id bytes they all share.
// Because the entries are sorted, the first and last keys' common prefix is
// everyone's. The slab is reused when it fits without wasting more than a
// growth step.
func (n *node) pack(full []byte, w int) {
	e := w + 8
	c := len(full) / e
	n.count = uint8(c)
	first, last := full[:w], full[(c-1)*e:][:w]
	plen := 0
	for plen < w && first[plen] == last[plen] {
		plen++
	}
	id0 := binary.BigEndian.Uint64(full[w:e])
	var diff uint64
	for i := 1; i < c; i++ {
		diff |= id0 ^ binary.BigEndian.Uint64(full[i*e+w:])
	}
	idLen := (bits.Len64(diff) + 7) / 8
	n.plen, n.sfx, n.idLen = uint8(plen), uint8(w-plen), uint8(idLen)
	n.idHigh = id0 &^ (1<<(8*idLen) - 1)
	s := n.stride()
	if need := plen + c*s; cap(n.slab) < need || cap(n.slab) > need+growStep*s {
		n.slab = alloc(need)
	}
	n.slab = append(n.slab[:0], first[:plen]...)
	for i := 0; i < c; i++ {
		ent := full[i*e : (i+1)*e]
		n.slab = append(n.slab, ent[plen:w]...)
		n.slab = n.slab[:len(n.slab)+idLen]
		putID(n.slab[len(n.slab)-idLen:], binary.BigEndian.Uint64(ent[w:]))
	}
}

// alloc returns an empty slab with room for size bytes.
func alloc(size int) []byte { return make([]byte, 0, size) }

// Insert adds (key, id), reporting whether it was not already present.
func (t *Tree) Insert(key []byte, id uint64) bool {
	t.checkWidth(key)
	inserted, sepID, right := t.insert(t.root, key, id)
	if right != nil {
		root := &node{children: []*node{t.root, right}}
		t.insertAt(root, 0, t.key, sepID)
		t.root = root
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert adds (key, id) under n. If n splits, it returns the new right
// sibling and the separator to promote: sepID, with its key in t.key until
// the next mutation step.
func (t *Tree) insert(n *node, key []byte, id uint64) (inserted bool, sepID uint64, right *node) {
	if n.children == nil {
		i := n.rank(key, id, false)
		if n.holds(i, key, id) {
			return false, 0, nil
		}
		t.insertAt(n, i, key, id)
		inserted = true
	} else {
		ci := n.rank(key, id, true)
		var child *node
		inserted, sepID, child = t.insert(n.children[ci], key, id)
		if child != nil {
			t.insertAt(n, ci, t.key, sepID)
			n.children = slices.Insert(n.children, ci+1, child)
		}
	}
	if n.len() <= maxKeys {
		return inserted, 0, nil
	}
	sepID, right = t.split(n)
	return inserted, sepID, right
}

// split divides an overfull node into two, each re-encoded into a slab of
// its own, and returns the separator's id (its key in t.key) and the new
// right sibling.
func (t *Tree) split(n *node) (uint64, *node) {
	note("split", n)
	e := t.width + 8
	mid := n.len() / 2
	right := &node{}
	// In a B+-tree the separator for a leaf split is the first entry of the
	// right sibling, which stays in the leaf; an internal split moves its
	// middle entry up.
	from := mid + 1
	if n.children == nil {
		from = mid
		right.next, n.next = n.next, right
	} else {
		right.children = append(right.children, n.children[from:]...)
		n.children = n.children[: mid+1 : mid+1]
	}
	full := n.unpack(t.scratch[:0], 0, n.len())
	t.scratch = full
	t.key = append(t.key[:0], full[mid*e:][:t.width]...)
	sepID := binary.BigEndian.Uint64(full[mid*e+t.width:])
	right.pack(full[from*e:], t.width)
	n.pack(full[:mid*e], t.width)
	return sepID, right
}

// Delete removes (key, id), reporting whether it was present.
func (t *Tree) Delete(key []byte, id uint64) bool {
	t.checkWidth(key)
	deleted := t.delete(t.root, key, id)
	if deleted {
		t.size--
	}
	if len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return deleted
}

func (t *Tree) delete(n *node, key []byte, id uint64) bool {
	if n.children == nil {
		i := n.rank(key, id, false)
		if !n.holds(i, key, id) {
			return false
		}
		n.remove(i)
		return true
	}
	ci := n.rank(key, id, true)
	child := n.children[ci]
	deleted := t.delete(child, key, id)
	if deleted && child.len() < minKeys {
		t.rebalance(n, ci)
	}
	return deleted
}

// rebalance restores the minimum-occupancy invariant of n.children[ci] by
// borrowing from a sibling or merging with one.
func (t *Tree) rebalance(n *node, ci int) {
	child := n.children[ci]
	leaf := child.children == nil
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := n.children[ci-1]
		if last := left.len() - 1; last >= minKeys {
			note("borrow left", child)
			if leaf {
				k, id := t.load(left, last)
				t.insertAt(child, 0, k, id)
				k, id = t.load(child, 0)
				t.setAt(n, ci-1, k, id)
			} else {
				// Rotate through the separator.
				k, id := t.load(n, ci-1)
				t.insertAt(child, 0, k, id)
				k, id = t.load(left, last)
				t.setAt(n, ci-1, k, id)
				child.children = slices.Insert(child.children, 0, left.children[last+1])
				left.children = left.children[:last+1]
			}
			left.remove(last)
			return
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(n.children)-1 {
		right := n.children[ci+1]
		if right.len() > minKeys {
			note("borrow right", child)
			if leaf {
				k, id := t.load(right, 0)
				t.insertAt(child, child.len(), k, id)
				right.remove(0)
				k, id = t.load(right, 0)
				t.setAt(n, ci, k, id)
			} else {
				k, id := t.load(n, ci)
				t.insertAt(child, child.len(), k, id)
				k, id = t.load(right, 0)
				t.setAt(n, ci, k, id)
				right.remove(0)
				child.children = append(child.children, right.children[0])
				right.children = right.children[1:]
			}
			return
		}
	}
	// Merge with a sibling.
	if ci > 0 {
		t.merge(n, ci-1)
	} else {
		t.merge(n, ci)
	}
}

// merge folds n.children[i+1] into n.children[i], re-encoded as one node,
// and drops separator i.
func (t *Tree) merge(n *node, i int) {
	left, right := n.children[i], n.children[i+1]
	note("merge", left)
	full := left.unpack(t.scratch[:0], 0, left.len())
	if left.children == nil {
		left.next = right.next
	} else {
		full = n.unpack(full, i, i+1)
		left.children = append(left.children, right.children...)
	}
	t.scratch = right.unpack(full, 0, right.len())
	left.pack(t.scratch, t.width)
	n.remove(i)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// tally, when a test sets it, is told each structural step a mutation
// takes and whether it was at a leaf.
var tally func(step string, leaf bool)

func note(step string, n *node) {
	if tally != nil {
		tally(step, n.children == nil)
	}
}

// An Iter walks a tree's entries in ascending order: Tree.Seek or SeekAfter
// positions it, and each Next steps to the following entry. Key is the
// entry's key materialised into the Iter's own buffer, valid until the next
// Next. An Iter reads nodes in place, so a mutation of its tree invalidates
// it: a walk that spans writes re-seeks after them. Reusing an Iter reuses
// its buffer.
type Iter struct {
	n   *node
	i   int
	key []byte
	id  uint64
}

// Seek positions it before the first entry at or above (key, id); a nil key
// (not an empty one, which is every key of a zero-width tree) starts at the
// smallest entry.
func (t *Tree) Seek(it *Iter, key []byte, id uint64) { t.seek(it, key, id, false) }

// SeekAfter positions it before the first entry above (key, id).
func (t *Tree) SeekAfter(it *Iter, key []byte, id uint64) { t.seek(it, key, id, true) }

func (t *Tree) seek(it *Iter, key []byte, id uint64, after bool) {
	if key == nil {
		n := t.root
		for n.children != nil {
			n = n.children[0]
		}
		it.n, it.i = n, 0
		return
	}
	t.checkWidth(key)
	it.n, it.i = t.find(key, id, after)
}

// Next steps to the next entry, reporting whether there was one.
func (it *Iter) Next() bool {
	for it.n != nil && it.i >= it.n.len() {
		it.n, it.i = it.n.next, 0
	}
	if it.n == nil {
		return false
	}
	n := it.n
	if w := int(n.plen) + int(n.sfx); it.key == nil || cap(it.key) < w {
		it.key = make([]byte, 0, w) // never nil: a nil key means the start
	}
	it.key, it.id = n.appendKey(it.key[:0], it.i), n.id(it.i)
	it.i++
	return true
}

// Key returns the current entry's key; see Iter for how long it is valid.
func (it *Iter) Key() []byte { return it.key }

// ID returns the current entry's id.
func (it *Iter) ID() uint64 { return it.id }

// checkInvariants walks the tree verifying structural invariants; it is
// exported to the test suite through export_test.go.
func (t *Tree) checkInvariants() error {
	if _, err := t.checkNode(t.root, true); err != nil {
		return err
	}
	// The leaf chain must be in order and hold size entries.
	var it Iter
	t.Seek(&it, nil, 0)
	count := 0
	var prev []byte
	for it.Next() {
		cur := binary.BigEndian.AppendUint64(slices.Clone(it.Key()), it.ID())
		if prev != nil && bytes.Compare(prev, cur) >= 0 {
			return fmt.Errorf("btree: leaf chain out of order at %x", cur)
		}
		prev = cur
		count++
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but leaf chain has %d entries", t.size, count)
	}
	return nil
}

// checkNode verifies n's encoding, order and occupancy and, below it, the
// separators; it returns n's entries whole.
func (t *Tree) checkNode(n *node, isRoot bool) ([]byte, error) {
	w, e := t.width, t.width+8
	switch {
	case n.len() > maxKeys:
		return nil, fmt.Errorf("btree: node with %d entries", n.len())
	case !isRoot && n.len() < minKeys:
		return nil, fmt.Errorf("btree: underfull node with %d entries", n.len())
	case int(n.plen)+int(n.sfx) != w || n.idLen > 8:
		return nil, fmt.Errorf("btree: node stores %d+%d key bytes and %d id bytes of a %d-byte key", n.plen, n.sfx, n.idLen, w)
	case len(n.slab) != int(n.plen)+n.len()*n.stride():
		return nil, fmt.Errorf("btree: %d entries of %d bytes after a %d-byte prefix in a %d-byte slab",
			n.len(), n.stride(), n.plen, len(n.slab))
	case n.idHigh&(1<<(8*n.idLen)-1) != 0:
		return nil, fmt.Errorf("btree: shared id bytes %x overlap the %d stored ones", n.idHigh, n.idLen)
	}
	full := n.unpack(nil, 0, n.len())
	for i := e; i < len(full); i += e {
		if bytes.Compare(full[i-e:i], full[i:i+e]) >= 0 {
			return nil, fmt.Errorf("btree: entries out of order")
		}
	}
	if n.children == nil {
		return full, nil
	}
	if len(n.children) != n.len()+1 {
		return nil, fmt.Errorf("btree: internal node with %d entries, %d children", n.len(), len(n.children))
	}
	var all []byte
	for i, c := range n.children {
		sub, err := t.checkNode(c, false)
		if err != nil {
			return nil, err
		}
		if len(sub) == 0 {
			return nil, fmt.Errorf("btree: empty non-root child")
		}
		if i > 0 && bytes.Compare(sub[:e], full[(i-1)*e:i*e]) < 0 {
			return nil, fmt.Errorf("btree: child %d min below separator", i)
		}
		if i < n.len() && bytes.Compare(sub[len(sub)-e:], full[i*e:(i+1)*e]) >= 0 {
			return nil, fmt.Errorf("btree: child %d max above separator", i)
		}
		// Only a child's first and last entries matter above it.
		all = append(append(all, sub[:e]...), sub[len(sub)-e:]...)
	}
	return all, nil
}

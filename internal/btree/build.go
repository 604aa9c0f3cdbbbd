package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// A Loader gathers the entries of one tree in any order, and Tree builds the
// tree from them with one sort: the way to index a table that already holds
// rows, at a cost of one sort plus one pass instead of one descent per
// entry. The sort orders fixed-width words: each key's first 16 bytes as
// two big-endian integers, zero-padded, then the bytes past them (only a
// key wider than 16 has any), then the id.
type Loader struct {
	width int
	ents  []loadEntry
	tail  []byte // each entry's key bytes past the first 16, in Add order
}

// loadEntry is one entry as the Loader sorts it; at is its position in Add
// order, which finds its tail.
type loadEntry struct {
	w0, w1, id uint64
	at         uint32
}

// NewLoader returns a Loader of width-byte keys with room for n entries.
func NewLoader(width, n int) *Loader {
	checkTreeWidth(width)
	return &Loader{width: width, ents: make([]loadEntry, 0, n), tail: make([]byte, 0, n*max(width-16, 0))}
}

// Add copies in the entry (key, id). The entries of one Loader must be
// distinct.
func (l *Loader) Add(key []byte, id uint64) {
	if len(key) != l.width {
		panic(fmt.Sprintf("btree: a %d-byte key for a tree of %d-byte keys", len(key), l.width))
	}
	var w [16]byte
	copy(w[:], key)
	l.ents = append(l.ents, loadEntry{binary.BigEndian.Uint64(w[:8]), binary.BigEndian.Uint64(w[8:]), id, uint32(len(l.ents))})
	if len(key) > 16 {
		l.tail = append(l.tail, key[16:]...)
	}
}

// Tree sorts the entries added, builds the tree from them (see Build) and
// empties the Loader.
func (l *Loader) Tree() *Tree {
	tw := max(l.width-16, 0)
	tail := func(x loadEntry) []byte { return l.tail[int(x.at)*tw:][:tw] }
	slices.SortFunc(l.ents, func(x, y loadEntry) int {
		switch {
		case x.w0 != y.w0:
			return cmp.Compare(x.w0, y.w0)
		case x.w1 != y.w1:
			return cmp.Compare(x.w1, y.w1)
		case tw > 0:
			if c := bytes.Compare(tail(x), tail(y)); c != 0 {
				return c
			}
		}
		return cmp.Compare(x.id, y.id)
	})
	head := min(l.width, 16)
	full := make([]byte, 0, len(l.ents)*(l.width+8))
	var w [16]byte
	for _, x := range l.ents {
		binary.BigEndian.PutUint64(w[:8], x.w0)
		binary.BigEndian.PutUint64(w[8:], x.w1)
		full = binary.BigEndian.AppendUint64(append(append(full, w[:head]...), tail(x)...), x.id)
	}
	l.ents, l.tail = nil, nil
	return Build(l.width, full)
}

// Build returns a tree of width-byte keys holding the entries of full:
// whole entries (key, then 8-byte big-endian id), strictly ascending. It
// packs the leaves full, sized as evenly as keeps every one at minKeys or
// more, then builds each internal level bottom-up from its children's first
// entries: one pass, no descent. It panics on entries that are not whole or
// not ascending.
func Build(width int, full []byte) *Tree {
	t := NewWidth(width)
	e := width + 8
	if len(full)%e != 0 {
		panic(fmt.Sprintf("btree: Build of %d bytes, not whole %d-byte entries", len(full), e))
	}
	n := len(full) / e
	for i := e; i < len(full); i += e {
		if bytes.Compare(full[i-e:i], full[i:i+e]) >= 0 {
			panic(fmt.Sprintf("btree: Build entries out of order at entry %d", i/e))
		}
	}
	if n == 0 {
		return t
	}
	// level holds one level's nodes and firsts the position in full of each
	// one's smallest entry, which is the separator a parent keeps for it.
	var level []*node
	var firsts []int
	var prev *node
	for g, j := groups(n, maxKeys), 0; j < g; j++ {
		lo, hi := j*n/g, (j+1)*n/g
		leaf := &node{}
		leaf.pack(full[lo*e:hi*e], width)
		if prev != nil {
			prev.next = leaf
		}
		level, firsts, prev = append(level, leaf), append(firsts, lo), leaf
	}
	for len(level) > 1 {
		var up []*node
		var upFirsts []int
		for g, j := groups(len(level), degree), 0; j < g; j++ {
			lo, hi := j*len(level)/g, (j+1)*len(level)/g
			sep := t.scratch[:0]
			for _, at := range firsts[lo+1 : hi] {
				sep = append(sep, full[at*e:(at+1)*e]...)
			}
			t.scratch = sep
			parent := &node{children: slices.Clone(level[lo:hi])}
			parent.pack(sep, width)
			up, upFirsts = append(up, parent), append(upFirsts, firsts[lo])
		}
		level, firsts = up, upFirsts
	}
	t.root, t.size = level[0], n
	return t
}

// groups returns into how few runs of at most most entries n entries cut:
// run j of g is [j*n/g, (j+1)*n/g), so run lengths differ by one at most,
// and with two runs or more none is under half of most.
func groups(n, most int) int { return (n + most - 1) / most }

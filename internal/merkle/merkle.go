// Package merkle implements an RFC 6962-style Merkle hash tree with
// contiguous-range proofs, the integrity mechanism behind the paper's
// trust challenge: "the results returned by the service provider are indeed
// the exact answers to the user queries" (completeness and correctness).
//
// A provider maintains one tree per indexed share column, with leaves in
// index-key order. To answer a range scan verifiably it returns the
// matching leaf run plus its two fence leaves and a proof consisting of the
// hashes of the maximal subtrees outside the run, under the root and leaf
// count of the tree the proof was cut from. The client recomputes the root
// from the run; if it matches, and the leaf count agrees with other
// providers', the provider can neither drop rows inside the range nor inject
// rows that were never outsourced.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// HashSize is the digest width in bytes.
const HashSize = sha256.Size

// Hash is a node or leaf digest.
type Hash [HashSize]byte

// Domain-separation prefixes (RFC 6962).
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// ErrBadProof reports a proof that does not fit the claimed shape.
var ErrBadProof = errors.New("merkle: malformed proof")

// LeafHash hashes a leaf's content: the index key and a digest of the row
// it points at.
func LeafHash(key, rowDigest []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(key)))
	h.Write(lenBuf[:])
	h.Write(key)
	h.Write(rowDigest)
	var out Hash
	h.Sum(out[:0])
	return out
}

func nodeHash(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// emptyRoot is the hash of the empty tree.
func emptyRoot() Hash { return sha256.Sum256(nil) }

// splitPoint returns the largest power of two strictly less than n (n >= 2).
func splitPoint(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// Tree is a Merkle tree over an ordered leaf sequence.
type Tree struct {
	leaves []Hash
}

// New builds a tree over the given leaf hashes (copied).
func New(leaves []Hash) *Tree {
	return &Tree{leaves: append([]Hash(nil), leaves...)}
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return len(t.leaves) }

// Root computes the tree root.
func (t *Tree) Root() Hash {
	return subtreeRoot(t.leaves)
}

func subtreeRoot(leaves []Hash) Hash {
	switch len(leaves) {
	case 0:
		return emptyRoot()
	case 1:
		return leaves[0]
	default:
		k := splitPoint(len(leaves))
		return nodeHash(subtreeRoot(leaves[:k]), subtreeRoot(leaves[k:]))
	}
}

// ProveRange produces the proof for the contiguous leaf run [start, end):
// the root hashes of every maximal subtree disjoint from the run, in the
// deterministic order the verification recursion consumes them.
func (t *Tree) ProveRange(start, end int) ([]Hash, error) {
	if start < 0 || end < start || end > len(t.leaves) {
		return nil, fmt.Errorf("%w: range [%d,%d) of %d leaves", ErrBadProof, start, end, len(t.leaves))
	}
	var proof []Hash
	var walk func(leaves []Hash, lo int)
	walk = func(leaves []Hash, lo int) {
		hi := lo + len(leaves)
		if hi <= start || lo >= end {
			// Entirely outside the run: emit one subtree hash.
			proof = append(proof, subtreeRoot(leaves))
			return
		}
		if lo >= start && hi <= end {
			// Entirely inside: verifier recomputes from supplied leaves.
			return
		}
		k := splitPoint(len(leaves))
		walk(leaves[:k], lo)
		walk(leaves[k:], lo+k)
	}
	if len(t.leaves) > 0 && start < end {
		walk(t.leaves, 0)
	} else if len(t.leaves) > 0 {
		// Empty run: the proof is just the root, proving n and emptiness.
		proof = append(proof, t.Root())
	}
	return proof, nil
}

// VerifyRange recomputes the root from a claimed leaf run and its proof.
// n is the claimed total number of leaves, start the claimed index of the
// first supplied leaf. It returns the recomputed root; compare with a
// trusted root to accept.
func VerifyRange(n, start int, run []Hash, proof []Hash) (Hash, error) {
	if n < 0 || start < 0 || start+len(run) > n {
		return Hash{}, fmt.Errorf("%w: run [%d,%d) of %d leaves", ErrBadProof, start, start+len(run), n)
	}
	if n == 0 {
		if len(run) != 0 || len(proof) != 0 {
			return Hash{}, fmt.Errorf("%w: non-empty proof for empty tree", ErrBadProof)
		}
		return emptyRoot(), nil
	}
	end := start + len(run)
	if len(run) == 0 {
		// Empty run: proof must be exactly the root.
		if len(proof) != 1 {
			return Hash{}, fmt.Errorf("%w: empty run wants exactly the root", ErrBadProof)
		}
		return proof[0], nil
	}
	next := 0 // next proof hash to consume
	var build func(lo, hi int) (Hash, error)
	build = func(lo, hi int) (Hash, error) {
		if hi <= start || lo >= end {
			if next >= len(proof) {
				return Hash{}, fmt.Errorf("%w: proof exhausted", ErrBadProof)
			}
			h := proof[next]
			next++
			return h, nil
		}
		if lo >= start && hi <= end {
			return subtreeRoot(run[lo-start : hi-start]), nil
		}
		k := splitPoint(hi - lo)
		left, err := build(lo, lo+k)
		if err != nil {
			return Hash{}, err
		}
		right, err := build(lo+k, hi)
		if err != nil {
			return Hash{}, err
		}
		return nodeHash(left, right), nil
	}
	root, err := build(0, n)
	if err != nil {
		return Hash{}, err
	}
	if next != len(proof) {
		return Hash{}, fmt.Errorf("%w: %d unused proof hashes", ErrBadProof, len(proof)-next)
	}
	return root, nil
}

// --- Proof serialization (opaque blob carried in proto.RowsResponse) ---

// RangeProof bundles everything a client needs to verify a scan's
// completeness: tree shape and root, run position, fence leaves, and subtree
// hashes.
type RangeProof struct {
	// N is the total number of leaves in the provider's tree, Root its root
	// when the proof was cut: the answer the recomputed root must equal.
	N    uint64
	Root Hash
	// Start is the index of the first leaf in the supplied run (fences
	// included).
	Start uint64
	// LeftFence and RightFence are the boundary leaves adjacent to the
	// matched rows (absent at the tree edges). Key is the raw index key,
	// RowDigest the row content digest.
	LeftFence  *FenceLeaf
	RightFence *FenceLeaf
	// Hashes are the subtree hashes for everything outside the run.
	Hashes []Hash
}

// FenceLeaf is a boundary leaf disclosed for completeness checking.
type FenceLeaf struct {
	Key       []byte
	RowDigest []byte
}

// Marshal serializes the proof.
func (p *RangeProof) Marshal() []byte {
	size := 8 + HashSize + 8 + 2 + 4 + len(p.Hashes)*HashSize
	if p.LeftFence != nil {
		size += 8 + len(p.LeftFence.Key) + len(p.LeftFence.RowDigest)
	}
	if p.RightFence != nil {
		size += 8 + len(p.RightFence.Key) + len(p.RightFence.RowDigest)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, p.N)
	buf = append(buf, p.Root[:]...)
	buf = binary.BigEndian.AppendUint64(buf, p.Start)
	buf = appendFence(buf, p.LeftFence)
	buf = appendFence(buf, p.RightFence)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Hashes)))
	for _, h := range p.Hashes {
		buf = append(buf, h[:]...)
	}
	return buf
}

func appendFence(buf []byte, f *FenceLeaf) []byte {
	if f == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Key)))
	buf = append(buf, f.Key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.RowDigest)))
	return append(buf, f.RowDigest...)
}

// UnmarshalRangeProof parses a proof blob.
func UnmarshalRangeProof(buf []byte) (*RangeProof, error) {
	p := &RangeProof{}
	if len(buf) < 16+HashSize {
		return nil, ErrBadProof
	}
	p.N = binary.BigEndian.Uint64(buf[0:8])
	copy(p.Root[:], buf[8:])
	p.Start = binary.BigEndian.Uint64(buf[8+HashSize:])
	rest := buf[16+HashSize:]
	var err error
	p.LeftFence, rest, err = readFence(rest)
	if err != nil {
		return nil, err
	}
	p.RightFence, rest, err = readFence(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) < 4 {
		return nil, ErrBadProof
	}
	count := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(len(rest)) != uint64(count)*HashSize {
		return nil, ErrBadProof
	}
	p.Hashes = make([]Hash, count)
	for i := range p.Hashes {
		copy(p.Hashes[i][:], rest[i*HashSize:])
	}
	return p, nil
}

func readFence(buf []byte) (*FenceLeaf, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, ErrBadProof
	}
	present := buf[0]
	buf = buf[1:]
	if present == 0 {
		return nil, buf, nil
	}
	if present != 1 || len(buf) < 4 {
		return nil, nil, ErrBadProof
	}
	kl := binary.BigEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(len(buf)) < uint64(kl)+4 {
		return nil, nil, ErrBadProof
	}
	key := append([]byte(nil), buf[:kl]...)
	buf = buf[kl:]
	dl := binary.BigEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(len(buf)) < uint64(dl) {
		return nil, nil, ErrBadProof
	}
	digest := append([]byte(nil), buf[:dl]...)
	buf = buf[dl:]
	return &FenceLeaf{Key: key, RowDigest: digest}, buf, nil
}

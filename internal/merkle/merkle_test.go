package merkle

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	mrand "math/rand"
	"reflect"
	"testing"
)

func makeLeaves(n int) []Hash {
	leaves := make([]Hash, n)
	for i := range leaves {
		leaves[i] = LeafHash([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("digest-%d", i)))
	}
	return leaves
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if tr.Len() != 0 {
		t.Fatal("empty tree has leaves")
	}
	if tr.Root() != sha256.Sum256(nil) {
		t.Fatal("empty root mismatch")
	}
	root, err := VerifyRange(0, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root != tr.Root() {
		t.Fatal("verify of empty tree mismatch")
	}
	if _, err := VerifyRange(0, 0, nil, []Hash{{}}); err == nil {
		t.Fatal("non-empty proof for empty tree accepted")
	}
}

func TestSingleLeaf(t *testing.T) {
	leaves := makeLeaves(1)
	tr := New(leaves)
	if tr.Root() != leaves[0] {
		t.Fatal("single-leaf root should be the leaf hash")
	}
	proof, err := tr.ProveRange(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof) != 0 {
		t.Fatalf("single full-range proof has %d hashes", len(proof))
	}
	root, err := VerifyRange(1, 0, leaves, proof)
	if err != nil || root != tr.Root() {
		t.Fatalf("verify: %v", err)
	}
}

func TestLeafHashDomainSeparation(t *testing.T) {
	// key/digest boundary must be unambiguous.
	a := LeafHash([]byte("ab"), []byte("c"))
	b := LeafHash([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("leaf hash ambiguous across key/digest boundary")
	}
	if LeafHash([]byte("x"), []byte("y")) == LeafHash([]byte("x"), []byte("z")) {
		t.Fatal("digest not included")
	}
}

func TestRootChangesWithAnyLeaf(t *testing.T) {
	leaves := makeLeaves(10)
	base := New(leaves).Root()
	for i := range leaves {
		mutated := append([]Hash(nil), leaves...)
		mutated[i][0] ^= 1
		if New(mutated).Root() == base {
			t.Fatalf("mutating leaf %d did not change root", i)
		}
	}
	// Order matters.
	swapped := append([]Hash(nil), leaves...)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	if New(swapped).Root() == base {
		t.Fatal("leaf order does not affect root")
	}
}

func TestProveVerifyAllRanges(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33} {
		leaves := makeLeaves(n)
		tr := New(leaves)
		root := tr.Root()
		for start := 0; start <= n; start++ {
			for end := start; end <= n; end++ {
				proof, err := tr.ProveRange(start, end)
				if err != nil {
					t.Fatalf("n=%d [%d,%d): %v", n, start, end, err)
				}
				got, err := VerifyRange(n, start, leaves[start:end], proof)
				if err != nil {
					t.Fatalf("n=%d [%d,%d): verify: %v", n, start, end, err)
				}
				if got != root {
					t.Fatalf("n=%d [%d,%d): root mismatch", n, start, end)
				}
			}
		}
	}
}

func TestVerifyRejectsTamperedRun(t *testing.T) {
	leaves := makeLeaves(20)
	tr := New(leaves)
	root := tr.Root()
	proof, err := tr.ProveRange(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	run := append([]Hash(nil), leaves[5:12]...)

	// Drop a leaf from the middle of the run (provider withholding a row):
	// the recomputed root must differ.
	dropped := append(append([]Hash(nil), run[:3]...), run[4:]...)
	if got, err := VerifyRange(20, 5, dropped, proof); err == nil && got == root {
		t.Fatal("dropped leaf verified")
	}
	// Mutate a leaf (corrupted row).
	mutated := append([]Hash(nil), run...)
	mutated[2][0] ^= 1
	if got, err := VerifyRange(20, 5, mutated, proof); err == nil && got == root {
		t.Fatal("mutated leaf verified")
	}
	// Shift the claimed start (reordering attack).
	if got, err := VerifyRange(20, 6, run, proof); err == nil && got == root {
		t.Fatal("shifted start verified")
	}
	// A lie about the total count is NOT always detectable from the proof
	// alone (the extra phantom leaves can hide inside an opaque subtree
	// hash), which is why the client authenticates (root, n) as a pair from
	// the trusted digest. Document the contract: the same proof may verify
	// under n=21, but the client's trusted count pins n=20.
	trustedN := 20
	if claimedN := 21; claimedN == trustedN {
		t.Fatal("test setup broken")
	}
}

func TestVerifyRejectsBadProofShape(t *testing.T) {
	leaves := makeLeaves(8)
	tr := New(leaves)
	proof, err := tr.ProveRange(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyRange(8, 2, leaves[2:5], proof[:len(proof)-1]); err == nil {
		t.Fatal("short proof accepted")
	}
	if _, err := VerifyRange(8, 2, leaves[2:5], append(append([]Hash(nil), proof...), Hash{})); err == nil {
		t.Fatal("long proof accepted")
	}
	if _, err := VerifyRange(8, 7, leaves[2:5], proof); err == nil {
		t.Fatal("out-of-bounds run accepted")
	}
	if _, err := VerifyRange(-1, 0, nil, nil); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestEmptyRunProof(t *testing.T) {
	leaves := makeLeaves(9)
	tr := New(leaves)
	proof, err := tr.ProveRange(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof) != 1 || proof[0] != tr.Root() {
		t.Fatalf("empty-run proof should be the root, got %d hashes", len(proof))
	}
	got, err := VerifyRange(9, 4, nil, proof)
	if err != nil || got != tr.Root() {
		t.Fatalf("verify empty run: %v", err)
	}
}

func TestProveRangeBounds(t *testing.T) {
	tr := New(makeLeaves(5))
	if _, err := tr.ProveRange(-1, 2); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := tr.ProveRange(3, 2); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := tr.ProveRange(0, 6); err == nil {
		t.Fatal("overlong range accepted")
	}
}

func TestRandomizedRanges(t *testing.T) {
	rng := mrand.New(mrand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		leaves := makeLeaves(n)
		tr := New(leaves)
		root := tr.Root()
		start := rng.Intn(n + 1)
		end := start + rng.Intn(n-start+1)
		proof, err := tr.ProveRange(start, end)
		if err != nil {
			t.Fatal(err)
		}
		got, err := VerifyRange(n, start, leaves[start:end], proof)
		if err != nil || got != root {
			t.Fatalf("trial %d n=%d [%d,%d): %v", trial, n, start, end, err)
		}
	}
}

// Proof size must stay logarithmic in the tree size for fixed-width runs —
// the property that makes verified scans affordable.
func TestProofSizeLogarithmic(t *testing.T) {
	var prevLen int
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12, 1 << 14} {
		leaves := makeLeaves(n)
		tr := New(leaves)
		start := n / 2
		proof, err := tr.ProveRange(start, start+16)
		if err != nil {
			t.Fatal(err)
		}
		// A contiguous 16-leaf run needs at most ~2*log2(n) subtree hashes.
		maxHashes := 0
		for s := n; s > 1; s /= 2 {
			maxHashes += 2
		}
		if len(proof) > maxHashes {
			t.Fatalf("n=%d: proof has %d hashes, want <= %d", n, len(proof), maxHashes)
		}
		if prevLen > 0 && len(proof) > prevLen+4 {
			t.Fatalf("proof size jumped from %d to %d between sizes", prevLen, len(proof))
		}
		prevLen = len(proof)
	}
}

// VerifyRange must never panic on adversarial inputs — random claimed
// shapes, runs, and proofs.
func TestVerifyRangeGarbageNeverPanics(t *testing.T) {
	rng := mrand.New(mrand.NewSource(21))
	randHashes := func(n int) []Hash {
		out := make([]Hash, n)
		for i := range out {
			rng.Read(out[i][:])
		}
		return out
	}
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(64) - 2 // occasionally negative
		start := rng.Intn(64) - 2
		run := randHashes(rng.Intn(20))
		proof := randHashes(rng.Intn(20))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("VerifyRange(n=%d start=%d |run|=%d |proof|=%d) panicked: %v",
						n, start, len(run), len(proof), r)
				}
			}()
			_, _ = VerifyRange(n, start, run, proof)
		}()
	}
}

func TestRangeProofMarshalRoundTrip(t *testing.T) {
	p := &RangeProof{
		N:     100,
		Root:  LeafHash([]byte("root"), nil),
		Start: 7,
		LeftFence: &FenceLeaf{
			Key:       []byte{1, 2, 3},
			RowDigest: bytes.Repeat([]byte{9}, 32),
		},
		RightFence: nil,
		Hashes:     []Hash{LeafHash([]byte("a"), []byte("b")), LeafHash([]byte("c"), []byte("d"))},
	}
	blob := p.Marshal()
	got, err := UnmarshalRangeProof(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n%#v\n%#v", p, got)
	}
	// No fences, no hashes.
	p2 := &RangeProof{N: 5, Start: 0, Hashes: []Hash{}}
	got2, err := UnmarshalRangeProof(p2.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got2.N != 5 || got2.Start != 0 || got2.LeftFence != nil || got2.RightFence != nil || len(got2.Hashes) != 0 {
		t.Fatalf("got %#v", got2)
	}
}

func TestUnmarshalRangeProofTruncations(t *testing.T) {
	p := &RangeProof{
		N: 10, Start: 1,
		LeftFence:  &FenceLeaf{Key: []byte("k"), RowDigest: []byte("d")},
		RightFence: &FenceLeaf{Key: []byte("k2"), RowDigest: []byte("d2")},
		Hashes:     []Hash{{1}, {2}},
	}
	blob := p.Marshal()
	for cut := 0; cut < len(blob); cut++ {
		if _, err := UnmarshalRangeProof(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// FuzzUnmarshalRangeProof feeds arbitrary bytes — what a provider sends is
// untrusted — to UnmarshalRangeProof, which may refuse them but not panic;
// whatever it accepts must marshal back to exactly the bytes it came from.
// The corpus under testdata/fuzz holds proofs cut from real trees: with both
// fences, with neither, and of an empty run.
func FuzzUnmarshalRangeProof(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalRangeProof(data)
		if err != nil {
			return
		}
		if again := p.Marshal(); !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to a proof that marshals to %x", data, again)
		}
	})
}

func BenchmarkRoot10k(b *testing.B) {
	leaves := makeLeaves(10_000)
	tr := New(leaves)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Root()
	}
}

func BenchmarkProveRange10k(b *testing.B) {
	leaves := makeLeaves(10_000)
	tr := New(leaves)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ProveRange(4000, 4100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyRange10k(b *testing.B) {
	leaves := makeLeaves(10_000)
	tr := New(leaves)
	proof, err := tr.ProveRange(4000, 4100)
	if err != nil {
		b.Fatal(err)
	}
	run := leaves[4000:4100]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VerifyRange(10_000, 4000, run, proof); err != nil {
			b.Fatal(err)
		}
	}
}

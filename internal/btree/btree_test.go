package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// key is the 8-byte key of i; most tests store (key(i), i).
func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

// whole is an entry as the oracle orders it: the key, then the 8-byte id.
func whole(k []byte, id uint64) string {
	return string(binary.BigEndian.AppendUint64(slices.Clone(k), id))
}

// entries collects the tree's entries in ascending order.
func entries(tr *Tree) []string {
	var out []string
	var it Iter
	for tr.Seek(&it, nil, 0); it.Next(); {
		out = append(out, whole(it.Key(), it.ID()))
	}
	return out
}

// ids walks from Seek (or SeekAfter) at (lo, loID) while keys are below hi
// (nil: to the end) and returns the ids visited.
func ids(tr *Tree, after bool, lo []byte, loID uint64, hi []byte) []uint64 {
	var it Iter
	if after {
		tr.SeekAfter(&it, lo, loID)
	} else {
		tr.Seek(&it, lo, loID)
	}
	var out []uint64
	for it.Next() && (hi == nil || bytes.Compare(it.Key(), hi) < 0) {
		out = append(out, it.ID())
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := NewWidth(8)
	if tr.Len() != 0 || tr.Width() != 8 {
		t.Fatalf("new tree: Len %d, Width %d", tr.Len(), tr.Width())
	}
	if tr.Has(key(1), 1) {
		t.Fatal("Has on empty tree returned true")
	}
	if tr.Delete(key(1), 1) {
		t.Fatal("Delete on empty tree returned true")
	}
	if got := entries(tr); len(got) != 0 {
		t.Fatal("a walk of an empty tree visited entries")
	}
	if got := ids(tr, false, key(5), 0, nil); len(got) != 0 {
		t.Fatal("a seek into an empty tree visited entries")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The probe adapters: New's first Set fixes the width, Set adds the entry
// its key's last 8 bytes name, Get reports membership, and a value is
// refused because the tree has nowhere to keep it.
func TestSetGetReplace(t *testing.T) {
	tr := New()
	k := func(i int) []byte { return append(make([]byte, 24), key(i)...) }
	if !tr.Set(k(1), nil) {
		t.Fatal("first Set returned false")
	}
	if tr.Width() != 24 || !tr.Has(make([]byte, 24), 1) {
		t.Fatalf("Set made width %d and did not add (0^24, 1)", tr.Width())
	}
	if tr.Set(k(1), nil) || tr.Insert(make([]byte, 24), 1) {
		t.Fatal("adding a present entry returned true")
	}
	if !tr.Set(k(2), nil) {
		t.Fatal("Set of a new entry returned false")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, ok := tr.Get(k(1)); !ok || v != nil {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := tr.Get(k(3)); ok {
		t.Fatal("Get of an absent entry returned ok")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set with a value did not panic")
		}
	}()
	tr.Set(k(3), []byte("b"))
}

func TestSetCopiesInputs(t *testing.T) {
	tr := NewWidth(3)
	k := []byte{1, 2, 3}
	tr.Insert(k, 7)
	k[0] = 99
	if !tr.Has([]byte{1, 2, 3}, 7) || tr.Has(k, 7) {
		t.Fatal("mutation of the caller's buffer leaked into tree")
	}
}

// refused reports whether fn panicked.
func refused(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// A tree takes keys of its own width only: every operation refuses a key of
// any other before it touches the tree, whose entries stay as they were.
func TestVariableLengthKeys(t *testing.T) {
	tr := NewWidth(13)
	for i := 0; i < 200; i++ {
		tr.Insert(append(make([]byte, 5), key(i)...), uint64(i))
	}
	before := entries(tr)
	var it Iter
	for _, w := range []int{0, 1, 12, 14, 21} {
		k := make([]byte, w)
		for name, op := range map[string]func(){
			"Insert":    func() { tr.Insert(k, 1) },
			"Delete":    func() { tr.Delete(k, 1) },
			"Has":       func() { tr.Has(k, 1) },
			"Seek":      func() { tr.Seek(&it, k, 1) },
			"SeekAfter": func() { tr.SeekAfter(&it, k, 1) },
		} {
			if !refused(op) {
				t.Errorf("%s of a %d-byte key into a 13-byte tree was not refused", name, w)
			}
		}
	}
	if !slices.Equal(entries(tr), before) || tr.Len() != 200 {
		t.Fatal("a refused key changed the tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, maxWidth + 1} {
		if !refused(func() { NewWidth(w) }) {
			t.Errorf("NewWidth(%d) was not refused", w)
		}
	}
}

func TestSequentialInsertAscending(t *testing.T) {
	tr := NewWidth(8)
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Insert(key(i), uint64(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !tr.Has(key(i), uint64(i)) || tr.Has(key(i), uint64(i)+1) {
			t.Fatalf("Has(%d) wrong", i)
		}
	}
	if tr.Has(key(n), n) {
		t.Fatalf("Has(%d) = true", n)
	}
}

func TestSequentialInsertDescending(t *testing.T) {
	tr := NewWidth(8)
	const n = 5000
	for i := n - 1; i >= 0; i-- {
		tr.Insert(key(i), uint64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := ids(tr, false, nil, 0, nil)
	if len(got) != n {
		t.Fatalf("visited %d entries", len(got))
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("position %d: id %d", i, id)
		}
	}
}

// The smallest and largest entries are the ends of the ascending walk, and
// equal keys order by id.
func TestMinMax(t *testing.T) {
	tr := NewWidth(8)
	for _, i := range []int{500, 3, 999, 42} {
		tr.Insert(key(i), 9)
		tr.Insert(key(i), 2)
	}
	got := entries(tr)
	if got[0] != whole(key(3), 2) || got[1] != whole(key(3), 9) || got[len(got)-1] != whole(key(999), 9) {
		t.Fatalf("min %x, max %x", got[0], got[len(got)-1])
	}
}

// Seek starts at the first entry at or above its bound and SeekAfter past
// it, whether or not the bound is an entry; the walk ends where the caller
// says.
func TestAscendRangeBounds(t *testing.T) {
	tr := NewWidth(8)
	for i := 0; i < 100; i++ {
		tr.Insert(key(i*2), uint64(i*2)) // even keys 0..198
		tr.Insert(key(i*2), uint64(i*2+1))
	}
	for _, tc := range []struct {
		name   string
		after  bool
		lo     []byte
		loID   uint64
		hi     []byte
		wanted []uint64
	}{
		{"[10, 14)", false, key(10), 0, key(14), []uint64{10, 11, 12, 13}},
		{"from an absent key", false, key(11), 0, key(14), []uint64{12, 13}},
		{"from an entry", false, key(10), 11, key(14), []uint64{11, 12, 13}},
		{"after an entry", true, key(10), 10, key(14), []uint64{11, 12, 13}},
		{"after a key's last entry", true, key(10), 11, key(14), []uint64{12, 13}},
		{"after the largest id", true, key(10), ^uint64(0), key(14), []uint64{12, 13}},
		{"from nil", false, nil, 0, key(3), []uint64{0, 1, 2, 3}},
		{"to the end", false, key(196), 0, nil, []uint64{196, 197, 198, 199}},
		{"empty range", false, key(20), 0, key(20), nil},
		{"past the end", false, key(1000), 0, nil, nil},
		{"after the last entry", true, key(198), 199, nil, nil},
	} {
		if got := ids(tr, tc.after, tc.lo, tc.loID, tc.hi); !slices.Equal(got, tc.wanted) {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.wanted)
		}
	}
}

// A walk stopped early resumes exactly where it stopped when re-seeked after
// its last entry, even across writes to the leaf it stopped in: how the
// store's cursor pages through an index.
func TestAscendEarlyStop(t *testing.T) {
	tr := NewWidth(8)
	for i := 0; i < 100; i++ {
		tr.Insert(key(i/3), uint64(i))
	}
	var it Iter
	var got []uint64
	for tr.Seek(&it, nil, 0); len(got) < 7 && it.Next(); {
		got = append(got, it.ID())
	}
	last, lastID := slices.Clone(it.Key()), it.ID()
	tr.Delete(key(2), 6)
	tr.Insert(key(2), 5)
	tr.Insert(key(2), 70)
	tr.Insert(key(1), 71)
	for tr.SeekAfter(&it, last, lastID); it.Next(); {
		got = append(got, it.ID())
	}
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 70}
	if !slices.Equal(got[:10], want) || len(got) != 101 {
		t.Fatalf("resumed walk: %v…, %d entries; want %v… and 101", got[:10], len(got), want)
	}

	// In a set of ids (zero-width keys) the key to resume after is empty,
	// not nil, so the walk does not restart.
	ids := NewWidth(0)
	for id := uint64(0); id < 100; id++ {
		ids.Insert(nil, id)
	}
	n := 0
	for ids.Seek(&it, nil, 0); it.Next(); ids.SeekAfter(&it, it.Key(), it.ID()) {
		if n++; n > 100 {
			t.Fatal("re-seeking after an empty key restarted the walk")
		}
	}
	if n != 100 {
		t.Fatalf("the resumed walk of 100 ids visited %d", n)
	}
}

func TestDeleteEverythingBothOrders(t *testing.T) {
	const n = 3000
	for _, order := range []string{"ascending", "descending"} {
		tr := NewWidth(8)
		for i := 0; i < n; i++ {
			tr.Insert(key(i), uint64(i))
		}
		for j := 0; j < n; j++ {
			i := j
			if order == "descending" {
				i = n - 1 - j
			}
			if !tr.Delete(key(i), uint64(i)) {
				t.Fatalf("%s: Delete(%d) returned false", order, i)
			}
			if tr.Delete(key(i), uint64(i)) {
				t.Fatalf("%s: double Delete(%d) returned true", order, i)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("%s: Len = %d after deleting all", order, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", order, err)
		}
	}
}

// oracle is the reference the randomized tests compare against: the same
// set as a sorted slice of whole entries.
type oracle []string

func (o *oracle) insert(k []byte, id uint64) bool {
	i, found := slices.BinarySearch(*o, whole(k, id))
	if !found {
		*o = slices.Insert(*o, i, whole(k, id))
	}
	return !found
}

func (o *oracle) delete(k []byte, id uint64) bool {
	i, found := slices.BinarySearch(*o, whole(k, id))
	if found {
		*o = slices.Delete(*o, i, i+1)
	}
	return found
}

func (o oracle) has(k []byte, id uint64) bool {
	_, found := slices.BinarySearch(o, whole(k, id))
	return found
}

// matches checks the tree against the oracle: invariants, Len and the
// entries in ascending order.
func (o oracle) matches(tr *Tree) error {
	if err := tr.CheckInvariants(); err != nil {
		return err
	}
	if tr.Len() != len(o) {
		return fmt.Errorf("Len = %d, oracle %d", tr.Len(), len(o))
	}
	if got := entries(tr); !slices.Equal(got, o) {
		return fmt.Errorf("ascending order departs from the oracle")
	}
	return nil
}

// steps counts the structural steps mutations take, by step and level, while
// the test runs.
func steps(t *testing.T) map[string]int {
	seen := map[string]int{}
	tally = func(step string, leaf bool) {
		at := " at an internal node"
		if leaf {
			at = " at a leaf"
		}
		seen[step+at]++
	}
	t.Cleanup(func() { tally = nil })
	return seen
}

// Randomized differential test against a sorted-slice oracle at key widths
// 0 (a set of ids) to 40, the store's 13 and 14 among them. Keys come from a
// small alphabet, so nodes share prefixes, and many share a key, so entries
// differ by id alone; ids range over every byte length, so nodes share
// their high id bytes and lose them. Phases alternate between growing the
// tree to three levels and shrinking it back to a root leaf. Over the
// widths, every step the encoding has must be taken: re-encoding a leaf on
// a prefix break and on an id-byte break, and split, borrow from either
// side and merge at leaves and at internal nodes.
func TestRandomizedAgainstOracle(t *testing.T) {
	seen := steps(t)
	widths := []int{0, 1, 13, 14, 21, 22, 32, 40}
	ran := 0
	for _, width := range widths {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			ran++
			rng := mrand.New(mrand.NewSource(int64(42 + width)))
			keys := make([][]byte, 3000)
			for i := range keys {
				keys[i] = make([]byte, width)
				for j := range keys[i] {
					keys[i][j] = byte('a' + rng.Intn(4))
				}
			}
			type entry struct {
				k  []byte
				id uint64
			}
			universe := make([]entry, 8000)
			for i := range universe {
				id := uint64(rng.Intn(1 << 12))
				if rng.Intn(4) == 0 {
					id = rng.Uint64() >> (8 * rng.Intn(8))
				}
				universe[i] = entry{keys[rng.Intn(len(keys))], id}
			}
			tr, want := NewWidth(width), oracle(nil)
			const steps, phase = 80_000, 20_000
			for step := 0; step < steps; step++ {
				e := universe[rng.Intn(len(universe))]
				insertShare := 65 // growing: settles near 72 % of the universe
				if step/phase%2 == 1 {
					insertShare = 15 // shrinking: settles near 17 %
				}
				switch r := rng.Intn(100); {
				case r < insertShare:
					if got, exp := tr.Insert(e.k, e.id), want.insert(e.k, e.id); got != exp {
						t.Fatalf("step %d: Insert(%x, %d) = %v, oracle %v", step, e.k, e.id, got, exp)
					}
				case r < 90:
					if got, exp := tr.Delete(e.k, e.id), want.delete(e.k, e.id); got != exp {
						t.Fatalf("step %d: Delete(%x, %d) = %v, oracle %v", step, e.k, e.id, got, exp)
					}
				default:
					if got, exp := tr.Has(e.k, e.id), want.has(e.k, e.id); got != exp {
						t.Fatalf("step %d: Has(%x, %d) = %v, oracle %v", step, e.k, e.id, got, exp)
					}
				}
				if step%1000 == 0 || step == steps-1 {
					if err := want.matches(tr); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
		})
	}
	if ran < len(widths) {
		return // a filtered run need not reach every step
	}
	required := []string{"prefix break at a leaf", "id break at a leaf"}
	for _, step := range []string{"split", "borrow left", "borrow right", "merge"} {
		required = append(required, step+" at a leaf", step+" at an internal node")
	}
	for _, name := range required {
		if seen[name] == 0 {
			t.Errorf("never took %q", name)
		}
	}
	t.Logf("steps taken: %v", seen)
}

// An insert allocates only when a node's slab outgrows its capacity, a
// node splits or an insert re-encodes a node; never per entry. The keys are
// 13 bytes, as the store's INT shares are.
func TestInsertAllocs(t *testing.T) {
	const n, width = 100_000, 13
	type entry struct {
		k  []byte
		id uint64
	}
	slab := make([]byte, n*width)
	es := make([]entry, n)
	for i := range es {
		es[i] = entry{slab[i*width : (i+1)*width], uint64(i)}
		binary.BigEndian.PutUint64(es[i].k[width-8:], uint64(i)*2654435761)
	}
	for _, order := range []string{"sequential", "random"} {
		if order == "random" {
			mrand.New(mrand.NewSource(3)).Shuffle(n, func(i, j int) { es[i], es[j] = es[j], es[i] })
		}
		perInsert := testing.AllocsPerRun(1, func() {
			tr := NewWidth(width)
			for _, e := range es {
				tr.Insert(e.k, e.id)
			}
		}) / n
		t.Logf("%s: %.3f allocations per Insert", order, perInsert)
		if perInsert > 0.3 {
			t.Errorf("%s: %.2f allocations per Insert, want ≤ 0.3", order, perInsert)
		}
	}
}

// TestBuild: a tree built from sorted entries holds what inserting them
// one by one leaves, at sizes around a leaf's and an internal node's
// capacity and at key widths 0, 1 and 13, and stays a valid tree under the
// inserts and deletes that follow. Keys come from a small alphabet, so many
// entries share a key and differ by id alone.
func TestBuild(t *testing.T) {
	for _, width := range []int{0, 1, 13} {
		for _, n := range []int{0, 1, 62, 63, 64, 126, 127, 4033, 100_000} {
			rng := mrand.New(mrand.NewSource(int64(n*41 + width)))
			entry := func() ([]byte, uint64) {
				k := make([]byte, width)
				for j := range k {
					k[j] = byte('a' + rng.Intn(3))
				}
				return k, uint64(rng.Intn(4*n + 64))
			}
			var want oracle
			for len(want) < n {
				for len(want) < n {
					want = append(want, whole(entry()))
				}
				slices.Sort(want)
				want = slices.Compact(want)
			}
			ref := NewWidth(width)
			for _, i := range rng.Perm(n) {
				ref.Insert(splitID([]byte(want[i])))
			}
			full := []byte(strings.Join(want, ""))
			tr := Build(width, full)
			if err := want.matches(tr); err != nil {
				t.Fatalf("width %d, n %d: built tree: %v", width, n, err)
			}
			if got, exp := entries(tr), entries(ref); !slices.Equal(got, exp) {
				t.Fatalf("width %d, n %d: the built tree iterates unlike the inserted one", width, n)
			}
			steps := 2000
			if n > 4033 {
				steps = 500 // splits, as at every size; the small trees take the merges
			}
			for step := 0; step < steps; step++ {
				k, id := entry()
				if rng.Intn(2) == 0 {
					if tr.Insert(k, id) != want.insert(k, id) {
						t.Fatalf("width %d, n %d, step %d: Insert(%x, %d) disagrees with the oracle", width, n, step, k, id)
					}
				} else if len(want) > 0 {
					i := rng.Intn(len(want))
					k, id := splitID([]byte(want[i]))
					if !tr.Delete(k, id) || !want.delete(k, id) {
						t.Fatalf("width %d, n %d, step %d: Delete(%x, %d) missed a present entry", width, n, step, k, id)
					}
				}
				if step%500 == 0 {
					if err := want.matches(tr); err != nil {
						t.Fatalf("width %d, n %d, step %d: %v", width, n, step, err)
					}
				}
			}
			if err := want.matches(tr); err != nil {
				t.Fatalf("width %d, n %d, after the mutations: %v", width, n, err)
			}
		}
	}
}

// TestLoader: a Loader fed entries in any order builds the tree that holds
// them, at widths on either side of the 16 bytes it sorts as two words and
// with keys that often agree on those 16 bytes and differ only past them.
func TestLoader(t *testing.T) {
	for _, width := range []int{0, 1, 13, 16, 17, 24, 40} {
		rng := mrand.New(mrand.NewSource(int64(width)))
		var want oracle
		l := NewLoader(width, 0)
		for i := 0; i < 5000; i++ {
			k := make([]byte, width)
			for j := range k {
				if j < 14 || rng.Intn(2) == 0 {
					k[j] = byte('a' + rng.Intn(2))
				}
			}
			id := uint64(rng.Intn(1 << 20))
			if want.insert(k, id) {
				l.Add(k, id)
			}
		}
		if err := want.matches(l.Tree()); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
	}
	if !refused(func() { NewLoader(13, 0).Add(make([]byte, 12), 0) }) {
		t.Error("a Loader took a key of another width")
	}
}

// TestBuildRefuses: Build panics on entries that are not whole or not
// strictly ascending rather than build a tree that misorders them.
func TestBuildRefuses(t *testing.T) {
	a, b := whole(key(1), 1), whole(key(2), 2)
	for name, full := range map[string]string{
		"a torn entry": a + b[:5],
		"descending":   b + a,
		"a duplicate":  a + a,
	} {
		if !refused(func() { Build(8, []byte(full)) }) {
			t.Errorf("%s was built", name)
		}
	}
}

// FuzzTree reads its input as a key width and (op, key, id) records and
// checks the tree against the oracle: never a panic but a refused key of
// the wrong width, every result and Len agree after each record, and
// invariants and ascending order after each run and at the end. The first
// byte picks the width (0–40). A record is an op byte, a length byte, that
// many key bytes (at most 40) and as many id bytes as the op byte says
// (0–8, big-endian): op byte b is op b%6 with b/6%9 id bytes. Ops 0–2
// insert, delete and look up the entry; ops 3 and 4 insert or delete a run
// of 300 entries whose keys differ from the record's in the last byte and
// whose ids differ from its in one byte, so a short input still builds and
// dismantles a tree three levels deep. Runs past the 16th are skipped. Op 5
// replaces the tree with one Build makes from the oracle's sorted entries,
// which the records after it go on mutating. A key whose length is not the
// width must be refused, by a panic, and leave the tree as it was.
func FuzzTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { treeOps(t, data) })
}

// treeOps runs FuzzTree's checks on data and returns how many levels the
// tree had at its deepest and the tree it ended with (nil for empty data).
func treeOps(t *testing.T, data []byte) (deepest int, tr *Tree) {
	if len(data) == 0 {
		return 0, nil
	}
	w := int(data[0]) % 41
	data = data[1:]
	tr, want, runs := NewWidth(w), oracle(nil), 0
	for len(data) >= 2 {
		op, idLen, n := data[0]%6, int(data[0]/6)%9, min(int(data[1])%41, len(data)-2)
		k := data[2 : 2+n]
		data = data[2+n:]
		var id uint64
		for _, b := range data[:min(idLen, len(data))] {
			id = id<<8 | uint64(b)
		}
		data = data[min(idLen, len(data)):]
		if len(k) != w {
			if !refused(func() { tr.Insert(k, id) }) || !refused(func() { tr.Delete(k, id) }) || !refused(func() { tr.Has(k, id) }) {
				t.Fatalf("a %d-byte key in a tree of width %d was not refused", len(k), w)
			}
			continue
		}
		switch op {
		case 0:
			if tr.Insert(k, id) != want.insert(k, id) {
				t.Fatalf("Insert(%x, %d) disagrees with the oracle", k, id)
			}
		case 1:
			if tr.Delete(k, id) != want.delete(k, id) {
				t.Fatalf("Delete(%x, %d) disagrees with the oracle", k, id)
			}
		case 2:
			if tr.Has(k, id) != want.has(k, id) {
				t.Fatalf("Has(%x, %d) disagrees with the oracle", k, id)
			}
		case 5:
			tr = Build(w, []byte(strings.Join(want, "")))
			if err := want.matches(tr); err != nil {
				t.Fatalf("built tree: %v", err)
			}
		default:
			if runs++; runs > 16 {
				continue // enough for three levels; more only slows the fuzzer
			}
			run := slices.Clone(k)
			for j := 0; j < 300; j++ {
				if w > 0 {
					run[w-1] = byte(j * 7919)
				}
				rid := id ^ uint64(j%5)<<(8*(j%8))
				if op == 3 && tr.Insert(run, rid) != want.insert(run, rid) ||
					op == 4 && tr.Delete(run, rid) != want.delete(run, rid) {
					t.Fatalf("op %d on (%x, %d) disagrees with the oracle", op, run, rid)
				}
			}
			if err := want.matches(tr); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Len() != len(want) {
			t.Fatalf("Len = %d, oracle %d", tr.Len(), len(want))
		}
		deepest = max(deepest, levels(tr))
	}
	if err := want.matches(tr); err != nil {
		t.Fatal(err)
	}
	return deepest, tr
}

// levels returns how many levels tr has: 1 for a root leaf.
func levels(tr *Tree) int {
	n := 1
	for nd := tr.root; nd.children != nil; nd = nd.children[0] {
		n++
	}
	return n
}

// TestFuzzTreeSeedsDoWhatTheySay: the checked-in FuzzTree inputs still
// reach the shapes they were written for. bulk-grow-shrink's insert runs
// grow the tree to three levels before its delete runs; rebuild rebuilds
// a tree of two levels and mutates it.
func TestFuzzTreeSeedsDoWhatTheySay(t *testing.T) {
	seed := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzTree", name))
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return []byte(s)
	}
	if deepest, _ := treeOps(t, seed("bulk-grow-shrink")); deepest < 3 {
		t.Errorf("bulk-grow-shrink reached %d levels, want 3", deepest)
	}
	if deepest, tr := treeOps(t, seed("rebuild")); deepest < 2 || tr.Len() == 0 {
		t.Errorf("rebuild reached %d levels and ended with %d entries, want 2 and some", deepest, tr.Len())
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	tr := NewWidth(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(1 << 20)
		tr.Insert(key(k), uint64(k))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := NewWidth(8)
	for i := 0; i < 100_000; i++ {
		tr.Insert(key(i), uint64(i))
	}
	rng := mrand.New(mrand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(100_000)
		tr.Has(key(k), uint64(k))
	}
}

func BenchmarkRangeScan100(b *testing.B) {
	tr := NewWidth(8)
	for i := 0; i < 100_000; i++ {
		tr.Insert(key(i), uint64(i))
	}
	var it Iter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i * 97) % 99_900
		count := 0
		hi := key(start + 100)
		for tr.Seek(&it, key(start), 0); it.Next() && bytes.Compare(it.Key(), hi) < 0; {
			count++
		}
		if count != 100 {
			b.Fatalf("scan returned %d", count)
		}
	}
}

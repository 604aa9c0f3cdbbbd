package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"slices"
	"sort"
	"testing"
)

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

// keys collects the tree's keys in ascending order.
func keys(tr *Tree) []string {
	var out []string
	tr.Ascend(func(k []byte) bool {
		out = append(out, string(k))
		return true
	})
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if tr.Has(key(1)) {
		t.Fatal("Has on empty tree returned true")
	}
	if tr.Delete(key(1)) {
		t.Fatal("Delete on empty tree returned true")
	}
	if got := keys(tr); len(got) != 0 {
		t.Fatal("Ascend on empty tree visited keys")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The probe adapters: Set adds a key with no value, Get reports membership,
// and a value is refused because the tree has nowhere to keep it.
func TestSetGetReplace(t *testing.T) {
	tr := New()
	if !tr.Insert(key(1)) {
		t.Fatal("first Insert returned false")
	}
	if tr.Insert(key(1)) {
		t.Fatal("repeated Insert returned true")
	}
	if tr.Set(key(1), nil) {
		t.Fatal("Set of a present key returned true")
	}
	if !tr.Set(key(2), nil) {
		t.Fatal("Set of a new key returned false")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, ok := tr.Get(key(1)); !ok || v != nil {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := tr.Get(key(3)); ok {
		t.Fatal("Get of an absent key returned ok")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set with a value did not panic")
		}
	}()
	tr.Set(key(3), []byte("b"))
}

func TestSetCopiesInputs(t *testing.T) {
	tr := New()
	k := []byte{1, 2, 3}
	tr.Insert(k)
	k[0] = 99
	if !tr.Has([]byte{1, 2, 3}) || tr.Has(k) {
		t.Fatal("mutation of the caller's buffer leaked into tree")
	}
}

func TestSequentialInsertAscending(t *testing.T) {
	tr := New()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Insert(key(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !tr.Has(key(i)) {
			t.Fatalf("Has(%d) = false", i)
		}
	}
	if tr.Has(key(n)) {
		t.Fatalf("Has(%d) = true", n)
	}
}

func TestSequentialInsertDescending(t *testing.T) {
	tr := New()
	const n = 5000
	for i := n - 1; i >= 0; i-- {
		tr.Insert(key(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	i := 0
	tr.Ascend(func(k []byte) bool {
		if !bytes.Equal(k, key(i)) {
			t.Fatalf("position %d: key %x", i, k)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("visited %d keys", i)
	}
}

// The smallest and largest keys are the ends of the ascending walk.
func TestMinMax(t *testing.T) {
	tr := New()
	for _, i := range []int{500, 3, 999, 42} {
		tr.Insert(key(i))
	}
	got := keys(tr)
	if got[0] != string(key(3)) || got[len(got)-1] != string(key(999)) {
		t.Fatalf("min %x, max %x", got[0], got[len(got)-1])
	}
}

func TestAscendRangeBounds(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(key(i * 2)) // even keys 0..198
	}
	collect := func(lo, hi []byte) []int {
		var out []int
		tr.AscendRange(lo, hi, func(k []byte) bool {
			out = append(out, int(binary.BigEndian.Uint64(k)))
			return true
		})
		return out
	}
	// [10, 20) -> 10..18 even
	got := collect(key(10), key(20))
	want := []int{10, 12, 14, 16, 18}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range [10,20) = %v", got)
	}
	// lo not present: [11, 20) -> 12..18
	got = collect(key(11), key(20))
	want = []int{12, 14, 16, 18}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range [11,20) = %v", got)
	}
	// nil lo
	got = collect(nil, key(5))
	want = []int{0, 2, 4}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range [nil,5) = %v", got)
	}
	// nil hi
	got = collect(key(194), nil)
	want = []int{194, 196, 198}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range [194,nil) = %v", got)
	}
	// empty range
	if got := collect(key(20), key(20)); len(got) != 0 {
		t.Fatalf("empty range returned %v", got)
	}
	// beyond max
	if got := collect(key(1000), nil); len(got) != 0 {
		t.Fatalf("past-end range returned %v", got)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(key(i))
	}
	count := 0
	tr.Ascend(func(k []byte) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("visited %d keys, want 7", count)
	}
}

func TestDeleteEverythingBothOrders(t *testing.T) {
	const n = 3000
	for _, order := range []string{"ascending", "descending"} {
		tr := New()
		for i := 0; i < n; i++ {
			tr.Insert(key(i))
		}
		for j := 0; j < n; j++ {
			i := j
			if order == "descending" {
				i = n - 1 - j
			}
			if !tr.Delete(key(i)) {
				t.Fatalf("%s: Delete(%d) returned false", order, i)
			}
			if tr.Delete(key(i)) {
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
// set as a sorted slice.
type oracle []string

func (o *oracle) insert(k []byte) bool {
	i, found := slices.BinarySearch(*o, string(k))
	if !found {
		*o = slices.Insert(*o, i, string(k))
	}
	return !found
}

func (o *oracle) delete(k []byte) bool {
	i, found := slices.BinarySearch(*o, string(k))
	if found {
		*o = slices.Delete(*o, i, i+1)
	}
	return found
}

func (o oracle) has(k []byte) bool {
	_, found := slices.BinarySearch(o, string(k))
	return found
}

// matches checks the tree against the oracle: invariants, Len and the keys
// in ascending order.
func (o oracle) matches(tr *Tree) error {
	if err := tr.CheckInvariants(); err != nil {
		return err
	}
	if tr.Len() != len(o) {
		return fmt.Errorf("Len = %d, oracle %d", tr.Len(), len(o))
	}
	i := 0
	tr.Ascend(func(k []byte) bool {
		if i == len(o) || string(k) != o[i] {
			return false
		}
		i++
		return true
	})
	if i != len(o) {
		return fmt.Errorf("ascending order departs from the oracle at position %d", i)
	}
	return nil
}

// Randomized differential test against a sorted-slice oracle, at the key
// widths the store indexes (21 and 22 B: a 13/14-byte share and a row id),
// the benchmark probe's 32 and the variable widths of plaintext columns.
// Phases alternate between growing the tree to three levels and shrinking
// it back to a root leaf, which drives every borrow and merge arm of
// rebalance at both leaf and internal level.
func TestRandomizedAgainstOracle(t *testing.T) {
	for _, width := range []int{21, 22, 32, 0} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(int64(42 + width)))
			universe := make([][]byte, 8000)
			for i := range universe {
				w := width
				if w == 0 {
					w = 1 + rng.Intn(40)
				}
				k := make([]byte, w)
				for j := range k {
					k[j] = byte('a' + rng.Intn(4)) // a small alphabet makes shared prefixes
				}
				universe[i] = k
			}
			tr, want := New(), oracle(nil)
			const steps, phase = 80_000, 20_000
			for step := 0; step < steps; step++ {
				k := universe[rng.Intn(len(universe))]
				insertShare := 65 // growing: settles near 72 % of the universe
				if step/phase%2 == 1 {
					insertShare = 15 // shrinking: settles near 17 %
				}
				switch r := rng.Intn(100); {
				case r < insertShare:
					if got, exp := tr.Insert(k), want.insert(k); got != exp {
						t.Fatalf("step %d: Insert(%x) = %v, oracle %v", step, k, got, exp)
					}
				case r < 90:
					if got, exp := tr.Delete(k), want.delete(k); got != exp {
						t.Fatalf("step %d: Delete(%x) = %v, oracle %v", step, k, got, exp)
					}
				default:
					if got, exp := tr.Has(k), want.has(k); got != exp {
						t.Fatalf("step %d: Has(%x) = %v, oracle %v", step, k, got, exp)
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
}

func TestVariableLengthKeys(t *testing.T) {
	tr := New()
	ks := []string{"", "a", "aa", "ab", "abc", "b", "ba", "z", "zz"}
	perm := mrand.New(mrand.NewSource(1)).Perm(len(ks))
	for _, i := range perm {
		tr.Insert([]byte(ks[i]))
	}
	want := append([]string(nil), ks...)
	sort.Strings(want)
	if got := keys(tr); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// An insert allocates only when a node's slab or offsets outgrow their
// capacity or the node splits, never per key.
func TestInsertAllocs(t *testing.T) {
	const n, width = 100_000, 21
	slab := make([]byte, n*width)
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = slab[i*width : (i+1)*width]
		binary.BigEndian.PutUint64(ks[i][width-8:], uint64(i))
	}
	for _, order := range []string{"sequential", "random"} {
		if order == "random" {
			mrand.New(mrand.NewSource(3)).Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		}
		perInsert := testing.AllocsPerRun(1, func() {
			tr := New()
			for _, k := range ks {
				tr.Insert(k)
			}
		}) / n
		t.Logf("%s: %.3f allocations per Insert", order, perInsert)
		if perInsert > 0.5 {
			t.Errorf("%s: %.2f allocations per Insert, want ≤ 0.5", order, perInsert)
		}
	}
}

// FuzzTree reads its input as (op, key) records and checks the tree against
// the oracle: never a panic, every result and Len agree after each record,
// and invariants and ascending order after each run and at the end. A record is an op byte, a length byte and that
// many key bytes (at most 40); ops 3 and 4 insert or delete a run of 300
// keys sharing the record's key as a prefix, so a short input still builds
// and dismantles a tree three levels deep. Runs past the 16th are skipped.
func FuzzTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, want, runs := New(), oracle(nil), 0
		for len(data) >= 2 {
			op, n := data[0]%5, min(int(data[1])%41, len(data)-2)
			k := data[2 : 2+n]
			data = data[2+n:]
			switch op {
			case 0:
				if tr.Insert(k) != want.insert(k) {
					t.Fatalf("Insert(%x) disagrees with the oracle", k)
				}
			case 1:
				if tr.Delete(k) != want.delete(k) {
					t.Fatalf("Delete(%x) disagrees with the oracle", k)
				}
			case 2:
				if tr.Has(k) != want.has(k) {
					t.Fatalf("Has(%x) disagrees with the oracle", k)
				}
			default:
				if runs++; runs > 16 {
					continue // enough for three levels; more only slows the fuzzer
				}
				run := append(append([]byte(nil), k...), 0, 0)
				for j := 0; j < 300; j++ {
					binary.BigEndian.PutUint16(run[len(k):], uint16(j*7919))
					if op == 3 && tr.Insert(run) != want.insert(run) ||
						op == 4 && tr.Delete(run) != want.delete(run) {
						t.Fatalf("op %d on %x disagrees with the oracle", op, run)
					}
				}
				if err := want.matches(tr); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Len() != len(want) {
				t.Fatalf("Len = %d, oracle %d", tr.Len(), len(want))
			}
		}
		if err := want.matches(tr); err != nil {
			t.Fatal(err)
		}
	})
}

func BenchmarkInsertRandom(b *testing.B) {
	rng := mrand.New(mrand.NewSource(1))
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(key(rng.Intn(1 << 20)))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	for i := 0; i < 100_000; i++ {
		tr.Insert(key(i))
	}
	rng := mrand.New(mrand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Has(key(rng.Intn(100_000)))
	}
}

func BenchmarkRangeScan100(b *testing.B) {
	tr := New()
	for i := 0; i < 100_000; i++ {
		tr.Insert(key(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i * 97) % 99_900
		count := 0
		tr.AscendRange(key(start), key(start+100), func(k []byte) bool {
			count++
			return true
		})
		if count != 100 {
			b.Fatalf("scan returned %d", count)
		}
	}
}

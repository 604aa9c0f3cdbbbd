package btree

import (
	"testing"
	"time"

	"sssdb/internal/opp"
)

// fixtureShapes returns, for each of the benchmark fixture's four indexed
// columns, the keys one provider's index of it holds after a load of n rows
// (row i's key at [i*width, (i+1)*width)) and their width. Each key is a
// 13-byte order-preserving share (the client's INT scheme: degree 3, 40
// bits, provider 0) of the column's value. The shapes are id (ascending,
// every key new and largest), dept (16 values, so long runs of one key),
// salary (uniform in [0, 100 000)) and name (uniform over the whole domain;
// the fixture's VARCHAR(8) shares are 14 bytes wide, the spread is what
// matters here).
func fixtureShapes(b *testing.B, n int) (names []string, keys [][]byte, width int) {
	const seed = 7
	sch, err := opp.NewScheme(opp.Params{Degree: 3, DomainBits: 40, N: 3}, []byte("tree insert"))
	if err != nil {
		b.Fatal(err)
	}
	const bias = 1 << 39 // a signed INT's encoding, as numenc.SignedCodec does
	shapes := []struct {
		name  string
		value func(i int, h uint64) uint64
	}{
		{"id", func(i int, _ uint64) uint64 { return bias + uint64(i) }},
		{"dept", func(_ int, h uint64) uint64 { return bias + (h>>32)%16 }},
		{"salary", func(_ int, h uint64) uint64 { return bias + h%100_000 }},
		{"name", func(_ int, h uint64) uint64 { return mix(h) & sch.DomainMax() }},
	}
	width = sch.Width()
	for _, shape := range shapes {
		ks := make([]byte, 0, n*width)
		for i := 0; i < n; i++ {
			sh, err := sch.ShareAt(shape.value(i, mix(seed<<32^uint64(i))), 0)
			if err != nil {
				b.Fatal(err)
			}
			ks = sch.AppendShare(ks, sh)
		}
		names, keys = append(names, shape.name), append(keys, ks)
	}
	return names, keys, width
}

// BenchmarkTreeInsert builds, per iteration, one index of 100 k entries by
// inserting them one at a time in row-id order: what a table's writes cost
// its indexes once they are built (see BenchmarkTreeBuild for the build).
// It reports ns/insert; B/op and allocs/op are per 100 k-entry index.
func BenchmarkTreeInsert(b *testing.B) {
	const n = 100_000
	names, keys, width := fixtureShapes(b, n)
	for s, name := range names {
		keys := keys[s]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for it := 0; it < b.N; it++ {
				tr := NewWidth(width)
				for i := 0; i < n; i++ {
					tr.Insert(keys[i*width:(i+1)*width], uint64(i))
				}
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*n), "ns/insert")
		})
	}
}

// BenchmarkTreeBuild builds the same indexes as BenchmarkTreeInsert the way
// a provider's store builds a table's indexes at the first read that needs
// them: a Loader takes the entries in row-id order, sorts them and builds
// the tree bottom-up. It reports ns/entry, the sort included; B/op and
// allocs/op are per 100 k-entry index.
func BenchmarkTreeBuild(b *testing.B) {
	const n = 100_000
	names, keys, width := fixtureShapes(b, n)
	for s, name := range names {
		keys := keys[s]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for it := 0; it < b.N; it++ {
				l := NewLoader(width, n)
				for i := 0; i < n; i++ {
					l.Add(keys[i*width:(i+1)*width], uint64(i))
				}
				if l.Tree().Len() != n {
					b.Fatal("the built tree lost entries")
				}
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*n), "ns/entry")
		})
	}
}

// mix is the splitmix64 finalizer, the fixture's row-content generator.
func mix(u uint64) uint64 {
	u += 0x9e3779b97f4a7c15
	u = (u ^ (u >> 30)) * 0xbf58476d1ce4e5b9
	u = (u ^ (u >> 27)) * 0x94d049bb133111eb
	return u ^ (u >> 31)
}

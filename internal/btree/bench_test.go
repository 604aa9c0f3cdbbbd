package btree

import (
	"testing"
	"time"

	"sssdb/internal/opp"
)

// BenchmarkTreeInsert builds, per iteration, one index of 100 k entries the
// way a provider's store does during the benchmark fixture's bulk load: row
// ids ascend, and each key is a 13-byte order-preserving share (the
// client's INT scheme: degree 3, 40 bits, provider 0) of the column's
// value. The four shapes are the fixture's four indexed columns: id
// (ascending, every key new and largest), dept (16 values, so long runs of
// one key), salary (uniform in [0, 100 000)) and name (uniform over the
// whole domain; the fixture's VARCHAR(8) shares are 14 bytes wide, the
// spread is what matters here). It reports ns/insert; B/op and allocs/op
// are per 100 k-entry index.
func BenchmarkTreeInsert(b *testing.B) {
	const n, seed = 100_000, 7
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
	for _, shape := range shapes {
		width := sch.Width()
		keys := make([]byte, 0, n*width)
		for i := 0; i < n; i++ {
			sh, err := sch.ShareAt(shape.value(i, mix(seed<<32^uint64(i))), 0)
			if err != nil {
				b.Fatal(err)
			}
			keys = sch.AppendShare(keys, sh)
		}
		b.Run(shape.name, func(b *testing.B) {
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

// mix is the splitmix64 finalizer, the fixture's row-content generator.
func mix(u uint64) uint64 {
	u += 0x9e3779b97f4a7c15
	u = (u ^ (u >> 30)) * 0xbf58476d1ce4e5b9
	u = (u ^ (u >> 27)) * 0x94d049bb133111eb
	return u ^ (u >> 31)
}

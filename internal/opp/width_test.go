package opp

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// narrow is the serialized form of sh under s.
func narrow(s *Scheme, sh Share) []byte { return s.AppendShare(nil, sh) }

// The width is tight: for every parameter grid point NewScheme accepts,
// Width() bytes hold MaxShare — the exclusive bound of every share — and not
// one byte fewer would.
func TestWidthIsTight(t *testing.T) {
	accepted := 0
	for degree := 1; degree <= 8; degree++ {
		for domain := uint(1); domain <= 61; domain++ {
			for _, slot := range []uint{8, 16, 32, 48, 64} {
				s, err := NewScheme(Params{Degree: degree, DomainBits: domain, SlotBits: slot, N: 1}, []byte("grid"))
				if err != nil {
					continue
				}
				accepted++
				b := narrow(s, s.MaxShare())
				if len(b) != s.Width() || s.Width() < 1 || s.Width() > shareSize {
					t.Fatalf("%+v: MaxShare serialized to %d bytes, Width %d", s.Params(), len(b), s.Width())
				}
				if b[0] == 0 {
					t.Errorf("%+v: width %d is not tight, top byte of MaxShare is zero", s.Params(), s.Width())
				}
				if back, err := s.ParseShare(b); err != nil || back != s.MaxShare() {
					t.Errorf("%+v: %d bytes do not hold MaxShare (%v)", s.Params(), s.Width(), err)
				}
				if slot == 32 && s.Width() > 22 {
					t.Errorf("%+v: width %d with the default slot, want <= 22", s.Params(), s.Width())
				}
			}
		}
	}
	if accepted < 1000 {
		t.Fatalf("grid reached only %d schemes", accepted)
	}
	// The widths every default deployment stores: INT/DECIMAL (IntBits 40)
	// and VARCHAR(8) over the 27-letter alphabet (39 bits).
	for bits, want := range map[uint]int{40: 13, 39: 13, 48: 14} {
		s, err := NewScheme(Params{Degree: 3, DomainBits: bits, N: 3}, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if s.Width() != want {
			t.Errorf("degree 3, %d domain bits: width %d, want %d", bits, s.Width(), want)
		}
	}
}

// Serialization is order-safe and lossless: bytes.Compare on narrow forms is
// Share.Compare on the 192-bit values (what lets a provider B+-tree index
// raw bytes), parse inverts append, and parse takes no other length.
func TestNarrowFormOrderAndRoundTrip(t *testing.T) {
	for _, p := range []Params{
		{Degree: 3, DomainBits: 40, N: 3},
		{Degree: 3, DomainBits: 48, N: 3},
		{Degree: 1, DomainBits: 61, N: 3},
		{Degree: 8, DomainBits: 61, N: 3},
	} {
		s, err := NewScheme(p, []byte("order"))
		if err != nil {
			t.Fatal(err)
		}
		rng := mrand.New(mrand.NewSource(int64(p.DomainBits)))
		shares := []Share{s.MaxShare()}
		for _, v := range []uint64{0, s.DomainMax()} {
			sh, err := s.ShareAt(v, 0)
			if err != nil {
				t.Fatal(err)
			}
			shares = append(shares, sh)
		}
		for i := 0; i < 300; i++ {
			sh, err := s.ShareAt(rng.Uint64()&s.DomainMax(), rng.Intn(s.N()))
			if err != nil {
				t.Fatal(err)
			}
			shares = append(shares, sh)
		}
		for _, a := range shares {
			na := narrow(s, a)
			if back, err := s.ParseShare(na); err != nil || back != a {
				t.Fatalf("%+v: parse(append(%x)) = %x, %v", p, a, back, err)
			}
			for _, b := range shares {
				if got, want := bytes.Compare(na, narrow(s, b)), a.Compare(b); got != want {
					t.Fatalf("%+v: narrow order %d, share order %d for %x vs %x", p, got, want, a, b)
				}
			}
		}
		for n := 0; n <= shareSize+8; n++ {
			if _, err := s.ParseShare(make([]byte, n)); (err == nil) != (n == s.Width()) {
				t.Errorf("%+v (width %d): ParseShare of %d bytes: %v", p, s.Width(), n, err)
			}
		}
	}
}

// No new leak: the bytes serialization drops are zero for every value at
// every provider under every key, so the narrow column is a function of the
// 24-byte column the provider held before — it learns nothing it could not
// already compute.
func TestDroppedBytesAreZero(t *testing.T) {
	rng := mrand.New(mrand.NewSource(17))
	for _, bits := range []uint{40, 48} { // the INT and VARCHAR(8) domains
		for _, key := range []string{"key one", "key two", "key three"} {
			s, err := NewScheme(Params{Degree: 3, DomainBits: bits, N: 3}, []byte(key))
			if err != nil {
				t.Fatal(err)
			}
			dropped := shareSize - s.Width()
			out := make([]Share, s.N())
			for i := 0; i < 10000; i++ {
				v := rng.Uint64() & s.DomainMax()
				if i == 0 {
					v = s.DomainMax()
				}
				if err := s.SplitInto(out, v); err != nil {
					t.Fatal(err)
				}
				for p, sh := range out {
					if !bytes.Equal(sh[:dropped], make([]byte, dropped)) {
						t.Fatalf("bits %d key %q: share of %d at provider %d has a non-zero byte above its width: %x",
							bits, key, v, p, sh)
					}
				}
			}
		}
	}
}

// SplitInto, on the scheme or on a Splitter, writes what ShareAt computes
// into caller storage, allocating nothing even for a value never split
// before, leaves the share memo alone (it serves query bounds and
// reconstruction, not bulk loads), and refuses storage of the wrong length.
func TestSplitInto(t *testing.T) {
	s := testScheme(t, 4)
	sp := s.NewSplitter()
	out, viaSplitter := make([]Share, s.N()), make([]Share, s.N())
	rng := mrand.New(mrand.NewSource(41))
	values := []uint64{0, 7, s.DomainMax()}
	for len(values) < 1000 {
		values = append(values, rng.Uint64()&s.DomainMax())
	}
	for _, v := range values {
		if err := s.SplitInto(out, v); err != nil {
			t.Fatal(err)
		}
		if err := sp.SplitInto(viaSplitter, v); err != nil {
			t.Fatal(err)
		}
		for p := range out {
			if want, _ := s.ShareAt(v, p); out[p] != want || viaSplitter[p] != want {
				t.Fatalf("v=%d provider %d: SplitInto %x, Splitter %x, ShareAt %x", v, p, out[p], viaSplitter[p], want)
			}
		}
	}
	cached := len(s.cache)
	next := s.DomainMax() / 2
	if n := testing.AllocsPerRun(100, func() { next++; _ = sp.SplitInto(out, next) }); n != 0 {
		t.Errorf("Splitter.SplitInto of a value never split before allocates %v times", n)
	}
	// The scheme's own SplitInto borrows a pooled HMAC state, which the race
	// detector's pool sometimes drops.
	if n := testing.AllocsPerRun(100, func() { next++; _ = s.SplitInto(out, next) }); n != 0 && !raceEnabled {
		t.Errorf("SplitInto of a value never split before allocates %v times", n)
	}
	if len(s.cache) != cached {
		t.Errorf("SplitInto changed the share memo: %d entries, was %d", len(s.cache), cached)
	}
	for _, split := range []func([]Share, uint64) error{s.SplitInto, sp.SplitInto} {
		if err := split(out[:3], 7); err == nil {
			t.Error("SplitInto accepted 3 slots for 4 providers")
		}
		if err := split(out, s.DomainMax()+1); err == nil {
			t.Error("SplitInto accepted a value outside the domain")
		}
	}
}

// TestConcurrentSchemeUse drives the entry points that share one scheme's
// pooled HMAC states and memo from several goroutines, each beside its own
// Splitter, as a client's encode workers and readers do; run it under -race.
func TestConcurrentSchemeUse(t *testing.T) {
	s := testScheme(t, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := s.NewSplitter()
			out, viaSplitter := make([]Share, s.N()), make([]Share, s.N())
			for i := 0; i < 200; i++ {
				v := uint64(w*1000+i) % 64 * 7919 // values repeat across workers
				if err := s.SplitInto(out, v); err != nil {
					errs <- err
					return
				}
				if err := sp.SplitInto(viaSplitter, v); err != nil {
					errs <- err
					return
				}
				p := i % s.N()
				sh, err := s.ShareAt(v, p)
				if err != nil {
					errs <- err
					return
				}
				if sh != out[p] || sh != viaSplitter[p] {
					errs <- fmt.Errorf("ShareAt(%d, %d) = %x, SplitInto = %x, Splitter = %x", v, p, sh, out[p], viaSplitter[p])
					return
				}
				if got, err := s.ReconstructSearch(p, sh); err != nil || got != v {
					errs <- fmt.Errorf("ReconstructSearch(%d, share of %d) = %d, %v", p, v, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkSplitInto splits distinct values, as a bulk load of fresh ids
// does, under the client's INT scheme (degree 3, 40 bits, N = 3): serially,
// and from GOMAXPROCS goroutines on one scheme (compare -cpu 1,2).
func BenchmarkSplitInto(b *testing.B) {
	s, err := NewScheme(Params{Degree: 3, DomainBits: 40, N: 3}, []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		out := make([]Share, s.N())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.SplitInto(out, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var workers atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			out := make([]Share, s.N())
			v := workers.Add(1) << 32 // a disjoint run of values per goroutine
			for pb.Next() {
				v++
				if err := s.SplitInto(out, v); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

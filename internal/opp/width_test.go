package opp

import (
	"bytes"
	mrand "math/rand"
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

// SplitInto writes what ShareAt computes into caller storage, allocating
// nothing once the value is cached, and refuses storage of the wrong length.
func TestSplitInto(t *testing.T) {
	s := testScheme(t, 4)
	out := make([]Share, s.N())
	for _, v := range []uint64{0, 7, s.DomainMax()} {
		if err := s.SplitInto(out, v); err != nil {
			t.Fatal(err)
		}
		for p := range out {
			if want, _ := s.ShareAt(v, p); out[p] != want {
				t.Errorf("SplitInto(%d)[%d] = %x, ShareAt = %x", v, p, out[p], want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.SplitInto(out, 7) }); n != 0 {
		t.Errorf("SplitInto of a cached value allocates %v times", n)
	}
	if err := s.SplitInto(out[:3], 7); err == nil {
		t.Error("SplitInto accepted 3 slots for 4 providers")
	}
	if err := s.SplitInto(out, s.DomainMax()+1); err == nil {
		t.Error("SplitInto accepted a value outside the domain")
	}
}

package opp

import (
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func testScheme(t testing.TB, n int) *Scheme {
	t.Helper()
	s, err := NewScheme(Params{Degree: 3, DomainBits: 32, N: n}, []byte("test master key"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemeValidation(t *testing.T) {
	key := []byte("k")
	bad := []Params{
		{Degree: 0, DomainBits: 32, N: 3},
		{Degree: 9, DomainBits: 32, N: 3},
		{Degree: 3, DomainBits: 0, N: 3},
		{Degree: 3, DomainBits: 62, N: 3},
		{Degree: 3, DomainBits: 32, SlotBits: 4, N: 3},
		{Degree: 3, DomainBits: 32, SlotBits: 65, N: 3},
		{Degree: 3, DomainBits: 32, N: 0},
		{Degree: 8, DomainBits: 61, SlotBits: 64, N: 3}, // overflows 192 bits
	}
	for _, p := range bad {
		if _, err := NewScheme(p, key); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	if _, err := NewScheme(Params{Degree: 3, DomainBits: 61, N: 5}, key); err != nil {
		t.Errorf("default slot bits rejected: %v", err)
	}
}

func TestShareAtDeterministic(t *testing.T) {
	s := testScheme(t, 3)
	a, err := s.ShareAt(12345, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.ShareAt(12345, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("ShareAt is not deterministic")
	}
	c, err := s.ShareAt(12346, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("distinct values share a share")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	p := Params{Degree: 3, DomainBits: 32, N: 2}
	s1, err := NewScheme(p, []byte("key one"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewScheme(p, []byte("key two"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s1.ShareAt(777, 0)
	b, _ := s2.ShareAt(777, 0)
	if a == b {
		t.Fatal("different keys produced identical shares")
	}
}

// The core property of Sec. IV: shares preserve the order of the domain at
// every provider.
func TestOrderPreservation(t *testing.T) {
	s := testScheme(t, 4)
	prop := func(v1, v2 uint32) bool {
		for i := 0; i < s.N(); i++ {
			a, err1 := s.ShareAt(uint64(v1), i)
			b, err2 := s.ShareAt(uint64(v2), i)
			if err1 != nil || err2 != nil {
				return false
			}
			switch {
			case v1 < v2:
				if a.Compare(b) >= 0 {
					return false
				}
			case v1 > v2:
				if a.Compare(b) <= 0 {
					return false
				}
			default:
				if a != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDomainBounds(t *testing.T) {
	s := testScheme(t, 2)
	if _, err := s.ShareAt(s.DomainMax(), 0); err != nil {
		t.Errorf("max domain value rejected: %v", err)
	}
	if _, err := s.ShareAt(s.DomainMax()+1, 0); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("out-of-domain accepted: %v", err)
	}
	if _, err := s.ShareAt(5, 2); !errors.Is(err, ErrBadProvider) {
		t.Errorf("bad provider accepted: %v", err)
	}
	if _, err := s.ShareAt(5, -1); !errors.Is(err, ErrBadProvider) {
		t.Errorf("negative provider accepted: %v", err)
	}
}

func TestMaxShareIsUpperBound(t *testing.T) {
	s := testScheme(t, 3)
	max := s.MaxShare()
	for _, v := range []uint64{0, 1, s.DomainMax() / 2, s.DomainMax()} {
		for i := 0; i < s.N(); i++ {
			sh, err := s.ShareAt(v, i)
			if err != nil {
				t.Fatal(err)
			}
			if sh.Compare(max) >= 0 {
				t.Fatalf("share of %d at provider %d >= MaxShare", v, i)
			}
		}
	}
}

func TestReconstructSearchRoundTrip(t *testing.T) {
	s := testScheme(t, 3)
	rng := mrand.New(mrand.NewSource(5))
	values := []uint64{0, 1, 2, s.DomainMax() - 1, s.DomainMax()}
	for i := 0; i < 100; i++ {
		values = append(values, uint64(rng.Uint32()))
	}
	for _, v := range values {
		for p := 0; p < s.N(); p++ {
			sh, err := s.ShareAt(v, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.ReconstructSearch(p, sh)
			if err != nil {
				t.Fatalf("v=%d provider=%d: %v", v, p, err)
			}
			if got != v {
				t.Fatalf("v=%d provider=%d: reconstructed %d", v, p, got)
			}
		}
	}
}

func TestReconstructSearchNoPreimage(t *testing.T) {
	s := testScheme(t, 1)
	sh, err := s.ShareAt(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the share by +1: consecutive domain values are separated by at
	// least the coefficient slot step at every power of x, so share+1 can
	// never be a valid share.
	perturbed := sh.Int()
	perturbed.Add(perturbed, big.NewInt(1))
	bad, err := shareFromInt(perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReconstructSearch(0, bad); !errors.Is(err, ErrNoPreimage) {
		t.Errorf("got %v, want ErrNoPreimage", err)
	}
	if _, err := s.ReconstructSearch(9, sh); !errors.Is(err, ErrBadProvider) {
		t.Errorf("got %v, want ErrBadProvider", err)
	}
}

func TestReconstructLagrangeRoundTrip(t *testing.T) {
	// Degree 3 needs 4 shares.
	s, err := NewScheme(Params{Degree: 3, DomainBits: 32, N: 6}, []byte("lagrange"))
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		v := uint64(rng.Uint32())
		shares, err := s.Split(v)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(s.N())[:4]
		sub := make([]Share, 4)
		for i, p := range perm {
			sub[i] = shares[p]
		}
		got, err := s.ReconstructLagrange(perm, sub)
		if err != nil {
			t.Fatalf("v=%d providers=%v: %v", v, perm, err)
		}
		if got != v {
			t.Fatalf("v=%d: lagrange reconstructed %d", v, got)
		}
	}
}

func TestReconstructLagrangeErrors(t *testing.T) {
	s := testScheme(t, 4)
	shares, err := s.Split(9999)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReconstructLagrange([]int{0, 1}, shares[:2]); !errors.Is(err, ErrShortShares) {
		t.Errorf("short shares: %v", err)
	}
	if _, err := s.ReconstructLagrange([]int{0, 1, 2}, shares); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := s.ReconstructLagrange([]int{0, 1, 2, 9}, shares); !errors.Is(err, ErrBadProvider) {
		t.Errorf("bad provider: %v", err)
	}
	if _, err := s.ReconstructLagrange([]int{0, 1, 2, 2}, shares); err == nil {
		t.Error("duplicate provider accepted")
	}
	// Mixed shares of two different values must be rejected as inconsistent.
	other, err := s.Split(1)
	if err != nil {
		t.Fatal(err)
	}
	mixed := []Share{shares[0], shares[1], shares[2], other[3]}
	if _, err := s.ReconstructLagrange([]int{0, 1, 2, 3}, mixed); !errors.Is(err, ErrInconsistent) {
		t.Errorf("inconsistent shares accepted: %v", err)
	}
}

func TestSearchAndLagrangeAgree(t *testing.T) {
	s := testScheme(t, 4)
	rng := mrand.New(mrand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		v := uint64(rng.Uint32())
		shares, err := s.Split(v)
		if err != nil {
			t.Fatal(err)
		}
		viaSearch, err := s.ReconstructSearch(0, shares[0])
		if err != nil {
			t.Fatal(err)
		}
		viaLagrange, err := s.ReconstructLagrange([]int{0, 1, 2, 3}, shares)
		if err != nil {
			t.Fatal(err)
		}
		if viaSearch != viaLagrange || viaSearch != v {
			t.Fatalf("v=%d search=%d lagrange=%d", v, viaSearch, viaLagrange)
		}
	}
}

// Every supported degree must preserve order and round-trip through both
// reconstruction paths.
func TestAllDegrees(t *testing.T) {
	rng := mrand.New(mrand.NewSource(77))
	for degree := 1; degree <= 8; degree++ {
		n := degree + 2 // enough providers for Lagrange
		s, err := NewScheme(Params{Degree: degree, DomainBits: 24, N: n}, []byte("deg"))
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		prev := uint64(0)
		var prevShare Share
		for trial := 0; trial < 30; trial++ {
			v := prev + 1 + uint64(rng.Intn(1000))
			if v > s.DomainMax() {
				break
			}
			sh, err := s.ShareAt(v, 0)
			if err != nil {
				t.Fatalf("degree %d v=%d: %v", degree, v, err)
			}
			if trial > 0 && sh.Compare(prevShare) <= 0 {
				t.Fatalf("degree %d: order violated at %d", degree, v)
			}
			got, err := s.ReconstructSearch(0, sh)
			if err != nil || got != v {
				t.Fatalf("degree %d: search gave %d (%v), want %d", degree, got, err, v)
			}
			shares, err := s.Split(v)
			if err != nil {
				t.Fatal(err)
			}
			providers := make([]int, degree+1)
			for i := range providers {
				providers[i] = i
			}
			viaLagrange, err := s.ReconstructLagrange(providers, shares[:degree+1])
			if err != nil || viaLagrange != v {
				t.Fatalf("degree %d: lagrange gave %d (%v), want %d", degree, viaLagrange, err, v)
			}
			prev, prevShare = v, sh
		}
	}
}

func TestEvalPoint(t *testing.T) {
	s := testScheme(t, 3)
	seen := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		x, err := s.EvalPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if x == 0 || x > maxEvalPoint {
			t.Fatalf("eval point %d out of range", x)
		}
		if seen[x] {
			t.Fatal("duplicate eval point")
		}
		seen[x] = true
	}
	if _, err := s.EvalPoint(3); !errors.Is(err, ErrBadProvider) {
		t.Error("out-of-range eval point accepted")
	}
}

// Range rewrite semantics: a provider filtering shares in
// [ShareAt(lo), ShareAt(hi)] selects exactly the rows with lo <= v <= hi.
func TestRangeFilterExactness(t *testing.T) {
	s := testScheme(t, 2)
	rng := mrand.New(mrand.NewSource(9))
	values := make([]uint64, 300)
	for i := range values {
		values[i] = uint64(rng.Intn(10_000))
	}
	shares := make([]Share, len(values))
	for i, v := range values {
		sh, err := s.ShareAt(v, 1)
		if err != nil {
			t.Fatal(err)
		}
		shares[i] = sh
	}
	for trial := 0; trial < 50; trial++ {
		lo := uint64(rng.Intn(10_000))
		hi := lo + uint64(rng.Intn(3_000))
		shLo, err := s.ShareAt(lo, 1)
		if err != nil {
			t.Fatal(err)
		}
		shHi, err := s.ShareAt(hi, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range values {
			inValue := lo <= v && v <= hi
			inShare := shares[i].Compare(shLo) >= 0 && shares[i].Compare(shHi) <= 0
			if inValue != inShare {
				t.Fatalf("trial %d: v=%d range [%d,%d]: value-pred %v share-pred %v",
					trial, v, lo, hi, inValue, inShare)
			}
		}
	}
}

// TestEvalShareMatchesBigInt pins the fixed-width Horner evaluation to the
// big.Int reference implementation across parameter corners. Stored shares
// depend on the two producing identical bytes.
func TestEvalShareMatchesBigInt(t *testing.T) {
	key := []byte("equivalence key")
	for _, p := range []Params{
		{Degree: 1, DomainBits: 8, SlotBits: 8, N: 3},
		{Degree: 3, DomainBits: 32, N: 5},
		{Degree: 3, DomainBits: 40, SlotBits: 32, N: 4},
		{Degree: 2, DomainBits: 61, SlotBits: 64, N: 3},
		{Degree: 8, DomainBits: 12, SlotBits: 16, N: 6},
	} {
		s, err := NewScheme(p, key)
		if err != nil {
			t.Fatalf("NewScheme(%+v): %v", p, err)
		}
		vals := []uint64{0, 1, 2, s.DomainMax() / 2, s.DomainMax() - 1, s.DomainMax()}
		for _, v := range vals {
			for _, x := range s.xs {
				want, err := shareFromInt(s.shareInt(v, x))
				if err != nil {
					t.Fatalf("shareFromInt(v=%d, x=%d): %v", v, x, err)
				}
				if got := s.evalShare(v, x); got != want {
					t.Fatalf("params %+v v=%d x=%d: evalShare=%x reference=%x", p, v, x, got, want)
				}
			}
		}
		// Split must agree with per-point evaluation as well.
		for _, v := range vals {
			shares, err := s.Split(v)
			if err != nil {
				t.Fatalf("Split(%d): %v", v, err)
			}
			for i, sh := range shares {
				want, err := s.ShareAt(v, i)
				if err != nil {
					t.Fatal(err)
				}
				if sh != want {
					t.Fatalf("Split(%d)[%d] = %x, ShareAt = %x", v, i, sh, want)
				}
			}
		}
	}
}

package secretshare

import (
	"crypto/rand"
	"errors"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"sssdb/internal/field"
)

func mustScheme(t testing.TB, k int, xs ...uint64) *Scheme {
	t.Helper()
	es := make([]field.Element, len(xs))
	for i, x := range xs {
		es[i] = field.New(x)
	}
	s, err := NewScheme(k, es)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemeValidation(t *testing.T) {
	if _, err := NewScheme(0, []field.Element{1}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewScheme(3, []field.Element{1, 2}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := NewScheme(1, []field.Element{0}); err == nil {
		t.Error("x=0 accepted")
	}
	if _, err := NewScheme(2, []field.Element{5, 5}); err == nil {
		t.Error("duplicate points accepted")
	}
	if _, err := NewScheme(2, []field.Element{1, 2, 3}); err != nil {
		t.Errorf("valid scheme rejected: %v", err)
	}
}

// TestFigure1 reproduces the worked example of the paper exactly:
// salaries {10,20,40,60,80}, n=3, k=2, X={x1=2, x2=4, x3=1}, and the five
// polynomials q10(x)=100x+10, q20(x)=5x+20, q40(x)=x+40, q60(x)=2x+60,
// q80(x)=4x+80. The figure lists each provider's stored shares; any two
// providers suffice to reconstruct every salary.
func TestFigure1(t *testing.T) {
	s := mustScheme(t, 2, 2, 4, 1)
	polys := []field.Poly{
		{field.New(10), field.New(100)},
		{field.New(20), field.New(5)},
		{field.New(40), field.New(1)},
		{field.New(60), field.New(2)},
		{field.New(80), field.New(4)},
	}
	salaries := []uint64{10, 20, 40, 60, 80}
	// Shares as drawn in Figure 1 (per provider, per salary).
	wantDAS1 := []uint64{210, 30, 42, 64, 88} // x=2
	wantDAS2 := []uint64{410, 40, 44, 68, 96} // x=4
	wantDAS3 := []uint64{110, 25, 41, 62, 84} // x=1

	for j, p := range polys {
		if got := p.Eval(field.New(2)).Uint64(); got != wantDAS1[j] {
			t.Errorf("DAS1 share of %d = %d, want %d", salaries[j], got, wantDAS1[j])
		}
		if got := p.Eval(field.New(4)).Uint64(); got != wantDAS2[j] {
			t.Errorf("DAS2 share of %d = %d, want %d", salaries[j], got, wantDAS2[j])
		}
		if got := p.Eval(field.New(1)).Uint64(); got != wantDAS3[j] {
			t.Errorf("DAS3 share of %d = %d, want %d", salaries[j], got, wantDAS3[j])
		}
	}
	// Every pair of providers reconstructs every salary.
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	for j, p := range polys {
		for _, pair := range pairs {
			xs := []field.Element{field.New(2), field.New(4), field.New(1)}
			shares := []Share{
				{Index: pair[0], Y: p.Eval(xs[pair[0]])},
				{Index: pair[1], Y: p.Eval(xs[pair[1]])},
			}
			got, err := s.Reconstruct(shares)
			if err != nil {
				t.Fatal(err)
			}
			if got.Uint64() != salaries[j] {
				t.Errorf("providers %v reconstruct salary %d as %d", pair, salaries[j], got.Uint64())
			}
		}
	}
}

func TestSplitReconstructRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		k := 1 + rng.Intn(n)
		xs := make([]field.Element, n)
		for i := range xs {
			xs[i] = field.New(uint64(100 + i*7))
		}
		s, err := NewScheme(k, xs)
		if err != nil {
			t.Fatal(err)
		}
		secret := field.New(rng.Uint64())
		shares, err := s.Split(secret, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if len(shares) != n {
			t.Fatalf("got %d shares, want %d", len(shares), n)
		}
		// Any k-subset reconstructs.
		perm := rng.Perm(n)
		sub := make([]Share, k)
		for i := 0; i < k; i++ {
			sub[i] = shares[perm[i]]
		}
		got, err := s.Reconstruct(sub)
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Fatalf("n=%d k=%d: reconstructed %v, want %v", n, k, got, secret)
		}
	}
}

func TestReconstructTooFewShares(t *testing.T) {
	s := mustScheme(t, 3, 1, 2, 3, 4)
	shares, err := s.Split(field.New(42), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reconstruct(shares[:2]); !errors.Is(err, ErrTooFewShares) {
		t.Errorf("got %v, want ErrTooFewShares", err)
	}
}

func TestReconstructRejectsBadIndices(t *testing.T) {
	s := mustScheme(t, 2, 1, 2, 3)
	if _, err := s.Reconstruct([]Share{{Index: 0, Y: 1}, {Index: 7, Y: 2}}); !errors.Is(err, ErrUnknownIndex) {
		t.Errorf("got %v, want ErrUnknownIndex", err)
	}
	if _, err := s.Reconstruct([]Share{{Index: 1, Y: 1}, {Index: 1, Y: 2}}); !errors.Is(err, ErrDuplicateIndex) {
		t.Errorf("got %v, want ErrDuplicateIndex", err)
	}
}

// Fewer than k shares must be information-theoretically independent of the
// secret: for a (2, n) scheme, a single share's distribution is identical
// whatever the secret. We check a necessary consequence: for any fixed
// single share value there exists a polynomial consistent with *every*
// candidate secret.
func TestSingleShareRevealsNothing(t *testing.T) {
	x1 := field.New(2)
	shareValue := field.New(210)
	for _, candidate := range []uint64{10, 20, 40, 999999} {
		// q(x) = a*x + candidate with q(x1) = shareValue
		// => a = (shareValue - candidate) / x1, which always exists.
		a := shareValue.Sub(field.New(candidate)).Div(x1)
		p := field.Poly{field.New(candidate), a}
		if p.Eval(x1) != shareValue {
			t.Fatalf("no consistent polynomial for candidate %d", candidate)
		}
	}
}

func TestSplitValuesBatchLayout(t *testing.T) {
	s := mustScheme(t, 2, 2, 4, 1)
	secrets := []field.Element{field.New(10), field.New(20), field.New(40)}
	byProvider, err := s.SplitValues(secrets, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(byProvider) != 3 {
		t.Fatalf("got %d providers", len(byProvider))
	}
	for j, want := range secrets {
		shares := []Share{
			{Index: 0, Y: byProvider[0][j]},
			{Index: 2, Y: byProvider[2][j]},
		}
		got, err := s.Reconstruct(shares)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("secret %d reconstructed as %v, want %v", j, got, want)
		}
	}
}

func TestReconstructVerifiedDetectsCorruption(t *testing.T) {
	s := mustScheme(t, 2, 3, 5, 7, 11, 13)
	secret := field.New(777)
	shares, err := s.Split(secret, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReconstructVerified(shares); err != nil || got != secret {
		t.Fatalf("verified reconstruction of honest shares: %v, %v", got, err)
	}
	// Corrupt a share beyond the first k: must be detected.
	shares[4].Y = shares[4].Y.Add(field.New(1))
	if _, err := s.ReconstructVerified(shares); !errors.Is(err, ErrInconsistent) {
		t.Errorf("corruption not detected: %v", err)
	}
}

func TestReconstructRobustIdentifiesFaultyProvider(t *testing.T) {
	// n=5, k=2: tolerates up to one corrupted share with unique decoding
	// (2*agree >= n+k -> agree >= 4).
	s := mustScheme(t, 2, 3, 5, 7, 11, 13)
	secret := field.New(31337)
	shares, err := s.Split(secret, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shares[3].Y = shares[3].Y.Add(field.New(5))
	res, err := s.ReconstructRobust(shares)
	if err != nil {
		t.Fatal(err)
	}
	if res.Secret != secret {
		t.Errorf("robust secret %v, want %v", res.Secret, secret)
	}
	if len(res.Faulty) != 1 || res.Faulty[0] != 3 {
		t.Errorf("faulty = %v, want [3]", res.Faulty)
	}
	if res.Agreeing != 4 {
		t.Errorf("agreeing = %d, want 4", res.Agreeing)
	}
}

func TestReconstructRobustHonest(t *testing.T) {
	s := mustScheme(t, 3, 3, 5, 7, 11, 13)
	secret := field.New(5)
	shares, err := s.Split(secret, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ReconstructRobust(shares)
	if err != nil {
		t.Fatal(err)
	}
	if res.Secret != secret || len(res.Faulty) != 0 || res.Agreeing != 5 {
		t.Errorf("unexpected result %+v", res)
	}
}

func TestReconstructRobustTooManyFaults(t *testing.T) {
	// n=4, k=3: unique decoding needs 2*agree >= 7, i.e. agree = 4; a single
	// corrupted share leaves only 3 agreeing, so decoding must refuse.
	s := mustScheme(t, 3, 3, 5, 7, 11)
	shares, err := s.Split(field.New(99), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shares[0].Y = shares[0].Y.Add(field.New(123))
	if _, err := s.ReconstructRobust(shares); !errors.Is(err, ErrUndecodable) {
		t.Errorf("got %v, want ErrUndecodable", err)
	}
}

func TestDerivePointsDeterministicDistinct(t *testing.T) {
	a, err := DerivePoints([]byte("master key"), 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DerivePoints([]byte("master key"), 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[field.Element]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("derivation not deterministic at %d", i)
		}
		if a[i] == 0 {
			t.Fatal("derived zero point")
		}
		if seen[a[i]] {
			t.Fatal("derived duplicate point")
		}
		seen[a[i]] = true
	}
	c, err := DerivePoints([]byte("other key"), 16)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different keys derived identical points")
	}
	if _, err := DerivePoints(nil, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestNewSchemeFromKey(t *testing.T) {
	s, err := NewSchemeFromKey(3, 5, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 3 || s.N() != 5 {
		t.Fatalf("K=%d N=%d", s.K(), s.N())
	}
	if _, err := s.Point(4); err != nil {
		t.Error(err)
	}
	if _, err := s.Point(5); !errors.Is(err, ErrUnknownIndex) {
		t.Error("out-of-range point accepted")
	}
}

// Additive homomorphism at scheme level: the sum of each provider's shares
// reconstructs to the sum of the secrets (paper Sec. V-A aggregation).
func TestProviderSideSum(t *testing.T) {
	s := mustScheme(t, 3, 2, 4, 1, 9)
	prop := func(raw []uint64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 50 {
			raw = raw[:50]
		}
		secrets := make([]field.Element, len(raw))
		var wantSum field.Element
		for i, r := range raw {
			secrets[i] = field.New(r % 1_000_000) // keep sums below the modulus
			wantSum = wantSum.Add(secrets[i])
		}
		byProvider, err := s.SplitValues(secrets, rand.Reader)
		if err != nil {
			return false
		}
		shares := make([]Share, s.N())
		for i := range shares {
			shares[i] = Share{Index: i, Y: SumShares(byProvider[i])}
		}
		got, err := s.Reconstruct(shares[:s.K()])
		return err == nil && got == wantSum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWeightsForAndCombine(t *testing.T) {
	s := mustScheme(t, 3, 2, 4, 1, 9, 17)
	secret := field.New(987654)
	shares, err := s.Split(secret, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Weights for a non-prefix subset of providers.
	subset := []int{1, 3, 4}
	weights, err := s.WeightsFor(subset)
	if err != nil {
		t.Fatal(err)
	}
	ys := []field.Element{shares[1].Y, shares[3].Y, shares[4].Y}
	got, err := CombineShares(weights, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatalf("weights reconstructed %v, want %v", got, secret)
	}
	// Error paths.
	if _, err := s.WeightsFor([]int{0}); !errors.Is(err, ErrTooFewShares) {
		t.Errorf("too few: %v", err)
	}
	if _, err := s.WeightsFor([]int{0, 1, 9}); !errors.Is(err, ErrUnknownIndex) {
		t.Errorf("bad index: %v", err)
	}
	if _, err := CombineShares(weights, ys[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func BenchmarkSplitK3N5(b *testing.B) {
	s := mustScheme(b, 3, 2, 4, 1, 9, 17)
	secret := field.New(123456)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Split(secret, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructK3(b *testing.B) {
	s := mustScheme(b, 3, 2, 4, 1, 9, 17)
	shares, err := s.Split(field.New(123456), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Reconstruct(shares[:3]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructRobustN5K3(b *testing.B) {
	s := mustScheme(b, 3, 2, 4, 1, 9, 17)
	shares, err := s.Split(field.New(123456), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	shares[1].Y = shares[1].Y.Add(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReconstructRobust(shares); err != nil {
			b.Fatal(err)
		}
	}
}

// A Splitter draws the same bytes and computes the same shares as Split —
// any K of them reconstruct the secret — and allocates nothing per secret.
func TestSplitterMatchesSplit(t *testing.T) {
	s := mustScheme(t, 3, 2, 5, 9, 11)
	seed := func() *mrand.Rand { return mrand.New(mrand.NewSource(7)) }
	sp, ref := s.NewSplitter(seed()), seed()
	for secret := uint64(0); secret < 50; secret++ {
		want, err := s.Split(field.New(secret), ref)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := sp.Split(field.New(secret))
		if err != nil {
			t.Fatal(err)
		}
		for i, y := range ys {
			if y != want[i].Y {
				t.Fatalf("secret %d provider %d: Splitter %v, Split %v", secret, i, y, want[i].Y)
			}
		}
		got, err := s.Reconstruct([]Share{{3, ys[3]}, {0, ys[0]}, {2, ys[2]}})
		if err != nil || got.Uint64() != secret {
			t.Fatalf("reconstructed %v, %v from shares of %d", got, err, secret)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = sp.Split(field.New(42)) }); n != 0 {
		t.Errorf("Splitter.Split allocates %v times a secret", n)
	}
}

package field

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func TestModulusIsMersennePrime(t *testing.T) {
	want := uint64(1)<<61 - 1
	if Modulus != want {
		t.Fatalf("Modulus = %d, want %d", Modulus, want)
	}
	if !big.NewInt(0).SetUint64(Modulus).ProbablyPrime(64) {
		t.Fatalf("Modulus %d is not prime", Modulus)
	}
}

func TestNewReduces(t *testing.T) {
	cases := []struct {
		in   uint64
		want uint64
	}{
		{0, 0},
		{1, 1},
		{Modulus - 1, Modulus - 1},
		{Modulus, 0},
		{Modulus + 1, 1},
		{^uint64(0), (^uint64(0)) % Modulus},
		{1 << 62, (uint64(1) << 62) % Modulus},
	}
	for _, c := range cases {
		if got := New(c.in).Uint64(); got != c.want {
			t.Errorf("New(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFromInt64(t *testing.T) {
	if got := FromInt64(-1); got != New(Modulus-1) {
		t.Errorf("FromInt64(-1) = %v, want %d", got, Modulus-1)
	}
	if got := FromInt64(42); got != New(42) {
		t.Errorf("FromInt64(42) = %v", got)
	}
	if got := FromInt64(-42).Add(New(42)); got != 0 {
		t.Errorf("-42 + 42 = %v, want 0", got)
	}
}

// refMul computes a*b mod p with math/big as an independent oracle.
func refMul(a, b uint64) uint64 {
	m := new(big.Int).SetUint64(Modulus)
	x := new(big.Int).SetUint64(a)
	y := new(big.Int).SetUint64(b)
	return x.Mul(x, y).Mod(x, m).Uint64()
}

func TestMulAgainstBigOracle(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a := rng.Uint64() % Modulus
		b := rng.Uint64() % Modulus
		if got, want := New(a).Mul(New(b)).Uint64(), refMul(a, b); got != want {
			t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
	// Boundary values.
	edges := []uint64{0, 1, 2, Modulus - 2, Modulus - 1}
	for _, a := range edges {
		for _, b := range edges {
			if got, want := New(a).Mul(New(b)).Uint64(), refMul(a, b); got != want {
				t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	elem := func(v uint64) Element { return New(v) }

	commAdd := func(a, b uint64) bool {
		return elem(a).Add(elem(b)) == elem(b).Add(elem(a))
	}
	if err := quick.Check(commAdd, cfg); err != nil {
		t.Error("addition not commutative:", err)
	}
	commMul := func(a, b uint64) bool {
		return elem(a).Mul(elem(b)) == elem(b).Mul(elem(a))
	}
	if err := quick.Check(commMul, cfg); err != nil {
		t.Error("multiplication not commutative:", err)
	}
	assocMul := func(a, b, c uint64) bool {
		return elem(a).Mul(elem(b)).Mul(elem(c)) == elem(a).Mul(elem(b).Mul(elem(c)))
	}
	if err := quick.Check(assocMul, cfg); err != nil {
		t.Error("multiplication not associative:", err)
	}
	distrib := func(a, b, c uint64) bool {
		return elem(a).Mul(elem(b).Add(elem(c))) == elem(a).Mul(elem(b)).Add(elem(a).Mul(elem(c)))
	}
	if err := quick.Check(distrib, cfg); err != nil {
		t.Error("distributivity fails:", err)
	}
	subInverse := func(a, b uint64) bool {
		return elem(a).Sub(elem(b)).Add(elem(b)) == elem(a)
	}
	if err := quick.Check(subInverse, cfg); err != nil {
		t.Error("a-b+b != a:", err)
	}
	negation := func(a uint64) bool {
		return elem(a).Add(elem(a).Neg()) == 0
	}
	if err := quick.Check(negation, cfg); err != nil {
		t.Error("a + (-a) != 0:", err)
	}
	inverse := func(a uint64) bool {
		e := elem(a)
		if e == 0 {
			return true
		}
		return e.Mul(e.Inv()) == 1
	}
	if err := quick.Check(inverse, cfg); err != nil {
		t.Error("a * a^-1 != 1:", err)
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	base := New(123456789)
	acc := Element(1)
	for e := uint64(0); e < 64; e++ {
		if got := base.Pow(e); got != acc {
			t.Fatalf("Pow(%d) = %v, want %v", e, got, acc)
		}
		acc = acc.Mul(base)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Element(0).Inv()
}

func TestDivRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a := New(rng.Uint64())
		b := New(rng.Uint64())
		if b == 0 {
			continue
		}
		if got := a.Div(b).Mul(b); got != a {
			t.Fatalf("(%v / %v) * %v = %v", a, b, b, got)
		}
	}
}

func TestRandomInRangeAndVaried(t *testing.T) {
	seen := make(map[Element]bool)
	for i := 0; i < 256; i++ {
		e, err := Random(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if e.Uint64() >= Modulus {
			t.Fatalf("Random produced non-canonical %d", e)
		}
		seen[e] = true
	}
	if len(seen) < 250 {
		t.Fatalf("Random produced only %d distinct values in 256 draws", len(seen))
	}
}

// zeroReader feeds zero bytes, forcing Random's candidate value to 0.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestRandomWithDegenerateSource(t *testing.T) {
	e, err := Random(zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("Random(zeros) = %v, want 0", e)
	}
}

func BenchmarkMul(b *testing.B) {
	x := New(0x1234_5678_9abc_def0)
	y := New(0x0fed_cba9_8765_4321)
	var sink Element
	for i := 0; i < b.N; i++ {
		sink = x.Mul(y)
		x = sink
	}
	_ = sink
}

func BenchmarkInv(b *testing.B) {
	x := New(0x1234_5678_9abc_def0)
	var sink Element
	for i := 0; i < b.N; i++ {
		sink = x.Inv()
	}
	_ = sink
}

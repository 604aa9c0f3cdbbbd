// Package opp implements the paper's order-preserving polynomial share
// construction (Sec. IV): secret values are split into shares that preserve
// the ordering of the underlying domain, so a Database Service Provider can
// filter range queries in share space and return *exactly* the required
// tuples instead of the whole table.
//
// For a value v from the domain [0, 2^DomainBits), the sharing polynomial is
//
//	p_v(x) = c_d(v)·x^d + ... + c_1(v)·x + v
//
// where each coefficient c_j(v) is drawn from the v-th slot of a coefficient
// domain partitioned into |DOM| equal slots:
//
//	c_j(v) = v · 2^SlotBits + h_j(v),   h_j(v) ∈ [0, 2^SlotBits)
//
// with h_j a keyed hash (HMAC-SHA256) known only to the data source. Each
// c_j is strictly increasing in v, so for positive evaluation points
// v1 < v2 ⇒ p_v1(x) < p_v2(x): shares preserve order. Because the slot
// offset is pseudorandom per value, a provider that learns one (value,
// share) pair learns nothing about the shares of other values — unlike the
// straightforward monotone-function construction (see naive.go), which the
// paper shows to be breakable and which this package implements together
// with a working attack.
//
// In memory a share is a 192-bit unsigned integer; serialized (AppendShare,
// ParseShare — the only way a share becomes bytes or comes back) it is as
// wide as its domain. Every share of a scheme is below MaxShare, a bound
// fixed by (Degree, DomainBits, SlotBits) alone, so the big-endian bytes
// above Width() = ⌈bitlen(MaxShare)/8⌉ (13 for a 40-bit domain at degree 3)
// are zero for every value under every key: dropping them tells a provider
// nothing it could not count for itself. All shares of a scheme have one
// width, so share order is exactly lexicographic byte order and provider
// indexes (B+-trees over []byte keys) stay oblivious to the construction.
package opp

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/big"
	"math/bits"
	"sync"
)

// shareSize is the width in bytes of the in-memory share (192 bits).
const shareSize = 24

// Share is an order-preserving share: a 192-bit unsigned integer in
// big-endian byte order. Compare and bytes.Compare agree by construction.
type Share [shareSize]byte

// Compare returns -1, 0, or +1 ordering s relative to o.
func (s Share) Compare(o Share) int { return bytes.Compare(s[:], o[:]) }

// Int returns the share value as a big integer.
func (s Share) Int() *big.Int { return new(big.Int).SetBytes(s[:]) }

func shareFromInt(v *big.Int) (Share, error) {
	var s Share
	if v.Sign() < 0 || v.BitLen() > shareSize*8 {
		return s, fmt.Errorf("opp: share value out of range (bitlen %d)", v.BitLen())
	}
	v.FillBytes(s[:])
	return s, nil
}

// Params configures an order-preserving sharing scheme.
type Params struct {
	// Degree is the polynomial degree d; reconstruction by interpolation
	// needs d+1 shares (the paper's exposition uses d = 3, k = 4).
	Degree int
	// DomainBits bounds secret values to [0, 2^DomainBits).
	DomainBits uint
	// SlotBits is the per-coefficient randomness width; larger slots give
	// the keyed hash more room inside each slot. Defaults to 32 when zero.
	SlotBits uint
	// N is the number of providers.
	N int
}

// Validation errors.
var (
	ErrBadParams    = errors.New("opp: invalid parameters")
	ErrOutOfDomain  = errors.New("opp: value outside domain")
	ErrBadProvider  = errors.New("opp: provider index out of range")
	ErrNoPreimage   = errors.New("opp: share has no preimage in the domain")
	ErrShortShares  = errors.New("opp: not enough shares for interpolation")
	ErrInconsistent = errors.New("opp: shares are mutually inconsistent")
)

// Scheme derives order-preserving shares under a client master key.
// A Scheme is safe for concurrent use.
type Scheme struct {
	params Params
	key    []byte
	// xs are the secret evaluation points, small positive integers so that
	// shares fit in 192 bits; one per provider.
	xs []uint64
	// maxShare is the exclusive upper bound of any share value, used as a
	// range-scan sentinel; width is the bytes it occupies.
	maxShare Share
	width    int

	// cache memoizes p_v(x) per (value, evaluation point) for the readers
	// whose values repeat: ShareAt (the same filter bounds over and over)
	// and ReconstructSearch (the same binary-search probe ladder for every
	// decoded cell and GROUP BY key). SplitInto, the write path, never
	// touches it: a bulk load's values are mostly distinct, so memoizing
	// them only churns the map under its lock. It is bounded: when full it
	// is dropped wholesale and rebuilt.
	cacheMu sync.RWMutex
	cache   map[shareKey]Share

	// macs pools the macState of callers without their own (a Splitter
	// has one): hmac.New runs the full key schedule (two SHA-256 blocks)
	// and allocates three hash states, while Reset on a kept instance just
	// restores the precomputed pads.
	macs sync.Pool
}

// coeffLabel prefixes every coefficient HMAC input.
const coeffLabel = "sssdb/opp-coefficient"

// macState is the scratch of coefficient derivation: the keyed HMAC, its
// input (coeffLabel, then j and v big-endian) and the digest, kept together
// so a derivation allocates nothing.
type macState struct {
	mac hash.Hash
	in  [len(coeffLabel) + 16]byte
	sum [sha256.Size]byte
}

// shareKey indexes the share cache by (secret value, evaluation point).
type shareKey struct{ v, x uint64 }

// shareCacheLimit bounds the cache to ~64k entries (~2.5 MB).
const shareCacheLimit = 1 << 16

const maxEvalPoint = 1 << 10 // evaluation points live in [1, 2^10]

// NewScheme validates params and derives per-provider evaluation points
// from the key. Different keys yield unrelated schemes.
func NewScheme(p Params, key []byte) (*Scheme, error) {
	if p.SlotBits == 0 {
		p.SlotBits = 32
	}
	if p.Degree < 1 || p.Degree > 8 {
		return nil, fmt.Errorf("%w: degree %d (want 1..8)", ErrBadParams, p.Degree)
	}
	if p.DomainBits < 1 || p.DomainBits > 61 {
		return nil, fmt.Errorf("%w: domain bits %d (want 1..61)", ErrBadParams, p.DomainBits)
	}
	if p.SlotBits < 8 || p.SlotBits > 64 {
		return nil, fmt.Errorf("%w: slot bits %d (want 8..64)", ErrBadParams, p.SlotBits)
	}
	if p.N < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParams, p.N)
	}
	s := &Scheme{
		params: p,
		key:    append([]byte(nil), key...),
		cache:  make(map[shareKey]Share),
	}
	s.macs.New = func() any { return s.newMACState() }
	xs, err := deriveEvalPoints(key, p.N)
	if err != nil {
		return nil, err
	}
	s.xs = xs

	// Verify the largest possible share fits in 192 bits: coefficients are
	// < 2^(DomainBits+SlotBits), evaluation points <= maxEvalPoint.
	maxCoef := new(big.Int).Lsh(big.NewInt(1), p.DomainBits+p.SlotBits)
	x := new(big.Int).SetUint64(maxEvalPoint)
	acc := new(big.Int).Lsh(big.NewInt(1), p.DomainBits)
	xp := big.NewInt(1)
	for j := 1; j <= p.Degree; j++ {
		xp.Mul(xp, x)
		acc.Add(acc, new(big.Int).Mul(maxCoef, xp))
	}
	if acc.BitLen() > shareSize*8 {
		return nil, fmt.Errorf("%w: shares would need %d bits (max %d); reduce degree, domain or slot bits",
			ErrBadParams, acc.BitLen(), shareSize*8)
	}
	max, err := shareFromInt(acc)
	if err != nil {
		return nil, err
	}
	s.maxShare = max
	s.width = (acc.BitLen() + 7) / 8
	return s, nil
}

func (s *Scheme) newMACState() *macState {
	st := &macState{mac: hmac.New(sha256.New, s.key)}
	copy(st.in[:], coeffLabel)
	return st
}

// deriveEvalPoints deterministically derives n distinct points in
// [1, maxEvalPoint] from the key.
func deriveEvalPoints(key []byte, n int) ([]uint64, error) {
	if n > maxEvalPoint/2 {
		return nil, fmt.Errorf("%w: n=%d exceeds evaluation point space", ErrBadParams, n)
	}
	xs := make([]uint64, 0, n)
	seen := map[uint64]bool{0: true}
	var counter uint64
	for len(xs) < n {
		mac := hmac.New(sha256.New, key)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], counter)
		counter++
		mac.Write([]byte("sssdb/opp-eval-point"))
		mac.Write(buf[:])
		sum := mac.Sum(nil)
		x := binary.BigEndian.Uint64(sum[:8])%maxEvalPoint + 1
		if !seen[x] {
			seen[x] = true
			xs = append(xs, x)
		}
	}
	return xs, nil
}

// Params returns a copy of the scheme parameters.
func (s *Scheme) Params() Params { return s.params }

// N returns the number of providers.
func (s *Scheme) N() int { return s.params.N }

// DomainMax returns the largest representable value, 2^DomainBits - 1.
func (s *Scheme) DomainMax() uint64 {
	return uint64(1)<<s.params.DomainBits - 1
}

// MaxShare returns an exclusive upper bound for all shares of this scheme,
// usable as a +∞ sentinel in range scans.
func (s *Scheme) MaxShare() Share { return s.maxShare }

// Width is the serialized width in bytes of every share of this scheme:
// the bytes MaxShare needs, a function of the scheme's parameters only.
func (s *Scheme) Width() int { return s.width }

// AppendShare appends the serialized form of sh, its low Width() bytes, to
// dst. sh must be a share of this scheme (or MaxShare).
func (s *Scheme) AppendShare(dst []byte, sh Share) []byte {
	return append(dst, sh[shareSize-s.width:]...)
}

// ParseShare is the inverse of AppendShare: exactly Width() bytes,
// left-padded with the zero bytes serialization dropped.
func (s *Scheme) ParseShare(b []byte) (Share, error) {
	var sh Share
	if len(b) != s.width {
		return sh, fmt.Errorf("opp: share must be %d bytes, got %d", s.width, len(b))
	}
	copy(sh[shareSize-s.width:], b)
	return sh, nil
}

// EvalPoint exposes provider i's secret evaluation point; it is needed by
// the client for Lagrange reconstruction and must not be shipped to
// providers.
func (s *Scheme) EvalPoint(i int) (uint64, error) {
	if i < 0 || i >= len(s.xs) {
		return 0, fmt.Errorf("%w: %d", ErrBadProvider, i)
	}
	return s.xs[i], nil
}

// coeffOffset derives the keyed pseudo-random offset h_j(v), truncated to
// SlotBits, with st's HMAC.
func (s *Scheme) coeffOffset(st *macState, j int, v uint64) uint64 {
	st.mac.Reset()
	binary.BigEndian.PutUint64(st.in[len(coeffLabel):], uint64(j))
	binary.BigEndian.PutUint64(st.in[len(coeffLabel)+8:], v)
	st.mac.Write(st.in[:])
	h := binary.BigEndian.Uint64(st.mac.Sum(st.sum[:0]))
	if s.params.SlotBits == 64 {
		return h
	}
	return h & (uint64(1)<<s.params.SlotBits - 1)
}

// coefficient returns c_j(v) = v·2^SlotBits + h_j(v) for j in [1, Degree].
func (s *Scheme) coefficient(st *macState, j int, v uint64) *big.Int {
	offset := s.coeffOffset(st, j, v)
	c := new(big.Int).SetUint64(v)
	c.Lsh(c, s.params.SlotBits)
	return c.Add(c, new(big.Int).SetUint64(offset))
}

// word192 is a little-endian 192-bit unsigned integer, the fixed-width
// arithmetic behind share evaluation. NewScheme proves the largest possible
// share fits in 192 bits, and every Horner intermediate is bounded by the
// final value (all terms are non-negative and points are >= 1), so none of
// these operations can overflow.
type word192 [3]uint64

// coeff192 is coefficient with fixed-width arithmetic.
func (s *Scheme) coeff192(st *macState, j int, v uint64) word192 {
	offset := s.coeffOffset(st, j, v)
	sb := s.params.SlotBits
	if sb == 64 {
		return word192{offset, v, 0}
	}
	lo := v << sb
	hi := v >> (64 - sb)
	var w word192
	var carry uint64
	w[0], carry = bits.Add64(lo, offset, 0)
	w[1], _ = bits.Add64(hi, 0, carry)
	return w
}

// mulAdd192 returns a·x + c.
func mulAdd192(a word192, x uint64, c word192) word192 {
	h0, l0 := bits.Mul64(a[0], x)
	h1, l1 := bits.Mul64(a[1], x)
	_, l2 := bits.Mul64(a[2], x)
	var r word192
	var carry uint64
	r[0] = l0
	r[1], carry = bits.Add64(l1, h0, 0)
	r[2], _ = bits.Add64(l2, h1, carry)
	r[0], carry = bits.Add64(r[0], c[0], 0)
	r[1], carry = bits.Add64(r[1], c[1], carry)
	r[2], _ = bits.Add64(r[2], c[2], carry)
	return r
}

// coeffs192 derives c_1(v) .. c_Degree(v), one HMAC each: the cost of a
// polynomial, shared by all of its evaluation points.
func (s *Scheme) coeffs192(st *macState, v uint64) (cs [8]word192) { // Degree <= 8
	for j := 1; j <= s.params.Degree; j++ {
		cs[j-1] = s.coeff192(st, j, v)
	}
	return cs
}

// horner evaluates p_v(x) = (...(c_d·x + c_{d-1})·x + ...)·x + v over the
// coefficients from coeffs192 and packs it big-endian into a Share
// (matching shareFromInt's byte layout exactly).
func (s *Scheme) horner(cs *[8]word192, v, x uint64) Share {
	acc := cs[s.params.Degree-1]
	for j := s.params.Degree - 1; j >= 1; j-- {
		acc = mulAdd192(acc, x, cs[j-1])
	}
	acc = mulAdd192(acc, x, word192{v, 0, 0})
	var sh Share
	binary.BigEndian.PutUint64(sh[0:8], acc[2])
	binary.BigEndian.PutUint64(sh[8:16], acc[1])
	binary.BigEndian.PutUint64(sh[16:24], acc[0])
	return sh
}

// evalShare computes p_v(x) with fixed-width arithmetic.
func (s *Scheme) evalShare(v, x uint64) Share {
	st := s.macs.Get().(*macState)
	cs := s.coeffs192(st, v)
	s.macs.Put(st)
	return s.horner(&cs, v, x)
}

// shareInt computes p_v(x) as a big integer. It is the reference
// implementation that evalShare must match bit for bit (stored shares
// depend on it); the equivalence is pinned by a test.
func (s *Scheme) shareInt(v, x uint64) *big.Int {
	st := s.newMACState()
	// Horner over coefficients c_d .. c_1, constant term v.
	acc := s.coefficient(st, s.params.Degree, v)
	bx := new(big.Int).SetUint64(x)
	for j := s.params.Degree - 1; j >= 1; j-- {
		acc.Mul(acc, bx)
		acc.Add(acc, s.coefficient(st, j, v))
	}
	acc.Mul(acc, bx)
	return acc.Add(acc, new(big.Int).SetUint64(v))
}

// shareAtPoint is the memoized form of shareInt: it returns p_v(x) as a
// Share, consulting the cache first. v must already be validated.
func (s *Scheme) shareAtPoint(v, x uint64) (Share, error) {
	k := shareKey{v, x}
	s.cacheMu.RLock()
	sh, ok := s.cache[k]
	s.cacheMu.RUnlock()
	if ok {
		return sh, nil
	}
	sh = s.evalShare(v, x)
	s.cacheMu.Lock()
	if len(s.cache) >= shareCacheLimit {
		s.cache = make(map[shareKey]Share)
	}
	s.cache[k] = sh
	s.cacheMu.Unlock()
	return sh, nil
}

// ShareAt computes provider i's order-preserving share of v. It is
// deterministic: the same (v, i) always yields the same share, which is what
// allows the client to rewrite queries (paper Sec. V-A) without storing the
// polynomials — they are regenerated as part of front-end query processing.
func (s *Scheme) ShareAt(v uint64, provider int) (Share, error) {
	if v > s.DomainMax() {
		return Share{}, fmt.Errorf("%w: %d > %d", ErrOutOfDomain, v, s.DomainMax())
	}
	if provider < 0 || provider >= len(s.xs) {
		return Share{}, fmt.Errorf("%w: %d", ErrBadProvider, provider)
	}
	return s.shareAtPoint(v, s.xs[provider])
}

// Split computes all n providers' shares of v.
func (s *Scheme) Split(v uint64) ([]Share, error) {
	out := make([]Share, len(s.xs))
	return out, s.SplitInto(out, v)
}

// SplitInto is Split into caller storage: out[i] receives provider i's
// share, len(out) must be N, and nothing is allocated. The polynomial's
// coefficients are derived once (the HMACs dominate share generation) and
// evaluated at every point. It bypasses the share memo: each call costs
// Degree HMACs and takes no lock, so concurrent encoders scale.
func (s *Scheme) SplitInto(out []Share, v uint64) error {
	st := s.macs.Get().(*macState)
	err := s.split(st, out, v)
	s.macs.Put(st)
	return err
}

// split is SplitInto with the caller's HMAC state.
func (s *Scheme) split(st *macState, out []Share, v uint64) error {
	if v > s.DomainMax() {
		return fmt.Errorf("%w: %d > %d", ErrOutOfDomain, v, s.DomainMax())
	}
	if len(out) != len(s.xs) {
		return fmt.Errorf("%w: %d shares for %d providers", ErrBadProvider, len(out), len(s.xs))
	}
	cs := s.coeffs192(st, v)
	for i, x := range s.xs {
		out[i] = s.horner(&cs, v, x)
	}
	return nil
}

// Splitter is SplitInto with its own HMAC state instead of one borrowed
// from the scheme's pool, for a goroutine that splits many values, such as
// a client's encode worker: it allocates nothing even after a garbage
// collection (or the race detector) has emptied the pool. A Splitter is not
// safe for concurrent use.
type Splitter struct {
	s  *Scheme
	st *macState
}

// NewSplitter returns a Splitter over s.
func (s *Scheme) NewSplitter() *Splitter { return &Splitter{s: s, st: s.newMACState()} }

// SplitInto is Scheme.SplitInto.
func (sp *Splitter) SplitInto(out []Share, v uint64) error { return sp.s.split(sp.st, out, v) }

// ReconstructSearch inverts a single provider's share by binary search over
// the domain, exploiting strict monotonicity of ShareAt in v. It needs only
// one share (plus the client key), runs in O(DomainBits) hash evaluations,
// and is the fast path for decoding rows returned by range scans. The probe
// ladder's upper levels repeat across every decoded cell, so most probes hit
// the share cache. Share byte order equals numeric order, so probes compare
// raw shares without math/big.
func (s *Scheme) ReconstructSearch(provider int, sh Share) (uint64, error) {
	if provider < 0 || provider >= len(s.xs) {
		return 0, fmt.Errorf("%w: %d", ErrBadProvider, provider)
	}
	x := s.xs[provider]
	lo, hi := uint64(0), s.DomainMax()
	for lo < hi {
		mid := lo + (hi-lo)/2
		probe, err := s.shareAtPoint(mid, x)
		if err != nil {
			return 0, err
		}
		switch probe.Compare(sh) {
		case 0:
			return mid, nil
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	probe, err := s.shareAtPoint(lo, x)
	if err != nil {
		return 0, err
	}
	if probe.Compare(sh) == 0 {
		return lo, nil
	}
	return 0, ErrNoPreimage
}

// ReconstructLagrange recovers v from Degree+1 shares by exact rational
// Lagrange interpolation at x = 0. This is the reconstruction method of the
// paper's exposition; ReconstructSearch is the cheaper alternative enabled
// by deterministic coefficient derivation. The two must always agree — the
// verification layer cross-checks them.
func (s *Scheme) ReconstructLagrange(providers []int, shares []Share) (uint64, error) {
	k := s.params.Degree + 1
	if len(providers) != len(shares) {
		return 0, fmt.Errorf("opp: %d providers for %d shares", len(providers), len(shares))
	}
	if len(shares) < k {
		return 0, fmt.Errorf("%w: have %d, need %d", ErrShortShares, len(shares), k)
	}
	providers = providers[:k]
	shares = shares[:k]
	seen := make(map[int]bool, k)
	for _, p := range providers {
		if p < 0 || p >= len(s.xs) {
			return 0, fmt.Errorf("%w: %d", ErrBadProvider, p)
		}
		if seen[p] {
			return 0, fmt.Errorf("opp: duplicate provider %d", p)
		}
		seen[p] = true
	}
	// v = Σ_i y_i Π_{j≠i} x_j / (x_j - x_i), exact over the rationals.
	sum := new(big.Rat)
	for i, pi := range providers {
		xi := new(big.Int).SetUint64(s.xs[pi])
		num := big.NewInt(1)
		den := big.NewInt(1)
		for j, pj := range providers {
			if j == i {
				continue
			}
			xj := new(big.Int).SetUint64(s.xs[pj])
			num.Mul(num, xj)
			den.Mul(den, new(big.Int).Sub(xj, xi))
		}
		term := new(big.Rat).SetInt(shares[i].Int())
		term.Mul(term, new(big.Rat).SetFrac(num, den))
		sum.Add(sum, term)
	}
	if !sum.IsInt() || sum.Sign() < 0 {
		return 0, fmt.Errorf("%w: interpolated %s", ErrInconsistent, sum.RatString())
	}
	v := sum.Num()
	if v.BitLen() > 64 || v.Uint64() > s.DomainMax() {
		return 0, fmt.Errorf("%w: interpolated value outside domain", ErrInconsistent)
	}
	return v.Uint64(), nil
}

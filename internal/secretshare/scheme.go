// Package secretshare implements Shamir's (k, n) threshold secret sharing
// over GF(2^61 - 1), the mechanism the paper proposes instead of encryption
// for outsourcing data to n Database Service Providers (Sec. III).
//
// A data source splits each value v into n shares — evaluations of a random
// degree-(k-1) polynomial with constant term v at n secret, distinct,
// non-zero points X = {x_1, ..., x_n}, one point per provider. Any k shares
// together with X reconstruct v; k-1 shares reveal nothing even given X
// (information-theoretic security, Shamir 1979).
//
// The package also provides the machinery for the paper's trust challenge:
// reconstruction that *verifies* redundant shares, and robust reconstruction
// that identifies which providers returned corrupted shares when n > k.
package secretshare

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"sssdb/internal/field"
)

// Common errors.
var (
	ErrTooFewShares   = errors.New("secretshare: not enough shares to reconstruct")
	ErrInconsistent   = errors.New("secretshare: shares are not consistent with a single polynomial")
	ErrBadParameters  = errors.New("secretshare: invalid scheme parameters")
	ErrUnknownIndex   = errors.New("secretshare: share index out of range")
	ErrDuplicateIndex = errors.New("secretshare: duplicate share index")
	ErrUndecodable    = errors.New("secretshare: too many corrupted shares to identify")
)

// Share is one provider's piece of a secret: the evaluation y = q(x_i) of
// the sharing polynomial at that provider's secret point. Only the provider
// index travels with the share; the point x_i itself stays with the client.
type Share struct {
	Index int // provider index in [0, n)
	Y     field.Element
}

// Scheme fixes the (k, n) threshold and the secret evaluation points.
// A Scheme is immutable and safe for concurrent use.
type Scheme struct {
	k  int
	xs []field.Element
	// weights caches Lagrange coefficients for the full n-share subset,
	// the common reconstruction path.
	fullWeights []field.Element
}

// NewScheme builds a scheme with threshold k over the given evaluation
// points (n = len(xs)). Points must be distinct and non-zero; 1 <= k <= n.
func NewScheme(k int, xs []field.Element) (*Scheme, error) {
	n := len(xs)
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadParameters, k, n)
	}
	seen := make(map[field.Element]bool, n)
	for _, x := range xs {
		if x == 0 {
			return nil, fmt.Errorf("%w: evaluation point x=0", ErrBadParameters)
		}
		if seen[x] {
			return nil, fmt.Errorf("%w: duplicate evaluation point %v", ErrBadParameters, x)
		}
		seen[x] = true
	}
	s := &Scheme{k: k, xs: append([]field.Element(nil), xs...)}
	w, err := field.LagrangeCoefficientsAtZero(s.xs[:k])
	if err != nil {
		return nil, err
	}
	s.fullWeights = w
	return s, nil
}

// DerivePoints deterministically derives n distinct non-zero evaluation
// points from a client master key using HMAC-SHA256. This is the secret
// information X of the paper: it never leaves the data source, and a
// provider that captures k shares but not X still cannot interpolate.
func DerivePoints(key []byte, n int) ([]field.Element, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParameters, n)
	}
	xs := make([]field.Element, 0, n)
	seen := map[field.Element]bool{0: true}
	var counter uint64
	for len(xs) < n {
		mac := hmac.New(sha256.New, key)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], counter)
		counter++
		mac.Write([]byte("sssdb/eval-point"))
		mac.Write(buf[:])
		sum := mac.Sum(nil)
		v := binary.BigEndian.Uint64(sum[:8]) & (uint64(1)<<61 - 1)
		e := field.New(v)
		if !seen[e] {
			seen[e] = true
			xs = append(xs, e)
		}
	}
	return xs, nil
}

// NewSchemeFromKey is NewScheme over DerivePoints(key, n).
func NewSchemeFromKey(k, n int, key []byte) (*Scheme, error) {
	xs, err := DerivePoints(key, n)
	if err != nil {
		return nil, err
	}
	return NewScheme(k, xs)
}

// K returns the reconstruction threshold.
func (s *Scheme) K() int { return s.k }

// N returns the number of providers.
func (s *Scheme) N() int { return len(s.xs) }

// Point returns the secret evaluation point of provider i.
func (s *Scheme) Point(i int) (field.Element, error) {
	if i < 0 || i >= len(s.xs) {
		return 0, fmt.Errorf("%w: %d", ErrUnknownIndex, i)
	}
	return s.xs[i], nil
}

// Split shares a secret into n shares using fresh randomness from rnd.
func (s *Scheme) Split(secret field.Element, rnd io.Reader) ([]Share, error) {
	poly, err := field.NewRandomPoly(secret, s.k-1, rnd)
	if err != nil {
		return nil, err
	}
	shares := make([]Share, len(s.xs))
	for i, x := range s.xs {
		shares[i] = Share{Index: i, Y: poly.Eval(x)}
	}
	return shares, nil
}

// Splitter shares secrets from one source of randomness without allocating
// per secret: it owns the polynomial, the share vector and the read buffer
// that Split allocates on every call. Not safe for concurrent use; a worker
// makes its own.
type Splitter struct {
	s    *Scheme
	rnd  io.Reader
	poly field.Poly
	ys   []field.Element
	buf  [8]byte
}

// NewSplitter returns a Splitter drawing fresh randomness from rnd.
func (s *Scheme) NewSplitter(rnd io.Reader) *Splitter {
	return &Splitter{s: s, rnd: rnd, poly: make(field.Poly, s.k), ys: make([]field.Element, len(s.xs))}
}

// Split shares a secret: element i of the result is provider i's share.
// The result is overwritten by the next call.
func (sp *Splitter) Split(secret field.Element) ([]field.Element, error) {
	if err := sp.poly.Randomize(secret, sp.rnd, sp.buf[:]); err != nil {
		return nil, err
	}
	for i, x := range sp.s.xs {
		sp.ys[i] = sp.poly.Eval(x)
	}
	return sp.ys, nil
}

// SplitValues shares a batch of secrets, returning shares grouped by
// provider: out[i][j] is provider i's share of secrets[j]. Batch layout
// matches how a table column is shipped to each provider.
func (s *Scheme) SplitValues(secrets []field.Element, rnd io.Reader) ([][]field.Element, error) {
	out := make([][]field.Element, len(s.xs))
	for i := range out {
		out[i] = make([]field.Element, len(secrets))
	}
	for j, v := range secrets {
		poly, err := field.NewRandomPoly(v, s.k-1, rnd)
		if err != nil {
			return nil, err
		}
		for i, x := range s.xs {
			out[i][j] = poly.Eval(x)
		}
	}
	return out, nil
}

// points converts shares into interpolation points, validating indices.
func (s *Scheme) points(shares []Share) ([]field.Point, error) {
	pts := make([]field.Point, len(shares))
	seen := make(map[int]bool, len(shares))
	for i, sh := range shares {
		if sh.Index < 0 || sh.Index >= len(s.xs) {
			return nil, fmt.Errorf("%w: %d", ErrUnknownIndex, sh.Index)
		}
		if seen[sh.Index] {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateIndex, sh.Index)
		}
		seen[sh.Index] = true
		pts[i] = field.Point{X: s.xs[sh.Index], Y: sh.Y}
	}
	return pts, nil
}

// Reconstruct recovers the secret from at least k shares. Extra shares
// beyond k are ignored (use ReconstructVerified to check them).
func (s *Scheme) Reconstruct(shares []Share) (field.Element, error) {
	if len(shares) < s.k {
		return 0, fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(shares), s.k)
	}
	pts, err := s.points(shares)
	if err != nil {
		return 0, err
	}
	return field.InterpolateAtZero(pts[:s.k])
}

// ReconstructVerified recovers the secret and additionally checks that
// every provided share lies on the single degree-(k-1) polynomial implied
// by the first k. With n > k honest-majority redundancy this detects any
// corrupted share (paper challenge: "verify that data has been corrupted").
func (s *Scheme) ReconstructVerified(shares []Share) (field.Element, error) {
	if len(shares) < s.k {
		return 0, fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(shares), s.k)
	}
	pts, err := s.points(shares)
	if err != nil {
		return 0, err
	}
	poly, err := field.Interpolate(pts[:s.k])
	if err != nil {
		return 0, err
	}
	for _, p := range pts[s.k:] {
		if poly.Eval(p.X) != p.Y {
			return 0, ErrInconsistent
		}
	}
	return poly.Eval(0), nil
}

// RobustResult is the outcome of robust reconstruction.
type RobustResult struct {
	Secret field.Element
	// Faulty lists provider indices whose shares did not lie on the winning
	// polynomial, sorted ascending.
	Faulty []int
	// Agreeing is the number of shares consistent with the winning
	// polynomial.
	Agreeing int
}

// ReconstructRobust recovers the secret in the presence of corrupted
// shares and identifies the corrupting providers. It searches k-subsets of
// the provided shares for the polynomial consistent with the largest number
// of shares; unambiguous decoding requires that honest shares outnumber the
// corrupted ones in the sense n_honest >= k + n_faulty (the Reed–Solomon
// unique-decoding bound). The search is combinatorial but n is the number
// of service providers — a small constant in any deployment.
func (s *Scheme) ReconstructRobust(shares []Share) (RobustResult, error) {
	if len(shares) < s.k {
		return RobustResult{}, fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(shares), s.k)
	}
	pts, err := s.points(shares)
	if err != nil {
		return RobustResult{}, err
	}
	n := len(pts)
	best := RobustResult{Agreeing: -1}
	bestAmbiguous := false

	idx := make([]int, s.k)
	for i := range idx {
		idx[i] = i
	}
	for {
		sub := make([]field.Point, s.k)
		for i, j := range idx {
			sub[i] = pts[j]
		}
		poly, err := field.Interpolate(sub)
		if err != nil {
			return RobustResult{}, err
		}
		agree := 0
		var faulty []int
		for i, p := range pts {
			if poly.Eval(p.X) == p.Y {
				agree++
			} else {
				faulty = append(faulty, shares[i].Index)
			}
		}
		secret := poly.Eval(0)
		if agree > best.Agreeing {
			best = RobustResult{Secret: secret, Faulty: faulty, Agreeing: agree}
			bestAmbiguous = false
		} else if agree == best.Agreeing && secret != best.Secret {
			bestAmbiguous = true
		}
		// Advance the combination.
		i := s.k - 1
		for i >= 0 && idx[i] == n-s.k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < s.k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	// A unique decoding needs the winning polynomial to cover strictly more
	// than (n + k - 1) / 2 shares... conservatively: agreeing shares must
	// exceed the number of disagreeing shares plus k-1, i.e.
	// agree >= k + (n - agree)  <=>  2*agree >= n + k.
	if bestAmbiguous || 2*best.Agreeing < len(pts)+s.k {
		return RobustResult{}, fmt.Errorf("%w: best agreement %d of %d (k=%d)",
			ErrUndecodable, best.Agreeing, len(pts), s.k)
	}
	sort.Ints(best.Faulty)
	return best, nil
}

// WeightsFor precomputes Lagrange reconstruction weights for a fixed subset
// of providers, so a client decoding many cells from the same k providers
// pays one multiply-add per share instead of a full interpolation.
// Combine the result with CombineShares.
func (s *Scheme) WeightsFor(indices []int) ([]field.Element, error) {
	if len(indices) < s.k {
		return nil, fmt.Errorf("%w: have %d providers, need %d", ErrTooFewShares, len(indices), s.k)
	}
	xs := make([]field.Element, len(indices))
	for i, idx := range indices {
		if idx < 0 || idx >= len(s.xs) {
			return nil, fmt.Errorf("%w: %d", ErrUnknownIndex, idx)
		}
		xs[i] = s.xs[idx]
	}
	return field.LagrangeCoefficientsAtZero(xs)
}

// CombineShares applies precomputed weights to share values.
func CombineShares(weights, ys []field.Element) (field.Element, error) {
	return field.CombineAtZero(weights, ys)
}

// SumShares adds share values element-wise; by linearity the result is a
// valid sharing of the sum of the underlying secrets, provided the true sum
// stays below the field modulus. This is the provider-side SUM primitive.
func SumShares(ys []field.Element) field.Element {
	var acc field.Element
	for _, y := range ys {
		acc = acc.Add(y)
	}
	return acc
}

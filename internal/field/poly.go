package field

import (
	"errors"
	"fmt"
	"io"
)

// Poly is a polynomial over GF(p) stored as coefficients in ascending
// degree order: Poly{c0, c1, c2} represents c0 + c1*x + c2*x^2. The constant
// term c0 carries the secret in Shamir's scheme.
type Poly []Element

// ErrDuplicatePoint reports repeated x-coordinates passed to interpolation.
var ErrDuplicatePoint = errors.New("field: duplicate x coordinate")

// ErrNoPoints reports an empty interpolation input.
var ErrNoPoints = errors.New("field: no interpolation points")

// NewRandomPoly returns a random polynomial of the given degree whose
// constant term is secret. The degree-k-1 polynomial is the core of a
// k-of-n sharing: any k evaluations determine it, k-1 reveal nothing.
// The leading coefficient is forced non-zero so the polynomial has exactly
// the requested degree.
func NewRandomPoly(secret Element, degree int, rnd io.Reader) (Poly, error) {
	if degree < 0 {
		return nil, fmt.Errorf("field: negative polynomial degree %d", degree)
	}
	p := make(Poly, degree+1)
	var buf [8]byte
	if err := p.Randomize(secret, rnd, buf[:]); err != nil {
		return nil, err
	}
	return p, nil
}

// Randomize overwrites p (non-empty) with what NewRandomPoly(secret,
// len(p)-1, rnd) returns, reading randomness through buf, 8 bytes of
// scratch: a caller that keeps p and buf shares a secret without allocating.
func (p Poly) Randomize(secret Element, rnd io.Reader, buf []byte) error {
	p[0] = secret
	for i := 1; i < len(p); i++ {
		for {
			c, err := randomVia(rnd, buf)
			if err != nil {
				return err
			}
			if p[i] = c; c != 0 || i < len(p)-1 {
				break
			}
		}
	}
	return nil
}

// Eval evaluates the polynomial at x using Horner's rule.
func (p Poly) Eval(x Element) Element {
	if len(p) == 0 {
		return 0
	}
	acc := p[len(p)-1]
	for i := len(p) - 2; i >= 0; i-- {
		acc = acc.Mul(x).Add(p[i])
	}
	return acc
}

// Degree returns the nominal degree of the polynomial (len-1); the empty
// polynomial has degree -1.
func (p Poly) Degree() int { return len(p) - 1 }

// Point is an evaluation (X, Y) of a polynomial, i.e. one share.
type Point struct {
	X Element
	Y Element
}

// InterpolateAtZero recovers p(0) from len(points) evaluations of a
// polynomial of degree < len(points) using the Lagrange basis evaluated at
// x = 0:
//
//	p(0) = Σ_i y_i · Π_{j≠i} x_j / (x_j − x_i)
//
// This is the reconstruction step of Shamir's scheme. All x coordinates
// must be distinct and non-zero (x = 0 would itself encode the secret).
func InterpolateAtZero(points []Point) (Element, error) {
	if len(points) == 0 {
		return 0, ErrNoPoints
	}
	for i, pi := range points {
		if pi.X == 0 {
			return 0, errors.New("field: interpolation point at x = 0")
		}
		for j := i + 1; j < len(points); j++ {
			if points[j].X == pi.X {
				return 0, fmt.Errorf("%w: x = %v", ErrDuplicatePoint, pi.X)
			}
		}
	}
	var secret Element
	for i, pi := range points {
		num := Element(1)
		den := Element(1)
		for j, pj := range points {
			if j == i {
				continue
			}
			num = num.Mul(pj.X)
			den = den.Mul(pj.X.Sub(pi.X))
		}
		secret = secret.Add(pi.Y.Mul(num.Div(den)))
	}
	return secret, nil
}

// LagrangeCoefficientsAtZero returns the weights w_i such that
// p(0) = Σ w_i · y_i for any polynomial of degree < len(xs) evaluated at
// the given distinct non-zero points. Precomputing the weights lets a
// client reconstruct many secrets shared at the same evaluation points
// (the common case: one polynomial per cell, one x per provider) with a
// single multiply-add per share.
func LagrangeCoefficientsAtZero(xs []Element) ([]Element, error) {
	if len(xs) == 0 {
		return nil, ErrNoPoints
	}
	for i, xi := range xs {
		if xi == 0 {
			return nil, errors.New("field: interpolation point at x = 0")
		}
		for j := i + 1; j < len(xs); j++ {
			if xs[j] == xi {
				return nil, fmt.Errorf("%w: x = %v", ErrDuplicatePoint, xi)
			}
		}
	}
	ws := make([]Element, len(xs))
	for i, xi := range xs {
		num := Element(1)
		den := Element(1)
		for j, xj := range xs {
			if j == i {
				continue
			}
			num = num.Mul(xj)
			den = den.Mul(xj.Sub(xi))
		}
		ws[i] = num.Div(den)
	}
	return ws, nil
}

// CombineAtZero applies precomputed Lagrange weights to share values.
// len(ws) must equal len(ys).
func CombineAtZero(ws, ys []Element) (Element, error) {
	if len(ws) != len(ys) {
		return 0, fmt.Errorf("field: %d weights for %d shares", len(ws), len(ys))
	}
	var acc Element
	for i, w := range ws {
		acc = acc.Add(w.Mul(ys[i]))
	}
	return acc, nil
}

// Interpolate recovers the full polynomial of degree < len(points) passing
// through the given points, via Newton's divided differences. It is used by
// the verification layer to check that n shares are consistent with a single
// degree-(k-1) polynomial.
func Interpolate(points []Point) (Poly, error) {
	n := len(points)
	if n == 0 {
		return nil, ErrNoPoints
	}
	for i := range points {
		for j := i + 1; j < n; j++ {
			if points[j].X == points[i].X {
				return nil, fmt.Errorf("%w: x = %v", ErrDuplicatePoint, points[i].X)
			}
		}
	}
	// Divided-difference coefficients.
	dd := make([]Element, n)
	for i := range dd {
		dd[i] = points[i].Y
	}
	for level := 1; level < n; level++ {
		for i := n - 1; i >= level; i-- {
			num := dd[i].Sub(dd[i-1])
			den := points[i].X.Sub(points[i-level].X)
			dd[i] = num.Div(den)
		}
	}
	// Expand the Newton form into monomial coefficients.
	poly := make(Poly, 1, n)
	poly[0] = dd[n-1]
	for i := n - 2; i >= 0; i-- {
		// poly = poly*(x - x_i) + dd[i]
		next := make(Poly, len(poly)+1)
		for d, c := range poly {
			next[d+1] = next[d+1].Add(c)
			next[d] = next[d].Sub(c.Mul(points[i].X))
		}
		next[0] = next[0].Add(dd[i])
		poly = next
	}
	// Trim leading zeros so Degree() reflects the true degree.
	for len(poly) > 1 && poly[len(poly)-1] == 0 {
		poly = poly[:len(poly)-1]
	}
	return poly, nil
}

// Package field implements arithmetic in the prime field GF(p) with
// p = 2^61 - 1 (a Mersenne prime), the algebraic substrate for Shamir
// secret sharing in sssdb.
//
// Elements are represented as uint64 values in the canonical range [0, p).
// The Mersenne structure of p makes modular reduction a couple of shifts and
// adds instead of a division, so sharing and reconstructing values is cheap —
// the property the paper leans on when it argues that secret sharing is
// computationally far cheaper than encryption.
package field

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Modulus is the field prime p = 2^61 - 1.
const Modulus uint64 = 1<<61 - 1

// MaxValue is the largest application value that can be embedded in the
// field without ambiguity. Values must be strictly less than the modulus.
const MaxValue uint64 = Modulus - 1

// Element is a field element in canonical form (0 <= e < Modulus).
type Element uint64

// ErrNotCanonical reports an input outside [0, Modulus).
var ErrNotCanonical = errors.New("field: value out of canonical range")

// New returns v as a field element, reducing it modulo p.
func New(v uint64) Element {
	return Element(reduce64(v))
}

// FromInt64 converts a (possibly negative) integer into the field, mapping
// negative values to their additive inverses.
func FromInt64(v int64) Element {
	if v >= 0 {
		return New(uint64(v))
	}
	return New(uint64(-v)).Neg()
}

// Uint64 returns the canonical representative of e.
func (e Element) Uint64() uint64 { return uint64(e) }

// IsZero reports whether e is the additive identity.
func (e Element) IsZero() bool { return e == 0 }

// String implements fmt.Stringer.
func (e Element) String() string { return fmt.Sprintf("%d", uint64(e)) }

// reduce64 brings an arbitrary uint64 into [0, p).
func reduce64(v uint64) uint64 {
	// v = hi*2^61 + lo with 2^61 ≡ 1 (mod p).
	v = (v >> 61) + (v & Modulus)
	if v >= Modulus {
		v -= Modulus
	}
	return v
}

// reduce128 reduces a 128-bit product hi:lo modulo p.
func reduce128(hi, lo uint64) uint64 {
	// hi*2^64 + lo ≡ hi*8 + (lo >> 61) + (lo & p)  (mod p),
	// because 2^64 = 8 * 2^61 ≡ 8 and 2^61 ≡ 1 (mod p).
	// Inputs come from products of canonical elements, so hi < 2^58 and
	// hi<<3 cannot overflow.
	r := (hi << 3) + (lo >> 61) + (lo & Modulus)
	r = (r >> 61) + (r & Modulus)
	if r >= Modulus {
		r -= Modulus
	}
	return r
}

// Add returns e + o in the field.
func (e Element) Add(o Element) Element {
	s := uint64(e) + uint64(o) // < 2^62, no overflow
	if s >= Modulus {
		s -= Modulus
	}
	return Element(s)
}

// Sub returns e - o in the field.
func (e Element) Sub(o Element) Element {
	d := uint64(e) - uint64(o)
	if uint64(e) < uint64(o) {
		d += Modulus
	}
	return Element(d)
}

// Neg returns the additive inverse of e.
func (e Element) Neg() Element {
	if e == 0 {
		return 0
	}
	return Element(Modulus - uint64(e))
}

// Mul returns e * o in the field.
func (e Element) Mul(o Element) Element {
	hi, lo := bits.Mul64(uint64(e), uint64(o))
	return Element(reduce128(hi, lo))
}

// Square returns e^2.
func (e Element) Square() Element { return e.Mul(e) }

// Pow returns e raised to the exponent by square-and-multiply.
func (e Element) Pow(exp uint64) Element {
	result := Element(1)
	base := e
	for exp > 0 {
		if exp&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Square()
		exp >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of e using Fermat's little theorem.
// Inverting zero is a programming error and panics.
func (e Element) Inv() Element {
	if e == 0 {
		panic("field: inverse of zero")
	}
	return e.Pow(Modulus - 2)
}

// Div returns e / o. Dividing by zero panics.
func (e Element) Div(o Element) Element { return e.Mul(o.Inv()) }

// Random returns a uniformly random field element drawn from r, which must
// supply cryptographically secure bytes when the element protects a secret.
func Random(r io.Reader) (Element, error) {
	var buf [8]byte
	return randomVia(r, buf[:])
}

// randomVia is Random reading through buf, 8 bytes of caller scratch: a
// buffer local to Random escapes through the Reader and is allocated per
// element, one the caller keeps is not.
func randomVia(r io.Reader, buf []byte) (Element, error) {
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, fmt.Errorf("field: reading randomness: %w", err)
		}
		// Take 61 bits; reject the two non-canonical values (p and p+1
		// cannot occur since we mask to 61 bits; only p itself can).
		v := uint64(buf[0])<<56 | uint64(buf[1])<<48 | uint64(buf[2])<<40 |
			uint64(buf[3])<<32 | uint64(buf[4])<<24 | uint64(buf[5])<<16 |
			uint64(buf[6])<<8 | uint64(buf[7])
		v &= Modulus // 61-bit mask; p itself is the single biased value
		if v != Modulus {
			return Element(v), nil
		}
	}
}

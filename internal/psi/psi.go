// Package psi implements the two private set-intersection approaches the
// paper contrasts in its cost anecdote (Sec. II-A): the encryption-based
// protocol of Agrawal, Evfimievski & Srikant — commutative exponentiation
// over a prime group, whose modexp cost is what made "10 documents at one
// site and 100 documents at another" take hours — and the secret-sharing /
// keyed-hash alternative in the spirit of the authors' Abacus system, where
// third-party providers match deterministic shares at hash-table speed.
//
// Both return the intersection as indices into the first party's set plus
// exact communication and compute accounting, so experiment E3 can
// reproduce the shape of the paper's numbers.
package psi

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"sssdb/internal/opp"
)

// Errors.
var (
	ErrBadParams = errors.New("psi: invalid parameters")
)

// Stats accounts one intersection run.
type Stats struct {
	// BytesExchanged counts every byte either party ships (including via
	// third-party providers).
	BytesExchanged int
	// ModExps counts modular exponentiations (the encryption protocol's
	// dominant cost; zero for the sharing protocol).
	ModExps int
	// HashOps counts keyed-hash evaluations.
	HashOps int
}

// --- Commutative-encryption PSI ---

// CEConfig configures the encryption-based protocol.
type CEConfig struct {
	// ModulusBits sizes the prime group (default 512; the original uses
	// 1024+, which only makes the paper's point stronger).
	ModulusBits int
	// Rand supplies protocol randomness (default crypto/rand.Reader).
	Rand io.Reader
}

// CommutativeIntersect runs the two-party commutative-exponentiation
// protocol: each party encrypts its hashed elements with a secret exponent,
// exchanges them, re-encrypts the other side's values, and intersects the
// doubly-encrypted sets. Returns indices into a of the common elements.
func CommutativeIntersect(a, b [][]byte, cfg CEConfig) ([]int, Stats, error) {
	if cfg.ModulusBits == 0 {
		cfg.ModulusBits = 512
	}
	if cfg.ModulusBits < 128 || cfg.ModulusBits > 4096 {
		return nil, Stats{}, fmt.Errorf("%w: modulus bits %d", ErrBadParams, cfg.ModulusBits)
	}
	rnd := cfg.Rand
	if rnd == nil {
		rnd = rand.Reader
	}
	p, err := rand.Prime(rnd, cfg.ModulusBits)
	if err != nil {
		return nil, Stats{}, err
	}
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	expOf := func() (*big.Int, error) {
		// Exponent invertible mod p-1 so encryption is injective.
		for {
			e, err := rand.Int(rnd, pm1)
			if err != nil {
				return nil, err
			}
			if e.Sign() == 0 {
				continue
			}
			if new(big.Int).GCD(nil, nil, e, pm1).Cmp(big.NewInt(1)) == 0 {
				return e, nil
			}
		}
	}
	ea, err := expOf()
	if err != nil {
		return nil, Stats{}, err
	}
	eb, err := expOf()
	if err != nil {
		return nil, Stats{}, err
	}
	hash := func(x []byte) *big.Int {
		sum := sha256.Sum256(x)
		h := new(big.Int).SetBytes(sum[:])
		h.Mod(h, p)
		if h.Sign() == 0 {
			h.SetInt64(2)
		}
		return h
	}
	elem := (cfg.ModulusBits + 7) / 8
	var stats Stats

	// Party A: h(x)^ea, shipped to B.
	encA := make([]*big.Int, len(a))
	for i, x := range a {
		encA[i] = new(big.Int).Exp(hash(x), ea, p)
		stats.ModExps++
		stats.HashOps++
	}
	stats.BytesExchanged += len(a) * elem
	// Party B: h(y)^eb, shipped to A.
	encB := make([]*big.Int, len(b))
	for i, y := range b {
		encB[i] = new(big.Int).Exp(hash(y), eb, p)
		stats.ModExps++
		stats.HashOps++
	}
	stats.BytesExchanged += len(b) * elem
	// B re-encrypts A's values and ships them back: h(x)^(ea·eb).
	doubleA := make(map[string]int, len(a))
	for i, v := range encA {
		d := new(big.Int).Exp(v, eb, p)
		stats.ModExps++
		doubleA[string(d.Bytes())] = i
	}
	stats.BytesExchanged += len(a) * elem
	// A re-encrypts B's values locally: h(y)^(eb·ea).
	var out []int
	for _, v := range encB {
		d := new(big.Int).Exp(v, ea, p)
		stats.ModExps++
		if i, ok := doubleA[string(d.Bytes())]; ok {
			out = append(out, i)
		}
	}
	return out, stats, nil
}

// --- Secret-sharing PSI ---

// SSConfig configures the sharing-based protocol.
type SSConfig struct {
	// Providers is the number of third parties (n); default 3.
	Providers int
	// SharedKey is the keyed-hash secret both parties hold; providers do
	// not. Required.
	SharedKey []byte
}

// ShareIntersect runs the third-party sharing protocol: both parties map
// elements through a shared keyed hash into a 61-bit domain, split each
// digest into deterministic order-preserving shares (one per provider), and
// ship them. Each provider reports which share pairs match; the parties
// accept an element as common when every provider agrees. No provider sees
// values or digests — only shares that reveal equality (exactly what the
// match requires) and order.
func ShareIntersect(a, b [][]byte, cfg SSConfig) ([]int, Stats, error) {
	if cfg.Providers == 0 {
		cfg.Providers = 3
	}
	if cfg.Providers < 1 || cfg.Providers > 64 {
		return nil, Stats{}, fmt.Errorf("%w: %d providers", ErrBadParams, cfg.Providers)
	}
	if len(cfg.SharedKey) == 0 {
		return nil, Stats{}, fmt.Errorf("%w: empty shared key", ErrBadParams)
	}
	scheme, err := opp.NewScheme(opp.Params{
		Degree:     3,
		DomainBits: 61,
		N:          cfg.Providers,
	}, cfg.SharedKey)
	if err != nil {
		return nil, Stats{}, err
	}
	var stats Stats
	digest := func(x []byte) uint64 {
		mac := hmac.New(sha256.New, cfg.SharedKey)
		mac.Write([]byte("psi/element"))
		mac.Write(x)
		stats.HashOps++
		return binary.BigEndian.Uint64(mac.Sum(nil)[:8]) & (uint64(1)<<61 - 1)
	}
	// Shares per provider for both sets.
	type providerView struct {
		a map[opp.Share][]int // share -> indices in a
		b []opp.Share
	}
	views := make([]providerView, cfg.Providers)
	for i := range views {
		views[i].a = make(map[opp.Share][]int, len(a))
	}
	for idx, x := range a {
		shares, err := scheme.Split(digest(x))
		if err != nil {
			return nil, Stats{}, err
		}
		for i, sh := range shares {
			views[i].a[sh] = append(views[i].a[sh], idx)
		}
		stats.BytesExchanged += cfg.Providers * scheme.Width()
	}
	for _, y := range b {
		shares, err := scheme.Split(digest(y))
		if err != nil {
			return nil, Stats{}, err
		}
		for i, sh := range shares {
			views[i].b = append(views[i].b, sh)
		}
		stats.BytesExchanged += cfg.Providers * scheme.Width()
	}
	// Providers report matches; accept indices every provider reported.
	counts := make(map[int]int)
	for i := range views {
		seen := make(map[int]bool)
		for _, sh := range views[i].b {
			for _, idx := range views[i].a[sh] {
				if !seen[idx] {
					seen[idx] = true
					counts[idx]++
				}
			}
		}
		// Each provider ships its match report back (4 bytes per match).
		stats.BytesExchanged += 4 * len(seen)
	}
	var out []int
	for idx, c := range counts {
		if c == cfg.Providers {
			out = append(out, idx)
		}
	}
	sortInts(out)
	return out, stats, nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

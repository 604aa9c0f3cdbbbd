package opp

import (
	"encoding/hex"
	"testing"
)

// TestShareVectors pins the bytes of shares under a fixed key. Providers
// persist shares and a re-attached client re-derives its filter bounds from
// the catalog, so a change to the derivation (the HMAC input, the slot
// arithmetic, the evaluation points or the serialized width) breaks every
// stored table; this test is where such a change shows. The schemes are the
// client's defaults at N = 3: INT/DECIMAL (degree 3, 40 bits) and
// VARCHAR(8) over its 64-symbol alphabet (8·6 = 48 bits). The domain width
// enters only the bound and the serialized width, not the HMAC, so the two
// schemes agree on small values up to their width.
func TestShareVectors(t *testing.T) {
	key := []byte("sssdb/opp share vectors")
	points := []uint64{969, 421, 217} // derived from the key alone
	for _, tc := range []struct {
		name string
		bits uint
		want map[uint64][3]string
	}{
		{"INT", 40, map[uint64][3]string{
			0:         {"000000000028f46aa5c5e7843a", "0000000000035d3f824d7cfa66", "0000000000007642d1f6bc518a"},
			1:         {"000000000058c393ee064c2584", "0000000000074a9bcd0c68f7a0", "000000000001004d8663cdc694"},
			7:         {"000000000199abcbd50dfb139c", "000000000021a4bef069deef54", "0000000000049e1d393d4497bc"},
			1 << 20:   {"0000036499a06dd61818cd78b3", "0000004754c61e955c4c8f8e33", "00000009ca413f4416b21ae0b3"},
			1<<40 - 1: {"364999b2ffe8340e366ad2f76a", "04754c5afffe0bae4e683e70b6", "009ca412ffffbb539fe169607a"},
		}},
		{"VARCHAR(8)", 48, map[uint64][3]string{
			0:         {"00000000000028f46aa5c5e7843a", "000000000000035d3f824d7cfa66", "000000000000007642d1f6bc518a"},
			1:         {"00000000000058c393ee064c2584", "000000000000074a9bcd0c68f7a0", "00000000000001004d8663cdc694"},
			7:         {"00000000000199abcbd50dfb139c", "00000000000021a4bef069deef54", "000000000000049e1d393d4497bc"},
			1 << 20:   {"000000036499a06dd61818cd78b3", "000000004754c61e955c4c8f8e33", "0000000009ca413f4416b21ae0b3"},
			1<<48 - 1: {"364999b2ffffd157ba5a6f69c821", "04754c5afffffc2c36673df79a85", "009ca412ffffff7a6e32631055d1"},
		}},
	} {
		s, err := NewScheme(Params{Degree: 3, DomainBits: tc.bits, N: 3}, key)
		if err != nil {
			t.Fatal(err)
		}
		for p, want := range points {
			if x, _ := s.EvalPoint(p); x != want {
				t.Errorf("%s: evaluation point %d = %d, want %d", tc.name, p, x, want)
			}
		}
		out := make([]Share, s.N())
		for v, want := range tc.want {
			if err := s.SplitInto(out, v); err != nil {
				t.Fatal(err)
			}
			for p := range want {
				sh, err := s.ShareAt(v, p)
				if err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(s.AppendShare(nil, sh)); got != want[p] {
					t.Errorf("%s: ShareAt(%d, %d) = %s, want %s", tc.name, v, p, got, want[p])
				}
				if got := hex.EncodeToString(s.AppendShare(nil, out[p])); got != want[p] {
					t.Errorf("%s: SplitInto(%d)[%d] = %s, want %s", tc.name, v, p, got, want[p])
				}
			}
		}
	}
}

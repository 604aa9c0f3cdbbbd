package client

import (
	"errors"
	"testing"
	"testing/quick"

	"sssdb/internal/sql"
)

// metaClient builds a client (providers unused) for codec-level tests.
func metaClient(t *testing.T) *Client {
	t.Helper()
	f := newFleet(t, 2, 2, Options{})
	return f.client
}

func TestBuildColMetaTypes(t *testing.T) {
	c := metaClient(t)
	cases := []struct {
		def  sql.ColumnDef
		ok   bool
		bits uint
	}{
		{sql.ColumnDef{Name: "a", Type: sql.TypeInt}, true, 40},
		{sql.ColumnDef{Name: "b", Type: sql.TypeDecimal, Arg: 2}, true, 40},
		{sql.ColumnDef{Name: "c", Type: sql.TypeVarchar, Arg: 8}, true, 48},
		{sql.ColumnDef{Name: "d", Type: sql.TypeBlob}, true, 0},
		{sql.ColumnDef{Name: "e", Type: sql.TypeDecimal, Arg: 13}, false, 0},
		{sql.ColumnDef{Name: "f", Type: sql.TypeVarchar, Arg: 0}, false, 0},
		{sql.ColumnDef{Name: "g", Type: sql.TypeVarchar, Arg: 99}, false, 0},
		{sql.ColumnDef{Name: "h", Type: 0}, false, 0},
	}
	for _, tc := range cases {
		cm, err := c.buildColMeta(tc.def)
		if tc.ok && err != nil {
			t.Errorf("%v: %v", tc.def, err)
			continue
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%v accepted", tc.def)
			}
			continue
		}
		if tc.def.Type != sql.TypeBlob && cm.bits != tc.bits {
			t.Errorf("%v: bits = %d, want %d", tc.def, cm.bits, tc.bits)
		}
		if tc.def.Type == sql.TypeBlob && cm.queryable() {
			t.Errorf("blob column is queryable")
		}
	}
}

func TestColMetaEncodeDecodeRoundTrip(t *testing.T) {
	c := metaClient(t)
	intCM, err := c.buildColMeta(sql.ColumnDef{Name: "i", Type: sql.TypeInt})
	if err != nil {
		t.Fatal(err)
	}
	decCM, err := c.buildColMeta(sql.ColumnDef{Name: "d", Type: sql.TypeDecimal, Arg: 3})
	if err != nil {
		t.Fatal(err)
	}
	strCM, err := c.buildColMeta(sql.ColumnDef{Name: "s", Type: sql.TypeVarchar, Arg: 6})
	if err != nil {
		t.Fatal(err)
	}

	intProp := func(v int32) bool {
		u, err := intCM.encode(IntValue(int64(v)))
		if err != nil {
			return false
		}
		back, err := intCM.decode(u)
		return err == nil && back.Kind == KindInt && back.I == int64(v)
	}
	if err := quick.Check(intProp, &quick.Config{MaxCount: 500}); err != nil {
		t.Error("int round trip:", err)
	}
	decProp := func(v int32) bool {
		u, err := decCM.encode(DecimalValue(int64(v), 3))
		if err != nil {
			return false
		}
		back, err := decCM.decode(u)
		return err == nil && back.Kind == KindDecimal && back.I == int64(v) && back.Scale == 3
	}
	if err := quick.Check(decProp, &quick.Config{MaxCount: 500}); err != nil {
		t.Error("decimal round trip:", err)
	}
	for _, s := range []string{"", "a", "abc", "ABC", "z9_Z"} {
		u, err := strCM.encode(StringValue(s))
		if err != nil {
			t.Fatalf("encode %q: %v", s, err)
		}
		back, err := strCM.decode(u)
		if err != nil || back.S != s {
			t.Fatalf("decode %q -> %q (%v)", s, back.S, err)
		}
	}
}

func TestColMetaEncodeTypeMismatch(t *testing.T) {
	c := metaClient(t)
	intCM, _ := c.buildColMeta(sql.ColumnDef{Name: "i", Type: sql.TypeInt})
	strCM, _ := c.buildColMeta(sql.ColumnDef{Name: "s", Type: sql.TypeVarchar, Arg: 4})
	blobCM, _ := c.buildColMeta(sql.ColumnDef{Name: "b", Type: sql.TypeBlob})
	if _, err := intCM.encode(StringValue("x")); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("int <- string: %v", err)
	}
	if _, err := strCM.encode(IntValue(1)); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("string <- int: %v", err)
	}
	if _, err := blobCM.encode(BytesValue([]byte{1})); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("blob encode: %v", err)
	}
	if _, err := blobCM.decode(0); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("blob decode: %v", err)
	}
}

// Same-typed columns across tables share a domain; differently-parameterized
// ones do not — the invariant behind provider-side joins.
func TestDomainSignatures(t *testing.T) {
	c := metaClient(t)
	a, _ := c.buildColMeta(sql.ColumnDef{Name: "a", Type: sql.TypeInt})
	b, _ := c.buildColMeta(sql.ColumnDef{Name: "b", Type: sql.TypeInt})
	if a.domain != b.domain {
		t.Fatal("two INT columns have different domains")
	}
	if a.oppSch != b.oppSch {
		t.Fatal("same domain should share one OPP scheme instance")
	}
	v8, _ := c.buildColMeta(sql.ColumnDef{Name: "v", Type: sql.TypeVarchar, Arg: 8})
	v10, _ := c.buildColMeta(sql.ColumnDef{Name: "w", Type: sql.TypeVarchar, Arg: 10})
	if v8.domain == v10.domain {
		t.Fatal("different widths share a domain")
	}
	d2, _ := c.buildColMeta(sql.ColumnDef{Name: "x", Type: sql.TypeDecimal, Arg: 2})
	d3, _ := c.buildColMeta(sql.ColumnDef{Name: "y", Type: sql.TypeDecimal, Arg: 3})
	if d2.domain == d3.domain {
		t.Fatal("different scales share a domain")
	}
	if a.domain == d2.domain || a.domain == v8.domain {
		t.Fatal("different types share a domain")
	}
}

func TestValueFormatAndEqual(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{IntValue(-5), "-5"},
		{DecimalValue(-325, 2), "-3.25"},
		{DecimalValue(5, 2), "0.05"},
		{DecimalValue(42, 0), "42"},
		{StringValue("hi"), "hi"},
		{BytesValue([]byte{0xde, 0xad}), "0xdead"},
		{Value{}, "<invalid>"},
	}
	for _, tc := range cases {
		if got := tc.v.Format(); got != tc.want {
			t.Errorf("Format(%+v) = %q, want %q", tc.v, got, tc.want)
		}
	}
	if !IntValue(5).Equal(IntValue(5)) || IntValue(5).Equal(IntValue(6)) {
		t.Error("int equality")
	}
	if IntValue(5).Equal(StringValue("5")) {
		t.Error("cross-kind equality")
	}
	if !DecimalValue(100, 2).Equal(DecimalValue(100, 2)) || DecimalValue(100, 2).Equal(DecimalValue(100, 3)) {
		t.Error("decimal equality")
	}
	if !BytesValue([]byte{1}).Equal(BytesValue([]byte{1})) || BytesValue([]byte{1}).Equal(BytesValue([]byte{2})) {
		t.Error("bytes equality")
	}
}

package sql

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"strings"
	"testing"
)

// Parse must never panic, whatever the input. This randomized test mutates
// valid statements and also feeds pure noise.
func TestParseNeverPanics(t *testing.T) {
	seeds := []string{
		`SELECT name, salary FROM employees WHERE salary BETWEEN 10000 AND 40000 AND dept = 7 LIMIT 50 VERIFIED`,
		`CREATE PUBLIC TABLE t (a VARCHAR(10), b DECIMAL(2), c INT, d BLOB)`,
		`INSERT INTO t VALUES ('x', 1.5, -3, 'p'), ('y', 2.5, 4, 'q')`,
		`SELECT employees.a, m.b FROM employees JOIN m ON employees.k = m.k`,
		`UPDATE t SET a = 'z', b = 9.99 WHERE c >= 0`,
		`DELETE FROM t WHERE a LIKE 'AB%'`,
		`SELECT COUNT(*), SUM(x), MEDIAN(y) FROM t`,
		`SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) >= 2 AND SUM(v) BETWEEN 1 AND 9`,
		`SELECT a FROM t WHERE v IN (1, -2, 3.5) ORDER BY a DESC LIMIT 7`,
		`EXPLAIN SELECT a FROM t WHERE b IN (1, 2) AND c LIKE 'X%'`,
	}
	rng := mrand.New(mrand.NewSource(2024))
	alphabet := `abcXYZ019'"%().,*<>=- ;` + "\t\n"
	for trial := 0; trial < 20_000; trial++ {
		var input string
		if trial%3 == 0 {
			// Pure noise.
			n := rng.Intn(60)
			var sb strings.Builder
			for i := 0; i < n; i++ {
				sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			input = sb.String()
		} else {
			// Mutate a valid statement: random splice, delete, or swap.
			base := []byte(seeds[rng.Intn(len(seeds))])
			for m := 0; m < 1+rng.Intn(4); m++ {
				if len(base) == 0 {
					break
				}
				switch rng.Intn(3) {
				case 0:
					base[rng.Intn(len(base))] = alphabet[rng.Intn(len(alphabet))]
				case 1:
					i := rng.Intn(len(base))
					base = append(base[:i], base[i+1:]...)
				case 2:
					i := rng.Intn(len(base))
					base = append(base[:i], append([]byte{alphabet[rng.Intn(len(alphabet))]}, base[i:]...)...)
				}
			}
			input = string(base)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", input, r)
				}
			}()
			_, _ = Parse(input)
		}()
	}
}

// FuzzParse feeds arbitrary text to the lexer and the parser, starting from
// the corpus under testdata/fuzz/FuzzParse (TestParseNeverPanics' statements
// and the transaction keywords). Neither may panic; every token and every
// syntax error must point into the input (EOF at its end); and the same input
// must give the same statement or the same error again.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		toks, _ := Lex(input)
		for _, tok := range toks {
			if tok.Pos < 0 || tok.Pos > len(input) {
				t.Fatalf("Lex(%q): token %q at position %d", input, tok.Text, tok.Pos)
			}
		}
		stmt, err := Parse(input)
		var se *SyntaxError
		if errors.As(err, &se) && (se.Pos < 0 || se.Pos > len(input)) {
			t.Fatalf("Parse(%q): error at position %d: %v", input, se.Pos, err)
		}
		again, errAgain := Parse(input)
		if !reflect.DeepEqual(stmt, again) || fmt.Sprint(err) != fmt.Sprint(errAgain) {
			t.Fatalf("Parse(%q) gave %#v, %v and then %#v, %v", input, stmt, err, again, errAgain)
		}
	})
}

// Lex positions must be within the input, so error messages point at real
// offsets.
func TestLexPositions(t *testing.T) {
	input := `SELECT a FROM t WHERE b = 'str' AND c <= 42.5`
	toks, err := Lex(input)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Pos < 0 || tok.Pos > len(input) {
			t.Fatalf("token %q at impossible position %d", tok.Text, tok.Pos)
		}
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Fatal("missing EOF token")
	}
}

// Keywords are case-insensitive; identifiers keep their case.
func TestCaseInsensitiveKeywords(t *testing.T) {
	stmt, err := Parse(`select Name from Employees where Salary between 1 and 2`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	if sel.Table != "Employees" || sel.Items[0].Col.Name != "Name" {
		t.Fatalf("identifier case mangled: %#v", sel)
	}
	if sel.Where[0].Col.Name != "Salary" || sel.Where[0].Op != OpBetween {
		t.Fatalf("where: %#v", sel.Where)
	}
}

// Statements survive semicolons and surrounding whitespace.
func TestTrailingSemicolonAndWhitespace(t *testing.T) {
	for _, q := range []string{
		"SELECT a FROM t;",
		"  SELECT a FROM t  ;  ",
		"\n\tSELECT a FROM t\n;\n",
	} {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}

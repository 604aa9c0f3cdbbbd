package bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every experiment the harness can run must be documented: DESIGN.md (the
// inventory) and EXPERIMENTS.md (claims vs measured) may not silently drift
// from the code.
func TestExperimentsAreDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	experiments, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	both := string(design) + string(experiments)
	for _, r := range All() {
		if !strings.Contains(both, r.ID) {
			t.Errorf("experiment %s (%s) is not mentioned in DESIGN.md or EXPERIMENTS.md", r.ID, r.Doc)
		}
	}
	// And the experiment ids E1..E15 from the paper index all exist in code.
	ids := map[string]bool{}
	for _, r := range All() {
		ids[r.ID] = true
	}
	for i := 1; i <= 15; i++ {
		id := "E" + itoa(i)
		if !ids[id] {
			t.Errorf("paper experiment %s missing from the harness", id)
		}
	}
	// And every experiment DESIGN.md's inventory paragraph names is one the
	// harness runs, so the inventory cannot keep listing a deleted suite.
	_, inventory, ok := strings.Cut(string(design), "Beyond E1–E15")
	if !ok {
		t.Fatal(`DESIGN.md has no "Beyond E1–E15" inventory paragraph`)
	}
	inventory, _, _ = strings.Cut(inventory, "\n\n")
	for _, id := range regexp.MustCompile(`\b[EAS]\d+\b`).FindAllString(inventory, -1) {
		if !ids[id] {
			t.Errorf("DESIGN.md's inventory names %s, which the harness does not run", id)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// The serialized width of an order-preserving share is derived from its
// scheme (opp.Scheme.Width) and reaches everything else as data
// (proto.ColumnSpec.Width): outside internal/opp no shipped code may name a
// share size constant or write the old 24-byte cell width as a literal.
func TestShareWidthIsDerivedNotWritten(t *testing.T) {
	literal := regexp.MustCompile(`\b24\b`)
	shift := regexp.MustCompile(`<<\s*24\b`) // a shift count is not a width
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// benchmark/ is a frozen module of its own; its synthetic btree probe
		// still builds 24+8-byte keys.
		if d.IsDir() && (d.Name() == "opp" || d.Name() == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if strings.Contains(code, "ShareSize") || strings.Contains(code, "oppCellSize") || literal.MatchString(shift.ReplaceAllString(code, "")) {
				t.Errorf("%s:%d writes a share width: %s", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil || files < 50 {
		t.Fatalf("walked %d source files: %v", files, err)
	}
}

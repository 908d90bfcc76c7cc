package analysis

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 8 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want the full suite of 8", len(all), err)
	}
	subset, err := ByName("floatcmp, lockcheck")
	if err != nil || len(subset) != 2 || subset[0].Name != "floatcmp" || subset[1].Name != "lockcheck" {
		t.Fatalf("ByName subset = %v, err %v", subset, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
}

func TestIgnoreDirectiveForms(t *testing.T) {
	// A bare directive (no analyzer list) suppresses every analyzer, and
	// a list with several names suppresses exactly those.
	src := `package fixture
import "math/rand"
func f(a, b float64) bool {
	//modelcheck:ignore
	rand.Seed(1)
	return a == b //modelcheck:ignore floatcmp,seedhygiene
}
`
	pkg, err := LoadSource("fixture.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if fs := RunAnalyzers([]*Package{pkg}, All()); len(fs) != 0 {
		t.Fatalf("expected full suppression, got %v", fs)
	}
}

func TestIgnoreDirectiveDoesNotLeakToLaterLines(t *testing.T) {
	src := `package fixture
func f(a, b float64) bool {
	//modelcheck:ignore floatcmp
	ok := a == b
	bad := a != b
	return ok && bad
}
`
	sameLines(t, runOnSource(t, FloatCmp, "fixture.go", src), 5)
}

func TestFindingRendering(t *testing.T) {
	fs := runOnSource(t, FloatCmp, "fixture.go", `package fixture
func f(a, b float64) bool { return a == b }
`)
	if len(fs) != 1 {
		t.Fatalf("want 1 finding, got %v", fs)
	}
	s := fs[0].String()
	if !strings.Contains(s, "fixture.go:2:") || !strings.Contains(s, "[floatcmp]") {
		t.Fatalf("rendered finding %q lacks position or analyzer tag", s)
	}
	data, err := json.Marshal(fs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"analyzer":"floatcmp"`, `"file":`, `"line":2`, `"severity":"error"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("JSON %s lacks %s", data, key)
		}
	}
}

func TestLoadModulePatterns(t *testing.T) {
	files := map[string]string{
		"internal/a/a.go":  "package a\n\nfunc A() int { return 1 }\n",
		"internal/b/b.go":  "package b\n\nimport \"fixturemod/internal/a\"\n\nfunc B() int { return a.A() }\n",
		"cmd/tool/main.go": "package main\n\nimport \"fixturemod/internal/b\"\n\nfunc main() { _ = b.B() }\n",
	}
	pkgs := loadTempModule(t, files)
	if len(pkgs) != 3 {
		t.Fatalf("Load ./... = %d packages, want 3", len(pkgs))
	}
	// Dependency order: a before b before cmd/tool.
	index := map[string]int{}
	for i, p := range pkgs {
		index[p.Path] = i
	}
	if !(index["fixturemod/internal/a"] < index["fixturemod/internal/b"] &&
		index["fixturemod/internal/b"] < index["fixturemod/cmd/tool"]) {
		t.Fatalf("packages not in dependency order: %v", index)
	}
	// Subtree pattern selects only the subtree, while dependencies still
	// resolve.
	dir := pkgs[0].Dir // .../internal/a
	root := strings.TrimSuffix(strings.TrimSuffix(dir, "/a"), "/internal")
	sub, err := Load(LoadConfig{Dir: root}, "./internal/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || sub[0].Path != "fixturemod/internal/b" {
		t.Fatalf("Load ./internal/b = %v", sub)
	}
}

// A nested module is not part of ./..., as with the go tool.
func TestLoadSkipsNestedModule(t *testing.T) {
	files := map[string]string{
		"a/a.go":        "package a\n\nfunc A() int { return 1 }\n",
		"nested/go.mod": "module nested\n\ngo 1.22\n",
		"nested/bad.go": "package nested\n\nfunc Broken() int { return undefinedSymbol }\n",
		"nested/x/x.go": "package x\n\nfunc X() int { return 2 }\n",
	}
	pkgs := loadTempModule(t, files)
	if len(pkgs) != 1 || pkgs[0].Path != "fixturemod/a" {
		t.Fatalf("Load ./... = %v, want only fixturemod/a", pkgs)
	}
}

func TestLoadRejectsBrokenSource(t *testing.T) {
	files := map[string]string{
		"bad/bad.go": "package bad\n\nfunc Broken() int { return undefinedSymbol }\n",
	}
	dir := t.TempDir()
	writeFixtureModule(t, dir, files)
	if _, err := Load(LoadConfig{Dir: dir}, "./..."); err == nil {
		t.Fatal("Load should surface type errors")
	}
}

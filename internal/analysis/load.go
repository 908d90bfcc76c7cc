package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed, type-checked package of the module.
type Package struct {
	Path  string // import path, e.g. "repro/internal/core"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// LoadConfig controls module loading.
type LoadConfig struct {
	// Dir is any directory inside the module; the loader ascends to go.mod.
	Dir string
	// IncludeTests adds _test.go files: in-package test files join their
	// package, and external test packages (package foo_test) are loaded as
	// their own packages under the import path "<pkg>_test".
	//
	// Directive-density policy: test packages meet the same analyzer bar
	// as production code, and the pressure valve is the same one —
	// //modelcheck:ignore with a written justification. Tests legitimately
	// do things the analyzers dislike (exact float comparisons against
	// golden values, fixed seeds, deliberately invalid params), so some
	// directive density in test files is expected; what is not acceptable
	// is a bare directive without a reason, or ignoring whole files. If a
	// test file accumulates so many directives that they drown out the
	// code, the analyzer's test exemptions (see floatcmp's golden-value
	// rule) should grow instead.
	IncludeTests bool
	// NoCache disables the on-disk export-data cache (.modelcheck-cache/)
	// and type-checks the standard library from source instead. The cache
	// only changes load time, never findings; see cache.go.
	NoCache bool
}

// Load parses and type-checks every package of the module that matches one
// of the patterns, in dependency order. Supported patterns are "./...",
// "dir/..." and plain relative directories, mirroring the go tool. All
// local packages are always type-checked (dependencies must resolve); the
// patterns only select which packages are returned for analysis.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, modPath, err := findModule(cfg.Dir)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	nodes, err := discover(fset, root, modPath, cfg.IncludeTests)
	if err != nil {
		return nil, err
	}
	order, err := topoSort(nodes)
	if err != nil {
		return nil, err
	}

	// Non-module imports resolve through the export-data cache when it
	// covers every import the sources mention (deserializing compiled type
	// summaries instead of re-type-checking the stdlib from source), and
	// through one shared source importer otherwise. Never a mix: the two
	// importers produce distinct types.Package identities.
	var fallback types.Importer
	if !cfg.NoCache {
		//modelcheck:ignore errdrop — a failed cache (no go tool, uncovered import) falls back to the source importer by design
		fallback, _ = newExportImporter(fset, root, externalImports(nodes))
	}
	if fallback == nil {
		fallback = importer.ForCompiler(fset, "source", nil)
	}
	imp := &moduleImporter{
		local:    map[string]*types.Package{},
		fallback: fallback,
	}

	var pkgs []*Package
	for _, node := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(node.path, fset, node.files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", node.path, err)
		}
		imp.local[node.path] = tpkg
		pkgs = append(pkgs, &Package{
			Path:  node.path,
			Dir:   node.dir,
			Fset:  fset,
			Files: node.files,
			Types: tpkg,
			Info:  info,
		})
	}

	var out []*Package
	for _, p := range pkgs {
		if matchAny(patterns, root, modPath, p) {
			out = append(out, p)
		}
	}
	return out, nil
}

// LoadSource type-checks a single in-memory file as its own package; it is
// the fixture entry point for analyzer tests. Imports are restricted to the
// standard library. The package's import path is the filename's directory
// when it has one (so fixtures can pose as e.g. "internal/core"), else the
// filename without extension.
func LoadSource(filename, src string) (*Package, error) {
	sourceMu.Lock()
	defer sourceMu.Unlock()
	fset := sourceFset
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: sourceImp}
	path := strings.TrimSuffix(filename, ".go")
	if dir := filepath.ToSlash(filepath.Dir(filename)); dir != "." {
		path = dir
	}
	tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:  path,
		Fset:  fset,
		Files: []*ast.File{f},
		Types: tpkg,
		Info:  info,
	}, nil
}

// sourceFset and sourceImp back LoadSource: one shared importer caches the
// type-checked standard library across fixture loads (the source importer
// is not goroutine-safe, hence the mutex).
var (
	sourceMu   sync.Mutex
	sourceFset = token.NewFileSet()
	sourceImp  = importer.ForCompiler(sourceFset, "source", nil)
)

// ModuleRoot resolves the module root directory enclosing dir — the
// directory callers hand to BuildModuleCached so the summary cache lands
// next to the export cache.
func ModuleRoot(dir string) (string, error) {
	root, _, err := findModule(dir)
	return root, err
}

// findModule ascends from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		d = parent
	}
}

// pkgNode is a discovered package before type-checking.
type pkgNode struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string // local (module-internal) imports only
}

// discover walks the module tree and parses every package.
func discover(fset *token.FileSet, root, modPath string, includeTests bool) (map[string]*pkgNode, error) {
	nodes := map[string]*pkgNode{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" || name == "scripts") {
				return filepath.SkipDir
			}
			// A directory with its own go.mod is another module, which
			// the go tool's ./... leaves out too.
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") && !includeTests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("analysis: parsing %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			// An external test package lives in the same directory as the
			// package under test but is a distinct package; give it a
			// distinct node under the go-tool's "<pkg>_test" naming.
			importPath += "_test"
		}
		node := nodes[importPath]
		if node == nil {
			node = &pkgNode{path: importPath, dir: filepath.Dir(path)}
			nodes[importPath] = node
		}
		node.files = append(node.files, f)
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == modPath || strings.HasPrefix(p, modPath+"/") {
				node.imports = append(node.imports, p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Deterministic file order within each package.
	for _, node := range nodes {
		sort.Slice(node.files, func(i, j int) bool {
			return fset.Position(node.files[i].Pos()).Filename <
				fset.Position(node.files[j].Pos()).Filename
		})
	}
	return nodes, nil
}

// externalImports collects every non-module import path mentioned by the
// discovered sources — the set the export cache must cover.
func externalImports(nodes map[string]*pkgNode) map[string]bool {
	out := map[string]bool{}
	for _, node := range nodes {
		for _, f := range node.files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == "C" {
					continue // cgo pseudo-import; the module has none
				}
				out[p] = true
			}
		}
		for _, p := range node.imports {
			delete(out, p) // module-internal: resolved locally, not via cache
		}
	}
	return out
}

// topoSort orders packages so every package follows its local imports.
func topoSort(nodes map[string]*pkgNode) ([]*pkgNode, error) {
	var order []*pkgNode
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string, trail []string) error
	visit = func(path string, trail []string) error {
		node, ok := nodes[path]
		if !ok {
			return nil // import of a module path with no Go files; types will complain
		}
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle: %s", strings.Join(append(trail, path), " -> "))
		case 2:
			return nil
		}
		state[path] = 1
		for _, imp := range node.imports {
			if err := visit(imp, append(trail, path)); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, node)
		return nil
	}
	paths := make([]string, 0, len(nodes))
	for p := range nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal packages from the already-checked
// set and everything else through the source importer.
type moduleImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.local[path]; ok {
		return pkg, nil
	}
	return m.fallback.Import(path)
}

// matchAny reports whether pkg matches any go-tool-style pattern.
func matchAny(patterns []string, root, modPath string, pkg *Package) bool {
	rel, err := filepath.Rel(root, pkg.Dir)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		switch {
		case pat == "..." || pat == "":
			return true
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
			// Also accept full import paths, e.g. repro/internal/...
			if pkg.Path == prefix || strings.HasPrefix(pkg.Path, prefix+"/") {
				return true
			}
		default:
			if rel == pat || pkg.Path == pat || (pat == "." && rel == ".") {
				return true
			}
		}
	}
	return false
}

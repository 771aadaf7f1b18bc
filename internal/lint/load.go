package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis. A
// package is type-checked exactly once per loader and the result —
// including the lazily built call graph —
// is shared by every check that inspects it.
type Package struct {
	// Path is the import path the checks scope on. For fixture packages
	// it is a synthetic path chosen by the harness.
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// mu guards the lazily built call graph, so a Package stays safe to
	// analyze from more than one goroutine.
	mu sync.Mutex
	cg *CallGraph
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: module-internal imports are resolved
// against the module root, everything else is served by the shared
// stdlib cache (stdimport.go), which source-compiles each standard
// library package from GOROOT exactly once per process. go.mod
// therefore needs no analysis dependencies.
type Loader struct {
	// Root is the module root directory (where go.mod lives).
	Root string
	// Module is the module path declared in go.mod.
	Module string
	// Fset is shared across every package the loader touches (FileSet
	// methods are internally synchronized).
	Fset *token.FileSet

	// mu guards pkgs and inflight. Load is safe for concurrent use: the
	// first goroutine to ask for a path type-checks it while later
	// askers wait on the in-flight entry (imports cannot cycle in Go, so
	// the waiting cannot deadlock), which keeps every package
	// type-checked exactly once even under the parallel driver.
	mu       sync.Mutex
	pkgs     map[string]*Package
	inflight map[string]*loadInFlight
}

// loadInFlight is one package load in progress; done is closed after p
// and err are set.
type loadInFlight struct {
	done chan struct{}
	p    *Package
	err  error
}

// NewLoader builds a loader for the module rooted at root. Standard
// library imports are served by a process-wide cache (see stdimport.go),
// so constructing many loaders does not re-type-check the stdlib.
func NewLoader(root string) (*Loader, error) {
	mod, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Root:   root,
		Module: mod,
		Fset:   token.NewFileSet(),
		pkgs:   make(map[string]*Package),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// moduleName extracts the module path from root/go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// Load parses and type-checks the module package with the given import
// path (the module path itself, or module/sub/dir). Results are cached;
// a package is only analyzed once per loader. Safe for concurrent use.
func (l *Loader) Load(path string) (*Package, error) {
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: %q is not in module %s", path, l.Module)
	}
	return l.LoadDir(dir, path)
}

// LoadDir parses and type-checks the .go files in dir (test files
// excluded), registering the result under the import path asPath. The
// fixture harness uses this to analyze testdata packages under
// synthetic in-scope paths. Safe for concurrent use; concurrent asks
// for the same path coalesce into one type-check.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[asPath]; ok {
		l.mu.Unlock()
		return p, nil
	}
	if r, ok := l.inflight[asPath]; ok {
		l.mu.Unlock()
		<-r.done
		return r.p, r.err
	}
	r := &loadInFlight{done: make(chan struct{})}
	if l.inflight == nil {
		l.inflight = map[string]*loadInFlight{}
	}
	l.inflight[asPath] = r
	l.mu.Unlock()

	p, err := l.loadDir(dir, asPath)

	l.mu.Lock()
	if err == nil {
		l.pkgs[asPath] = p
	}
	delete(l.inflight, asPath)
	l.mu.Unlock()
	r.p, r.err = p, err
	close(r.done)
	return p, err
}

// loadDir does the actual parse and type-check for LoadDir.
func (l *Loader) loadDir(dir, asPath string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(asPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", asPath, err)
	}
	return &Package{
		Path:  asPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.Module {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// parseDir parses the non-test .go files of one directory in a stable
// (sorted) order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loaderImporter adapts Loader to types.Importer: module-internal paths
// are loaded from the module tree, everything else goes to the source
// importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return importStd(path)
}

// ModulePackages walks the module tree below dir (itself relative to or
// inside the loader root) and returns the import path of every package
// directory — directories holding at least one non-test .go file —
// skipping hidden directories and testdata.
func (l *Loader) ModulePackages(dir string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(l.Root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := l.Module
		if rel != "." {
			ip = l.Module + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != ip {
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

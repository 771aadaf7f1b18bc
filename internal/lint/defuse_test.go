package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"
)

// loadSrc type-checks one synthetic source file under the given import
// path and returns the package.
func loadSrc(t *testing.T, src, asPath string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "src.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, asPath)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fnDecl finds a function declaration by name.
func fnDecl(t *testing.T, p *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// TestDefUseChains pins the def/use classification: parameters and :=
// targets are defs, assignment left-hand sides are defs, everything
// else is a use.
func TestDefUseChains(t *testing.T) {
	p := loadSrc(t, `package s

func du(a int) int {
	b := a + 1
	b = b + a
	return b
}
`, "pjs/fixture/defuse")
	du := p.DefUse(fnDecl(t, p, "du"))
	counts := map[string][2]int{}
	for obj, ids := range du.Defs {
		c := counts[obj.Name()]
		c[0] = len(ids)
		counts[obj.Name()] = c
	}
	for obj, ids := range du.Uses {
		c := counts[obj.Name()]
		c[1] = len(ids)
		counts[obj.Name()] = c
	}
	want := map[string][2]int{
		"a": {1, 2}, // param def; used in both additions
		"b": {2, 2}, // := and = defs; used in b+a and return
	}
	for name, w := range want {
		if counts[name] != w {
			t.Errorf("%s: got defs/uses %v, want %v", name, counts[name], w)
		}
	}
}

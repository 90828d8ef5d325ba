package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose references TestDocReferencesResolve
// holds to the tree.
var docFiles = []string{"README.md", "docs/API.md", "docs/ARCHITECTURE.md"}

var (
	// codeSpan is one inline code span; fenced blocks are cut first.
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	fence    = regexp.MustCompile("(?ms)^```.*?^```")
	// qualified is pkg.Ident, optionally .Member, not inside a longer
	// dotted name. Ident is exported: pkg.lower is a file (steady.go) or
	// a benchmark metric (server.handle_us) as often as a Go name.
	qualified = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	// repoPath is a path into the tree: a top-level entry, then more,
	// perhaps with a :line suffix.
	repoPath = regexp.MustCompile(`^(?:repro/)?([\w.-]+(?:/[\w.-]+)+/?)(?::\d+(?:-\d+)?)?$`)
	// pathSuffix is what a path may carry past its file or directory: a
	// package pattern's /... or a qualified name's .Ident.
	pathSuffix = regexp.MustCompile(`/?(?:/\.\.\.|\.[A-Z]\w*)?$`)
)

// TestDocReferencesResolve: every backticked pkg.Ident (and
// pkg.Type.Member) in the docs whose pkg names a package of this module
// is declared in that package, and every backticked path into the tree
// exists. A deletion that leaves its name in the docs fails here.
func TestDocReferencesResolve(t *testing.T) {
	pkgs := moduleDecls(t)
	top := map[string]bool{}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		top[e.Name()] = true
	}
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fence.ReplaceAllString(string(raw), "")
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			span := m[1]
			for _, q := range qualified.FindAllStringSubmatch(span, -1) {
				decls, ok := pkgs[q[1]]
				if ok && !decls.resolves(q[2], q[3]) {
					t.Errorf("%s: `%s` names %s.%s, which no package %s declares", doc, span, q[1], strings.TrimSuffix(q[2]+"."+q[3], "."), q[1])
				}
			}
			if pm := repoPath.FindStringSubmatch(span); pm != nil {
				path := pathSuffix.ReplaceAllString(pm[1], "")
				if !top[strings.SplitN(path, "/", 2)[0]] {
					continue
				}
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: `%s` is not a path in the tree", doc, span)
				}
			}
		}
	}
}

// pkgDecls is what a package name declares across the module's
// packages of that name: top-level names, and each type's methods and
// fields.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
}

func (d *pkgDecls) resolves(name, member string) bool {
	if !d.names[name] {
		return false
	}
	return member == "" || d.members[name][member]
}

func (d *pkgDecls) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
}

// moduleDecls parses every Go file of this module (bench/ is a module
// of its own), test files included, keyed by package name.
func moduleDecls(t *testing.T) map[string]*pkgDecls {
	t.Helper()
	out := map[string]*pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		d2 := out[name]
		if d2 == nil {
			d2 = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}}
			out[name] = d2
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d2.names[decl.Name.Name] = true
				} else {
					d2.member(recvName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d2.names[n.Name] = true
						}
					case *ast.TypeSpec:
						d2.names[spec.Name.Name] = true
						typeMembers(d2, spec.Name.Name, spec.Type)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// typeMembers records a struct's fields and an interface's methods,
// embedded ones by their type's name.
func typeMembers(d *pkgDecls, typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch x := expr.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			d.member(typ, recvName(f.Type))
		}
		for _, n := range f.Names {
			d.member(typ, n.Name)
		}
	}
}

// recvName is the type name of a receiver or embedded field: T, *T,
// T[P], pkg.T.
func recvName(expr ast.Expr) string {
	switch x := expr.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

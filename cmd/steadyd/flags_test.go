package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// definedFlags returns the name of every flag main.go defines, read
// from its flag.X("name", ...) calls.
func definedFlags(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		switch sel.Sel.Name {
		case "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "String", "Duration":
		default:
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Fatalf("flag.%s with a name that is not a string literal", sel.Sel.Name)
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		flags[name] = true
		return true
	})
	if len(flags) == 0 {
		t.Fatal("found no flag definitions in main.go")
	}
	return flags
}

// TestSteadydFlagsDocumented: every flag steadyd defines is named in
// docs/API.md, and every flag its Limits table names exists — so a
// flag cannot be added without its line, or removed leaving one.
func TestSteadydFlagsDocumented(t *testing.T) {
	flags := definedFlags(t)
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for name := range flags {
		mention := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`)
		if !mention.MatchString(doc) {
			t.Errorf("flag -%s is not documented in docs/API.md", name)
		}
	}

	_, limits, ok := strings.Cut(doc, "\n## Limits\n")
	if !ok {
		t.Fatal("docs/API.md has no Limits section")
	}
	if end := strings.Index(limits, "\n#"); end >= 0 {
		limits = limits[:end]
	}
	named := regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
	mentions := 0
	for _, line := range strings.Split(limits, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range named.FindAllStringSubmatch(line, -1) {
			mentions++
			if !flags[m[1]] {
				t.Errorf("the Limits table names -%s, which steadyd does not define: %s", m[1], line)
			}
		}
	}
	if mentions == 0 {
		t.Fatal("the Limits table names no flag")
	}
}

package crowdmax

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.txt from the current source")

// TestPublicAPI pins the package's exported surface: every exported
// top-level name, every exported method and every exported field of an
// exported struct in the non-test sources must match testdata/api.txt, one
// entry a line. After an intended API change, regenerate with
// `go test -run TestPublicAPI -update .` and review the diff.
func TestPublicAPI(t *testing.T) {
	got, err := publicAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/api.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, e := range got {
		if !slices.Contains(want, e) {
			t.Errorf("exported but not in %s: %s", golden, e)
		}
	}
	for _, e := range want {
		if !slices.Contains(got, e) {
			t.Errorf("in %s but no longer exported: %s", golden, e)
		}
	}
}

// publicAPI lists the exported declarations of the non-test Go files in
// dir, sorted: "const X", "var X", "type X", "func X", "method (T) M" and
// "field T.F".
func publicAPI(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, "func "+d.Name.Name)
					continue
				}
				out = append(out, fmt.Sprintf("method (%s) %s", receiver(d.Recv.List[0].Type), d.Name.Name))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					out = append(out, specEntries(d.Tok, spec)...)
				}
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// receiver renders a method receiver type as T or *T.
func receiver(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		return "*" + receiver(star.X)
	}
	return e.(*ast.Ident).Name
}

// specEntries lists the exported names one const, var or type spec
// declares, plus the exported fields of an exported struct type.
func specEntries(tok token.Token, spec ast.Spec) []string {
	var out []string
	switch s := spec.(type) {
	case *ast.ValueSpec:
		for _, n := range s.Names {
			if n.IsExported() {
				out = append(out, tok.String()+" "+n.Name)
			}
		}
	case *ast.TypeSpec:
		if !s.Name.IsExported() {
			return nil
		}
		out = append(out, "type "+s.Name.Name)
		st, ok := s.Type.(*ast.StructType)
		if !ok {
			return out
		}
		for _, f := range st.Fields.List {
			for _, n := range f.Names {
				if n.IsExported() {
					out = append(out, "field "+s.Name.Name+"."+n.Name)
				}
			}
		}
	}
	return out
}

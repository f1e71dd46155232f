package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// capture redirects stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", errRun, out)
	}
	return out
}

func withQuick(t *testing.T) {
	t.Helper()
	oldQuick, oldTrials := *quick, *trials
	*quick = true
	*trials = 2
	t.Cleanup(func() { *quick, *trials = oldQuick, oldTrials })
}

func TestRunEveryExperimentQuick(t *testing.T) {
	withQuick(t)
	wants := map[string]string{
		"fig2":      "Figure 2",
		"fig3":      "Figure 3",
		"fig4":      "Figure 4",
		"fig5":      "Figure 5",
		"fig6":      "Figure 6",
		"fig7":      "Figure 7",
		"fig9":      "Figure 9",
		"fig10":     "Figure 10",
		"retention": "max retention",
		"table1":    "Table 1",
		"table2":    "Table 2",
		"search":    "evaluation of search results",
		"majority":  "Chernoff",
		"epsilon":   "Residual-error",
		"cascade":   "cascade",
		"steps":     "Logical steps",
		"bracket":   "Bracket baseline",
		"adversary": "Adversarial sweep",
	}
	for name, want := range wants {
		out := capture(t, func() error { return run(context.Background(), name) })
		if !strings.Contains(out, want) {
			t.Errorf("%s output missing %q", name, want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), "nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunCaseInsensitiveNameViaMainPath(t *testing.T) {
	withQuick(t)
	// main lowercases names before dispatch; run itself expects lower case.
	out := capture(t, func() error { return run(context.Background(), strings.ToLower("TABLE1")) })
	if !strings.Contains(out, "Table 1") {
		t.Fatal("dispatch failed")
	}
}

func TestCSVMode(t *testing.T) {
	withQuick(t)
	oldCSV := *csvOut
	*csvOut = true
	t.Cleanup(func() { *csvOut = oldCSV })
	out := capture(t, func() error { return run(context.Background(), "fig3") })
	if !strings.HasPrefix(out, "n,") {
		t.Fatalf("CSV output starts with %q", strings.SplitN(out, "\n", 2)[0])
	}
}

func TestNMaxFilter(t *testing.T) {
	withQuick(t)
	oldMax := *maxSize
	*maxSize = 400
	t.Cleanup(func() { *maxSize = oldMax })
	out := capture(t, func() error { return run(context.Background(), "fig3") })
	if strings.Contains(out, "\n800 ") {
		t.Fatal("nmax filter did not drop n=800")
	}
}

func TestJSONMode(t *testing.T) {
	withQuick(t)
	oldJSON := *jsonOut
	*jsonOut = true
	t.Cleanup(func() { *jsonOut = oldJSON })
	out := capture(t, func() error { return run(context.Background(), "fig3") })
	if !strings.Contains(out, `"title"`) || !strings.Contains(out, `"curves"`) {
		t.Fatalf("JSON output malformed:\n%.200s", out)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current output")

// TestQuickGolden pins the values of every paper table and figure at -quick
// scale: the output of `benchrun -quick all` must match testdata/quick.golden
// byte for byte. After an intended change to the numbers, regenerate with
// `go test ./cmd/benchrun -run TestQuickGolden -update` and review the diff.
func TestQuickGolden(t *testing.T) {
	oldQuick := *quick
	*quick = true
	t.Cleanup(func() { *quick = oldQuick })
	got := capture(t, func() error {
		for _, name := range allExperiments {
			if err := run(context.Background(), name); err != nil {
				return err
			}
		}
		return nil
	})
	const golden = "testdata/quick.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("-quick output differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}

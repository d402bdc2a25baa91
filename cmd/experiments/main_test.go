package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all-seeds3.golden from the current output")

const goldenPath = "testdata/all-seeds3.golden"

// TestReproductionGolden runs `experiments -exp all -seeds 3` through
// the command's own entry point and compares it byte for byte with the
// committed golden. The closing `# engine:` stats line is dropped: its
// tier split is how the result was computed, not what it is. A change
// that moves a result regenerates the golden with
//
//	go test ./cmd/experiments -run TestReproductionGolden -update
//
// and says why.
func TestReproductionGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "all", "-seeds", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	got := dropEngineLine(out.String())
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d (%d lines, golden %d):\ngot:  %q\nwant: %q",
				goldenPath, i+1, len(gl), len(wl), g, w)
		}
	}
}

func dropEngineLine(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "# engine:") {
			b.WriteString(line)
		}
	}
	return b.String()
}

package main

// Flag-validation wall for the corpus-producing subcommands: counts
// that would silently produce empty output (zero/negative corpora,
// seeds, budgets) must be rejected with an error, not exit 0. Also the
// estimate subcommand's cold/warm pass over one store.

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/store"
)

func wantErr(t *testing.T, name string, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: accepted, want error containing %q", name, frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("%s: error %q does not mention %q", name, err, frag)
	}
}

func TestScenariosGenerateRejectsZeroCount(t *testing.T) {
	wantErr(t, "generate -n 0", cmdScenariosGenerate([]string{"-n", "0"}), "-n must be positive")
	wantErr(t, "generate -n -3", cmdScenariosGenerate([]string{"-n", "-3"}), "-n must be positive")
	wantErr(t, "generate -check-seeds -1",
		cmdScenariosGenerate([]string{"-n", "1", "-check-seeds", "-1"}), "-check-seeds must be non-negative")
}

func TestScenariosDescribeRejectsZeroRate(t *testing.T) {
	wantErr(t, "describe -fpr 0", cmdScenariosDescribe([]string{"-fpr", "0"}), "-fpr must be positive")
}

func TestPointRejectsZeroRate(t *testing.T) {
	wantErr(t, "estimate -fpr 0", cmdEstimate([]string{"-fpr", "0"}), "-fpr must be positive")
	wantErr(t, "render -fpr 0", cmdRender([]string{"-fpr", "0"}), "-fpr must be positive")
}

// TestEstimateWarmStoreMatchesCold runs estimate twice over one store:
// the cold pass simulates and archives the point, the warm pass reads
// the archived rows back and must print the same bytes without a
// fresh run.
func TestEstimateWarmStoreMatchesCold(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scenario", "cut-in", "-fpr", "5", "-seed", "2", "-store", dir}
	coldOut, coldErr := capture(t, func() error { return cmdEstimate(args) })
	warmOut, warmErr := capture(t, func() error { return cmdEstimate(args) })
	if !strings.Contains(coldErr, "1 fresh, 0 disk, 0 store errors") {
		t.Errorf("cold pass reported %q, want one fresh run", coldErr)
	}
	if !strings.Contains(warmErr, "0 fresh, 1 disk, 0 store errors") {
		t.Errorf("warm pass reported %q, want one disk hit and no fresh run", warmErr)
	}
	if !strings.HasPrefix(coldOut, "# scenario cut-in run at 5 FPR (") {
		t.Fatalf("cold output starts %.60q", coldOut)
	}
	if coldOut != warmOut {
		t.Errorf("warm output differs from cold:\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Len(); n != 1 {
		t.Errorf("store holds %d entries, want 1", n)
	}
}

// capture runs fn with os.Stdout and os.Stderr redirected into pipes
// and returns what it wrote to each.
func capture(t *testing.T, fn func() error) (stdout, stderr string) {
	t.Helper()
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	outC, errC := readAll(outR), readAll(errR)
	origOut, origErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outW, errW
	runErr := fn()
	os.Stdout, os.Stderr = origOut, origErr
	outW.Close()
	errW.Close()
	stdout, stderr = <-outC, <-errC
	if runErr != nil {
		t.Fatal(runErr)
	}
	return stdout, stderr
}

// readAll drains r in the background so a large write cannot block
// on a full pipe.
func readAll(r *os.File) <-chan string {
	c := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		r.Close()
		c <- buf.String()
	}()
	return c
}

func TestScenariosSearchRejectsZeroBudgets(t *testing.T) {
	wantErr(t, "search -generations 0",
		cmdScenariosSearch([]string{"-generations", "0"}), "-generations must be positive")
	wantErr(t, "search -population 0",
		cmdScenariosSearch([]string{"-population", "0"}), "-population must be positive")
	wantErr(t, "search -mrf-seeds 0",
		cmdScenariosSearch([]string{"-mrf-seeds", "0"}), "-mrf-seeds must be positive")
	wantErr(t, "search -top -1",
		cmdScenariosSearch([]string{"-top", "-1"}), "-top must be non-negative")
	wantErr(t, "search bad family",
		cmdScenariosSearch([]string{"-families", "no-such-family"}), "unknown family")
	wantErr(t, "search bad rate",
		cmdScenariosSearch([]string{"-fprs", "0"}), "bad rate")
}

func TestCampaignRejectsZeroSeeds(t *testing.T) {
	wantErr(t, "campaign -seeds 0", cmdCampaign([]string{"-seeds", "0"}), "-seeds must be positive")
	wantErr(t, "record -seeds 0",
		cmdRecord([]string{"-store", t.TempDir(), "-seeds", "0"}), "-seeds must be positive")
}

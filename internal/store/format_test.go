package store

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// countObjects tallies on-disk objects by extension.
func countObjects(t *testing.T, dir string) (zyt, jsonl int) {
	t.Helper()
	filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		switch {
		case strings.HasSuffix(path, extZYT):
			zyt++
		case strings.HasSuffix(path, extJSONL):
			jsonl++
		}
		return nil
	})
	return zyt, jsonl
}

// writeLegacy rewrites every archived object as gzip JSONL at its
// LegacyObjectPath, at gzip.BestSpeed as the retired legacy writer did,
// and removes the .zyt copy: the view of a store recorded before the
// binary format, which the store itself no longer writes.
func writeLegacy(t *testing.T, st *Store) {
	t.Helper()
	for _, e := range st.Entries() {
		tr, err := st.Trace(e)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
		if err := tr.Write(zw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.LegacyObjectPath(e.Artifact), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(st.ObjectPath(e.Artifact)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
}

// TestPropertyFormatsEveryScenarioEveryLevel is the cross-format
// equivalence property over the real simulator: for every registered
// scenario and every archivable recording level, the gzip-JSONL round
// trip and the ZYT1 round trip reconstruct deep-equal sim.Results.
// LevelOff produces no trace at all and is asserted as such.
func TestPropertyFormatsEveryScenarioEveryLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered scenario through the simulator")
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for _, sc := range scenario.Default().List() {
		for _, level := range []trace.Level{trace.LevelFull, trace.LevelSummary, trace.LevelOff} {
			cfg := sc.Build(10, 1)
			cfg.Record = level
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, level, err)
			}
			if level == trace.LevelOff {
				if res.Trace != nil {
					t.Errorf("%s: LevelOff produced a trace", sc.Name)
				}
				continue
			}
			// Trace-layer equivalence at every recorded level.
			viaJSON := jsonlRoundTripTrace(t, res.Trace)
			viaZYT := zytRoundTripTrace(t, res.Trace)
			if !reflect.DeepEqual(viaZYT, viaJSON) {
				t.Errorf("%s/%s: ZYT and JSONL round trips disagree", sc.Name, level)
			}
			if level != trace.LevelFull {
				continue
			}
			// Store-layer equivalence: archive (written as .zyt), read
			// back, then rewrite the object as legacy gzip JSONL and read
			// again — all three views must be deep-equal.
			k := KeyForScenario(sc, 10, 1)
			if _, _, err := st.Put(sc.Name, k, res); err != nil {
				t.Fatalf("%s: put: %v", sc.Name, err)
			}
			got, ok, err := st.Get(k)
			if err != nil || !ok {
				t.Fatalf("%s: get: ok=%v err=%v", sc.Name, ok, err)
			}
			if !reflect.DeepEqual(got, res) {
				t.Errorf("%s: ZYT-archived result differs from fresh simulation", sc.Name)
			}
		}
	}

	// Rewrite the whole store in the legacy format and require identical
	// reconstructions through the gzip-JSONL decoder.
	fresh := map[Key]*sim.Result{}
	for _, sc := range scenario.Default().List() {
		res, err := sim.Run(sc.Build(10, 1))
		if err != nil {
			t.Fatal(err)
		}
		fresh[KeyForScenario(sc, 10, 1)] = res
	}
	writeLegacy(t, st)
	for k, res := range fresh {
		got, ok, err := st.Get(k)
		if err != nil || !ok {
			t.Fatalf("post-migrate get: ok=%v err=%v", ok, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("JSONL-migrated result differs from fresh simulation for %+v", k)
		}
	}
}

// TestZYTCanonicalEveryScenario: new objects are addressed by their
// ZYT1 bytes, so the encoding must be canonical over real runs of every
// paper scenario and ODD variant. Encoding a trace twice gives equal
// bytes, and re-encoding the decoded trace reproduces them.
func TestZYTCanonicalEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario and variant through the simulator")
	}
	scs := scenario.Default().List()
	if len(scs) != 13 {
		t.Fatalf("%d registered scenarios, want the 9 Table-1 scenarios and 4 variants", len(scs))
	}
	for _, sc := range scs {
		cfg := sc.Build(10, 1)
		cfg.Record = trace.LevelFull
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		var first, second, again bytes.Buffer
		if err := res.Trace.WriteZYT(&first); err != nil {
			t.Fatal(err)
		}
		if err := res.Trace.WriteZYT(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: two encodings of one trace differ", sc.Name)
		}
		decoded, err := trace.ReadZYT(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if err := decoded.WriteZYT(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Errorf("%s: re-encoding the decoded trace changed its bytes", sc.Name)
		}
	}
}

// jsonlRoundTripTrace / zytRoundTripTrace mirror the trace package's
// white-box helpers for use from the store's tests.
func jsonlRoundTripTrace(t *testing.T, tr *trace.Trace) *trace.Trace {
	t.Helper()
	var buf strings.Builder
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func zytRoundTripTrace(t *testing.T, tr *trace.Trace) *trace.Trace {
	t.Helper()
	var buf strings.Builder
	if err := tr.WriteZYT(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadZYT(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMigrateMixedFormatStore drives the full migration workflow: a
// store recorded in the current format, rewritten as legacy, extended
// with new recordings (mixed formats on disk), read transparently, and
// migrated forward.
func TestMigrateMixedFormatStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	want := map[Key]*sim.Result{}
	put := func(scn string, seed int64, rows int) {
		res := syntheticResult(scn, 10, seed, rows, seed%2 == 0)
		k := key(scn, 10, seed)
		if _, _, err := st.Put(scn, k, res); err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}
	put("mixed-a", 1, 30)
	put("mixed-a", 2, 40)
	put("mixed-b", 3, 25)

	if z, j := countObjects(t, dir); z != 3 || j != 0 {
		t.Fatalf("fresh store objects: %d zyt, %d jsonl; want 3, 0", z, j)
	}
	writeLegacy(t, st)
	if z, j := countObjects(t, dir); z != 0 || j != 3 {
		t.Fatalf("legacy objects: %d zyt, %d jsonl; want 0, 3", z, j)
	}

	// New recordings land in the current format → a mixed store.
	put("mixed-c", 4, 20)
	if z, j := countObjects(t, dir); z != 1 || j != 3 {
		t.Fatalf("mixed objects: %d zyt, %d jsonl; want 1, 3", z, j)
	}
	for k, res := range want {
		got, ok, err := st.Get(k)
		if err != nil || !ok {
			t.Fatalf("mixed get %+v: ok=%v err=%v", k, ok, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("mixed-format Get differs for %+v", k)
		}
	}

	// Migrate everything forward; re-running is an idempotent no-op.
	stats, err := st.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rewritten != 3 || stats.Skipped != 1 {
		t.Errorf("forward migrate stats %+v, want 3 rewritten / 1 skipped", stats)
	}
	stats, err = st.Migrate()
	if err != nil || stats.Rewritten != 0 || stats.Skipped != 4 {
		t.Errorf("idempotent migrate stats %+v err=%v, want 0 rewritten / 4 skipped", stats, err)
	}
	for k, res := range want {
		got, ok, err := st.Get(k)
		if err != nil || !ok {
			t.Fatalf("post-migrate get %+v: ok=%v err=%v", k, ok, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("post-migrate Get differs for %+v", k)
		}
	}
}

// TestMigrateRefusesCorruptObject: a truncated legacy object must
// survive a migration attempt untouched — the error is reported and the
// bad copy is not replaced by garbage, nor deleted.
func TestMigrateRefusesCorruptObject(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res := syntheticResult("corrupt", 10, 1, 30, false)
	e, _, err := st.Put("corrupt", key("corrupt", 10, 1), res)
	if err != nil {
		t.Fatal(err)
	}
	writeLegacy(t, st)
	path := st.LegacyObjectPath(e.Artifact)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Migrate()
	if err == nil {
		t.Fatal("migrating a corrupt object: want error")
	}
	if stats.Rewritten != 0 {
		t.Errorf("corrupt object was rewritten: %+v", stats)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Error("corrupt source object was deleted")
	}
	if _, statErr := os.Stat(st.ObjectPath(e.Artifact)); !os.IsNotExist(statErr) {
		t.Errorf("corrupt source object was upgraded: stat = %v", statErr)
	}
}

// TestLegacyStoreFixture checks the legacy decoder and the one-way
// upgrade against bytes this code did not write. testdata/legacy-store
// was recorded by the last release that could write gzip JSONL: the
// four untagged (JSONL-addressed) entries of testdata/sidecar-store,
// healed, plus one "hash":"zyt" entry, every object then rewritten as
// .jsonl.gz. Each run is syntheticResult(scenario, 10, seed, 30,
// seed == 2). Its baselines.jsonl seeds the CI store smoke's diff.
func TestLegacyStoreFixture(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "legacy-store"))); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	entries := st.Entries()
	schemes := map[string]int{}
	for _, e := range entries {
		schemes[e.HashScheme]++
	}
	if len(entries) != 5 || schemes[""] != 4 || schemes[HashZYT] != 1 {
		t.Fatalf("fixture holds %d entries by scheme %v, want 4 untagged and 1 %q", len(entries), schemes, HashZYT)
	}
	checkGets := func(when string) {
		t.Helper()
		for _, e := range entries {
			want := syntheticResult(e.Scenario, e.Key.FPR, e.Key.Seed, 30, e.Key.Seed == 2)
			got, ok, err := st.Get(e.Key)
			if err != nil || !ok {
				t.Fatalf("%s: get %s/%d: ok=%v err=%v", when, e.Scenario, e.Key.Seed, ok, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s/%d differs from its synthetic run", when, e.Scenario, e.Key.Seed)
			}
		}
	}

	if z, j := countObjects(t, dir); z != 0 || j != 5 {
		t.Fatalf("fixture objects: %d zyt, %d jsonl; want 0, 5", z, j)
	}
	checkGets("legacy")
	stats, err := st.Migrate()
	if err != nil || stats.Rewritten != 5 || stats.Skipped != 0 {
		t.Fatalf("migrate = (%+v, %v), want 5 rewritten", stats, err)
	}
	if z, j := countObjects(t, dir); z != 5 || j != 0 {
		t.Fatalf("migrated objects: %d zyt, %d jsonl; want 5, 0", z, j)
	}
	checkGets("migrated")
	if stats, err := st.Migrate(); err != nil || stats.Rewritten != 0 || stats.Skipped != 5 {
		t.Errorf("second migrate = (%+v, %v), want 0 rewritten / 5 skipped", stats, err)
	}
	if after, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl")); err != nil || !bytes.Equal(after, manifest) {
		t.Errorf("migrate changed manifest.jsonl (read err %v)", err)
	}
}

// TestLookupMissDebounce pins the satellite fix: within the refresh
// window a miss does not touch the filesystem, while Put always forces
// a refresh so cross-process idempotence never trades on the debounce.
func TestLookupMissDebounce(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.mu.Lock()
	b.refreshEvery = time.Hour
	b.mu.Unlock()

	k := key("debounce", 10, 1)
	if _, ok := b.Lookup(k); ok {
		t.Fatal("unexpected hit")
	} // arms the debounce window
	res := syntheticResult("debounce", 10, 1, 20, false)
	if _, _, err := a.Put("debounce", k, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup(k); ok {
		t.Fatal("debounced miss refreshed anyway")
	}
	// Put on the debounced handle must still adopt the published entry
	// rather than appending a duplicate manifest line.
	if _, created, err := b.Put("debounce", k, res); err != nil || created {
		t.Fatalf("debounced Put = (created=%v, %v), want adoption", created, err)
	}
	// Dropping the window lets the miss path see the entry.
	b.mu.Lock()
	b.refreshEvery = 0
	b.mu.Unlock()
	if _, ok := b.Lookup(k); !ok {
		t.Fatal("lookup after window expiry still missed")
	}
}

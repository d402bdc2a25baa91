package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/world"
)

// syntheticResult builds a small but fully populated run result. The
// rows carry real agent state so round-trips exercise every trace
// field, and variant toggles collision / infinite-gap encoding.
func syntheticResult(scn string, fpr float64, seed int64, rows int, collide bool) *sim.Result {
	tr := &trace.Trace{Meta: trace.Meta{
		Scenario: scn, FPR: fpr, Seed: seed, Dt: 0.01,
		Cameras: []string{"front120", "left", "right"},
	}}
	for i := 0; i < rows; i++ {
		t := float64(i) * 0.01
		tr.Rows = append(tr.Rows, trace.Row{
			Time: t,
			Ego: world.Agent{
				ID: world.EgoID, Pose: geom.Pose{Pos: geom.V(20*t, 3.5)},
				Speed: 20, Accel: -0.5, Length: 4.6, Width: 1.9, Lane: 1,
			},
			Actors: []world.Agent{
				{ID: "a1", Pose: geom.Pose{Pos: geom.V(40+15*t, 3.5)}, Speed: 15, Length: 4.6, Width: 1.9, Lane: 1},
			},
			CmdAccel: -0.5,
			Rates:    map[string]float64{"front120": fpr, "left": fpr, "right": fpr},
		})
	}
	res := &sim.Result{
		Trace:           tr,
		FramesProcessed: map[string]int{"front120": rows / 3, "left": rows / 3, "right": rows / 3},
		MinBumperGap:    12.5,
		EgoStopped:      seed%2 == 0,
	}
	if collide {
		res.Collision = &trace.Collision{Time: float64(rows-1) * 0.01, ActorID: "a1"}
		tr.Collision = res.Collision
	} else if seed == 3 {
		res.MinBumperGap = math.Inf(1) // no in-corridor approach
	}
	return res
}

// key is the store key of a point of a synthetic scenario named scn.
func key(scn string, fpr float64, seed int64) Key {
	return KeyForScenario(scenario.Spec{Name: scn}.Scenario(), fpr, seed)
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cases := []struct {
		seed    int64
		collide bool
	}{{1, false}, {2, true}, {3, false}} // seed 3: infinite min gap
	for _, tc := range cases {
		res := syntheticResult("rt", 10, tc.seed, 50, tc.collide)
		k := key("rt", 10, tc.seed)
		if _, _, err := st.Put("rt", k, res); err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		got, ok, err := st.Get(k)
		if err != nil || !ok {
			t.Fatalf("seed %d: get ok=%v err=%v", tc.seed, ok, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("seed %d: reconstructed result differs\n got %+v\nwant %+v", tc.seed, got, res)
		}
	}
	if st.Len() != len(cases) {
		t.Errorf("Len = %d, want %d", st.Len(), len(cases))
	}
	if _, ok, err := st.Get(key("rt", 10, 99)); ok || err != nil {
		t.Errorf("miss: ok=%v err=%v", ok, err)
	}
}

func TestPutIdempotentAndContentDedup(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	res := syntheticResult("dedup", 5, 1, 40, false)
	k1 := key("dedup", 5, 1)
	e1, created, err := st.Put("dedup", k1, res)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first put reported created=false")
	}
	// Same key again: the original entry wins, nothing is rewritten.
	e1b, re, err := st.Put("dedup", k1, syntheticResult("dedup", 5, 1, 10, true))
	if err != nil {
		t.Fatal(err)
	}
	if re {
		t.Error("re-put reported created=true")
	}
	if !reflect.DeepEqual(e1, e1b) {
		t.Errorf("re-put replaced entry: %+v vs %+v", e1, e1b)
	}
	// Identical trace under a different key: one shared object.
	e2, _, err := st.Put("dedup", key("dedup", 5, 2), res)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Artifact != e1.Artifact {
		t.Errorf("identical traces got different artifacts: %s vs %s", e1.Artifact, e2.Artifact)
	}
	var objects int
	filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			objects++
		}
		return nil
	})
	if objects != 1 {
		t.Errorf("object count = %d, want 1 (content-addressed dedup)", objects)
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d, want 2", st.Len())
	}
}

func TestReopenAndEntriesOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Key]*sim.Result{}
	for _, scn := range []string{"b-scn", "a-scn"} {
		for seed := int64(2); seed >= 1; seed-- {
			res := syntheticResult(scn, 10, seed, 30, seed == 2)
			k := key(scn, 10, seed)
			if _, _, err := st.Put(scn, k, res); err != nil {
				t.Fatal(err)
			}
			want[k] = res
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", st2.Len(), len(want))
	}
	for k, res := range want {
		got, ok, err := st2.Get(k)
		if err != nil || !ok {
			t.Fatalf("reopened get %+v: ok=%v err=%v", k, ok, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("reopened result differs for %+v", k)
		}
	}
	entries := st2.Entries()
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.Scenario > b.Scenario || (a.Scenario == b.Scenario && a.Key.Seed > b.Key.Seed) {
			t.Errorf("Entries not sorted: %s/%d before %s/%d", a.Scenario, a.Key.Seed, b.Scenario, b.Key.Seed)
		}
	}
}

// TestSidecarStaleAndCorruptFallsBack: stores written by earlier
// versions may hold a manifest.idx sidecar beside the manifest. Open
// reads only the manifest, so a leftover sidecar — garbage, truncated,
// stale or describing a longer manifest — never changes what it returns.
// testdata/sidecar-store is one such store: its manifest.idx is a valid
// ZYI1 index of four keys recorded at a different time from dir's.
func TestSidecarStaleAndCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, scn := range []string{"b-scn", "a-scn"} {
		for seed := int64(2); seed >= 1; seed-- {
			if _, _, err := st.Put(scn, key(scn, 10, seed), syntheticResult(scn, 10, seed, 30, seed == 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	fixture := filepath.Join("testdata", "sidecar-store")
	staleIdx, err := os.ReadFile(filepath.Join(fixture, "manifest.idx"))
	if err != nil {
		t.Fatal(err)
	}
	fixtureDir := t.TempDir()
	if err := os.CopyFS(fixtureDir, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		dir  string
		idx  []byte
	}{
		{"garbage sidecar", dir, []byte("not a sidecar index")},
		{"truncated sidecar", dir, staleIdx[:len(staleIdx)/2]},
		{"stale ZYI1 sidecar", dir, staleIdx},
		{"ZYI1 sidecar of its own store", fixtureDir, staleIdx},
		{"magic-only sidecar, empty store", t.TempDir(), []byte("ZYI1")},
	} {
		if err := os.WriteFile(filepath.Join(tc.dir, "manifest.idx"), tc.idx, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(tc.dir)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := map[Key]Entry{}
		for _, e := range st.Entries() {
			got[e.Key] = e
		}
		st.Close()
		if want := manifestEntries(t, tc.dir); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Open returned %d entries that differ from the manifest's %d", tc.name, len(got), len(want))
		}
	}
}

// manifestEntries parses dir's manifest.jsonl directly, later lines
// superseding earlier ones for the same key.
func manifestEntries(t *testing.T, dir string) map[Key]Entry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	out := map[Key]Entry{}
	for _, line := range splitNonEmptyLines(data) {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		out[e.Key] = e
	}
	return out
}

func TestTornManifestTailTolerated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("torn", key("torn", 10, 1), syntheticResult("torn", 10, 1, 20, false)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// A crashed appender leaves a partial final line: load must drop it
	// and keep everything before it.
	f, err := os.OpenFile(filepath.Join(dir, "manifest.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":{"fp":"abc","fpr":5,`)
	f.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 1 {
		t.Errorf("Len after torn tail = %d, want 1", st2.Len())
	}

	// Corruption before the final line is a real error.
	data, _ := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	os.WriteFile(filepath.Join(dir, "manifest.jsonl"), append([]byte("not json\n"), data...), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("corrupted interior manifest line: want error, got nil")
	}
}

func TestMissingArtifactErrorsAndSelfHeals(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res := syntheticResult("gone", 10, 1, 20, false)
	e, _, err := st.Put("gone", key("gone", 10, 1), res)
	if err != nil {
		t.Fatal(err)
	}
	if e.HashScheme != HashZYT {
		t.Fatalf("new entry hash scheme = %q, want %q", e.HashScheme, HashZYT)
	}
	if want := zytHash(t, res.Trace); e.Artifact != want {
		t.Fatalf("artifact %s is not the SHA-256 of the ZYT1 bytes (%s)", e.Artifact, want)
	}
	os.Remove(st.ObjectPath(e.Artifact))
	if _, ok, err := st.Get(key("gone", 10, 1)); err == nil || ok {
		t.Errorf("missing artifact: ok=%v err=%v, want error", ok, err)
	}

	// Re-archiving the identical (deterministic) result repairs the
	// object; a result that hashes differently must be rejected, not
	// silently substituted under the recorded hash.
	_, _, err = st.Put("gone", key("gone", 10, 1), syntheticResult("gone", 10, 1, 19, false))
	assertDrifted(t, st, err)
	healed, created, err := st.Put("gone", key("gone", 10, 1), res)
	if err != nil || !created {
		t.Fatalf("self-heal put: created=%v err=%v", created, err)
	}
	if healed.Artifact != e.Artifact {
		t.Errorf("healed artifact %s != original %s", healed.Artifact, e.Artifact)
	}
	if got, ok, err := st.Get(key("gone", 10, 1)); err != nil || !ok {
		t.Fatalf("get after heal: ok=%v err=%v", ok, err)
	} else if !reflect.DeepEqual(got, res) {
		t.Error("healed result differs")
	}
}

// TestMisSizedObjectRefused: a ZYT-scheme entry's object must be
// exactly Entry.Bytes long. A shorter or longer file, or one replaced
// by bytes of another size, is refused on its size before any decode.
func TestMisSizedObjectRefused(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res := syntheticResult("missized", 10, 1, 20, false)
	e, _, err := st.Put("missized", key("missized", 10, 1), res)
	if err != nil {
		t.Fatal(err)
	}
	path := st.ObjectPath(e.Artifact)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(valid)) != e.Bytes {
		t.Fatalf("object is %d bytes, entry records %d", len(valid), e.Bytes)
	}
	for name, data := range map[string][]byte{
		"Truncated": valid[:len(valid)-1],
		"Extended":  append(append([]byte{}, valid...), 0),
		"Garbage":   []byte("not a trace"),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := st.Trace(e)
			if err == nil || !strings.Contains(err.Error(), "the manifest records") {
				t.Errorf("Trace error = %v, want a size mismatch", err)
			}
		})
	}
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Trace(e); err != nil || !reflect.DeepEqual(got, res.Trace) {
		t.Errorf("restored object: err %v, trace equal %v", err, reflect.DeepEqual(got, res.Trace))
	}
}

// TestLegacyEntryLooksUpAndSelfHeals: testdata/sidecar-store is a store
// from before the hash-scheme tag — untagged entries addressed by the
// SHA-256 of the canonical JSONL, objects long gone. It opens with
// every entry unchanged, and re-archiving a point rebuilds its object
// under the original JSONL address, while a tampered run is refused.
func TestLegacyEntryLooksUpAndSelfHeals(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "sidecar-store"))); err != nil {
		t.Fatal(err)
	}
	want := manifestEntries(t, dir)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != len(want) || len(want) != 4 {
		t.Fatalf("Len = %d, manifest holds %d keys, want 4", st.Len(), len(want))
	}
	for k, w := range want {
		if got, ok := st.Lookup(k); !ok || !reflect.DeepEqual(got, w) || got.HashScheme != "" {
			t.Errorf("legacy entry %s/%d: Lookup = (%+v, %v), want %+v untagged", w.Scenario, k.Seed, got, ok, w)
		}
	}

	var k Key
	for mk, w := range want {
		if w.Scenario == "b-scn" && mk.FPR == 10 && mk.Seed == 1 {
			k = mk
		}
	}
	e, ok := want[k]
	if !ok {
		t.Fatal("fixture has no b-scn fpr 10 seed 1 entry")
	}
	res := syntheticResult("b-scn", 10, 1, 30, false)
	if got, err := traceHash(res.Trace, ""); err != nil || got != e.Artifact {
		t.Fatalf("fixture artifact %s is not the JSONL hash of its run (%s, %v)", e.Artifact, got, err)
	}
	if _, ok, err := st.Get(k); err == nil || ok {
		t.Errorf("missing legacy artifact: ok=%v err=%v, want error", ok, err)
	}
	_, _, err = st.Put("b-scn", k, syntheticResult("b-scn", 10, 1, 29, false))
	assertDrifted(t, st, err)
	healed, created, err := st.Put("b-scn", k, res)
	if err != nil || !created {
		t.Fatalf("legacy self-heal put: created=%v err=%v", created, err)
	}
	if !reflect.DeepEqual(healed, e) {
		t.Errorf("self-heal changed the legacy entry: %+v, want %+v", healed, e)
	}
	if _, err := os.Stat(st.ObjectPath(e.Artifact)); err != nil {
		t.Errorf("healed object not at its JSONL address: %v", err)
	}
	if got, ok, err := st.Get(k); err != nil || !ok {
		t.Fatalf("get after legacy heal: ok=%v err=%v", ok, err)
	} else if !reflect.DeepEqual(got, res) {
		t.Error("legacy healed result differs")
	}
}

// assertDrifted checks a self-heal Put of a tampered run: the drift
// error is reported, and nothing is written: no object under the
// recorded address or any other, no temp file left behind.
func assertDrifted(t *testing.T, st *Store, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "semantics drifted") {
		t.Fatalf("tampered re-put under a missing artifact: err = %v, want semantics drift", err)
	}
	if files := objectFiles(t, st.Dir()); len(files) != 0 {
		t.Errorf("tampered re-put left files under objects/: %v", files)
	}
}

// objectFiles lists every regular file under dir/objects, temp files
// included.
func objectFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			out = append(out, filepath.Base(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// zytHash is the SHA-256 of the trace's ZYT1 encoding, in hex.
func zytHash(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteZYT(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestPutFailedRenameLeavesNothing: when the streamed object cannot be
// renamed into place, Put fails without a manifest line, an index
// entry or a temp file. The point's address comes from a sibling store
// (runs are deterministic); a regular file planted at objects/<aa>
// makes the rename fail after the temp file is fully written, which
// works even for root, where a read-only directory would not.
func TestPutFailedRenameLeavesNothing(t *testing.T) {
	sibling, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sibling.Close()
	res := syntheticResult("renamefail", 10, 1, 30, false)
	k := key("renamefail", 10, 1)
	want, _, err := sibling.Put("renamefail", k, res)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// One archived point whose object lives outside the planted prefix,
	// so the failed Put has an existing manifest and index to spare.
	for seed := int64(2); ; seed++ {
		e, _, err := st.Put("renamefail", key("renamefail", 10, seed), syntheticResult("renamefail", 10, seed, 30, false))
		if err != nil {
			t.Fatal(err)
		}
		if e.Artifact[:2] != want.Artifact[:2] {
			break
		}
	}
	before, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	n := st.Len()
	planted := filepath.Join(dir, "objects", want.Artifact[:2])
	if err := os.WriteFile(planted, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := st.Put("renamefail", k, res); err == nil {
		t.Fatal("Put with an unwritable object path: want error")
	}
	after, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) || st.Len() != n {
		t.Errorf("failed Put changed the manifest (%d -> %d bytes) or Len (%d -> %d)", len(before), len(after), n, st.Len())
	}
	for _, f := range objectFiles(t, dir) {
		if strings.HasPrefix(f, ".tmp-") {
			t.Errorf("failed Put left temp file %s", f)
		}
	}

	// Clearing the obstacle lets the same point archive at its address.
	if err := os.Remove(planted); err != nil {
		t.Fatal(err)
	}
	got, created, err := st.Put("renamefail", k, res)
	if err != nil || !created || got.Artifact != want.Artifact {
		t.Fatalf("retry Put = (%s, created=%v, %v), want %s", got.Artifact, created, err, want.Artifact)
	}
}

// TestConcurrentRecordersAndReaders drives parallel recorders and
// readers against one manifest; run under -race this is the store's
// concurrency contract.
func TestConcurrentRecordersAndReaders(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const writers, points = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < points; i++ {
				scn := fmt.Sprintf("conc-%d", i%3)
				seed := int64(w*points + i)
				res := syntheticResult(scn, 10, seed, 10, i%2 == 0)
				if _, _, err := st.Put(scn, key(scn, 10, seed), res); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	// Duplicate-key recorders racing on the same points.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < points; i++ {
				res := syntheticResult("dup", 5, int64(i), 10, false)
				if _, _, err := st.Put("dup", key("dup", 5, int64(i)), res); err != nil {
					t.Errorf("dup put: %v", err)
					return
				}
			}
		}()
	}
	// Readers interleaving with the writers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < points*2; i++ {
				st.Len()
				st.Entries()
				if res, ok, err := st.Get(key("dup", 5, int64(i%points))); err != nil {
					t.Errorf("get: %v", err)
					return
				} else if ok && res.Trace.Len() != 10 {
					t.Errorf("got %d rows, want 10", res.Trace.Len())
					return
				}
			}
		}()
	}
	wg.Wait()

	want := writers*points + points
	if st.Len() != want {
		t.Errorf("Len = %d, want %d", st.Len(), want)
	}
	for _, e := range st.Entries() {
		if _, ok, err := st.Get(e.Key); !ok || err != nil {
			t.Errorf("entry %s/%d unreadable: ok=%v err=%v", e.Scenario, e.Key.Seed, ok, err)
		}
	}
}

func TestKeyForUsesSpecFingerprint(t *testing.T) {
	sc, ok := scenario.Lookup(scenario.CutOut)
	if !ok {
		t.Fatal("cut-out not registered")
	}
	k1 := KeyForScenario(sc, 5, 1)
	k2 := KeyForScenario(sc, 5, 1)
	if k1 != k2 {
		t.Errorf("KeyForScenario not stable: %+v vs %+v", k1, k2)
	}
	if k1.SimVersion != sim.Version {
		t.Errorf("SimVersion = %q, want %q", k1.SimVersion, sim.Version)
	}
	sp := *sc.Spec
	if k1.Fingerprint != scenario.SpecFingerprint(sp) {
		t.Error("registered scenario must fingerprint by spec content")
	}
	// Any spec edit — parameters or the name, which becomes trace
	// metadata — must change the fingerprint.
	edited := sp
	edited.Duration += 1
	if scenario.SpecFingerprint(edited) == k1.Fingerprint {
		t.Error("edited spec kept its fingerprint")
	}
	renamed := sp
	renamed.Name = "cut-out-renamed"
	if scenario.SpecFingerprint(renamed) == k1.Fingerprint {
		t.Error("renamed spec kept its fingerprint")
	}
}

// TestSummarize: the manifest aggregate matches the recorded entries.
func TestSummarize(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Summarize(); got != (Summary{}) {
		t.Errorf("empty store summary %+v", got)
	}
	res := syntheticResult("cut-out", 30, 1, 40, false)
	if _, _, err := st.Put("cut-out", key("cut-out", 30, 1), res); err != nil {
		t.Fatal(err)
	}
	res2 := syntheticResult("cut-out", 30, 2, 60, false)
	if _, _, err := st.Put("cut-out", key("cut-out", 30, 2), res2); err != nil {
		t.Fatal(err)
	}
	sum := st.Summarize()
	if sum.Entries != 2 || sum.Scenarios != 1 {
		t.Errorf("summary %+v, want 2 entries over 1 scenario", sum)
	}
	if sum.Rows != res.Trace.Len()+res2.Trace.Len() || sum.Bytes <= 0 {
		t.Errorf("summary volume %+v", sum)
	}
}

// Two Store handles over one directory model fabric replicas (separate
// processes) publishing into a shared store: a Lookup/Get miss on one
// handle must pick up entries the other handle appended after both
// were opened — the refresh-on-miss tail read — and a Put of an
// already-published point must adopt it instead of duplicating the
// manifest line.
func TestCrossHandleManifestRefresh(t *testing.T) {
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

	k := key("shared", 30, 1)
	res := syntheticResult("shared", 30, 1, 20, false)
	if _, _, err := a.Put("shared", k, res); err != nil {
		t.Fatal(err)
	}

	if _, ok := b.Lookup(k); !ok {
		t.Fatal("Lookup on second handle missed an entry the first handle archived")
	}
	got, ok, err := b.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get on second handle = (%v, %v), want hit", ok, err)
	}
	if !reflect.DeepEqual(got.Trace.Rows, res.Trace.Rows) {
		t.Error("cross-handle Get returned different trace rows")
	}

	// Re-putting via the second handle must adopt, not append.
	if _, created, err := b.Put("shared", k, res); err != nil || created {
		t.Fatalf("cross-handle Put = (created=%v, %v), want adopt of existing entry", created, err)
	}
	lines, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(splitNonEmptyLines(lines)); n != 1 {
		t.Errorf("manifest has %d lines after cross-handle re-put, want 1", n)
	}

	// Summaries and Entries on a fresh third handle's sibling must also
	// see later appends.
	k2 := key("shared2", 5, 2)
	if _, _, err := a.Put("shared2", k2, syntheticResult("shared2", 5, 2, 10, true)); err != nil {
		t.Fatal(err)
	}
	if sum := b.Summarize(); sum.Entries != 2 {
		t.Errorf("Summarize on second handle = %d entries, want 2", sum.Entries)
	}
	if got := len(b.Entries()); got != 2 {
		t.Errorf("Entries on second handle = %d, want 2", got)
	}
}

// splitNonEmptyLines counts manifest payload lines.
func splitNonEmptyLines(data []byte) [][]byte {
	var out [][]byte
	for _, l := range bytesSplitLines(data) {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// bytesSplitLines splits on '\n' without importing bytes in tests twice.
func bytesSplitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range data {
		if c == '\n' {
			out = append(out, data[start:i])
			start = i + 1
		}
	}
	out = append(out, data[start:])
	return out
}

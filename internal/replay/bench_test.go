package replay

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// benchScenario is a fixed, collision-free Table-1 point so every
// iteration does the same work.
const (
	benchFPR  = 30.0
	benchSeed = int64(1)
)

// benchRecordedStore records the benchmark points, optionally
// rewriting every object as legacy gzip JSONL, so format-sensitive
// subbenchmarks compare decoders over identical content.
func benchRecordedStore(b *testing.B, seeds int, legacy bool) (*store.Store, scenario.Scenario, []engine.Job) {
	b.Helper()
	sc, ok := scenario.Lookup(scenario.CutOut)
	if !ok {
		b.Fatal("cut-out not registered")
	}
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	var jobs []engine.Job
	for seed := int64(1); seed <= int64(seeds); seed++ {
		jobs = append(jobs, engine.Job{Scenario: sc, FPR: benchFPR, Seed: seed})
	}
	eng := engine.New(engine.Options{Store: st})
	defer eng.Close()
	if _, err := eng.RunBatch(context.Background(), jobs); err != nil {
		b.Fatal(err)
	}
	if legacy {
		writeLegacy(b, st)
	}
	return st, sc, jobs
}

// writeLegacy rewrites every archived object as gzip JSONL at its
// LegacyObjectPath, at gzip.BestSpeed as the retired legacy writer did,
// and removes the .zyt copy.
func writeLegacy(b *testing.B, st *store.Store) {
	b.Helper()
	for _, e := range st.Entries() {
		tr, err := st.Trace(e)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
		if err := tr.Write(zw); err != nil {
			b.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(st.LegacyObjectPath(e.Artifact), buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		if err := os.Remove(st.ObjectPath(e.Artifact)); err != nil && !os.IsNotExist(err) {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayVsSimulate is the headline speed claim of the replay
// harness: re-deriving a run's regression summary from its archived
// trace versus re-simulating the point from scratch, and the disk
// tier's Get through the binary ZYT decoder versus the legacy
// gzip-JSONL decoder over identical archived content.
func BenchmarkReplayVsSimulate(b *testing.B) {
	b.Run("Simulate", func(b *testing.B) {
		sc, _ := scenario.Lookup(scenario.CutOut)
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(sc.Build(benchFPR, benchSeed)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Replay", func(b *testing.B) {
		st, _, _ := benchRecordedStore(b, 1, false)
		entry := st.Entries()[0]
		// One worker across iterations, as each Run goroutine keeps one
		// across its entries: the read, decode and evaluation reuse its
		// storage.
		w := worker{est: core.NewEstimator()}
		opt := Options{}.withDefaults()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.replay(st, entry, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	diskGet := func(legacy bool) func(b *testing.B) {
		return func(b *testing.B) {
			st, sc, _ := benchRecordedStore(b, 1, legacy)
			key := store.KeyForScenario(sc, benchFPR, benchSeed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := st.Get(key); !ok || err != nil {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		}
	}
	b.Run("DiskGetZYT", diskGet(false))
	b.Run("DiskGetJSONL", diskGet(true))
}

// BenchmarkMRFSearch measures a full minimum-required-FPR search cold
// (every point simulated) versus against a warm store, where collision
// waves answer from the manifest summary alone — no simulation and no
// trace decode.
func BenchmarkMRFSearch(b *testing.B) {
	const seeds = 2
	sc, _ := scenario.Lookup(scenario.CutOut)
	grid := metrics.DefaultFPRGrid()
	b.Run("ColdSimulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Options{})
			if _, err := metrics.FindMRF(context.Background(), eng, sc, grid, seeds); err != nil {
				b.Fatal(err)
			}
			eng.Close()
		}
	})
	b.Run("WarmManifest", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		warm := engine.New(engine.Options{Store: st})
		if _, err := metrics.FindMRF(context.Background(), warm, sc, grid, seeds); err != nil {
			b.Fatal(err)
		}
		warm.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Options{Store: st})
			m, err := metrics.FindMRF(context.Background(), eng, sc, grid, seeds)
			if err != nil {
				b.Fatal(err)
			}
			if m.Value != 2 {
				b.Fatalf("MRF = %v, want 2", m.Value)
			}
			eng.Close()
		}
	})
}

// BenchmarkPersistentWarmStart measures a whole campaign against a
// warm store on a cold engine (every point a disk hit) versus the same
// campaign simulated fresh — the cross-process warm-start the store
// exists for.
func BenchmarkPersistentWarmStart(b *testing.B) {
	const seeds = 4
	b.Run("ColdSimulate", func(b *testing.B) {
		sc, _ := scenario.Lookup(scenario.CutOut)
		var jobs []engine.Job
		for seed := int64(1); seed <= seeds; seed++ {
			jobs = append(jobs, engine.Job{Scenario: sc, FPR: benchFPR, Seed: seed})
		}
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Options{})
			if _, err := eng.RunBatch(context.Background(), jobs); err != nil {
				b.Fatal(err)
			}
			eng.Close()
		}
	})
	b.Run("WarmDisk", func(b *testing.B) {
		st, _, jobs := benchRecordedStore(b, seeds, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A new engine per iteration: the memory cache starts empty,
			// so every point exercises the persistent tier.
			eng := engine.New(engine.Options{Store: st})
			br, err := eng.RunBatch(context.Background(), jobs)
			if err != nil {
				b.Fatal(err)
			}
			if br.Stats.DiskHits != len(jobs) {
				b.Fatalf("stats = %+v, want all disk hits", br.Stats)
			}
			eng.Close()
		}
	})
}

// Package store is the persistent campaign store: a content-addressed
// on-disk archive of simulation runs. The paper's pre-deployment flow
// is built on collected scenario traces (§3.1); this package makes the
// repo's traces durable artifacts instead of process-lifetime cache
// entries, so corpora generated once are replayed — not re-simulated —
// by every later process (warm-started Table-1 sweeps, the
// differential replay harness in internal/replay, CI regression jobs).
//
// # Layout
//
// A store is a directory:
//
//	<dir>/manifest.jsonl           append-only index, one JSON entry per line
//	<dir>/objects/<aa>/<hash>.zyt        binary columnar trace artifacts
//	<dir>/objects/<aa>/<hash>.jsonl.gz   legacy gzip JSONL trace artifacts
//
// Artifacts are content-addressed: <hash> is the SHA-256 of the
// canonical trace serialization (trace.Trace.Write — the JSONL bytes,
// regardless of which format is on disk), and <aa> its first two hex
// digits. Content addressing over the canonical serialization means a
// store migrated between formats keeps every hash, manifest entry, and
// cross-key dedup link intact. New objects are written in the ZYT1
// binary columnar format (trace.WriteZYT, stored raw — its decoder is
// what makes the disk tier faster than re-simulating); old gzip-JSONL
// objects stay readable forever, and Migrate rewrites between the two
// in place. The manifest maps a Key — scenario spec fingerprint, FPR,
// seed, simulator version — to its artifact hash plus the run summary
// needed to reconstruct a sim.Result without re-simulating (collision,
// frames processed, min bumper gap, ego stopped). The manifest is the
// only index: Open streams it into memory, and later appends by other
// processes are picked up from its tail.
//
// Keying on the spec fingerprint rather than the scenario name means a
// renamed scenario keeps its artifacts while any parameter edit — or a
// simulator semantics bump (sim.Version) — cleanly misses, never
// serving a trace recorded under different dynamics.
//
// A Store is safe for concurrent use; manifest appends are
// single-writes of one line, so concurrent recorder processes
// interleave without tearing entries (a torn final line from a crashed
// writer is tolerated and dropped on load).
package store

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Key identifies one archived run: the scenario's content fingerprint
// (scenario.FingerprintOf), the uniform frame processing rate, the
// noise seed, and the simulator version the trace was recorded under.
type Key struct {
	Fingerprint string  `json:"fp"`
	FPR         float64 `json:"fpr"`
	Seed        int64   `json:"seed"`
	SimVersion  string  `json:"sim"`
}

// KeyFor builds the store key of a (scenario, FPR, seed) point under
// the current simulator version, fingerprinting the scenario through
// the default registry.
func KeyFor(scenarioName string, fpr float64, seed int64) Key {
	return Key{
		Fingerprint: scenario.FingerprintOf(scenarioName),
		FPR:         fpr,
		Seed:        seed,
		SimVersion:  sim.Version,
	}
}

// KeyForScenario is KeyFor with the scenario value in hand: it prefers
// the scenario's own spec fingerprint, which exists even for
// unregistered spec-backed scenarios (generated corpus members), so
// their archived runs are content-addressed too — a generator change
// that alters a member's parameters misses cleanly instead of hitting
// a stale trace recorded under the same name.
func KeyForScenario(sc scenario.Scenario, fpr float64, seed int64) Key {
	if sc.Fingerprint == "" {
		return KeyFor(sc.Name, fpr, seed)
	}
	return Key{Fingerprint: sc.Fingerprint, FPR: fpr, Seed: seed, SimVersion: sim.Version}
}

// Entry is one manifest record: a key, its artifact, and the run
// summary that together with the trace reconstructs the sim.Result.
type Entry struct {
	Key      Key    `json:"key"`
	Scenario string `json:"scenario"` // registration name at record time
	Artifact string `json:"artifact"` // SHA-256 of the uncompressed trace JSONL
	Rows     int    `json:"rows"`
	Bytes    int64  `json:"bytes"` // uncompressed artifact size

	Collision       *trace.Collision `json:"collision,omitempty"`
	FramesProcessed map[string]int   `json:"frames_processed"`
	// MinBumperGap mirrors sim.Result.MinBumperGap; +Inf (no in-corridor
	// approach) is not representable in JSON, so it is flagged instead.
	MinBumperGap   float64 `json:"min_bumper_gap"`
	MinGapInfinite bool    `json:"min_gap_infinite,omitempty"`
	EgoStopped     bool    `json:"ego_stopped,omitempty"`

	RecordedUnix int64 `json:"recorded_unix"`
}

// Store is an open campaign store. Construct with Open.
type Store struct {
	dir string

	mu       sync.Mutex
	index    map[Key]Entry
	order    []Key // first-recorded order, deduplicated
	manifest *os.File
	// loaded is the manifest byte offset up to which the index has been
	// ingested — the high-water mark of refreshLocked's incremental
	// tail reads. Bytes past it are lines appended by other processes
	// sharing the directory (fabric replicas) that this process has not
	// indexed yet, plus this process's own appends (re-ingesting those
	// is an idempotent no-op).
	loaded int64

	// refreshEvery rate-limits the Lookup miss path's manifest stat: a
	// hot loop probing cold keys otherwise turns every miss into a
	// filesystem round trip. Put / Summarize / Entries force a refresh
	// regardless — correctness paths never trade on the debounce.
	refreshEvery time.Duration
	lastRefresh  time.Time
	// statSize/statMtime memoize the manifest stat at the last tail
	// read, so an unchanged manifest — including one pinned above
	// `loaded` forever by a crashed writer's torn tail — is never
	// reopened and re-read per miss.
	statSize  int64
	statMtime time.Time
}

// defaultRefreshEvery bounds miss-path manifest stats to ~100/s; small
// enough that fabric replicas still discover each other's appends
// within one scheduling quantum.
const defaultRefreshEvery = 10 * time.Millisecond

// Open opens (creating if needed) the store rooted at dir and loads
// its manifest index into memory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, index: make(map[Key]Entry), refreshEvery: defaultRefreshEvery}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.manifest = f
	return s, nil
}

// Close releases the manifest handle. Reads of already-loaded entries
// keep working; Put fails after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return nil
	}
	err := s.manifest.Close()
	s.manifest = nil
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.jsonl") }

// Object format extensions: extZYT is the current binary columnar
// format; extJSONL is the legacy gzip-JSONL format, readable forever.
const (
	extZYT   = ".zyt"
	extJSONL = ".jsonl.gz"
)

func (s *Store) objectPathExt(hash, ext string) string {
	prefix := "00"
	if len(hash) >= 2 {
		prefix = hash[:2]
	}
	return filepath.Join(s.dir, "objects", prefix, hash+ext)
}

// ObjectPath returns the on-disk path an artifact hash is written to
// by the current format (binary columnar, .zyt). A store that predates
// the binary format may hold the hash at LegacyObjectPath instead;
// readers probe both.
func (s *Store) ObjectPath(hash string) string { return s.objectPathExt(hash, extZYT) }

// LegacyObjectPath returns the gzip-JSONL path artifact hashes were
// written to before the binary format existed.
func (s *Store) LegacyObjectPath(hash string) string { return s.objectPathExt(hash, extJSONL) }

// locateObject finds an artifact in whichever format it is stored,
// preferring the binary format when both exist (e.g. mid-migration).
func (s *Store) locateObject(hash string) (path string, legacy bool, err error) {
	p := s.ObjectPath(hash)
	if _, err := os.Stat(p); err == nil {
		return p, false, nil
	}
	p = s.LegacyObjectPath(hash)
	if _, err := os.Stat(p); err == nil {
		return p, true, nil
	}
	return "", false, fmt.Errorf("store: artifact %s: %w", hash, os.ErrNotExist)
}

// loadManifest populates the index at Open by streaming the manifest
// line by line — never slurped whole, so opening a large store doesn't
// spike memory.
func (s *Store) loadManifest() error {
	f, err := os.Open(s.manifestPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return s.ingestReaderLocked(f)
}

// ingestReaderLocked parses manifest lines starting at offset s.loaded
// and advances the offset past every line it consumed. Only
// newline-terminated lines are consumed: a torn final line — the
// signature of a crashed or mid-write appender — is left unconsumed
// (not an error), so a later refresh re-reads it once its writer
// finishes. A complete line that fails to parse is tolerated only in
// final position (crashed-writer debris another process appended
// after); corruption anywhere else is a real error.
func (s *Store) ingestReaderLocked(r io.Reader) error {
	br := bufio.NewReaderSize(r, 256<<10)
	var (
		badErr error // parse failure pending the is-it-final check
		badEnd int64 // offset just past the unparseable line
	)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			// EOF: an unterminated fragment in line is a torn tail — leave
			// it unconsumed. An unparseable complete line right before it
			// was in final position: consume and tolerate it so refreshes
			// don't re-parse the debris forever.
			if badErr != nil {
				s.loaded = badEnd
			}
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("store: %w", err)
		}
		if badErr != nil {
			return fmt.Errorf("store: manifest offset %d: %w", s.loaded, badErr)
		}
		next := s.loaded + int64(len(line))
		if len(bytes.TrimSpace(line)) == 0 {
			s.loaded = next
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			badErr, badEnd = err, next
			continue
		}
		s.addLocked(e)
		s.loaded = next
	}
}

// refreshLocked ingests manifest lines appended since the last load —
// by concurrent recorder processes sharing the directory (the
// distributed fabric's replicas all publish into one store) — so a
// lookup that misses the in-memory index retries against the
// up-to-date manifest before the caller re-simulates. The common case
// is one Stat, and even that is debounced on the miss path (force ==
// false): within refreshEvery of the previous attempt the refresh is
// skipped outright, and an unchanged size+mtime skips the reopen/read,
// so a hot loop probing cold keys — or a manifest pinned above
// `loaded` by a torn tail — costs ~zero filesystem work per miss.
// Refresh failures degrade to "no new entries": the miss stands and
// the caller simulates, which is always safe.
func (s *Store) refreshLocked(force bool) {
	now := time.Now()
	if !force && now.Sub(s.lastRefresh) < s.refreshEvery {
		return
	}
	s.lastRefresh = now
	fi, err := os.Stat(s.manifestPath())
	if err != nil {
		return
	}
	if fi.Size() == s.statSize && fi.ModTime().Equal(s.statMtime) {
		return
	}
	s.statSize, s.statMtime = fi.Size(), fi.ModTime()
	if fi.Size() <= s.loaded {
		return
	}
	f, err := os.Open(s.manifestPath())
	if err != nil {
		return
	}
	defer f.Close()
	if _, err := f.Seek(s.loaded, io.SeekStart); err != nil {
		return
	}
	_ = s.ingestReaderLocked(f)
}

// addLocked inserts an entry into the in-memory index; later manifest
// lines for the same key win (re-records supersede).
func (s *Store) addLocked(e Entry) {
	if _, ok := s.index[e.Key]; !ok {
		s.order = append(s.order, e.Key)
	}
	s.index[e.Key] = e
}

// Len reports the number of distinct keys in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Summary aggregates the manifest index: distinct archived keys, the
// scenarios they span, and total row/byte volume (uncompressed). It
// reads only the in-memory index — no artifact is touched — so it is
// cheap enough to serve on every stats request.
type Summary struct {
	Entries   int   `json:"entries"`   // distinct archived (fingerprint, FPR, seed, sim) keys
	Scenarios int   `json:"scenarios"` // distinct scenario names at record time
	Rows      int   `json:"rows"`      // total trace rows across entries
	Bytes     int64 `json:"bytes"`     // total uncompressed artifact bytes across entries
}

// Summarize computes the store's manifest Summary, refreshing the
// index from the manifest tail first so concurrent recorders' entries
// are counted.
func (s *Store) Summarize() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked(true)
	sum := Summary{Entries: len(s.index)}
	names := make(map[string]struct{})
	for _, e := range s.index {
		names[e.Scenario] = struct{}{}
		sum.Rows += e.Rows
		sum.Bytes += e.Bytes
	}
	sum.Scenarios = len(names)
	return sum
}

// Lookup returns the manifest entry for a key without touching the
// artifact. A miss against the in-memory index re-reads the manifest
// tail first (refreshLocked), so entries recorded by concurrent
// processes sharing the directory — fabric replicas publishing into
// one store — are found without reopening the store.
func (s *Store) Lookup(k Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[k]
	if !ok {
		s.refreshLocked(false)
		e, ok = s.index[k]
	}
	return e, ok
}

// Entries returns every manifest entry sorted by (scenario, FPR, seed,
// sim version) — a stable order for reports and baselines. Like
// Lookup, it refreshes from the manifest tail first.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	s.refreshLocked(true)
	out := make([]Entry, 0, len(s.index))
	for _, k := range s.order {
		out = append(out, s.index[k])
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Key.FPR != b.Key.FPR {
			return a.Key.FPR < b.Key.FPR
		}
		if a.Key.Seed != b.Key.Seed {
			return a.Key.Seed < b.Key.Seed
		}
		return a.Key.SimVersion < b.Key.SimVersion
	})
	return out
}

// Put archives a run under the key, returning its manifest entry and
// whether anything was written. Put is idempotent: a key already
// present returns its existing entry untouched (created == false),
// and identical traces under different keys share one
// content-addressed object. If the key exists but its object file has
// vanished (partial cleanup, a crashed recorder's debris removal),
// Put self-heals by rewriting the object — runs are deterministic, so
// the fresh result must reproduce the recorded artifact hash; a
// mismatch is reported instead of silently masking semantics drift.
func (s *Store) Put(scenarioName string, k Key, res *sim.Result) (Entry, bool, error) {
	if res == nil || res.Trace == nil {
		return Entry{}, false, fmt.Errorf("store: put %s: nil result or trace", scenarioName)
	}
	// Only full-level results are archivable: a Summary/Off run has no
	// rows, so archiving it would let the persistent tier later serve a
	// trace-less reconstruction as a disk hit (replay and EvaluateTrace
	// would see an empty run where a recorded one is claimed).
	if res.Level != trace.LevelFull {
		return Entry{}, false, fmt.Errorf(
			"store: put %s: refusing to archive a %s-level result (only %s traces are archivable)",
			scenarioName, res.Level, trace.LevelFull)
	}
	s.mu.Lock()
	existing, exists := s.index[k]
	if !exists {
		// Another process sharing the directory may have archived this
		// point already; the refresh turns that into an idempotent no-op
		// instead of a duplicate manifest line. Forced: the miss-path
		// debounce must never cause a duplicate append.
		s.refreshLocked(true)
		existing, exists = s.index[k]
	}
	closed := s.manifest == nil
	s.mu.Unlock()
	if exists {
		if _, _, err := s.locateObject(existing.Artifact); err == nil {
			return existing, false, nil
		}
		_, hash, err := serializeTrace(scenarioName, res)
		if err != nil {
			return existing, false, err
		}
		if hash != existing.Artifact {
			return existing, false, fmt.Errorf(
				"store: put %s: artifact %s is missing and the fresh run hashes to %s — simulator semantics drifted without a sim.Version bump?",
				scenarioName, existing.Artifact, hash)
		}
		if err := s.writeObject(hash, res.Trace); err != nil {
			return existing, false, err
		}
		return existing, true, nil
	}
	if closed {
		return Entry{}, false, fmt.Errorf("store: put %s: store closed", scenarioName)
	}

	buf, hash, err := serializeTrace(scenarioName, res)
	if err != nil {
		return Entry{}, false, err
	}
	if err := s.writeObject(hash, res.Trace); err != nil {
		return Entry{}, false, err
	}

	e := Entry{
		Key:             k,
		Scenario:        scenarioName,
		Artifact:        hash,
		Rows:            res.Trace.Len(),
		Bytes:           int64(len(buf)),
		Collision:       res.Collision,
		FramesProcessed: res.FramesProcessed,
		MinBumperGap:    res.MinBumperGap,
		EgoStopped:      res.EgoStopped,
		RecordedUnix:    time.Now().Unix(),
	}
	if math.IsInf(e.MinBumperGap, 1) {
		e.MinBumperGap, e.MinGapInfinite = 0, true
	}
	if e.FramesProcessed == nil {
		e.FramesProcessed = map[string]int{}
	}

	line, err := json.Marshal(e)
	if err != nil {
		return Entry{}, false, fmt.Errorf("store: put %s: %w", scenarioName, err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.index[k]; ok {
		// Lost the race to a concurrent recorder of the same point; the
		// object write above was idempotent, so just adopt its entry.
		return prev, false, nil
	}
	if s.manifest == nil {
		return Entry{}, false, fmt.Errorf("store: put %s: store closed", scenarioName)
	}
	if _, err := s.manifest.Write(line); err != nil {
		return Entry{}, false, fmt.Errorf("store: put %s: %w", scenarioName, err)
	}
	s.addLocked(e)
	return e, true, nil
}

// serializeTrace renders the result's trace to its canonical JSONL
// bytes and content hash.
func serializeTrace(scenarioName string, res *sim.Result) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := res.Trace.Write(&buf); err != nil {
		return nil, "", fmt.Errorf("store: put %s: %w", scenarioName, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:]), nil
}

// writeObject stores the trace artifact atomically (write to a temp
// file, rename into place) in the current binary format; an object
// already present in either format is reused. The .zyt payload is the
// raw ZYT1 stream, uncompressed: the format's column deltas already
// shrink the hot fields, and skipping gzip is where the disk tier's
// decode speed comes from.
func (s *Store) writeObject(hash string, tr *trace.Trace) error {
	if _, _, err := s.locateObject(hash); err == nil {
		return nil
	}
	path := s.ObjectPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+hash+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	err = tr.WriteZYT(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: write object %s: %w", hash, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: write object %s: %w", hash, err)
	}
	return nil
}

// Trace loads and parses an entry's artifact from whichever format it
// is stored in — ZYT1 binary (current) or gzip JSONL (legacy) — so
// mixed-format stores read transparently.
func (s *Store) Trace(e Entry) (*trace.Trace, error) {
	path, legacy, err := s.locateObject(e.Artifact)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: artifact %s: %w", e.Artifact, err)
	}
	defer f.Close()
	var tr *trace.Trace
	if legacy {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("store: artifact %s: %w", e.Artifact, err)
		}
		defer zr.Close()
		tr, err = trace.Read(zr)
		if err != nil {
			return nil, fmt.Errorf("store: artifact %s: %w", e.Artifact, err)
		}
		return tr, nil
	}
	tr, err = trace.ReadZYT(bufio.NewReaderSize(f, 256<<10))
	if err != nil {
		return nil, fmt.Errorf("store: artifact %s: %w", e.Artifact, err)
	}
	return tr, nil
}

// Get reconstructs the archived sim.Result for a key: the parsed trace
// plus the manifest's run summary. It reports (nil, false, nil) on a
// clean miss; a present key whose artifact cannot be read is an error.
// The reconstruction is deep-equal to the result a fresh simulation of
// the same point produces (the engine's persistent-tier equivalence
// test pins this).
func (s *Store) Get(k Key) (*sim.Result, bool, error) {
	e, ok := s.Lookup(k)
	if !ok {
		return nil, false, nil
	}
	tr, err := s.Trace(e)
	if err != nil {
		return nil, false, err
	}
	res := &sim.Result{
		Trace:           tr,
		Collision:       tr.Collision,
		FramesProcessed: e.FramesProcessed,
		MinBumperGap:    e.MinBumperGap,
		EgoStopped:      e.EgoStopped,
		Level:           trace.LevelFull, // only full traces are ever archived
	}
	if res.FramesProcessed == nil {
		res.FramesProcessed = map[string]int{}
	}
	if e.MinGapInfinite {
		res.MinBumperGap = math.Inf(1)
	}
	return res, true, nil
}

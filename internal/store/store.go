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
// Artifacts are content-addressed: <hash> is a SHA-256 and <aa> its
// first two hex digits. Each manifest entry's hash-scheme tag says what
// was hashed. Entries written by Put carry "hash":"zyt" (HashZYT): the
// hash is of the ZYT1 object bytes themselves, computed while they
// stream into a temp file that is then renamed into place, so a Put
// encodes its trace once and buffers nothing. Entries without the tag
// predate it and use the legacy scheme: the hash of the canonical JSONL
// serialization (trace.Trace.Write), whichever format is on disk. Both
// schemes live side by side with no rewrite; the only paths that
// re-derive a hash — Put's self-heal and Migrate's verify — do so in
// the entry's or the object's own scheme. One run archived under both
// schemes has two addresses, so JSONL-addressed and ZYT-addressed
// copies do not dedup against each other. A binary that predates the
// tag ignores it and still reads tagged entries, because lookup is by
// address alone; only its self-heal and Migrate, which rehash as JSONL,
// refuse them (as drifted, or as a hash mismatch).
//
// New objects are written in the ZYT1 binary columnar format
// (trace.WriteZYT, stored raw — its decoder is what makes the disk
// tier faster than re-simulating), and ZYT1 is the only format the
// store writes. Old gzip-JSONL objects stay readable forever, and
// Migrate upgrades them to ZYT1 in place, one way, keeping every
// address. The manifest maps a Key — scenario spec fingerprint, FPR,
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

// Key identifies one archived run: the scenario's spec fingerprint
// (scenario.SpecFingerprint), the uniform frame processing rate, the
// noise seed, and the simulator version the trace was recorded under.
type Key struct {
	Fingerprint string  `json:"fp"`
	FPR         float64 `json:"fpr"`
	Seed        int64   `json:"seed"`
	SimVersion  string  `json:"sim"`
}

// KeyForScenario builds the store key of a (scenario, FPR, seed) point
// under the current simulator version. Every scenario is spec-backed,
// registered or not (generated corpus members), so archived runs are
// content-addressed: a parameter change misses cleanly instead of
// hitting a stale trace recorded under the same name.
func KeyForScenario(sc scenario.Scenario, fpr float64, seed int64) Key {
	return Key{Fingerprint: sc.Fingerprint, FPR: fpr, Seed: seed, SimVersion: sim.Version}
}

// Entry is one manifest record: a key, its artifact, and the run
// summary that together with the trace reconstructs the sim.Result.
type Entry struct {
	Key      Key    `json:"key"`
	Scenario string `json:"scenario"` // registration name at record time
	// Artifact is the object's content address: the SHA-256 of the
	// serialization HashScheme names.
	Artifact string `json:"artifact"`
	// HashScheme is HashZYT for entries whose Artifact hashes the ZYT1
	// object bytes (every entry Put writes), or empty for legacy entries
	// whose Artifact hashes the canonical JSONL serialization.
	HashScheme string `json:"hash,omitempty"`
	Rows       int    `json:"rows"`
	// Bytes is the size of the hashed serialization: the ZYT1 object
	// bytes under HashZYT, the uncompressed JSONL for legacy entries.
	Bytes int64 `json:"bytes"`

	Collision       *trace.Collision `json:"collision,omitempty"`
	FramesProcessed map[string]int   `json:"frames_processed"`
	// MinBumperGap mirrors sim.Result.MinBumperGap; +Inf (no in-corridor
	// approach) is not representable in JSON, so it is flagged instead.
	MinBumperGap   float64 `json:"min_bumper_gap"`
	MinGapInfinite bool    `json:"min_gap_infinite,omitempty"`
	EgoStopped     bool    `json:"ego_stopped,omitempty"`

	RecordedUnix int64 `json:"recorded_unix"`
}

// HashZYT is the hash-scheme tag of entries addressed by the SHA-256 of
// their ZYT1 object bytes. An empty tag is the legacy scheme, the
// SHA-256 of the canonical JSONL serialization. Changing the bytes
// WriteZYT produces for a trace changes addresses, and needs a new tag.
const HashZYT = "zyt"

// Store is an open campaign store. Construct with Open.
type Store struct {
	dir string

	mu sync.Mutex
	// entries holds one entry per key in first-recorded order, and index
	// its position. An Entry is too large to be a map value held in
	// place, so the map would allocate each one separately.
	index    map[Key]int
	entries  []Entry
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
	s := &Store{dir: dir, refreshEvery: defaultRefreshEvery}
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
// A non-negative size is the length a .zyt object at the address must
// have: one of another size is damaged and counts as missing, so a
// heal renames a good copy over it.
func (s *Store) locateObject(hash string, size int64) (path string, legacy bool, err error) {
	p := s.ObjectPath(hash)
	if fi, err := os.Stat(p); err == nil && (size < 0 || fi.Size() == size) {
		return p, false, nil
	}
	p = s.LegacyObjectPath(hash)
	if _, err := os.Stat(p); err == nil {
		return p, true, nil
	}
	return "", false, fmt.Errorf("store: artifact %s: %w", hash, os.ErrNotExist)
}

// putLineBytes is about the length of a manifest line Put writes.
const putLineBytes = 400

// loadManifest populates the index at Open by streaming the manifest
// line by line — never slurped whole, so opening a large store doesn't
// spike memory. The index is sized once for the manifest's length over
// putLineBytes, so it does not regrow from empty line by line; the
// size is bounded by the manifest's bytes, re-recorded keys or not.
func (s *Store) loadManifest() error {
	f, err := os.Open(s.manifestPath())
	if os.IsNotExist(err) {
		s.index = make(map[Key]int)
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	n := int(fi.Size() / putLineBytes)
	s.index, s.entries = make(map[Key]int, n), make([]Entry, 0, n)
	return s.ingestReaderLocked(f, fi.Size())
}

// ingestReaderLocked parses manifest lines starting at offset s.loaded
// and advances the offset past every line it consumed. Only
// newline-terminated lines are consumed: a torn final line — the
// signature of a crashed or mid-write appender — is left unconsumed
// (not an error), so a later refresh re-reads it once its writer
// finishes. A complete line that fails to parse is tolerated only in
// final position (crashed-writer debris another process appended
// after); corruption anywhere else is a real error.
//
// The reader's buffer is sized to the unread bytes, up to 256 KiB
// (bufio floors it at its minimum), so the refresh after each Put reads
// its one line through a line-sized buffer. A line is read in place
// from that buffer and is dead at the next read: the decoder and
// json.Unmarshal copy every string they keep. Only a line longer than
// the buffer is gathered into a copy. A line in the shape Put writes is
// decoded by lineDecoder.entry; any other goes through json.Unmarshal.
func (s *Store) ingestReaderLocked(r io.Reader, unread int64) error {
	br := bufio.NewReaderSize(r, int(min(unread, 256<<10)))
	var (
		dec    lineDecoder
		long   []byte // the start of a line longer than br's buffer
		badErr error  // parse failure pending the is-it-final check
		badEnd int64  // offset just past the unparseable line
	)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long, line...)
			continue
		}
		if long != nil {
			line, long = append(long, line...), nil
		}
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
		e, ok := dec.entry(line)
		if !ok {
			var je Entry // escapes to the heap, so only on this path
			if err := json.Unmarshal(line, &je); err != nil {
				badErr, badEnd = err, next
				continue
			}
			e = je
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
	_ = s.ingestReaderLocked(f, fi.Size()-s.loaded)
}

// Refresh ingests manifest lines other processes appended since the
// last read, bypassing the Lookup miss-path debounce. A caller about to
// answer a batch of lookups from a shared directory calls it once, so
// an append that landed just before the batch is never missed.
func (s *Store) Refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked(true)
}

// addLocked inserts an entry into the in-memory index; later manifest
// lines for the same key win (re-records supersede).
func (s *Store) addLocked(e Entry) {
	if i, ok := s.index[e.Key]; ok {
		s.entries[i] = e
		return
	}
	s.index[e.Key] = len(s.entries)
	s.entries = append(s.entries, e)
}

// lookupLocked returns the indexed entry for a key.
func (s *Store) lookupLocked(k Key) (Entry, bool) {
	i, ok := s.index[k]
	if !ok {
		return Entry{}, false
	}
	return s.entries[i], true
}

// Len reports the number of distinct keys in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Summary aggregates the manifest index: distinct archived keys, the
// scenarios they span, and total row/byte volume (Entry.Bytes). It
// reads only the in-memory index — no artifact is touched — so it is
// cheap enough to serve on every stats request.
type Summary struct {
	Entries   int   `json:"entries"`   // distinct archived (fingerprint, FPR, seed, sim) keys
	Scenarios int   `json:"scenarios"` // distinct scenario names at record time
	Rows      int   `json:"rows"`      // total trace rows across entries
	Bytes     int64 `json:"bytes"`     // total Entry.Bytes: ZYT1 object bytes, legacy JSONL bytes
}

// Summarize computes the store's manifest Summary, refreshing the
// index from the manifest tail first so concurrent recorders' entries
// are counted.
func (s *Store) Summarize() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked(true)
	sum := Summary{Entries: len(s.entries)}
	names := make(map[string]struct{})
	for _, e := range s.entries {
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
	e, ok := s.lookupLocked(k)
	if !ok {
		s.refreshLocked(false)
		e, ok = s.lookupLocked(k)
	}
	return e, ok
}

// Entries returns every manifest entry sorted by (scenario, FPR, seed,
// sim version) — a stable order for reports and baselines. Like
// Lookup, it refreshes from the manifest tail first.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	s.refreshLocked(true)
	out := make([]Entry, len(s.entries))
	copy(out, s.entries)
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
// vanished (partial cleanup, a crashed recorder's debris removal), or
// its .zyt object is not the Entry.Bytes a ZYT-scheme entry records,
// Put self-heals by rewriting the object — runs are deterministic, so
// the fresh result must reproduce the recorded artifact hash in the
// entry's own scheme; a mismatch is reported instead of silently
// masking semantics drift.
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
	existing, exists := s.lookupLocked(k)
	if !exists {
		// Another process sharing the directory may have archived this
		// point already; the refresh turns that into an idempotent no-op
		// instead of a duplicate manifest line. Forced: the miss-path
		// debounce must never cause a duplicate append.
		s.refreshLocked(true)
		existing, exists = s.lookupLocked(k)
	}
	closed := s.manifest == nil
	s.mu.Unlock()
	if exists {
		if _, _, err := s.locateObject(existing.Artifact, existing.zytSize()); err == nil {
			return existing, false, nil
		}
		if err := s.heal(existing, res.Trace); err != nil {
			return existing, false, fmt.Errorf("store: put %s: %w", scenarioName, err)
		}
		return existing, true, nil
	}
	if closed {
		return Entry{}, false, fmt.Errorf("store: put %s: store closed", scenarioName)
	}

	obj, err := s.stageObject(res.Trace)
	if err != nil {
		return Entry{}, false, fmt.Errorf("store: put %s: %w", scenarioName, err)
	}
	defer obj.discard()
	if err := s.installObject(obj, obj.hash); err != nil {
		return Entry{}, false, fmt.Errorf("store: put %s: %w", scenarioName, err)
	}

	e := Entry{
		Key:             k,
		Scenario:        scenarioName,
		Artifact:        obj.hash,
		HashScheme:      HashZYT,
		Rows:            res.Trace.Len(),
		Bytes:           obj.size,
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
	if prev, ok := s.lookupLocked(k); ok {
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

// heal rewrites the vanished or mis-sized object of an existing entry
// from a fresh run of its key, after checking that the run hashes to
// the recorded address in the entry's scheme. A ZYT-scheme check is the
// staged stream's own hash; a legacy check renders the JSONL first.
// Either way the object is written as ZYT1.
func (s *Store) heal(e Entry, tr *trace.Trace) error {
	if e.HashScheme != HashZYT {
		hash, err := traceHash(tr, e.HashScheme)
		if err != nil {
			return err
		}
		if hash != e.Artifact {
			return driftError(e.Artifact, hash)
		}
	}
	obj, err := s.stageObject(tr)
	if err != nil {
		return err
	}
	defer obj.discard()
	if e.HashScheme == HashZYT && obj.hash != e.Artifact {
		return driftError(e.Artifact, obj.hash)
	}
	return s.installObject(obj, e.Artifact)
}

// driftError reports a self-heal whose fresh run hashes away from the
// recorded address.
func driftError(recorded, fresh string) error {
	return fmt.Errorf(
		"artifact %s is missing and the fresh run hashes to %s — simulator semantics drifted without a sim.Version bump?",
		recorded, fresh)
}

// traceHash re-derives a trace's content address under a hash scheme:
// the SHA-256 of its ZYT1 bytes (HashZYT) or of its canonical JSONL
// (legacy, the empty scheme).
func traceHash(tr *trace.Trace, scheme string) (string, error) {
	h := sha256.New()
	var err error
	switch scheme {
	case HashZYT:
		err = tr.WriteZYT(h)
	case "":
		err = tr.Write(h)
	default:
		return "", fmt.Errorf("unknown hash scheme %q", scheme)
	}
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// stagedObject is a trace's ZYT1 encoding written to a temp file under
// objects/ and not yet installed at its address.
type stagedObject struct {
	tmp  string // temp file path; empty once installed
	hash string // SHA-256 of the ZYT1 bytes, hex
	size int64  // ZYT1 bytes written
}

// stageObject streams the trace's ZYT1 encoding into a temp file,
// hashing and counting the bytes on the way, so the object is encoded
// once and never held in memory. The payload is the raw ZYT1 stream,
// uncompressed: the format's column deltas already shrink the hot
// fields, and skipping gzip is where the disk tier's decode speed
// comes from. The caller installs or discards it.
func (s *Store) stageObject(tr *trace.Trace) (*stagedObject, error) {
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "objects"), ".tmp-*")
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	var n byteCounter
	err = tr.WriteZYT(io.MultiWriter(tmp, h, &n))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("write object: %w", err)
	}
	return &stagedObject{tmp: tmp.Name(), hash: hex.EncodeToString(h.Sum(nil)), size: int64(n)}, nil
}

// installObject renames a staged object to objects/<aa>/<addr>.zyt. An
// object already present at addr in either format is kept, and the
// staged copy is left for discard, unless addr is the staged bytes' own
// address and the .zyt there is not their size.
func (s *Store) installObject(obj *stagedObject, addr string) error {
	size := int64(-1)
	if addr == obj.hash {
		size = obj.size
	}
	if _, _, err := s.locateObject(addr, size); err == nil {
		return nil
	}
	path := s.ObjectPath(addr)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write object %s: %w", addr, err)
	}
	if err := os.Rename(obj.tmp, path); err != nil {
		return fmt.Errorf("write object %s: %w", addr, err)
	}
	obj.tmp = ""
	return nil
}

// discard removes the staged temp file unless it was installed.
func (obj *stagedObject) discard() {
	if obj.tmp != "" {
		os.Remove(obj.tmp)
	}
}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// Trace loads and parses an entry's artifact from whichever format it
// is stored in — ZYT1 binary (current) or gzip JSONL (legacy) — so
// mixed-format stores read transparently. A ZYT1 object of an entry
// addressed by its ZYT1 bytes (HashZYT) must be Entry.Bytes long: a
// truncated or extended object is refused before it is read.
func (s *Store) Trace(e Entry) (*trace.Trace, error) { return s.TraceInto(e, nil) }

// TraceInto is Trace reading a ZYT1 object into buf.Bytes and decoding
// it into buf (trace.DecodeZYTInto), so a caller that reads entry
// after entry reuses one set of storage. The trace aliases buf until
// the next read into it. A legacy object decodes into fresh storage. A
// nil buf allocates, as Trace does.
func (s *Store) TraceInto(e Entry, buf *trace.RowBuffer) (*trace.Trace, error) {
	path, legacy, err := s.locateObject(e.Artifact, -1)
	if err != nil {
		return nil, err
	}
	tr, err := readObject(path, legacy, e.zytSize(), buf)
	if err != nil {
		return nil, fmt.Errorf("store: artifact %s: %w", e.Artifact, err)
	}
	return tr, nil
}

// readObject decodes one object file: gzip JSONL when legacy, else
// ZYT1 read whole in one read sized from Stat (the disk tier's hot
// path) into buf. A non-negative size is the ZYT1 object's required
// length, checked before the read.
func readObject(path string, legacy bool, size int64, buf *trace.RowBuffer) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if legacy {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer zr.Close()
		return trace.Read(zr)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if size >= 0 && fi.Size() != size {
		return nil, fmt.Errorf("object is %d bytes, the manifest records %d", fi.Size(), size)
	}
	b := buf.Bytes(int(fi.Size()))
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, err
	}
	return trace.DecodeZYTInto(b, buf)
}

// zytSize is the length the entry's .zyt object must have: Entry.Bytes
// under HashZYT, or -1 for a legacy entry, whose Bytes counts JSONL.
func (e Entry) zytSize() int64 {
	if e.HashScheme == HashZYT {
		return e.Bytes
	}
	return -1
}

// Result is the entry's run summary as a sim.Result: collision, frames
// processed, min gap (+Inf when flagged), ego stop and the archived row
// count, at trace.LevelSummary with no trace. It is the disk tier's
// answer for a key; Get attaches the decoded trace to it.
func (e Entry) Result() *sim.Result {
	res := &sim.Result{
		Collision:       e.Collision,
		FramesProcessed: e.FramesProcessed,
		MinBumperGap:    e.MinBumperGap,
		EgoStopped:      e.EgoStopped,
		ArchivedRows:    e.Rows,
		Level:           trace.LevelSummary,
	}
	if res.FramesProcessed == nil {
		res.FramesProcessed = map[string]int{}
	}
	if e.MinGapInfinite {
		res.MinBumperGap = math.Inf(1)
	}
	return res
}

// Get reconstructs the archived sim.Result for a key: the manifest's
// run summary (Entry.Result) plus the parsed trace. It reports
// (nil, false, nil) on a clean miss; a present key whose artifact
// cannot be read is an error. The reconstruction is deep-equal to the
// result a fresh simulation of the same point produces.
func (s *Store) Get(k Key) (*sim.Result, bool, error) {
	e, ok := s.Lookup(k)
	if !ok {
		return nil, false, nil
	}
	tr, err := s.Trace(e)
	if err != nil {
		return nil, false, err
	}
	res := e.Result()
	// Only full traces are ever archived; the trace carries the rows.
	res.Trace, res.Level, res.ArchivedRows = tr, trace.LevelFull, 0
	return res, true, nil
}

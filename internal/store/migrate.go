package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/trace"
)

// MigrateStats reports what one Migrate pass did.
type MigrateStats struct {
	Scanned   int   `json:"scanned"`   // objects examined
	Rewritten int   `json:"rewritten"` // legacy objects upgraded to ZYT1
	Skipped   int   `json:"skipped"`   // objects already in ZYT1
	BytesIn   int64 `json:"bytes_in"`  // on-disk size of upgraded source objects
	BytesOut  int64 `json:"bytes_out"` // on-disk size of their replacements
}

// Migrate upgrades every legacy gzip-JSONL object in the store to the
// ZYT1 format, in place: each source object is decoded, verified to
// hash back to its content address, re-encoded to a temp file,
// fsynced, renamed over the .zyt path, and only then is the source
// removed. A crash at any point leaves each artifact readable in at
// least one format (readers probe both), and a decode or hash mismatch
// skips the object with an error rather than destroying the only good
// copy. Migrate walks the objects directory rather than the manifest,
// so shared and orphaned objects upgrade too; manifest entries are
// untouched (an object keeps its address, whichever hash scheme
// produced it). The upgrade is one way: the store never writes gzip
// JSONL.
func (s *Store) Migrate() (MigrateStats, error) {
	var st MigrateStats
	root := filepath.Join(s.dir, "objects")
	var firstErr error
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		name := info.Name()
		switch {
		case strings.HasSuffix(name, extZYT):
			st.Scanned++
			st.Skipped++
			return nil
		case !strings.HasSuffix(name, extJSONL):
			return nil // temp debris or foreign files
		}
		st.Scanned++
		out, err := s.upgradeObject(path, strings.TrimSuffix(name, extJSONL))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return nil // keep upgrading the rest
		}
		st.Rewritten++
		st.BytesIn += info.Size()
		st.BytesOut += out
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("store: migrate: %w", err)
	}
	return st, firstErr
}

// upgradeObject rewrites one legacy artifact as ZYT1 and removes the
// source, returning the new object's on-disk size.
func (s *Store) upgradeObject(srcPath, hash string) (int64, error) {
	tr, err := readObject(srcPath, true, -1, nil)
	if err != nil {
		return 0, fmt.Errorf("store: migrate %s: %w", hash, err)
	}
	// Verify before touching anything so a bit-rotted source or an
	// encoder bug never installs a mislabeled object. Migrate walks
	// objects, not the manifest, so it does not know which scheme
	// addressed this one: the decoded trace must hash to its address
	// under either.
	if err := verifyAddress(tr, hash); err != nil {
		return 0, fmt.Errorf("store: migrate %s: %w", hash, err)
	}

	dst := s.ObjectPath(hash)
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-"+hash+"-*")
	if err != nil {
		return 0, fmt.Errorf("store: migrate %s: %w", hash, err)
	}
	defer os.Remove(tmp.Name())
	err = tr.WriteZYT(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	var size int64
	if err == nil {
		if fi, serr := tmp.Stat(); serr == nil {
			size = fi.Size()
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("store: migrate %s: %w", hash, err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return 0, fmt.Errorf("store: migrate %s: %w", hash, err)
	}
	if err := os.Remove(srcPath); err != nil && !os.IsNotExist(err) {
		return size, fmt.Errorf("store: migrate %s: source cleanup: %w", hash, err)
	}
	return size, nil
}

// verifyAddress checks that a decoded trace hashes to hash under the
// ZYT scheme or the legacy JSONL scheme.
func verifyAddress(tr *trace.Trace, hash string) error {
	zyt, err := traceHash(tr, HashZYT)
	if err != nil || zyt == hash {
		return err
	}
	jsonl, err := traceHash(tr, "")
	if err != nil || jsonl == hash {
		return err
	}
	return fmt.Errorf("decoded object hashes to %s (zyt) and %s (jsonl) — refusing to rewrite", zyt, jsonl)
}

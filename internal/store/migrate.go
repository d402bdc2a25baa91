package store

import (
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/trace"
)

// Format names an on-disk object encoding for Migrate.
type Format string

// The two object encodings a store can hold.
const (
	// FormatZYT is the current binary columnar encoding (.zyt).
	FormatZYT Format = "zyt"
	// FormatJSONL is the legacy gzip JSONL encoding (.jsonl.gz).
	FormatJSONL Format = "jsonl"
)

// ParseFormat maps a user-facing format name to a Format.
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(name) {
	case string(FormatZYT), extZYT:
		return FormatZYT, nil
	case string(FormatJSONL), "jsonl.gz", extJSONL:
		return FormatJSONL, nil
	}
	return "", fmt.Errorf("store: unknown object format %q (want %q or %q)", name, FormatZYT, FormatJSONL)
}

func (f Format) ext() string {
	if f == FormatJSONL {
		return extJSONL
	}
	return extZYT
}

// MigrateStats reports what one Migrate pass did.
type MigrateStats struct {
	Scanned   int   `json:"scanned"`   // objects examined
	Rewritten int   `json:"rewritten"` // objects converted to the target format
	Skipped   int   `json:"skipped"`   // objects already in the target format
	BytesIn   int64 `json:"bytes_in"`  // on-disk size of converted source objects
	BytesOut  int64 `json:"bytes_out"` // on-disk size of their replacements
}

// Migrate rewrites every object in the store to the target format, in
// place: each source object is decoded, re-encoded to a temp file,
// fsynced, verified to hash back to its content address, renamed over
// the target path, and only then is the source removed. A crash at any
// point leaves each artifact readable in at least one format (readers
// probe both), and a decode or hash mismatch skips the object with an
// error rather than destroying the only good copy. Migrate walks the
// objects directory rather than the manifest, so shared and orphaned
// objects convert too; manifest entries are untouched (an object keeps
// its address, whichever hash scheme produced it, in either format).
func (s *Store) Migrate(target Format) (MigrateStats, error) {
	var st MigrateStats
	root := filepath.Join(s.dir, "objects")
	var firstErr error
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		name := info.Name()
		var hash string
		var from Format
		switch {
		case strings.HasSuffix(name, extZYT):
			hash, from = strings.TrimSuffix(name, extZYT), FormatZYT
		case strings.HasSuffix(name, extJSONL):
			hash, from = strings.TrimSuffix(name, extJSONL), FormatJSONL
		default:
			return nil // temp debris or foreign files
		}
		st.Scanned++
		if from == target {
			st.Skipped++
			return nil
		}
		out, err := s.convertObject(path, hash, from, target)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return nil // keep converting the rest
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

// convertObject rewrites one artifact to the target format and removes
// the source, returning the new object's on-disk size.
func (s *Store) convertObject(srcPath, hash string, from, target Format) (int64, error) {
	tr, err := readObjectFile(srcPath, from)
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

	dst := s.objectPathExt(hash, target.ext())
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-"+hash+"-*")
	if err != nil {
		return 0, fmt.Errorf("store: migrate %s: %w", hash, err)
	}
	defer os.Remove(tmp.Name())
	switch target {
	case FormatJSONL:
		zw, _ := gzip.NewWriterLevel(tmp, gzip.BestSpeed)
		if err = tr.Write(zw); err == nil {
			err = zw.Close()
		} else {
			zw.Close()
		}
	default:
		err = tr.WriteZYT(tmp)
	}
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

// readObjectFile decodes one object file in the given format.
func readObjectFile(path string, f Format) (*trace.Trace, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	if f == FormatJSONL {
		zr, err := gzip.NewReader(file)
		if err != nil {
			return nil, err
		}
		defer zr.Close()
		return trace.Read(zr)
	}
	return trace.ReadZYT(file)
}

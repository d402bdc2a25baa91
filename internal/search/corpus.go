package search

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteCorpus serializes a search result as indented JSON. The bytes
// are a pure function of the result, so two deterministic searches
// produce byte-identical corpus files — which is what the determinism
// smoke diffs.
func WriteCorpus(w io.Writer, r *Result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("search: encode corpus: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

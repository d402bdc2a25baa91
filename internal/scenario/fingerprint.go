package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// SpecFingerprint returns a stable content hash of a declarative spec:
// the SHA-256 of its canonical JSON encoding. Two specs fingerprint
// equally iff every declared field — name, road geometry, ego speed,
// actors, triggers, jitter declarations — is identical, which is
// exactly the condition under which a (FPR, seed) compilation produces
// the same simulator configuration (the name included: it becomes the
// trace's scenario metadata). The persistent run store keys archived
// traces on this value, so any spec edit cleanly invalidates its
// artifacts instead of serving stale runs.
func SpecFingerprint(sp Spec) string {
	// Spec is pure data (no closures), and encoding/json emits struct
	// fields in declaration order, so the encoding is canonical.
	b, err := json.Marshal(sp)
	if err != nil {
		// Spec contains only plain scalars, strings, and slices; this is
		// unreachable short of memory corruption.
		panic(fmt.Sprintf("scenario: fingerprint %s: %v", sp.Name, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring.go: the consistent-hash ring that partitions campaign points
// across replicas. Points hash by scenario spec fingerprint — not by
// (fingerprint, FPR, seed) — so every rate/seed variant of one
// scenario lands on the same replica, whose memory cache thrives on
// exactly that locality. Virtual nodes smooth the
// partition; the ring is immutable once built (replica death is
// handled by walking the point's replica sequence, not by resizing).

// defaultVirtualNodes is the per-replica virtual-node count. At 64
// vnodes the expected partition imbalance across a handful of replicas
// stays within a few percent, and building the ring is still microseconds.
const defaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over replica base URLs.
// Construct with NewRing. The zero value is not usable.
type Ring struct {
	replicas []string
	hashes   []uint64 // sorted vnode positions
	owner    []int    // hashes[i] belongs to replicas[owner[i]]
}

// NewRing builds a ring of defaultVirtualNodes virtual nodes per
// replica. Replica URLs must be non-empty and distinct.
func NewRing(replicas []string) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("fabric: ring needs at least one replica")
	}
	seen := make(map[string]bool, len(replicas))
	r := &Ring{replicas: replicas}
	for i, rep := range replicas {
		if rep == "" {
			return nil, fmt.Errorf("fabric: replica %d has an empty URL", i)
		}
		if seen[rep] {
			return nil, fmt.Errorf("fabric: duplicate replica %q", rep)
		}
		seen[rep] = true
		for v := 0; v < defaultVirtualNodes; v++ {
			r.hashes = append(r.hashes, hash64(fmt.Sprintf("%s#%d", rep, v)))
			r.owner = append(r.owner, i)
		}
	}
	sort.Sort(byHash{r})
	return r, nil
}

// byHash sorts the parallel hash/owner slices together.
type byHash struct{ r *Ring }

func (s byHash) Len() int           { return len(s.r.hashes) }
func (s byHash) Less(i, j int) bool { return s.r.hashes[i] < s.r.hashes[j] }
func (s byHash) Swap(i, j int) {
	s.r.hashes[i], s.r.hashes[j] = s.r.hashes[j], s.r.hashes[i]
	s.r.owner[i], s.r.owner[j] = s.r.owner[j], s.r.owner[i]
}

// hash64 is the ring's position function: the first 8 bytes of a
// SHA-256, matching the store's content-hash family so fingerprints
// spread uniformly without a hash-quality dependency on their shape.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Replicas returns the ring's replicas in construction order.
func (r *Ring) Replicas() []string { return r.replicas }

// at locates the first vnode clockwise of the key's position.
func (r *Ring) at(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return i
}

// Owner returns the replica owning a scenario fingerprint: the one
// whose vnode is first clockwise of the fingerprint's ring position.
func (r *Ring) Owner(fingerprint string) string {
	return r.replicas[r.owner[r.at(fingerprint)]]
}

// Sequence returns every replica in the order a fingerprint encounters
// them walking clockwise from its position — Sequence(fp)[0] is
// Owner(fp), and each later element is the retry target after the one
// before it failed. The slice always contains all replicas exactly
// once.
func (r *Ring) Sequence(fingerprint string) []string {
	out := make([]string, 0, len(r.replicas))
	seen := make(map[int]bool, len(r.replicas))
	start := r.at(fingerprint)
	for i := 0; i < len(r.hashes) && len(out) < len(r.replicas); i++ {
		rep := r.owner[(start+i)%len(r.hashes)]
		if !seen[rep] {
			seen[rep] = true
			out = append(out, r.replicas[rep])
		}
	}
	return out
}

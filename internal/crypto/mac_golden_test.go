package crypto

import (
	"crypto/ed25519"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pairwise_keys.golden from the current derivation")

// goldenPairs are key pairs from fixed seeds: three replicas and a data
// center, whose seed bytes are all id+1.
func goldenPairs() []*KeyPair {
	var pairs []*KeyPair
	for i, id := range []NodeID{0, 1, 2, DataCenterIDBase} {
		seed := make([]byte, ed25519.SeedSize)
		for j := range seed {
			seed[j] = byte(i + 1)
		}
		pairs = append(pairs, KeyPairFromPrivate(id, ed25519.NewKeyFromSeed(seed)))
	}
	return pairs
}

// TestPairwiseKeyGolden pins the Commit MAC keys derived from fixed key
// pairs, in both directions of every pair. Replicas of one cluster must
// derive the same keys across builds, or their Commits stop authenticating.
// Run with -update to regenerate after an intended change to the derivation.
func TestPairwiseKeyGolden(t *testing.T) {
	pairs := goldenPairs()
	var b strings.Builder
	for _, a := range pairs {
		fmt.Fprintf(&b, "%v.public %x\n", a.ID, a.Public)
		for _, p := range pairs {
			if p == a {
				continue
			}
			k, err := a.PairwiseKey(p.ID, p.Public)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%v-%v %x\n", a.ID, p.ID, k)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "pairwise_keys.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("pairwise keys differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

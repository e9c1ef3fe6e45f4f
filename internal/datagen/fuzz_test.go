package datagen

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestParseDTDNeverPanics feeds the DTD parser random declaration-ish
// soup: it must return a DTD or an error, never panic, and any accepted
// DTD must generate a valid tree.
func TestParseDTDNeverPanics(t *testing.T) {
	pieces := []string{
		"<!ELEMENT ", ">", "(", ")", "|", ",", "?", "*", "+",
		"#PCDATA", "EMPTY", "a", "b", "c", " ",
	}
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
				t.Logf("seed %d panicked: %v", seed, r)
			}
		}()
		r := rand.New(rand.NewSource(seed))
		var src string
		for i, n := 0, r.Intn(30); i < n; i++ {
			src += pieces[r.Intn(len(pieces))]
		}
		d, err := ParseDTD(src)
		if err != nil {
			return true
		}
		// Accepted: generation from the first declared element must
		// produce a valid tree (bounded).
		root := d.order[0]
		tr, err := d.Generate(GenConfig{Seed: seed, Root: root, MaxDepth: 6, MaxNodes: 200})
		if err != nil {
			t.Logf("seed %d: accepted DTD failed to generate: %v", seed, err)
			return false
		}
		if err := tr.Validate(); err != nil {
			t.Logf("seed %d: generated invalid tree: %v", seed, err)
			return false
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}

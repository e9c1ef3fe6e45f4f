package histogram

import (
	"math/rand"
	"slices"
	"testing"
)

// randomCoverage builds a coverage histogram with n random entries on a
// g×g grid (deterministic per seed), together with the map-backed
// reference histogram assigned the same entries.
func randomCoverage(g, n int, seed int64) (*Coverage, *refCoverage) {
	rng := rand.New(rand.NewSource(seed))
	grid := MustUniformGrid(g, 4*g)
	ref := newRefCoverage(grid)
	entries := make([]CoverageEntry, n)
	for k := range entries {
		i := rng.Intn(g)
		j := i + rng.Intn(g-i)
		m := rng.Intn(i + 1)
		n2 := j + rng.Intn(g-j)
		entries[k] = CoverageEntry{i, j, m, n2, rng.Float64()}
		ref.SetFrac(i, j, m, n2, entries[k].Frac)
	}
	return NewCoverageFromEntries(grid, entries), ref
}

// fracOf returns Cvg[i][j][m][n] by binary search of the CSR rows.
func fracOf(c *Coverage, i, j, m, n int) float64 {
	r := c.Row(i, j)
	if r < 0 {
		return 0
	}
	_, rowStart, aCell, frac := c.CSR()
	lo, hi := rowStart[r], rowStart[r+1]
	if k, ok := slices.BinarySearch(aCell[lo:hi], uint32(key(m, n))); ok {
		return frac[lo+uint32(k)]
	}
	return 0
}

// coveredFrac returns the fraction of cell (i, j) covered by any
// ancestor cell: its row's sum in ancestor order.
func coveredFrac(c *Coverage, i, j int) float64 {
	var sum float64
	if r := c.Row(i, j); r >= 0 {
		_, rowStart, _, frac := c.CSR()
		for _, f := range frac[rowStart[r]:rowStart[r+1]] {
			sum += f
		}
	}
	return sum
}

// TestFlattenMatchesMaps pins the CSR form against the map-backed
// reference representation: every lookup agrees bit-for-bit and the
// iteration is exhaustive, sorted and in the reference's order.
func TestFlattenMatchesMaps(t *testing.T) {
	c, ref := randomCoverage(12, 200, 1)
	if c.Entries() != ref.Entries() {
		t.Fatalf("entries %d != reference %d", c.Entries(), ref.Entries())
	}
	type quad struct{ i, j, m, n int }
	var want []quad
	ref.EachFrac(func(i, j, m, n int, fr float64) {
		want = append(want, quad{i, j, m, n})
		if got := fracOf(c, i, j, m, n); got != fr {
			t.Fatalf("Frac(%d,%d,%d,%d)=%v, reference %v", i, j, m, n, got, fr)
		}
	})
	seen := 0
	c.EachFrac(func(i, j, m, n int, fr float64) {
		if want[seen] != (quad{i, j, m, n}) {
			t.Fatalf("entry %d is %v, reference %v", seen, quad{i, j, m, n}, want[seen])
		}
		seen++
	})
	if seen != len(want) {
		t.Fatalf("EachFrac visited %d of %d entries", seen, len(want))
	}
	// Misses return zero.
	if g := c.Grid().Size(); fracOf(c, g-1, g-1, 0, 0) != 0 {
		t.Fatal("miss lookup is not zero")
	}
}

// TestPositionSparseConsistency: the non-zero cell list backs
// NonZero, EachNonZero, Count and MarshalBinary alike.
func TestPositionSparseConsistency(t *testing.T) {
	h := NewPosition(MustUniformGrid(6, 24), []Cell{{0, 3, 2}, {5, 5, 7}})
	if h.NonZero() != 2 || h.Total() != 9 {
		t.Fatalf("NonZero = %d, Total = %v, want 2 and 9", h.NonZero(), h.Total())
	}
	var visited int
	h.EachNonZero(func(i, j int, c float64) {
		if h.Count(i, j) != c {
			t.Fatalf("Count(%d,%d) = %v, EachNonZero %v", i, j, h.Count(i, j), c)
		}
		visited++
	})
	if visited != 2 || h.Count(2, 4) != 0 || h.Count(4, 2) != 0 {
		t.Fatalf("visited %d cells; misses %v %v", visited, h.Count(2, 4), h.Count(4, 2))
	}
	blob, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPosition(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count(0, 3) != 2 || back.Count(5, 5) != 7 || back.Count(2, 4) != 0 {
		t.Fatalf("roundtrip mismatch: %v %v %v", back.Count(0, 3), back.Count(5, 5), back.Count(2, 4))
	}
}

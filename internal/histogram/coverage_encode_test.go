package histogram

import (
	"math"
	"testing"

	"xmlest/internal/xmltree"
)

func TestCoverageMarshalRoundTrip(t *testing.T) {
	tr := xmltree.Fig1Document()
	grid := MustUniformGrid(4, tr.MaxPos)
	trueHist := BuildTrue(tr, grid)
	cov, err := BuildCoverage(tr, tr.NodesWithTag("faculty"), trueHist)
	if err != nil {
		t.Fatalf("BuildCoverage: %v", err)
	}
	blob, err := cov.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	got, err := UnmarshalCoverage(blob)
	if err != nil {
		t.Fatalf("UnmarshalCoverage: %v", err)
	}
	if !got.Grid().Equal(cov.Grid()) {
		t.Fatalf("grid lost")
	}
	if got.Entries() != cov.Entries() {
		t.Fatalf("entries = %d, want %d", got.Entries(), cov.Entries())
	}
	cov.EachFrac(func(i, j, m, n int, f float64) {
		if g := fracOf(got, i, j, m, n); math.Abs(g-f) > 1e-15 {
			t.Errorf("Cvg[%d][%d][%d][%d] = %v, want %v", i, j, m, n, g, f)
		}
	})
}

func TestCoverageMarshalEmpty(t *testing.T) {
	cov := NewCoverageFromEntries(MustUniformGrid(3, 30), nil)
	blob, err := cov.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	got, err := UnmarshalCoverage(blob)
	if err != nil {
		t.Fatalf("UnmarshalCoverage: %v", err)
	}
	if got.Entries() != 0 {
		t.Errorf("entries = %d, want 0", got.Entries())
	}
}

func TestUnmarshalCoverageRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{'X'},
		{'C'},
		{'C', 3},          // truncated grid
		{'C', 3, 30, 200}, // bad entry count varint chain
	}
	for _, c := range cases {
		if _, err := UnmarshalCoverage(c); err == nil {
			t.Errorf("UnmarshalCoverage(%v): want error", c)
		}
	}
}

// TestCoverageZeroFractionDeletesEntry: assigning a zero fraction
// after a non-zero one leaves no entry, as the decoder reads it.
func TestCoverageZeroFractionDeletesEntry(t *testing.T) {
	grid := MustUniformGrid(3, 30)
	cov := NewCoverageFromEntries(grid, []CoverageEntry{{0, 1, 0, 2, 0.5}})
	if cov.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", cov.Entries())
	}
	cov = NewCoverageFromEntries(grid, []CoverageEntry{{0, 1, 0, 2, 0.5}, {0, 1, 0, 2, 0}})
	if cov.Entries() != 0 {
		t.Errorf("a later zero fraction should delete the entry")
	}
	if fracOf(cov, 0, 1, 0, 2) != 0 {
		t.Errorf("deleted entry still readable")
	}
}

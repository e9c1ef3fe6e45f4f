package histogram

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSeedBlobs builds seed corpus blobs covering every encoder branch:
// uniform and non-uniform grids, integral and fractional counts, empty
// and dense histograms.
func fuzzSeedBlobs(f *testing.F) [][]byte {
	f.Helper()
	var blobs [][]byte
	add := func(h *Position) {
		b, err := h.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		blobs = append(blobs, b)
	}

	// Uniform grid, integral counts (the built-histogram common case).
	uni := MustUniformGrid(4, 100)
	add(NewPosition(uni, []Cell{{0, 0, 3}, {0, 3, 1}, {2, 3, 7}}))

	// Empty histogram.
	add(NewPosition(uni, nil))

	// Non-uniform grid (explicit bounds), integral counts.
	nug, err := NewGrid([]int{0, 5, 9, 40, 100})
	if err != nil {
		f.Fatal(err)
	}
	add(NewPosition(nug, []Cell{{1, 2, 2}, {3, 3, 5}}))

	// Fractional counts (estimated histograms) on both grid shapes.
	add(NewPosition(uni, []Cell{{0, 1, 1e-3}, {1, 2, 0.625}}))
	add(NewPosition(nug, []Cell{{0, 3, 2.5}}))

	return blobs
}

// FuzzEncodeDecode round-trips the position-histogram binary encoding:
// any blob UnmarshalPosition accepts must re-marshal and re-unmarshal
// to an identical histogram — grid, non-zero cells and total, bit for
// bit — and the decoder must never panic on arbitrary input. A blob
// cell with a zero count leaves no cell.
func FuzzEncodeDecode(f *testing.F) {
	for _, b := range fuzzSeedBlobs(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{'P'})
	f.Add([]byte("Pjunkjunkjunk"))
	// An integral blob on a 2-bucket grid whose second cell counts zero.
	f.Add([]byte{posMagic, flagIntegral, 2, 8, 2, 1, 4, 3, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalPosition(data)
		if err != nil {
			return // invalid input is fine; panics are not
		}
		for _, c := range h.NonZeroCells() {
			if c.Count == 0 {
				t.Fatalf("decoded a zero cell (%d,%d)", c.I, c.J)
			}
		}
		blob, err := h.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted blob failed: %v", err)
		}
		h2, err := UnmarshalPosition(blob)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if !h.Grid().Equal(h2.Grid()) {
			t.Fatal("grid changed across round trip")
		}
		if a, b := math.Float64bits(h.Total()), math.Float64bits(h2.Total()); a != b {
			t.Fatalf("total %v != %v", h.Total(), h2.Total())
		}
		a, b := h.NonZeroCells(), h2.NonZeroCells()
		if len(a) != len(b) {
			t.Fatalf("%d cells != %d", len(a), len(b))
		}
		for k := range a {
			if a[k].I != b[k].I || a[k].J != b[k].J || math.Float64bits(a[k].Count) != math.Float64bits(b[k].Count) {
				t.Fatalf("cell %d: %+v != %+v", k, a[k], b[k])
			}
		}
		g := h.Grid().Size()
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				a, b := h.Count(i, j), h2.Count(i, j)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("cell (%d,%d): %v != %v", i, j, a, b)
				}
			}
		}
	})
}

// FuzzCoverageEncodeDecode does the same for the coverage-histogram
// encoding, and holds the decoder to the map-backed reference: both
// accept or both reject, and accepted blobs re-encode identically.
func FuzzCoverageEncodeDecode(f *testing.F) {
	uni := MustUniformGrid(3, 60)
	c := NewCoverageFromEntries(uni, []CoverageEntry{
		{1, 1, 0, 2, 0.5}, {2, 2, 0, 2, 1}, {0, 1, 0, 2, 0.125},
	})
	blob, err := c.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	empty, err := NewCoverageFromEntries(uni, nil).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{'C'})
	// Entries out of order, duplicated, and zeroed by a later duplicate.
	raw := binary.AppendUvarint(appendGrid([]byte{cvgMagic}, uni), 4)
	for _, e := range []struct {
		v, a uint64
		f    float64
	}{{5, 2, 0.5}, {1, 0, 0.25}, {5, 2, 0}, {1, 0, 0.75}} {
		raw = binary.AppendUvarint(binary.AppendUvarint(raw, e.v), e.a)
		raw = binary.BigEndian.AppendUint64(raw, math.Float64bits(e.f))
	}
	f.Add(raw)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkCoverageDecode(t, data)
		c, err := UnmarshalCoverage(data)
		if err != nil {
			return
		}
		blob, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		c2, err := UnmarshalCoverage(blob)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if c.Entries() != c2.Entries() {
			t.Fatalf("entries %d != %d", c.Entries(), c2.Entries())
		}
		var mismatch bool
		c.EachFrac(func(i, j, m, n int, frac float64) {
			if math.Float64bits(fracOf(c2, i, j, m, n)) != math.Float64bits(frac) {
				mismatch = true
			}
		})
		if mismatch {
			t.Fatal("coverage fraction changed across round trip")
		}
	})
}
